"""The data model every runtime layer shares, and the floor under them.

What a call *is*, independent of how it is carried or who drives it:

- :mod:`repro.model.errors` — the exception hierarchy and the
  ``CommunicationError.kind`` vocabulary;
- :mod:`repro.model.call` — ``Call``/``Reply`` and the ``STATUS_*``
  reply codes;
- :mod:`repro.model.marshal` — the abstract ``Marshaller``/
  ``Unmarshaller`` surface each encoding implements;
- :mod:`repro.model.objref` — ``ObjectReference`` and its stringified
  form;
- :mod:`repro.model.deadline` — the monotonic ``Deadline`` a call
  carries.

Nothing here imports anything else from ``repro`` (ARCH001 enforces
it), so ``repro.giop``, ``repro.wire``, ``repro.mappings`` and the
compiler can name an error class or a ``Call`` without loading the ORB.
The package init deliberately re-exports nothing: importing one module
of the model loads that module and what it needs, no more.
"""
