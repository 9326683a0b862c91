"""Old import path of :mod:`repro.model.objref`, kept only for ``perf/``.

``perf/`` imports ``repro.heidirmi.objref`` and may not change in a PR
that is measured against it; the next ``benchmark`` PR retargets it and
deletes this module.  Nothing else may import it.
"""

from repro.model.objref import *  # noqa: F401,F403
