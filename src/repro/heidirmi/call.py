"""Old import path of :mod:`repro.model.call`, kept only for ``perf/``.

``perf/`` imports ``repro.heidirmi.call`` and may not change in a PR
that is measured against it; the next ``benchmark`` PR retargets it and
deletes this module.  Nothing else may import it.
"""

from repro.model.call import *  # noqa: F401,F403
