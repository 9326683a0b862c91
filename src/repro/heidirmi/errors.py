"""Old import path of :mod:`repro.model.errors`, kept only for ``perf/``.

``perf/`` imports ``repro.heidirmi.errors`` and may not change in a PR
that is measured against it; the next ``benchmark`` PR retargets it and
deletes this module.  Nothing else may import it.
"""

from repro.model.errors import *  # noqa: F401,F403
