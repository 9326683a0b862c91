"""The repo's benchmark: seven workloads, end to end and layer by layer.

See ``perf/README.md``; ``BENCHMARK.json`` at the repo root records the
metric names, units and bounds that ``perf/spec.py`` defines.
"""
