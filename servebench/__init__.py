"""Serving benchmark: ``python3 servebench/run.py --workload <name> ...``.

Three workloads drive the public serving API of :mod:`repro.serve` and
:mod:`repro.fleet` end to end, check every answer against an offline
reference, and report end-to-end metrics (untraced) or per-layer
metrics (traced).  See ``run.py`` for the command line.
"""
