"""Layered benchmark for schurfit.

`run.py` is the entry point: it runs one workload in its own process and
prints one JSON result line.  `workloads` makes the seeded inputs, `harness`
times and checks the public entry points of `regress` and `incremental`, and
`tracing` wraps the calls between modules for the per-layer numbers.
"""
