"""The repository benchmark: workloads, metrics and per-layer tracing.

Run ``python -m bench run``; see ``bench/README.md``.
"""
