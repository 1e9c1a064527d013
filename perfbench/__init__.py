"""Repository benchmark: served-request latency and capacity, time to fixpoint,
and a traced per-layer breakdown.  Entry point: ``python3 perfbench/run.py``."""
