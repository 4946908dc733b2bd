"""The repository's benchmark: four workloads, end-to-end and per-layer
metrics, answer oracle.  Entry point: ``python3 perfbench/run.py``."""
