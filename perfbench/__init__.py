"""Repository benchmark: three workloads with per-layer traces (see run.py)."""
