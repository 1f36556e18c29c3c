"""Benchmark of the fiqs package; run with ``python3 perfbench/run.py --help``."""
