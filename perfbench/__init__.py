"""Benchmark harness for hunfold; the entry point is ``perfbench/run.py``."""
