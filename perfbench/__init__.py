"""Benchmark of the impulsedde CLI; entry point perfbench/run.py."""
