"""Seeded, offline pipeline benchmark for causal-rag; run `perfbench/run.py`."""
