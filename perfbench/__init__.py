"""Seeded benchmark for the takegrant package; run ``python3 perfbench/run.py``."""
