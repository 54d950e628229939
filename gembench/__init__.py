"""Seeded end-to-end and per-layer benchmark of the gemfree package.

Run from the repository root: ``python3 gembench/run.py --workload certify``.
"""
