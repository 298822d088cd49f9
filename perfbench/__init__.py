"""Seeded end-to-end and per-layer benchmark for the FPGA profiling emulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
prints one JSON result line; see ``perfbench/README.md``.
"""
