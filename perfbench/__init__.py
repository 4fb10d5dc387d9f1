"""The repository's benchmark: three closed-loop workloads, end to end and per layer.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
