"""Seeded benchmark for lidarmot: three workloads timed from outside the
package, an opt-in traced mode for per-layer numbers, and output checks.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
