"""Benchmark of the keq package: workloads, span recording and output
checks.  ``perfbench/run.py`` is the entry point."""

WORKLOADS = ("cli-nec-50k", "mc-s5", "boot-s5-t2")
