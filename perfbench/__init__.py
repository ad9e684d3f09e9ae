"""Benchmark harness for spinfock: workloads, report accounting and layer tracing."""
