"""Benchmark of lutpim: three workloads, end-to-end metrics, a traced per-module run."""
