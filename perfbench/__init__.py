"""Benchmark for forestcalc: see README.md in this directory."""
