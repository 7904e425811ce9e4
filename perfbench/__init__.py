"""The repo benchmark: three closed-loop workloads over the public
``repro`` API, run as ``python3 perfbench/run.py --workload <name>``."""
