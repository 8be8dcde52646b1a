"""The repository benchmark: four workloads through the public API of
``repro``, six end-to-end metrics each, and a traced run that breaks op
time down by layer.  Run it with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and the metric table."""
