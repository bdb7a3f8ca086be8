"""Per-layer pipeline benchmark.

Four workloads measure the compile -> interpret -> trace -> replay
pipeline end to end, and a traced run splits their time by layer.
``BENCHMARK.json`` at the repository root declares the workloads,
metrics, units and regression bounds; ``README.md`` here explains them.
"""
