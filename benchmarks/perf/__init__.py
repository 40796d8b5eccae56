"""The real-time benchmark: five workloads, end to end and per layer.

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
--trace 0|1`` measures one workload; ``python -m benchmarks.perf run``
measures them all, and ``python -m benchmarks.perf compare A B`` applies
the bounds in ``BENCHMARK.json`` to two result files.  See README.md.
"""
