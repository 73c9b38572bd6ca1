"""Benchmark harness reproducing every figure and evaluation claim.

One module per experiment row of DESIGN.md §4.  Each bench prints the
reproduced table/series and also writes it to ``benchmarks/results/``
so the output survives pytest's capture; EXPERIMENTS.md records the
paper-vs-measured comparison.

Run every bench once (``pyproject.toml`` names the ``bench_*`` file
and function patterns; the fixture comes from pytest-benchmark)::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-disable

and with pytest-benchmark's timing by ``--benchmark-only`` instead.
``bench_x5_hotpath`` takes minutes; ``benchmarks/run_suite.py`` runs
its suite with gates.
"""
