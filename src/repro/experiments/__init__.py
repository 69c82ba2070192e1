"""Experiment harness: one module per table/figure of the paper.

Each experiment module exposes a ``run()`` returning plain dataclasses
(rows/series) plus a ``render()`` producing the text table the benchmark
harness prints.  The mapping to the paper:

* :mod:`~repro.experiments.table1` — Table I, the benchmark summary;
* :mod:`~repro.experiments.figure3` — Figure 3, GOPS vs power on matmul
  for PULP and the commercial MCU catalog;
* :mod:`~repro.experiments.figure4` — Figure 4, architectural speedup
  (left) and OpenMP parallel speedup (right);
* :mod:`~repro.experiments.figure5` — Figure 5a (speedup within the
  10 mW envelope) and Figure 5b (efficiency vs iterations per offload,
  serial and double-buffered).

Import the module you need (``from repro.experiments import table1``):
the package itself imports none of them, so a caller that needs only
:mod:`~repro.experiments.store` (the DSE result cache) loads no figure.
"""
