"""The paper's primary contribution: the HistSim algorithm.

Submodules:

* :mod:`repro.core.bounds` — Theorem 1 deviation bounds (and the
  Waggoner-style comparison bound from §3.4).
* :mod:`repro.core.distance` — normalized :math:`\\ell_1` histogram
  distance (numpy), and the exact per-candidate distances of ``Scan``:
  one Spark ``GROUP BY z, x`` scored by that same numpy code.
* :mod:`repro.core.deviations` — §3.3 split-point deviation selection.
* :mod:`repro.core.histsim` — the HistSim state machine of Algorithm 1.
"""
