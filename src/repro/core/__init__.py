"""SimPush — the paper's contribution (Algorithms 1–5).

One Alg.-1 driver, ``alg1.run_alg1``, owns the control flow: the push
depth (the mass bound, the push budget, the MC stage past it, ``L*``), the
trim to the deepest attention level before Alg. 3, Alg. 4's gammas and the
hand-off of ``(A_u, gamma)`` to Reverse-Push. Two engines supply the other
stages:

* ``simpush.py`` — the distributed engine: Monte-Carlo level detection,
  Source-Push, Alg.-3 hitting propagation and Reverse-Push expressed as
  iterative Spark DataFrame join/aggregate pushes (Catalyst plans), per
  the repro directive.
* ``simpush_local.py`` — the same stages over the numpy CSR substrate
  (``walks``, ``source_push``, ``hitting``, ``reverse_push``), used by the
  benchmark harness where per-query latency fidelity matters (DESIGN.md
  §2) and tested to agree with the DataFrame engine to 1e-9.
"""
from repro.core.params import SimPushParams  # noqa: F401
