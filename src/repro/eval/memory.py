"""Peak-memory accounting (the paper's Figure-6/7c measurements).

The paper reads ``rusage.ru_maxrss``; at our scale Python-interpreter RSS
noise would swamp the per-method differences, so we account bytes
deterministically (DESIGN.md §3): graph CSR footprint + index footprint +
the method's per-query working set. What the figures establish — the
*ordering* (SLING >> READS/TSF >> PRSim > ProbeSim ~ SimPush ~ input
graph) and SimPush's insensitivity to eps — is preserved under this
accounting and pinned by tests.

SimPush's ``L`` here is the depth Source-Push reached, whose levels it
holds until the driver trims ``G_u`` before Alg. 3. Since the push stops on
the mass bound rather than at the MC stage's estimate, that depth is ``L*``
on analogs with few sinks (pokec 13 -> 23 at eps = 0.025): the accounted
working set grows with ``log(1/eps)`` through ``L*``, not with ``|A_u|``.
"""
from __future__ import annotations

from repro.graphs.csr import CSRGraph

_F = 8  # bytes per float64


def simpush_query_bytes(g: CSRGraph, L: int) -> int:
    """``L + 3`` dense n-vectors, every method's working set: ``L`` levels
    (SimPush's ``h``, PRSim's ``Lmax`` visit-count rows, else 0) and 3 for
    one push's input and output and the scores."""
    return (L + 3) * g.n * _F


def peak_bytes(g: CSRGraph, index_bytes: int, query_bytes: int) -> int:
    """Total accounted peak: graph + index + per-query working set."""
    return int(g.nbytes + index_bytes + query_bytes)
