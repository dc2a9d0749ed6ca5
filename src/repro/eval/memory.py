"""Peak-memory accounting (the paper's Figure-6/7c measurements).

The paper reads ``rusage.ru_maxrss``; at our scale Python-interpreter RSS
noise would swamp the per-method differences, so we account bytes
deterministically (DESIGN.md §3): graph CSR footprint + index footprint +
the method's per-query working set. What the figures establish — the
*ordering* (SLING >> READS/TSF >> PRSim > ProbeSim ~ SimPush ~ input
graph) and SimPush's insensitivity to eps — is preserved under this
accounting and pinned by tests.
"""
from __future__ import annotations

from repro.graphs.csr import CSRGraph

_F = 8  # bytes per float64


def simpush_query_bytes(g: CSRGraph, L: int) -> int:
    """``L + 3`` dense n-vectors: ``L`` bound ``G_u``'s levelled ``h``; 3 hold
    Reverse-Push's one residue vector, its push output and the scores."""
    return (L + 3) * g.n * _F


def prsim_query_bytes(g: CSRGraph, Lmax: int) -> int:
    """Visit-count matrix + score accumulator + one push vector."""
    return (Lmax + 3) * g.n * _F


def generic_query_bytes(g: CSRGraph) -> int:
    """Three dense n-vectors, e.g. ProbeSim's probe vector + the scores."""
    return 3 * g.n * _F


def peak_bytes(g: CSRGraph, index_bytes: int, query_bytes: int) -> int:
    """Total accounted peak: graph + index + per-query working set."""
    return int(g.nbytes + index_bytes + query_bytes)
