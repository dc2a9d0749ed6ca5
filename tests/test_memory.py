"""Tests for the deterministic memory accounting (eval/memory.py)."""
import pytest

from repro.eval import memory
from tests import helpers


def test_peak_is_sum_of_parts():
    g = helpers.graph("social")
    assert memory.peak_bytes(g, 100, 200) == g.nbytes + 300


def test_simpush_bytes_grow_with_L():
    g = helpers.graph("social")
    assert memory.simpush_query_bytes(g, 10) > memory.simpush_query_bytes(g, 2)


def test_query_bytes_positive_and_ordered():
    g = helpers.graph("powerlaw")
    assert memory.simpush_query_bytes(g, 0) > 0
    assert memory.simpush_query_bytes(g, 8) > memory.simpush_query_bytes(g, 0)


def test_memory_ordering_matches_paper():
    """The Figure-6 ordering on a real configuration: SLING and READS
    indexes dwarf the graph; SimPush/ProbeSim carry no index."""
    from repro.baselines import reads, sling
    g = helpers.graph("social")
    sling_idx = sling.build_index(g, eps_a=0.05, seed=0)
    reads_idx = reads.build_index(g, r=500, t=10, seed=0)
    simpush_peak = memory.peak_bytes(g, 0, memory.simpush_query_bytes(g, 10))
    sling_peak = memory.peak_bytes(g, sling_idx.index_bytes,
                                   memory.simpush_query_bytes(g, 0))
    reads_peak = memory.peak_bytes(g, reads_idx.index_bytes,
                                   memory.simpush_query_bytes(g, 0))
    assert sling_peak > simpush_peak
    assert reads_peak > simpush_peak


def test_simpush_memory_insensitive_to_eps():
    """Paper §5.2: SimPush's peak memory barely moves with eps (G_u and
    |A_u| grow slowly)."""
    from repro.core.simpush_local import simpush_local
    g = helpers.graph("social")
    peaks = []
    for eps in (0.2, 0.05):
        r = simpush_local(g, 5, eps=eps, seed=0)
        peaks.append(memory.peak_bytes(
            g, 0, memory.simpush_query_bytes(g, r.L)))
    assert peaks[1] < 3 * peaks[0]
