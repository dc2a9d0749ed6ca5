"""Tests for Alg. 3 (hitting probabilities between attention nodes in G_u),
against an independent dict-vector reference inside G_u and, bit for bit,
against the dense all-targets block that pushes every G_u edge."""
import math

import numpy as np
import pytest

from repro.core import hitting
from repro.core.hitting import attention_hitting_matrix
from repro.core.source_push import source_push
from repro.graphs.csr import from_edges, sum_by
from tests import helpers

SQRT_C = np.sqrt(0.6)


@pytest.mark.parametrize("name,u,L,eps_h", [
    ("social", 5, 3, 0.02),
    ("social", 11, 4, 0.01),
    ("powerlaw", 3, 3, 0.02),
    ("undirected", 2, 4, 0.02),
    ("cycle", 0, 5, 0.001),
])
def test_matches_reference(name, u, L, eps_h):
    g = helpers.graph(name)
    gu, att = source_push(g, u, eps_h=eps_h, L=L, sqrt_c=SQRT_C)
    if att.size == 0:
        pytest.skip("no attention nodes at this setting")
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    ref = helpers.gu_hitting_reference(g, gu, att, SQRT_C)
    np.testing.assert_allclose(hAA, ref, atol=1e-12)


def test_upper_triangular_in_levels():
    """h~(a -> b) can be nonzero only for strictly deeper targets."""
    g = helpers.graph("undirected")
    gu, att = source_push(g, 1, eps_h=0.02, L=4, sqrt_c=SQRT_C)
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    for a in range(att.size):
        for b in range(att.size):
            if att.levels[b] <= att.levels[a]:
                assert hAA[a, b] == 0.0


def test_values_are_probabilities():
    g = helpers.graph("social")
    gu, att = source_push(g, 5, eps_h=0.01, L=5, sqrt_c=SQRT_C)
    assert att.size > 0
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    assert hAA.min() >= 0.0
    assert hAA.max() <= 1.0 + 1e-12


def test_hitting_from_u_reproduced_in_gu():
    """Paper claim (§4.1): pushing within G_u from u reproduces the
    h^(l)(u, w) computed over G — G_u loses nothing for the query node.
    We check it via the chain: h~ from level-1 attention nodes compose
    with h^(1)(u, .) to give h^(l)(u, .) restricted to attention nodes
    reachable via level-1 nodes... simpler and exact: on the cycle graph
    G_u *is* the walked path, so h~(level-1 node -> level-l node) must
    equal sqrt(c)^(l-1)."""
    g = helpers.graph("cycle")
    gu, att = source_push(g, 0, eps_h=0.001, L=5, sqrt_c=SQRT_C)
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    for a in range(att.size):
        for b in range(att.size):
            la, lb = int(att.levels[a]), int(att.levels[b])
            if lb > la:
                assert hAA[a, b] == pytest.approx(SQRT_C ** (lb - la))


def test_empty_attention():
    g = helpers.graph("chain")
    gu, att = source_push(g, 29, eps_h=0.01, L=3, sqrt_c=SQRT_C)
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    assert hAA.shape == (0, 0)


@pytest.mark.parametrize("name", sorted(helpers.GRAPHS))
@pytest.mark.parametrize("u", [0, 3, 17])
@pytest.mark.parametrize("eps_h", [0.02, 0.005])
def test_bit_identical_to_dense_block(name, u, eps_h):
    g = helpers.graph(name)
    L = int(math.floor(math.log(1 / eps_h) / math.log(1 / SQRT_C)))
    gu, att = source_push(g, u, eps_h=eps_h, L=L, sqrt_c=SQRT_C)
    np.testing.assert_array_equal(
        attention_hitting_matrix(g, gu, att, SQRT_C),
        helpers.hitting_dense_reference(g, gu, att, SQRT_C))


def test_level_one_attention_only():
    """G_u is three levels deep but only level 1 holds attention: there are
    no targets, so the block stays 0 columns wide and hAA is all zero."""
    g = helpers.graph("cycle")
    gu, att = source_push(g, 0, eps_h=0.7, L=3, sqrt_c=SQRT_C)
    assert gu.L == 3 and att.size > 0 and (att.levels == 1).all()
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    np.testing.assert_array_equal(hAA, np.zeros((att.size, att.size)))


def _graph(edges, n):
    src, dst = zip(*edges)
    return from_edges(np.array(src), np.array(dst), n=n)


def test_branch_without_targets_is_skipped(monkeypatch):
    """Node 0's in-neighbour 2 opens a branch (4, 6, 7, 8 at level 2;
    10..13 at level 3) whose h stays below eps_h: its rows are zero in every
    seeded column, so the push skips their edges."""
    g = _graph([(1, 0), (2, 0), (3, 1), (5, 3), (4, 2), (6, 2), (7, 2),
                (8, 2), (10, 4), (11, 6), (12, 7), (13, 8)], n=14)
    gu, att = source_push(g, 0, eps_h=0.1, L=3, sqrt_c=SQRT_C)
    assert list(zip(att.levels, att.nodes)) == [(1, 1), (1, 2), (2, 3),
                                                (3, 5)]
    branch = {2: [4, 6, 7, 8], 3: [10, 11, 12, 13]}
    for lvl, nodes in branch.items():
        assert set(nodes) <= set(gu.level_nodes[lvl].tolist())
        assert set(nodes) <= set(
            helpers.gu_edge_nodes(gu, lvl - 1)[0].tolist())
    pushed = []

    def recording_sum_by(idx, values, n):
        pushed.append(values.shape)
        return sum_by(idx, values, n)

    monkeypatch.setattr(hitting, "sum_by", recording_sum_by)
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    # Levels 3, 2, 1 each push one edge (5 -> 3, 3 -> 1, 1 -> 0) over the
    # targets seeded so far: 5, then 3 and 5.
    assert pushed == [(1, 1), (1, 2), (1, 2)]
    np.testing.assert_array_equal(
        hAA, helpers.hitting_dense_reference(g, gu, att, SQRT_C))
    np.testing.assert_allclose(
        hAA, helpers.gu_hitting_reference(g, gu, att, SQRT_C), atol=1e-12)
    # 1 -> 3 -> 5 is a path; the branch through 2 reaches neither target.
    assert hAA[0, 2] == pytest.approx(SQRT_C)
    assert hAA[0, 3] == pytest.approx(SQRT_C ** 2)
    assert hAA[1].sum() == 0.0


def test_seeding_beside_deeper_mass():
    """Targets 2 and 3 are seeded at level 2 in the rows that already carry
    target 4's mass from level 3; level 1 then records all three columns."""
    g = _graph([(1, 0), (2, 1), (3, 1), (4, 2), (4, 3)], n=5)
    gu, att = source_push(g, 0, eps_h=0.25, L=3, sqrt_c=SQRT_C)
    assert list(zip(att.levels, att.nodes)) == [(1, 1), (2, 2), (2, 3),
                                                (3, 4)]
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    np.testing.assert_array_equal(
        hAA, helpers.hitting_dense_reference(g, gu, att, SQRT_C))
    half = SQRT_C / 2
    np.testing.assert_allclose(hAA, [[0, half, half, 2 * half * SQRT_C],
                                     [0, 0, 0, SQRT_C],
                                     [0, 0, 0, SQRT_C],
                                     [0, 0, 0, 0]], atol=1e-15)


def test_hitting_df_matches_local(spark):
    """Alg. 3 on the DataFrame engine produces the same attention-to-
    attention hitting matrix as the local engine."""
    from repro.core.simpush import GraphFrames, hitting_df, source_push_df
    from repro.graphs import generators
    from repro.graphs.csr import from_edges
    src, dst = generators.social(150, 4, seed=21)
    g = from_edges(src, dst, n=150)
    u, eps_h, L = 4, 0.02, 4
    gu, att = source_push(g, u, eps_h=eps_h, L=L, sqrt_c=SQRT_C)
    if att.size == 0:
        pytest.skip("no attention nodes at this setting")
    ref = attention_hitting_matrix(g, gu, att, SQRT_C)
    edges = generators.to_spark(spark, src, dst)
    gf = GraphFrames.build(edges)
    try:
        gu_edges, att_df = source_push_df(spark, gf, u, eps_h, L, SQRT_C)
        got = hitting_df(spark, gu_edges, att_df, gu.L, SQRT_C)
    finally:
        gf.unpersist()
    np.testing.assert_allclose(got, ref, atol=1e-12)
