"""Tests for Alg. 3 (hitting probabilities between attention nodes in G_u),
against an independent dense-linear-algebra reference inside G_u."""
import numpy as np
import pytest

from repro.core.hitting import attention_hitting_matrix
from repro.core.source_push import source_push
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
        _, gu_edges, att_df = source_push_df(spark, gf, u, eps_h, L, SQRT_C)
        got = hitting_df(spark, gu_edges, att_df, gu.L, SQRT_C)
    finally:
        gf.unpersist()
    np.testing.assert_allclose(got, ref, atol=1e-12)
