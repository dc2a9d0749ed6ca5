"""Tests for Alg. 4 (first-meeting / last-meeting probabilities) against a
pair-walk dynamic-programming reference that follows Definition 4
verbatim."""
import numpy as np
import pytest

from repro.core.hitting import attention_hitting_matrix
from repro.core.last_meeting import first_meeting_matrix, gammas
from repro.core.source_push import AttentionSet, source_push
from tests import helpers

SQRT_C = np.sqrt(0.6)


@pytest.mark.parametrize("name,u,L,eps_h", [
    ("cycle", 0, 4, 0.001),
    ("chain", 0, 3, 0.001),
    ("social", 5, 3, 0.05),
    ("powerlaw", 3, 3, 0.05),
    ("star", 0, 2, 0.001),
])
def test_gamma_matches_pair_walk_reference(name, u, L, eps_h):
    g = helpers.graph(name)
    gu, att = source_push(g, u, eps_h=eps_h, L=L, sqrt_c=SQRT_C)
    if att.size == 0:
        pytest.skip("no attention nodes")
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    got = gammas(hAA, att, gu.L)
    ref = helpers.gu_pair_walk_reference(g, gu, att, SQRT_C)
    np.testing.assert_allclose(got, ref, atol=1e-9)


def test_gamma_range_and_last_level():
    g = helpers.graph("social")
    gu, att = source_push(g, 7, eps_h=0.02, L=4, sqrt_c=SQRT_C)
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    gam = gammas(hAA, att, gu.L)
    assert (gam >= 0).all() and (gam <= 1).all()
    # Attention nodes on the deepest level have no deeper attention nodes
    # to meet at: gamma = 1 exactly.
    deepest = att.levels == gu.L
    if deepest.any():
        np.testing.assert_allclose(gam[deepest], 1.0)


def test_rho_on_cycle_closed_form():
    """On the cycle, both walks must stay on the unique path: the
    first-meeting probability at the next attention node (1 step deeper)
    is (sqrt(c)^1)^2 = c, then rho^(i) = c^i - sum_{j<i} c^j * c^(i-j)
    ... which telescopes; check against the recurrences numerically via
    the independent pair-walk reference AND the closed form for i=1."""
    g = helpers.graph("cycle")
    gu, att = source_push(g, 0, eps_h=0.001, L=4, sqrt_c=SQRT_C)
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    rho = first_meeting_matrix(hAA, att, gu.L)
    for a in range(att.size):
        for b in range(att.size):
            if int(att.levels[b]) == int(att.levels[a]) + 1:
                assert rho[a, b] == pytest.approx(0.6)


def test_rho_nonnegative_and_bounded():
    for name, u in [("social", 5), ("undirected", 2), ("powerlaw", 3)]:
        g = helpers.graph(name)
        gu, att = source_push(g, u, eps_h=0.02, L=4, sqrt_c=SQRT_C)
        if att.size == 0:
            continue
        hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
        rho = first_meeting_matrix(hAA, att, gu.L)
        assert rho.min() >= -1e-12
        # Total first-meeting probability from any source is at most 1.
        assert rho.sum(axis=1).max() <= 1 + 1e-9


def test_rho_zero_for_non_deeper_targets():
    g = helpers.graph("social")
    gu, att = source_push(g, 5, eps_h=0.03, L=3, sqrt_c=SQRT_C)
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    rho = first_meeting_matrix(hAA, att, gu.L)
    for a in range(att.size):
        for b in range(att.size):
            if att.levels[b] <= att.levels[a]:
                assert rho[a, b] == 0.0


def test_star_graph_gamma_is_one():
    """Reverse star from the hub: G_u is one level deep from any leaf...
    from the hub, level 1 is all leaves (no deeper levels) => all gammas 1."""
    n = 6
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    from repro.graphs.csr import from_edges
    g = from_edges(src, dst, n=n)
    gu, att = source_push(g, 3, eps_h=0.01, L=4, sqrt_c=SQRT_C)
    if att.size:
        hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
        np.testing.assert_allclose(gammas(hAA, att, gu.L), 1.0)


def test_gamma_outside_unit_interval_raises():
    """A gamma past [0, 1] by more than round-off is an error, not a clip:
    h~ = 1.5 between the two levels makes rho = 2.25 and gamma = -1.25."""
    att = AttentionSet(levels=np.array([1, 2]), nodes=np.array([4, 7]),
                       h=np.array([0.5, 0.3]))
    hAA = np.array([[0.0, 1.5], [0.0, 0.0]])
    with pytest.raises(FloatingPointError, match="level 1, node 4"):
        gammas(hAA, att, 2)
    # Round-off within the tolerance is still clipped into [0, 1].
    hAA[0, 1] = np.sqrt(1.0 + 1e-12)
    np.testing.assert_array_equal(gammas(hAA, att, 2), [0.0, 1.0])
