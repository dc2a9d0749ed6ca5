"""Tests for the 9-analog dataset suite (graphs/datasets.py)."""
import hashlib

import numpy as np
import pytest

from repro.graphs import datasets


def test_registry_has_nine_analogs():
    assert len(datasets.SPECS) == 9
    assert set(datasets.SMALL) | set(datasets.LARGE) == set(datasets.SPECS)
    assert not set(datasets.SMALL) & set(datasets.LARGE)


@pytest.mark.parametrize("name", datasets.SMALL)
def test_small_suite_loads_with_expected_shape(name):
    g = datasets.load(name)
    spec = datasets.SPECS[name]
    assert g.n == spec.n
    assert g.m > g.n  # denser than a forest
    assert g.n <= 2600  # exact ground truth must stay feasible


@pytest.mark.parametrize("name", datasets.SPECS)
def test_deterministic(name):
    s1, d1, _ = datasets.edge_arrays(name)
    s2, d2, _ = datasets.edge_arrays(name)
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(d1, d2)


# sha256 of ``np.stack([src, dst]).tobytes()`` per analog: an edit to the
# generators that moves any analog's edges, even by one, fails here.
EDGE_DIGESTS = {
    "in2004_analog":
        "49837af2f5b0bd734be17e60dcef9bb081b7d12538c7c3cc3eb03c0155dd1c07",
    "dblp_analog":
        "e4cf76b266d2039f0dda8e6ded626e573ebc84761bd52c673f98b127e529023a",
    "pokec_analog":
        "cb59ebef8758fa6ef34e5979e066014f7276439d577d2569fe860782e5e0cb8f",
    "livejournal_analog":
        "dee0f8945f5f88a25d4dc80f4ebfe248b6fc5fcb28fd7b33c2378fe1f966eea9",
    "it2004_analog":
        "0dc8b8ccf1847ef2154c37435d25809bd99b2ba59e05b8b148b226a4dd51c4dd",
    "twitter_analog":
        "8cd6674e8e3cfeae3338d1d4b2b1e4fe0abb4ed94ef3fb7e0c416ba5c106d58e",
    "friendster_analog":
        "a801675aa8e4ba2985654a3e904b7ba9293a70951f653ad8efd3ba05c50275bc",
    "uk_analog":
        "c570689d2802fa361b64d8cf60246eab803dbe4a25e46a0a86d80cdc678f02fb",
    "clueweb_analog":
        "ad56572231a9f0896e4565cd5b4e859cb417c9b8b4f7d995dd0cdd8f1ff80945",
}


@pytest.mark.parametrize("name", datasets.SPECS)
def test_edges_match_recorded_digest(name):
    src, dst, _ = datasets.edge_arrays(name)
    assert src.dtype == dst.dtype == np.int64
    digest = hashlib.sha256(np.stack([src, dst]).tobytes()).hexdigest()
    assert digest == EDGE_DIGESTS[name]


@pytest.mark.parametrize("name", ["dblp_analog", "friendster_analog"])
def test_undirected_analogs_are_symmetric(name):
    src, dst, spec = datasets.edge_arrays(name)
    assert spec.paper_type == "undirected"
    fwd = set(zip(src.tolist(), dst.tolist()))
    assert all((b, a) in fwd for a, b in fwd)


@pytest.mark.parametrize("name", datasets.SMALL + ["clueweb_analog"])
def test_query_nodes_valid(name):
    g = datasets.load(name)
    qs = datasets.query_nodes(name, 5)
    assert len(qs) == 5
    assert len(set(qs.tolist())) == 5
    assert (g.in_deg[qs] > 0).all()


def test_density_tracks_paper():
    """Each analog's m/n ratio should be within ~3x of the paper graph's
    (the property SimRank locality depends on)."""
    for name, spec in datasets.SPECS.items():
        g = datasets.load(name)
        ours = g.m / g.n
        paper = spec.paper_m / spec.paper_n
        if spec.paper_type == "undirected":
            paper *= 2  # paper counts undirected edges once
        assert ours / paper < 3.5 and paper / ours < 3.5, (
            f"{name}: density {ours:.1f} vs paper {paper:.1f}")


def test_webgraph_analogs_are_skewed():
    g = datasets.load("in2004_analog")
    deg = np.sort(g.in_deg)[::-1]
    assert deg[: g.n // 100].sum() / g.m > 0.15
