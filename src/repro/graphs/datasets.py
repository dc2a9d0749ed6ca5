"""The 9-graph dataset suite: synthetic analogs of the paper's Table 4.

Each analog keeps the *type* (web / social / collaboration), the directed-
ness, and approximately the paper graph's density (m/n ratio), scaled down
~500–40000x so that (a) exact SimRank ground truth is computable for the
small suite and (b) the full 8-method sweep terminates on one machine.
DESIGN.md §3 records this substitution.

``SMALL`` analogs (n <= 2600) get *exact* power-method ground truth;
``LARGE`` analogs use the paper's pooling + Monte-Carlo ground-truth
procedure (eval/metrics.py).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.graphs import generators
from repro.graphs.csr import CSRGraph, from_edges


@dataclass(frozen=True)
class DatasetSpec:
    """One synthetic analog: generator recipe + the paper's real-graph stats."""

    name: str
    kind: str                 # powerlaw | social | undirected
    n: int
    avg_deg: int
    seed: int
    paper_name: str
    paper_n: int
    paper_m: int
    paper_type: str           # directed | undirected


SPECS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        # ----- small suite: exact ground truth ---------------------------
        DatasetSpec("in2004_analog", "powerlaw", 1500, 12, 11,
                    "In-2004", 1_382_908, 16_539_643, "directed"),
        DatasetSpec("dblp_analog", "undirected", 2600, 6, 12,
                    "DBLP", 5_425_963, 17_298_032, "undirected"),
        DatasetSpec("pokec_analog", "social", 1600, 14, 13,
                    "Pokec", 1_632_803, 30_622_564, "directed"),
        DatasetSpec("livejournal_analog", "social", 2400, 11, 14,
                    "LiveJournal", 4_847_571, 68_475_391, "directed"),
        # ----- large suite: pooled MC ground truth -----------------------
        DatasetSpec("it2004_analog", "powerlaw", 6000, 22, 15,
                    "IT-2004", 41_291_594, 1_135_718_909, "directed"),
        DatasetSpec("twitter_analog", "social", 6000, 24, 16,
                    "Twitter", 41_652_230, 1_468_364_884, "directed"),
        DatasetSpec("friendster_analog", "undirected", 9000, 40, 17,
                    "Friendster", 65_608_366, 3_612_134_270, "undirected"),
        DatasetSpec("uk_analog", "powerlaw", 12000, 30, 18,
                    "UK", 133_633_040, 5_475_109_924, "directed"),
        DatasetSpec("clueweb_analog", "powerlaw", 40000, 5, 19,
                    "ClueWeb", 1_684_868_322, 7_939_635_651, "directed"),
    ]
}

SMALL = ["in2004_analog", "dblp_analog", "pokec_analog", "livejournal_analog"]
LARGE = ["it2004_analog", "twitter_analog", "friendster_analog",
         "uk_analog", "clueweb_analog"]


#: ``DatasetSpec.kind`` -> its generator.
GENERATORS = {"powerlaw": generators.powerlaw, "social": generators.social,
              "undirected": generators.undirected}


def edge_arrays(name: str) -> tuple[np.ndarray, np.ndarray, DatasetSpec]:
    """Generate the named analog's edge arrays (deterministic in the spec)."""
    spec = SPECS[name]
    src, dst = GENERATORS[spec.kind](spec.n, spec.avg_deg, seed=spec.seed)
    return src, dst, spec


@lru_cache(maxsize=16)
def load(name: str) -> CSRGraph:
    """CSR form of the named analog (cached per process)."""
    src, dst, spec = edge_arrays(name)
    return from_edges(src, dst, n=spec.n)


def query_nodes(name: str, k: int = 5, seed: int = 7) -> np.ndarray:
    """``k`` query nodes sampled uniformly at random (paper: 100 uniform
    queries per graph; we default to fewer per DESIGN.md's scale-down),
    restricted to nodes with at least one in-neighbour so every method has
    nontrivial work."""
    g = load(name)
    rng = np.random.default_rng(seed + SPECS[name].seed)
    candidates = np.flatnonzero(g.in_deg > 0)
    return rng.choice(candidates, size=min(k, candidates.size), replace=False)
