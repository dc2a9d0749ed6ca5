"""Alg. 4 — last-meeting probabilities ``gamma^(l)(w)`` within ``G_u``.

Given the attention-to-attention hitting matrix from Alg. 3, the
first-meeting probabilities follow the closed-form recurrences

* ``rho^(1)(w, w1) = h~^(1)(w, w1)^2``                       (Eq. 10)
* ``rho^(i)(w, wi) = h~^(i)(w, wi)^2
     - sum_{j<i} sum_{wj} rho^(j)(w, wj) * h~^(i-j)(wj, wi)^2``  (Eq. 11)

and ``gamma^(l)(w) = 1 - sum_i sum_{wi} rho^(i)(w, wi)``      (Eq. 9).

This is deterministic — no sqrt(c)-walks — and O(|A|^2) per source, i.e.
O(1/eps^3) total (Lemma 6). The whole computation is a dense triple loop
over at most a few hundred attention entries, so it runs on the driver
(DESIGN.md §2) in both engines.
"""
from __future__ import annotations

import numpy as np

from repro.core.source_push import AttentionSet

# How far round-off may push a raw gamma outside [0, 1] before ``gammas``
# treats it as an error instead of clipping it.
GAMMA_TOL = 1e-9


def first_meeting_matrix(hAA: np.ndarray, att: AttentionSet, L: int
                         ) -> np.ndarray:
    """``rho[a, b]`` = probability that two sqrt(c)-walks from attention
    entry ``a`` (level ``la``) walking in ``G_u`` first meet at attention
    entry ``b`` (level ``lb > la``); zero elsewhere."""
    n = att.size
    meet = hAA ** 2
    rho = np.zeros((n, n))
    for lvl in range(2, L + 1):
        tgt = att.at_level(lvl)
        if tgt.size == 0:
            continue
        below = np.flatnonzero((att.levels > 0) & (att.levels < lvl))
        rho[:, tgt] = meet[:, tgt]
        if below.size:
            rho[:, tgt] -= rho[:, below] @ meet[np.ix_(below, tgt)]
    return rho


def gammas(hAA: np.ndarray, att: AttentionSet, L: int) -> np.ndarray:
    """``gamma[a] = gamma^(la)(node_a)`` for every attention entry.

    Numerical guard: the rho events of one source are disjoint (the first
    attention meeting), so each exact gamma lies in [0, 1]. A raw value
    within ``GAMMA_TOL`` of that range is float round-off and is clipped
    into it; one further out raises ``FloatingPointError``.
    """
    rho = first_meeting_matrix(hAA, att, L)
    raw = 1.0 - rho.sum(axis=1)
    bad = np.flatnonzero((raw < -GAMMA_TOL) | (raw > 1.0 + GAMMA_TOL))
    if bad.size:
        a = int(bad[0])
        raise FloatingPointError(
            f"gamma of attention entry (level {att.levels[a]}, node "
            f"{att.nodes[a]}) is {raw[a]!r}, outside [0, 1] by more than "
            f"{GAMMA_TOL}")
    return np.clip(raw, 0.0, 1.0)
