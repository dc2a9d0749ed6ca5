"""SimPush parameter derivations (Lemmas 2, 4 and 5 of the paper).

Given user-facing ``(c, eps, delta)`` this module derives:

* ``eps_h = (1 - sqrt(c)) / (3 sqrt(c)) * eps`` — the attention-node hitting
  threshold (Definition 3 / Lemma 4);
* ``L_star = floor(log_{1/sqrt(c)} (1/eps_h))`` — the max level any attention
  node can occupy (Lemma 2);
* ``max_attention = floor(sqrt(c) / ((1 - sqrt(c)) eps_h))`` — bound on
  ``|A_u|`` (Lemma 2);
* the Monte-Carlo walk count ``n_walks = ceil(2 log(1/((1-sqrt(c)) eps_h
  delta)) / eps_h^2)`` and the per-level visit threshold used to detect
  ``L`` (Alg. 2 lines 2–8).

Note on the visit threshold: Alg. 2 line 6 prints the threshold as
``log(...)/eps_h^2`` visits, i.e. half the walk count — under which no level
beyond ``log_{1/sqrt(c)} 2 ~= 2.7`` could ever qualify, contradicting the
paper's own measurement of L = 9.0 on DBLP. Lemma 5's Hoeffding argument
shows the intent: a node with true ``h >= eps_h`` must whp have empirical
``h_hat >= eps_h / 2``, i.e. ``H >= n_walks * eps_h / 2`` visits. We
implement that corrected threshold and record the deviation here.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class SimPushParams:
    """All derived constants for one SimPush invocation."""

    c: float
    eps: float
    delta: float
    walks_cap: int | None = None  # optional cap on the MC walk count

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"decay factor c={self.c} is not in (0, 1)")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"error bound eps={self.eps} is not in (0, inf)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"failure probability delta={self.delta} "
                             "is not in (0, 1)")
        cap = self.walks_cap
        if cap is not None and (isinstance(cap, bool) or not (
                isinstance(cap, numbers.Integral) and cap >= 1)):
            raise ValueError(f"walks_cap={cap} is not an integer >= 1")

    @property
    def sqrt_c(self) -> float:
        return math.sqrt(self.c)

    @property
    def eps_h(self) -> float:
        """Attention threshold (Definition 3, justified by Lemma 4)."""
        return (1.0 - self.sqrt_c) / (3.0 * self.sqrt_c) * self.eps

    @property
    def L_star(self) -> int:
        """Deepest level an attention node can occupy (Lemma 2); 0 when
        ``eps_h >= 1``, where no level below ``u`` holds one."""
        return max(0, int(math.floor(math.log(1.0 / self.eps_h)
                                     / math.log(1.0 / self.sqrt_c))))

    @property
    def max_attention(self) -> int:
        """Upper bound on the total number of attention nodes (Lemma 2)."""
        return int(math.floor(self.sqrt_c / ((1.0 - self.sqrt_c) * self.eps_h)))

    @property
    def n_walks_formula(self) -> int:
        """Alg. 2 line 2 walk count, before any cap."""
        log_term = math.log(1.0 / ((1.0 - self.sqrt_c) * self.eps_h * self.delta))
        return int(math.ceil(2.0 * log_term / self.eps_h ** 2))

    @property
    def n_walks(self) -> int:
        """Walk count actually simulated (capped; DESIGN.md §3 notes the
        cap: the union-bound constant is conservative and L-detection
        variance, not bias, is all that a smaller sample affects)."""
        if self.walks_cap is not None:
            return min(self.n_walks_formula, self.walks_cap)
        return self.n_walks_formula

    @property
    def visit_threshold(self) -> float:
        """Visits required at a level for it to count toward L
        (corrected ``n_walks * eps_h / 2``; see module docstring)."""
        return self.n_walks * self.eps_h / 2.0
