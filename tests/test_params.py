"""Unit tests for the Lemma-derived parameter formulas (core/params.py)."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SimPushParams


@pytest.mark.parametrize("eps", [0.5, 0.2, 0.1, 0.05, 0.02, 0.01])
@pytest.mark.parametrize("c", [0.4, 0.6, 0.8])
def test_eps_h_formula(eps, c):
    p = SimPushParams(c=c, eps=eps, delta=1e-4)
    sc = math.sqrt(c)
    assert p.eps_h == pytest.approx((1 - sc) / (3 * sc) * eps)


@pytest.mark.parametrize("eps", [0.5, 0.2, 0.1, 0.05, 0.02])
def test_L_star_definition(eps):
    """L* is the last level where sqrt(c)^l can still reach eps_h
    (Lemma 2: h mass at level l sums to sqrt(c)^l)."""
    p = SimPushParams(c=0.6, eps=eps, delta=1e-4)
    sc = p.sqrt_c
    assert sc ** p.L_star >= p.eps_h * (1 - 1e-12)
    assert sc ** (p.L_star + 2) < p.eps_h  # +2: floor slack


@pytest.mark.parametrize("eps", [0.3, 0.1, 0.05])
def test_max_attention_lemma2(eps):
    p = SimPushParams(c=0.6, eps=eps, delta=1e-4)
    expected = math.floor(p.sqrt_c / ((1 - p.sqrt_c) * p.eps_h))
    assert p.max_attention == expected
    assert p.max_attention >= 1


def test_walk_count_formula():
    p = SimPushParams(c=0.6, eps=0.1, delta=1e-4)
    sc = p.sqrt_c
    expected = math.ceil(
        2 * math.log(1 / ((1 - sc) * p.eps_h * 1e-4)) / p.eps_h ** 2)
    assert p.n_walks_formula == expected


def test_walk_cap_applies():
    p = SimPushParams(c=0.6, eps=0.01, delta=1e-4, walks_cap=1000)
    assert p.n_walks == 1000
    assert p.n_walks_formula > 1000
    p2 = SimPushParams(c=0.6, eps=0.5, delta=1e-4, walks_cap=10**12)
    assert p2.n_walks == p2.n_walks_formula


def test_visit_threshold_is_half_eps_h_fraction():
    """The corrected threshold: eps_h/2 empirical hitting probability
    (see core/params.py module docstring on the paper's typo)."""
    p = SimPushParams(c=0.6, eps=0.1, delta=1e-4)
    assert p.visit_threshold == pytest.approx(p.n_walks * p.eps_h / 2)
    # A node with h = eps_h is expected to clear the threshold.
    assert p.n_walks * p.eps_h > p.visit_threshold


@given(eps=st.floats(0.005, 0.9), c=st.floats(0.1, 0.9),
       delta=st.floats(1e-8, 0.1))
@settings(max_examples=60, deadline=None)
def test_derived_params_sane(eps, c, delta):
    p = SimPushParams(c=c, eps=eps, delta=delta)
    assert 0 < p.eps_h < eps
    assert p.L_star >= 0
    assert p.max_attention >= 0
    assert p.n_walks_formula > 0
    assert p.visit_threshold > 0


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_monotone_in_eps(data):
    """Tighter eps => finer eps_h, deeper L*, more attention, more walks."""
    e1 = data.draw(st.floats(0.01, 0.5))
    e2 = data.draw(st.floats(0.01, 0.5))
    lo, hi = min(e1, e2), max(e1, e2)
    p_lo = SimPushParams(c=0.6, eps=lo, delta=1e-4)
    p_hi = SimPushParams(c=0.6, eps=hi, delta=1e-4)
    assert p_lo.eps_h <= p_hi.eps_h
    assert p_lo.L_star >= p_hi.L_star
    assert p_lo.max_attention >= p_hi.max_attention
    assert p_lo.n_walks_formula >= p_hi.n_walks_formula


@pytest.mark.parametrize("kwargs", [
    {"c": 0.0}, {"c": 1.0}, {"c": -0.5}, {"c": 1.5},
    {"eps": 0.0}, {"eps": -0.1},
    {"delta": 0.0}, {"delta": 1.0},
    {"walks_cap": 0}, {"walks_cap": -5},
    {"eps": math.inf}, {"walks_cap": 2.5}, {"walks_cap": True},
])
def test_invalid_params_rejected(kwargs):
    args = {"c": 0.6, "eps": 0.1, "delta": 1e-4, **kwargs}
    with pytest.raises(ValueError):
        SimPushParams(**args)
