"""Relaxation weights and the relaxation convolution against quadrature oracles."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synclab import _kernels
from synclab._kernels import relaxation_chain, relaxation_convolution, relaxation_weights

_X, _W = np.polynomial.legendre.leggauss(60)


def _gauss(f, a: float, b: float) -> float:
    """60-point Gauss-Legendre rule for f over [a, b]."""
    u = 0.5 * (b - a) * (_X + 1.0) + a
    return float(np.sum(0.5 * (b - a) * _W * f(u)))


def _oracle(s: float, m: float, p: int) -> tuple[float, float]:
    mp = _gauss(lambda u: u**p * np.exp(-(s - u) / m), 0.0, s)
    jp = _gauss(lambda u: u**p * -np.expm1(-(s - u) / m), 0.0, s)
    return mp, jp


# z = s/m from deep in the series branch to far past every switch, plus both
# sides of each per-order switch
_Z = np.unique(
    np.concatenate(
        [
            np.logspace(-8, 1, 181),
            [w * f for w in (1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0) for f in (1 - 1e-9, 1 + 1e-9)],
        ]
    )
)
_M = 0.37


@pytest.fixture(scope="module")
def oracle_table():
    s = _Z * _M
    return s, {p: np.array([_oracle(si, _M, p) for si in s]) for p in range(4)}


def _rel_err(got, want):
    return float(np.max(np.abs(np.asarray(got) - want) / np.abs(want)))


def _moments(s, m, degree):
    """M_p and J_p, (degree + 1, Q) each, from the weights of unit-width cells."""
    _, _, rate, jom = relaxation_weights(s, 1.0, m, degree)
    return m * rate, jom


def test_exp_moments_match_oracle(oracle_table):
    # the exponential moments M_p, read off the rate weights
    s, table = oracle_table
    mom, _ = _moments(s, _M, 3)
    for p in range(4):
        assert _rel_err(mom[p], table[p][:, 0]) < 1e-12, p


def test_one_sided_moments_match_oracle(oracle_table):
    # the pair M_p and J_p that the one-sided cells integrate with
    s, table = oracle_table
    mom, jom = _moments(s, _M, 3)
    for p in range(4):
        assert _rel_err(mom[p], table[p][:, 0]) < 1e-12, p
        assert _rel_err(jom[p], table[p][:, 1]) < 1e-12, p


def test_weights_at_single_offsets_match_oracle(oracle_table):
    # one offset at a time takes each branch for the whole input
    s, table = oracle_table
    got = np.array([np.ravel(_moments(np.array([si]), _M, 2)) for si in s])
    for p in range(3):
        assert _rel_err(got[:, p], table[p][:, 0]) < 1e-12, p
        assert _rel_err(got[:, 3 + p], table[p][:, 1]) < 1e-12, p


def test_moments_keep_the_input_shape():
    decay, mom0, rate, jom = relaxation_weights(np.full(3, 0.2), 0.5, 1.0, 2)
    assert decay.shape == mom0.shape == (3,)
    assert rate.shape == jom.shape == (3, 3)
    with pytest.raises(ValueError):
        relaxation_weights(np.full(3, 0.2), 0.5, 1.0, _kernels._MAX_ORDER + 1)


def test_weights_approach_the_first_order_limit_linearly_in_m():
    # past the layer the weights differ from their m = 0 limits by O(m):
    # M_p/m = s^p - p m s^(p-1) + ..., J_p = s^(p+1)/(p+1) - O(m s^p)
    h = 0.7
    s = np.linspace(0.05 * h, h, 41)
    limit = relaxation_weights(s, h, 0.0, _kernels._MAX_ORDER)
    for m in 10.0 ** -np.arange(3.0, 13.0):
        got = relaxation_weights(s, h, m, _kernels._MAX_ORDER)
        for want, have in zip(limit, got):
            assert np.abs(have - want).max() <= 9.0 * m, m


def _panel_oracle(s: float, m: float, p: int) -> tuple[float, float]:
    """M_p and J_p by the 60-point rule on panels that shrink towards u = s.

    Panel k spans [s - 2^(k+1) m, s - 2^k m], so the kernel varies by at most
    e^(2^k) on it, and the panels past 2^7 m carry less than e^-128 of M_p.
    """
    cuts = [s - m * 2.0**k for k in range(8) if m * 2.0**k < s]
    edges = sorted({0.0, s, *cuts})
    mp = jp = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mp += _gauss(lambda u: u**p * np.exp(-(s - u) / m), a, b)
        jp += _gauss(lambda u: u**p * -np.expm1(-(s - u) / m), a, b)
    return mp, jp


_SWITCHES = [float(w) for w in _kernels._SWITCH if w > 0]


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(
        st.floats(-8.0, 3.0).map(lambda e: 10.0**e),
        st.tuples(st.sampled_from(_SWITCHES), st.sampled_from([1 - 1e-9, 1 + 1e-9])).map(
            lambda w: w[0] * w[1]
        ),
    ),
    st.floats(1e-4, 1e2),
)
def test_moments_of_every_order_match_the_gauss_oracle(z, m):
    # every order the exp stepper uses, from deep in the series branch to
    # far past every switch, and on both sides of each switch
    q = importlib.import_module("synclab.integrate")._DEGREE
    s = z * m
    mom, jom = _moments(np.array([s]), m, q)
    low, _ = _moments(np.array([s]), m, 3)  # the Hermite cells' order
    for p in range(q + 1):
        want_m, want_j = _panel_oracle(s, m, p)
        assert abs(mom[p][0] - want_m) <= 1e-12 * want_m, (p, z)
        assert abs(jom[p][0] - want_j) <= 1e-12 * want_j, (p, z)
        if p <= 3:
            assert abs(low[p][0] - want_m) <= 1e-12 * want_m, (p, z)


def _hermite(u, a, b, f0, df0, f1, df1):
    d = b - a
    x = (u - a) / d
    h00 = (1 + 2 * x) * (1 - x) ** 2
    h10 = x * (1 - x) ** 2
    h01 = x**2 * (3 - 2 * x)
    h11 = x**2 * (x - 1)
    return h00 * f0 + h10 * d * df0 + h01 * f1 + h11 * d * df1


def test_relaxation_convolution_matches_oracle():
    _check_convolution_against_oracle(0.3)


def test_relaxation_convolution_chains_blocks():
    # 3 time units are 150 kernel widths: two blocks of the cumulative sum
    _check_convolution_against_oracle(0.02)


@pytest.mark.parametrize("m", [0.0, 0.02, 0.3])
def test_relaxation_chain_matches_the_plain_recurrence(m):
    # at m = 0.02 the 3 time units are two blocks of the cumulative sum; at
    # m = 0 the chain is its limit x_{k+1} = local_k
    rng = np.random.default_rng(13)
    nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 40)), [3.0]])
    local = rng.normal(0.0, 1.0, (len(nodes) - 1, 2))
    want = np.zeros((len(nodes), 2))
    for k, h in enumerate(np.diff(nodes)):
        want[k + 1] = (np.exp(-h / m) * want[k] if m > 0 else 0.0) + local[k]
    got = relaxation_chain(nodes, local, m)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def _check_convolution_against_oracle(m):
    rng = np.random.default_rng(11)
    nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 40)), [3.0]])
    q = len(nodes)
    values = rng.normal(0.0, 1.0, (q, 2))
    slopes = rng.normal(0.0, 3.0, (q, 2))

    got = m * relaxation_convolution(nodes, values, slopes, m)
    assert got.shape == (q, 2)
    assert np.all(got[0] == 0.0)
    for e in range(1, q):
        t_e = nodes[e]
        for ch in range(2):
            want = sum(
                _gauss(
                    lambda u, i=i: np.exp(-(t_e - u) / m)
                    * _hermite(
                        u, nodes[i], nodes[i + 1],
                        values[i, ch], slopes[i, ch], values[i + 1, ch], slopes[i + 1, ch],
                    ),
                    nodes[i],
                    nodes[i + 1],
                )
                for i in range(e)
            )
            assert got[e, ch] == pytest.approx(want, rel=1e-12, abs=1e-13)

