"""Exact moment integrals against the relaxation kernel exp(-(s-u)/m).

Everything stiff in this package reduces to integrals of the form

    M_p(s) = int_0^s u^p exp(-(s-u)/m) du,
    J_p(s) = int_0^s u^p (1 - exp(-(s-u)/m)) du = s^(p+1)/(p+1) - M_p(s),

with a polynomial factor u^p coming from a local polynomial model of the
smooth (non-stiff) part of the integrand.  Computing these moments in closed
form keeps the quadrature error independent of the stiffness ratio s/m.
`relaxation_convolution` chains them into the convolution of the kernel with
a piecewise cubic Hermite model, the one integral behind both the velocity
certificate and the velocity reconstruction map; `relaxation_chain` is the
node-to-node recurrence under it, which also carries the defect bound of the
certificate from cell to cell.
"""

from __future__ import annotations

import math

import numpy as np

# Below a per-order switch in z = s/m the recurrences cancel catastrophically
# (relative error ~ eps / z^(p+1)); there a Taylor series in z takes over:
#   M_p = s^(p+1) * sum_{j>=0} (-z)^j p!/(p+j+1)!,
#   J_p = -s^(p+1) * sum_{j>=1} (-z)^j p!/(p+j+1)!.
# With 20 terms the series stays within a few ulp up to z = 1.
_MAX_ORDER = 3
_SERIES_TERMS = 20
_SWITCH_M = (0.0, 0.01, 0.1, 0.5)  # M_0 = -m expm1(-z) never cancels
_SWITCH_J = (0.01, 0.1, 0.5, 1.0)
_COEF = [
    [math.factorial(p) / math.factorial(p + j + 1) for j in range(_SERIES_TERMS)]
    for p in range(_MAX_ORDER + 1)
]
_CHAIN_SPAN = 100.0  # kernel widths per block of relaxation_convolution


def _horner(z, coefs):
    """sum_j coefs[j] * (-z)^j for a scalar or ndarray z."""
    acc = coefs[-1]
    for c in coefs[-2::-1]:
        acc = acc * (-z) + c
    return acc


def _flat(sigma):
    s = np.asarray(sigma, dtype=float)
    return s.reshape(-1), s.shape


def _exp_moments_flat(s: np.ndarray, m: float, pmax: int) -> list[np.ndarray]:
    if not 0 <= pmax <= _MAX_ORDER:
        raise ValueError(f"moment order must lie in 0..{_MAX_ORDER}")
    z = s / m
    out = [-m * np.expm1(-z)]
    for p in range(1, pmax + 1):
        out.append(m * (s**p - p * out[-1]))
    for p in range(pmax + 1):
        small = z < _SWITCH_M[p]
        if np.any(small):
            out[p][small] = s[small] ** (p + 1) * _horner(z[small], _COEF[p])
    return out


def exp_moments(sigma, m: float, pmax: int):
    """Return [M_0(sigma), ..., M_pmax(sigma)] for the kernel exp(-(s-u)/m).

    `sigma` may be a scalar or ndarray of nonnegative reals; m > 0, pmax <= 3.
    Uses the recurrence M_p = m*(sigma^p - p*M_{p-1}) where z = sigma/m lies
    above the order's switch and the Taylor series on the entries below it.
    """
    s, shape = _flat(sigma)
    return [mp.reshape(shape) for mp in _exp_moments_flat(s, m, pmax)]


def one_sided_moments(sigma, m: float, pmax: int):
    """Return ([M_p], [J_p]) with J_p = sigma^(p+1)/(p+1) - M_p, stably.

    J_p also cancels for sigma << m, so it gets its own per-order series
    branch.
    """
    s, shape = _flat(sigma)
    z = s / m
    mom = _exp_moments_flat(s, m, pmax)
    jom = []
    for p in range(pmax + 1):
        jp = s ** (p + 1) / (p + 1) - mom[p]
        small = z < _SWITCH_J[p]
        if np.any(small):
            jp[small] = s[small] ** (p + 1) * z[small] * _horner(z[small], _COEF[p][1:])
        jom.append(jp)
    return [mp.reshape(shape) for mp in mom], [jp.reshape(shape) for jp in jom]


def scalar_relax_moments(sigma: float, m: float):
    """(M0, M1, M2, J0, J1, J2) for scalar sigma, avoiding array overhead."""
    z = sigma / m
    m0 = -m * math.expm1(-z)
    m1 = m * (sigma - m0)
    m2 = m * (sigma * sigma - 2.0 * m1)
    out = (m0, m1, m2, sigma - m0, 0.5 * sigma * sigma - m1, sigma**3 / 3.0 - m2)
    if z >= _SWITCH_J[2]:  # above every switch up to order 2
        return out
    out = list(out)
    for p in range(3):
        if z < _SWITCH_M[p]:
            out[p] = sigma ** (p + 1) * _horner(z, _COEF[p])
        if z < _SWITCH_J[p]:
            out[3 + p] = sigma ** (p + 1) * z * _horner(z, _COEF[p][1:])
    return tuple(out)


def hermite_cell_integrals(f0, df0, f1, df1, d, m: float):
    """Integrate exp(-(d-u)/m) * H(u) over [0, d] per cell.

    H is the cubic Hermite matching values/derivatives (f0, df0) at u=0 and
    (f1, df1) at u=d.  All of f0, df0, f1, df1 may carry trailing channel
    axes; `d` is broadcast against them (one length per cell).
    Returns the integral with the same trailing shape.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim < np.asarray(f0).ndim:
        dd = d.reshape(d.shape + (1,) * (np.asarray(f0).ndim - d.ndim))
    else:
        dd = d
    c0 = f0
    c1 = df0
    with np.errstate(invalid="ignore", divide="ignore"):
        c2 = (3.0 * (f1 - f0) - dd * (2.0 * df0 + df1)) / dd**2
        c3 = (-2.0 * (f1 - f0) + dd * (df0 + df1)) / dd**3
    c2 = np.where(dd > 0, c2, 0.0)
    c3 = np.where(dd > 0, c3, 0.0)
    mom = exp_moments(d, m, 3)
    mom = [np.reshape(mp, dd.shape) for mp in mom]
    return c0 * mom[0] + c1 * mom[1] + c2 * mom[2] + c3 * mom[3]


def relaxation_chain(nodes, local, m: float) -> np.ndarray:
    """x at every node of x_0 = 0, x_{k+1} = exp(-(t_{k+1} - t_k)/m) x_k + local_k.

    `local` (Q - 1, n) holds one increment per cell between the increasing
    `nodes` (Q,), so x_e = sum_{k<e} exp(-(t_e - t_{k+1})/m) local_k.  That
    weight factors as exp(-(t_e - t_s)/m) * exp((t_{k+1} - t_s)/m) about a
    reference node t_s; a cumulative sum then gives every output at once.
    The reference moves every _CHAIN_SPAN kernel widths, so the growing
    factor stays below e^_CHAIN_SPAN, and the blocks are chained by the
    recurrence itself.  Returns (Q, n); the first row is zero.
    """
    t = np.asarray(nodes, dtype=float)
    out = np.zeros((len(t),) + local.shape[1:])
    block = np.floor((t - t[0]) / (_CHAIN_SPAN * m))
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(block)) + 1, [len(t)]))
    for s, e in zip(bounds[:-1], bounds[1:]):
        if s > 0:
            out[s] = math.exp(-(t[s] - t[s - 1]) / m) * out[s - 1] + local[s - 1]
        rel = (t[s + 1 : e] - t[s]) / m
        acc = np.cumsum(np.exp(rel)[:, None] * local[s : e - 1], axis=0)
        out[s + 1 : e] = np.exp(-rel)[:, None] * (out[s] + acc)
    return out


def relaxation_convolution(nodes, values, slopes, m: float) -> np.ndarray:
    """int_{nodes[0]}^{t_e} exp(-(t_e-u)/m) H(u) du at every node t_e.

    H is the piecewise cubic Hermite through (values, slopes), each (Q, n),
    at the increasing `nodes` (Q,).  Each cell's exact integral is chained
    from node to node by `relaxation_chain`.  Returns (Q, n); the first row
    is zero.
    """
    t = np.asarray(nodes, dtype=float)
    local = hermite_cell_integrals(values[:-1], slopes[:-1], values[1:], slopes[1:], np.diff(t), m)
    return relaxation_chain(t, local, m)
