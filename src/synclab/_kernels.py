"""Exact moment integrals against the relaxation kernel exp(-(s-u)/m).

Everything stiff in this package reduces to integrals of the form

    M_p(s) = int_0^s u^p exp(-(s-u)/m) du,
    J_p(s) = int_0^s u^p (1 - exp(-(s-u)/m)) du = s^(p+1)/(p+1) - M_p(s),

with a polynomial factor u^p coming from a local polynomial model of the
smooth (non-stiff) part of the integrand.  Computing these moments in closed
form keeps the quadrature error independent of the stiffness ratio s/m.

Up to order 6 they are the exp stepper's phi-functions: the relaxation solved
exactly under its degree-6 coupling model.  `relaxation_convolution` chains
them into the convolution of the kernel with a piecewise cubic Hermite model,
the one integral behind both the velocity certificate and the velocity
reconstruction map; `relaxation_chain` is the node-to-node recurrence under
it, which also carries the defect bound of the certificate from cell to cell.
"""

from __future__ import annotations

import math

import numpy as np

# Below a per-order switch in z = s/m the recurrences cancel catastrophically
# (relative error ~ eps / z^(p+1)); there a Taylor series in z takes over:
#   M_p = s^(p+1) * sum_{j>=0} (-z)^j p!/(p+j+1)!,
#   J_p = -s^(p+1) * sum_{j>=1} (-z)^j p!/(p+j+1)!.
# The recurrence amplifies rounding by about p!/z^p, so the switch rises with
# the order; the series has no cancellation below z = p + 2, and with 20 terms
# it stays within a few ulp up to z = 2.5 for the orders that use it there.
_MAX_ORDER = 6  # the degree of the exp stepper's coupling model
_SERIES_TERMS = 20
_SWITCH_M = (0.0, 0.01, 0.1, 0.5, 1.0, 1.5, 2.0)  # M_0 = -m expm1(-z) never cancels
_SWITCH_J = (0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5)
# Row j holds the coefficients of (-z)^j of every order's series: p!/(p+j+1)!
# for M_p / s^(p+1), then p!/(p+j+2)! for J_p / (z s^(p+1)).
_COEF = np.array([
    [math.factorial(p) / math.factorial(p + j + 1 + k)
     for k in (0, 1) for p in range(_MAX_ORDER + 1)]
    for j in range(_SERIES_TERMS)
])
_CHAIN_SPAN = 100.0  # kernel widths per block of relaxation_convolution


def _flat(sigma):
    s = np.asarray(sigma, dtype=float)
    return s.reshape(-1), s.shape


def _moments_flat(s: np.ndarray, m: float, pmax: int, with_j: bool):
    """[M_0..M_pmax] and, with `with_j`, [J_0..J_pmax] (else None) at the flat s.

    The series of every order come from one Horner pass over the entries
    below the highest switch in use; the switches rise with the order.
    """
    if not 0 <= pmax <= _MAX_ORDER:
        raise ValueError(f"moment order must lie in 0..{_MAX_ORDER}")
    z = s / m
    mom = [-m * np.expm1(-z)]
    # far below an order's switch its recurrence can overflow, as the rounding
    # of M_0 grows by m per order; the series below replaces those entries
    with np.errstate(over="ignore"):
        for p in range(1, pmax + 1):
            mom.append(m * (s**p - p * mom[-1]))
    jom = [s ** (p + 1) / (p + 1) - mom[p] for p in range(pmax + 1)] if with_j else None
    below = z < (_SWITCH_J if with_j else _SWITCH_M)[pmax]
    if below.any():
        small = slice(None) if below.all() else np.flatnonzero(below)
        zs, lead = z[small], s[small]
        # the orders whose switch some entry lies below
        orders = [p for p in range(pmax + 1) if zs.min() < _SWITCH_M[p]]
        orders_j = [p for p in range(pmax + 1) if with_j and zs.min() < _SWITCH_J[p]]
        cols = np.array(orders + [_MAX_ORDER + 1 + p for p in orders_j], dtype=int)
        acc, neg = _COEF[-1, cols, None], -zs
        for row in _COEF[-2::-1, cols, None]:
            acc = acc * neg + row
        for k, p in enumerate(orders):
            series = lead ** (p + 1) * acc[k]
            mom[p][small] = np.where(zs < _SWITCH_M[p], series, mom[p][small])
        for k, p in enumerate(orders_j, start=len(orders)):
            series = lead ** (p + 1) * zs * acc[k]
            jom[p][small] = np.where(zs < _SWITCH_J[p], series, jom[p][small])
    return mom, jom


def exp_moments(sigma, m: float, pmax: int):
    """Return [M_0(sigma), ..., M_pmax(sigma)] for the kernel exp(-(s-u)/m).

    `sigma` may be a scalar or ndarray of nonnegative reals; m > 0, pmax <= 6.
    Uses the recurrence M_p = m*(sigma^p - p*M_{p-1}) where z = sigma/m lies
    above the order's switch and the Taylor series on the entries below it.
    """
    s, shape = _flat(sigma)
    return [mp.reshape(shape) for mp in _moments_flat(s, m, pmax, False)[0]]


def one_sided_moments(sigma, m: float, pmax: int):
    """Return ([M_p], [J_p]) with J_p = sigma^(p+1)/(p+1) - M_p, stably.

    J_p also cancels for sigma << m, so it gets its own per-order series
    branch.
    """
    s, shape = _flat(sigma)
    mom, jom = _moments_flat(s, m, pmax, True)
    return [mp.reshape(shape) for mp in mom], [jp.reshape(shape) for jp in jom]


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
