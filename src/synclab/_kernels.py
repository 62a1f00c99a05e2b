"""Exact moment integrals against the relaxation kernel exp(-(s-u)/m).

Everything stiff in this package reduces to integrals of the form

    M_p(s) = int_0^s u^p exp(-(s-u)/m) du,
    J_p(s) = int_0^s u^p (1 - exp(-(s-u)/m)) du = M_{p+1}(s) / (m (p+1)),

the last by parts, with a polynomial factor u^p coming from a local
polynomial model of the smooth (non-stiff) part of the integrand.  Computing
these moments in closed form keeps the quadrature error independent of the
stiffness ratio s/m.

`relaxation_weights` is the one entry point: taken against the powers of
u/h in a cell of width h, the moments are the phi-functions of Hochbruck &
Ostermann (Acta Numerica 19, 2010), and one table M_0 .. M_{q+1} gives
every weight of a degree-q model.  They weigh the degree-6 coupling models
of the exp stepper's cells and of the velocity reconstruction's and, at
degree 3, the cubic Hermite model of `hermite_cell_integrals`; at m = 0 they
are their limits m -> 0, M_p/m -> s^p and J_p -> s^(p+1)/(p+1), which make
the stepper classical collocation.  `relaxation_convolution` chains the
Hermite cells into 1/m times the convolution of the kernel with a piecewise
cubic Hermite model, the integral behind the exact velocity residual;
`relaxation_chain` is the node-to-node recurrence under it, which also
carries the defect bound, the velocity certificate, and the reconstruction's
velocity from cell to cell.
"""

from __future__ import annotations

import math

import numpy as np

# Below a per-order switch in z = s/m the recurrence cancels catastrophically
# (relative error ~ eps / z^(p+1)); there a Taylor series in z takes over:
#   M_p = s^(p+1) * sum_{j>=0} (-z)^j p!/(p+j+1)!.
# The recurrence amplifies rounding by about p!/z^p, so the switch rises with
# the order; the series has no cancellation below z = p + 2, and with 20 terms
# it stays within a few ulp up to z = 2.5 for the orders that use it there.
_MAX_ORDER = 6  # the degree of the exp stepper's coupling model
_SERIES_TERMS = 20
# One switch per order of M_0 .. M_7 (M_0 = -m expm1(-z) never cancels);
# J_p reads M_{p+1}, and with it order p + 1's switch.
_SWITCH = np.array([0.0, 0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5])
# Row j holds the coefficient of (-z)^j of every order's series, p!/(p+j+1)!.
_COEF = np.array([
    [math.factorial(p) / math.factorial(p + j + 1) for p in range(_MAX_ORDER + 2)]
    for j in range(_SERIES_TERMS)
])
_CHAIN_SPAN = 100.0  # kernel widths per block of relaxation_convolution


def relaxation_weights(s, h, m: float, degree: int):
    """e^{-s/m} and M_0(s) (Q,), and M_p(s)/(m h^p) and J_p(s)/h^p, (degree + 1, Q).

    s (Q,) are offsets into cells of width h, a scalar or one per offset.
    The table M_0 .. M_{degree+1} comes from the recurrence
    M_p = m (s^p - p M_{p-1}) above each order's switch in z = s/m, and below
    it from the series, whose orders share one product; J_p = M_{p+1}/(m (p+1)).
    At m = 0 they are the limits m -> 0 for s > 0: e^{-s/m} -> 0, M_0 -> 0,
    M_p/m -> s^p and J_p -> s^(p+1)/(p+1), and at s = 0 too, as the
    cell-start omega they drop is slaved to the model there.
    """
    if not 0 <= degree <= _MAX_ORDER:
        raise ValueError(f"moment order must lie in 0..{_MAX_ORDER}")
    s = np.asarray(s, dtype=float)
    orders = np.arange(degree + 2.0)[:, None]
    if m == 0.0:
        decay = mom0 = np.zeros_like(s)
        rate = (s / h) ** orders
    else:
        z = s / m
        mom = [-m * np.expm1(-z)]
        # far below an order's switch its recurrence can overflow, as the
        # rounding of M_0 grows by m per order; the series replaces those entries
        with np.errstate(over="ignore"):
            for p in range(1, degree + 2):
                mom.append(m * (s**p - p * mom[-1]))
        mom = np.asarray(mom)
        below = np.flatnonzero(z < _SWITCH[degree + 1])
        if below.size:
            zs = z[below]
            sums = np.vander(-zs, _SERIES_TERMS, increasing=True) @ _COEF[:, : degree + 2]
            series = s[below] ** (orders + 1) * sums.T
            mom[:, below] = np.where(zs < _SWITCH[: degree + 2, None], series, mom[:, below])
        decay, mom0 = np.exp(-z), mom[0]
        rate = mom * h**-orders / m
    return decay, mom0, rate[:-1], h * rate[1:] / orders[1:]


def hermite_cell_integrals(f0, df0, f1, df1, d, m: float):
    """(1/m) int_0^d exp(-(d-u)/m) H(u) du per cell.

    H is the cubic Hermite matching values/derivatives (f0, df0) at u=0 and
    (f1, df1) at u=d; each is (Q, n), and `d` (Q,) holds one positive length
    per cell.  In powers of u/d, H has the coefficients f0, d df0,
    3 D - d (2 df0 + df1) and d (df0 + df1) - 2 D with D = f1 - f0, taken
    against the weights M_p(d)/(m d^p) of `relaxation_weights`.  Returns (Q, n).
    """
    rate = relaxation_weights(d, d, m, 3)[2][:, :, None]
    dd = d[:, None]
    delta = f1 - f0
    return (
        rate[0] * f0
        + rate[1] * (dd * df0)
        + rate[2] * (3.0 * delta - dd * (2.0 * df0 + df1))
        + rate[3] * (dd * (df0 + df1) - 2.0 * delta)
    )


def relaxation_chain(nodes, local, m: float) -> np.ndarray:
    """x at every node of x_0 = 0, x_{k+1} = exp(-(t_{k+1} - t_k)/m) x_k + local_k.

    `local` (Q - 1, n) holds one increment per cell between the increasing
    `nodes` (Q,), so x_e = sum_{k<e} exp(-(t_e - t_{k+1})/m) local_k.  That
    weight factors as exp(-(t_e - t_s)/m) * exp((t_{k+1} - t_s)/m) about a
    reference node t_s; a cumulative sum then gives every output at once.
    The reference moves every _CHAIN_SPAN kernel widths, so the growing
    factor stays below e^_CHAIN_SPAN, and the blocks are chained by the
    recurrence itself.  At m = 0 it is the limit m -> 0, x_{k+1} = local_k.
    Returns (Q, n); the first row is zero.
    """
    t = np.asarray(nodes, dtype=float)
    out = np.zeros((len(t),) + local.shape[1:])
    if m == 0.0:
        return np.concatenate([out[:1], local])
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
    """(1/m) int_{nodes[0]}^{t_e} exp(-(t_e-u)/m) H(u) du at every node t_e.

    H is the piecewise cubic Hermite through (values, slopes), each (Q, n),
    at the increasing `nodes` (Q,).  Each cell's exact integral is chained
    from node to node by `relaxation_chain`.  Returns (Q, n); the first row
    is zero.
    """
    t = np.asarray(nodes, dtype=float)
    local = hermite_cell_integrals(values[:-1], slopes[:-1], values[1:], slopes[1:], np.diff(t), m)
    return relaxation_chain(t, local, m)
