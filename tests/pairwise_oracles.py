"""The direct O(n^2) pairwise sums, kept as oracles of the mean-field forms.

The package evaluates the coupling (kappa/N) sum_l sin(theta_l - theta_i)
through the order sum Z = sum_l e^{i theta_l} only.  These helpers sum over
every pair instead, so a test that compares the two does not share the
formula under test.
"""

from __future__ import annotations

import math

import numpy as np


def pairwise_coupling(kappa, theta):
    """(kappa/n) sum_l sin(theta_l - theta_i) over phases of shape (..., n)."""
    theta = np.asarray(theta, dtype=float)
    d = theta[..., None, :] - theta[..., :, None]
    return kappa / theta.shape[-1] * np.sin(d).sum(axis=-1)


def pairwise_coupling_and_rate(kappa, theta, omega):
    """The coupling and its rate (kappa/n) sum_l cos(theta_l - theta_i) (omega_l - omega_i)."""
    d = theta[..., None, :] - theta[..., :, None]
    w = omega[..., None, :] - omega[..., :, None]
    n = theta.shape[-1]
    return kappa / n * np.sin(d).sum(axis=-1), kappa / n * (np.cos(d) * w).sum(axis=-1)


def pairwise_taylor_jet(params, state, order):
    """Raw derivatives theta^(k), k = 0..order, (order + 1, n), from pairwise series.

    Carries the Taylor series of u = theta_l - theta_i and of sin u, cos u for
    every pair (s' = c u', c' = -s u' as series convolutions), then reads the
    next phase coefficient from the equation of motion.
    """
    n, m, kappa, kk = params.n, params.inertia_m, params.coupling_kappa, order
    p = np.zeros((kk + 1, n))  # p[k] = theta^(k)/k!
    p[0] = state.theta
    if params.is_inertial:
        p[1] = state.omega
    else:
        p[1] = params.nat_freq + pairwise_coupling(kappa, state.theta)

    u = np.zeros((kk + 1, n, n))  # u[k][i,l] = (theta_l - theta_i) series
    s = np.zeros_like(u)
    c = np.zeros_like(u)
    u[0] = p[0][None, :] - p[0][:, None]
    s[0] = np.sin(u[0])
    c[0] = np.cos(u[0])

    for k in range(0, kk - 1 if params.is_inertial else kk):
        u[k] = p[k][None, :] - p[k][:, None]
        if k >= 1:
            # s[k] = (1/k) sum_{j=1..k} j * u[j] * c[k-j]; likewise for c[k]
            sk = np.zeros((n, n))
            ck = np.zeros((n, n))
            for j in range(1, k + 1):
                sk += j * u[j] * c[k - j]
                ck -= j * u[j] * s[k - j]
            s[k] = sk / k
            c[k] = ck / k
        rhs_k = (kappa / n) * s[k].sum(axis=1)
        if k == 0:
            rhs_k = rhs_k + params.nat_freq
        if params.is_inertial:
            p[k + 2] = (rhs_k - (k + 1) * p[k + 1]) / (m * (k + 1) * (k + 2))
        elif k >= 1:
            p[k + 1] = rhs_k / (k + 1)

    fact = np.array([math.factorial(k) for k in range(kk + 1)], dtype=float)
    return p * fact[:, None]
