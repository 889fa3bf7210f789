"""Piecewise-linear interpolation of lattice fields into continuum functions.

A lattice field psi on a box becomes a continuum function

    Y(x) = sum_j psi_j s_j(x/mu - offset),

with s_j the 1d hat function or, in 2d, the pyramid over the six triangles
meeting at node j (every cell split along the same diagonal, so the
triangulation is uniform).  Outside the box the field continues linearly to
zero across one ghost cell and vanishes beyond.

functional_remainder compares the continuum power integral G_c = int
|Y|^(q+2) with its lattice counterpart G_d = mu^n sum |psi_j|^(q+2).  The
gap R_G = G_c - G_d measures how closely the discrete energy functional
shadows the continuum one and shrinks with the lattice spacing.  The
gradient term needs no such comparison: because the cross-diagonal terms of
the per-triangle gradients cancel, int |grad Y|^2 is *algebraically
identical* to mu^(n-2) <psi, -lap psi> with the discrete Dirichlet
Laplacian (the test suite checks the identity element by element).
"""
from __future__ import annotations

import numpy as np

from .errors import GuardError


_NODES = 16  # Gauss nodes per segment of functional_remainder (1d)
_REFINE = 2  # refinements of its composite triangle rule (2d)


def _gauss01(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _segment_power_integral(a, b, q):
    """int_0^1 |a + (b-a) t|^q dt for arrays a, b; kinks at sign changes
    are split so every sub-integrand is smooth."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    t, w = _gauss01(_NODES)
    vals = a[:, None] * (1.0 - t[None, :]) + b[:, None] * t[None, :]
    out = np.abs(vals) ** q @ w
    crossing = np.flatnonzero((a * b < 0.0))
    for i in crossing:
        ts = a[i] / (a[i] - b[i])
        left = np.abs(a[i] * (1.0 - ts * t) + b[i] * ts * t) ** q @ w * ts
        tr = ts + (1.0 - ts) * t
        right = np.abs(a[i] * (1.0 - tr) + b[i] * tr) ** q @ w * (1.0 - ts)
        out[i] = left + right
    return out


def _triangle_rule(refine):
    """Barycentric points/weights: 7-point degree-5 rule on 4^refine
    congruent subtriangles; weights sum to 1 (unit reference area)."""
    s15 = np.sqrt(15.0)
    a = (6.0 - s15) / 21.0
    b = (6.0 + s15) / 21.0
    base_pts = np.array(
        [
            [1 / 3, 1 / 3, 1 / 3],
            [a, a, 1 - 2 * a],
            [a, 1 - 2 * a, a],
            [1 - 2 * a, a, a],
            [b, b, 1 - 2 * b],
            [b, 1 - 2 * b, b],
            [1 - 2 * b, b, b],
        ]
    )
    base_w = np.array(
        [9 / 40]
        + [(155.0 - s15) / 1200.0] * 3
        + [(155.0 + s15) / 1200.0] * 3
    )
    corners = [np.eye(3)]
    for _ in range(refine):
        next_corners = []
        for c in corners:
            m01, m12, m20 = (
                0.5 * (c[0] + c[1]),
                0.5 * (c[1] + c[2]),
                0.5 * (c[2] + c[0]),
            )
            next_corners += [
                np.array([c[0], m01, m20]),
                np.array([m01, c[1], m12]),
                np.array([m20, m12, c[2]]),
                np.array([m01, m12, m20]),
            ]
        corners = next_corners
    pts = np.concatenate([base_pts @ c for c in corners])
    w = np.tile(base_w / len(corners), len(corners))
    return pts, w


def functional_remainder(values, grid, q):
    """(G_c, G_d, R_G) for the box field ``values`` on ``grid``: continuum
    power integral of its interpolant, its lattice Riemann counterpart,
    and their difference.

    G_c = int |Y|^(q+2) via per-element Gauss quadrature (composite
    degree-5 on triangles, _NODES-point Gauss on segments), G_d =
    mu^n sum |psi_j|^(q+2), R_G = G_c - G_d.
    """
    if q < 1.0:
        raise GuardError(f"power comparison wants q >= 1, got {q}")
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise GuardError(f"values {values.shape} do not fit grid {grid.shape}")
    # one ghost ring of zeros: the interpolant decays linearly to zero
    # over the first exterior cell and vanishes beyond it
    pad = np.pad(values, 1)
    mu = grid.mu
    power = q + 2.0
    g_d = mu**grid.n * float(np.sum(np.abs(values) ** power))
    if grid.n == 1:
        segs = _segment_power_integral(pad[:-1], pad[1:], power)
        g_c = mu * float(np.sum(segs))
        return g_c, g_d, g_c - g_d
    pts, w = _triangle_rule(_REFINE)
    f00, f10 = pad[:-1, :-1].ravel(), pad[1:, :-1].ravel()
    f01, f11 = pad[:-1, 1:].ravel(), pad[1:, 1:].ravel()
    # cells (h, k) split along the diagonal from (h+1, k) to (h, k+1): the
    # lower triangle has corners (h, k), (h+1, k), (h, k+1)
    lower = np.stack([f00, f10, f01])
    upper = np.stack([f11, f01, f10])
    total = 0.0
    for corner_vals in (lower, upper):
        vals = np.abs(pts @ corner_vals) ** power
        total += float(w @ vals.reshape(len(w), -1).sum(axis=1))
    g_c = 0.5 * mu**2 * total
    return g_c, g_d, g_c - g_d
