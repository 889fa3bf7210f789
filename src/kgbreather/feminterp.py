"""Piecewise-linear interpolation of lattice fields into continuum functions.

A lattice sequence psi on a box becomes a continuum function

    Y(x) = sum_j psi_j s_j(x/mu - offset),

with s_j the 1d hat function or, in 2d, the pyramid over the six triangles
meeting at node j (every cell split along the same diagonal, so the
triangulation is uniform).  Outside the box the field continues linearly to
zero across one ghost cell and vanishes beyond.

Two functionals make this useful as a lattice-to-continuum dictionary:

* gradient_energy: int |grad Y|^2, computed element by element.  Because
  the cross-diagonal terms of the per-triangle gradients cancel, this is
  *algebraically identical* to mu^(n-2) <psi, -lap psi> with the discrete
  Dirichlet Laplacian - an exact identity, not an approximation.
* functional_remainder: compares the continuum power integral G_c = int
  |Y|^(q+2) with its lattice counterpart G_d = mu^n sum |psi_j|^(q+2).  The
  gap R_G = G_c - G_d measures how closely the discrete energy functional
  shadows the continuum one and shrinks with the lattice spacing.
"""
from __future__ import annotations

import numpy as np

from .errors import GuardError
from .lattice import SymmetricSequence, dirichlet_energy


class FemInterpolant:
    """Continuum extension of a lattice sequence by linear elements."""

    def __init__(self, seq: SymmetricSequence):
        self.seq = seq
        self.grid = seq.grid
        # one ghost ring of zeros: the interpolant decays linearly to zero
        # over the first exterior cell and vanishes beyond it
        self._padded = np.pad(seq.values, 1)

    def _node_coords(self, x):
        """Map physical coordinates to continuous node indices."""
        g = self.grid
        x = np.asarray(x, dtype=np.float64)
        if g.n == 1:
            return (x / g.mu - g.offsets[0] - g.axis_indices(0)[0],)
        if x.shape[-1] != 2:
            raise GuardError("2d interpolant wants points with 2 components")
        return tuple(
            x[..., ax] / g.mu - g.offsets[ax] - g.axis_indices(ax)[0]
            for ax in range(2)
        )

    def __call__(self, x):
        """Evaluate at physical points: scalar/array (1d) or (..., 2) (2d)."""
        pad = self._padded
        if self.grid.n == 1:
            (xi,) = self._node_coords(x)
            xi = np.atleast_1d(xi) + 1.0  # shift into padded indexing
            # clamp into the padded range; everything outside is zero anyway
            cell = np.clip(np.floor(xi).astype(int), 0, pad.shape[0] - 2)
            s = np.clip(xi - cell, 0.0, 1.0)
            out = pad[cell] * (1.0 - s) + pad[cell + 1] * s
            outside = (xi < 0.0) | (xi > pad.shape[0] - 1)
            out = np.where(outside, 0.0, out)
            return out if np.ndim(x) else float(out[0])
        xi, eta = self._node_coords(x)
        scalar = np.ndim(xi) == 0
        xi = np.atleast_1d(xi) + 1.0
        eta = np.atleast_1d(eta) + 1.0
        h = np.clip(np.floor(xi).astype(int), 0, pad.shape[0] - 2)
        k = np.clip(np.floor(eta).astype(int), 0, pad.shape[1] - 2)
        s = np.clip(xi - h, 0.0, 1.0)
        t = np.clip(eta - k, 0.0, 1.0)
        f00, f10 = pad[h, k], pad[h + 1, k]
        f01, f11 = pad[h, k + 1], pad[h + 1, k + 1]
        # cells split along the diagonal from (h+1,k) to (h,k+1): the lower
        # triangle carries the plane through (h,k), (h+1,k), (h,k+1)
        lower = s + t <= 1.0
        val_lo = f00 * (1.0 - s - t) + f10 * s + f01 * t
        val_hi = f11 * (s + t - 1.0) + f01 * (1.0 - s) + f10 * (1.0 - t)
        out = np.where(lower, val_lo, val_hi)
        outside = (
            (xi < 0.0)
            | (xi > pad.shape[0] - 1)
            | (eta < 0.0)
            | (eta > pad.shape[1] - 1)
        )
        out = np.where(outside, 0.0, out)
        return float(out[0]) if scalar else out


def gradient_energy(interp: FemInterpolant):
    """int |grad Y|^2 summed element by element (gradient constant there).

    Equals mu^(n-2) <psi, -lap psi> exactly; the test suite pins the
    identity, this routine never uses it.
    """
    g = interp.grid
    pad = interp._padded
    mu = g.mu
    if g.n == 1:
        slopes = np.diff(pad) / mu
        return float(np.sum(slopes**2) * mu)
    # per cell two triangles of area mu^2/2 with constant gradients
    dx_bottom = (pad[1:, :-1] - pad[:-1, :-1]) / mu  # along x at row k
    dy_left = (pad[:-1, 1:] - pad[:-1, :-1]) / mu  # along y at column h
    dx_top = (pad[1:, 1:] - pad[:-1, 1:]) / mu
    dy_right = (pad[1:, 1:] - pad[1:, :-1]) / mu
    lower = dx_bottom**2 + dy_left**2
    upper = dx_top**2 + dy_right**2
    return float(0.5 * mu**2 * np.sum(lower + upper))


def _gauss01(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _segment_power_integral(a, b, q, nodes=16):
    """int_0^1 |a + (b-a) t|^q dt for arrays a, b; kinks at sign changes
    are split so every sub-integrand is smooth."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    t, w = _gauss01(nodes)
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


def functional_remainder(interp: FemInterpolant, q, nodes=16, refine=2):
    """(G_c, G_d, R_G): continuum power integral of the interpolant, its
    lattice Riemann counterpart, and their difference.

    G_c = int |Y|^(q+2) via per-element Gauss quadrature (composite
    degree-5 on triangles, ``nodes``-point Gauss on segments), G_d =
    mu^n sum |psi_j|^(q+2), R_G = G_c - G_d.
    """
    if q < 1.0:
        raise GuardError(f"power comparison wants q >= 1, got {q}")
    g = interp.grid
    pad = interp._padded
    mu = g.mu
    power = q + 2.0
    g_d = mu**g.n * float(np.sum(np.abs(interp.seq.values) ** power))
    if g.n == 1:
        segs = _segment_power_integral(pad[:-1], pad[1:], power, nodes=nodes)
        g_c = mu * float(np.sum(segs))
        return g_c, g_d, g_c - g_d
    pts, w = _triangle_rule(refine)
    f00, f10 = pad[:-1, :-1].ravel(), pad[1:, :-1].ravel()
    f01, f11 = pad[:-1, 1:].ravel(), pad[1:, 1:].ravel()
    # corner values per triangle orientation (see __call__ for the split)
    lower = np.stack([f00, f10, f01])
    upper = np.stack([f11, f01, f10])
    total = 0.0
    for corner_vals in (lower, upper):
        vals = np.abs(pts @ corner_vals) ** power
        total += float(w @ vals.reshape(len(w), -1).sum(axis=1))
    g_c = 0.5 * mu**2 * total
    return g_c, g_d, g_c - g_d


def gradient_identity_gap(seq: SymmetricSequence):
    """Relative gap between int |grad Y|^2 and mu^(n-2) <psi, -lap psi>."""
    g = seq.grid
    continuum = gradient_energy(FemInterpolant(seq))
    discrete = g.mu ** (g.n - 2) * dirichlet_energy(seq.values)
    scale = max(abs(continuum), abs(discrete), 1e-300)
    return abs(continuum - discrete) / scale
