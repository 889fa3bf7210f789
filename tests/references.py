"""Reference formulas that the library itself does not need.

The tests use them as independent oracles (the gradient energy of the P1
interpolant, l^q norms) or to build inputs (the reflection-even part of a
random field).  Each is the plain textbook formula, written for clarity
rather than speed.
"""
import numpy as np

from kgbreather.lattice import dirichlet_energy, norm_l2


def symmetrize(a):
    """Reflection-even part of a box field: the mean over its reflections."""
    out = np.asarray(a, dtype=np.float64)
    for ax in range(out.ndim):
        out = 0.5 * (out + np.flip(out, axis=ax))
    return out


def gradient_energy(values, grid):
    """int |grad Y|^2 of the P1 interpolant Y of ``values`` (the
    triangulation of kgbreather.feminterp, one ghost ring of zeros),
    summed element by element: the gradient is constant on each element."""
    pad = np.pad(np.asarray(values, dtype=np.float64), 1)
    mu = grid.mu
    if grid.n == 1:
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


def gradient_identity_gap(values, grid):
    """Relative gap between int |grad Y|^2 and mu^(n-2) <psi, -lap psi>."""
    continuum = gradient_energy(values, grid)
    discrete = grid.mu ** (grid.n - 2) * dirichlet_energy(values)
    scale = max(abs(continuum), abs(discrete), 1e-300)
    return abs(continuum - discrete) / scale


def lp_norm(a, q):
    """Plain sequence-space l^q norm, (sum |a_j|^q)^(1/q)."""
    a = np.abs(np.asarray(a, dtype=np.float64))
    return float(np.sum(a**q) ** (1.0 / q))


def embedding_checks(a, q):
    """True when the unit-constant embeddings l2 -> l^q (q >= 2) and
    l2 -> l^inf hold for ``a``, up to roundoff slack.  On sequence spaces
    both inequalities are exact with constant 1."""
    l2 = norm_l2(a)
    slack = 1.0 + 1e-12
    return lp_norm(a, q) <= l2 * slack and float(np.max(np.abs(a))) <= l2 * slack
