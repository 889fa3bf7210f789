"""Tests for the piecewise-linear lattice-to-continuum dictionary.

Oracle notes (all computed by hand, independent of the implementation):

* 1d single hat, q = 2, mu = 1: the hat at the origin gives
  G_c = int_{-1}^{1} |Y|^4 = 2 int_0^1 t^4 dt = 2/5, G_d = 1, R_G = -3/5.
* 1d sign-crossing chain (-1, 1, -1), mu = 1: each of the four segments
  (two ghost decays, two interior crossings) contributes
  int_0^1 |2t-1|^3 dt = 1/4 or int_0^1 t^3 dt = 1/4, so G_c = 1, G_d = 3.
* 2d single pyramid, q = 2, mu = 1: the basis pyramid spans six triangles,
  each contributing mean(bary^4) * area = (1/15)(1/2) = 1/30, so
  G_c = 6/30 = 1/5, G_d = 1, R_G = -4/5.  (Degree-4 integrand: the
  degree-5 triangle rule must hit it exactly.)
* gradient identity: int |grad Y|^2 = mu^(n-2) <psi, -lap psi> is exact
  for the uniform split triangulation; checked on random data.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgbreather.feminterp as feminterp
from kgbreather.errors import GuardError
from kgbreather.feminterp import functional_remainder
from kgbreather.groundstate import sample_reference, solve_ground_state
from kgbreather.lattice import GridSpec, mirror_block
from references import gradient_energy, gradient_identity_gap, norm_q


def _random_field(n, K, mu, seed, offsets=None):
    """(values, grid): a random field on a small box."""
    rng = np.random.default_rng(seed)
    g = GridSpec(n=n, K=K, mu=mu, offsets=offsets or (0.0,) * n)
    return rng.standard_normal(g.shape), g


def _padded_index(coord, grid, ax):
    """Continuous node index along ``ax`` of physical coordinates, counted
    in the box padded by one ghost node on each side."""
    return coord / grid.mu - grid.offsets[ax] - grid.axis_indices(ax)[0] + 1.0


def _interpolate(values, grid, x):
    """Pointwise reference for the P1 interpolant Y of ``values`` at
    physical points: a scalar or array (1d), or an (..., 2) array (2d).
    functional_remainder integrates element by element and never
    evaluates Y, so the tests below tie the two together."""
    pad = np.pad(values, 1)
    x = np.asarray(x, dtype=np.float64)
    if grid.n == 1:
        xi = np.atleast_1d(_padded_index(x, grid, 0))
        # clamp into the padded range; everything outside is zero anyway
        cell = np.clip(np.floor(xi).astype(int), 0, pad.shape[0] - 2)
        s = np.clip(xi - cell, 0.0, 1.0)
        out = pad[cell] * (1.0 - s) + pad[cell + 1] * s
        outside = (xi < 0.0) | (xi > pad.shape[0] - 1)
        out = np.where(outside, 0.0, out)
        return out if np.ndim(x) else float(out[0])
    xi = np.atleast_1d(_padded_index(x[..., 0], grid, 0))
    eta = np.atleast_1d(_padded_index(x[..., 1], grid, 1))
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
        (xi < 0.0) | (xi > pad.shape[0] - 1) | (eta < 0.0) | (eta > pad.shape[1] - 1)
    )
    return np.where(outside, 0.0, out)


# ---------------------------------------------------------------- evaluation


def test_eval_reproduces_nodes_1d():
    values, g = _random_field(1, 5, 0.3, seed=1)
    x = g.position_axes()[0]
    assert np.allclose(_interpolate(values, g, x), values, rtol=0, atol=1e-14)


def test_eval_reproduces_nodes_2d():
    values, g = _random_field(2, 4, 0.25, seed=2)
    ax = g.position_axes()
    xx, yy = np.meshgrid(ax[0], ax[1], indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    assert np.allclose(
        _interpolate(values, g, pts), values.ravel(), rtol=0, atol=1e-14
    )


def test_eval_ghost_decay_and_zero_outside():
    g = GridSpec(n=1, K=2, mu=0.5)
    values = np.array([0.0, 1.0, 2.0, 1.0, 0.0]) + 1.0
    # last node sits at x = 1.0 with value 1.0; ghost node at 1.5 is zero
    assert _interpolate(values, g, 1.25) == pytest.approx(0.5, abs=1e-15)
    assert _interpolate(values, g, 1.5) == 0.0
    assert _interpolate(values, g, 17.0) == 0.0
    assert _interpolate(values, g, -3.2) == 0.0


def test_eval_zero_outside_2d():
    values, g = _random_field(2, 3, 0.4, seed=3)
    far = np.array([[5.0, 0.0], [0.0, -5.0], [4.0, 4.0]])
    assert np.all(_interpolate(values, g, far) == 0.0)


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_partition_of_unity(seed, n):
    """Interpolating the all-ones field gives exactly 1 inside the hull."""
    rng = np.random.default_rng(seed)
    g = GridSpec(n=n, K=4, mu=0.3)
    hull = g.K * g.mu
    pts = rng.uniform(-0.98 * hull, 0.98 * hull, size=(50, n))
    vals = _interpolate(np.ones(g.shape), g, pts if n == 2 else pts[:, 0])
    assert np.max(np.abs(vals - 1.0)) < 1e-13


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_plane_reproduction_2d(seed):
    """Linear fields are reproduced exactly inside the hull."""
    rng = np.random.default_rng(seed)
    alpha, beta, gamma = rng.uniform(-2, 2, size=3)
    g = GridSpec(n=2, K=4, mu=0.35, offsets=(0.5, 0.0))
    ax = g.position_axes()
    xx, yy = np.meshgrid(ax[0], ax[1], indexing="ij")
    values = alpha * xx + beta * yy + gamma
    hull = (g.K - 0.4) * g.mu
    pts = rng.uniform(-hull, hull, size=(60, 2))
    expected = alpha * pts[:, 0] + beta * pts[:, 1] + gamma
    assert np.max(np.abs(_interpolate(values, g, pts) - expected)) < 1e-13


# ---------------------------------------------------- gradient energy identity


@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(2, 9),
    mu=st.floats(0.05, 1.5),
)
@settings(max_examples=40, deadline=None)
def test_gradient_identity_1d(seed, K, mu):
    assert gradient_identity_gap(*_random_field(1, K, mu, seed)) < 1e-12


@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(2, 6),
    mu=st.floats(0.05, 1.5),
)
@settings(max_examples=25, deadline=None)
def test_gradient_identity_2d(seed, K, mu):
    assert gradient_identity_gap(*_random_field(2, K, mu, seed)) < 1e-12


def test_gradient_energy_single_hat():
    g = GridSpec(n=1, K=2, mu=1.0)
    values = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    assert gradient_energy(values, g) == pytest.approx(2.0, rel=1e-15)


# ------------------------------------------------------- functional remainder


def test_single_element_oracle_1d():
    g = GridSpec(n=1, K=2, mu=1.0)
    values = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    g_c, g_d, r_g = functional_remainder(values, g, q=2.0)
    assert g_c == pytest.approx(2.0 / 5.0, rel=1e-13)
    assert g_d == pytest.approx(1.0, rel=0)
    assert r_g == pytest.approx(-3.0 / 5.0, rel=1e-13)


def test_sign_crossing_oracle_1d():
    g = GridSpec(n=1, K=2, mu=1.0)
    values = np.array([0.0, -1.0, 1.0, -1.0, 0.0])
    g_c, g_d, r_g = functional_remainder(values, g, q=1.0)
    assert g_c == pytest.approx(1.0, rel=1e-13)
    assert g_d == pytest.approx(3.0, rel=0)
    assert r_g == pytest.approx(-2.0, rel=1e-13)


def _g_c(monkeypatch, values, grid, q, **rule):
    """G_c with the quadrature constants (_NODES, _REFINE) set to ``rule``."""
    for name, value in rule.items():
        monkeypatch.setattr(feminterp, name, value)
    return functional_remainder(values, grid, q=q)[0]


def test_single_pyramid_oracle_2d(monkeypatch):
    g = GridSpec(n=2, K=2, mu=1.0)
    vals = np.zeros(g.shape)
    vals[2, 2] = 1.0
    monkeypatch.setattr(feminterp, "_REFINE", 0)
    g_c, g_d, r_g = functional_remainder(vals, g, q=2.0)
    assert g_c == pytest.approx(1.0 / 5.0, rel=1e-13)
    assert g_d == pytest.approx(1.0, rel=0)
    assert r_g == pytest.approx(-4.0 / 5.0, rel=1e-13)


def _power_integral_of_interpolant(values, grid, power, order=4):
    """int |Y|^power from pointwise values of the reference interpolant:
    Gauss-Legendre on every segment (1d), collapsed Gauss on the two
    triangles of every cell (2d, corner (u, v) -> (u, (1 - u) v)).  Exact
    for even integer powers up to 2 order - 1, where |Y|^power is a
    polynomial on each element."""
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    mu = grid.mu

    def node(i, ax):
        # physical coordinate of the padded node index i along ax
        return mu * (i - 1.0 + grid.axis_indices(ax)[0] + grid.offsets[ax])

    if grid.n == 1:
        cells = np.arange(grid.shape[0] + 1)[:, None]
        y = _interpolate(values, grid, node(cells + x[None, :], 0))
        return mu * float(np.sum(np.abs(y) ** power @ w))
    u, v = np.meshgrid(x, x, indexing="ij")
    s, t = u.ravel(), ((1.0 - u) * v).ravel()
    weights = (np.outer(w, w) * (1.0 - u)).ravel()
    h, k = np.meshgrid(
        np.arange(grid.shape[0] + 1), np.arange(grid.shape[1] + 1), indexing="ij"
    )
    h, k = h.ravel()[:, None], k.ravel()[:, None]
    total = 0.0
    # lower triangle from corner (h, k), upper one from corner (h+1, k+1)
    for xi, eta in ((h + s, k + t), (h + 1.0 - s, k + 1.0 - t)):
        pts = np.stack([node(xi, 0), node(eta, 1)], axis=-1)
        y = _interpolate(values, grid, pts)
        total += float(np.sum(np.abs(y) ** power @ weights))
    return mu**2 * total


@pytest.mark.parametrize(
    "n, offsets", [(1, (0.0,)), (1, (0.5,)), (2, (0.0, 0.5)), (2, (0.5, 0.5))]
)
def test_remainder_integrates_the_pointwise_interpolant(n, offsets):
    """G_c of functional_remainder is int |Y|^4 of the pointwise reference
    interpolant, ghost ring and diagonal orientation included."""
    values, g = _random_field(n, 4 if n == 1 else 3, 0.3, seed=5, offsets=offsets)
    g_c, _, _ = functional_remainder(values, g, q=2.0)
    assert g_c == pytest.approx(
        _power_integral_of_interpolant(values, g, 4.0), rel=1e-13
    )


def test_noninteger_power_converges_with_refinement(monkeypatch):
    """For the intended use (positive decaying profiles) the composite
    triangle rule is converged at the default level even for
    non-polynomial powers: the field only vanishes where it is already
    exponentially small, so the |.|^(q+2) fractional kink is harmless."""
    profile = solve_ground_state(2, 0.5)
    g = GridSpec.for_radius(n=2, mu=0.3, r_min=18.0)
    psi = mirror_block(sample_reference(profile, g), g)
    coarse = _g_c(monkeypatch, psi, g, 1.5, _REFINE=1)
    fine = _g_c(monkeypatch, psi, g, 1.5, _REFINE=3)
    assert coarse == pytest.approx(fine, rel=1e-11)


def test_sign_crossing_field_converges_2d(monkeypatch):
    """Fields with sign changes have |.|^3 kinks across triangles; the
    composite rule still converges, just algebraically."""
    values, g = _random_field(2, 4, 0.3, seed=11)
    finest = _g_c(monkeypatch, values, g, 1.0, _REFINE=5)
    errs = [abs(_g_c(monkeypatch, values, g, 1.0, _REFINE=r) - finest)
            for r in (1, 2, 3)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


def test_segment_rule_converged_1d(monkeypatch):
    # after splitting at sign changes the only non-smoothness left is the
    # |t|^3.5 endpoint behaviour, where 16-node Gauss is ~1e-11 accurate
    values, g = _random_field(1, 8, 0.2, seed=12)
    assert feminterp._NODES == 16
    a = functional_remainder(values, g, q=1.5)[0]
    b = _g_c(monkeypatch, values, g, 1.5, _NODES=48)
    assert a == pytest.approx(b, rel=1e-9)


def test_power_guard():
    values, g = _random_field(1, 3, 0.5, seed=13)
    with pytest.raises(GuardError):
        functional_remainder(values, g, q=0.5)
    with pytest.raises(GuardError, match="do not fit grid"):
        functional_remainder(np.ones(g.size + 2), g, q=2.0)


def test_remainder_shrinks_with_spacing():
    """R_G for sampled ground states decays as the lattice refines, and
    the scale-free mass ratio mu^n sum|v|^q / ||v||_Q^q stays bounded."""
    profile = solve_ground_state(1, 1.0)
    rows = []
    ratios = []
    q = 2.0  # power gap exponent: q = 2p at p = 1
    for mu in (0.4, 0.2, 0.1):
        g = GridSpec.for_radius(n=1, mu=mu, r_min=45.0)
        psi = mirror_block(sample_reference(profile, g), g)
        _, _, r_g = functional_remainder(psi, g, q=q)
        rows.append(abs(r_g))
        ratios.append(
            mu**g.n * float(np.sum(np.abs(psi) ** (4 * 1.0 + 2)))
            / (mu ** (g.n / 2.0) * norm_q(psi, mu)) ** (4 * 1.0 + 2)
        )
    assert rows[0] > rows[1] > rows[2]
    # mu-uniform bound on the embedding-chain ratio
    assert max(ratios) < 0.05
    assert max(ratios) / min(ratios) < 1.05

