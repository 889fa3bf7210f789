"""Continuum NLS ground states: closed form in 1d, radial solver in 2d.

The 2d numbers are pinned against an independent shooting computation
(solve_ivp RK45 at rtol 1e-12 with bisection on the center amplitude of
-u'' - u'/r + u = u^(2p+1), then m = (int u^2 dx)^(-p/(1-p))):

    p = 1/2:  u(0) = 2.391956403224   m = 3.225476364557e-02
    p = 3/4:                          m = 1.784111251022e-04
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import simpson

import kgbreather.groundstate as groundstate
from kgbreather.errors import ConvergenceError, GuardError
from kgbreather.groundstate import (
    check_exponent,
    check_parameters,
    sample_reference,
    save_profile,
    sech_moment,
    solve_ground_state,
)
from kgbreather.lattice import (
    BREATHER_MODES, GridSpec, asymmetry, block_slices, mirror_block,
)


@pytest.fixture(scope="module")
def profile_2d():
    return solve_ground_state(2, 0.5)


def test_cubic_1d_constants():
    g = solve_ground_state(1, 1.0)
    assert g.multiplier == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert g.amplitude == pytest.approx(np.sqrt(2.0) / 4.0, rel=1e-15)
    assert g.decay_rate == pytest.approx(0.25, rel=1e-15)
    # psi(x) = (sqrt(2)/4) sech(x/4)
    x = np.linspace(-30, 30, 101)
    assert np.allclose(g(x), np.sqrt(2.0) / 4.0 / np.cosh(x / 4.0), rtol=1e-14)


def test_sech_moment_analytic():
    assert sech_moment(1.0) == pytest.approx(2.0, rel=1e-14)
    # numerical cross-check at a generic exponent
    y = np.linspace(0, 60, 600001)
    for p in (0.5, 0.8, 1.5):
        val = 2.0 * simpson(np.cosh(y) ** (-2.0 / p), x=y)
        assert sech_moment(p) == pytest.approx(val, rel=1e-9)


def _second_derivative_1d(g, r):
    """psi'' of the 1d closed form psi = A sech(kappa r)^(1/p), by hand."""
    q = 1.0 / g.p
    kappa = g.p * np.sqrt(g.multiplier)
    s = 1.0 / np.cosh(kappa * r)
    return g.amplitude * q * kappa**2 * s**q * (q - (q + 1.0) * s * s)


@pytest.mark.parametrize("p", [0.5, 0.75, 1.0, 1.5])
def test_1d_satisfies_equation_and_mass(p):
    g = solve_ground_state(1, p)
    r = np.linspace(0.0, 80.0, 4001)
    psi = g(r)
    residual = (
        -_second_derivative_1d(g, r) + g.multiplier * psi - psi ** (2.0 * p + 1.0)
    )
    assert np.max(np.abs(residual)) < 1e-14
    L = 40.0 / g.decay_rate
    x = np.linspace(-L, L, 400001)
    assert simpson(g(x) ** 2, x=x) == pytest.approx(1.0, rel=1e-10)


def test_2d_multiplier_matches_shooting(profile_2d):
    assert profile_2d.multiplier == pytest.approx(3.225476364557e-02, rel=5e-6)
    # amplitude psi(0) = m^(1/(2p)) u(0) from the same shooting run
    assert profile_2d.amplitude == pytest.approx(
        3.225476364557e-02 * 2.391956403224, rel=5e-6
    )


def test_2d_p075_multiplier_matches_shooting():
    g = solve_ground_state(2, 0.75)
    assert g.multiplier == pytest.approx(1.784111251022e-04, rel=1e-6)


def test_2d_unit_mass_and_residual(profile_2d):
    r = np.linspace(0.0, profile_2d.r_max, 400001)
    mass = 2.0 * np.pi * simpson(profile_2d(r) ** 2 * r, x=r)
    assert mass == pytest.approx(1.0, rel=1e-9)
    assert profile_2d.el_residual < 1e-8


def test_2d_pohozaev_identity(profile_2d):
    # for -lap psi + m psi = psi^(2p+1) in 2d with unit mass:
    # int psi^(2p+2) dx = (p+1) m
    p, m = profile_2d.p, profile_2d.multiplier
    r = np.linspace(0.0, profile_2d.r_max, 400001)
    q = 2.0 * np.pi * simpson(profile_2d(r) ** (2.0 * p + 2.0) * r, x=r)
    assert q == pytest.approx((p + 1.0) * m, rel=1e-5)


def test_2d_profile_shape(profile_2d):
    r = np.linspace(0.0, 40.0, 400)
    psi = profile_2d(r)
    assert np.all(psi > 0.0)
    assert np.all(np.diff(psi) < 0.0)
    assert profile_2d(np.array([profile_2d.r_max + 5.0]))[0] == 0.0
    # exponential decay at the pinned rate, up to the slow radial prefactor
    ratio = profile_2d(np.array([30.0]))[0] / profile_2d(np.array([20.0]))[0]
    expected = np.exp(-10.0 * profile_2d.decay_rate) * np.sqrt(20.0 / 30.0)
    assert ratio == pytest.approx(expected, rel=0.05)


def test_exponent_guards():
    with pytest.raises(GuardError):
        check_exponent(1, 0.4)
    with pytest.raises(GuardError):
        check_exponent(1, 2.0)
    with pytest.raises(GuardError):
        check_exponent(2, 1.0)
    check_exponent(2, 0.5)


@pytest.mark.parametrize("n, p", [(1, 1.0), (2, 0.5)])
@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, 0.0])
def test_ground_state_refuses_a_tolerance_that_is_not_finite_and_positive(n, p, tol):
    # tol = -1 ran all 50 bordered Newton steps of the 2d solve and then
    # raised ConvergenceError; the 1d closed form takes no tolerance, but
    # is held to the same rule
    with pytest.raises(GuardError, match="tol must be finite and positive"):
        solve_ground_state(n, p, tol=tol)


def test_check_parameters_bounds():
    # 1/2 <= p < 2/n, 0 < a < 1/2 and 0 < mu < inf; with m, 0 < m mu^2 < 1/2
    check_parameters(1, 1.0, 0.25, 0.3)
    check_parameters(2, 0.5, 0.25, 0.3, multiplier=1.0)
    for args in ((1, 2.0, 0.25, 0.3), (1, 1.0, 0.5, 0.3), (1, 1.0, 0.0, 0.3),
                 (1, 1.0, 0.25, 0.0), (1, 1.0, 0.25, np.inf), (1, 1.0, 0.25, np.nan),
                 (1, 1.0, 0.25, 0.3, 0.0), (1, 1.0, 0.25, 0.3, -1.0),
                 (1, 1.0, 0.25, 0.3, 0.5 / 0.09 + 1e-9), (1, 1.0, 0.25, 0.3, np.inf),
                 (1, 1.0, 0.25, 0.3, np.nan)):
        with pytest.raises(GuardError):
            check_parameters(*args)


def test_sample_reference_coupling_rescale():
    g = solve_ground_state(1, 1.0)
    grid = GridSpec(n=1, K=40, mu=0.25)
    a = 0.4
    psi = mirror_block(sample_reference(g, grid, coupling=a), grid)
    x = grid.position_axes()[0]
    assert np.allclose(psi, g(np.abs(x) / np.sqrt(a)), rtol=1e-15)
    assert asymmetry(psi) == 0.0
    with pytest.raises(GuardError):
        sample_reference(g, grid, coupling=-1.0)
    with pytest.raises(GuardError):
        sample_reference(g, GridSpec(n=2, K=4, mu=0.25))


def test_sample_reference_offset_grid():
    g = solve_ground_state(1, 1.0)
    grid = GridSpec(n=1, K=40, mu=0.25, offsets=(0.5,))
    psi = mirror_block(sample_reference(g, grid), grid)
    assert asymmetry(psi) == 0.0
    assert np.max(psi) == pytest.approx(g(np.array([0.125]))[0], rel=1e-15)


@pytest.mark.parametrize(
    ("n", "mode"), [(n, mode) for n in (1, 2) for mode in BREATHER_MODES[n]]
)
def test_block_reference_mirrors_to_the_box_sample(n, mode):
    """The reference is sampled on the fundamental block only, and its
    mirror image is the profile sampled at every box site, bit for bit:
    the 1d closed form and the 2d spline evaluate each radius alone, and
    a site and its mirror images share one radius."""
    p, K = (1.0, 60) if n == 1 else (0.5, 40)
    profile = solve_ground_state(n, p)
    grid = GridSpec(n=n, K=K, mu=0.3, offsets=BREATHER_MODES[n][mode])
    block = sample_reference(profile, grid, coupling=0.35)
    assert block.shape == (K + 1,) * n
    box = profile(grid.radius_mesh(scale=np.sqrt(0.35)))
    assert box[block_slices(grid)].tobytes() == block.tobytes()
    assert mirror_block(block, grid).tobytes() == box.tobytes()


def test_sampled_profile_solves_lattice_equation_to_mu2():
    # stencil consistency: -(a/mu^2) lap phi + m phi - phi^(2p+1) = O(mu^2)
    from references import padded_laplacian

    g = solve_ground_state(1, 1.0)
    a = 0.4
    errs = []
    for mu in (0.2, 0.1, 0.05):
        grid = GridSpec.for_radius(1, mu=mu, r_min=60.0)
        phi = mirror_block(sample_reference(g, grid, coupling=a), grid)
        res = (
            -(a / mu**2) * padded_laplacian(phi)
            + g.multiplier * phi
            - np.abs(phi) ** (2.0 * g.p) * phi
        )
        errs.append(np.max(np.abs(res)))
    rate = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(errs), 1)[0]
    assert rate == pytest.approx(2.0, abs=0.1)


def test_save_profile_roundtrip(tmp_path):
    import json

    g = solve_ground_state(1, 1.0)
    path = tmp_path / "profile.csv"
    save_profile(path, g)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "radius,value"
    assert len(lines) == 2001
    r0, v0 = (float(tok) for tok in lines[1].split(","))
    assert r0 == 0.0
    assert v0 == g.amplitude
    meta = json.loads((tmp_path / "profile.csv.json").read_text())
    assert meta["n"] == 1 and meta["p"] == 1.0
    assert meta["multiplier"] == g.multiplier
    assert "unit mass" in meta["normalization"]


def _counting_solves(monkeypatch):
    """Record the diagonal of every tridiagonal solve groundstate makes."""
    diagonals = []
    real = groundstate.dgtsv

    def dgtsv(lower, diag, upper, rhs):
        diagonals.append(np.array(diag))
        return real(lower, diag, upper, rhs)

    monkeypatch.setattr(groundstate, "dgtsv", dgtsv)
    return diagonals


def _petviashvili_residual(p, u, h=0.01):
    """max |-lap u + u - u^(2p+1)| on the Petviashvili grid, the radial
    bands assembled as a sparse matrix."""
    lower, diag, upper = groundstate._radial_laplacian_2d(u.size, h)
    lap = sparse.diags([lower, diag, upper], offsets=[-1, 0, 1])
    return float(np.max(np.abs(lap @ u + u - u ** (2.0 * p + 1.0))))


@pytest.mark.parametrize("p", [0.5, 0.75])
def test_polish_stops_at_the_roundoff_floor(monkeypatch, p):
    # Petviashvili already lands at the floor of A u (entries 4/h^2 = 4e4):
    # every step solves its own matrix A, and it needs no Newton polish
    diagonals = _counting_solves(monkeypatch)
    r, u = groundstate._petviashvili(p, extent=60.0, h=0.01)
    assert diagonals and all(d.tobytes() == diagonals[0].tobytes() for d in diagonals)
    assert diagonals[0].size == u.size == 6000
    assert _petviashvili_residual(p, u) <= 1e-10  # the floor: eps * 8e4 * 2.4


def test_polish_that_stalls_above_the_floor_raises(monkeypatch):
    # stopped early, Petviashvili leaves a residual far above the floor
    monkeypatch.setattr(groundstate, "_PETVIASHVILI_TOL", 1e-4)
    with pytest.raises(ConvergenceError, match="stalled at"):
        groundstate._petviashvili(0.5, extent=60.0, h=0.01)
