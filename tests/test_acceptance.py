"""Acceptance gate: each headline requirement as one test with pinned
tolerances and a visible PASS/FAIL line (printed past pytest's capture).

The heavy objects (two mu = 0.1 breathers, the 1D and 2D continuation
sweeps) are session fixtures shared across criteria.  On a 2-core Xeon
the whole tier-1 suite takes 71-86 s, and the 2D sweep fixture about
52 s of that.

One-sided slope checks: the theory bounds the error norms from above
(|q - Psi| <= C mu^s), so a log-log slope against mu is promised only to
be at least the theory exponent s, never at most.  The slopes of e_h2,
e_sup and the kernel-vs-dNLS distance in 1D (s = 1.5 / 2.0 / 1.5), the 2D
e_h2 slope (s = 2.0), the dNLS-vs-continuum distance and the FEM
remainder are therefore checked as "slope >= lo" with lo a little under
s.  The measured rates are faster (2.5 / 3.0 / 2.0 in 1D, 3.0 in 2D)
because sampling a smooth profile with the centered-difference Laplacian
is second-order accurate; the sharp 1D rates are pinned two-sided in
tests/test_breather.py::test_scaling_slopes_match_frozen_rates, and the
seven 2D rates in test_5_2d_slopes_match_frozen_rates below.  The
higher-harmonic norm w (4c) keeps a two-sided band around 2.5, since that
rate is the formal order of w, not a bound.
"""
import numpy as np
import pytest

from kgbreather.breather import (
    PipelineConfig,
    assemble_breather,
    kg_residual,
    reference_coefficients,
    scaling_study,
)
from kgbreather.dynamics import integrate_period
from kgbreather.feminterp import functional_remainder
from kgbreather.groundstate import sample_reference, solve_ground_state
from kgbreather.kernelsolver import (
    DnlsProblem,
    hessian_diagnostics,
    solve_dnls_ground_state,
)
from kgbreather.lattice import GridSpec, mirror_block
from kgbreather.timespectral import cos_moment, odd_collocation
from references import embedding_checks, gradient_identity_gap, norm_q, symmetrize

M_CUBIC = 1.0 / 16.0


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# shared heavy objects


@pytest.fixture(scope="session")
def breather_st():
    cfg = PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.1)
    return assemble_breather(cfg)


@pytest.fixture(scope="session")
def breather_pg():
    cfg = PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.1, mode="p")
    return assemble_breather(cfg)


@pytest.fixture(scope="session")
def sweep_1d():
    return scaling_study(
        [0.20, 0.15, 0.10, 0.075, 0.05], n=1, p=1.0, coupling=0.25
    )


@pytest.fixture(scope="session")
def sweep_2d():
    # residual_target widens the harmonic window until the truncated
    # nonlinearity tail sits below the pointwise residual requirement
    return scaling_study(
        [0.30, 0.25, 0.20, 0.15],
        n=2,
        p=0.5,
        coupling=0.25,
        mode="h1",
        r_min=60.0,
        residual_target=8e-10,
    )


# ---------------------------------------------------------------------------
# 1. exact identities at machine tolerance


def test_1_fem_gradient_identity(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        grid = GridSpec(
            n=1,
            K=int(rng.integers(3, 30)),
            mu=float(rng.uniform(0.05, 0.5)),
            offsets=(0.5 if rng.integers(2) else 0.0,),
        )
        values = symmetrize(rng.standard_normal(grid.shape))
        worst = max(worst, gradient_identity_gap(values, grid))
    for _ in range(20):
        grid = GridSpec(
            n=2,
            K=int(rng.integers(3, 12)),
            mu=float(rng.uniform(0.05, 0.5)),
            offsets=tuple(0.5 if rng.integers(2) else 0.0 for _ in range(2)),
        )
        values = symmetrize(rng.standard_normal(grid.shape))
        worst = max(worst, gradient_identity_gap(values, grid))
    ok = _verdict(capsys, "1 gradient identity", worst < 1e-12,
                  f"worst relative gap {worst:.2e}, bound 1e-12")
    assert ok


def test_1_hessian_identity_at_solution(capsys):
    grid = GridSpec.for_radius(1, mu=0.2, r_min=40.0)
    prob = DnlsProblem(grid=grid, p=1.0, mu=0.2, coupling=0.25, multiplier=M_CUBIC)
    phi0 = sample_reference(solve_ground_state(1, 1.0), grid, coupling=0.25)
    phi, _ = solve_dnls_ground_state(prob, phi0, tol=1e-13)
    residual = float(np.max(np.abs(prob.apply_g0(phi))))
    assert residual < 1e-12  # precondition for the exact identity
    hd = hessian_diagnostics(phi, prob)
    rel = abs(hd.curvature_along_solution - hd.predicted_curvature) / abs(
        hd.predicted_curvature
    )
    ok = _verdict(capsys, "1 hessian identity", rel < 1e-8,
                  f"relative gap {rel:.2e} at residual {residual:.1e}, bound 1e-8")
    assert ok


def test_1_projectors_and_cosine_algebra(capsys, breather_st):
    # the assembled breather splits exactly: harmonic 1 is the kernel
    # profile, bit for bit, and the range stack has no harmonic 1
    b = breather_st
    kernel_part = b.mu ** (1.0 / b.p) * mirror_block(b.phi, b.grid)
    split_gap = float(np.max(np.abs(b.coeffs[1] - kernel_part)))
    split_ok = (
        b.coeffs[1].tobytes() == kernel_part.tobytes() and not np.any(b.w[0])
    )

    # cos^3 = (3/4) cos + (1/4) cos 3, through the pipeline's collocation
    unit = np.zeros((3, 1))  # odd rows: harmonics 1, 3, 5
    unit[0] = 1.0
    ((_, c),) = odd_collocation((unit,), 64, lambda v: v**3, analysis=True)
    # row j of c holds harmonic 2j + 1
    cos3_gap = max(
        abs(c[0, 0] - 0.75), abs(c[1, 0] - 0.25), float(np.max(np.abs(c[2:])))
    )

    t = np.linspace(0.0, 2.0 * np.pi, 4097)
    quadrature = np.trapezoid(np.cos(t) ** 4, t)
    c1_gap = max(
        abs(cos_moment(1.0) - 0.75 * np.pi), abs(cos_moment(1.0) - quadrature)
    )

    ok = split_ok and cos3_gap < 1e-13 and c1_gap < 1e-12
    ok = _verdict(
        capsys, "1 projectors + cosine algebra", ok,
        f"split {split_gap:.1e}, cos^3 {cos3_gap:.2e} (<1e-13), "
        f"c1(1) {c1_gap:.2e} (<1e-12)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. inequality suites


def test_2_discrete_sobolev_bound(capsys):
    rng = np.random.default_rng(23)
    worst = 0.0
    for n in (1, 2):
        for mu in (0.05, 0.1, 0.2):
            for _ in range(1000):
                K = int(rng.integers(3, 30 if n == 1 else 10))
                grid = GridSpec(n=n, K=K, mu=mu)
                a = rng.standard_normal(grid.shape)
                ratio = float(np.max(np.abs(a))) / (
                    2.0 * np.sqrt(mu) * mu ** (n / 2.0) * norm_q(a, mu)
                )
                worst = max(worst, ratio)
    ok = _verdict(capsys, "2 sobolev bound", worst <= 1.0,
                  f"worst |a|_sup / (2 sqrt(mu) |a|_Q) = {worst:.4f}, 6000 draws")
    assert ok


def test_2_sequence_embeddings(capsys):
    rng = np.random.default_rng(29)
    # q = 4, 2p+2, 4p+2 over the admissible p range, plus the sup norm
    qs = sorted({4.0, 3.0, 5.0, 6.0, 8.0})
    checked = 0
    for _ in range(300):
        n = 1 if rng.integers(2) else 2
        grid = GridSpec(n=n, K=int(rng.integers(2, 12)), mu=0.1)
        a = rng.standard_normal(grid.shape)
        for q in qs:
            assert embedding_checks(a, q)
            checked += 1
    ok = _verdict(capsys, "2 embeddings", True,
                  f"{checked} l^q<=l^2 and sup<=l^2 checks, q in {qs}")
    assert ok


def test_2_hessian_signs(capsys):
    details = []
    ground = solve_ground_state(1, 1.0)
    for mu in (0.1, 0.2):
        grid = GridSpec.for_radius(1, mu=mu, r_min=40.0)
        prob = DnlsProblem(
            grid=grid, p=1.0, mu=mu, coupling=0.25, multiplier=M_CUBIC
        )
        phi0 = sample_reference(ground, grid, coupling=0.25)
        phi, _ = solve_dnls_ground_state(prob, phi0)
        hd = hessian_diagnostics(phi, prob)
        assert hd.curvature_along_solution < 0.0
        assert hd.tangent_min_eigenvalue > 0.0
        details.append(
            f"mu={mu}: d={hd.curvature_along_solution:.3e}, "
            f"tangent min {hd.tangent_min_eigenvalue:.3e}"
        )
    ok = _verdict(capsys, "2 hessian signs", True, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 3. breather construction, both 1D centerings


def _construction_checks(b):
    residual = kg_residual(b)
    energy = np.sum(b.coeffs**2, axis=tuple(range(1, b.coeffs.ndim)))
    harmonic_fraction = float(energy[1] / np.sum(energy))
    return residual, harmonic_fraction, b.symmetry_error()


def test_3_construction_site_centered(capsys, breather_st):
    residual, fraction, symmetry = _construction_checks(breather_st)
    ok = residual < 1e-10 and fraction > 0.999 and symmetry < 1e-13
    ok = _verdict(
        capsys, "3 construction (site)", ok,
        f"residual {residual:.2e} (<1e-10), harmonic-1 fraction "
        f"{fraction:.6f} (>0.999), symmetry {symmetry:.2e} (<1e-13)",
    )
    assert ok


def test_3_construction_bond_centered(capsys, breather_pg):
    residual, fraction, symmetry = _construction_checks(breather_pg)
    ok = residual < 1e-10 and fraction > 0.999 and symmetry < 1e-13
    ok = _verdict(
        capsys, "3 construction (bond)", ok,
        f"residual {residual:.2e} (<1e-10), harmonic-1 fraction "
        f"{fraction:.6f} (>0.999), symmetry {symmetry:.2e} (<1e-13)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. 1D exponent reproduction


def _slope_in_band(capsys, table, column, lo, hi, label):
    fit = table.slope(column)
    ok = lo <= fit.slope <= hi
    _verdict(capsys, label, ok,
             f"measured {fit.slope:.4f} +- {fit.stderr:.4f}, band [{lo}, {hi}]")
    assert ok, f"slope({column}) = {fit.slope:.4f} outside band [{lo}, {hi}]"


def _slope_at_least(capsys, table, column, lo, label):
    """The theory bounds the error by C mu^s, so only slope >= lo is promised."""
    fit = table.slope(column)
    ok = fit.slope >= lo
    _verdict(capsys, label, ok,
             f"measured {fit.slope:.4f} +- {fit.stderr:.4f}, need >= {lo}")
    assert ok, (
        f"slope({column}) = {fit.slope:.4f} below {lo}: the error decays "
        "slower than the first-order upper bound allows"
    )


def test_4a_slope_e_h2(capsys, sweep_1d):
    _slope_at_least(capsys, sweep_1d, "e_h2", 1.25, "4a slope(e_h2)")


def test_4b_slope_e_sup(capsys, sweep_1d):
    _slope_at_least(capsys, sweep_1d, "e_sup", 1.7, "4b slope(e_sup)")


def test_4c_slope_range_norm(capsys, sweep_1d):
    _slope_in_band(capsys, sweep_1d, "w_x2", 2.2, 2.8, "4c slope(w_x2)")


def test_4d_slope_dnls_vs_continuum(capsys, sweep_1d):
    fit = sweep_1d.slope("dist_dnls_ref")
    ok = _verdict(capsys, "4d slope(Phi - psi)", fit.slope >= 0.75,
                  f"measured {fit.slope:.4f} +- {fit.stderr:.4f}, need >= 0.75")
    assert ok


def test_4e_slope_kernel_vs_dnls(capsys, sweep_1d):
    _slope_at_least(
        capsys, sweep_1d, "dist_phi_dnls", 1.15, "4e slope(phi - Phi)"
    )


def test_4_sweep_completed(capsys, sweep_1d):
    ok = _verdict(capsys, "4 sweep health", not sweep_1d.failures,
                  f"{len(sweep_1d.rows)} mu points, failures: {sweep_1d.failures}")
    assert ok and len(sweep_1d.rows) == 5


# ---------------------------------------------------------------------------
# 5. 2D smoke + slope


def test_5_2d_residuals(capsys, sweep_2d):
    residuals = sweep_2d.column("kg_residual")
    worst = float(np.max(residuals))
    ok = _verdict(
        capsys, "5 2d residuals", not sweep_2d.failures and worst < 1e-9,
        f"{len(sweep_2d.rows)} mu points, worst residual {worst:.2e} (<1e-9)",
    )
    assert ok and len(sweep_2d.rows) == 4


def test_5_2d_slope_e_h2(capsys, sweep_2d):
    _slope_at_least(capsys, sweep_2d, "e_h2", 1.6, "5 2d slope(e_h2)")


def test_5_2d_slopes_match_frozen_rates(sweep_2d):
    """Measured, not proved: the 2D rates of the sweep, frozen from
    well-resolved runs (e_h2 3.0030, e_sup 4.0003, w_x2 3.0028, tail
    2.0034, phi - Phi 1.9988, Phi - psi 2.0043, remainder 2.0034), with
    the tolerances of the 1D pin.  The theory promises only the one-sided
    bounds above; this catches a change that slows any rate."""
    tab = sweep_2d
    assert not tab.failures
    assert tab.slope("e_h2").slope == pytest.approx(3.0, abs=0.15)
    assert tab.slope("e_sup").slope == pytest.approx(4.0, abs=0.2)
    assert tab.slope("w_x2").slope == pytest.approx(3.0, abs=0.15)
    assert tab.slope("tail_fraction").slope == pytest.approx(2.0, abs=0.15)
    assert tab.slope("dist_phi_dnls").slope == pytest.approx(2.0, abs=0.15)
    assert tab.slope("dist_dnls_ref").slope == pytest.approx(2.0, abs=0.15)
    assert tab.slope("remainder_norm_mu").slope == pytest.approx(2.0, abs=0.15)


# ---------------------------------------------------------------------------
# 6. dynamical validation by direct integration


def test_6_leapfrog_validation(capsys, breather_st):
    rep = integrate_period(breather_st, steps_per_period=100_000)
    seeded = integrate_period(
        breather_st,
        steps_per_period=100_000,
        initial_coeffs=reference_coefficients(breather_st),
    )
    ok = (
        rep.return_error < 1e-6
        and rep.energy_drift < 1e-8
        and seeded.return_error > rep.return_error
    )
    ok = _verdict(
        capsys, "6 leapfrog", ok,
        f"return {rep.return_error:.2e} (<1e-6), drift {rep.energy_drift:.2e} "
        f"(<1e-8), continuum-seeded return {seeded.return_error:.2e} (larger)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. FEM remainder sweep


def test_7_fem_remainder_slopes(capsys):
    cases = {
        1: (1.0, [0.2, 0.15, 0.1, 0.075, 0.05], 45.0),
        2: (0.5, [0.4, 0.3, 0.2, 0.15], 20.0),
    }
    slopes = {}
    for n, (p, mus, r_min) in cases.items():
        profile = solve_ground_state(n, p)
        remainders = []
        for mu in mus:
            grid = GridSpec.for_radius(n, mu=mu, r_min=r_min)
            psi = mirror_block(sample_reference(profile, grid), grid)
            _, _, r_g = functional_remainder(psi, grid, q=2.0 * p)
            remainders.append(abs(r_g))
        slopes[n] = float(np.polyfit(np.log(mus), np.log(remainders), 1)[0])
    ok = all(s >= 0.75 for s in slopes.values())
    ok = _verdict(
        capsys, "7 fem remainder", ok,
        f"slope(|R_G|) 1D {slopes[1]:.4f}, 2D {slopes[2]:.4f}, need >= 0.75",
    )
    assert ok
