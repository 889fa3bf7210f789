"""Range operator inversion and the Picard solve of the range equation."""

import tracemalloc

import numpy as np
import pytest
from scipy.fft import dstn, idstn
from scipy.linalg.lapack import dptsv

import kgbreather.breather as breather
import kgbreather.rangesolver as rangesolver
from kgbreather.errors import ConvergenceError, GuardError, ResonanceError
from kgbreather.groundstate import sample_reference, solve_ground_state
from kgbreather.kernelsolver import DnlsProblem, kernel_remainder
from kgbreather.lattice import (
    GridSpec,
    block_slices,
    mirror_block,
    orbit_sizes,
)
from kgbreather.rangesolver import EvenSector, solve_range_equation
from kgbreather.timespectral import (
    apply_nonlinearity,
    default_node_count,
    first_harmonic,
    nonlinearity_coefficient,
    sobolev_time_norm,
)
from references import basis_range_solve, elementwise_even_basis, padded_laplacian

M_CUBIC = 1.0 / 16.0  # unit-mass 1d ground state multiplier at p = 1


def omega_sq(mu, m=M_CUBIC):
    return 1.0 - m * mu**2


def block_shape(grid):
    return (grid.K + 1,) * grid.n


L_CUBIC = 6  # harmonic window of the cubic_setup solves


def problem(grid, a, m=M_CUBIC, p=None):
    """The kernel problem of coupling a and multiplier m on ``grid``, at
    p = 1/n unless given (admissible in both dimensions)."""
    return DnlsProblem(grid=grid, p=1.0 / grid.n if p is None else p, coupling=a,
                       multiplier=m)


def operator(grid, w2, a):
    """The range operator at omega^2 = w2 (up to the rounding of
    m = (1 - w2)/mu^2) and coupling a, built from its problem."""
    return problem(grid, a, m=(1.0 - w2) / grid.mu**2).range_operator


def cubic_setup(mu, K=40, a=0.4):
    """Grid, the sampled ground state on its fundamental block, problem."""
    grid = GridSpec(n=1, K=K, mu=mu)
    profile = solve_ground_state(1, 1.0)
    phi = sample_reference(profile, grid, coupling=a)
    return grid, phi, problem(grid, a)


def _forward(op, w):
    """Reference forward operator on odd-row block stacks (row j harmonic
    2j+1): mirror onto the box, apply (1 - omega^2 l^2) - a lap there,
    restrict."""
    grid = op.sector.grid
    full = mirror_block(w, grid)
    l = 2.0 * np.arange(full.shape[0]) + 1.0
    out = -op.coupling * padded_laplacian(full, axes=tuple(range(1, grid.n + 1)))
    out += (1.0 - op.omega_sq * l * l).reshape((-1,) + (1,) * grid.n) * full
    return out[(slice(None),) + block_slices(grid)]


def _box_spectrum(grid, odd_only=False):
    """Dirichlet eigenvalues of minus the box Laplacian, s over the DST-I
    modes k = 1..N per axis (only the odd, reflection-even k if asked)."""
    s = 0.0
    for ax in range(grid.n):
        N = grid.axis_length(ax)
        k = np.arange(1, N + 1, 2 if odd_only else 1)
        s = np.add.outer(s, 2.0 - 2.0 * np.cos(np.pi * k / (N + 1)))
    return s


def _dst_inverse(op, coeffs):
    """Reference inverse on odd-row whole-box stacks: one DST-I pair per
    harmonic l = 2j+1 >= 3, with the symbol over the whole box spectrum."""
    out = np.zeros_like(coeffs)
    axes = tuple(range(op.sector.grid.n))
    s = _box_spectrum(op.sector.grid)
    for j in range(1, coeffs.shape[0]):
        l = 2 * j + 1
        symbol = (1.0 - op.omega_sq * l * l) + op.coupling * s
        hat = dstn(coeffs[j], type=1, norm="ortho", axes=axes)
        out[j] = idstn(hat / symbol, type=1, norm="ortho", axes=axes)
    return out


CENTERINGS = [
    (1, (0.0,)),
    (1, (0.5,)),
    (2, (0.0, 0.0)),
    (2, (0.0, 0.5)),
    (2, (0.5, 0.0)),
    (2, (0.5, 0.5)),
]


# --- operator --------------------------------------------------------------


def test_forward_inverse_identity_1d():
    grid = GridSpec(n=1, K=12, mu=0.3)
    op = problem(grid, 0.4).range_operator
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3,) + block_shape(grid))  # harmonics 1, 3, 5
    x[0] = 0.0
    assert np.allclose(op.solve(_forward(op, x)), x, atol=1e-12)
    assert np.allclose(_forward(op, op.solve(x)), x, atol=1e-12)


def test_forward_inverse_identity_2d():
    grid = GridSpec(n=2, K=6, mu=0.3, offsets=(0.5, 0.0))
    op = problem(grid, 0.25, m=0.0323).range_operator
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2,) + block_shape(grid))  # harmonics 1, 3
    x[0] = 0.0
    assert np.allclose(op.solve(_forward(op, x)), x, atol=1e-12)


@pytest.mark.parametrize("n, offsets", CENTERINGS)
def test_block_inverse_matches_dst_reference(n, offsets):
    # the even-sector basis on the block against the whole-box DST-I pair,
    # for a reflection-even stack with every odd row (l = 1 too) populated
    grid = GridSpec(n=n, K=17, mu=0.3, offsets=offsets)
    op = problem(grid, 0.25, m=0.03).range_operator
    rng = np.random.default_rng(n)
    x = rng.standard_normal((4,) + block_shape(grid))
    ref = _dst_inverse(op, mirror_block(x, grid))[(slice(None),) + block_slices(grid)]
    got = op.solve(x)
    assert np.all(got[0] == 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# K + 1 = 301, 601 and 1,201 leave a partial last block of 2^16-index rows
@pytest.mark.parametrize("K", [2, 3, 17, 150, 300, 600, 1200])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_even_basis_table_is_the_elementwise_formula(K, offset):
    N = 2 * K + 1 if offset == 0.0 else 2 * K + 2
    V = rangesolver._even_basis(N, K, offset)
    assert V.dtype == np.float64 and V.shape == (K + 1, K + 1)
    assert V.tobytes() == elementwise_even_basis(N, K, offset).tobytes()


# every K with a narrow and a working window; the 819- and 2,589-row
# windows are those of the 1d p = 1/2 residual-target runs (L = 1,637 and
# 5,176), stacked into one band system of up to 391k unknowns
@pytest.mark.parametrize("K, rows", [
    (K, rows) for K in (2, 3, 17, 150, 600, 2500) for rows in (2, 8)
] + [(17, 819), (150, 819), (17, 2589), (150, 2589)])
@pytest.mark.parametrize("offset", [0.0, 0.5])
@pytest.mark.parametrize("w2, a", [(omega_sq(0.3), 0.4), (0.51, 0.49)],
                         ids=["nominal", "guard-corner"])
def test_1d_tridiagonal_inverse_matches_the_basis_inverse(K, rows, offset, w2, a):
    # the LDL^T solve of -L_l against the dense even-sector basis that 1d
    # inverted through before, also at the guard corner omega^2 -> 1/2,
    # a -> 1/2 where -L_3 is least definite
    grid = GridSpec(n=1, K=K, mu=0.3, offsets=(offset,))
    op = operator(grid, w2, a)
    x = np.random.default_rng(K + rows).standard_normal((rows, K + 1))
    ref = basis_range_solve(op, x)
    got = op.solve(x)
    assert np.all(got[0] == 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_1d_operator_and_solve_are_linear_in_memory():
    # K = 4,000: a (K+1)^2 basis alone would be 128 MB; the band solve of
    # 8 rows holds a few copies of the 256 kB stack
    grid = GridSpec(n=1, K=4000, mu=0.01)
    x = np.random.default_rng(0).standard_normal((8, grid.K + 1))
    tracemalloc.start()
    try:
        op = problem(grid, 0.25).range_operator
        op.solve(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _dptsv_solve(sector, x, c, d):
    """Reference 1d inverse: one dptsv call on the bands of c (-lap) + d_j,
    the rows joined by zeros."""
    diag, off = sector.bands
    dd = np.asarray(d, dtype=np.float64)[:, None] + c * diag
    e = np.tile(np.append(c * off, 0.0), len(dd))[:-1]
    *_, y, info = dptsv(dd.ravel(), e, np.ravel(x))
    assert info == 0
    return y.reshape(dd.shape)


@pytest.mark.parametrize("rows", [1, 2, 8, 152])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_factored_1d_solve_is_one_dptsv_call(rows, offset):
    # dpttrf once per (c, d), then dpttrs: the two calls dptsv makes, so
    # its bits, for the range shifts omega^2 l^2 - 1 at c = -a and the
    # preconditioner's m at c = a / mu^2; a pair asked for again is solved
    # from its kept factors, and past _FACTORS_KEPT pairs the oldest are
    # dropped and factored anew when asked for again
    mu, a = 0.3, 0.25
    grid = GridSpec(n=1, K=150, mu=mu, offsets=(offset,))
    sector = EvenSector(grid)
    l = 2.0 * np.arange(1, rows + 1) + 1.0
    pairs = [(-a, omega_sq(mu) * l * l - 1.0), (a / mu**2, np.full(rows, M_CUBIC))]
    rng = np.random.default_rng(rows)
    shifted = [(-a, d + k) for k in (1.0, 2.0, 3.0) for _, d in pairs]
    for c, d in pairs + pairs[::-1] + shifted + pairs:
        x = rng.standard_normal((rows, grid.K + 1))
        assert sector.solve(x, c, d).tobytes() == _dptsv_solve(sector, x, c, d).tobytes()
    assert len(sector._factors) == rangesolver._FACTORS_KEPT


def test_indefinite_1d_operator_is_a_guard_error():
    # unreachable inside the problem's window (-L_l >= 3/2 there): force
    # omega^2 below it, so that 9 omega^2 - 1 < 0 and the LDL^T of -L_3
    # meets a negative pivot, every time: a failed factorization is not kept
    op = operator(GridSpec(n=1, K=6, mu=0.3), 0.9, 0.25)
    op.omega_sq = 0.1
    for _ in range(2):
        with pytest.raises(GuardError, match="not definite"):
            op.solve(np.ones((2, 7)))
    assert not op.sector._factors


def test_solve_discards_bifurcating_harmonic():
    grid = GridSpec(n=1, K=5, mu=0.3)
    op = problem(grid, 0.4).range_operator
    x = np.ones((2,) + block_shape(grid))  # harmonics 1 and 3
    out = op.solve(x)
    assert np.all(out[0] == 0.0)
    assert np.all(out[1] != 0.0)


def test_resonance_detection():
    # in 1d |1 - 9 omega^2 + a s| > 3/2 inside the window, so only a 2d box
    # can resonate.  K = 10 (N = 21): the stiffest even-sector mode is
    # k = 21 on both axes, s_max = 2 (2 - 2 cos(21 pi/22)); picking
    # omega^2 = (1 + a s_max)/9 = 0.5455 puts the l = 3 symbol on zero
    # there (to the rounding of m) while keeping 1/2 < omega^2 < 1
    grid = GridSpec(n=2, K=10, mu=0.3)
    a = 0.49
    w2 = (1.0 + 2.0 * a * (2.0 - 2.0 * np.cos(21.0 * np.pi / 22.0))) / 9.0
    with pytest.raises(ResonanceError) as err:
        operator(grid, w2, a)
    assert err.value.harmonic == 3
    assert err.value.magnitude < 1e-12


def test_operator_guards_and_margins():
    # the operator is built from a problem, and the problem holds the
    # window 1/2 < omega^2 < 1 (0 < m mu^2 < 1/2) and 0 < a < 1/2: an
    # omega^2 in [1, 3/2), which the operator once took, is refused too
    grid = GridSpec(n=1, K=2, mu=0.3)
    for w2, a in ((1.6, 0.3), (0.4, 0.3), (1.2, 0.3), (1.0, 0.3), (0.9, -0.1),
                  (0.9, 0.6)):
        with pytest.raises(GuardError):
            operator(grid, w2, a)
    # K = 2 (N = 5): the even-sector modes k = 1, 3, 5 have s = 2 - sqrt3,
    # 2, 2 + sqrt3, and the stiffest one is also the whole box's
    op = operator(grid, 0.99, 0.2)
    assert op.neumann_margin == pytest.approx(1.0 - 0.2 * (2.0 + np.sqrt(3.0)))
    # the tightest symbol is l = 3 at the stiffest even mode:
    # |1 - 9 * 0.99 + 0.2 (2 + sqrt3)|, closer to zero than any |l = 5| value
    assert op.spectral_margin == pytest.approx(7.91 - 0.2 * (2.0 + np.sqrt(3.0)))


@pytest.mark.parametrize("n, offsets", CENTERINGS)
def test_margins_read_the_odd_harmonics_on_the_even_sector(n, offsets):
    # the margins against the whole-box DST-I spectrum restricted to the
    # reflection-even modes (odd k) and the range harmonics l = 3, 5, ..., 9
    grid = GridSpec(n=n, K=7, mu=0.3, offsets=offsets)
    w2, a = omega_sq(0.3, 0.03), 0.25
    op = problem(grid, a, m=0.03).range_operator
    s = _box_spectrum(grid, odd_only=True)
    margins = {l: np.min(np.abs((1.0 - w2 * l * l) + a * s)) for l in (3, 5, 7, 9)}
    assert op.spectral_margin == pytest.approx(min(margins.values()), rel=1e-14)
    assert min(margins, key=margins.get) == 3
    assert op.neumann_margin == pytest.approx(1.0 - a * np.max(s), rel=1e-14)
    # an offset-1/2 axis has an even number of sites, so its stiffest mode
    # k = N is odd in the reflection and the even sector stops below it
    s_box = _box_spectrum(grid)
    assert (np.max(s) < np.max(s_box)) == (0.5 in offsets)


# edges of the window in omega^2 and a, and values just past them
_OMEGA_SQ_EDGES = (0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0), 1.0)
_COUPLING_EDGES = (0.0, 1e-12, np.nextafter(0.5, 0.0), 0.5)


def test_the_third_harmonic_is_the_worst_range_harmonic():
    # the operator checks the symbol and takes spectral_margin at l = 3
    # alone: inside the problem's window every l >= 5 lies further from
    # zero.  Draws of omega^2 = 1 - m mu^2 over (1/2, 1) and of a run a
    # little past the window, where the problem must refuse, and up to its
    # edges; every operator built has the l = 3 margin as the minimum over
    # l = 3, 5, ..., L of the even-sector reference spectrum
    rng = np.random.default_rng(2009)
    built = 0
    for _ in range(3200):
        n, offsets = CENTERINGS[rng.integers(len(CENTERINGS))]
        grid = GridSpec(n=n, K=int(rng.integers(2, 25)), mu=0.3, offsets=offsets)
        w2 = (
            rng.choice(_OMEGA_SQ_EDGES) if rng.random() < 0.25
            else rng.uniform(0.475, 1.025)
        )
        a = (
            rng.choice(_COUPLING_EDGES) if rng.random() < 0.25
            else rng.uniform(-0.02, 0.52)
        )
        m = (1.0 - w2) / grid.mu**2
        if not (0.0 < m * grid.mu**2 < 0.5 and 0.0 < a < 0.5):
            with pytest.raises(GuardError):
                operator(grid, w2, a)
            continue
        op = operator(grid, w2, a)
        w2 = op.omega_sq
        s = _box_spectrum(grid, odd_only=True)
        l = np.arange(3, int(rng.integers(3, 60)) + 1, 2)
        margins = [np.min(np.abs((1.0 - w2 * k * k) + a * s)) for k in l]
        assert l[np.argmin(margins)] == 3
        assert op.spectral_margin == pytest.approx(margins[0], rel=1e-14)
        built += 1
    assert built >= 2000


def test_2d_neumann_margin_is_negative_but_solvable():
    # the naive series bound fails for a = 1/4 in 2d (a * s_max -> 2), yet
    # every symbol is still far from zero and direct inversion works
    grid = GridSpec(n=2, K=8, mu=0.3)
    op = problem(grid, 0.25, m=0.0323).range_operator
    assert op.neumann_margin < 0.0
    assert op.spectral_margin > 0.9


# --- leading-order response ------------------------------------------------


def test_decoupled_site_closed_form():
    # vanishing coupling decouples the sites; for p = 1 the third harmonic
    # of the response is mu^2 beta c^3 / (4 (1 - 9 omega^2))
    mu, c, a = 0.3, 0.8, 1e-12
    grid = GridSpec(n=1, K=2, mu=mu)
    op = problem(grid, a).range_operator
    beta = nonlinearity_coefficient(1.0)
    # first Picard iterate w0 = mu^2 Linv P_range N(phi cos tau), on the
    # fundamental block (whose index 0 is the center site), harmonics 1, 3, 5
    v = np.zeros((3,) + block_shape(grid))
    v[0, 0] = c
    g = apply_nonlinearity(v, 1.0, M=default_node_count(5))
    g[0] = 0.0
    w0 = mu**2 * op.solve(g)
    predicted = mu**2 * beta * c**3 / (4.0 * (1.0 - 9.0 * omega_sq(mu)))
    assert w0[1, 0] == pytest.approx(predicted, rel=1e-9)  # harmonic 3
    # nothing anywhere else: odd nonlinearity, decoupled lattice
    w0[1, 0] = 0.0
    assert np.max(np.abs(w0)) < 1e-9 * abs(predicted)


# --- the contraction solve -------------------------------------------------


def test_range_solution_is_fixed_point():
    mu = 0.3
    grid, phi, prob = cubic_setup(mu)
    w, report = solve_range_equation(phi, prob, L_max=L_CUBIC, tol=1e-13)
    assert report.converged
    v = np.zeros_like(w)
    v[0] = phi
    # 24 nodes, the count of the odd window 5 (the range solve takes 28)
    g = apply_nonlinearity(v + w, p=1.0, M=default_node_count(5))
    g[0] = 0.0
    again = mu**2 * prob.range_operator.solve(g)
    sigma = orbit_sizes(grid)
    assert sobolev_time_norm(again - w, weights=sigma) < 1e-12 * max(
        1.0, sobolev_time_norm(w, weights=sigma)
    )


def test_range_solution_structure():
    mu = 0.3
    grid, phi, prob = cubic_setup(mu)
    w, report = solve_range_equation(phi, prob, L_max=L_CUBIC)
    # an odd-row stack on the fundamental block (reflection symmetry by
    # construction; even harmonics have no row)
    assert w.shape == ((L_CUBIC + 1) // 2,) + block_shape(grid)
    # bifurcating harmonic exactly empty
    assert np.all(w[0] == 0.0)
    assert report.contraction_rate < 0.1
    assert report.smallness < 0.1
    assert report.iterations < 20


def test_quadratic_amplitude_scaling():
    grid, phi, prob = cubic_setup(0.2)
    w, _ = solve_range_equation(phi, prob, L_max=L_CUBIC)
    grid2, phi2, prob2 = cubic_setup(0.1)
    w2, _ = solve_range_equation(phi2, prob2, L_max=L_CUBIC)
    # at frozen kernel amplitude the response scales like mu^2 (the phi
    # samples differ between grids, so compare peak thirds per site scale)
    ratio = np.max(np.abs(w[1])) / np.max(np.abs(w2[1]))  # harmonic 3
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_warm_start_short_circuits():
    mu = 0.3
    grid, phi, prob = cubic_setup(mu)
    w, report = solve_range_equation(phi, prob, L_max=L_CUBIC, tol=1e-13)
    w2, report2 = solve_range_equation(
        phi, prob, L_max=L_CUBIC, tol=1e-13, w_init=w
    )
    assert report2.iterations <= 2
    assert sobolev_time_norm(w2 - w, weights=orbit_sizes(grid)) < 1e-12


def test_narrow_warm_start_is_zero_padded():
    # a w_init with fewer rows than the window starts its own rows and
    # zeros above them: the bytes of an explicitly zero-padded start
    mu = 0.3
    grid, phi, prob = cubic_setup(mu)
    w, _ = solve_range_equation(phi, prob, L_max=L_CUBIC)
    padded = np.concatenate([w, np.zeros((4,) + w.shape[1:])])
    wide, _ = solve_range_equation(phi, prob, L_max=13, w_init=w)
    ref, _ = solve_range_equation(phi, prob, L_max=13, w_init=padded)
    assert wide.shape == padded.shape
    assert wide.tobytes() == ref.tobytes()


def test_smallness_guard_trips_at_large_mu():
    # the estimate is 0.219 at mu = 1.5 (observed rate 0.106)
    grid, phi, prob = cubic_setup(1.5)
    with pytest.raises(GuardError, match="contraction regime"):
        solve_range_equation(phi, prob, L_max=L_CUBIC)
    # sweep amplitudes stay inside the regime
    grid, phi, prob = cubic_setup(0.4)
    solve_range_equation(phi, prob, L_max=L_CUBIC)


@pytest.mark.parametrize("mu", [0.4, 0.8, 1.2, 1.6, 2.0, 2.4])
def test_smallness_estimate_tracks_the_observed_rate(monkeypatch, mu):
    # the a-priori estimate bounds the contraction the Picard loop shows,
    # and by a factor near 2 (measured 2.07-2.39 on this table), so the
    # guard refuses only amplitudes that really contract slowly
    grid, phi, prob = cubic_setup(mu)
    monkeypatch.setattr(rangesolver, "_SMALLNESS_THRESHOLD", np.inf)
    _, report = solve_range_equation(phi, prob, L_max=L_CUBIC)
    assert report.contraction_rate < report.smallness < 3.0 * report.contraction_rate


def _iterate_to_roundoff(phi, prob, L, w, steps=8):
    """The range map w -> mu^2 Linv N(phi cos + w) of the window L, applied
    ``steps`` times from w: the fixed point to roundoff at the rates
    (<= 1e-2) of these tests."""
    M, rows = default_node_count(L), (L + 1) // 2
    for _ in range(steps):
        u = w.copy()
        u[0] = phi
        w = prob.mu**2 * prob.range_operator.solve(
            apply_nonlinearity(u, prob.p, M=M, rows=rows))
    return w


def _check_stop_bound(phi, prob, L, w, report, tol):
    # the returned w lies within the reported a-posteriori bound of the
    # fixed point (up to a few ulps of w), the bound met the stop test, and
    # the last update did not: the step that would only confirm is saved
    sigma = prob.range_operator.sigma
    ref = _iterate_to_roundoff(phi, prob, L, w)
    distance = sobolev_time_norm(w - ref, weights=sigma)
    scale = max(1.0, report.w_norm)
    assert report.w_norm == sobolev_time_norm(w, weights=sigma)
    assert distance <= report.error_bound + 4.0 * np.finfo(float).eps * report.w_norm
    assert report.error_bound <= tol * scale < report.final_update
    assert np.isfinite(report.contraction_rate)
    assert report.contraction_rate < report.smallness


def test_stop_rule_bound_holds_1d_site_centered():
    # 1d p = 1 st at the sweep's mu = 0.2, K = 150, L = 15
    mu = 0.2
    grid, phi, prob = cubic_setup(mu, K=150, a=0.25)
    w, report = solve_range_equation(phi, prob, L_max=15)
    _check_stop_bound(phi, prob, 15, w, report, 1e-12)


def test_stop_rule_bound_holds_on_the_widened_2d_pass(monkeypatch):
    # the final pass of a 2d p = 1/2 h1 assembly whose window widens to
    # L = 306: stopped on the bound after two steps, its observed rate
    # (taken before the stop test) reported
    passes = []

    def final_pass(phi, prob, L, **kwargs):
        w, report = solve_range_equation(phi, prob, L, **kwargs)
        passes.append((phi, prob, L, kwargs["tol"], w, report))
        return w, report

    monkeypatch.setattr(breather, "solve_range_equation", final_pass)
    b = breather.assemble_breather(breather.PipelineConfig(
        n=2, p=0.5, coupling=0.25, mu=0.3, mode="h1", r_min=40 * 0.3,
        residual_target=8e-10,
    ))
    ((phi, prob, L, tol, w, report),) = passes
    assert L == b.L_max == 306 and report.iterations == 2
    _check_stop_bound(phi, prob, L, w, report, tol)


def test_divergence_reported(monkeypatch):
    mu = 0.9
    grid = GridSpec(n=1, K=8, mu=mu)
    phi = np.zeros(block_shape(grid))
    phi[0] = 4.0
    prob = problem(grid, 0.4)
    monkeypatch.setattr(rangesolver, "_SMALLNESS_THRESHOLD", np.inf)
    monkeypatch.setattr(rangesolver, "_RATE_GUARD", np.inf)
    with pytest.raises(ConvergenceError, match="diverging"):
        solve_range_equation(phi, prob, L_max=6)


def test_slow_contraction_guarded(monkeypatch):
    mu = 0.3
    grid, phi, prob = cubic_setup(mu)
    monkeypatch.setattr(rangesolver, "_RATE_GUARD", 1e-9)
    with pytest.raises(GuardError, match="slowly"):
        solve_range_equation(phi, prob, L_max=L_CUBIC)


def _tail(phi, prob, w, L):
    """The harmonic tail of N(phi cos + w) past the window L, as the
    assembly reads it: off the final kernel_remainder's samples."""
    return kernel_remainder(phi, prob, w, L, tail=True)[1]


def test_2d_smoke():
    mu, a = 0.3, 0.25
    profile = solve_ground_state(2, 0.5)
    grid = GridSpec(n=2, K=12, mu=mu)
    phi = sample_reference(profile, grid, coupling=a)
    prob = problem(grid, a, m=profile.multiplier, p=0.5)
    w, report = solve_range_equation(phi, prob, L_max=8)
    assert report.converged
    assert w.shape == (4,) + block_shape(grid)  # harmonics 1, 3, 5, 7
    assert np.all(w[0] == 0.0)
    assert report.w_norm > 0.0
    # |u| u is not band limited: the discarded-harmonic diagnostic is small
    # but nonzero, and grows smaller when more harmonics are kept
    tail = _tail(phi, prob, w, 8)
    assert 0.0 < tail < 0.02
    w2, _ = solve_range_equation(phi, prob, L_max=16)
    assert _tail(phi, prob, w2, 16) < 0.3 * tail


def _full_box_picard(phi, prob, L_max, iterations):
    """Reference: the Picard steps with the nonlinearity on every site of
    the box field ``phi``, and the tail of the converged iterate."""
    op, p, mu = prob.range_operator, prob.p, prob.mu
    v = np.zeros(((L_max + 1) // 2,) + op.sector.grid.shape)
    v[0] = phi
    w = np.zeros_like(v)
    M = default_node_count(2 * len(v) - 1)
    for _ in range(iterations):
        g = apply_nonlinearity(v + w, p, M=M)
        g[0] = 0.0
        w = mu**2 * _dst_inverse(op, g)
    ones = np.ones(op.sector.grid.size)
    forcing = mu**2 * sobolev_time_norm(
        apply_nonlinearity(v, p, M=M), order=0, weights=ones
    )
    return w, first_harmonic(v + w, p, M=M, weights=ones)[1], forcing


@pytest.mark.parametrize("n, offsets", CENTERINGS)
def test_block_nonlinearity_matches_full_box(n, offsets):
    p, mu, a = (1.0, 0.3, 0.4) if n == 1 else (0.5, 0.3, 0.25)
    profile = solve_ground_state(n, p)
    grid = GridSpec(n=n, K=9, mu=mu, offsets=offsets)
    phi = sample_reference(profile, grid, coupling=a)
    prob = problem(grid, a, m=profile.multiplier, p=p)
    w, report = solve_range_equation(phi, prob, L_max=9)
    w_ref, tail_ref, forcing_ref = _full_box_picard(
        mirror_block(phi, grid), prob, 9, report.iterations
    )
    w_ref = w_ref[(slice(None),) + block_slices(grid)]
    assert np.max(np.abs(w - w_ref)) <= 1e-13 * np.max(np.abs(w_ref))
    assert _tail(phi, prob, w, 9) == pytest.approx(tail_ref, rel=1e-12)
    assert report.forcing_norm == pytest.approx(forcing_ref, rel=1e-12)


@pytest.mark.parametrize("n, p", [(1, 0.5), (1, 0.75), (1, 1.0), (2, 0.5), (2, 0.75)])
def test_forcing_norm_in_closed_form_is_the_full_window_pass(n, p):
    """N(phi cos) = |phi|^(2p) phi N(cos): the report's forcing norm, from
    the spectrum of one unit field, is the X0 norm of mu^2 N(phi cos) from
    a whole-window synthesis and analysis of phi cos, orbit-weighted (p =
    1 only in 1d, where it is admissible)."""
    L = 31 if n == 1 else 15
    mu, a = 0.3, 0.25
    grid = GridSpec(n=n, K=20, mu=mu, offsets=(0.5,) * n)
    profile = solve_ground_state(n, p)
    phi = sample_reference(profile, grid, coupling=a)
    prob = problem(grid, a, m=profile.multiplier, p=p)
    _, report = solve_range_equation(phi, prob, L)
    v = np.zeros(((L + 1) // 2,) + phi.shape)
    v[0] = phi
    full = mu**2 * sobolev_time_norm(
        apply_nonlinearity(v, p, M=default_node_count(L)), order=0,
        weights=orbit_sizes(grid),
    )
    assert report.forcing_norm == pytest.approx(full, rel=1e-12)
    assert report.response_ratio == report.w_norm / report.forcing_norm
