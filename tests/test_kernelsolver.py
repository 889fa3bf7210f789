"""Kernel equation: energies, Newton continuation, hessian structure."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import eigvalsh_tridiagonal, null_space

import kgbreather.kernelsolver as kernelsolver
import kgbreather.rangesolver as rangesolver
import kgbreather.timespectral as timespectral
from kgbreather.errors import ConvergenceError, GuardError
from kgbreather.groundstate import sample_reference, solve_ground_state
from kgbreather.kernelsolver import (
    DnlsProblem,
    hessian_diagnostics,
    kernel_remainder,
    solve_dnls_ground_state,
    solve_kernel_equation,
)
from kgbreather.lattice import (
    BREATHER_MODES,
    GridSpec,
    block_slices,
    dirichlet_energy,
    mirror_block,
    orbit_weights,
)
from kgbreather.rangesolver import RangeOperator, solve_range_equation
from kgbreather.timespectral import (
    apply_nonlinearity,
    default_node_count,
    nonlinearity_coefficient,
)
from references import (
    assembled_g0_jacobian,
    box_g0,
    lu_newton_step,
    padded_laplacian,
    symmetrize,
)

M_CUBIC = 1.0 / 16.0


def lattice_energy(phi, grid, p, coupling):
    """H0 = mu^n [ (a/mu^2) <phi, -lap phi> - (1/(p+1)) sum |phi|^(2p+2) ].

    Together with m * lattice_mass this is the variational functional of the
    kernel equation: grad_phi (H0 + m * mass) = 2 mu^n G0(phi).
    """
    mu = grid.mu
    quad = (coupling / mu**2) * dirichlet_energy(phi)
    quart = np.sum(np.abs(phi) ** (2.0 * p + 2.0)) / (p + 1.0)
    return mu**grid.n * (quad - quart)


def lattice_mass(phi, grid):
    """Scaled l2 mass mu^n sum phi^2 (continuum limit: int psi^2 dx)."""
    return grid.mu**grid.n * float(np.sum(phi * phi))


def cubic_problem(mu, a=0.4, r_min=60.0):
    """Grid, problem, and the sampled ground state on the fundamental block."""
    grid = GridSpec.for_radius(1, mu=mu, r_min=r_min)
    prob = DnlsProblem(grid=grid, p=1.0, mu=mu, coupling=a, multiplier=M_CUBIC)
    phi0 = sample_reference(solve_ground_state(1, 1.0), grid, coupling=a)
    return grid, prob, phi0


def to_orbit(phi, grid):
    """Orbit coordinates of a block field, as the Newton solves use them."""
    return (phi * orbit_weights(grid)).ravel()


def from_orbit(x, grid):
    """The block field of orbit coordinates ``x``."""
    weights = orbit_weights(grid)
    return x.reshape(weights.shape) / weights


def test_energy_impulse_value():
    # H0(delta) = mu^n [ 2 n a / mu^2 - 1/(p+1) ]; at mu=1, n=1, p=1, a=1/2
    # this is exactly 1/2, and the mass is exactly 1
    grid = GridSpec(n=1, K=4, mu=1.0)
    delta = np.zeros(grid.shape)
    delta[grid.K] = 1.0
    assert lattice_energy(delta, grid, p=1.0, coupling=0.5) == pytest.approx(0.5)
    assert lattice_mass(delta, grid) == 1.0


def _symmetric_problem(n, offsets, K):
    """Small box of one centering with a nonvanishing phi on its block."""
    grid = GridSpec(n=n, K=K, mu=0.3, offsets=offsets)
    prob = DnlsProblem(grid=grid, p=0.75, mu=0.3, coupling=0.2, multiplier=0.05)
    rng = np.random.default_rng(1)
    raw = 0.5 + 0.1 * rng.standard_normal(grid.shape)  # keep |phi| away from 0
    return grid, prob, symmetrize(raw)[block_slices(grid)]


CENTERINGS = {
    f"{n}d-{mode}": (n, offsets)
    for n, modes in BREATHER_MODES.items()
    for mode, offsets in modes.items()
}


@pytest.mark.parametrize("n, offsets", CENTERINGS.values(), ids=CENTERINGS.keys())
def test_reduced_jacobian_matches_folded_operator(n, offsets):
    # column k is the box operator G0'(phi) applied to the k-th orbit
    # basis field, mirrored onto the box, and cut back to orbit coordinates
    grid, prob, phi = _symmetric_problem(n, offsets, K=6 if n == 1 else 4)
    J = assembled_g0_jacobian(phi, prob).toarray()
    home = block_slices(grid)
    box = mirror_block(phi, grid)
    d = prob.multiplier - (2.0 * prob.p + 1.0) * np.abs(box) ** (2.0 * prob.p)
    ref = np.empty_like(J)
    for k, e in enumerate(np.eye(J.shape[0])):
        u = mirror_block(from_orbit(e, grid), grid)
        g = (prob.coupling / prob.mu**2) * (-padded_laplacian(u)) + d * u
        ref[:, k] = to_orbit(g[home], grid)
    assert np.max(np.abs(J - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(J, J.T)


@pytest.mark.parametrize("n, offsets", CENTERINGS.values(), ids=CENTERINGS.keys())
def test_g0_jacobian_matvec_is_the_folded_box_operator(n, offsets):
    # the matrix-free G0' of the Newton steps: column k is the box
    # operator on the k-th orbit basis field, mirrored onto the box and
    # cut back to orbit coordinates, and the assembled matrix's column
    grid, prob, phi = _symmetric_problem(n, offsets, K=9 if n == 1 else 5)
    G0 = prob.g0_jacobian(phi)
    J = assembled_g0_jacobian(phi, prob).toarray()
    home = block_slices(grid)
    d = prob.multiplier - (2.0 * prob.p + 1.0) * np.abs(mirror_block(phi, grid)) ** (
        2.0 * prob.p
    )
    for k, e in enumerate(np.eye(J.shape[0])):
        u = mirror_block(from_orbit(e, grid), grid)
        box = (prob.coupling / prob.mu**2) * (-padded_laplacian(u)) + d * u
        col = G0 @ e
        assert np.max(np.abs(col - to_orbit(box[home], grid))) <= 1e-13 * np.max(np.abs(J))
        assert np.max(np.abs(col - J[:, k])) <= 1e-13 * np.max(np.abs(J))


@pytest.mark.parametrize("n, offsets", CENTERINGS.values(), ids=CENTERINGS.keys())
def test_block_g0_is_the_box_formula_on_the_block(n, offsets):
    # each block site of the padded Laplacian reads the neighbours the
    # box's reads, in its order: the box formula's bits, sign changes too
    grid = GridSpec(n=n, K=37, mu=0.3, offsets=offsets)
    prob = DnlsProblem(grid=grid, p=0.75, mu=0.3, coupling=0.2, multiplier=0.05)
    phi = np.random.default_rng(n).standard_normal((grid.K + 1,) * n)
    got = prob.apply_g0(phi)
    want = box_g0(mirror_block(phi, grid), prob)[block_slices(grid)]
    assert got.shape == phi.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("K", [2, 3, 17, 150, 600, 2500])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_1d_newton_step_matches_the_sparse_lu(K, offset):
    """The pivoting band solve of G0' against the sparse LU that every 1d
    Newton step used before, at the sampled reference and at the dNLS
    solution, where G0' has one negative direction on every box that holds
    the profile (K >= 17 at mu = 0.3, every K at mu = 30/K).  At mu = 0.3
    the two agree to 1e-13.  At the sweep's mu = 30/K (a/mu^2 up to 2,800
    at K = 2,500, condition number up to 1.7e5) two backward-stable solves
    can only agree to about kappa * eps, the bound asserted there."""
    profile = solve_ground_state(1, 1.0)
    for mu in (0.3, min(2.5, 30.0 / K)):
        grid = GridSpec(n=1, K=K, mu=mu, offsets=(offset,))
        prob = DnlsProblem(grid=grid, p=1.0, mu=mu, coupling=0.4,
                           multiplier=M_CUBIC)
        phi0 = sample_reference(profile, grid, coupling=0.4)
        rhs = np.random.default_rng(K).standard_normal(K + 1)
        for phi in (phi0, solve_dnls_ground_state(prob, phi0)[0]):
            got = prob.newton_step(phi, rhs)
            ref = lu_newton_step(phi, prob, rhs)
            J = assembled_g0_jacobian(phi, prob)
            ev = np.abs(eigvalsh_tridiagonal(J.diagonal(), J.diagonal(1)))
            tol = 1e-13 if mu == 0.3 else np.finfo(float).eps * ev.max() / ev.min()
            assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("mode", ["st", "h1"])
def test_2d_newton_step_matches_a_dense_solve(mode):
    """The preconditioned MINRES step against a dense solve of the
    assembled G0', at the sampled reference (one negative direction) and
    shifted between its two lowest eigenvalues, where the secular
    function of hessian_diagnostics solves it."""
    prof = solve_ground_state(2, 0.5)
    grid = GridSpec(n=2, K=30, mu=0.3, offsets=BREATHER_MODES[2][mode])
    prob = DnlsProblem(grid=grid, p=0.5, mu=0.3, coupling=0.25,
                       multiplier=prof.multiplier)
    phi = sample_reference(prof, grid, coupling=0.25)
    J = assembled_g0_jacobian(phi, prob).toarray()
    lo, hi = np.linalg.eigvalsh(J)[:2]
    assert lo < 0.0 < hi
    rhs = np.random.default_rng(3).standard_normal(J.shape[0])
    for shift in (0.0, 0.5 * (lo + hi)):
        got = prob.newton_step(phi, rhs, shift=shift)
        want = np.linalg.solve(J - shift * np.eye(J.shape[0]), rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2])
def test_singular_g0_jacobian_is_a_convergence_error(n):
    # a/mu^2 = 1, m = 1 and p = 1/2 make G0' = -lap + 1 - 2|phi| on an
    # offset-1/2 block of K = 2, where the -lap diagonal is 1, 2, 2 per axis.
    # 1d: |phi| = 1/2, 1/2, 1 leave the Neumann Laplacian
    # [[1, -1, 0], [-1, 2, -1], [0, -1, 1]], whose last pivot is exactly
    # zero.  2d: |phi| = (1 + the Kronecker-sum diagonal)/2 leaves minus
    # the adjacency of the 3x3 grid graph, bipartite in 5 and 4 sites, so
    # the sparse LU meets an exactly zero pivot
    grid = GridSpec(n=n, K=2, mu=0.5, offsets=(0.5,) * n)
    prob = DnlsProblem(grid=grid, p=0.5, mu=0.5, coupling=0.25, multiplier=1.0)
    diag = np.array([1.0, 2.0, 2.0])
    block = np.array([0.5, 0.5, 1.0]) if n == 1 else (1 + np.add.outer(diag, diag)) / 2
    with pytest.raises(ConvergenceError, match="singular at Newton iteration 1"):
        solve_dnls_ground_state(prob, block)


def test_reduced_jacobian_is_fd_of_folded_g0():
    # the assembled G0' and the matrix-free one of the Newton steps
    for n, offsets in CENTERINGS.values():
        grid, prob, phi = _symmetric_problem(n, offsets, K=5 if n == 1 else 3)
        J = assembled_g0_jacobian(phi, prob).toarray()
        x = to_orbit(phi, grid)
        h = 1e-6

        def g0(v):
            return to_orbit(prob.apply_g0(from_orbit(v, grid)), grid)

        G0 = prob.g0_jacobian(phi)
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            col = (g0(x + e) - g0(x - e)) / (2 * h)
            assert np.allclose(col, J[:, j], rtol=0, atol=1e-8)
            assert np.allclose(col, G0 @ (e / h), rtol=0, atol=1e-8)


def test_gradient_of_constrained_energy_is_2mun_g0():
    # grad_phi [ H0 + m * mass ] = 2 mu^n G0(phi), checked by central FD
    grid = GridSpec(n=1, K=6, mu=0.35)
    prob = DnlsProblem(grid=grid, p=1.0, mu=0.35, coupling=0.3, multiplier=M_CUBIC)
    rng = np.random.default_rng(3)
    phi = symmetrize(0.4 * rng.standard_normal(grid.shape))

    def energy(v):
        return lattice_energy(v, grid, prob.p, prob.coupling) + (
            prob.multiplier * lattice_mass(v, grid)
        )

    h = 1e-7
    grad_fd = np.zeros_like(phi)
    for j in range(phi.size):
        e = np.zeros_like(phi)
        e[j] = h
        grad_fd[j] = (energy(phi + e) - energy(phi - e)) / (2 * h)
    g0 = mirror_block(prob.apply_g0(phi[block_slices(grid)]), grid)
    assert np.allclose(grad_fd, 2.0 * grid.mu**grid.n * g0, atol=1e-7)


def test_single_site_limit():
    # near-vanishing coupling: the equation decouples site-wise; with the
    # two boundary bonds of the center retained the one-site amplitude is
    # exactly (m + 2 a/mu^2)^(1/(2p)) up to the O((a/mu^2)^2) neighbor echo
    mu, a = 0.3, 1e-10
    grid = GridSpec(n=1, K=6, mu=mu)
    for p, m in ((1.0, 1.0 / 16.0), (0.75, 0.2)):
        prob = DnlsProblem(grid=grid, p=p, mu=mu, coupling=a, multiplier=m)
        phi0 = np.zeros(grid.K + 1)  # the block: the center, then j = 1..K
        phi0[0] = m ** (1.0 / (2.0 * p))
        phi, report = solve_dnls_ground_state(prob, phi0)
        assert report.converged
        corrected = (m + 2.0 * a / mu**2) ** (1.0 / (2.0 * p))
        assert phi[0] == pytest.approx(corrected, rel=1e-12)
        assert np.max(np.abs(phi[1:])) < 1e-8


def test_dnls_newton_quadratic_convergence():
    grid, prob, phi0 = cubic_problem(0.3)
    phi, report = solve_dnls_ground_state(prob, phi0)
    assert report.converged
    r = report.residuals
    assert len(r) <= 5
    assert r[-1] < 1e-11
    # quadratic contraction while above the roundoff floor
    assert r[1] < 100.0 * r[0] ** 2


def test_dnls_solution_properties():
    grid, prob, phi0 = cubic_problem(0.3)
    phi, _ = solve_dnls_ground_state(prob, phi0)
    assert np.max(np.abs(prob.apply_g0(phi))) < 1e-11
    assert np.max(np.abs(phi - phi0)) < 5e-3 * np.max(phi0)  # O(mu^2) shift
    assert phi.shape == (grid.K + 1,)  # the fundamental block
    assert lattice_mass(mirror_block(phi, grid), grid) == pytest.approx(
        np.sqrt(prob.coupling), rel=0.01
    )  # continuum mass a^(n/2), up to O(mu^2) discretization


def test_remainder_single_site_closed_form(monkeypatch):
    # decoupled cubic site: R = -(3 beta^2 / (16 sigma3)) mu^2 c^5,
    # sigma3 = 1 - 9 omega^2 (per-site third-harmonic symbol)
    mu, c = 0.2, 0.6
    grid = GridSpec(n=1, K=2, mu=mu)
    prob = DnlsProblem(grid=grid, p=1.0, mu=mu, coupling=1e-10, multiplier=M_CUBIC)
    op = RangeOperator(grid, omega_sq=prob.omega_sq, coupling=prob.coupling)
    phi = np.zeros(grid.K + 1)
    phi[0] = c
    monkeypatch.setattr(rangesolver, "_SMALLNESS_THRESHOLD", np.inf)
    w, rep = solve_range_equation(phi, op, prob.p, prob.mu, 10)
    R = kernel_remainder(phi, prob, w, 10)
    beta = nonlinearity_coefficient(1.0)
    sigma3 = 1.0 - 9.0 * prob.omega_sq
    predicted = -(3.0 * beta**2 / (16.0 * sigma3)) * mu**2 * c**5
    assert R[0] == pytest.approx(predicted, rel=0.02)
    assert rep.converged


def test_remainder_projects_on_the_range_node_count():
    # R and w must come from one collocation, at the range solve's
    # M = default_node_count(L), for an odd and an even window alike;
    # at p = 1/2 another node count moves P1 far above the tolerance
    mu, a, p = 0.3, 0.25, 0.5
    profile = solve_ground_state(1, p)
    grid = GridSpec.for_radius(1, mu=mu, r_min=20.0)
    prob = DnlsProblem(
        grid=grid, p=p, mu=mu, coupling=a, multiplier=profile.multiplier
    )
    phi = sample_reference(profile, grid, coupling=a)
    box = mirror_block(phi, grid)
    home = block_slices(grid)
    op = RangeOperator(grid, omega_sq=prob.omega_sq, coupling=a)
    for L in (15, 16):
        M = default_node_count(L)
        w, _ = solve_range_equation(phi, op, p, mu, L)
        R = kernel_remainder(phi, prob, w, L)
        # the projection on the whole box, cut to the block
        u = mirror_block(w, grid)
        u[0] = box
        first = apply_nonlinearity(u, p, M=M)[0]
        R_ref = -(first - np.abs(box) ** (2.0 * p) * box)[home]
        assert np.max(np.abs(R - R_ref)) <= 1e-12 * np.max(np.abs(R_ref))
        # the node counts of the neighbouring window and of twice the
        # density give a projection this test tells apart
        for other in (default_node_count(L - 1), 2 * M):
            R_other = -(
                apply_nonlinearity(u, p, M=other)[0]
                - np.abs(box) ** (2.0 * p) * box
            )[home]
            assert np.max(np.abs(R_other - R_ref)) > 1e-9 * np.max(np.abs(R_ref))


def test_remainder_past_the_size_switch_reads_one_cosine_row(monkeypatch):
    # a window whose synthesis passes the 2^19 entries of the cosine
    # cache: P1 still comes from the one cached cosine row, not from a
    # full-length DCT-IV analysis, and agrees with the matrix-side value
    mu, a, p = 0.3, 0.25, 0.5
    profile = solve_ground_state(1, p)
    grid = GridSpec(n=1, K=8, mu=mu)
    prob = DnlsProblem(
        grid=grid, p=p, mu=mu, coupling=a, multiplier=profile.multiplier
    )
    phi = sample_reference(profile, grid, coupling=a)
    rows = 512  # harmonics 1..1023 at M = 4096, Q = 2048: 2^20 entries
    assert default_node_count(2 * rows - 1) == 4096
    l = 2.0 * np.arange(rows)[:, None] + 1.0
    w = np.random.default_rng(6).standard_normal((rows, grid.K + 1)) / l**2
    w[0] = 0.0
    analyses = []
    synthesis_or_analysis = scipy.fft.dct

    def spy(x, *args, **kwargs):
        analyses.append(kwargs.get("overwrite_x", False))
        return synthesis_or_analysis(x, *args, **kwargs)

    # _cosine_product imports dct at call time, so the spy goes on scipy.fft
    monkeypatch.setattr(scipy.fft, "dct", spy)
    R = kernel_remainder(phi, prob, w, 2 * rows - 1)
    assert analyses and not any(analyses)  # DCT-IV synthesis only
    monkeypatch.setattr(timespectral, "_MATRIX_ENTRIES", 1 << 21)
    R_matrix = kernel_remainder(phi, prob, w, 2 * rows - 1)
    assert np.max(np.abs(R - R_matrix)) <= 1e-13 * np.max(np.abs(R_matrix))


@pytest.mark.parametrize("n, K, L", [(1, 300, 31), (2, 40, 15)])
def test_tail_leaves_the_remainder_bitwise_unchanged(n, K, L):
    # the tail is a diagnostic: R carries the same bits with and without
    # it, on shapes where BLAS rounds the first row of an all-Q analysis
    # product otherwise than the one-row product
    mu, a, p = 0.3, 0.25, 0.5
    profile = solve_ground_state(n, p)
    grid = GridSpec(n=n, K=K, mu=mu)
    prob = DnlsProblem(grid=grid, p=p, mu=mu, coupling=a,
                       multiplier=profile.multiplier)
    phi = sample_reference(profile, grid, coupling=a)
    op = RangeOperator(grid, omega_sq=prob.omega_sq, coupling=a)
    w, _ = solve_range_equation(phi, op, p, mu, L)
    R = kernel_remainder(phi, prob, w, L)
    R_tail, tail = kernel_remainder(phi, prob, w, L, tail=True)
    assert tail > 0.0
    assert R_tail.tobytes() == R.tobytes()


def _contraction(report):
    r = report.residuals
    return max(b / a for a, b in zip(r, r[1:]))


def test_kernel_newton_full_jacobian_quadratic():
    # the G0' chord drops R' = O(mu^2): it contracts by O(mu^2) per step,
    # so halving mu cuts the rate about 4x
    rates = []
    for mu in (0.3, 0.15):
        grid, prob, phi0 = cubic_problem(mu)
        phi, w, report, op = solve_kernel_equation(phi0, prob, L_max=8)
        assert report.converged
        assert report.residuals[-1] < 1e-11
        assert np.all(w[0] == 0.0)
        rates.append(_contraction(report))
    assert max(rates) < 1e-2
    assert rates[1] < 0.35 * rates[0]


def _fd_newton_reference(phi0, prob, L_max, tol=1e-11, h=1e-6, max_iter=10):
    """Plain Newton on the reduced kernel equation, every column of the
    Jacobian G0' + R' a forward difference of the full residual."""
    grid = prob.grid
    op = RangeOperator(grid, prob.omega_sq, prob.coupling)

    def G(x):
        phi = from_orbit(x, grid)
        w, _ = solve_range_equation(phi, op, prob.p, prob.mu, L_max)
        R = kernel_remainder(phi, prob, w, L_max)
        return to_orbit(prob.apply_g0(phi) + R, grid)

    x = to_orbit(phi0, grid)
    for _ in range(max_iter):
        g = G(x)
        if np.linalg.norm(g) <= tol * max(1.0, np.linalg.norm(x)):
            return from_orbit(x, grid)
        J = np.column_stack([(G(x + h * e) - g) / h for e in np.eye(x.size)])
        x = x - np.linalg.solve(J, g)
    raise ConvergenceError("finite-difference reference did not converge")


def test_kernel_quasi_newton_agrees_with_full():
    grid, prob, phi0 = cubic_problem(0.3)
    phi_full = _fd_newton_reference(phi0, prob, L_max=8)
    phi_g0, _, rep, _ = solve_kernel_equation(phi0, prob, L_max=8)
    assert rep.converged
    assert np.max(np.abs(phi_full - phi_g0)) < 1e-10


def test_kernel_solution_shifts_from_dnls_at_order_mu2():
    # phi(kernel) - phi(dnls) is driven by R ~ mu^2, so it shrinks ~ mu^2
    shifts = []
    for mu in (0.3, 0.15):
        grid, prob, phi0 = cubic_problem(mu)
        phi_d, _ = solve_dnls_ground_state(prob, phi0)
        phi_k, _, _, _ = solve_kernel_equation(phi0, prob, L_max=8)
        shifts.append(np.max(np.abs(phi_k - phi_d)) / np.max(np.abs(phi_d)))
    assert shifts[1] < 0.35 * shifts[0]


def test_hessian_identity_and_positivity():
    grid, prob, phi0 = cubic_problem(0.3)
    phi, _ = solve_dnls_ground_state(prob, phi0)
    hd = hessian_diagnostics(phi, prob)
    assert hd.curvature_along_solution == pytest.approx(
        hd.predicted_curvature, rel=1e-9
    )
    assert hd.curvature_along_solution < 0.0
    assert hd.tangent_min_eigenvalue > 0.0
    assert hd.min_abs_eigenvalue > 0.0
    # the identity is special to solutions: a generic field violates it
    hd_off = hessian_diagnostics(phi0 * 1.1, prob)
    rel = abs(
        hd_off.curvature_along_solution - hd_off.predicted_curvature
    ) / abs(hd_off.predicted_curvature)
    assert rel > 1e-3
    # at twice the solution G0' has two negative directions (-1.16, -0.31)
    with pytest.raises(GuardError, match="two negative directions"):
        hessian_diagnostics(2.0 * phi, prob)


def test_tangent_eigenvalue_against_explicit_complement():
    grid, prob, phi0 = cubic_problem(0.4, r_min=12.0)  # small box: dense basis
    phi, _ = solve_dnls_ground_state(prob, phi0)
    hd = hessian_diagnostics(phi, prob)
    J = assembled_g0_jacobian(phi, prob).toarray()
    q = to_orbit(phi, grid)
    q = q / np.linalg.norm(q)
    V = null_space(q[None, :])
    evals = np.linalg.eigvalsh(V.T @ J @ V)
    assert hd.tangent_min_eigenvalue == pytest.approx(evals[0], rel=1e-9)


@pytest.mark.parametrize(
    "n, mode, K, mu",
    [(1, "st", 30, 0.3), (1, "p", 30, 0.3), (1, "st", 600, 0.05),
     (1, "p", 600, 0.05), (2, "st", 50, 0.3), (2, "h1", 40, 0.3)],
)
def test_hessian_diagnostics_match_dense_eigensolves(n, mode, K, mu):
    # against dense eigensolves of the same reduced matrix, and the same
    # numbers on a second call
    p, a = (1.0, 0.4) if n == 1 else (0.5, 0.25)
    prof = solve_ground_state(n, p)
    grid = GridSpec(n=n, K=K, mu=mu, offsets=BREATHER_MODES[n][mode])
    prob = DnlsProblem(grid=grid, p=p, mu=mu, coupling=a, multiplier=prof.multiplier)
    phi0 = sample_reference(prof, grid, coupling=a)
    phi, _ = solve_dnls_ground_state(prob, phi0)
    hd = hessian_diagnostics(phi, prob)
    assert hessian_diagnostics(phi, prob) == hd
    # the orbit-weighted block sum is the sum over the mirrored box
    box_sum = np.sum(np.abs(mirror_block(phi, grid)) ** (2.0 * p + 2.0))
    assert hd.predicted_curvature == pytest.approx(-2.0 * p * box_sum, rel=1e-13)
    J = assembled_g0_jacobian(phi, prob).toarray()
    evals = np.linalg.eigvalsh(J)
    q = to_orbit(phi, grid)
    q /= np.linalg.norm(q)
    # P J P on the complement of q (P = 1 - q q^T), q itself shifted to the
    # top of the spectrum
    Jq = J @ q
    top = q @ Jq + 10.0 * np.max(np.abs(evals))
    deflated = J - np.outer(q, Jq) - np.outer(Jq, q) + top * np.outer(q, q)
    assert hd.min_abs_eigenvalue == pytest.approx(
        np.min(np.abs(evals)), rel=1e-10
    )
    assert hd.tangent_min_eigenvalue == pytest.approx(
        np.linalg.eigvalsh(deflated)[0], rel=1e-10
    )


def test_hessian_diagnostics_hold_no_dense_matrix():
    # 1d K = 2,000: a dense G0' alone would be 32 MB
    grid = GridSpec(n=1, K=2000, mu=0.015)
    prob = DnlsProblem(grid=grid, p=1.0, mu=0.015, coupling=0.4, multiplier=M_CUBIC)
    phi0 = sample_reference(solve_ground_state(1, 1.0), grid, coupling=0.4)
    phi, _ = solve_dnls_ground_state(prob, phi0)
    hessian_diagnostics(phi, prob)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        hessian_diagnostics(phi, prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_2d_kernel_smoke():
    prof = solve_ground_state(2, 0.5)
    mu, a = 0.3, 0.25
    grid = GridSpec(n=2, K=45, mu=mu)
    prob = DnlsProblem(grid=grid, p=0.5, mu=mu, coupling=a, multiplier=prof.multiplier)
    phi0 = sample_reference(prof, grid, coupling=a)
    phi, w, rep, op = solve_kernel_equation(phi0, prob, L_max=8)
    assert rep.converged
    assert rep.residuals[-1] < 1e-10
    assert phi.shape == w.shape[1:] == (grid.K + 1,) * 2  # the block
    assert lattice_mass(mirror_block(phi, grid), grid) == pytest.approx(a, rel=0.02)


def test_problem_guards():
    grid = GridSpec(n=1, K=4, mu=0.3)
    with pytest.raises(GuardError):
        DnlsProblem(grid=grid, p=1.0, mu=0.3, coupling=0.6, multiplier=0.05)
    with pytest.raises(GuardError):
        DnlsProblem(grid=grid, p=1.0, mu=-0.3, coupling=0.3, multiplier=0.05)


def test_newton_iteration_budget(monkeypatch):
    grid, prob, phi0 = cubic_problem(0.3)
    monkeypatch.setattr(kernelsolver, "_DNLS_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        solve_dnls_ground_state(prob, phi0, tol=1e-14)
