"""Reference formulas that the library itself does not need.

The tests use them as independent oracles (the gradient energy of the P1
interpolant, l^q norms, the zero-padded box Laplacian that the block one
must match bit for bit and that the box-field oracles below apply, the
allocating kick-drift leapfrog loop that the in-place stepper must match
bit for bit, the textbook velocity-Verlet loop that the stepper must
match to roundoff,
the whole-box equation residual, sup error and sup bound, and the box Q
norm, that the block ones must match to roundoff, the elementwise even-sector
basis that the table lookup must match bit for bit,
the whole-box G0 that the block one must match bit for bit, the
assembled G0' that the matrix-free one must match to roundoff, the dense
even-sector basis inverse and the sparse LU Newton step that the 1d band
solves must match to roundoff) or to build inputs (the
reflection-even part of a random field).  Each is the plain textbook
formula, written for clarity rather than speed.
"""
import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from kgbreather.breather import reference_coefficients
from kgbreather.dynamics import IntegrationReport, lattice_hamiltonian
from kgbreather.lattice import (
    dirichlet_energy,
    minus_laplacian_bands,
    mirror_block,
)
from kgbreather.rangesolver import _even_basis
from kgbreather.timespectral import nonlinearity_coefficient, odd_collocation


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
    l2 = float(np.linalg.norm(a))
    slack = 1.0 + 1e-12
    return lp_norm(a, q) <= l2 * slack and float(np.max(np.abs(a))) <= l2 * slack


def padded_laplacian(a, axes=None):
    """Zero-Dirichlet Laplacian off an explicitly zero-padded copy: each
    axis adds its forward then its backward neighbor, the exterior
    contributing literal zeros."""
    a = np.asarray(a, dtype=np.float64)
    if axes is None:
        axes = tuple(range(a.ndim))
    pad = np.pad(a, [(1, 1) if ax in axes else (0, 0) for ax in range(a.ndim)])
    inner = [slice(1, -1) if ax in axes else slice(None) for ax in range(a.ndim)]
    out = (-2.0 * len(axes)) * a
    for ax in axes:
        for start in (2, 0):
            window = list(inner)
            window[ax] = slice(start, start + a.shape[ax])
            out += pad[tuple(window)]
    return out


def verlet_report(b, steps_per_period, periods=1, initial_coeffs=None):
    """``IntegrationReport.to_dict()`` of the textbook velocity-Verlet loop,
    one fresh array per operation, with the same energy sampling as
    ``kgbreather.dynamics.integrate_period``."""
    coeffs = b.coeffs if initial_coeffs is None else np.asarray(initial_coeffs)
    beta = nonlinearity_coefficient(b.p)

    def acceleration(q):
        return (
            b.coupling * padded_laplacian(q) - q
            + beta * np.abs(q) ** (2.0 * b.p) * q
        )

    def energy(q, v):
        return lattice_hamiltonian(q, v, b.coupling, b.p)

    q0 = np.sum(coeffs, axis=0)
    q, v = q0.copy(), np.zeros_like(q0)
    dt = (2.0 * np.pi / b.omega) / steps_per_period
    steps = steps_per_period * periods
    sample_every = max(1, steps // 512)
    h0 = energy(q, v)
    drift = 0.0
    acc = acceleration(q)
    for step in range(1, steps + 1):
        v_half = v + 0.5 * dt * acc
        q = q + dt * v_half
        acc = acceleration(q)
        v = v_half + 0.5 * dt * acc
        if step % sample_every == 0 or step == steps:
            drift = max(drift, abs(energy(q, v) - h0) / max(abs(h0), 1.0))
    norm0 = float(np.linalg.norm(q0))
    return_error = float(
        np.linalg.norm(q - q0) / norm0 + np.linalg.norm(v) / (b.omega * norm0)
    )
    return IntegrationReport(
        periods=periods,
        steps_per_period=steps_per_period,
        dt=dt,
        return_error=return_error,
        energy_drift=drift,
        h_initial=h0,
        h_final=energy(q, v),
    ).to_dict()


def leapfrog_report(b, steps_per_period, periods=1, initial_coeffs=None):
    """``IntegrationReport.to_dict()`` of the kick-drift leapfrog in the
    scaled momentum P = dt v, one fresh array per operation, in the order
    of ``kgbreather.dynamics.integrate_period``: q += P, f = dt^2 F(q) with
    the neighbors summed off a zero-padded copy, P += f, and v = (P - f/2)/dt
    at the same energy samples."""
    coeffs = b.coeffs if initial_coeffs is None else np.asarray(initial_coeffs)
    n = b.grid.n
    dt = (2.0 * np.pi / b.omega) / steps_per_period
    dt2 = dt * dt
    c_lap = dt2 * b.coupling
    c_nl = dt2 * nonlinearity_coefficient(b.p)
    c_diag = -dt2 * (2.0 * n * b.coupling + 1.0)

    def force(q):
        pad = np.pad(q, 1)
        inner = [slice(1, -1)] * n
        views = []
        for ax in range(n):
            for start in (2, 0):
                window = list(inner)
                window[ax] = slice(start, start + q.shape[ax])
                views.append(pad[tuple(window)])
        neighbor_sum = views[0] + views[1]
        for view in views[2:]:
            neighbor_sum = neighbor_sum + view
        return c_lap * neighbor_sum + (c_nl * np.abs(q) ** (2.0 * b.p) + c_diag) * q

    def energy(q, v):
        return lattice_hamiltonian(q, v, b.coupling, b.p)

    q0 = np.sum(coeffs, axis=0)
    q, v = q0.copy(), np.zeros_like(q0)
    steps = steps_per_period * periods
    sample_every = max(1, steps // 512)
    h0 = energy(q, v)
    drift = 0.0
    f = force(q)
    P = 0.5 * f
    for step in range(1, steps + 1):
        q = q + P
        f = force(q)
        P = P + f
        if step % sample_every == 0 or step == steps:
            v = (P - 0.5 * f) / dt
            drift = max(drift, abs(energy(q, v) - h0) / max(abs(h0), 1.0))
    norm0 = float(np.linalg.norm(q0))
    return_error = float(
        np.linalg.norm(q - q0) / norm0 + np.linalg.norm(v) / (b.omega * norm0)
    )
    return IntegrationReport(
        periods=periods,
        steps_per_period=steps_per_period,
        dt=dt,
        return_error=return_error,
        energy_drift=drift,
        h_initial=h0,
        h_final=energy(q, v),
    ).to_dict()


def whole_box_kg_residual(b):
    """``kgbreather.breather.kg_residual`` in one pass over the whole box:
    the linear part of every odd harmonic of the whole coefficient stack
    ``b.coeffs`` at once, collocated in ``odd_collocation``'s default
    chunks."""
    L = b.L_max
    l = np.arange(1, L + 1, 2)
    factors = (1.0 - (b.omega * l) ** 2).reshape((-1,) + (1,) * b.grid.n)
    spatial = tuple(range(1, b.grid.n + 1))
    odd = b.coeffs[1::2]
    linear = factors * odd - b.coupling * padded_laplacian(odd, axes=spatial)
    worst = 0.0
    for _, res in odd_collocation(
        (odd, linear),
        4 * (L + 1),
        lambda q, lq: lq - nonlinearity_coefficient(b.p) * np.abs(q) ** (2.0 * b.p) * q,
    ):
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def whole_box_sup_error(b):
    """The sup error of ``kgbreather.breather.error_vs_reference`` in one
    pass over the whole box: the odd rows of the whole coefficient stack
    ``b.coeffs`` less Psi's one harmonic, collocated in
    ``odd_collocation``'s default chunks."""
    diff = b.coeffs[1::2].copy()
    diff[0] -= reference_coefficients(b)[1]
    worst = 0.0
    for _, values in odd_collocation((diff,), 4 * (b.L_max + 1)):
        worst = max(worst, float(np.max(np.abs(values))))
    return worst


def norm_q(a, mu=1.0):
    """H^1-type norm of a box field: (sum a^2 + mu^-2 sum of squared
    differences)^(1/2), the differences over every bond, boundary bonds
    included; lattice.block_norm_q gives it from the block."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(np.sum(a * a) + dirichlet_energy(a) / (mu * mu)))


def box_sup_bound(b):
    """The sup bound of ``kgbreather.breather.error_vs_reference``, 2
    sqrt(mu) sum_l ||diff_l||_Q, one box harmonic at a time: the first
    harmonic less Psi's, then each range harmonic, each mirrored onto the
    box and measured by ``norm_q``."""
    psi = reference_coefficients(b)[1]
    bound = norm_q(mirror_block(b.amplitude * b.phi, b.grid) - psi, b.mu)
    for row in b.w[1:]:
        bound += norm_q(b.amplitude * mirror_block(row, b.grid), b.mu)
    return 2.0 * np.sqrt(b.mu) * bound


def elementwise_even_basis(N, K, offset):
    """``kgbreather.rangesolver._even_basis`` entry by entry:
    V[j, m] = sqrt(2/(N+1)) cos(pi (2m+1)(j + offset) / (N+1)), the angle's
    integer multiple t = (2j + 2 offset)(2m+1) of pi / (2 (N+1)) reduced
    modulo the period 4 (N+1) before the cosine."""
    V = np.multiply.outer(
        2.0 * np.arange(K + 1) + 2.0 * offset, 2.0 * np.arange(K + 1) + 1.0
    )
    np.fmod(V, 4.0 * (N + 1), out=V)
    V *= np.pi / (2.0 * (N + 1))
    np.cos(V, out=V)
    V *= np.sqrt(2.0 / (N + 1))
    return V


def assembled_g0_jacobian(phi, prob):
    """``kgbreather.kernelsolver.DnlsProblem.g0_jacobian`` for a block
    ``phi`` as a sparse matrix: the per-axis -lap in orbit coordinates
    joined by a Kronecker sum, scaled by a/mu^2, plus the sparse diagonal
    m - (2p+1)|phi|^(2p), converted to CSC."""
    grid = prob.grid
    mats = [
        sparse.diags([off, diag, off], offsets=[-1, 0, 1])
        for diag, off in (minus_laplacian_bands(grid.K, o) for o in grid.offsets)
    ]
    if grid.n == 1:
        minus_lap = mats[0]
    else:
        eye = sparse.identity(grid.K + 1)
        minus_lap = sparse.kron(mats[0], eye) + sparse.kron(eye, mats[1])
    diag = prob.multiplier - (2.0 * prob.p + 1.0) * np.abs(np.ravel(phi)) ** (
        2.0 * prob.p
    )
    return ((prob.coupling / prob.mu**2) * minus_lap + sparse.diags(diag)).tocsc()


def box_g0(phi, prob):
    """G0(phi) = -(a/mu^2) lap phi + m phi - |phi|^(2p) phi on the whole box,
    the formula that ``kgbreather.kernelsolver.DnlsProblem.apply_g0``
    evaluates on the fundamental block."""
    return (
        -(prob.coupling / prob.mu**2) * padded_laplacian(phi)
        + prob.multiplier * phi
        - np.abs(phi) ** (2.0 * prob.p) * phi
    )


def basis_range_solve(op, coeffs):
    """``kgbreather.rangesolver.RangeOperator.solve`` on a 1d stack through
    the dense even-sector basis: V (sigma V^T g / symbol) row by row, the
    per-mode inverse that the tridiagonal solve replaced."""
    grid = op.sector.grid
    V = _even_basis(grid.axis_length(0), grid.K, grid.offsets[0])
    coeffs = np.asarray(coeffs, dtype=np.float64)
    out = np.zeros_like(coeffs)
    for j in range(1, len(coeffs)):
        out[j] = V @ ((V.T @ (coeffs[j] * op.sigma)) / op._symbol(2 * j + 1))
    return out


def lu_newton_step(phi, prob, rhs):
    """``kgbreather.kernelsolver.DnlsProblem.newton_step`` by a sparse LU of
    the assembled G0'(phi), as every Newton step was solved in 1d before."""
    return splu(assembled_g0_jacobian(phi, prob)).solve(rhs)
