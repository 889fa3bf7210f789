"""The bifurcation (kernel) equation and its Newton continuation.

Projecting the wave problem onto the cos(tau) harmonic and dividing out the
amplitude scaling leaves, for the kernel profile phi,

    G(phi) = G0(phi) + R(phi) = 0,
    G0(phi) = -(a/mu^2) lap phi + m phi - |phi|^(2p) phi,

where R collects the feedback of the range component,

    R(phi) = -( P1[ N(phi cos + w(phi)) ] - |phi|^(2p) phi ),

with w(phi) the solved range equation and P1 the first cosine coefficient.
The normalization of the model coupling beta makes P1[N(phi cos)] equal to
|phi|^(2p) phi exactly, so R is quadratically small in mu and G0 is the
discrete NLS that converges to the continuum ground state equation.

Every field here, phi, G0, R and the range stack, lives on the
fundamental block (indices j >= 0 per axis), the one representation of a
reflection-even field, and Newton runs in its orbit coordinates, phi
times lattice.orbit_weights: the full Jacobian is exactly singular in the
odd sector only up to exponentially small Peierls-Nabarro splittings,
which the reduction removes wholesale.  G0' is built there directly: per
axis the Dirichlet -lap on j = 0..K with the reflection folded into its
first row (lattice.minus_laplacian_bands), the axes joined by a
Kronecker sum, plus the diagonal m - (2p+1)|phi|^(2p) on the block,
whose scaled bands are built once per problem (DnlsProblem).  A
Newton step is a tridiagonal solve in 1d (dgtsv, which pivots: G0' is
indefinite) and a sparse LU in 2d.

The kernel equation is solved by a chord iteration with the exact
G0'(phi) as its Jacobian.  The discrete NLS ground state is nondegenerate
in the symmetric sector (Bambusi & Penati, Nonlinearity 23 (2010)), so G0'
is invertible there, and the omitted R'(phi) is O(mu^2): the iteration
contracts at rate O(mu^2), a few steps at every mu the pipeline resolves,
and never differentiates the range solve.

hessian_diagnostics checks that nondegeneracy on one path in both
dimensions.  -lap is positive definite, so G0' lies strictly above the
floor min(m - (2p+1)|phi|^(2p)), and a shift-invert about it finds the two
lowest eigenvalues.  The lowest on the complement of q = phi/|phi| is the
root between them of the secular function q.(G0' - s)^-1 q, which
increases between those poles (Golub, SIAM Review 15 (1973) 318-334).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import eigsh, splu

from .errors import ConvergenceError, GuardError
from .groundstate import check_exponent
from .lattice import (
    laplacian, minus_laplacian_bands, mirror_block, orbit_weights, padded_block,
)
from .rangesolver import RangeOperator, solve_range_equation
from .timespectral import default_node_count, nonlinearity_map, odd_collocation

_DNLS_MAX_ITER = 40  # Newton steps of the pure discrete NLS solve
_KERNEL_MAX_ITER = 30  # chord steps of the kernel continuation


@dataclass(frozen=True)
class DnlsProblem:
    """Parameters of the kernel equation on a fixed box."""

    grid: object
    p: float
    mu: float
    coupling: float
    multiplier: float

    def __post_init__(self):
        check_exponent(self.grid.n, self.p)
        if not (0.0 < self.coupling < 0.5):
            raise GuardError(f"coupling must sit in (0, 1/2), got {self.coupling}")
        if not (0.0 < self.mu):
            raise GuardError(f"mu must be positive, got {self.mu}")
        if not (self.multiplier * self.mu**2 < 0.5):
            raise GuardError(
                f"need m mu^2 < 1/2 (got {self.multiplier * self.mu ** 2:.3f}); "
                "the frequency would leave the invertibility window"
            )

    @property
    def omega_sq(self):
        return 1.0 - self.multiplier * self.mu**2

    @cached_property
    def scaled_bands(self):
        """(diag, off) of (a/mu^2)(-lap) per axis, built once per problem."""
        c = self.coupling / self.mu**2
        bands = (minus_laplacian_bands(self.grid.K, o) for o in self.grid.offsets)
        return [(c * d, c * e) for d, e in bands]

    @cached_property
    def scaled_minus_laplacian(self):
        """The same as CSC, the axes joined by a Kronecker sum, and the
        positions of its diagonal in ``data``, by column."""
        mats = [sparse.diags([e, d, e], offsets=[-1, 0, 1])
                for d, e in self.scaled_bands]
        if self.grid.n == 1:
            pattern = mats[0].tocsc()
        else:
            eye = sparse.identity(self.grid.K + 1)
            pattern = (sparse.kron(mats[0], eye) + sparse.kron(eye, mats[1])).tocsc()
        columns = np.repeat(np.arange(pattern.shape[1]), np.diff(pattern.indptr))
        return pattern, np.flatnonzero(pattern.indices == columns)

    def newton_step(self, phi, rhs, shift=0.0):
        """(G0'(phi) - shift)^-1 rhs in orbit coordinates: pivoting dgtsv
        in 1d (G0' is indefinite), a sparse LU in 2d; None if singular."""
        if self.grid.n == 1:
            (diag, off), = self.scaled_bands
            *_, step, info = dgtsv(off, diag - shift + _g0_diagonal(phi, self), off, rhs)
            return step if info == 0 else None
        try:
            lu = splu(reduced_g0_jacobian(phi, self, shift))
        except RuntimeError:  # "Factor is exactly singular"
            return None
        return lu.solve(rhs)

    def apply_g0(self, phi):
        """G0 on the block, whose Laplacian runs over lattice.padded_block:
        each block site reads the neighbours the box's Laplacian reads, in
        its order, so G0 is the box's restricted to the block, bit for bit."""
        lap = laplacian(padded_block(phi, self.grid))[(slice(1, None),) * self.grid.n]
        return (
            -(self.coupling / self.mu**2) * lap
            + self.multiplier * phi
            - np.abs(phi) ** (2.0 * self.p) * phi
        )


def _g0_diagonal(phi, prob):
    # m - (2p+1)|phi|^(2p) on the block, flattened: G0' less its -lap part
    power = np.abs(np.ravel(phi)) ** (2.0 * prob.p)
    return prob.multiplier - (2.0 * prob.p + 1.0) * power


def reduced_g0_jacobian(phi, prob, shift=0.0):
    """Sparse G0'(phi) - shift, G0' = (a/mu^2)(-lap) + m - (2p+1)|phi|^(2p), in
    orbit coordinates, for a block phi: a copy of the cached pattern's
    values plus the diagonal."""
    pattern, diagonal = prob.scaled_minus_laplacian
    data = pattern.data.copy()
    data[diagonal] += _g0_diagonal(phi, prob) - shift
    return sparse.csc_matrix((data, pattern.indices, pattern.indptr), pattern.shape)


@dataclass
class NewtonReport:
    converged: bool
    iterations: int
    residuals: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    range_iterations: int = 0


def _newton_reduced(phi0, prob, residual, tol, max_iter):
    """Damped Newton in the orbit coordinates x = phi * orbit_weights of
    the block, every step solved with G0' at the current iterate."""
    weights = orbit_weights(prob.grid)
    x = (np.asarray(phi0, dtype=np.float64) * weights).ravel()
    phi = x.reshape(weights.shape) / weights
    g = (residual(phi) * weights).ravel()
    res = float(np.linalg.norm(g))
    report = NewtonReport(converged=False, iterations=0, residuals=[res])
    scale = max(1.0, float(np.linalg.norm(x)))
    for iteration in range(1, max_iter + 1):
        if res <= tol * scale:
            report.converged = True
            break
        step = prob.newton_step(phi, g)
        if step is None:
            raise ConvergenceError(f"G0' is singular at Newton iteration {iteration}")
        lam = 1.0
        for _ in range(8):  # step halvings before the search gives up
            x_try = x - lam * step
            phi_try = x_try.reshape(weights.shape) / weights
            g_try = (residual(phi_try) * weights).ravel()
            res_try = float(np.linalg.norm(g_try))
            if res_try < res or res_try <= tol * scale:
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"Newton line search exhausted at iteration {iteration} "
                f"(residual {res:.3e})"
            )
        x, phi, g, res = x_try, phi_try, g_try, res_try
        report.iterations = iteration
        report.residuals.append(res)
        report.step_norms.append(float(np.linalg.norm(lam * step)))
    else:
        if res > tol * scale:
            raise ConvergenceError(
                f"Newton not converged in {max_iter} iterations "
                f"(residual {res:.3e})"
            )
        report.converged = True
    return phi, report


def solve_dnls_ground_state(prob, phi0, tol=1e-12):
    """Newton solve of the pure discrete NLS equation G0(phi) = 0, on the
    block from the block phi0."""
    return _newton_reduced(phi0, prob, prob.apply_g0, tol, _DNLS_MAX_ITER)


def kernel_remainder(phi, prob, w, L_max):
    """R(phi) = -(P1[N(phi cos + w)] - |phi|^(2p) phi) for a given range
    component w.

    ``phi`` and R live on the block, and ``w`` is an odd-row range stack
    there, as solve_range_equation returns it for the window ``L_max``;
    no range solve happens here.  N is sampled at the Q quarter-period
    nodes of the range solve's own M = default_node_count(L_max) time
    nodes, so R and the range solve share one projection; the one cached
    cosine row reads P1 off the samples at every window size.
    """
    phi = np.asarray(phi, dtype=np.float64)
    M = default_node_count(L_max)
    u = np.array(w, dtype=np.float64)
    u[0] = phi
    first = np.empty(phi.shape)
    for sl, spectrum in odd_collocation(
        (u,), M, nonlinearity_map(prob.p), analysis=True, rows=1
    ):
        first.reshape(-1)[sl] = spectrum[0]
    return -(first - np.abs(phi) ** (2.0 * prob.p) * phi)


def solve_kernel_equation(phi0, prob, L_max=8, tol=1e-11, range_tol=1e-12):
    """Chord Newton continuation of G(phi) = G0(phi) + R(phi) = 0 from phi0.

    Every step solves with the exact G0'(phi) in place of G'(phi).
    The dropped part R'(phi) is O(mu^2) small, so the iteration contracts
    at rate O(mu^2) (about 1e-3 per step at mu = 0.3) and needs no
    derivative of the range solve.  Each residual evaluation solves the
    range equation for phi in the harmonic window ``L_max`` to ``range_tol``
    (warm-started from the previous w), then projects the nonlinearity
    with kernel_remainder on the same nodes.

    phi0 and the returned phi live on the block.  Returns (phi, w, report,
    range_op); w is the range component of the returned phi, an odd-row
    stack on the block, and range_op serves any window on this grid.
    """
    op = RangeOperator(prob.grid, prob.omega_sq, prob.coupling)
    state = {"w": None, "range_iters": 0}

    def residual(phi):
        w, rep = solve_range_equation(
            phi, op, prob.p, prob.mu, L_max, w_init=state["w"], tol=range_tol
        )
        state["w"] = w
        state["range_iters"] += rep.iterations
        R = kernel_remainder(phi, prob, w, L_max)
        return prob.apply_g0(phi) + R

    phi, report = _newton_reduced(phi0, prob, residual, tol, _KERNEL_MAX_ITER)
    report.range_iterations = state["range_iters"]
    # the last residual evaluated belongs to the accepted iterate
    return phi, state["w"], report, op


@dataclass
class HessianDiagnostics:
    curvature_along_solution: float
    predicted_curvature: float
    tangent_min_eigenvalue: float
    min_abs_eigenvalue: float


def hessian_diagnostics(phi, prob):
    """Spectral structure of G0' at a block solution phi, in orbit
    coordinates.

    The solution direction is a strict descent direction:
    <G0'(phi) phi, phi> = -2p sum |phi|^(2p+2) (exact at solutions; the
    sum runs over the mirrored box); on the orthogonal complement of
    q = phi/|phi| the operator should be positive definite.  One shift-invert eigsh about the floor of G0', started from q
    (so deterministic), gives its lowest eigenvalues l0 < l1, and a second
    negative one raises GuardError; the tangent one is the secular root in
    (l0, l1), each value of the secular function one newton_step.
    """
    from scipy.optimize import brentq  # a top-level import slows every run

    phi = np.asarray(phi, dtype=np.float64)
    J_red = reduced_g0_jacobian(phi, prob)
    x = (phi * orbit_weights(prob.grid)).ravel()
    curvature = float(x @ (J_red @ x))
    box = mirror_block(phi, prob.grid)
    predicted = -2.0 * prob.p * float(np.sum(np.abs(box) ** (2.0 * prob.p + 2.0)))
    q = x / np.linalg.norm(x)
    floor = float(np.min(_g0_diagonal(phi, prob)))
    lo, hi = np.sort(eigsh(J_red, k=2, sigma=floor, v0=q, return_eigenvectors=False))
    if hi <= 0.0:
        raise GuardError(f"G0' has two negative directions ({lo:.3e}, {hi:.3e})")
    inset = 1e-8 * (hi - lo)  # (G0' - s) stays factorable near the poles
    tangent_min = brentq(
        lambda s: q @ prob.newton_step(phi, q, shift=s),
        lo + inset, hi - inset, xtol=1e-15,
    )
    return HessianDiagnostics(curvature, predicted, tangent_min, float(min(abs(lo), hi)))
