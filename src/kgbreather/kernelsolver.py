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
which the reduction removes wholesale.  DnlsProblem holds -lap there
once, as rangesolver.EvenSector, shared with its range_operator.  A
Newton step is a pivoting tridiagonal solve in 1d (dgtsv: G0' is
indefinite), and in 2d MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12
(1975) 617-629) on the matrix-free G0', which takes its one negative
direction, preconditioned by ((a/mu^2)(-lap) + m)^-1 on the sector: the
Newton-CG of J. Yang, J. Comput. Phys. 228 (2009) 7007-7024.

The kernel equation is solved by a chord iteration with the exact
G0'(phi) as its Jacobian.  The discrete NLS ground state is nondegenerate
in the symmetric sector (Bambusi & Penati, Nonlinearity 23 (2010)), so G0'
is invertible there, and the omitted R'(phi) is O(mu^2): the iteration
contracts at rate O(mu^2), a few steps at every mu the pipeline resolves,
and never differentiates the range solve.

hessian_diagnostics checks that nondegeneracy on one path in both
dimensions.  LOBPCG on the matrix-free G0', with the Newton
preconditioner, finds its two lowest eigenvalues.  The lowest on the
complement of q = phi/|phi| is the root between them of the secular
function q.(G0' - s)^-1 q, which increases between those poles (Golub,
SIAM Review 15 (1973) 318-334).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import ConvergenceError, GuardError
from .groundstate import check_parameters
from .lattice import block_laplacian, orbit_sizes, orbit_weights
from .rangesolver import EvenSector, RangeOperator, solve_range_equation
from .timespectral import default_node_count, first_harmonic

_DNLS_MAX_ITER = 40  # Newton steps of the pure discrete NLS solve
_KERNEL_MAX_ITER = 30  # chord steps of the kernel continuation
# a 2d Newton step: MINRES's stopping rule and budget, and the backward
# error above which its step has failed
_MINRES_RTOL, _MINRES_MAX_ITER, _MINRES_CHECK = 1e-14, 500, 1e-8
# the eigensolve: residual norm of the two lowest eigenpairs, and budget
_LOBPCG_TOL, _LOBPCG_MAX_ITER = 1e-9, 200


@dataclass(frozen=True)
class DnlsProblem:
    """Parameters of the kernel equation on a fixed box, in the paper's
    window (groundstate.check_parameters); mu is the grid's."""

    grid: object
    p: float
    coupling: float
    multiplier: float

    def __post_init__(self):
        check_parameters(self.grid.n, self.p, self.coupling, self.mu, self.multiplier)

    @property
    def mu(self):
        return self.grid.mu

    @property
    def omega_sq(self):
        return 1.0 - self.multiplier * self.mu**2

    @cached_property
    def sector(self):
        """The even-sector decomposition of -lap on the block, built once
        per problem for the Newton steps and the range inverse."""
        return EvenSector(self.grid)

    @cached_property
    def range_operator(self):
        """The range inverse of this problem, for every harmonic window."""
        return RangeOperator(self)

    @cached_property
    def preconditioner(self):
        """((a/mu^2)(-lap) + m)^-1 in orbit coordinates, SPD, by the even
        sector, for the 2d Newton steps and the eigensolve; it holds the
        sector, not the problem that caches it, so it makes no cycle."""
        from scipy.sparse.linalg import LinearOperator

        sector, c, m = self.sector, self.coupling / self.mu**2, [self.multiplier]
        return LinearOperator((sector.s.size,) * 2, dtype=np.float64, matvec=lambda x:
                              sector.solve(x.reshape((1, *sector.s.shape)), c, m).ravel())

    def g0_jacobian(self, phi):
        """G0'(phi) in orbit coordinates, matrix-free: the Laplacian of
        apply_g0 between the orbit weights, plus m - (2p+1)|phi|^(2p)."""
        from scipy.sparse.linalg import LinearOperator

        weights, diag = orbit_weights(self.grid), _g0_diagonal(phi, self)

        def matvec(x):
            u = np.reshape(x, weights.shape) / weights
            return (self._minus_lap(u) * weights).ravel() + diag * np.ravel(x)

        return LinearOperator((diag.size,) * 2, matvec=matvec, dtype=np.float64)

    def newton_step(self, phi, rhs, shift=0.0):
        """(G0'(phi) - shift)^-1 rhs in orbit coordinates: pivoting dgtsv
        on the bands in 1d, preconditioned MINRES on g0_jacobian in 2d;
        None if singular or not converged."""
        if self.grid.n == 1:
            c, (diag, off) = self.coupling / self.mu**2, self.sector.bands
            *_, step, info = dgtsv(c * off, c * diag - shift + _g0_diagonal(phi, self),
                                   c * off, rhs)
            return step if info == 0 else None
        from scipy.sparse.linalg import minres

        G0 = self.g0_jacobian(phi)
        step, info = minres(G0, rhs, shift=shift, M=self.preconditioner,
                            rtol=_MINRES_RTOL, maxiter=_MINRES_MAX_ITER)
        # a singular G0' ends in a least-squares step: check its backward error
        applied = G0 @ step
        error = np.linalg.norm(rhs - applied + shift * step)
        bound = _MINRES_CHECK * (np.linalg.norm(applied) + np.linalg.norm(rhs))
        return step if info == 0 and error <= bound else None

    def _minus_lap(self, u):
        # -(a/mu^2) lap u on the block: the box's, lattice.block_laplacian
        return -(self.coupling / self.mu**2) * block_laplacian(u, self.grid)

    def apply_g0(self, phi):
        """G0 on the block, whose Laplacian is lattice.block_laplacian: each
        block site reads the neighbours the box's Laplacian reads, in its
        order, so G0 is the box's restricted to the block, bit for bit."""
        return self._minus_lap(phi) + self.multiplier * phi - np.abs(phi) ** (2.0 * self.p) * phi


def _g0_diagonal(phi, prob):
    # m - (2p+1)|phi|^(2p) on the block, flattened: G0' less its -lap part
    power = np.abs(np.ravel(phi)) ** (2.0 * prob.p)
    return prob.multiplier - (2.0 * prob.p + 1.0) * power


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
            raise ConvergenceError(f"Newton line search exhausted at iteration "
                                   f"{iteration} (residual {res:.3e})")
        x, phi, g, res = x_try, phi_try, g_try, res_try
        report.iterations = iteration
        report.residuals.append(res)
        report.step_norms.append(float(np.linalg.norm(lam * step)))
    else:
        if res > tol * scale:
            raise ConvergenceError(f"Newton not converged in {max_iter} iterations "
                                   f"(residual {res:.3e})")
        report.converged = True
    return phi, report


def solve_dnls_ground_state(prob, phi0, tol=1e-12):
    """Newton solve of the pure discrete NLS equation G0(phi) = 0, on the
    block from the block phi0."""
    return _newton_reduced(phi0, prob, prob.apply_g0, tol, _DNLS_MAX_ITER)


def kernel_remainder(phi, prob, w, L_max, tail=False):
    """R(phi) = -(P1[N(phi cos + w)] - |phi|^(2p) phi) for a given range
    component w.

    ``phi`` and R live on the block, and ``w`` is an odd-row range stack
    there, as solve_range_equation returns it for the window ``L_max``;
    no range solve happens here.  N is sampled at the Q quarter-period
    nodes of the range solve's own M = default_node_count(L_max) time
    nodes, so R and the range solve share one projection; the one cached
    cosine row reads P1 off the samples at every window size
    (timespectral.first_harmonic).  With ``tail``, returns (R, tail):
    the same samples also give the harmonic tail of N(u) past the window,
    orbit-weighted, from one all-Q analysis, and R keeps its bits.
    """
    phi = np.asarray(phi, dtype=np.float64)
    u = np.array(w, dtype=np.float64)
    u[0] = phi
    first, tail_fraction = first_harmonic(
        u, prob.p, M=default_node_count(L_max),
        weights=orbit_sizes(prob.grid) if tail else None,
    )
    R = -(first - np.abs(phi) ** (2.0 * prob.p) * phi)
    return (R, tail_fraction) if tail else R


def solve_kernel_equation(phi0, prob, L_max=8, tol=1e-11, range_tol=1e-12):
    """Chord Newton continuation of G(phi) = G0(phi) + R(phi) = 0 from phi0.

    Every step solves with the exact G0'(phi) in place of G'(phi).
    The dropped part R'(phi) is O(mu^2) small, so the iteration contracts
    at rate O(mu^2) (about 1e-3 per step at mu = 0.3) and needs no
    derivative of the range solve.  Each residual evaluation solves the
    range equation for phi in the harmonic window ``L_max`` to ``range_tol``
    (warm-started from the previous w), then projects the nonlinearity
    with kernel_remainder on the same nodes.

    phi0 and the returned phi live on the block.  Returns (phi, w, report);
    w, solved with prob.range_operator, is the range component of the
    returned phi, an odd-row stack on the block.
    """
    state = {"w": None, "range_iters": 0}

    def residual(phi):
        w, rep = solve_range_equation(phi, prob, L_max, w_init=state["w"], tol=range_tol)
        state["w"] = w
        state["range_iters"] += rep.iterations
        R = kernel_remainder(phi, prob, w, L_max)
        return prob.apply_g0(phi) + R

    phi, report = _newton_reduced(phi0, prob, residual, tol, _KERNEL_MAX_ITER)
    report.range_iterations = state["range_iters"]
    # the last residual evaluated belongs to the accepted iterate
    return phi, state["w"], report


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
    box sum, taken orbit-weighted on the block); on the orthogonal
    complement of q = phi/|phi| the operator should be positive definite.
    LOBPCG on the matrix-free G0', preconditioned as the 2d Newton steps
    and started from q and a fixed second vector (so deterministic), gives
    its lowest eigenvalues l0 < l1, and a second negative one raises
    GuardError; the tangent one is the secular root in (l0, l1), each
    value of the secular function one newton_step.
    """
    # imported here: a top-level import slows every run
    from scipy.optimize import brentq
    from scipy.sparse.linalg import lobpcg

    phi = np.asarray(phi, dtype=np.float64)
    G0 = prob.g0_jacobian(phi)
    x = (phi * orbit_weights(prob.grid)).ravel()
    curvature = float(x @ (G0 @ x))
    predicted = -2.0 * prob.p * float(
        np.sum(orbit_sizes(prob.grid) * np.abs(phi) ** (2.0 * prob.p + 2.0)))
    q = x / np.linalg.norm(x)
    start = np.column_stack([q, np.cos(np.arange(q.size))])
    lo, hi = np.sort(lobpcg(G0, start, M=prob.preconditioner, tol=_LOBPCG_TOL,
                            maxiter=_LOBPCG_MAX_ITER, largest=False)[0])
    if hi <= 0.0:
        raise GuardError(f"G0' has two negative directions ({lo:.3e}, {hi:.3e})")
    inset = 1e-8 * (hi - lo)  # (G0' - s) stays solvable near the poles
    tangent_min = brentq(
        lambda s: q @ prob.newton_step(phi, q, shift=s),
        lo + inset, hi - inset, xtol=1e-15,
    )
    return HessianDiagnostics(curvature, predicted, tangent_min, float(min(abs(lo), hi)))
