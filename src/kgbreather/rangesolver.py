"""Inversion of the wave operator away from the bifurcating harmonic, and
the contraction solve of the range equation.

In scaled time tau = omega t the linearization of the lattice wave problem
acts per cosine harmonic as the symbol

    sigma(l, s) = 1 - omega^2 l^2 + a s,

where s runs over the spectrum of minus the Dirichlet Laplacian of the box
(DST-I modes, s in (0, 4n)).  Harmonic l = 1 carries the bifurcation and is
excluded.  The range component w of a wave u = mu^(1/p) (phi cos tau + w)
then solves the fixed-point problem

    w = mu^2 Linv P_range beta |phi cos + w|^(2p) (phi cos + w),

a contraction for small amplitudes; solve_range_equation iterates it with a
rate guard and an a-priori smallness estimate, and stops on the Banach
a-posteriori bound of the last update.

phi, and with it every iterate w, is even under reflection through the box
center, and the nonlinearity acts site by site.  So the whole solve works
on the fundamental block, indices j = 0..K per axis (half the sites in 1d,
about a quarter in 2d): the iterates, the nonlinearity and the inversion.
Only odd harmonics occur (timespectral), so every stack holds the odd
rows alone, row j harmonic 2j+1: one eighth of a whole-box stack in 2d.
On one axis of N sites the reflection-even Dirichlet eigenvectors are the
odd DST-I modes k = 2m + 1, and restricted to the block they read

    V[j, m] = sqrt(2/(N+1)) cos(pi (2m+1) (j + offset) / (N+1)),

m = 0..K, orthonormal under the orbit sizes sigma_j (the number of box
sites that block site j stands for), so U = S V, S = sqrt(sigma), is
orthogonal, and in the orbit coordinates S g the operator -lap is the
tridiagonal of minus_laplacian_bands per axis.  EvenSector holds this
once per grid and inverts c (-lap) + d on it: by the LDL^T of the bands
in 1d (LAPACK dpttrf once per (c, d), then dpttrs), O(rows K) with no
basis, and in 2d by U per axis, one matrix product each way per axis for
every centering and any N, V read off a table of the 4 (N+1) values of
one period.  The range inverse is S^-1 of it at c = -a,
d = omega^2 l^2 - 1, on -S g (-L_l > 3/2 is SPD in 1d, below); the 2d
Newton steps of kernelsolver use the same sector.
Norms weight each block site by its orbit size, so they read the same as
on the box.

The symbol is therefore only ever divided on this even sector and for the
odd harmonics l = 3, 5, ..., L.  The operator acts harmonic by harmonic,
so it knows no window L: the window is an argument of the range solve.
Under the guards 1/2 < omega^2 < 3/2 and 0 < a s < 4, every l >= 5 has
symbol < 1 - 25/2 + 4 = -7.5, further from zero than any l = 3 value, so
the constructor checks the symbol (ResonanceError) and takes
spectral_margin at l = 3 alone.  With omega^2 > 1/2 and a < 1/2, every
1d symbol is below 1 - 9/2 + 2 = -3/2, so a resonance is possible only in
2d (a s up to 8a), with omega^2 < 5/9.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import ConvergenceError, GuardError, ResonanceError
from .lattice import GridSpec, minus_laplacian_bands, orbit_sizes, orbit_weights
from .timespectral import (
    apply_nonlinearity, default_node_count, nonlinearity_coefficient, nonlinearity_map,
    odd_collocation, sobolev_time_norm,
)

_RESONANCE_MARGIN = 1e-8  # a smaller |symbol| on a range harmonic is a ResonanceError
_MAX_ITER = 200  # Picard steps before the range solve is a ConvergenceError
_RATE_GUARD = 0.9  # a slower observed contraction is a GuardError
_SMALLNESS_THRESHOLD = 0.1  # a larger a-priori contraction estimate is a GuardError
_FACTORS_KEPT = 4  # 1d LDL^T factorizations an EvenSector keeps, oldest dropped first


def _even_basis(N, K, offset):
    """V[j, m] = sqrt(2/(N+1)) cos(pi (2m+1)(j + offset) / (N+1)), j, m = 0..K.

    The angle is pi t / (2 (N+1)) for the integer t = (2j + 2 offset)(2m+1),
    so V gathers from a table of the 4 (N+1) values of one period at t mod
    4 (N+1), in row blocks of at most 2^16 indices.  V is allocated first:
    t < (2K+2)^2 stays below 2^63 for any V that fits in memory."""
    table = np.cos(np.arange(4 * (N + 1)) * (np.pi / (2.0 * (N + 1))))
    table *= np.sqrt(2.0 / (N + 1))
    V = np.empty((K + 1, K + 1))
    odd = 2 * np.arange(K + 1, dtype=np.int64) + 1
    step = max(1, (1 << 16) // (K + 1))
    for lo in range(0, K + 1, step):
        rows = V[lo : lo + step]
        t = np.multiply.outer(2 * np.arange(lo, lo + len(rows)) + int(2 * offset), odd)
        t %= len(table)
        np.take(table, t, out=rows, mode="clip")  # t is in range: no checked copy
    return V


class EvenSector:
    """-lap on the block in orbit coordinates on the reflection-even
    sector of ``grid`` (module docstring): the DST-I spectrum ``s``, and
    the bands in 1d or the orthogonal U = S V per axis in 2d."""

    def __init__(self, grid):
        self.grid = grid
        # the reflection-even Dirichlet modes are the odd k = 2m + 1
        s = [2.0 - 2.0 * np.cos(np.pi * np.arange(1, N + 1, 2) / (N + 1)) for N in grid.shape]
        self.s = s[0] if grid.n == 1 else s[0][:, None] + s[1][None, :]
        if grid.n == 1:
            self.bands = minus_laplacian_bands(grid.K, grid.offsets[0])
            self._factors = {}
        else:
            self.basis = [orbit_weights(GridSpec(1, grid.K, grid.mu, (o,)))[:, None]
                          * _even_basis(N, grid.K, o) for N, o in zip(grid.shape, grid.offsets)]

    def solve(self, x, c, d):
        """(c (-lap) + d_j)^-1 x_j in orbit coordinates for every row j of a
        stack x, (r, K+1[, K+1]); in 1d each must be positive definite
        (the rows joined by zeros, factored once per (c, d) by dpttrf and
        solved by dpttrs: the two calls of dptsv, so its bits)."""
        if self.grid.n == 1:
            d = np.asarray(d, dtype=np.float64)
            y, _ = dpttrs(*self._factor(c, d), np.ravel(x))
            return y.reshape(len(d), -1)
        # 2d: U^T, then U, along both axes, the trailing one by one GEMM
        U0, U1 = self.basis
        hat = U0.T @ x
        hat = (hat.reshape(-1, hat.shape[-1]) @ U1).reshape(hat.shape)
        for row, dj in zip(hat, d):
            row /= c * self.s + dj
        hat = U0 @ hat
        return (hat.reshape(-1, hat.shape[-1]) @ U1.T).reshape(hat.shape)

    def _factor(self, c, d):
        """The LDL^T factors of the 1d bands of c (-lap) + d_j, the rows
        joined by zeros, from dpttrf; the last _FACTORS_KEPT are kept."""
        key = (float(c), d.tobytes())
        factors = self._factors.get(key)
        if factors is None:
            diag, off = self.bands
            dd = d[:, None] + c * diag
            e = np.tile(np.append(c * off, 0.0), len(d))[:-1]
            *factors, info = dpttrf(dd.ravel(), e, overwrite_d=1, overwrite_e=1)
            if info > 0:
                raise GuardError(f"operator not definite (dpttrf info {info})")
            if len(self._factors) >= _FACTORS_KEPT:
                del self._factors[next(iter(self._factors))]
            self._factors[key] = factors
        return factors


class RangeOperator:
    """Per-harmonic inverse of L = omega^2 d_tautau + I - a lap on the
    range, the odd harmonics l >= 3 on the reflection-even sector, for any
    harmonic window, through ``sector`` (the grid's EvenSector, built here
    when not given).  The symbol is checked on its spectrum, and
    spectral_margin and neumann_margin read it; the smallest |symbol| over
    all l >= 3 is the l = 3 one (module docstring), so both read l = 3."""

    def __init__(self, grid, omega_sq, coupling, sector=None):
        if not (0.0 < coupling < 0.5):
            raise GuardError(f"need coupling in (0, 1/2), got {coupling}")
        if not (abs(omega_sq - 1.0) < 0.5):
            raise GuardError(f"need |omega^2 - 1| < 1/2 for invertibility, got {omega_sq}")
        self.grid = grid
        self.omega_sq = float(omega_sq)
        self.coupling = float(coupling)
        self.sector = EvenSector(grid) if sector is None else sector
        self.sigma = orbit_sizes(grid)
        self._root_sigma = np.sqrt(self.sigma)
        self._shifts = {}  # omega^2 l^2 - 1 over l = 3, 5, .. per row count
        # invertibility margin over every range harmonic, taken at l = 3
        self.spectral_margin = float(np.min(np.abs(self._symbol(3))))
        if self.spectral_margin < _RESONANCE_MARGIN:
            raise ResonanceError(3, self.spectral_margin)
        # margin of the naive Neumann-series bound (diagnostic only: the
        # direct per-mode inversion above does not rely on it)
        self.neumann_margin = 1.0 - self.coupling * float(np.max(self.sector.s))

    def _symbol(self, l):
        return (1.0 - self.omega_sq * l * l) + self.coupling * self.sector.s

    def solve(self, coeffs):
        """L^-1 restricted to the range, on odd-row fundamental-block
        stacks of shape (r, K+1[, K+1]), row j harmonic 2j+1: harmonic 1
        (row 0) of the input is discarded and comes back as zero."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        out = np.empty_like(coeffs)
        out[0] = 0.0
        if len(coeffs) == 1:
            return out
        shift = self._shifts.get(len(coeffs))
        if shift is None:
            l = 2.0 * np.arange(1, len(coeffs)) + 1.0
            shift = self._shifts[len(coeffs)] = self.omega_sq * l * l - 1.0
        S = self._root_sigma
        np.divide(self.sector.solve(coeffs[1:] * -S, -self.coupling, shift), S,
                  out=out[1:])
        return out


@dataclass
class RangeReport:
    converged: bool
    iterations: int
    final_update: float
    # delta s / (1 - s) at the last step, s the larger of smallness and the
    # last update ratio: the X2 distance of w to the fixed point (inf at s >= 1)
    error_bound: float
    contraction_rate: float
    smallness: float
    spectral_margin: float
    neumann_margin: float
    w_norm: float
    forcing_norm: float  # X0 norm of mu^2 N at w = 0
    response_ratio: float  # w_norm / forcing_norm (bounded-inverse check)
    tail_fraction: float = np.nan  # kernel_remainder's, set by the assembly
    updates: list = field(default_factory=list, repr=False)

    def to_dict(self):
        out = dict(self.__dict__)
        out["updates"] = [float(u) for u in self.updates]
        return out


@lru_cache(maxsize=8)
def _unit_forcing(p, M, rows):
    """sqrt(pi sum_j gamma_j^2) for the kept-row spectrum gamma of N(cos),
    the odd collocation of a unit field at M nodes: the X0 norm of N(v)
    for v = f cos per unit of || |f|^(2p) f ||, as N is homogeneous."""
    ((_, gamma),) = odd_collocation(
        (np.ones((1, 1)),), M, nonlinearity_map(p), analysis=True, rows=rows
    )
    return sobolev_time_norm(gamma, order=0, weights=np.ones(1))


def solve_range_equation(phi, op, p, mu, L_max, w_init=None, tol=1e-12):
    """Picard iteration for the range component given the kernel profile.

    ``L_max`` is the harmonic window L: the returned w keeps the odd
    harmonics up to L, and the nonlinearity is sampled at
    M = default_node_count(L) time nodes.  ``phi`` lives on the
    fundamental block; ``w_init`` and the returned w are odd-row stacks
    there, ((L+1)//2, K+1[, K+1]) with row j harmonic 2j+1, and w[0] = 0
    (no harmonic 1).  A ``w_init`` with fewer rows warm-starts those rows;
    the others start at zero, and the first step synthesises only the rows
    that may be nonzero.  The report's forcing norm, the X0 norm of
    mu^2 N(phi cos), is in closed form: N(phi cos) = |phi|^(2p) phi N(cos),
    so it is mu^2 sqrt(pi sum_j gamma_j^2) ||phi^(2p+1)||, gamma the
    kept-row spectrum of N(cos) (cached per p and window), with no pass
    over the window.  The tail is kernel_remainder's.

    The loop stops once the update delta, or the a-posteriori bound
    delta s / (1 - s) on the distance to the fixed point (s < 1 the larger
    of the a-priori estimate and the last update ratio), is at most
    ``tol`` max(1, ||w||); the report's error_bound is that bound at the
    last step, and its w_norm the ||w|| of that test.  Raises GuardError
    when the a-priori contraction estimate exceeds _SMALLNESS_THRESHOLD or
    the observed rate _RATE_GUARD, and ConvergenceError on observed
    divergence or after _MAX_ITER steps.
    """
    phi = np.asarray(phi, dtype=np.float64)
    beta = nonlinearity_coefficient(p)
    sigma = op.sigma
    M = default_node_count(L_max)
    rows = (L_max + 1) // 2

    # crude contraction estimate: Lipschitz constant of the projected
    # nonlinearity over the inversion margin, at the kernel amplitude
    amp = float(np.max(np.abs(phi)))
    smallness = mu**2 * beta * (2.0 * p + 1.0) * amp ** (2.0 * p) / op.spectral_margin
    if smallness > _SMALLNESS_THRESHOLD:
        raise GuardError(f"amplitude outside the contraction regime: estimate "
                         f"{smallness:.3f} > {_SMALLNESS_THRESHOLD} (mu = {mu})")

    w = np.zeros((rows,) + phi.shape)
    known = 1  # rows of phi cos + w that may be nonzero: phi's, and a warm start's
    if w_init is not None:
        w[: len(w_init)] = w_init
        known = max(known, len(w_init))
    updates = []
    rate = np.nan
    bad_steps = 0
    for iteration in range(1, _MAX_ITER + 1):
        u = w[:known].copy()  # the kernel part phi cos(tau) in row 0, where w is 0
        u[0] = phi
        w_next = mu**2 * op.solve(apply_nonlinearity(u, p, M=M, rows=rows))
        known = rows
        delta = sobolev_time_norm(w_next - w, weights=sigma)
        updates.append(delta)
        w = w_next
        w_norm = sobolev_time_norm(w, weights=sigma)  # the report's, at the last step
        scale = max(1.0, w_norm)
        ratio = delta / updates[-2] if len(updates) >= 2 and updates[-2] > 0.0 else np.nan
        # Banach a-posteriori bound on the distance to the fixed point, at
        # the larger of the a-priori and the observed rate (max drops NaN)
        s = max(smallness, ratio)
        bound = delta * s / (1.0 - s) if s < 1.0 else np.inf
        # judge contraction only while updates sit well above the target
        # floor; ratios of roundoff-sized updates mean nothing.  The ratio
        # is read before the stop test: the step that stops may be the
        # last one above that floor
        judged = delta > 10.0 * tol * scale and ratio == ratio
        if judged:
            rate = ratio
        if min(delta, bound) <= tol * scale:
            break
        if judged:
            if rate >= 1.0:
                bad_steps += 1
                if bad_steps >= 3:
                    raise ConvergenceError(f"range iteration diverging: update ratio "
                                           f"{rate:.3f} at step {iteration}")
            elif rate > _RATE_GUARD:
                raise GuardError(f"range iteration contracting too slowly: observed "
                                 f"rate {rate:.3f} > {_RATE_GUARD}")
            else:
                bad_steps = 0
    else:
        raise ConvergenceError(f"range iteration not converged in {_MAX_ITER} steps")

    # forcing strength: X0 size of the nonlinearity before any range
    # feedback (the bounded-inverse diagnostic divides w's size by this)
    power = np.abs(phi) ** (2.0 * p) * phi
    forcing_norm = mu**2 * _unit_forcing(p, M, rows) * float(
        np.sqrt(np.sum(sigma * power * power)))
    return w, RangeReport(
        converged=True, iterations=len(updates), final_update=updates[-1],
        error_bound=float(bound), contraction_rate=rate, smallness=smallness,
        spectral_margin=op.spectral_margin, neumann_margin=op.neumann_margin,
        w_norm=w_norm, forcing_norm=forcing_norm,
        response_ratio=w_norm / forcing_norm if forcing_norm else 0.0, updates=updates,
    )
