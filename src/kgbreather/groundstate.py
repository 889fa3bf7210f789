"""Ground states of the continuum focusing NLS that governs the small-
amplitude limit.

The profile psi solves -lap psi + m psi = psi^(2p+1) on R^n (n = 1, 2),
radial, positive, decaying, with unit mass int psi^2 dx = 1; the multiplier
m is fixed by that normalization and later sets the breather frequency
through omega^2 = 1 - m mu^2.  In 1d everything is closed form.  In 2d the
profile is computed radially: Petviashvili iteration for the unscaled
equation, settled at the roundoff floor of its residual, then a bordered
Newton solve (profile + multiplier, mass pinned by Simpson quadrature) on
a fine grid; each step solves the tridiagonal radial Laplacian by LAPACK
dgtsv.  scipy.integrate and scipy.interpolate are imported by that
2d branch, so 1d never loads them.

A profile for coupling a is the unit-coupling profile sampled at r/sqrt(a):
if -psi'' + m psi = psi^(2p+1) then psi(x/sqrt(a)) solves the same equation
with -a lap, same m and same amplitude.  sample_reference exploits this.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.special import gamma

from .errors import ConvergenceError, GuardError
from .lattice import block_slices

# the 2d radial solve: node spacing, least Dirichlet radius, Newton steps
_H = 0.01
_R_MAX = 200.0
_MAX_ITER = 50
# Petviashvili's stopping rule (relative update) and its iteration budget
_PETVIASHVILI_TOL = 1e-13
_PETVIASHVILI_MAX_ITER = 500
_PROFILE_POINTS = 2000  # samples per profile that save_profile writes


def check_exponent(n, p):
    """Admissible nonlinearity range 1/2 <= p < 2/n."""
    if not (0.5 <= p < 2.0 / n):
        raise GuardError(f"need 1/2 <= p < {2.0 / n} for n={n}, got p={p}")


def check_parameters(n, p, coupling, mu, multiplier=None):
    """The paper's window: 1/2 <= p < 2/n, 0 < a < 1/2, 0 < mu < inf and,
    given m, 0 < m mu^2 < 1/2, so 1/2 < omega^2 = 1 - m mu^2 < 1."""
    check_exponent(n, p)
    if not (0.0 < coupling < 0.5):
        raise GuardError(f"coupling must sit in (0, 1/2), got {coupling}")
    if not (0.0 < mu < np.inf):
        raise GuardError(f"mu must be positive and finite, got {mu}")
    if multiplier is not None and not (0.0 < multiplier * mu**2 < 0.5):
        raise GuardError(f"need 0 < m mu^2 < 1/2, got m={multiplier}, mu={mu}")


def sech_moment(p):
    """int_R sech(y)^(2/p) dy = sqrt(pi) Gamma(1/p) / Gamma(1/p + 1/2)."""
    return np.sqrt(np.pi) * gamma(1.0 / p) / gamma(1.0 / p + 0.5)


@dataclass
class GroundStateProfile:
    """Radial evaluator for the unit-mass NLS ground state."""

    n: int
    p: float
    multiplier: float  # m: Lagrange multiplier of the unit-mass constraint
    amplitude: float  # psi(0)
    r_max: float
    el_residual: float  # sup-norm of -lap psi + m psi - psi^(2p+1) on the grid
    _spline: object = field(default=None, repr=False)

    @property
    def decay_rate(self):
        """Asymptotic exponential rate: psi ~ e^(-sqrt(m) r)."""
        return float(np.sqrt(self.multiplier))

    def __call__(self, r):
        r = np.abs(np.asarray(r, dtype=np.float64))
        if self.n == 1:
            q = 1.0 / self.p
            kappa = self.p * np.sqrt(self.multiplier)
            return self.amplitude * np.cosh(kappa * r) ** (-q)
        out = np.zeros_like(r)
        inside = r < self.r_max
        out[inside] = self._spline(r[inside])
        return out


def _radial_laplacian_2d(N, h):
    """-lap_r on nodes r_i = i*h, i = 0..N-1, zero Dirichlet at r = N*h, as
    its (lower, diag, upper) bands.

    Regularity at the center: lap u(0) = 2 u''(0) ~ 4 (u_1 - u_0) / h^2.
    """
    r = np.arange(N) * h
    diag = np.full(N, 2.0 / h**2)
    diag[0] = 4.0 / h**2
    upper = np.empty(N - 1)
    upper[0] = -4.0 / h**2
    upper[1:] = -1.0 / h**2 - 1.0 / (2.0 * r[1:-1] * h)
    lower = -1.0 / h**2 + 1.0 / (2.0 * r[1:] * h)
    return lower, diag, upper


def _apply_bands(bands, u):
    """The tridiagonal matrix of (lower, diag, upper) bands times u."""
    lower, diag, upper = bands
    out = diag * u
    out[1:] += lower * u[:-1]
    out[:-1] += upper * u[1:]
    return out


def _simpson_weights(N, h):
    # N even intervals over N+1 nodes; last node is the Dirichlet ghost
    w = np.ones(N + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _petviashvili(p, extent, h):
    """Positive radial solution of -lap u + u = u^(2p+1) in 2d.

    A residual above ten times the roundoff floor of A u (entries up to
    4/h^2) is a ConvergenceError: the iteration settled short of the
    solution."""
    N = int(round(extent / h))
    r = np.arange(N) * h
    lower, diag, upper = A = _radial_laplacian_2d(N, h)
    diag += 1.0
    u = 3.0 * np.exp(-(r**2) / 4.0)
    gamma_exp = (2.0 * p + 1.0) / (2.0 * p)
    for _ in range(_PETVIASHVILI_MAX_ITER):
        nl = u ** (2.0 * p + 1.0)
        ratio = np.dot(u * r, _apply_bands(A, u)) / np.dot(u * r, nl)
        u_next = ratio**gamma_exp * dgtsv(lower, diag, upper, nl)[3]
        delta = np.max(np.abs(u_next - u))
        u = u_next
        if delta < _PETVIASHVILI_TOL * np.max(np.abs(u)):
            break
    else:
        raise ConvergenceError("Petviashvili iteration did not settle")
    row_sums = _apply_bands([np.abs(band) for band in A], np.ones(N))
    floor = np.finfo(float).eps * np.max(row_sums) * np.max(u)
    res = float(np.max(np.abs(_apply_bands(A, u) - u ** (2.0 * p + 1.0))))
    if res > 10.0 * floor:
        raise ConvergenceError(f"Petviashvili iteration stalled at {res:.2e}")
    return r, u


@lru_cache(maxsize=8)
def solve_ground_state(n, p, tol=1e-11):
    """Unit-mass ground state of -lap psi + m psi = psi^(2p+1) on R^n.

    Cached: the pipeline asks for the same profile once per continuation
    step and the 2d solve is not free.  ``tol`` must be finite and positive.
    """
    check_exponent(n, p)
    if not (0.0 < tol < np.inf):
        raise GuardError(f"tol must be finite and positive, got {tol}")
    if n == 1:
        I_p = sech_moment(p)
        m = (p / ((p + 1.0) ** (1.0 / p) * I_p)) ** (2.0 * p / (2.0 - p))
        A = (m * (p + 1.0)) ** (1.0 / (2.0 * p))
        return GroundStateProfile(n=1, p=p, multiplier=m, amplitude=A, r_max=np.inf,
                                  el_residual=0.0)

    # imported here: they pull in scipy.optimize and scipy.spatial, 1d needs none
    from scipy.integrate import simpson
    from scipy.interpolate import CubicSpline
    # 2d: Petviashvili for the unscaled profile, rescale to unit mass,
    # then polish profile and multiplier together with the mass pinned.
    h = _H
    r_u, u = _petviashvili(p, extent=60.0, h=h)
    mass_u = 2.0 * np.pi * simpson(u * u * r_u, dx=h)
    m = mass_u ** (-p / (1.0 - p))
    u_spline = CubicSpline(np.append(r_u, r_u[-1] + h), np.append(u, 0.0),
                           bc_type=((1, 0.0), "natural"))
    # the rescaled profile decays like e^(-sqrt(m) r); push the Dirichlet
    # truncation out far enough that it sits below machine precision
    r_max = max(_R_MAX, 35.0 / np.sqrt(m))
    N = int(round(r_max / h))
    if N % 2:
        N += 1
    if N > 2_000_000:
        raise GuardError(f"p={p} too close to critical for n=2: multiplier {m:.3e} "
                         f"needs a radial domain of {r_max:.0f}")
    r = np.arange(N) * h
    psi = m ** (1.0 / (2.0 * p)) * u_spline(np.minimum(np.sqrt(m) * r, r_u[-1] + h))
    lap = _radial_laplacian_2d(N, h)
    w = _simpson_weights(N, h)[:-1]  # ghost node carries psi = 0

    def mass(v):
        return 2.0 * np.pi * np.dot(w * r, v * v)

    converged = False
    for _ in range(_MAX_ITER):
        F_pde = _apply_bands(lap, psi) + m * psi - np.abs(psi) ** (2.0 * p) * psi
        F_mass = mass(psi) - 1.0
        if np.max(np.abs(F_pde)) < tol and abs(F_mass) < 1e-12:
            converged = True
            break
        # bordered system solved by block elimination: the PDE block stays
        # tridiagonal, the mass constraint contributes a rank-one border
        diag = lap[1] + (m - (2.0 * p + 1.0) * np.abs(psi) ** (2.0 * p))
        y_f, y_psi = dgtsv(lap[0], diag, lap[2], np.column_stack([F_pde, psi]))[3].T
        c = 4.0 * np.pi * (w * r * psi)
        dm = (np.dot(c, y_f) - F_mass) / np.dot(c, y_psi)
        psi = psi - (y_f - dm * y_psi)
        m = m - dm
    if not converged:
        raise ConvergenceError("bordered Newton for the 2d ground state stalled")

    spline = CubicSpline(np.append(r, r[-1] + h), np.append(psi, 0.0),
                         bc_type=((1, 0.0), "natural"))
    return GroundStateProfile(
        n=2, p=p, multiplier=float(m), amplitude=float(psi[0]), r_max=float(r[-1] + h),
        el_residual=float(np.max(np.abs(F_pde))), _spline=spline,
    )


def save_profile(path, profile):
    """Write (radius, value) samples as CSV plus a JSON sidecar.

    The sidecar ``<path>.json`` records n, p, the multiplier, the centre
    amplitude, the elliptic residual and the normalization convention.
    """
    import json

    r_stop = min(profile.r_max, 60.0 / profile.decay_rate)
    radii = np.linspace(0.0, r_stop, _PROFILE_POINTS)
    with open(path, "w") as fh:
        fh.write("radius,value\n")
        for r, v in zip(radii, profile(radii)):
            fh.write(f"{float(r)!r},{float(v)!r}\n")
    meta = {
        "n": profile.n,
        "p": profile.p,
        "multiplier": profile.multiplier,
        "amplitude": profile.amplitude,
        "r_max": r_stop,
        "el_residual": profile.el_residual,
        "normalization": "unit mass: int psi^2 dx = 1",
    }
    with open(f"{path}.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def sample_reference(profile, grid, coupling=1.0):
    """Ground state for the given coupling sampled at the lattice sites of
    the fundamental block, psi(|mu (j + offset)| / sqrt(coupling)); same
    multiplier and amplitude as the unit-coupling profile.  The profile is
    radial, so lattice.mirror_block of the sample is the box field."""
    if not (coupling > 0.0):
        raise GuardError(f"coupling must be positive, got {coupling}")
    if profile.n != grid.n:
        raise GuardError(f"profile is {profile.n}d, grid is {grid.n}d")
    radii = grid.radius_mesh(scale=np.sqrt(coupling))[block_slices(grid)]
    return profile(radii)
