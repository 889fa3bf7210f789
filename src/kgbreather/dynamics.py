"""Direct time integration of the lattice equations of motion.

The assembled breather is a Fourier-space object; this module is the
independent check that it actually moves like a periodic orbit of

    q_j'' = a (lap q)_j - q_j + beta |q_j|^(2p) q_j

under a plain symplectic integrator that knows nothing about the spectral
construction.  Starting from q(0) = sum_l coeffs[l] (a cosine series has
zero velocity at t = 0; ``Breather.start_field`` adds it up), one period
of velocity-Verlet should return the state to where it started, with the
return error limited only by the integrator's O(dt^2) phase drag, and the
energy wandering at roundoff.
The stepper builds its buffers and the Laplacian's neighbor views once per
run, then updates them in place in the textbook operation order, so it is
bitwise the plain velocity-Verlet loop.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .lattice import _neighbor_views, dirichlet_energy
from .timespectral import nonlinearity_coefficient


def lattice_hamiltonian(q, qdot, coupling, p):
    """H = sum [ qdot^2/2 + q^2/2 - beta |q|^(2p+2)/(2p+2) ] + (a/2) sum_bonds (dq)^2."""
    beta = nonlinearity_coefficient(p)
    q = np.asarray(q, dtype=np.float64)
    qdot = np.asarray(qdot, dtype=np.float64)
    onsite = 0.5 * np.sum(qdot * qdot) + 0.5 * np.sum(q * q) - beta / (
        2.0 * p + 2.0
    ) * np.sum(np.abs(q) ** (2.0 * p + 2.0))
    return float(onsite + 0.5 * coupling * dirichlet_energy(q))


@dataclass
class IntegrationReport:
    periods: int
    steps_per_period: int
    dt: float
    return_error: float  # ||q(T)-q(0)||/||q(0)|| + ||qdot(T)||/(omega ||q(0)||)
    energy_drift: float  # max_t |H(t)-H(0)| / max(|H(0)|, 1)
    h_initial: float
    h_final: float

    def to_dict(self):
        return {
            k: int(v) if k in ("periods", "steps_per_period") else float(v)
            for k, v in self.__dict__.items()
        }


def integrate_period(b, steps_per_period=2048, periods=1, initial_coeffs=None):
    """Velocity-Verlet over whole periods of the breather.

    ``initial_coeffs`` substitutes a different cosine-coefficient stack on
    the same grid (e.g. the continuum reference field) so competing seeds
    can be raced under identical dynamics.  The report's energy drift,
    the largest sampled |H(t) - H(0)| relative to max(|H(0)|, 1), reads
    inf once the state blows up; a symplectic scheme that leaks energy
    signals a stepping problem, not a physics one.
    """
    if not isinstance(steps_per_period, (int, np.integer)) or steps_per_period < 16:
        raise GuardError(f"need integer steps >= 16 per period, got {steps_per_period!r}")
    if not isinstance(periods, (int, np.integer)) or periods < 1:
        raise GuardError(f"need integer periods >= 1, got {periods!r}")
    # cos(l omega t) all equal 1 at t = 0
    q0 = b.start_field() if initial_coeffs is None else np.sum(initial_coeffs, axis=0)
    if q0.shape != b.grid.shape:
        raise GuardError(
            f"initial stack {np.shape(initial_coeffs)} does not sit on grid "
            f"{b.grid.shape}"
        )
    beta = nonlinearity_coefficient(b.p)
    q, v = q0.copy(), np.zeros_like(q0)
    nonlin, kick, scratch = (np.empty_like(q) for _ in range(3))
    neighbors = _neighbor_views(q, kick, range(q.ndim))
    dt = b.period / steps_per_period
    # 0-d arrays spare each ufunc call the conversion of a Python float
    scalars = (-2.0 * q.ndim, b.coupling, beta, 2.0 * b.p, dt, 0.5 * dt)
    diagonal, coupling, beta_0d, power, dt_0d, half_dt = map(np.array, scalars)
    add, sub, mul, absolute, power_ = np.add, np.subtract, np.multiply, np.abs, np.power
    steps = steps_per_period * periods
    sample_every = max(1, steps // 512)  # energy is sampled ~512 times

    def evaluate_kick():
        # kick = (dt/2) (a lap q - q + beta |q|^(2p) q), grouped as written
        mul(q, diagonal, kick)
        for into, neighbor in neighbors:  # lap q, summed as laplacian sums it
            add(into, neighbor, into)
        sub(mul(kick, coupling, kick), q, kick)
        power_(absolute(q, nonlin), power, nonlin)
        mul(mul(nonlin, beta_0d, nonlin), q, nonlin)
        mul(add(kick, nonlin, kick), half_dt, kick)

    h0 = lattice_hamiltonian(q, v, b.coupling, b.p)
    h_scale = max(abs(h0), 1.0)
    drift = 0.0
    evaluate_kick()
    for step in range(1, steps + 1):
        add(v, kick, v)  # the same half kick ends one step and opens the next
        add(q, mul(v, dt_0d, scratch), q)
        evaluate_kick()
        add(v, kick, v)
        if step % sample_every == 0 or step == steps:
            h = lattice_hamiltonian(q, v, b.coupling, b.p)
            # a blown-up state has a non-finite H, which max() would skip
            drift = max(drift, abs(h - h0) / h_scale) if np.isfinite(h) else np.inf

    norm0 = float(np.linalg.norm(q0))
    if norm0 == 0.0:
        return_error = 0.0
    else:
        return_error = float(
            np.linalg.norm(q - q0) / norm0
            + np.linalg.norm(v) / (b.omega * norm0)
        )
    return IntegrationReport(
        periods=periods,
        steps_per_period=steps_per_period,
        dt=dt,
        return_error=return_error,
        energy_drift=drift,
        h_initial=h0,
        h_final=lattice_hamiltonian(q, v, b.coupling, b.p),
    )
