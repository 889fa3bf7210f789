"""Direct time integration of the lattice equations of motion.

The assembled breather is a Fourier-space object; this module is the
independent check that it actually moves like a periodic orbit of

    q_j'' = a (lap q)_j - q_j + beta |q_j|^(2p) q_j

under a plain symplectic integrator that knows nothing about the spectral
construction.  Starting from q(0) = sum_l coeffs[l] (a cosine series has
zero velocity at t = 0; ``Breather.start_field`` adds it up), one period
of leapfrog should return the state to where it started, with the
return error limited only by the integrator's O(dt^2) phase drag, and the
energy wandering at roundoff.
The stepper is velocity-Verlet in kick-drift form: the scaled momentum
dt v lives at half steps, so each step takes one fused force evaluation
(9 numpy calls in 1D) on buffers built once per run, and v itself is
rebuilt only at the energy samples and at the end.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .lattice import dirichlet_energy
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
    """Leapfrog (Stormer-Verlet) over whole periods of the breather.

    The stepper runs the kick-drift form in the scaled momentum P = dt v
    at half steps: q += P, then one force f = dt^2 F(q), then P += f, so
    the closing half kick of one velocity-Verlet step and the opening half
    kick of the next are one.  v = (P - f/2)/dt is rebuilt only where the
    energy is sampled and at the end.
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
    n = q0.ndim
    # Every field lives in one flat layout: the grid between two zero
    # hyperplanes across axis 0, each line along another axis closed by one
    # zero slot.  A site's neighbors are then the field at fixed flat
    # offsets, so the stepper works on one contiguous span (the grid's
    # hyperplanes with their zero slots) and reads each neighbor as a view.
    layout = (q0.shape[0] + 2,) + tuple(size + 1 for size in q0.shape[1:])
    offsets = [int(np.prod(layout[ax + 1:])) for ax in range(n)]
    size, edge = int(np.prod(layout)), offsets[0]
    grid_view = (slice(1, -1),) + (slice(None, -1),) * (n - 1)

    def field():
        flat = np.zeros(size)
        return flat, flat.reshape(layout)[grid_view], flat[edge:size - edge]

    dt = b.period / steps_per_period
    dt2 = dt * dt
    # dt^2 F(q) = c_lap (neighbor sum) + (c_nl |q|^(2p) + c_diag) q.  c_lap
    # is zero on the zero slots, so their force, P and q stay zero.
    (padded, q_grid, q), (_, v_grid, v), (_, lap_grid, c_lap) = (
        field() for _ in range(3)
    )
    q_grid[...] = q0
    lap_grid.fill(dt2 * b.coupling)
    first, second, *others = (
        padded[edge + shift:size - edge + shift]
        for offset in offsets
        for shift in (offset, -offset)  # forward, then backward
    )
    momentum, force, neighbor_sum, nonlin = (np.empty_like(q) for _ in range(4))
    # 0-d arrays spare each ufunc call the conversion of a Python float
    scalars = (
        dt2 * nonlinearity_coefficient(b.p),
        -dt2 * (2.0 * n * b.coupling + 1.0),
        2.0 * b.p,
        0.5,
        dt,
    )
    c_nl, c_diag, power, half, dt_0d = map(np.array, scalars)
    # numpy computes |q| ** 2.0 as square(|q|), which is q * q bit for bit
    square = 2.0 * b.p == 2.0
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
    absolute, power_ = np.abs, np.power
    steps = steps_per_period * periods
    sample_every = max(1, steps // 512)  # energy is sampled ~512 times

    def evaluate_force():
        add(first, second, neighbor_sum)
        for neighbor in others:
            add(neighbor_sum, neighbor, neighbor_sum)
        if square:
            mul(q, q, nonlin)
        else:
            power_(absolute(q, nonlin), power, nonlin)
        add(mul(nonlin, c_nl, nonlin), c_diag, nonlin)
        mul(nonlin, q, nonlin)
        add(mul(neighbor_sum, c_lap, neighbor_sum), nonlin, force)

    h0 = lattice_hamiltonian(q_grid, v_grid, b.coupling, b.p)
    h_scale = max(abs(h0), 1.0)
    drift = 0.0
    evaluate_force()
    mul(force, half, momentum)  # the opening half kick from rest
    for done in range(0, steps, sample_every):
        for _ in range(min(sample_every, steps - done)):
            add(q, momentum, q)
            evaluate_force()
            add(momentum, force, momentum)
        # v at the step whose force is f: P less the half kick not yet taken
        div(sub(momentum, mul(force, half, v), v), dt_0d, v)
        h = lattice_hamiltonian(q_grid, v_grid, b.coupling, b.p)
        # a blown-up state has a non-finite H, which max() would skip
        drift = max(drift, abs(h - h0) / h_scale) if np.isfinite(h) else np.inf

    norm0 = float(np.linalg.norm(q0))
    if norm0 == 0.0:
        return_error = 0.0
    else:
        return_error = float(
            np.linalg.norm(q_grid - q0) / norm0
            + np.linalg.norm(v_grid) / (b.omega * norm0)
        )
    return IntegrationReport(
        periods=periods,
        steps_per_period=steps_per_period,
        dt=dt,
        return_error=return_error,
        energy_drift=drift,
        h_initial=h0,
        h_final=lattice_hamiltonian(q_grid, v_grid, b.coupling, b.p),
    )
