"""Tests for the direct integrator.

Oracle notes:

* Hamiltonian, single excited site of amplitude A on a 1d chain (p = 1,
  beta = 4/3): H = A^2/2 - (beta/4) A^4 + (a/2) * 2 A^2 -- the two bonds
  to the resting neighbours each carry A^2/2 of coupling energy.
* Velocity-Verlet return error after one period scales like dt^2; halving
  dt four times the steps must shrink the error by ~16.
* The continuum reference field seeded into the same integrator must
  return *worse* than the assembled breather: it is not a periodic orbit.
* The in-place stepper must reproduce, bit for bit, the kick-drift loop
  in ``tests/references.py`` that allocates a fresh array per operation,
  on every centering's grid shape.
* Kick-drift and textbook velocity-Verlet are one method in two operation
  orders, so the stepper must match the textbook loop in
  ``tests/references.py`` to roundoff: return error and energy drift to
  1e-9 relative, the final energy to 1e-13 relative, and the initial
  energy exactly.
* The stepper allocates nothing per step: 64 and 4,096 steps per period
  peak at the same traced memory, and between two energy samples the
  traced peak rises by less than half of one field.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from kgbreather.breather import (
    PipelineConfig,
    assemble_breather,
    reference_coefficients,
)
from kgbreather import dynamics
from kgbreather.dynamics import integrate_period, lattice_hamiltonian
from kgbreather.errors import GuardError
from references import leapfrog_report, verlet_report


@pytest.fixture(scope="module")
def b_small():
    cfg = PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.2, r_min=30.0)
    return assemble_breather(cfg)


def test_hamiltonian_single_site_oracle():
    A, a = 0.7, 0.3
    q = np.array([0.0, 0.0, A, 0.0, 0.0])
    qdot = np.zeros_like(q)
    beta = 4.0 / 3.0
    expected = 0.5 * A**2 - (beta / 4.0) * A**4 + 0.5 * a * (2.0 * A**2)
    assert lattice_hamiltonian(q, qdot, a, 1.0) == pytest.approx(
        expected, rel=1e-15
    )


def test_hamiltonian_kinetic_term():
    q = np.zeros(5)
    qdot = np.full(5, 2.0)
    assert lattice_hamiltonian(q, qdot, 0.3, 1.0) == pytest.approx(10.0)


def test_guards(b_small):
    with pytest.raises(GuardError):
        integrate_period(b_small, steps_per_period=8)
    with pytest.raises(GuardError):
        integrate_period(b_small, steps_per_period=64, periods=0)
    with pytest.raises(GuardError):
        integrate_period(b_small, initial_coeffs=np.zeros((3, 7)))
    with pytest.raises(GuardError, match="integer"):
        integrate_period(b_small, steps_per_period=1e3)
    with pytest.raises(GuardError, match="integer"):
        integrate_period(b_small, steps_per_period=64, periods=1.5)
    # numpy integers are counts too
    rep = integrate_period(b_small, steps_per_period=np.int64(64), periods=np.int32(1))
    assert rep.to_dict() == integrate_period(b_small, steps_per_period=64).to_dict()


def test_zero_data_returns_zero_error(b_small):
    rep = integrate_period(
        b_small,
        steps_per_period=64,
        initial_coeffs=np.zeros_like(b_small.coeffs),
    )
    assert rep.return_error == 0.0
    assert rep.energy_drift == 0.0
    assert rep.h_initial == 0.0


def test_return_error_second_order_in_dt(b_small):
    e_coarse = integrate_period(b_small, steps_per_period=1024).return_error
    e_fine = integrate_period(b_small, steps_per_period=4096).return_error
    assert e_fine < e_coarse
    assert e_coarse / e_fine == pytest.approx(16.0, rel=0.3)


def test_energy_conservation(b_small):
    # symplectic scheme: the energy oscillates at O(dt^2) around H(0)
    # instead of drifting; halving dt must cut the band by ~4
    coarse = integrate_period(b_small, steps_per_period=2048)
    fine = integrate_period(b_small, steps_per_period=4096)
    assert fine.energy_drift < 1e-7
    assert coarse.energy_drift / fine.energy_drift == pytest.approx(4.0, rel=0.3)
    assert fine.h_final == pytest.approx(fine.h_initial, rel=1e-7)
    assert fine.h_initial == pytest.approx(
        lattice_hamiltonian(
            np.sum(b_small.coeffs, axis=0),
            np.zeros(b_small.grid.shape),
            b_small.coupling,
            b_small.p,
        )
    )


def test_blowup_reports_infinite_drift(b_small):
    # a state that goes non-finite between two energy samples has no
    # finite drift; the report must not keep the last finite value
    blown = 1e4 * b_small.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        rep = integrate_period(b_small, steps_per_period=4096, initial_coeffs=blown)
        assert np.isnan(rep.return_error) and np.isnan(rep.h_final)
        assert rep.energy_drift == np.inf


_BITWISE_CONFIGS = {
    "1d-st-p1": dict(n=1, p=1.0, coupling=0.25, mu=0.2, r_min=30.0, mode="st"),
    "1d-p-p0.5": dict(n=1, p=0.5, coupling=0.25, mu=0.3, r_min=15.0, mode="p"),
    "2d-h1-p0.5": dict(n=2, p=0.5, coupling=0.25, mu=0.4, r_min=8.0, mode="h1"),
    "2d-st-p0.5": dict(n=2, p=0.5, coupling=0.25, mu=0.4, r_min=8.0, mode="st"),
    "2d-p-p0.5": dict(n=2, p=0.5, coupling=0.25, mu=0.4, r_min=8.0, mode="p"),
}


@functools.cache
def _assembled(name):
    return assemble_breather(PipelineConfig(**_BITWISE_CONFIGS[name]))


@pytest.fixture(scope="module", params=sorted(_BITWISE_CONFIGS))
def b_config(request):
    return _assembled(request.param)


@pytest.mark.parametrize("seed", ["breather", "continuum"])
@pytest.mark.parametrize("periods", [1, 3])
def test_stepper_is_bitwise_the_textbook_loop(b_config, seed, periods):
    coeffs = None if seed == "breather" else reference_coefficients(b_config)
    got = integrate_period(
        b_config, steps_per_period=512, periods=periods, initial_coeffs=coeffs
    )
    want = leapfrog_report(b_config, 512, periods=periods, initial_coeffs=coeffs)
    assert got.to_dict() == want  # exact: same operations, same order


@pytest.mark.parametrize("seed", ["breather", "continuum"])
@pytest.mark.parametrize("periods", [1, 3])
def test_stepper_matches_velocity_verlet_to_roundoff(b_config, seed, periods):
    coeffs = None if seed == "breather" else reference_coefficients(b_config)
    got = integrate_period(
        b_config, steps_per_period=512, periods=periods, initial_coeffs=coeffs
    ).to_dict()
    want = verlet_report(b_config, 512, periods=periods, initial_coeffs=coeffs)
    assert got["h_initial"] == want["h_initial"]
    assert got["h_final"] == pytest.approx(want["h_final"], rel=1e-13, abs=0.0)
    for key in ("return_error", "energy_drift"):
        assert got[key] == pytest.approx(want[key], rel=1e-9, abs=0.0), key


@pytest.mark.parametrize("name", ["1d-st-p1", "2d-h1-p0.5"])
def test_stepper_allocates_nothing_per_step(name, monkeypatch):
    b = _assembled(name)

    def peak(steps):
        tracemalloc.start()
        try:
            integrate_period(b, steps_per_period=steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # warm numpy's caches
    short, long = peak(64), peak(4096)
    assert abs(long - short) < 4096, (short, long)

    # The energy samples' own temporaries set that peak and would hide a
    # per-step temporary.  Between two samples the stepper works on
    # contiguous spans, so the peak may rise only by a few hundred bytes of
    # numpy's own, well below half of one field, which any per-step
    # temporary the size of the field would exceed.
    field_bytes = b.start_field().nbytes
    rises = []

    def sampled_hamiltonian(*args):
        held, peak_since = tracemalloc.get_traced_memory()
        rises.append(peak_since - held)
        h = lattice_hamiltonian(*args)
        tracemalloc.reset_peak()
        return h

    monkeypatch.setattr(dynamics, "lattice_hamiltonian", sampled_hamiltonian)
    tracemalloc.start()
    try:
        integrate_period(b, steps_per_period=4096)
    finally:
        tracemalloc.stop()
    # the first sample follows the set-up, the last the return-error norms
    assert len(rises) == 514
    assert max(rises[1:-1]) < field_bytes / 2, (field_bytes, rises[1:9])


def test_multiple_periods_accumulate(b_small):
    one = integrate_period(b_small, steps_per_period=1024, periods=1)
    three = integrate_period(b_small, steps_per_period=1024, periods=3)
    assert three.return_error > one.return_error
    assert three.return_error < 10.0 * 3.0 * one.return_error


def test_reference_seed_returns_worse(b_small):
    breather = integrate_period(b_small, steps_per_period=2048)
    seeded = integrate_period(
        b_small,
        steps_per_period=2048,
        initial_coeffs=reference_coefficients(b_small),
    )
    assert seeded.return_error > breather.return_error


def test_report_dict(b_small):
    rep = integrate_period(b_small, steps_per_period=64)
    d = rep.to_dict()
    assert set(d) >= {"return_error", "energy_drift", "dt", "h_initial"}
    counts = {"periods": 1, "steps_per_period": 64}
    assert {k: d[k] for k in counts} == counts
    assert all(type(d[k]) is int for k in counts)
    assert all(isinstance(v, float) for k, v in d.items() if k not in counts)
