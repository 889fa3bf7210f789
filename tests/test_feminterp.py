"""Tests for the piecewise-linear lattice-to-continuum dictionary.

Oracle notes (all computed by hand, independent of the implementation):

* 1d single hat, q = 2, mu = 1: the hat at the origin gives
  G_c = int_{-1}^{1} |Y|^4 = 2 int_0^1 t^4 dt = 2/5, G_d = 1, R_G = -3/5.
* 1d sign-crossing chain (-1, 1, -1), mu = 1: each of the four segments
  (two ghost decays, two interior crossings) contributes
  int_0^1 |2t-1|^3 dt = 1/4 or int_0^1 t^3 dt = 1/4, so G_c = 1, G_d = 3.
* 2d single pyramid, q = 2, mu = 1: the basis pyramid spans six triangles,
  each contributing mean(bary^4) * area = (1/15)(1/2) = 1/30, so
  G_c = 6/30 = 1/5, G_d = 1, R_G = -4/5.  (Degree-4 integrand: the
  degree-5 triangle rule must hit it exactly.)
* gradient identity: int |grad Y|^2 = mu^(n-2) <psi, -lap psi> is exact
  for the uniform split triangulation; checked on random data.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbreather.errors import GuardError
from kgbreather.feminterp import (
    FemInterpolant,
    functional_remainder,
    gradient_energy,
    gradient_identity_gap,
)
from kgbreather.groundstate import sample_reference, solve_ground_state
from kgbreather.lattice import GridSpec, SymmetricSequence, norm_q_mu


def _random_seq(n, K, mu, seed, offsets=None):
    rng = np.random.default_rng(seed)
    g = GridSpec(n=n, K=K, mu=mu, offsets=offsets or (0.0,) * n)
    vals = rng.standard_normal(g.shape)
    return SymmetricSequence(g, vals)


# ---------------------------------------------------------------- evaluation


def test_eval_reproduces_nodes_1d():
    seq = _random_seq(1, 5, 0.3, seed=1)
    interp = FemInterpolant(seq)
    x = seq.grid.position_axes()[0]
    assert np.allclose(interp(x), seq.values, rtol=0, atol=1e-14)


def test_eval_reproduces_nodes_2d():
    seq = _random_seq(2, 4, 0.25, seed=2)
    interp = FemInterpolant(seq)
    ax = seq.grid.position_axes()
    xx, yy = np.meshgrid(ax[0], ax[1], indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    assert np.allclose(interp(pts), seq.values.ravel(), rtol=0, atol=1e-14)


def test_eval_ghost_decay_and_zero_outside():
    g = GridSpec(n=1, K=2, mu=0.5)
    seq = SymmetricSequence(g, np.array([0.0, 1.0, 2.0, 1.0, 0.0]) + 1.0)
    interp = FemInterpolant(seq)
    # last node sits at x = 1.0 with value 1.0; ghost node at 1.5 is zero
    assert interp(1.25) == pytest.approx(0.5, abs=1e-15)
    assert interp(1.5) == 0.0
    assert interp(17.0) == 0.0
    assert interp(-3.2) == 0.0


def test_eval_zero_outside_2d():
    seq = _random_seq(2, 3, 0.4, seed=3)
    interp = FemInterpolant(seq)
    far = np.array([[5.0, 0.0], [0.0, -5.0], [4.0, 4.0]])
    assert np.all(interp(far) == 0.0)


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_partition_of_unity(seed, n):
    """Interpolating the all-ones field gives exactly 1 inside the hull."""
    rng = np.random.default_rng(seed)
    g = GridSpec(n=n, K=4, mu=0.3)
    interp = FemInterpolant(SymmetricSequence(g, np.ones(g.shape)))
    hull = g.K * g.mu
    pts = rng.uniform(-0.98 * hull, 0.98 * hull, size=(50, n))
    vals = interp(pts if n == 2 else pts[:, 0])
    assert np.max(np.abs(vals - 1.0)) < 1e-13


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_plane_reproduction_2d(seed):
    """Linear fields are reproduced exactly inside the hull."""
    rng = np.random.default_rng(seed)
    alpha, beta, gamma = rng.uniform(-2, 2, size=3)
    g = GridSpec(n=2, K=4, mu=0.35, offsets=(0.5, 0.0))
    ax = g.position_axes()
    xx, yy = np.meshgrid(ax[0], ax[1], indexing="ij")
    seq = SymmetricSequence.__new__(SymmetricSequence)
    seq.grid = g
    seq.values = alpha * xx + beta * yy + gamma
    interp = FemInterpolant(seq)
    hull = (g.K - 0.4) * g.mu
    pts = rng.uniform(-hull, hull, size=(60, 2))
    expected = alpha * pts[:, 0] + beta * pts[:, 1] + gamma
    assert np.max(np.abs(interp(pts) - expected)) < 1e-13


# ---------------------------------------------------- gradient energy identity


@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(2, 9),
    mu=st.floats(0.05, 1.5),
)
@settings(max_examples=40, deadline=None)
def test_gradient_identity_1d(seed, K, mu):
    seq = _random_seq(1, K, mu, seed)
    assert gradient_identity_gap(seq) < 1e-12


@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(2, 6),
    mu=st.floats(0.05, 1.5),
)
@settings(max_examples=25, deadline=None)
def test_gradient_identity_2d(seed, K, mu):
    seq = _random_seq(2, K, mu, seed)
    assert gradient_identity_gap(seq) < 1e-12


def test_gradient_energy_single_hat():
    g = GridSpec(n=1, K=2, mu=1.0)
    seq = SymmetricSequence(g, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    assert gradient_energy(FemInterpolant(seq)) == pytest.approx(2.0, rel=1e-15)


# ------------------------------------------------------- functional remainder


def test_single_element_oracle_1d():
    g = GridSpec(n=1, K=2, mu=1.0)
    seq = SymmetricSequence(g, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    g_c, g_d, r_g = functional_remainder(FemInterpolant(seq), q=2.0)
    assert g_c == pytest.approx(2.0 / 5.0, rel=1e-13)
    assert g_d == pytest.approx(1.0, rel=0)
    assert r_g == pytest.approx(-3.0 / 5.0, rel=1e-13)


def test_sign_crossing_oracle_1d():
    g = GridSpec(n=1, K=2, mu=1.0)
    seq = SymmetricSequence(g, np.array([0.0, -1.0, 1.0, -1.0, 0.0]))
    g_c, g_d, r_g = functional_remainder(FemInterpolant(seq), q=1.0)
    assert g_c == pytest.approx(1.0, rel=1e-13)
    assert g_d == pytest.approx(3.0, rel=0)
    assert r_g == pytest.approx(-2.0, rel=1e-13)


def test_single_pyramid_oracle_2d():
    g = GridSpec(n=2, K=2, mu=1.0)
    vals = np.zeros(g.shape)
    vals[2, 2] = 1.0
    seq = SymmetricSequence(g, vals)
    g_c, g_d, r_g = functional_remainder(FemInterpolant(seq), q=2.0, refine=0)
    assert g_c == pytest.approx(1.0 / 5.0, rel=1e-13)
    assert g_d == pytest.approx(1.0, rel=0)
    assert r_g == pytest.approx(-4.0 / 5.0, rel=1e-13)


def test_noninteger_power_converges_with_refinement():
    """For the intended use (positive decaying profiles) the composite
    triangle rule is converged at the default level even for
    non-polynomial powers: the field only vanishes where it is already
    exponentially small, so the |.|^(q+2) fractional kink is harmless."""
    profile = solve_ground_state(2, 0.5)
    g = GridSpec.for_radius(n=2, mu=0.3, r_min=18.0)
    interp = FemInterpolant(sample_reference(profile, g))
    coarse = functional_remainder(interp, q=1.5, refine=1)[0]
    fine = functional_remainder(interp, q=1.5, refine=3)[0]
    assert coarse == pytest.approx(fine, rel=1e-11)


def test_sign_crossing_field_converges_2d():
    """Fields with sign changes have |.|^3 kinks across triangles; the
    composite rule still converges, just algebraically."""
    seq = _random_seq(2, 4, 0.3, seed=11)
    interp = FemInterpolant(seq)
    errs = [
        abs(
            functional_remainder(interp, q=1.0, refine=r)[0]
            - functional_remainder(interp, q=1.0, refine=5)[0]
        )
        for r in (1, 2, 3)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


def test_segment_rule_converged_1d():
    # after splitting at sign changes the only non-smoothness left is the
    # |t|^3.5 endpoint behaviour, where 16-node Gauss is ~1e-11 accurate
    seq = _random_seq(1, 8, 0.2, seed=12)
    interp = FemInterpolant(seq)
    a = functional_remainder(interp, q=1.5, nodes=16)[0]
    b = functional_remainder(interp, q=1.5, nodes=48)[0]
    assert a == pytest.approx(b, rel=1e-9)


def test_power_guard():
    seq = _random_seq(1, 3, 0.5, seed=13)
    with pytest.raises(GuardError):
        functional_remainder(FemInterpolant(seq), q=0.5)


def test_remainder_shrinks_with_spacing():
    """R_G for sampled ground states decays as the lattice refines, and
    the scale-free mass ratio mu^n sum|v|^q / ||v||_Q^q stays bounded."""
    profile = solve_ground_state(1, 1.0)
    rows = []
    ratios = []
    q = 2.0  # power gap exponent: q = 2p at p = 1
    for mu in (0.4, 0.2, 0.1):
        g = GridSpec.for_radius(n=1, mu=mu, r_min=45.0)
        seq = sample_reference(profile, g)
        _, _, r_g = functional_remainder(FemInterpolant(seq), q=q)
        rows.append(abs(r_g))
        ratios.append(
            mu**g.n * float(np.sum(np.abs(seq.values) ** (4 * 1.0 + 2)))
            / norm_q_mu(seq.values, g) ** (4 * 1.0 + 2)
        )
    assert rows[0] > rows[1] > rows[2]
    # mu-uniform bound on the embedding-chain ratio
    assert max(ratios) < 0.05
    assert max(ratios) / min(ratios) < 1.05

