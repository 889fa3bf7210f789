"""Lattice core: Laplacian stencil, norms, symmetry reduction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbreather.errors import GuardError
from kgbreather.lattice import (
    GridSpec,
    asymmetry,
    block_laplacian,
    block_norm_q,
    block_slices,
    dirichlet_energy,
    mirror_block,
    orbit_sizes,
    orbit_weights,
)
from references import embedding_checks, lp_norm, norm_q, padded_laplacian, symmetrize


def delta_center(grid):
    """Unit impulse at the symmetry center (offset-0 axes only)."""
    v = np.zeros(grid.shape)
    v[(grid.K,) * grid.n] = 1.0
    return v


# --- stencil oracles -------------------------------------------------------


def test_laplacian_stencil_1d():
    g = GridSpec(n=1, K=4, mu=0.5)
    lap = mirror_block(block_laplacian(delta_center(g)[block_slices(g)], g), g)
    expected = np.zeros(9)
    expected[3], expected[4], expected[5] = 1.0, -2.0, 1.0
    assert np.array_equal(lap, expected)


def test_laplacian_stencil_2d():
    g = GridSpec(n=2, K=3, mu=0.5)
    lap = mirror_block(block_laplacian(delta_center(g)[block_slices(g)], g), g)
    assert lap[3, 3] == -4.0
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert lap[3 + di, 3 + dj] == 1.0
    assert np.sum(np.abs(lap)) == 8.0


def test_laplacian_boundary_is_dirichlet():
    # a constant sequence is *not* in the kernel: the boundary leaks
    for offset in (0.0, 0.5):
        g = GridSpec(n=1, K=2, mu=1.0, offsets=(offset,))
        assert np.array_equal(block_laplacian(np.ones(3), g), [0.0, 0.0, -1.0])


def test_dirichlet_energy_impulse():
    for n, K in ((1, 5), (2, 4)):
        g = GridSpec(n=n, K=K, mu=1.0)
        d = delta_center(g)
        assert dirichlet_energy(d) == 2.0 * n
        assert norm_q(d) == pytest.approx(np.sqrt(1.0 + 2.0 * n), abs=0.0)


def test_stack_axes_restriction():
    # the block Laplacian acts on the trailing grid axes only, as the
    # harmonic stacks use it
    g = GridSpec(n=1, K=3, mu=1.0)
    delta = delta_center(g)[block_slices(g)]
    lap = block_laplacian(np.stack([delta, 2.0 * delta]), g)
    assert np.array_equal(lap[0], block_laplacian(delta, g))
    assert np.array_equal(lap[1], 2.0 * block_laplacian(delta, g))


# --- quadratic-form identities (property tests) ----------------------------


def _values(n_sites, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n_sites)


@given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_energy_is_laplacian_form_1d(seed, K):
    a = _values(2 * K + 1, seed)
    quad = -float(np.dot(a, padded_laplacian(a)))
    assert dirichlet_energy(a) == pytest.approx(quad, rel=1e-12, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_energy_is_laplacian_form_2d(seed, K):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 * K + 1, 2 * K + 2))
    quad = -float(np.sum(a * padded_laplacian(a)))
    assert dirichlet_energy(a) == pytest.approx(quad, rel=1e-12, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_laplacian_symmetric_negative(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(11)
    b = rng.standard_normal(11)
    assert float(np.dot(a, padded_laplacian(b))) == pytest.approx(
        float(np.dot(padded_laplacian(a), b)), rel=1e-12, abs=1e-12
    )
    assert float(np.dot(a, padded_laplacian(a))) <= 1e-12


@given(
    seed=st.integers(0, 2**32 - 1),
    mu=st.floats(0.05, 1.0),
    K=st.integers(2, 20),
    offset=st.sampled_from([0.0, 0.5]),
)
@settings(max_examples=40, deadline=None)
def test_sup_bounded_by_scaled_q_norm_1d(seed, mu, K, offset):
    # discrete Agmon inequality: sup|a|^2 <= 2 ||a|| ||da|| <= ||a||_{Q,mu}^2,
    # ||a||_{Q,mu} = mu^(1/2) block_norm_q for the even field of a random block
    g = GridSpec(n=1, K=K, mu=mu, offsets=(offset,))
    block = _values(K + 1, seed)
    assert np.max(np.abs(block)) <= np.sqrt(mu) * block_norm_q(block, g, mu) * (1.0 + 1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    mu=st.sampled_from([0.05, 0.1, 0.2]),
    n=st.sampled_from([1, 2]),
)
@settings(max_examples=60, deadline=None)
def test_sup_bounded_by_sqrt_mu_q_norm(seed, mu, n):
    # |a_j| <= 2 sqrt(mu) ||a||_Q with the mu^-2-weighted difference term;
    # nontrivial because the constant 2 sqrt(mu) drops below 1
    g = GridSpec(n=n, K=6, mu=mu)
    a = _values(g.size, seed).reshape(g.shape)
    assert np.max(np.abs(a)) <= 2.0 * np.sqrt(mu) * norm_q(a, mu) * (1.0 + 1e-12)


@given(seed=st.integers(0, 2**32 - 1), q=st.sampled_from([2.0, 3.0, 4.0, 6.0]))
@settings(max_examples=60, deadline=None)
def test_embedding_checks_random(seed, q):
    a = _values(37, seed)
    assert embedding_checks(a, q)
    assert lp_norm(a, q) <= np.linalg.norm(a) * (1.0 + 1e-12)


def test_embedding_checks_examples_and_guard():
    # hand-computed oracles for the reference norms the acceptance gate uses
    # single site: every norm is 1, the embedding is tight
    d = np.zeros(7)
    d[3] = 1.0
    assert lp_norm(d, 4.0) == pytest.approx(1.0)
    assert embedding_checks(d, 4.0)
    # two equal sites: l4 norm 2^(1/4) against l2 norm 2^(1/2)
    two = np.array([1.0, 1.0])
    assert lp_norm(two, 4.0) == pytest.approx(2.0**0.25, rel=1e-14)
    assert embedding_checks(two, 4.0)
    # below q = 2 the embedding fails: l^1 norm 2 exceeds l2 norm sqrt(2)
    assert not embedding_checks(two, 1.0)


def test_mu_scaled_norms_match_continuum():
    # sampled Gaussian on the block of either centering: the mu-weighted
    # orbit sums (mu^n sum a^2 and ||a||_{Q,mu}^2) converge to the integrals
    for offset in (0.0, 0.5):
        g = GridSpec(n=1, K=4000, mu=0.01, offsets=(offset,))
        a = np.exp(-(g.position_axes()[0][block_slices(g)] ** 2))
        l2_sq = g.mu * np.sum(orbit_sizes(g) * a * a)
        assert l2_sq == pytest.approx(np.sqrt(np.pi / 2), rel=1e-6)
        # H1 part: integral of (d/dx exp(-x^2))^2 = sqrt(pi/2)
        q_sq = g.mu * block_norm_q(a, g, g.mu) ** 2
        assert q_sq == pytest.approx(2 * np.sqrt(np.pi / 2), rel=1e-4)


# --- geometry --------------------------------------------------------------


def test_offset_half_positions_are_centered():
    g = GridSpec(n=1, K=3, mu=0.4, offsets=(0.5,))
    x = g.position_axes()[0]
    assert g.shape == (8,)
    assert np.allclose(x + x[::-1], 0.0)
    assert np.min(np.abs(x)) == pytest.approx(0.2)


def test_radius_mesh_rescale():
    g = GridSpec(n=2, K=2, mu=0.3)
    r = g.radius_mesh(scale=2.0)
    assert r[g.K, g.K] == 0.0
    assert r[0, 0] == pytest.approx(np.hypot(0.6, 0.6) / 2.0)


def test_for_radius_guard():
    g = GridSpec.for_radius(1, mu=0.23, r_min=20.0)
    assert g.K * g.mu >= 20.0 - 1e-9
    assert (g.K - 1) * g.mu < 20.0
    with pytest.raises(GuardError):
        GridSpec.for_radius(1, mu=-0.1, r_min=20.0)


def test_for_radius_gives_back_K():
    # r_min = K * mu rounds so that r_min / mu lands up to a few ulps above
    # K; an absolute slack stops covering that near K ~ 17,000
    for mu in (0.3, 0.25, 0.23, 0.2, 0.15, 0.12, 0.1, 0.06, 0.03):
        for K in range(2, 20_001):
            assert GridSpec.for_radius(1, mu=mu, r_min=K * mu).K == K


def test_gridspec_validation():
    with pytest.raises(GuardError):
        GridSpec(n=3, K=4, mu=0.1)
    with pytest.raises(GuardError):
        GridSpec(n=1, K=0, mu=0.1)
    with pytest.raises(GuardError):
        GridSpec(n=1, K=1, mu=0.1)
    with pytest.raises(GuardError):
        GridSpec(n=2, K=4, mu=0.1, offsets=(0.25, 0.0))
    with pytest.raises(GuardError):
        GridSpec(n=2, K=4, mu=0.1, offsets=(0.5,))


def test_reflect_and_asymmetry():
    a = np.array([0.0, 1.0, 2.0, 1.0, 0.5])
    assert asymmetry(a) == 0.5
    assert asymmetry(symmetrize(a)) == 0.0
    b = np.zeros((3, 4))
    b[0, 1] = 0.25  # mirror image b[2, 2] is 0
    assert asymmetry(b) == 0.25


# --- symmetry reduction ----------------------------------------------------


@pytest.mark.parametrize(
    "grid",
    [
        GridSpec(n=1, K=4, mu=0.5),
        GridSpec(n=1, K=3, mu=0.5, offsets=(0.5,)),
        GridSpec(n=2, K=3, mu=0.5),
        GridSpec(n=2, K=2, mu=0.5, offsets=(0.5, 0.0)),
        GridSpec(n=2, K=2, mu=0.5, offsets=(0.5, 0.5)),
    ],
)
def test_fold_unfold_roundtrip(grid):
    # cutting out the block and mirroring it back gives the even field
    rng = np.random.default_rng(7)
    raw = symmetrize(rng.standard_normal(grid.shape))
    block = raw[block_slices(grid)]
    assert block.shape == (grid.K + 1,) * grid.n
    assert mirror_block(block, grid).tobytes() == raw.tobytes()
    # orthonormality: orbit coordinates keep the l2 norm of even fields
    x = block * orbit_weights(grid)
    assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(raw), rel=1e-13)


@pytest.mark.parametrize(
    "offsets", [(0.0,), (0.5,), (0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)]
)
def test_block_laplacian_is_the_box_one_bit_for_bit(offsets):
    """The stencil on the block is the zero-padded box Laplacian of the
    mirrored field at the block's sites, bit for bit, for one field and
    for a stack.  Values spanning e^+-20 make every add round, so an add
    out of the box's order (forward then backward neighbour, axis by
    axis) shows, and so does a site 0 that reads anything but its mirror
    image (site 1 on an offset-0 axis, itself on an offset-1/2 one)."""
    grid = GridSpec(n=len(offsets), K=4, mu=0.5, offsets=offsets)
    rng = np.random.default_rng(7)
    for stack in ((), (3,)):
        shape = stack + (grid.K + 1,) * grid.n
        block = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
        spatial = tuple(range(len(stack), len(shape)))
        want = padded_laplacian(mirror_block(block, grid), axes=spatial)
        want = want[(Ellipsis,) + block_slices(grid)]
        assert block_laplacian(block, grid).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "offsets", [(0.0,), (0.5,), (0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)]
)
def test_block_laplacian_acts_on_each_field_of_a_stack(offsets):
    """On a stack of three fields the Laplacian acts on the trailing grid
    axes only: each row of the result is the single-field result, bit for
    bit, and the shape is the stack's (at K = 5 an h1 stack of 3 came
    back as (2, 6, 7) when the harmonic axis was differenced and cut)."""
    grid = GridSpec(n=len(offsets), K=5, mu=0.5, offsets=offsets)
    stack = np.random.default_rng(8).standard_normal((3,) + (grid.K + 1,) * grid.n)
    lap = block_laplacian(stack, grid)
    assert lap.shape == stack.shape
    for row, field in zip(lap, stack):
        assert row.tobytes() == block_laplacian(field, grid).tobytes()


@pytest.mark.parametrize(
    "offsets", [(0.0,), (0.5,), (0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)]
)
def test_block_norm_q_is_the_box_norm_of_each_field(offsets):
    """The Q norm from the block (orbit-weighted squares and <a, -lap a>)
    is norm_q of the mirrored box field, row by row of a stack and for
    one field."""
    mu = 0.3
    grid = GridSpec(n=len(offsets), K=6, mu=mu, offsets=offsets)
    stack = np.random.default_rng(9).standard_normal((4,) + (grid.K + 1,) * grid.n)
    want = [norm_q(mirror_block(field, grid), mu) for field in stack]
    assert block_norm_q(stack, grid, mu) == pytest.approx(want, rel=1e-13)
    assert block_norm_q(stack[1], grid, mu) == pytest.approx(want[1], rel=1e-13)


def test_unfold_is_reflection_even():
    grid = GridSpec(n=2, K=3, mu=0.5, offsets=(0.5, 0.0))
    block = np.random.default_rng(11).standard_normal((grid.K + 1,) * 2)
    assert asymmetry(mirror_block(block, grid)) == 0.0



@pytest.mark.parametrize("offsets", [(0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)])
def test_mirror_block_writes_its_output_once(offsets):
    """Every orthant comes straight from the block: the result is the
    reflection-even field holding the block, and the only allocation is
    the output (flips between overlapping views of it would first copy
    half of it again, a 1.5x peak)."""
    grid = GridSpec(n=2, K=60, mu=0.5, offsets=offsets)
    block = np.random.default_rng(3).standard_normal((40, 61, 61))
    tracemalloc.start()
    try:
        out = mirror_block(block, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * out.nbytes
    assert np.array_equal(out[(slice(None),) + block_slices(grid)], block)
    assert all(asymmetry(row) == 0.0 for row in out[:3])
