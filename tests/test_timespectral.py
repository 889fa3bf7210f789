"""Cosine-harmonic transforms and the projected nonlinearity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dct
from scipy.integrate import quad

import kgbreather.timespectral as timespectral
from kgbreather.errors import GuardError
from kgbreather.timespectral import (
    _MATRIX_ENTRIES,
    _quarter_cosines,
    apply_nonlinearity,
    cos_moment,
    default_node_count,
    first_harmonic,
    nonlinearity_coefficient,
    nonlinearity_map,
    odd_collocation,
    sobolev_time_norm,
)


# Reference transforms: a general cosine series (even harmonics included)
# on the M midpoint nodes tau_k = pi (2k+1) / (2M), where synthesis and
# analysis are a DCT-III / DCT-II pair.  The library works on the quarter
# period with odd-row stacks (row j harmonic 2j+1) instead and is checked
# against these: a general stack ``c`` with zero even rows is the odd-row
# stack c[1::2].


def collocation_nodes(M):
    return np.pi * (2.0 * np.arange(M) + 1.0) / (2.0 * M)


def synthesize(coeffs, M):
    """Values sum_l coeffs[l] cos(l tau_k) at the M midpoint nodes (axis 0)."""
    x = np.array(coeffs, dtype=np.float64)
    assert M >= x.shape[0]
    x[1:] *= 0.5
    return dct(x, type=3, n=M, axis=0)


def analyze(values, L):
    """Cosine coefficients 0..L from midpoint-node values (axis 0)."""
    values = np.asarray(values, dtype=np.float64)
    M = values.shape[0]
    assert L < M
    y = dct(values, type=2, axis=0)[: L + 1]
    y /= M
    y[0] *= 0.5
    return y


def test_cos_moment_cubic_case():
    assert cos_moment(1.0) == pytest.approx(0.75 * np.pi, rel=1e-15)
    assert nonlinearity_coefficient(1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("p", [0.5, 0.75, 1.0, 1.3, 1.9])
def test_cos_moment_against_quadrature(p):
    val, err = quad(lambda t: np.abs(np.cos(t)) ** (2 * p) * np.cos(t) ** 2, 0, 2 * np.pi)
    assert cos_moment(p) == pytest.approx(val, rel=1e-11)


def test_first_harmonic_of_projected_nonlinearity_is_identity():
    # the defining property of beta(p): P_1[beta |v cos|^(2p) v cos] = |v|^(2p) v
    for p in (0.5, 0.75, 1.0, 1.5):
        for v in (0.3, -1.7):
            c = np.zeros((4, 1))
            c[0, 0] = v
            out = apply_nonlinearity(c, p=p, M=4096)
            assert out[0, 0] == pytest.approx(np.abs(v) ** (2 * p) * v, rel=1e-12)


def test_cubic_single_mode_harmonics():
    # beta cos^3 = cos + (1/3) cos(3 tau) exactly at p = 1
    c = np.zeros((3, 1))
    c[0, 0] = 1.0
    out = apply_nonlinearity(c, p=1.0, M=default_node_count(5))
    expected = np.zeros((3, 1))
    expected[0, 0] = 1.0
    expected[1, 0] = 1.0 / 3.0
    assert np.allclose(out, expected, atol=1e-14)


def test_cubic_two_mode_against_quadrature():
    rng = np.random.default_rng(2)
    c = np.zeros((5, 2))
    c[0] = [0.7, -0.2]
    c[1] = [-0.3, 0.5]
    out = apply_nonlinearity(c, p=1.0, M=default_node_count(9))
    beta = nonlinearity_coefficient(1.0)
    t = np.linspace(0.0, 2 * np.pi, 20001)
    for j in range(2):
        u = c[0, j] * np.cos(t) + c[1, j] * np.cos(3 * t)
        g = beta * u**3
        for row in range(5):
            coeff = np.trapezoid(g * np.cos((2 * row + 1) * t), t) / np.pi
            assert out[row, j] == pytest.approx(coeff, abs=1e-9)
        # the even harmonics of the odd series' image vanish
        for l in range(0, 10, 2):
            assert abs(np.trapezoid(g * np.cos(l * t), t)) < 1e-9


@given(seed=st.integers(0, 2**32 - 1), L=st.integers(0, 12), M_extra=st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_transform_roundtrip(seed, L, M_extra):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((L + 1, 3))
    back = analyze(synthesize(c, L + M_extra), L)
    assert np.allclose(back, c, atol=1e-12 * max(1.0, np.max(np.abs(c))))


def test_synthesize_matches_direct_evaluation():
    rng = np.random.default_rng(4)
    c = rng.standard_normal((5, 2))
    tau = collocation_nodes(9)
    direct = sum(c[l] * np.cos(l * tau)[:, None] for l in range(5))
    assert np.allclose(synthesize(c, 9), direct, atol=1e-13)


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_nonlinearity_preserves_odd_parity(p):
    # the general midpoint analysis of N(u) for an odd series u has no
    # even harmonics, which is why odd-row stacks lose nothing
    rng = np.random.default_rng(8)
    c = np.zeros((12, 4))
    c[1::2] = 0.3 * rng.standard_normal(c[1::2].shape)
    v = synthesize(c, 48)
    spectrum = analyze(nonlinearity_coefficient(p) * np.abs(v) ** (2 * p) * v, 11)
    assert np.max(np.abs(spectrum[0::2])) < 1e-14
    out = apply_nonlinearity(c[1::2], p=p, M=48)
    assert np.max(np.abs(out - spectrum[1::2])) < 1e-14
    assert np.max(np.abs(out)) > 1e-4


@pytest.mark.parametrize("p", [0.5, 0.75, 1.0, 1.5])
def test_pointwise_map_is_the_written_formula_bitwise(p):
    v = 0.4 * np.random.default_rng(12).standard_normal((61, 37))
    beta = nonlinearity_coefficient(p)
    want = beta * np.abs(v) ** (2.0 * p) * v
    got = nonlinearity_map(p)(v)
    assert got is v  # evaluated into the sample buffer
    assert got.tobytes() == want.tobytes()


def _odd_stack(rng, rows, columns, scale=0.5):
    c = np.zeros((rows, columns))
    c[1::2] = scale * rng.standard_normal(c[1::2].shape)
    return c


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("L, M", [(7, 32), (12, 26), (15, 64), (16, 40)])
def test_quarter_period_nonlinearity_matches_midpoint_reference(p, L, M):
    # the odd-row DCT-IV projection against the general DCT-III / DCT-II
    # pair on all M midpoint nodes: equal in exact arithmetic for even M
    rng = np.random.default_rng(10 + L)
    c = _odd_stack(rng, L + 1, 17)
    beta = nonlinearity_coefficient(p)
    v = synthesize(c, M)
    spectrum = analyze(beta * np.abs(v) ** (2 * p) * v, M - 1)
    out = apply_nonlinearity(c[1::2], p=p, M=M)
    scale = np.max(np.abs(spectrum))
    assert np.max(np.abs(out - spectrum[1 : L + 1 : 2])) <= 1e-14 * scale
    kept = np.sum(spectrum[: L + 1] ** 2)
    discarded = np.sum(spectrum[L + 1 :] ** 2)
    _, tail = first_harmonic(c[1::2], p, M=M, weights=np.ones(17))
    assert tail == pytest.approx(np.sqrt(discarded / kept), rel=1e-12)


def test_chunking_is_transparent(monkeypatch):
    c = _odd_stack(np.random.default_rng(3), 7, 23)[1::2]
    M = default_node_count(5)
    full = apply_nonlinearity(c, p=0.75, M=M)
    monkeypatch.setattr(timespectral, "_CHUNK_VALUES", 5 * ((M + 1) // 2))
    chunked = apply_nonlinearity(c, p=0.75, M=M)
    assert np.array_equal(full, chunked)


def test_tail_diagnostic():
    M = default_node_count(1)
    # the discarded cos(3 tau) mass relative to the kept cos(tau) mass
    one = np.ones(1)
    assert first_harmonic(np.ones((1, 1)), 1.0, M=M, weights=one)[1] == pytest.approx(
        1.0 / 3.0, rel=1e-12
    )
    assert first_harmonic(np.zeros((1, 1)), 1.0, M=M, weights=one)[1] == 0.0
    assert np.isnan(first_harmonic(np.ones((1, 1)), 1.0, M=M)[1])


@pytest.mark.parametrize("matrix_entries", [_MATRIX_ENTRIES, 16])
def test_first_harmonic_keeps_its_bits_with_the_tail(monkeypatch, matrix_entries):
    """P1 comes from the one-row analysis of the samples with and without
    the tail, bit for bit, at Q = 40 inside the cosine cache and past it
    (a cache of 16 entries: every product is a DCT-IV, and P1 is row 0 of
    the all-Q one); the tail is the share of the all-Q analysis past the
    kept rows, weighted per site."""
    monkeypatch.setattr(timespectral, "_MATRIX_ENTRIES", matrix_entries)
    c = _odd_stack(np.random.default_rng(4), 20, 13)[1::2]
    weights = np.arange(1.0, 14.0)
    M = default_node_count(19)
    first, no_tail = first_harmonic(c, 0.5, M=M)
    with_tail, tail = first_harmonic(c, 0.5, M=M, weights=weights)
    assert np.isnan(no_tail)
    assert with_tail.tobytes() == first.tobytes()
    ((_, one_row),) = odd_collocation((c,), M, nonlinearity_map(0.5), True, rows=1)
    assert first.tobytes() == one_row[0].tobytes()
    ((_, spectrum),) = odd_collocation((c,), M, nonlinearity_map(0.5), True)
    mass = spectrum**2 @ weights
    assert tail == pytest.approx(np.sqrt(np.sum(mass[10:]) / np.sum(mass[:10])), rel=1e-13)


@pytest.mark.parametrize("held", [1, 8])
@pytest.mark.parametrize("rows, M", [(8, 64), (152, 1220), (512, 4096)])
def test_rows_known_to_be_zero_are_not_synthesised(monkeypatch, held, rows, M):
    """A stack that holds only the first rows of the series (the rest
    zero) projects to the bits of the whole stack: the synthesis product
    takes its shape from the series, inside the cosine cache (M = 64 and
    1220) and past it (512 rows at Q = 2048 is a DCT-IV, which pads the
    rows back), and the zero rows are not multiplied."""
    rng = np.random.default_rng(held + rows)
    c = np.zeros((rows, 7))
    c[:held] = rng.standard_normal((held, 7))
    full = apply_nonlinearity(c, 0.5, M=M)
    synthesised = []
    product = timespectral._cosine_product

    def spy(x, Q, r, analysis):
        if not analysis:
            synthesised.append(len(x))
        return product(x, Q, r, analysis)

    monkeypatch.setattr(timespectral, "_cosine_product", spy)
    part = apply_nonlinearity(c[:held], 0.5, M=M, rows=rows)
    assert synthesised == [held]
    assert part.shape == full.shape
    assert part.tobytes() == full.tobytes()


def test_sobolev_norm_against_time_integral():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((3, 3))
    omega = 0.83
    t = np.linspace(0.0, 2 * np.pi / omega, 40001)
    l = 2 * np.arange(3)[:, None] + 1  # odd rows: harmonics 1, 3, 5
    total = 0.0
    for j in range(3):
        u = np.sum(c[:, j : j + 1] * np.cos(omega * l * t), axis=0)
        du = np.sum(-omega * l * c[:, j : j + 1] * np.sin(omega * l * t), axis=0)
        ddu = np.sum(-((omega * l) ** 2) * c[:, j : j + 1] * np.cos(omega * l * t), axis=0)
        total += np.trapezoid(u**2 + du**2 + ddu**2, t)
    assert sobolev_time_norm(c, order=2, omega=omega, weights=np.ones(3)) == pytest.approx(
        np.sqrt(total), rel=1e-8
    )


def test_node_count_guards():
    # 4 nodes sample the quarter period at Q = 2 points: odd harmonics 1
    # and 3 fit, harmonic 5 does not
    list(odd_collocation((np.zeros((2, 1)),), 4))
    with pytest.raises(GuardError, match="cannot resolve harmonic 5"):
        list(odd_collocation((np.zeros((3, 1)),), 4))
    with pytest.raises(GuardError):
        apply_nonlinearity(np.zeros((3, 1)), p=1.0, M=4)
    assert default_node_count(7) >= 17  # alias-free for the cubic
    # 4 (L+1) covers the alias-free count (p+1)(L+1) + 1 for every p < 2
    for L in range(64):
        assert default_node_count(L) >= np.ceil(2.999 * (L + 1)) + 1


# The quarter-period primitive against the SciPy DCT-IV pair it replaced:
# synthesis is 0.5 * DCT-IV of the odd rows zero-padded to Q, analysis is
# DCT-IV / Q.  Q = 610 = 2 * 5 * 61 is the benchmark's 2d window, and
# Q = 614 = 2 * 307 is 2 (L+1) with L+1 prime; odd M rounds Q up.


@pytest.mark.parametrize("M", [1220, 1219, 1228, 1227, 62, 61])
def test_collocation_matches_the_dct_iv_pair(M):
    Q = (M + 1) // 2
    L = Q // 2  # half the node budget, as the pipeline's windows use it
    rng = np.random.default_rng(M)
    c = _odd_stack(rng, L + 1, 37, scale=1.0)[1::2]
    ((_, samples),) = odd_collocation((c,), M)
    ref = 0.5 * dct(c, type=4, n=Q, axis=0)
    assert samples.shape == (Q, 37)
    assert np.max(np.abs(samples - ref)) <= 1e-14 * np.max(np.abs(ref))
    ((_, spectrum),) = odd_collocation((c,), M, np.sin, analysis=True)
    ref = dct(np.sin(ref), type=4, axis=0) / Q
    assert spectrum.shape == (Q, 37)
    assert np.max(np.abs(spectrum - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("rows", [1, 2, 77, 305])
def test_analysis_rows_are_the_leading_rows(rows):
    c = _odd_stack(np.random.default_rng(rows), 305, 53)[1::2]
    ((_, full),) = odd_collocation((c,), 1220, np.tanh, analysis=True)
    ((_, part),) = odd_collocation((c,), 1220, np.tanh, analysis=True, rows=rows)
    assert part.shape == (rows, 53)
    assert np.max(np.abs(part - full[:rows])) <= 1e-14 * np.max(np.abs(full))


@pytest.mark.parametrize("analysis", [False, True])
def test_collocation_does_not_depend_on_chunks(monkeypatch, analysis):
    # a BLAS product rounds by its shape, so chunks may move a column by
    # roundoff of its sums (about 1e-15 relative here), and no more
    c = _odd_stack(np.random.default_rng(9), 153, 300)[1::2]
    M = 1220

    def run(chunk):
        monkeypatch.setattr(timespectral, "_CHUNK_VALUES", chunk * ((M + 1) // 2))
        out = np.empty(((M + 1) // 2, 300))
        for sl, g in odd_collocation((c,), M, np.tanh, analysis):
            out[:, sl] = g
        return out

    whole = run(1 << 17)
    scale = np.max(np.abs(whole))
    for chunk in (1, 7, 128, 299):
        assert np.max(np.abs(run(chunk) - whole)) <= 1e-14 * scale


def test_chunks_hold_at_most_two_to_the_21_values():
    # the 2d headline block (K = 200, 40,401 columns) at its final window
    # (L = 304, M = 1220): every sample buffer, and its analysis, holds at
    # most 2^21 values (16 MB), and the chunks cover every column once
    columns, M = 40_401, 1220
    seen = 0
    for sl, g in odd_collocation((np.ones((1, columns)),), M, analysis=True):
        assert sl.start == seen and (sl.stop - sl.start) * ((M + 1) // 2) <= 1 << 21
        assert g.size <= 1 << 21
        seen = sl.stop
    assert seen == columns


def test_cosine_cache_is_bounded_and_read_only():
    # every cached slice has at most 2^19 entries: 32 MB for a full cache
    assert _quarter_cosines.cache_info().maxsize * 8 * _MATRIX_ENTRIES <= 32 << 20
    list(odd_collocation((np.zeros((2, 1)),), 12))
    C = _quarter_cosines(6, 2)
    assert C.shape == (2, 6) and not C.flags.writeable
    with pytest.raises(ValueError):
        C[0, 0] = 0.0
    j = np.arange(6)
    exact = np.cos(np.pi * np.outer(2 * j + 1, 2 * j + 1) / 24.0)
    assert np.max(np.abs(C - exact[:2])) <= 1e-15
    assert np.max(np.abs(_quarter_cosines(6, 6) - exact)) <= 1e-15
    # C C^T = (Q/2) I: the analysis inverts the synthesis
    C = _quarter_cosines(610, 610)
    assert np.max(np.abs(C @ C.T - 305.0 * np.eye(610))) <= 1e-11


@pytest.mark.parametrize("rows", [0, 77, 1000, 4002])
def test_large_windows_build_no_large_matrix(rows):
    # L = 2000 at M = 4 (L+1): a square cosine matrix would take 128 MB and
    # the 1000 synthesis rows 32 MB; past 2^19 entries a DCT-IV runs instead.
    # Building a cached matrix briefly takes three buffers of its size.
    L, M, Q = 2000, 8004, 4002
    c = _odd_stack(np.random.default_rng(rows), L + 1, 3, scale=1.0)[1::2]
    tracemalloc.start()
    ((_, out),) = odd_collocation((c,), M, np.sin, rows > 0, rows=rows or None)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 3 * 8 * _MATRIX_ENTRIES + (1 << 20)
    ref = np.sin(0.5 * dct(c, type=4, n=Q, axis=0))
    if rows:
        ref = dct(ref, type=4, axis=0)[:rows] / Q
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
