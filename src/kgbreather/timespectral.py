"""Time-cosine spectral representation of periodic lattice waves.

A wave is stored through its cosine coefficients in scaled time,
u(tau) = sum_l coeffs[l] * cos(l tau), coeffs[l] being a spatial field.
A general cosine series would be synthesised and analysed on the M
midpoint nodes tau_k = pi (2k+1) / (2M) by a DCT-III / DCT-II pair; the
test suite keeps that pair as the reference for what follows.

Every chunked "synthesis -> pointwise map -> analysis" pass of the
pipeline goes through ``odd_collocation``, whose one bound holds each
sample buffer to 2^21 values (16 MB) on any grid, and works on odd
series only.
Reversible breathers have u(tau + pi) = -u(tau), so only odd harmonics
occur, and the odd nonlinearity keeps it that way.  So stacks hold the odd
rows alone: row j of a stack is harmonic 2j+1, and an even harmonic has
no row to sit in.

Why a quarter period suffices: an odd series obeys u(pi - tau) = -u(tau),
and so does any odd pointwise map of it.  The series is therefore sampled
at Q = ceil(M/2) nodes tau_j = pi (2j+1) / (4Q) in (0, pi/2).  For even M
these are exactly the first M/2 midpoint nodes; the other M/2 are their
mirror images pi - tau_j and carry the same values with the sign flipped,
so the quarter-period projection equals the midpoint one in exact
arithmetic, with half the rows and half the nodes.  Both directions are
products with the symmetric C[j, k] = cos(pi (2j+1)(2k+1) / (4Q)) over
the r harmonics used: C[:r].T @ rows, (2/Q) C[:r] @ samples.  At
most eight r x Q slices of <= 2^19 entries (4 MB) stay cached; a larger
product is a zero-padded DCT-IV, as fast there on a 2-vCPU Xeon, and
scipy.fft is imported only when such a product is first taken.  That
switch is known here alone; a caller picks r, and since a product rounds
by its shape, each quantity keeps one r at every size: the window's rows
in apply_nonlinearity, all Q for the harmonic tail, one row for P1.  A
synthesis takes r from the series, not from the rows a stack holds: rows
known to be zero (a warm start with fewer rows, a cold start) are left
out of the product, which rounds as with them, so they cost nothing.
first_harmonic reads P1 and the tail off one synthesis.

For integer p the nonlinearity is a polynomial of degree 2p+1 and
M >= (p+1)(L+1) makes the projection onto the kept harmonics alias-free;
for other powers (|u| u at p = 1/2 among them) the integrand is merely
finitely smooth in time and M controls a small aliasing error.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gamma

from .errors import GuardError


def cos_moment(p):
    """c1(p) = int_0^{2pi} |cos t|^(2p) cos^2 t dt = 2 sqrt(pi) G(p+3/2)/G(p+2)."""
    return 2.0 * np.sqrt(np.pi) * gamma(p + 1.5) / gamma(p + 2.0)


def nonlinearity_coefficient(p):
    """Model coupling beta(p) = pi / c1(p).

    Chosen so that the first cosine harmonic of beta |v cos|^(2p) (v cos)
    is exactly |v|^(2p) v; the bifurcation equation then reproduces the NLS
    nonlinearity with unit coefficient.
    """
    return np.pi / cos_moment(p)


def default_node_count(L):
    """Node count 4 (L+1) for projecting |u|^(2p) u onto the window L:
    alias-free for integer p, as (p+1)(L+1) <= 3 (L+1) under p < 2, and
    comfortably oversampled otherwise."""
    return 4 * (L + 1)


_MATRIX_ENTRIES = 1 << 19

# values per sample buffer of an odd_collocation chunk (16 MB)
_CHUNK_VALUES = 1 << 21


@lru_cache(maxsize=8)
def _quarter_cosines(Q, r):
    """Read-only C[:r] over Q columns, the angle reduced modulo 8Q first."""
    C = np.multiply.outer(2.0 * np.arange(r) + 1.0, 2.0 * np.arange(Q) + 1.0)
    np.fmod(C, 8 * Q, out=C)  # exact: integers below 2^53
    C *= np.pi / (4.0 * Q)
    np.cos(C, out=C)
    C.flags.writeable = False
    return C


def _cosine_product(x, Q, r, analysis):
    """Unscaled C[:r] @ x, the first r analysis rows of Q samples x (which
    it may overwrite past the cache), or C[:r].T @ x, an r-row odd series
    synthesised at Q nodes from x, its first len(x) rows (the rest zero).
    The shape (r, Q) picks the product, so leaving zero rows out of x
    changes no bit: the DCT-IV pads them back, and zeros add nothing to
    the matrix product's sums."""
    if r * Q <= _MATRIX_ENTRIES:
        C = _quarter_cosines(Q, r)
        return C @ x if analysis else C[: len(x)].T @ x
    from scipy.fft import dct  # imported here: only products past the cache need it
    y = dct(x, type=4, n=Q, axis=0, overwrite_x=analysis)[: r if analysis else Q]
    y *= 0.5
    return y


def odd_analysis(samples, rows=None):
    """Coefficients of the first ``rows`` (default all Q) odd harmonics of
    the (Q, n) samples at the Q quarter-period nodes, row j harmonic 2j+1.
    A product past the cosine cache (a DCT-IV) may overwrite the samples;
    its rows are those of the all-Q analysis, bit for bit."""
    Q = len(samples)
    g = _cosine_product(samples, Q, rows or Q, True)
    g /= 0.5 * Q
    return g


def odd_collocation(stacks, M, pointwise=None, analysis=False, rows=None,
                    series_rows=None):
    """Chunked collocation of odd cosine series on the quarter period.

    ``stacks`` are odd-row stacks of one shape (r, *spatial), row j holding
    harmonic 2j+1, of a series of ``series_rows`` (default r) odd rows
    whose rows past r are zero.  Chunk by chunk of the flattened spatial
    axes, each stack is synthesised at the Q = ceil(M/2) quarter-period
    nodes and ``pointwise`` (the identity for one stack when None) maps
    the samples; it may overwrite them.  Yields (column slice, result):
    the (Q, n) samples or, with ``analysis``, odd_analysis of them, the
    coefficients of their first ``rows`` (default Q) odd harmonics.
    Chunks of ``_CHUNK_VALUES`` // Q columns (at least one) bound a sample
    buffer by 2^21 values (16 MB) at any Q.  A BLAS product rounds by its
    shape: chunking can move the last bits.
    """
    flats = [np.asarray(s, dtype=np.float64).reshape(len(s), -1) for s in stacks]
    Q = (M + 1) // 2
    r = series_rows or flats[0].shape[0]
    if Q < r:
        raise GuardError(f"{M} nodes cannot resolve harmonic {2 * r - 1}")
    columns = flats[0].shape[1]
    chunk = max(1, _CHUNK_VALUES // Q)
    for lo in range(0, columns, chunk):
        sl = slice(lo, min(lo + chunk, columns))
        values = [_cosine_product(f[:, sl], Q, r, False) for f in flats]
        g = values[0] if pointwise is None else pointwise(*values)
        yield sl, odd_analysis(g, rows) if analysis else g


def nonlinearity_map(p):
    """The pointwise map v -> beta |v|^(2p) v, written into v: the formula's
    operations in its order, so its bits for every input but a NaN's
    sign, with one temporary of v's size instead of two.  A NaN stays
    NaN; at -NaN the map keeps v's sign where the formula gives +NaN."""
    beta = nonlinearity_coefficient(p)

    def apply(v):
        if p == 1.0:
            t = v * v  # |v| ** 2.0, bit for bit, in one operation
        else:
            t = np.abs(v)
            if p != 0.5:  # |v| ** 1.0 is |v|
                t **= 2.0 * p
        t *= beta
        v *= t
        return v

    return apply


def apply_nonlinearity(coeffs, p, *, M, rows=None):
    """Odd cosine coefficients of beta |u|^(2p) u for the odd series u of
    ``rows`` (default len(coeffs)) odd rows, row j harmonic 2j+1, whose
    first rows the stack ``coeffs`` holds and whose others are zero,
    sampled at M time nodes (the caller's window sets M:
    default_node_count(L) for the window L); the result has ``rows`` rows.

    Works chunk-wise over the flattened spatial axes so the collocation
    buffer stays bounded for large 2d fields.  Both products are over the
    series' rows however many of them ``coeffs`` holds, so the result
    depends on (u, p, M) alone: neither the zero rows left out nor a
    diagnostic (first_harmonic) changes its bits.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    rows = rows or coeffs.shape[0]
    out = np.empty((rows, coeffs.size // coeffs.shape[0]))
    for sl, spectrum in odd_collocation(
        (coeffs,), M, nonlinearity_map(p), analysis=True, rows=rows, series_rows=rows
    ):
        out[:, sl] = spectrum
    return out.reshape((rows,) + coeffs.shape[1:])


def first_harmonic(coeffs, p, *, M, weights=None):
    """Harmonic 1 of beta |u|^(2p) u for the odd series u of the odd-row
    stack ``coeffs`` (M as for apply_nonlinearity), one field of
    coeffs[0]'s shape, read off the samples by a one-row analysis at every
    window size.  Returns (first, tail).

    With ``weights`` (one per site, e.g. orbit sizes on the fundamental
    block, weighting the mass per site), the same samples also give the
    tail: the l2 mass of the odd harmonics of N(u) past the rows of
    ``coeffs`` over that of the kept ones, from one analysis over all Q,
    a diagnostic for choosing L on non-polynomial powers.  One synthesis
    and one map serve both, and P1 keeps its bits; without weights the
    tail is NaN.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n_odd = coeffs.shape[0]
    first = np.empty(coeffs.shape[1:])
    flat = first.reshape(-1)
    kept = discarded = 0.0
    for sl, samples in odd_collocation((coeffs,), M, nonlinearity_map(p)):
        if weights is not None and len(samples) > _MATRIX_ENTRIES:
            # one row is a DCT-IV here, which may overwrite the samples:
            # it is row 0 of the all-Q one
            spectrum = odd_analysis(samples)
            flat[sl] = spectrum[0]
        else:
            flat[sl] = odd_analysis(samples, 1)[0]  # a matrix row leaves the samples
            if weights is None:
                continue
            spectrum = odd_analysis(samples)
        mass = np.square(spectrum, out=spectrum) @ np.ravel(weights)[sl]
        kept += float(np.sum(mass[:n_odd]))
        discarded += float(np.sum(mass[n_odd:]))
    if weights is None:
        return first, np.nan
    return first, np.sqrt(discarded / kept) if kept > 0.0 else 0.0


def sobolev_time_norm(coeffs, order=2, omega=1.0, *, weights):
    """H^order-in-time l2-in-space norm of u(t) = sum_j coeffs[j] cos(l w t)
    for the odd-row stack ``coeffs``, l = 2j+1.

    Parseval over one period 2pi/w: the l-th harmonic carries weight
    (pi/w) * sum_{k<=order} (w l)^(2k).  ``weights`` (one per site)
    weight the spatial sum, e.g. by orbit size when ``coeffs`` holds only
    the fundamental block.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    flat = coeffs.reshape(coeffs.shape[0], -1)
    spatial = np.einsum("ls,ls,s->l", flat, flat, np.ravel(weights))
    return float(np.sqrt(np.sum(_harmonic_weights(len(flat), order, omega) * spatial)))


@lru_cache(maxsize=16)
def _harmonic_weights(rows, order, omega):
    """Read-only (pi/w) sum_{k<=order} (w l)^(2k) for l = 1, 3, .., 2 rows - 1."""
    l = 2.0 * np.arange(rows) + 1.0
    poly = sum((omega * l) ** (2 * k) for k in range(order + 1))
    out = np.pi / omega * poly
    out.flags.writeable = False
    return out
