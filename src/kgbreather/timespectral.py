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
by its shape, each quantity keeps one r at every size: the stack's own
rows in apply_nonlinearity, all Q in harmonic_tail, one row for P1.

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
    t = np.multiply.outer(2 * np.arange(r) + 1, 2 * np.arange(Q) + 1) % (8 * Q)
    C = np.cos(t * (np.pi / (4.0 * Q)))
    C.flags.writeable = False
    return C


def _cosine_product(x, Q, r, analysis):
    """Unscaled C[:r] @ x, the first r analysis rows of Q samples x (which
    it may overwrite), or C[:r].T @ x, r odd rows x synthesised at Q nodes."""
    if r * Q <= _MATRIX_ENTRIES:
        C = _quarter_cosines(Q, r)
        return C @ x if analysis else C.T @ x
    from scipy.fft import dct  # imported here: only products past the cache need it
    y = dct(x, type=4, n=Q, axis=0, overwrite_x=analysis)[: r if analysis else Q]
    y *= 0.5
    return y


def odd_collocation(stacks, M, pointwise=None, analysis=False, rows=None):
    """Chunked collocation of odd cosine series on the quarter period.

    ``stacks`` are odd-row stacks of one shape (r, *spatial), row j holding
    harmonic 2j+1.  Chunk by chunk of the flattened spatial axes, each
    stack is synthesised at the Q = ceil(M/2) quarter-period nodes and
    ``pointwise`` (the identity for one stack when None) maps the samples;
    it may overwrite them.  Yields (column slice, result): the (Q, n)
    samples or, with ``analysis``, the coefficients of their first
    ``rows`` (default Q) odd harmonics, row j holding harmonic 2j+1.
    Chunks of ``_CHUNK_VALUES`` // Q columns (at least one) bound a sample
    buffer by 2^21 values (16 MB) at any Q.  A BLAS product rounds by its
    shape: chunking can move the last bits.
    """
    flats = [np.asarray(s, dtype=np.float64).reshape(len(s), -1) for s in stacks]
    Q = (M + 1) // 2
    if Q < flats[0].shape[0]:
        raise GuardError(
            f"{M} nodes cannot resolve harmonic {2 * flats[0].shape[0] - 1}"
        )
    columns = flats[0].shape[1]
    chunk = max(1, _CHUNK_VALUES // Q)
    for lo in range(0, columns, chunk):
        sl = slice(lo, min(lo + chunk, columns))
        values = [_cosine_product(f[:, sl], Q, len(f), False) for f in flats]
        g = values[0] if pointwise is None else pointwise(*values)
        if analysis:
            g = _cosine_product(g, Q, rows or Q, True)
            g /= 0.5 * Q
        yield sl, g


def nonlinearity_map(p):
    """The pointwise map v -> beta |v|^(2p) v, written into v: the formula's
    operations in its order, so its bits, with one temporary of v's size
    instead of two."""
    beta = nonlinearity_coefficient(p)

    def apply(v):
        t = np.abs(v)
        t **= 2.0 * p
        t *= beta
        v *= t
        return v

    return apply


def apply_nonlinearity(coeffs, p, *, M):
    """Odd cosine coefficients of beta |u|^(2p) u for the odd series u
    given by the odd-row stack ``coeffs`` (row j harmonic 2j+1), sampled
    at M time nodes (the caller's window sets M: default_node_count(L)
    for the window L); the result has the same rows.

    Works chunk-wise over the flattened spatial axes so the collocation
    buffer stays bounded for large 2d fields.  The analysis product is
    always over the stack's own rows, so the result depends on (coeffs,
    p, M) alone: no diagnostic (harmonic_tail) changes its bits.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n_odd = coeffs.shape[0]
    out = np.empty((n_odd, coeffs.size // n_odd))
    for sl, spectrum in odd_collocation(
        (coeffs,), M, nonlinearity_map(p), analysis=True, rows=n_odd
    ):
        out[:, sl] = spectrum
    return out.reshape(coeffs.shape)


def harmonic_tail(coeffs, p, *, M, weights):
    """l2 mass of the odd harmonics of beta |u|^(2p) u past the rows of
    ``coeffs`` over that of the kept ones (u, M as for apply_nonlinearity),
    from one analysis over all Q: a diagnostic for choosing L on
    non-polynomial powers.  ``weights`` (one per site) weight the mass
    per site, e.g. by orbit size on the fundamental block.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n_odd = coeffs.shape[0]
    weights = np.ravel(weights)
    kept = discarded = 0.0
    for sl, spectrum in odd_collocation(
        (coeffs,), M, nonlinearity_map(p), analysis=True
    ):
        mass = np.square(spectrum, out=spectrum) @ weights[sl]
        kept += float(np.sum(mass[:n_odd]))
        discarded += float(np.sum(mass[n_odd:]))
    return np.sqrt(discarded / kept) if kept > 0.0 else 0.0


def sobolev_time_norm(coeffs, order=2, omega=1.0, *, weights):
    """H^order-in-time l2-in-space norm of u(t) = sum_j coeffs[j] cos(l w t)
    for the odd-row stack ``coeffs``, l = 2j+1.

    Parseval over one period 2pi/w: the l-th harmonic carries weight
    (pi/w) * sum_{k<=order} (w l)^(2k).  ``weights`` (one per site)
    weight the spatial sum, e.g. by orbit size when ``coeffs`` holds only
    the fundamental block.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    l = 2.0 * np.arange(coeffs.shape[0]) + 1.0
    poly = sum((omega * l) ** (2 * k) for k in range(order + 1))
    flat = coeffs.reshape(coeffs.shape[0], -1)
    spatial = np.einsum("ls,ls,s->l", flat, flat, np.ravel(weights))
    return float(np.sqrt(np.sum(np.pi / omega * poly * spatial)))
