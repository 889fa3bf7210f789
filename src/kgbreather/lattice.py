"""Lattice geometry, reflection symmetry, and the discrete Laplacian.

Sites live on an n-dimensional box (n = 1 or 2).  Along each axis the index
j runs over -K..K when the symmetry offset is 0 and over -K-1..K when it is
1/2; a site sits at the physical position x = mu*(j + offset) and zero
Dirichlet data is imposed outside the box.  A field is a plain array of
the box's shape (``GridSpec.shape``), and with these conventions a field
that is even under reflection through the box center is exactly an array
invariant under ``np.flip`` along each axis (``asymmetry`` measures how far
it is from that).  Such a field is determined by its fundamental block
(indices j >= 0 on each axis), which is how the program holds every such
field: the helpers below cut the block out of a box field and mirror it
back (``block_slices`` / ``mirror_block``), grow it by the mirrored
neighbours its Laplacian reads (``padded_block``) to take the box's
Laplacian (``block_laplacian``) and Q norm (``block_norm_q``) on the
block, and weigh its sites by their orbit sizes; scaled by the square
roots of these
(``orbit_weights``), the block values are the orthonormal orbit
coordinates in which the Newton solves run.

The module does no file I/O; the one snapshot format, ``.kgbr``, is read
and written by ``breather.save_breather`` / ``load_breather``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError

_VALID_OFFSETS = (0.0, 0.5)


@dataclass(frozen=True)
class GridSpec:
    """Box geometry: dimension, half-width K, lattice spacing mu, offsets."""

    n: int
    K: int
    mu: float
    offsets: tuple = None

    def __post_init__(self):
        if self.n not in (1, 2):
            raise GuardError(f"dimension must be 1 or 2, got {self.n}")
        if self.K < 2:
            raise GuardError(f"need K >= 2, got {self.K}")
        if not (0.0 < self.mu):
            raise GuardError(f"lattice spacing must be positive, got {self.mu}")
        offsets = self.offsets
        if offsets is None:
            offsets = (0.0,) * self.n
        offsets = tuple(float(o) for o in offsets)
        if len(offsets) != self.n or any(o not in _VALID_OFFSETS for o in offsets):
            raise GuardError(f"offsets must be {self.n} values from {{0, 1/2}}")
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def for_radius(cls, n, mu, r_min, offsets=None):
        """Smallest box with K*mu >= r_min (physical decay radius)."""
        if not (mu > 0.0) or not (r_min > 0.0):
            raise GuardError("need mu > 0 and r_min > 0")
        # relative slack: r_min = K * mu must give back K for any K, and
        # the rounding error of the ratio grows with it
        K = int(np.ceil(r_min / mu * (1.0 - 1e-12)))
        return cls(n=n, K=max(K, 2), mu=mu, offsets=offsets)

    def axis_length(self, axis):
        return 2 * self.K + 1 if self.offsets[axis] == 0.0 else 2 * self.K + 2

    @property
    def shape(self):
        return tuple(self.axis_length(ax) for ax in range(self.n))

    @property
    def size(self):
        return int(np.prod(self.shape))

    def axis_indices(self, axis):
        lo = -self.K if self.offsets[axis] == 0.0 else -self.K - 1
        return np.arange(lo, self.K + 1)

    def position_axes(self):
        """Physical coordinates mu*(j + offset), one 1d array per axis."""
        return tuple(
            self.mu * (self.axis_indices(ax) + self.offsets[ax])
            for ax in range(self.n)
        )

    def radius_mesh(self, scale=1.0):
        """Euclidean distance of every site from the symmetry center.

        ``scale`` divides the coordinates first, so radius_mesh(np.sqrt(a))
        yields the argument at which a continuum profile for unit coupling
        must be sampled to represent coupling ``a``.
        """
        axes = self.position_axes()
        if self.n == 1:
            return np.abs(axes[0]) / scale
        x = axes[0][:, None] / scale
        y = axes[1][None, :] / scale
        return np.hypot(x, y)


def asymmetry(a):
    """Max deviation of a box field from reflection evenness, over all axes."""
    a = np.asarray(a, dtype=np.float64)
    return max(
        float(np.max(np.abs(a - np.flip(a, axis=ax)))) for ax in range(a.ndim)
    )


# The one table of symmetry centers the breather families can sit on, by
# dimension and mode code: st a lattice site, p (1d) the midpoint of a bond
# or (2d) the center of a plaquette, h1 / h2 (2d) the midpoint of a bond
# along y / along x.  The offset per axis is what the reflection symmetry
# of the box encodes.  A mode's position in its dimension's table is its
# code in .kgbr files (st 0, p 1, h1 2, h2 3), so the order is fixed.
BREATHER_MODES = {
    1: {"st": (0.0,), "p": (0.5,)},
    2: {
        "st": (0.0, 0.0),
        "p": (0.5, 0.5),
        "h1": (0.0, 0.5),
        "h2": (0.5, 0.0),
    },
}


def mode_offsets(n, mode):
    """Offsets of a mode code; the one check that a code exists for n."""
    try:
        return BREATHER_MODES[n][mode]
    except KeyError:
        raise GuardError(
            f"unknown mode {mode!r} for n={n}; choose from "
            f"{sorted(BREATHER_MODES.get(n, {}))}"
        ) from None


def _neighbor_views(a, out, axes):
    """(out view, a view) pairs that laplacian sums in place, in its order."""
    if np.shares_memory(a, out):
        raise GuardError("laplacian output must not overlap its input")
    pairs = []
    for ax in axes:
        lead = (slice(None),) * ax
        lo, hi = lead + (slice(None, -1),), lead + (slice(1, None),)
        pairs += [(out[lo], a[hi]), (out[hi], a[lo])]  # forward, then backward
    return pairs


def laplacian(a, axes=None, out=None):
    """Nearest-neighbor discrete Laplacian with zero Dirichlet exterior.

    (lap a)_j = sum_{|e|=1} a_{j+e} - 2n a_j, acting over ``axes`` (all axes
    by default, so stacks of fields can restrict to their spatial axes).
    Neighbors are added in place, so with a preallocated ``out`` the call
    allocates no array; an ``out`` that overlaps ``a`` raises GuardError.
    """
    a = np.asarray(a, dtype=np.float64)
    if axes is None:
        axes = range(a.ndim)
    out = np.empty_like(a) if out is None else out
    neighbors = _neighbor_views(a, out, axes)
    np.multiply(a, -2.0 * len(axes), out=out)
    for into, neighbor in neighbors:
        into += neighbor
    return out


def dirichlet_energy(a):
    """Sum of squared nearest-neighbor differences, boundary bonds included.

    Equals <a, -lap a> exactly (the boundary bonds connect to the zero
    exterior), which is the form the energy functional wants.
    """
    a = np.asarray(a, dtype=np.float64)
    total = 0.0
    for ax in range(a.ndim):
        d = np.diff(a, axis=ax, prepend=0.0, append=0.0)
        total += float(np.sum(d * d))
    return total


def norm_l2(a):
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))


def norm_l2_mu(a, grid):
    """l2 norm under the continuum volume element mu^n."""
    return grid.mu ** (grid.n / 2.0) * norm_l2(a)


def norm_q_mu(a, grid):
    """Scaled H^1 norm: mu^n sum a^2 + mu^(n-2) sum of squared differences.

    For a sampled profile a_j = psi(mu j) this converges to the continuum
    H^1 norm of psi.  In 1d it dominates the sup norm with constant 1.
    """
    a = np.asarray(a, dtype=np.float64)
    mu, n = grid.mu, grid.n
    return float(np.sqrt(mu**n * np.sum(a * a) + mu ** (n - 2) * dirichlet_energy(a)))


# ---------------------------------------------------------------------------
# reduction to the reflection-symmetric fundamental block
#
# Per axis the fundamental indices are j = 0..K; an interior orbit {j, -j}
# (or {j, -1-j} for offset 1/2) has two members, the center j = 0 of an
# offset-0 axis has one.  Orbit coordinates scale the block values by
# sqrt(orbit size), so they keep the box's l2 norms and an operator that
# commutes with the reflections becomes a symmetric matrix on the block
# (per axis, -lap becomes the tridiagonal minus_laplacian_bands).


def orbit_weights(grid):
    """sqrt(orbit size) on the fundamental block (outer product over axes)."""
    w = None
    for ax in range(grid.n):
        wa = np.full(grid.K + 1, np.sqrt(2.0))
        if grid.offsets[ax] == 0.0:
            wa[0] = 1.0
        w = wa if w is None else np.multiply.outer(w, wa)
    return w


def orbit_sizes(grid):
    """Number of box sites (1, 2 or 4) that each block site stands for."""
    return np.rint(orbit_weights(grid) ** 2)


def minus_laplacian_bands(K, offset):
    """(diag, off) of -lap along one axis of the block in orbit coordinates:
    an offset-0 center meets the orbit {1, -1} with weight sqrt(2); on an
    offset-1/2 axis sites 0 and -1 form one orbit, a bond that drops out."""
    diag = np.full(K + 1, 2.0)
    off = -np.ones(K)
    if offset == 0.0:
        off[0] = -np.sqrt(2.0)
    else:
        diag[0] = 1.0
    return diag, off


def block_slices(grid):
    """Index of the fundamental block (indices j >= 0) in a box array."""
    return tuple(
        slice(grid.K, None) if grid.offsets[ax] == 0.0 else slice(grid.K + 1, None)
        for ax in range(grid.n)
    )


def _block_index(j, offset):
    """Block index that box index j reads: j itself, or its mirror image
    -j (offset 0) or -1-j (offset 1/2)."""
    return np.where(j >= 0, j, -j - (offset != 0.0))


def _gather(block, grid, indices):
    """block read at the box indices ``indices`` (one array per axis), each
    through its block index, in one gather; leading axes ride along."""
    index = np.ix_(*(_block_index(j, o) for j, o in zip(indices, grid.offsets)))
    return block[(slice(None),) * (block.ndim - grid.n) + index]


def mirror_block(block, grid):
    """Reflection-even box field(s) holding ``block`` on the fundamental
    block; leading axes beyond the grid's (a harmonic index) ride along.
    The output is the only allocation."""
    block = np.asarray(block, dtype=np.float64)
    return _gather(block, grid, [grid.axis_indices(ax) for ax in range(grid.n)])


def padded_block(block, grid):
    """The block field(s) grown by one site below each axis, box index
    j = -1, which holds its mirror image: what a block site's Laplacian
    reads.  Leading axes ride along as in mirror_block."""
    return _gather(block, grid, [np.arange(-1, grid.K + 1)] * grid.n)


def block_laplacian(block, grid):
    """The box Laplacian of the reflection-even field that ``block`` holds,
    at the block's sites: ``laplacian`` over ``padded_block``, so each
    site reads the neighbours the box's Laplacian reads, in its order, and
    the values are the box's bit for bit.  It acts on the trailing
    ``grid.n`` axes, so each field of a stack gets its own Laplacian,
    with the bits of a call on that field alone."""
    padded = padded_block(block, grid)
    spatial = range(padded.ndim - grid.n, padded.ndim)
    return laplacian(padded, axes=spatial)[(Ellipsis,) + (slice(1, None),) * grid.n]


def block_norm_q(block, grid, mu=1.0):
    """The H^1-type norm (sum a^2 + mu^-2 sum of squared differences)^(1/2)
    of the box field mirror_block(field) for every field of a block stack
    (a float for one field), from the block alone, in one pass over the
    stack.  The box's sum of squares is the orbit-weighted one.  Its
    Dirichlet energy is a sum over bonds, and every box bond along an axis
    is the mirror image of a block bond (j-1, j), j >= 1, or of the edge
    bond (K, K+1) to the zero exterior, as many times as the orbit size of
    the block site j (of K at the edge); the bond through an offset-1/2
    center joins a site to its own mirror image and adds nothing.  So the
    sums are the box's, in another order.  The bond differences are taken
    along the flattened stack, whose entries at j = 0 (no bond) are
    zeroed: one temporary the size of the stack, and no strided one."""
    block = np.asarray(block, dtype=np.float64)
    sigma = orbit_sizes(grid)
    fields = block.reshape(-1, sigma.size)
    flat, weights = fields.reshape(-1), sigma.ravel()
    bonds = np.empty_like(fields)
    cube = bonds.reshape((-1,) + sigma.shape)
    spatial = "ij"[: grid.n]
    energy = 0.0
    for ax in range(grid.n):
        after = (slice(None),) * (grid.n - 1 - ax)  # the axes past ax
        stride = (grid.K + 1) ** len(after)
        np.subtract(flat[stride:], flat[:-stride], out=bonds.reshape(-1)[stride:])
        cube[(Ellipsis, 0) + after] = 0.0
        edge = (Ellipsis, slice(-1, None)) + after
        outer = fields.reshape(cube.shape)[edge]
        energy = energy + np.einsum("fs,fs,s->f", bonds, bonds, weights) + np.einsum(
            f"f{spatial},f{spatial},{spatial}->f", outer, outer, sigma[edge])
    squares = np.einsum("fs,fs,s->f", fields, fields, weights)
    return np.sqrt(squares + energy / (mu * mu)).reshape(block.shape[: block.ndim - grid.n])[()]
