"""End-to-end assembly of small-amplitude lattice breathers.

The pipeline chains the pieces in their natural order: continuum ground
state -> lattice sampling -> Newton solve of the discrete NLS equation ->
Newton continuation of the full kernel equation (with the range component
resolved by contraction inside every residual evaluation) -> one final
range pass, optionally with a longer harmonic tail, so the reported
breather and its convergence report always belong together.

Physical units: the breather is q_j(t) = sum_l coeffs[l, j] cos(l omega t)
with omega^2 = 1 - m mu^2 and coeffs = mu^(1/p) (phi, w): harmonic 1 is
exactly mu^(1/p) phi by construction (the range projector zeroes l = 1),
and the odd harmonics l >= 3 are mu^(1/p) w, the range part.  The
breather keeps phi, phi_dnls and w on the fundamental block of the
reflection-even box (lattice.mirror_block), and a .kgbr file holds just
these.  kg_residual and the sup error run on the block too: the residual
and the error of a reflection-even wave are reflection-even, so their
sups over the block are the box's.  Box values are built only for the
leapfrog's start field, the box norms of the reports and ``coeffs``.

Accuracy is always reported against the continuum reference field
Psi = mu^(1/p) psi(mu (j + offset) / sqrt(a)) cos(omega t): the sup and
H2-in-time distances to it are the quantities whose mu -> 0 slopes the
scaling study fits.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConvergenceError, FormatError, GuardError
from .groundstate import check_exponent, sample_reference, solve_ground_state
from .kernelsolver import (
    DnlsProblem, kernel_remainder, solve_dnls_ground_state, solve_kernel_equation,
)
from .lattice import (
    BREATHER_MODES, GridSpec, asymmetry, block_laplacian, block_norm_q, block_slices,
    mirror_block, mode_offsets, norm_l2, norm_l2_mu, norm_q_mu, orbit_sizes,
)
from .rangesolver import solve_range_equation
from .timespectral import (
    default_node_count, nonlinearity_map, odd_collocation, sobolev_time_norm,
)

_MAGIC = b"KGBR"
_VERSION = 2
_HEAD = "<IIqII d d d d d"  # version, n, K, L_max, mode code, mu, a, p, m, omega

# the box must reach this many decay lengths sqrt(a/m)/mu of the profile
_DECAY_LENGTHS = 2.0


@dataclass
class PipelineConfig:
    """Everything the assembly needs, with research-grade defaults."""

    n: int
    p: float
    coupling: float
    mu: float
    mode: str = "st"
    l_max: int = 15  # harmonic window for the kernel continuation
    r_min: float = 80.0  # physical truncation radius (sets K = ceil(r_min/mu))
    tol: float = 1e-12  # range-equation contraction tolerance
    # Newton tolerance on the kernel equation; the residual's roundoff floor
    # grows like a/mu^2, and tolerances near 1e-13 end in ConvergenceError
    # at mu <= 0.02
    kernel_tol: float = 1e-11
    # when > 0, widen the final range pass's harmonic window until the
    # truncated tail of the nonlinearity is below this residual
    residual_target: float = 0.0

    def __post_init__(self):
        check_exponent(self.n, self.p)
        if not (0.0 < self.coupling < 0.5):
            raise GuardError(f"coupling must sit in (0, 1/2), got {self.coupling}")
        if not (0.0 < self.mu):
            raise GuardError(f"mu must be positive, got {self.mu}")
        mode_offsets(self.n, self.mode)
        if self.l_max < 3:
            raise GuardError("need at least harmonics 0..3 to see the range part")
        if not self.residual_target >= 0.0:  # NaN too
            raise GuardError(f"residual_target must be >= 0, got {self.residual_target}")
        if not (self.tol >= 0.0 and self.kernel_tol >= 0.0):
            raise GuardError(f"tol and kernel_tol must be >= 0, got {self.tol}, "
                             f"{self.kernel_tol}")
        _check_window(self.l_max, self.make_grid(), "l_max")

    @property
    def offsets(self):
        return mode_offsets(self.n, self.mode)

    def make_grid(self):
        return GridSpec.for_radius(
            self.n, mu=self.mu, r_min=self.r_min, offsets=self.offsets
        )


@dataclass
class Breather:
    """Assembled breather: kernel profile, range part, provenance.

    Every array lives on the fundamental block, (K+1,)*n per field.
    ``phi`` and ``phi_dnls`` are fields there; ``w`` is the one range
    stack, odd rows only: row j holds harmonic 2j+1 (row 0 is zero, the
    range has no harmonic 1), in scaled units; 1/8 of a box stack in 2d.
    ``odd_rows`` scales phi and w to the physical odd rows, on which the
    checks run; mirrored, they are the box stack ``coeffs``, which the
    package never builds.  A .kgbr file holds phi, phi_dnls and w past
    row 0.
    """

    grid: GridSpec
    p: float
    coupling: float
    mu: float
    mode: str
    multiplier: float
    omega: float
    L_max: int
    phi: np.ndarray = field(repr=False)  # kernel profile, scaled units
    phi_dnls: np.ndarray = field(repr=False)  # pure discrete-NLS solution
    w: np.ndarray = field(repr=False)  # odd-row range stack on the block
    reports: dict = field(default_factory=dict, repr=False)

    @property
    def amplitude(self):
        return self.mu ** (1.0 / self.p)

    @property
    def period(self):
        return 2.0 * np.pi / self.omega

    @property
    def coeffs(self):
        """The physical cosine stack on the box, (L_max+1, *grid.shape), built
        read-only per read for callers that want it whole; the package never
        does: its odd rows are mirror(odd_rows()), its even rows 0."""
        out = np.zeros((self.L_max + 1,) + self.grid.shape)
        out[1::2] = mirror_block(self.odd_rows(), self.grid)
        out.flags.writeable = False
        return out

    def odd_rows(self):
        """The physical odd rows on the block, a new array: row j is
        harmonic 2j+1, amplitude * w[j], row 0 amplitude * phi."""
        out = self.amplitude * self.w
        out[0] = self.amplitude * self.phi
        return out

    def start_field(self):
        """q(0) = sum_l coeffs[l] (every cos(l omega t) is 1 at t = 0), one
        harmonic at a time in row order, amplitude * mirror(phi) then
        amplitude * mirror(w_l): np.sum(coeffs, axis=0) bit for bit (q
        never holds -0)."""
        q = np.zeros(self.grid.shape)
        for row in (self.phi, *self.w[1:]):
            q += self.amplitude * mirror_block(row, self.grid)
        return q

    def peak(self):
        """max |coeffs| bit for bit, NaN included: scaling by the amplitude
        is monotone, and np.max, not max(), keeps a NaN."""
        top = np.max(
            [0.0, self.phi.max(), -self.phi.min(), self.w.max(), -self.w.min()]
        )
        return float(self.amplitude * top)

    def symmetry_error(self):
        """Largest reflection asymmetry across all harmonics of the box
        field, relative to the overall amplitude: 0 by construction, as
        every harmonic is mirrored from the block (harmonic 1 stands for
        them all).  The real check is that G0 and G0' on the block are the
        box's (tests test_block_g0_is_the_box_formula_on_the_block and
        test_g0_jacobian_matvec_is_the_folded_box_operator)."""
        scale = self.peak()
        box = mirror_block(self.amplitude * self.phi, self.grid)
        return asymmetry(box) / scale if scale else 0.0


def _check_window(L, grid, what):
    """GuardError for a harmonic window L whose stack cannot fit: more than
    2^27 values of (L+1) box fields."""
    if (L + 1) * grid.size > (1 << 27):
        raise GuardError(f"{what} wants a harmonic window of {L}; stack would not "
                         f"fit in memory on this grid")


def _window_for_residual(phi, w, grid, config, target):
    """Harmonic window needed for a truncation residual below ``target``.

    The cosine spectrum of N(u) = beta |u|^(2p) u beyond the kept window
    becomes equation residual one-for-one.  For non-polynomial powers the
    |.|^(2p) kink makes that tail decay like C / l^3; C is calibrated from
    the measured spectrum just above the working window, and the window is
    widened until sum_{l > L} C / l^3 ~ C / (4 L^2) <= target / 2.  For
    polynomial powers (integer p) the measured tail is already roundoff
    and the working window stands.  ``phi`` and the odd-row range stack
    ``w`` live on the fundamental block, whose sup over sites is the box's.
    """
    l_max = config.l_max
    amplitude = config.mu ** (1.0 / config.p)
    u = amplitude * w
    u[0] += amplitude * phi
    M = default_node_count(2 * l_max + 1)
    # sup over sites of each odd harmonic of N(u), row j harmonic 2j+1
    sup_odd = np.zeros(M // 2)
    for _, spectrum in odd_collocation(
        (u,), M, nonlinearity_map(config.p), analysis=True
    ):
        np.maximum(sup_odd, np.max(np.abs(spectrum), axis=1), out=sup_odd)
    # calibrate on the odd harmonics above the working window
    cal = np.arange(l_max + 1 + l_max % 2, min(3 * l_max + 1, M - 1), 2)
    C = float(np.max(sup_odd[cal // 2] * cal.astype(float) ** 3))
    if C <= 2.0 * target * l_max**2:
        return l_max
    L = int(np.ceil(np.sqrt(C / (2.0 * target))))
    _check_window(L, grid, f"residual target {target:.1e}")
    return L


def assemble_breather(config: PipelineConfig):
    """Run the full pipeline deterministically; same config, same bits."""
    grid = config.make_grid()
    profile = solve_ground_state(config.n, config.p)
    reference = sample_reference(profile, grid, coupling=config.coupling)
    prob = DnlsProblem(grid=grid, p=config.p, mu=config.mu,
                       coupling=config.coupling, multiplier=profile.multiplier)
    # a box narrower than the profile leaves the discrete NLS nothing to
    # localise, and its Newton solve then lands on the zero field
    decay = np.sqrt(config.coupling / profile.multiplier) / config.mu
    if grid.K < _DECAY_LENGTHS * decay:
        raise GuardError(f"box half-width K = {grid.K} is short of {_DECAY_LENGTHS:g} "
                         f"decay lengths sqrt(a/m)/mu = {decay:.3g}; raise r_min")

    # the Newton solves, and the breather, hold the fundamental block
    phi_dnls, dnls_report = solve_dnls_ground_state(
        prob, reference[block_slices(grid)], tol=config.kernel_tol
    )
    kept = norm_l2(mirror_block(phi_dnls, grid)) / norm_l2(reference)
    if not kept >= 0.5:
        raise GuardError(f"the discrete NLS solution kept {kept:.2e} of the "
                         f"sampled profile's l2 norm: no breather on this box")

    phi, w, kernel_report, op = solve_kernel_equation(
        phi_dnls, prob, L_max=config.l_max, tol=config.kernel_tol,
        range_tol=config.tol,
    )

    # final range pass: fresh report for the returned profile and, when
    # asked, a longer harmonic tail (cheap: the same operator, a warm start
    # whose first step synthesises only the working window's rows, and
    # feedback of the extra harmonics onto the low ones far below
    # tolerance).  The range stack stays on the fundamental block, odd rows
    # only, for good.
    L_res = config.l_max
    if config.residual_target > 0.0:
        L_res = _window_for_residual(
            phi, w, grid, config, config.residual_target
        )
    w, range_report = solve_range_equation(
        phi, op, config.p, config.mu, L_res, w_init=w, tol=config.tol,
    )

    # kernel-equation residual of the final range component, on the block
    # (its sup is the box's), and the harmonic tail of N(phi cos + w) past
    # the window, both off one synthesis of that wave
    R, range_report.tail_fraction = kernel_remainder(phi, prob, w, L_res, tail=True)
    g_residual = prob.apply_g0(phi) + R

    reports = {
        "config": asdict(config),
        "grid": {"K": grid.K, "size": grid.size, "offsets": list(grid.offsets)},
        "profile": {
            "multiplier": profile.multiplier,
            "amplitude": profile.amplitude,
            "el_residual": profile.el_residual,
        },
        "dnls_newton": asdict(dnls_report),
        "kernel_newton": asdict(kernel_report),
        "range": range_report.to_dict(),
        "kernel_residual_sup": float(np.max(np.abs(g_residual))),
        "remainder_norm_mu": norm_l2_mu(mirror_block(R, grid), grid),
        "dist_phi_dnls": norm_q_mu(mirror_block(phi - phi_dnls, grid), grid),
        "dist_dnls_ref": norm_q_mu(mirror_block(phi_dnls, grid) - reference, grid),
    }

    b = Breather(
        grid=grid, p=config.p, coupling=config.coupling, mu=config.mu,
        mode=config.mode, multiplier=profile.multiplier,
        omega=float(np.sqrt(prob.omega_sq)), L_max=L_res, phi=phi,
        phi_dnls=phi_dnls, w=w, reports=reports,
    )
    reports["symmetry_error"] = b.symmetry_error()
    return b


def reference_profile(b: Breather):
    """Sampled continuum profile psi on b's grid (scaled units)."""
    profile = solve_ground_state(b.grid.n, b.p)
    return sample_reference(profile, b.grid, coupling=b.coupling)


def reference_coefficients(b: Breather):
    """Continuum reference Psi as cosine rows 0 and 1 on b's grid: the
    sampled NLS profile rides the first harmonic alone."""
    coeffs = np.zeros((2,) + b.grid.shape)
    coeffs[1] = b.amplitude * reference_profile(b)
    return coeffs


def kg_residual(b: Breather):
    """Sup over sites and collocation times of the lattice field equation
    applied to the breather:

        max | q_tt - a (lap q) + q - beta |q|^(2p) q |

    evaluated on 4 (L_max + 1) equispaced times (enough that the cubic
    image of the harmonic window is sampled alias-free).  The linear part
    acts per harmonic, so it is applied to the coefficients and synthesised
    alongside q.

    It runs on the fundamental block: the residual of a reflection-even
    wave is reflection-even, so its sup there is the box's.  The Laplacian
    is lattice.block_laplacian, which reads box rows -1..K and gives the
    box's values bit for bit; the BLAS products of the collocation may
    round by the block's shape.
    """
    M = default_node_count(b.L_max)
    l = np.arange(1, b.L_max + 1, 2)
    factors = (1.0 - (b.omega * l) ** 2).reshape((-1,) + (1,) * b.grid.n)
    c = b.odd_rows()
    linear = factors * c
    for row, harmonic in zip(linear, c):  # one harmonic's temporaries at a time
        row -= b.coupling * block_laplacian(harmonic, b.grid)
    nonlinear = nonlinearity_map(b.p)
    worst = 0.0  # np.maximum, not max(): a NaN chunk must not drop out
    for _, res in odd_collocation(
        (c, linear), M, lambda q, lq: np.subtract(lq, nonlinear(q), out=lq)
    ):
        worst = np.maximum(worst, np.max(np.abs(res, out=res)))
    return float(worst)


@dataclass
class ErrorReport:
    """Distances between the breather and the continuum reference field."""

    e_h2: float  # H2-in-time, plain l2 in space
    e_sup: float  # sup over sites and times
    sup_bound: float  # 2 sqrt(mu) sum_l ||diff_l||_Q (must dominate e_sup)
    w_x2: float  # X2 size of the physical range part
    harmonic_fraction: float  # l2 share of the first harmonic
    tail_fraction: float  # l2 share of harmonics l >= 2
    dist_phi_dnls: float  # ||phi - Phi||_{Q_mu}
    dist_dnls_ref: float  # ||Phi - psi||_{Q_mu}

    def to_dict(self):
        return {k: float(v) for k, v in self.__dict__.items()}


def error_vs_reference(b: Breather):
    """Measure the breather against Psi = mu^(1/p) psi cos(omega t).

    Works on assembled and on loaded breathers alike: everything is
    recomputed from the stored arrays, and ``b`` is left untouched.  The
    l2 norms (e_h2, w_x2, the harmonic fractions) are orbit-weighted sums
    over the fundamental block, and the sup error collocates the same
    difference stack there: it is reflection-even, so its sup over the
    block is the box's.  sup_bound takes the box Q norms of all its
    harmonics in one pass on the block (lattice.block_norm_q).
    """
    grid = b.grid
    home = block_slices(grid)
    sigma = orbit_sizes(grid)
    amplitude = b.amplitude
    psi = reference_profile(b)
    dist_dnls_ref = norm_q_mu(mirror_block(b.phi_dnls, grid) - psi, grid)
    psi *= amplitude  # Psi's one harmonic, physical
    diff = b.odd_rows()  # the physical harmonics, less Psi below
    flat = diff.reshape(len(diff), -1)
    per_l = np.sqrt(np.einsum("ls,ls,s->l", flat, flat, sigma.ravel()))
    total = float(np.sqrt(np.sum(per_l**2)))
    diff[0] -= psi[home]
    del psi, flat
    e_h2 = sobolev_time_norm(diff, order=2, omega=b.omega, weights=sigma)
    e_sup = 0.0  # np.maximum, not max(): a NaN chunk must not drop out
    for _, values in odd_collocation((diff,), default_node_count(b.L_max)):
        e_sup = np.maximum(e_sup, np.max(np.abs(values, out=values)))
    sup_bound = 2.0 * np.sqrt(b.mu) * np.sum(block_norm_q(diff, grid, b.mu))
    del diff
    if e_sup > sup_bound * (1.0 + 1e-10):
        raise GuardError(
            f"sup-embedding invariant violated: e_sup={e_sup:.3e} exceeds "
            f"2 sqrt(mu) sum ||.||_Q = {sup_bound:.3e}"
        )
    return ErrorReport(
        e_h2=e_h2, e_sup=float(e_sup), sup_bound=float(sup_bound),
        w_x2=amplitude * sobolev_time_norm(b.w, order=2, omega=1.0, weights=sigma),
        harmonic_fraction=float(per_l[0] / total) if total else 0.0,
        tail_fraction=float(np.sqrt(np.sum(per_l[1:] ** 2)) / total) if total else 0.0,
        dist_phi_dnls=norm_q_mu(mirror_block(b.phi - b.phi_dnls, grid), grid),
        dist_dnls_ref=dist_dnls_ref,
    )


# --------------------------------------------------------------- scaling study

# columns with a log-log slope against mu; kg_residual sits at a floor
# (roundoff, or the truncation tail), so the table reports its maximum
SCALING_COLUMNS = (
    "e_h2",
    "e_sup",
    "w_x2",
    "tail_fraction",
    "dist_phi_dnls",
    "dist_dnls_ref",
    "remainder_norm_mu",
)


@dataclass
class ScalingRow:
    mu: float
    e_h2: float
    e_sup: float
    w_x2: float
    harmonic_fraction: float
    tail_fraction: float
    dist_phi_dnls: float
    dist_dnls_ref: float
    remainder_norm_mu: float
    kg_residual: float
    omega: float


@dataclass
class SlopeFit:
    column: str
    slope: float
    stderr: float
    points: int

    @property
    def ci(self):
        """Rough 95% band: slope +/- 2 stderr."""
        return (self.slope - 2.0 * self.stderr, self.slope + 2.0 * self.stderr)


@dataclass
class ScalingTable:
    n: int
    p: float
    coupling: float
    mode: str
    rows: list
    failures: dict = field(default_factory=dict)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows])

    def slope(self, name):
        """log-log slope of a column against mu, with its standard error."""
        if name not in SCALING_COLUMNS:
            raise GuardError(f"no slope defined for column {name!r}")
        if len(self.rows) < 4:
            raise GuardError(
                f"slope fit wants >= 4 surviving rows, have {len(self.rows)}"
            )
        x = np.log(self.column("mu"))
        y = self.column(name)
        if np.any(y <= 0.0):
            raise GuardError(f"column {name!r} is not positive; no log slope")
        coeffs, cov = np.polyfit(x, np.log(y), 1, cov=True)
        return SlopeFit(
            column=name,
            slope=float(coeffs[0]),
            stderr=float(np.sqrt(cov[0, 0])),
            points=len(self.rows),
        )

    def to_json(self, path):
        payload = {
            "n": self.n,
            "p": self.p,
            "coupling": self.coupling,
            "mode": self.mode,
            "rows": [asdict(r) for r in self.rows],
            "failures": self.failures,
            # np.max, not max(): a NaN residual in any row must propagate
            "kg_residual_max": (float(np.max(self.column("kg_residual")))
                                if self.rows else None),
            "slopes": {},
        }
        for name in SCALING_COLUMNS:
            try:
                fit = self.slope(name)
            except GuardError:
                continue
            payload["slopes"][name] = {
                "slope": fit.slope,
                "stderr": fit.stderr,
                "ci": list(fit.ci),
                "points": fit.points,
            }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def to_csv(self, path):
        names = ["mu", *SCALING_COLUMNS, "kg_residual", "harmonic_fraction", "omega"]
        with open(path, "w") as fh:
            fh.write(f"# scaling study n={self.n} p={self.p!r} "
                     f"a={self.coupling!r} mode={self.mode}\n")
            fh.write(",".join(names) + "\n")
            for r in self.rows:
                fh.write(
                    ",".join(f"{float(getattr(r, c))!r}" for c in names) + "\n"
                )


def scaling_study(mu_list, n, p, coupling, mode="st", progress=None, **config_kwargs):
    """Assemble one breather per mu and tabulate the reference distances.

    mu values must be strictly decreasing.  Per-mu failures (guard trips,
    stalled iterations) are recorded, not raised; any later slope fit
    insists on >= 4 surviving rows.  ``progress(mu, row)``, if given, is
    called after every mu, with row None when that mu failed.  One
    breather is alive at a time: phi, phi_dnls and its odd-row range
    stack, all on the fundamental block.
    """
    mus = [float(m) for m in mu_list]
    if len(mus) < 2 or any(b >= a for a, b in zip(mus, mus[1:])):
        raise GuardError("mu list must be strictly decreasing")
    rows, failures = [], {}
    for mu in mus:
        # release the last mu's breather before the next one assembles
        row = b = None
        try:
            cfg = PipelineConfig(
                n=n, p=p, coupling=coupling, mu=mu, mode=mode, **config_kwargs
            )
            b = assemble_breather(cfg)
            err = error_vs_reference(b).to_dict()
            del err["sup_bound"]  # every other distance is a column
            row = ScalingRow(
                mu=mu, **err, remainder_norm_mu=b.reports["remainder_norm_mu"],
                kg_residual=kg_residual(b), omega=b.omega,
            )
            rows.append(row)
        except (GuardError, ConvergenceError) as exc:
            failures[repr(mu)] = str(exc)
        if progress is not None:
            progress(mu, row)
    return ScalingTable(
        n=n, p=p, coupling=coupling, mode=mode, rows=rows, failures=failures
    )


# ----------------------------------------------------------------- file I/O

def save_breather(path, b: Breather):
    """Binary dump: header (geometry, parameters, offsets), then phi, phi_dnls
    and the range rows of harmonics 3, 5, ..., L_max on the fundamental
    block.  A breather the file cannot give back bit for bit (arrays not
    of the block's shape, harmonic-1 range row not +0) is a GuardError."""
    g = b.grid
    block = (g.K + 1,) * g.n
    if not b.phi.shape == b.phi_dnls.shape == block == b.w.shape[1:] or (
            len(b.w) != (b.L_max + 1) // 2):
        raise GuardError(f"a .kgbr file holds fields of the block {block} and "
                         f"{(b.L_max + 1) // 2} range rows; got {b.phi.shape}, "
                         f"{b.phi_dnls.shape} and {b.w.shape}")
    if b.w[0].any() or np.signbit(b.w[0]).any():
        raise GuardError("a .kgbr file holds no harmonic-1 range row; it must be +0")
    mode_code = list(BREATHER_MODES[g.n]).index(b.mode)
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack(_HEAD, _VERSION, g.n, g.K, b.L_max, mode_code,
                                      g.mu, b.coupling, b.p, b.multiplier, b.omega))
        fh.write(struct.pack(f"<{g.n}d", *g.offsets))
        for arr in (b.phi, b.phi_dnls, b.w[1:]):
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_breather(path):
    """Read the save_breather layout in two reads into the arrays the
    breather keeps.  Anything else is a FormatError, version-1 files (box
    stacks) included: re-run ``breather`` with the config in their JSON
    report to rebuild them."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    with fh:
        off = 4 + struct.calcsize(_HEAD)
        head = fh.read(off + 16)  # the offsets of up to two axes follow
        if head[:4] != _MAGIC:
            raise FormatError(f"{path}: not a breather file")
        try:
            version, n, K, L_max, mode_code, mu, coupling, p, m, omega = (
                struct.unpack_from(_HEAD, head, 4)
            )
            if version != _VERSION:
                raise FormatError(f"{path}: unsupported version {version}")
            offsets = struct.unpack_from(f"<{n}d", head, off)
            off += 8 * n
            grid = GridSpec(n=n, K=K, mu=mu, offsets=offsets)
            # the windows DnlsProblem and RangeOperator guard at assembly
            check_exponent(n, p)
            if not (0.0 < coupling < 0.5 and mu < np.inf and 0.0 < m < np.inf
                    and m * mu * mu < 0.5 and 0.0 < omega
                    and abs(omega * omega - 1.0) < 0.5):
                raise GuardError(f"need 0 < a < 1/2, finite mu, 0 < m mu^2 < 1/2 "
                                 f"and omega > 0 with |omega^2 - 1| < 1/2; got "
                                 f"a={coupling}, mu={mu}, m={m}, omega={omega}")
        except (struct.error, GuardError) as exc:
            raise FormatError(f"{path}: corrupt header ({exc})") from exc
        modes = list(BREATHER_MODES[n].items())
        if mode_code >= len(modes) or modes[mode_code][1] != grid.offsets:
            raise FormatError(f"{path}: mode code {mode_code} does not name the "
                              f"offsets {grid.offsets} for n={n}")
        mode = modes[mode_code][0]
        block = (K + 1,) * n
        fields = 1 + (L_max + 1) // 2  # phi, phi_dnls, rows of harmonics 3..L_max
        size = fh.seek(0, 2) - off
        if L_max < 1 or size != 8 * fields * (K + 1) ** n:
            raise FormatError(
                f"{path}: payload holds {size // 8} values; a window "
                f"L_max = {L_max} (at least 1) needs {fields * (K + 1) ** n}"
            )
        profiles = np.empty((2,) + block, "<f8")
        w = np.zeros(((L_max + 1) // 2,) + block, "<f8")
        fh.seek(off)
        fh.readinto(profiles)
        fh.readinto(w[1:])
    phi, phi_dnls = profiles
    return Breather(grid=grid, p=p, coupling=coupling, mu=mu, mode=mode,
                    multiplier=m, omega=omega, L_max=L_max, phi=phi,
                    phi_dnls=phi_dnls, w=w)


def save_breather_report(path, b: Breather, extra=None):
    """Human-readable JSON: parameters, convergence reports, diagnostics."""
    payload = {
        "n": b.grid.n, "K": b.grid.K, "mu": b.mu, "coupling": b.coupling, "p": b.p,
        "mode": b.mode, "multiplier": b.multiplier, "omega": b.omega,
        "L_max": b.L_max, "amplitude": b.peak(), "reports": b.reports,
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")
