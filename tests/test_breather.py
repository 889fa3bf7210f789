"""Tests for the assembly pipeline and its diagnostics.

Oracle notes:

* The assembled breather satisfies the lattice field equation to solver
  tolerance; the residual oracle is therefore the equation itself,
  evaluated independently of the spectral solve (kg_residual synthesizes
  the time signal and applies the physical-space operator directly).
* The continuum reference field fed through the same residual must be
  *worse* by orders of magnitude: it solves the equations only to
  O(mu^(1/p + 2)).  This gap is the cheapest certificate that the
  corrections computed on top of the reference are real.
* Slope oracles for the mu sweep (n = 1, p = 1, measured on well-resolved
  grids, frozen here): e_h2 -> 2.50, e_sup -> 3.00, w_x2 -> 2.50,
  dist_dnls_ref -> 2.00, dist_phi_dnls -> 2.00.
"""
import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

import kgbreather.breather as breather
import kgbreather.rangesolver as rangesolver
import kgbreather.timespectral as timespectral
from kgbreather.breather import (
    Breather,
    PipelineConfig,
    assemble_breather,
    error_vs_reference,
    kg_residual,
    load_breather,
    reference_coefficients,
    reference_profile,
    save_breather,
    save_breather_report,
    scaling_study,
)
from kgbreather.cli import main
from kgbreather.errors import FormatError, GuardError
from kgbreather.lattice import (
    BREATHER_MODES, GridSpec, block_slices, laplacian, mirror_block,
)
from kgbreather.timespectral import default_node_count, nonlinearity_coefficient
from references import box_sup_bound, whole_box_kg_residual, whole_box_sup_error


@pytest.fixture(scope="module")
def small_1d():
    """One well-resolved 1d breather shared by the cheap checks."""
    cfg = PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.2, r_min=40.0)
    return assemble_breather(cfg)


def test_config_guards():
    good = dict(n=1, p=1.0, coupling=0.25, mu=0.2)
    with pytest.raises(GuardError):
        PipelineConfig(**{**good, "coupling": 0.7})
    with pytest.raises(GuardError):
        PipelineConfig(**{**good, "coupling": -0.1})
    with pytest.raises(GuardError):
        PipelineConfig(**{**good, "mu": -1.0})
    with pytest.raises(GuardError):
        PipelineConfig(**good, mode="h1")  # 2d-only mode
    with pytest.raises(GuardError):
        PipelineConfig(**good, l_max=2)
    with pytest.raises(GuardError):
        PipelineConfig(**good, residual_target=-1e-9)
    with pytest.raises(GuardError):
        PipelineConfig(n=1, p=2.5, coupling=0.25, mu=0.2)  # p >= 2/n
    with pytest.raises(GuardError):
        PipelineConfig(n=2, p=1.5, coupling=0.25, mu=0.2)  # p >= 2/n
    with pytest.raises(GuardError):
        PipelineConfig(n=1, p=0.3, coupling=0.25, mu=0.2)  # p < 1/2


@pytest.mark.parametrize("field, value", [
    ("residual_target", np.nan), ("tol", -1.0), ("tol", np.nan),
    ("kernel_tol", -1e-11), ("kernel_tol", np.nan),
])
def test_config_refuses_nan_and_negative_tolerances(field, value):
    """A NaN residual target was ignored, and a NaN or negative tolerance
    ended in a ConvergenceError after every Picard step: both are refused
    when the config is made."""
    with pytest.raises(GuardError, match=field):
        PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.2, **{field: value})


def test_config_refuses_a_working_window_that_cannot_fit():
    # the stack guard of the widened window, for l_max: (L+1) * 1601 sites
    # > 2^27 values
    PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.1, l_max=80_000)
    with pytest.raises(GuardError, match="l_max wants a harmonic window"):
        PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.1, l_max=90_000)


def test_mode_offset_map():
    assert BREATHER_MODES == {
        1: {"st": (0.0,), "p": (0.5,)},
        2: {"st": (0.0, 0.0), "p": (0.5, 0.5), "h1": (0.0, 0.5), "h2": (0.5, 0.0)},
    }
    for n, modes in BREATHER_MODES.items():
        for mode, offsets in modes.items():
            cfg = PipelineConfig(n=n, p=1.0 / n, coupling=0.2, mu=0.3, mode=mode)
            assert cfg.offsets == offsets
            assert cfg.make_grid().offsets == offsets


def test_assembly_is_deterministic():
    cfg = PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.3, r_min=20.0, l_max=7)
    b1 = assemble_breather(cfg)
    b2 = assemble_breather(cfg)
    assert b1.coeffs.tobytes() == b2.coeffs.tobytes()
    assert b1.phi.tobytes() == b2.phi.tobytes()
    assert b1.w.tobytes() == b2.w.tobytes()


def test_2d_assembly_with_a_wide_window_is_deterministic():
    # the auto-widened window runs the cached cosine products at Q = 2(L+1)
    cfg = PipelineConfig(
        n=2, p=0.5, coupling=0.25, mu=0.4, mode="h1", r_min=8.0,
        residual_target=1e-8,
    )
    b1 = assemble_breather(cfg)
    b2 = assemble_breather(cfg)
    assert b1.L_max > cfg.l_max
    assert b1.coeffs.tobytes() == b2.coeffs.tobytes()
    assert b1.reports["range"] == b2.reports["range"]


def test_first_harmonic_is_kernel_profile(small_1d):
    b = small_1d
    kernel_part = b.mu ** (1.0 / b.p) * mirror_block(b.phi, b.grid)
    assert b.coeffs[1].tobytes() == kernel_part.tobytes()
    assert np.all(b.w[0] == 0.0)


def test_frequency_convention(small_1d):
    b = small_1d
    assert b.omega == pytest.approx(
        np.sqrt(1.0 - b.multiplier * b.mu**2), rel=0, abs=0
    )
    assert b.period == pytest.approx(2.0 * np.pi / b.omega)


def test_residual_and_symmetry(small_1d):
    b = small_1d
    assert kg_residual(b) < 1e-12
    assert b.symmetry_error() < 1e-13


def _reference_breather(b):
    """``b`` with its kernel profile replaced by the sampled continuum
    profile and no range part: its stack is reference_coefficients(b),
    rows 0 and 1, and zero beyond."""
    psi = reference_profile(b)[block_slices(b.grid)]
    fake = dataclasses.replace(b, phi=psi, w=np.zeros_like(b.w))
    assert fake.coeffs[:2].tobytes() == reference_coefficients(b).tobytes()
    assert not fake.coeffs[2:].any()
    return fake


def _per_node_residual(b):
    """Reference: kg_residual as one dense mat-vec per midpoint node."""
    L = b.L_max
    M = 4 * (L + 1)
    l = np.arange(L + 1)
    tau = np.pi * (2.0 * np.arange(M) + 1.0) / (2.0 * M)  # midpoint nodes
    cos_basis = np.cos(np.outer(tau, l))
    acc_basis = -((b.omega * l) ** 2) * cos_basis
    flat = b.coeffs.reshape(L + 1, -1)
    worst = 0.0
    for m in range(M):
        q = (cos_basis[m] @ flat).reshape(b.grid.shape)
        q_tt = (acc_basis[m] @ flat).reshape(b.grid.shape)
        res = (
            q_tt
            - b.coupling * laplacian(q)
            + q
            - nonlinearity_coefficient(b.p) * np.abs(q) ** (2.0 * b.p) * q
        )
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


@pytest.mark.parametrize("case", ["breather", "reference", "golden_2d"])
def test_residual_matches_per_node_loop(small_1d, case):
    if case == "golden_2d":
        b = assemble_breather(PipelineConfig(
            n=2, p=0.5, coupling=0.25, mu=0.3, mode="h1", r_min=40 * 0.3
        ))
    elif case == "reference":
        b = _reference_breather(small_1d)
    else:
        b = small_1d
    # the residual cancels terms of the field's size, so the two orders
    # of summation may differ by a few ulps of the amplitude
    ulp = np.finfo(np.float64).eps * float(np.max(np.abs(b.coeffs)))
    assert kg_residual(b) == pytest.approx(
        _per_node_residual(b), rel=1e-12, abs=8 * ulp
    )


def test_reference_field_is_much_worse(small_1d):
    """Psi solves the equation only to O(mu^(1/p+2)); the assembled
    breather must beat it by orders of magnitude."""
    b = small_1d
    fake = _reference_breather(b)
    res_ref = kg_residual(fake)
    res_b = kg_residual(b)
    assert res_b < 1e-12
    assert res_ref > 1e-6
    assert res_ref > 1e5 * res_b


CENTERINGS = [(n, mode) for n in (1, 2) for mode in BREATHER_MODES[n]]


def _odd_breather(n, mode, seed=5, K=5, L=7, mu=0.4):
    """A Breather on a small box from random arrays (not assembled): random
    block fields phi and phi_dnls and a random odd-row range stack."""
    grid = GridSpec(n=n, K=K, mu=mu, offsets=BREATHER_MODES[n][mode])
    rng = np.random.default_rng(seed)
    block = ((L + 1) // 2,) + (K + 1,) * n
    w = 0.3 * rng.standard_normal(block)
    w[0] = 0.0
    return Breather(
        grid=grid, p=0.5, coupling=0.25, mu=mu, mode=mode, multiplier=0.1,
        omega=0.99, L_max=L, phi=rng.standard_normal(block[1:]),
        phi_dnls=rng.standard_normal(block[1:]), w=w,
    )


# a .kgbr payload starts after the magic, the packed header and 8 per axis
def _payload_at(n):
    return 4 + struct.calcsize(breather._HEAD) + 8 * n


@pytest.fixture(scope="module")
def small_2d():
    """A cheap assembled 2d breather (62 x 62 sites, L = 7)."""
    return assemble_breather(PipelineConfig(
        n=2, p=0.5, coupling=0.25, mu=0.4, mode="p", r_min=12.0, l_max=7,
    ))


@pytest.mark.parametrize("columns", [1, 5, None])
@pytest.mark.parametrize(("n", "mode"), CENTERINGS)
def test_streamed_residual_is_the_whole_box_one(monkeypatch, n, mode, columns):
    """kg_residual and the sup error run on the fundamental block, streamed
    through odd_collocation in chunks of one column, of five (a short last
    chunk) or of the whole block.  A reflection-even wave has a
    reflection-even residual and error, so their sups are the whole box's
    (references.whole_box_kg_residual and whole_box_sup_error, one pass
    over b.coeffs), up to the rounding of the collocation products by
    their shape.  The fields are localized, as a breather is, so the sups
    sit at the center, where the block's Laplacian reads its mirrored row
    -1."""
    b = _odd_breather(n, mode)
    envelope = np.exp(-sum(np.ix_(*(np.arange(b.grid.K + 1.0),) * n)))
    b = dataclasses.replace(b, phi=b.phi * envelope, w=b.w * envelope)
    residual, sup_error = whole_box_kg_residual(b), whole_box_sup_error(b)
    Q = default_node_count(b.L_max) // 2
    monkeypatch.setattr(
        timespectral, "_CHUNK_VALUES", (columns or b.phi.size) * Q
    )
    assert kg_residual(b) == pytest.approx(residual, rel=1e-13)
    assert error_vs_reference(b).e_sup == pytest.approx(sup_error, rel=1e-13)


@pytest.mark.parametrize("name", ["w"])
def test_save_refuses_what_the_file_cannot_give_back(tmp_path, small_2d, name):
    """A nonzero harmonic-1 range row: the file holds the range rows from
    harmonic 3 on and would drop it, so saving is a GuardError before any
    file exists.  phi and phi_dnls are blocks, which the file holds whole."""
    arr = getattr(small_2d, name).copy()
    arr[0, 3, 3] = 1e-300
    b = dataclasses.replace(small_2d, **{name: arr})
    path = tmp_path / "harmonic1.kgbr"
    with pytest.raises(GuardError, match="harmonic-1"):
        save_breather(path, b)
    assert not path.exists()


@pytest.mark.parametrize("name", ["phi", "phi_dnls", "w", "w rows"])
def test_save_refuses_arrays_not_of_the_block(tmp_path, name):
    """K = 5, L = 7: a box-shaped phi, phi_dnls or range stack (11 sites
    per row), or a range stack of 5 rows, would write a file that
    load_breather refuses, so saving is a GuardError before any file
    exists."""
    b = _odd_breather(1, "st")
    if name == "w rows":
        b = dataclasses.replace(b, w=np.concatenate([b.w, b.w[-1:]]))
    else:
        b = dataclasses.replace(b, **{name: mirror_block(getattr(b, name), b.grid)})
    path = tmp_path / "box.kgbr"
    with pytest.raises(GuardError, match="block"):
        save_breather(path, b)
    assert not path.exists()


def test_error_report_does_not_depend_on_chunks(monkeypatch, small_2d):
    """The sup error is synthesised in collocation chunks; no ErrorReport
    field moves with their size, and the breather is left as it was."""
    before = small_2d.w.tobytes(), small_2d.phi.tobytes()
    full = error_vs_reference(small_2d).to_dict()
    monkeypatch.setattr(timespectral, "_CHUNK_VALUES", 100)
    assert error_vs_reference(small_2d).to_dict() == full
    assert (small_2d.w.tobytes(), small_2d.phi.tobytes()) == before


def test_error_report_restores_the_stack_on_error(monkeypatch):
    """The difference to Psi is formed in temporaries, never in the
    breather: a GuardError (here the sup-embedding check, its bound forced
    to zero by Q norms of zero) leaves every stored array as it was."""
    b = _odd_breather(2, "h1")
    before = [getattr(b, name).tobytes() for name in ("phi", "phi_dnls", "w")]
    monkeypatch.setattr(breather, "block_norm_q", lambda a, grid, mu: np.zeros(len(a)))
    with pytest.raises(GuardError, match="sup-embedding"):
        error_vs_reference(b)
    assert [getattr(b, name).tobytes() for name in ("phi", "phi_dnls", "w")] == before


@pytest.mark.parametrize(("n", "mode"), CENTERINGS)
def test_sup_bound_is_the_box_loop(n, mode):
    """sup_bound, one orbit-weighted pass over the block's difference
    stack, is references.box_sup_bound, the Q norm of one mirrored box
    harmonic at a time, to roundoff, on all six centerings."""
    b = _odd_breather(n, mode)
    envelope = np.exp(-sum(np.ix_(*(np.arange(b.grid.K + 1.0),) * n)))
    b = dataclasses.replace(b, phi=b.phi * envelope, w=b.w * envelope)
    assert error_vs_reference(b).sup_bound == pytest.approx(box_sup_bound(b), rel=1e-12)


def test_final_window_synthesises_the_wave_once(monkeypatch):
    """The cosine products at the final window of a widened 2d assembly:
    two per Picard step, the first synthesising only the working window's
    rows of its warm start, then one synthesis of u = phi cos + w that the
    remainder's P1 (one analysis row) and the tail (all Q) both read.  The
    forcing norm is in closed form: no product of the window's size."""
    calls = []
    product = timespectral._cosine_product

    def spy(x, Q, r, analysis):
        calls.append((Q, r, x.shape, analysis))
        return product(x, Q, r, analysis)

    monkeypatch.setattr(timespectral, "_CHUNK_VALUES", 1 << 30)  # one chunk
    monkeypatch.setattr(timespectral, "_cosine_product", spy)
    cfg = PipelineConfig(n=2, p=0.5, coupling=0.25, mu=0.4, mode="st", r_min=8.0,
                         l_max=7, residual_target=1e-7)
    b = assemble_breather(cfg)
    Q, rows = default_node_count(b.L_max) // 2, (b.L_max + 1) // 2
    assert rows > 4 and Q != default_node_count(2 * cfg.l_max + 1) // 2
    columns = b.phi.size
    final = [c for c in calls if c[0] == Q and c[2][-1] == columns]
    steps = b.reports["range"]["iterations"]
    syntheses = [c[2][0] for c in final if not c[3]]
    assert syntheses == [(cfg.l_max + 1) // 2] + [rows] * steps
    assert [c[1] for c in final if c[3]] == [rows] * steps + [1, Q]
    assert [(c[1], c[3]) for c in final[-3:]] == [(rows, False), (1, True), (Q, True)]


def _allocation_peak(call):
    """Peak bytes that ``call()`` allocates beyond what was resident."""
    tracemalloc.start()
    try:
        resident = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - resident
    finally:
        tracemalloc.stop()


def test_whole_box_checks_allocate_no_stack(monkeypatch):
    """kg_residual, error_vs_reference and symmetry_error keep no
    stack-sized temporary.  The golden 2d block is a single collocation
    chunk at the default bound, so the bound drops to 2^12 values per
    sample buffer; each check then peaks at a fraction of one coefficient
    stack.  What remains are block stacks (1/8 of the stack each: the
    wave and its linear part, or the difference to Psi) and fields of one
    harmonic's size (the reference profile, one mirrored row); at L = 15
    each is 1/16 of the stack."""
    b = assemble_breather(PipelineConfig(
        n=2, p=0.5, coupling=0.25, mu=0.3, mode="h1", r_min=40 * 0.3
    ))
    monkeypatch.setattr(timespectral, "_CHUNK_VALUES", 1 << 12)
    stack = b.coeffs.nbytes
    for call in (
        lambda: kg_residual(b),
        lambda: error_vs_reference(b),
        b.symmetry_error,
    ):
        call()  # warm caches (the ground state) outside the measurement
        assert _allocation_peak(call) < 0.6 * stack


def test_assembled_2d_breather_holds_an_eighth_of_a_stack():
    """A breather keeps block arrays only: one range stack on the
    fundamental block with its odd harmonics only, on a plaquette-centred
    box with an odd window exactly 1/8 of one box stack (two whole stacks
    were kept before), and the block fields phi and phi_dnls, each the
    size of one row of it.  The rest is the reports."""
    cfg = PipelineConfig(
        n=2, p=0.5, coupling=0.25, mu=0.4, mode="p", r_min=12.0, l_max=7
    )
    assemble_breather(cfg)  # warm the caches outside the measurement
    tracemalloc.start()
    try:
        resident = tracemalloc.get_traced_memory()[0]
        b = assemble_breather(cfg)
        held = tracemalloc.get_traced_memory()[0] - resident
    finally:
        tracemalloc.stop()
    stack = 8 * (b.L_max + 1) * b.grid.size
    assert b.w.nbytes == stack // 8
    assert b.phi.shape == b.phi_dnls.shape == b.w.shape[1:]
    assert held <= b.w.nbytes + 2 * b.w[0].nbytes + (32 << 10)


def test_box_narrower_than_the_profile_is_refused_up_front(tmp_path):
    """2d p = 3/4 has m = 1.8e-4, a profile decaying over sqrt(a/m)/mu = 93
    sites at mu = 0.4, on a box of K = 30: the discrete NLS Newton would
    converge to a zero field (max |phi| ~ 1e-24) and every check would
    pass on it.  The guard refuses the box before any solve."""
    kw = dict(n=2, p=0.75, coupling=0.25, mu=0.4, mode="st", r_min=12.0, l_max=7)
    with pytest.raises(GuardError, match="decay lengths"):
        assemble_breather(PipelineConfig(**kw))
    argv = ["breather", "--n", "2", "--p", "0.75", "--a", "0.25", "--mu", "0.4",
            "--r-min", "12", "--l-max", "7", "--out", str(tmp_path / "zero")]
    assert main(argv) == 2
    assert not (tmp_path / "zero.kgbr").exists()


def test_dnls_solution_that_lost_its_norm_is_refused(monkeypatch):
    """A discrete NLS solve that loses most of the sampled profile's norm
    found no breather: a GuardError, not a zero breather."""
    solve = breather.solve_dnls_ground_state

    def collapsing(prob, phi0, **kwargs):
        phi, report = solve(prob, phi0, **kwargs)
        return 1e-20 * phi, report

    monkeypatch.setattr(breather, "solve_dnls_ground_state", collapsing)
    with pytest.raises(GuardError, match="l2 norm"):
        assemble_breather(PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.3,
                                         r_min=15.0, l_max=5))


def test_2d_breather_beside_an_even_resonance_assembles():
    """2d p = 1/2, a = 0.4, mu = 0.3, K = 30: the l = 2 symbol passes within
    2.2e-3 of zero, but no stack holds an even harmonic.  The margin and
    the smallness estimate read the odd harmonics l >= 3 alone (margin
    4.78), so the point assembles instead of being refused with an
    estimate of 8.594."""
    cfg = PipelineConfig(n=2, p=0.5, coupling=0.4, mu=0.3, mode="st",
                         r_min=30 * 0.3, l_max=7)
    b = assemble_breather(cfg)
    assert b.grid.K == 30
    report = b.reports["range"]
    assert report["converged"] and report["smallness"] < 0.01
    assert report["spectral_margin"] == pytest.approx(4.7759, rel=1e-4)
    assert b.symmetry_error() == 0.0
    # l_max = 7 truncates the p = 1/2 tail; the residual is that truncation
    assert kg_residual(b) < 1e-6


def test_error_report_structure(small_1d):
    err = error_vs_reference(small_1d)
    assert 0.0 < err.e_sup <= err.sup_bound
    assert err.harmonic_fraction > 0.999
    assert 0.0 < err.tail_fraction < 0.01
    assert err.e_h2 > 0.0 and err.w_x2 > 0.0
    assert err.dist_phi_dnls < err.dist_dnls_ref  # range back-reaction is smaller
    d = err.to_dict()
    assert set(d) >= {"e_h2", "e_sup", "w_x2", "tail_fraction"}


def test_auto_window_stays_put_for_polynomial_power():
    """p = 1 means a cubic nonlinearity: the spectrum is finite and tiny
    beyond the working window, so the auto window must not widen."""
    cfg = PipelineConfig(
        n=1, p=1.0, coupling=0.25, mu=0.3, r_min=20.0, l_max=7,
        residual_target=1e-10,
    )
    b = assemble_breather(cfg)
    assert b.L_max == 7
    assert kg_residual(b) < 1e-10


def test_auto_window_widens_for_even_working_window():
    """The tail is calibrated on odd harmonics, whatever the parity of
    l_max: an even l_max must not read the empty even rows."""
    cfg = PipelineConfig(
        n=1, p=0.5, coupling=0.25, mu=0.3, r_min=15.0, l_max=8,
        residual_target=1e-9,
    )
    b = assemble_breather(cfg)
    assert b.L_max > 8
    assert kg_residual(b) < 1e-8


def test_a_widened_window_builds_one_range_operator(monkeypatch):
    """The range operator knows no harmonic window, so the final pass of a
    widened window inverts with the kernel continuation's operator."""
    built = []
    init = rangesolver.RangeOperator.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rangesolver.RangeOperator, "__init__", counting)
    b = assemble_breather(PipelineConfig(
        n=1, p=0.5, coupling=0.25, mu=0.3, r_min=15.0, l_max=8,
        residual_target=1e-7,
    ))
    assert b.L_max > 8
    assert len(built) == 1


_ONE_PER_DIMENSION = [
    PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.3, r_min=20.0, l_max=7),
    PipelineConfig(n=2, p=0.5, coupling=0.25, mu=0.4, mode="st", r_min=8.0,
                   l_max=7),
]


@pytest.mark.parametrize("cfg, builds", zip(_ONE_PER_DIMENSION, [
    {"bands": 1, "basis": 0}, {"bands": 0, "basis": 2},
]), ids=["1d-st", "2d-st"])
def test_each_assembly_builds_its_fixed_operators_once(monkeypatch, cfg, builds):
    """The even-sector decomposition of -lap is built once per assembly,
    for all the Newton steps and range solves of it: in 1d the bands
    once, and no basis; in 2d the basis once per axis, and no bands.  A
    second assembly of the same config builds its own."""
    built = {"bands": 0, "basis": 0}

    def counting(name, build):
        def wrapped(*args):
            built[name] += 1
            return build(*args)
        return wrapped

    monkeypatch.setattr(rangesolver, "minus_laplacian_bands",
                        counting("bands", rangesolver.minus_laplacian_bands))
    monkeypatch.setattr(rangesolver, "_even_basis",
                        counting("basis", rangesolver._even_basis))
    for assemblies in (1, 2):
        b = assemble_breather(cfg)
        newton_steps = (b.reports["dnls_newton"]["iterations"]
                        + b.reports["kernel_newton"]["iterations"])
        assert newton_steps >= 2
        assert built == {name: assemblies * count for name, count in builds.items()}


@pytest.mark.parametrize("cfg", _ONE_PER_DIMENSION, ids=["1d-st", "2d-st"])
def test_only_2d_assembly_runs_minres_or_builds_a_basis(monkeypatch, cfg):
    """1d solves its tridiagonal G0' and range operators by LAPACK band
    solvers, so a 1d assembly runs no MINRES and builds no basis; a 2d
    one runs one MINRES per Newton step, builds the basis once per axis
    and builds no bands."""
    calls = {"minres": 0, "basis": 0, "bands": 0}

    def counting(name, call):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(scipy.sparse.linalg, "minres",
                        counting("minres", scipy.sparse.linalg.minres))
    monkeypatch.setattr(rangesolver, "_even_basis",
                        counting("basis", rangesolver._even_basis))
    monkeypatch.setattr(rangesolver, "minus_laplacian_bands",
                        counting("bands", rangesolver.minus_laplacian_bands))
    b = assemble_breather(cfg)
    if cfg.n == 1:
        assert calls == {"minres": 0, "basis": 0, "bands": 1}
    else:
        assert calls == {"minres": b.reports["dnls_newton"]["iterations"]
                         + b.reports["kernel_newton"]["iterations"],
                         "basis": 2, "bands": 0}


def test_oversize_residual_window_is_refused_up_front():
    # a target this tight asks for ~1e13 harmonics: the guard must refuse
    # before any stack or cosine matrix of that size is allocated
    cfg = PipelineConfig(
        n=1, p=0.5, coupling=0.25, mu=0.3, r_min=15.0, l_max=8,
        residual_target=1e-30,
    )
    tracemalloc.start()
    with pytest.raises(GuardError, match="would not fit"):
        assemble_breather(cfg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 64 << 20


def test_roundtrip(tmp_path, small_1d):
    b = small_1d
    path = tmp_path / "b.kgbr"
    save_breather(path, b)
    b2 = load_breather(path)
    assert b2.coeffs.tobytes() == b.coeffs.tobytes()
    assert b2.phi.tobytes() == b.phi.tobytes()
    assert b2.phi_dnls.tobytes() == b.phi_dnls.tobytes()
    assert b2.w.tobytes() == b.w.tobytes() and b2.L_max == b.L_max
    assert (b2.mu, b2.coupling, b2.p, b2.mode) == (b.mu, b.coupling, b.p, b.mode)
    assert b2.omega == b.omega and b2.multiplier == b.multiplier
    assert b2.grid == b.grid
    # diagnostics recomputable from the file alone
    e1 = error_vs_reference(b)
    e2 = error_vs_reference(b2)
    assert e1.to_dict() == e2.to_dict()
    assert kg_residual(b2) == kg_residual(b)


def test_load_rejects_corrupt_files(tmp_path, small_1d):
    path = tmp_path / "b.kgbr"
    save_breather(path, small_1d)
    raw = path.read_bytes()
    (tmp_path / "trunc.kgbr").write_bytes(raw[: len(raw) // 2])
    (tmp_path / "magic.kgbr").write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(FormatError):
        load_breather(tmp_path / "trunc.kgbr")
    with pytest.raises(FormatError):
        load_breather(tmp_path / "magic.kgbr")
    with pytest.raises(FormatError):
        load_breather(tmp_path / "missing.kgbr")
    # a header claiming 2^31 harmonics is refused before anything is built
    huge = bytearray(raw)
    struct.pack_into("<I", huge, 20, 1 << 31)
    (tmp_path / "huge.kgbr").write_bytes(bytes(huge))
    with pytest.raises(FormatError, match="at least 1"):
        load_breather(tmp_path / "huge.kgbr")


@pytest.mark.parametrize("L", [7, 8])
@pytest.mark.parametrize(("n", "mode"), CENTERINGS)
def test_file_holds_the_block_arrays_only(tmp_path, n, mode, L):
    """header, offsets, then phi, phi_dnls and the range rows of harmonics
    3, 5, ..., L on the (K+1)^n block, for odd and even windows alike."""
    b = _odd_breather(n, mode, L=L)
    path = tmp_path / "b.kgbr"
    save_breather(path, b)
    K = b.grid.K
    assert path.stat().st_size == _payload_at(n) + 8 * (1 + (L + 1) // 2) * (K + 1) ** n


def test_version_1_file_is_refused(tmp_path, small_1d):
    """The box-stack files of version 1 are not read: a FormatError that
    names the version, and ``validate`` exits 4."""
    path = tmp_path / "old.kgbr"
    save_breather(path, small_1d)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version 1"):
        load_breather(path)
    assert main(["validate", "--input", str(path)]) == 4


def test_load_holds_one_block_stack(tmp_path):
    """Loading reads the block arrays straight into their places: on a 2d
    K = 40, L = 31 file it peaks below three block stacks plus two block
    fields."""
    b = _odd_breather(2, "h1", K=40, L=31)
    path = tmp_path / "b.kgbr"
    save_breather(path, b)
    peak = _allocation_peak(lambda: load_breather(path))
    assert peak < 3 * b.w.nbytes + 2 * b.phi.nbytes


# byte offset of the mode code in a .kgbr header: magic 4, version 4, n 4,
# K 8, L_max 4
_MODE_CODE_AT = 24


def _tiny_breather(n, mode):
    """A Breather built directly from small random arrays (not assembled)."""
    return dataclasses.replace(
        _odd_breather(n, mode, seed=17, K=2, L=3, mu=0.25),
        p=1.0 / n, multiplier=0.0625, omega=0.998,
    )


@pytest.mark.parametrize(
    ("n", "mode", "code"),
    [(1, "st", 0), (1, "p", 1), (2, "st", 0), (2, "p", 1), (2, "h1", 2), (2, "h2", 3)],
)
def test_roundtrip_every_centering(tmp_path, n, mode, code):
    """A random breather of every centering survives the file bit for bit,
    the file holds its block arrays in the .kgbr layout (phi, phi_dnls,
    the range row of harmonic 3), and saving the loaded breather writes
    the same bytes."""
    b = _tiny_breather(n, mode)
    path = tmp_path / "b.kgbr"
    save_breather(path, b)
    raw = path.read_bytes()
    assert struct.unpack_from("<I", raw, _MODE_CODE_AT)[0] == code
    payload = np.frombuffer(raw, "<f8", offset=_payload_at(n)).reshape(
        (-1,) + b.w.shape[1:]
    )
    assert len(payload) == 3
    assert payload[:2].tobytes() == np.stack([b.phi, b.phi_dnls]).tobytes()
    assert payload[2].tobytes() == b.w[1].tobytes()
    b2 = load_breather(path)
    assert (b2.grid, b2.mode, b2.mu, b2.coupling, b2.p, b2.L_max) == (
        b.grid, b.mode, b.mu, b.coupling, b.p, b.L_max
    )
    assert (b2.multiplier, b2.omega) == (b.multiplier, b.omega)
    for name in ("phi", "phi_dnls", "w"):
        assert getattr(b2, name).tobytes() == getattr(b, name).tobytes()
    save_breather(tmp_path / "again.kgbr", b2)
    assert (tmp_path / "again.kgbr").read_bytes() == raw


@pytest.mark.parametrize(("n", "mode"), CENTERINGS)
def test_assembled_and_loaded_breathers_hold_block_fields(tmp_path, n, mode):
    """phi and phi_dnls live on the fundamental block, (K+1,)*n, like the
    rows of w, in an assembled breather and in the one its file gives
    back; the box field of harmonic 1 is their mirror image."""
    cfg = (PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.3, mode=mode,
                          r_min=15.0, l_max=5) if n == 1 else
           PipelineConfig(n=2, p=0.5, coupling=0.25, mu=0.4, mode=mode,
                          r_min=8.0, l_max=5))
    b = assemble_breather(cfg)
    save_breather(tmp_path / "b.kgbr", b)
    block = (b.grid.K + 1,) * n
    for held in (b, load_breather(tmp_path / "b.kgbr")):
        assert held.phi.shape == held.phi_dnls.shape == held.w.shape[1:] == block
        assert held.coeffs[1].tobytes() == (
            held.amplitude * mirror_block(held.phi, held.grid)
        ).tobytes()


@pytest.mark.parametrize(
    ("n", "mode", "code"),
    [
        (1, "st", 2),  # h1 exists only in 2d
        (1, "st", 1),  # p, but the header holds site-centred offsets
        (2, "h2", 2),  # h1, but the header holds the offsets of h2
        (2, "st", 4),  # no such code
    ],
)
def test_load_rejects_mode_code_contradicting_header(tmp_path, n, mode, code):
    path = tmp_path / "b.kgbr"
    save_breather(path, _tiny_breather(n, mode))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, _MODE_CODE_AT, code)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_breather(path)
    assert main(["validate", "--input", str(path)]) == 4


# byte offsets of the float fields of a .kgbr header, after the magic (4)
# and version, n, K, L_max and mode code (24)
_FLOAT_AT = {name: 28 + 8 * i for i, name in enumerate(("mu", "a", "p", "m", "omega"))}


@pytest.mark.parametrize(("name", "value"), [
    ("a", 0.7), ("omega", np.nan), ("omega", 1.3), ("omega", -0.998), ("mu", np.inf),
    ("m", -3.0), ("m", 20.0), ("p", 5.0),
])
def test_validate_refuses_a_header_outside_the_guarded_windows(
    tmp_path, capsys, small_1d, name, value
):
    """a outside (0, 1/2), a non-finite or non-positive mu, m outside
    (0, 1/2 mu^2), omega <= 0 or |omega^2 - 1| >= 1/2, or p outside
    check_exponent's range is a header no assembly writes: a malformed
    file, exit 4, no output."""
    path, out = tmp_path / "b.kgbr", tmp_path / "v.json"
    save_breather(path, small_1d)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, _FLOAT_AT[name], value)
    path.write_bytes(bytes(raw))
    assert main(["validate", "--input", str(path), "--out", str(out)]) == 4
    assert "corrupt header" in capsys.readouterr().err
    assert not out.exists()


def test_a_nan_in_the_range_stack_reaches_residual_and_sup_error(small_1d):
    """The running maxima of kg_residual and of the sup error keep a NaN:
    a chunk of NaN values must not drop out of the maximum.  peak() is
    max |coeffs|, NaN too, wherever the NaN sits; max() kept it only
    first."""
    w = small_1d.w.copy()
    w[1, 3] = np.nan
    b = dataclasses.replace(small_1d, w=w)
    assert np.isnan(kg_residual(b))
    assert np.isnan(error_vs_reference(b).e_sup)
    assert np.isnan(b.peak()) and np.isnan(np.max(np.abs(b.coeffs)))
    phi = small_1d.phi.copy()
    phi[0] = np.nan
    assert np.isnan(dataclasses.replace(small_1d, phi=phi).peak())


def test_report_json(tmp_path, small_1d):
    path = tmp_path / "report.json"
    save_breather_report(path, small_1d, extra={"note": 1})
    data = json.loads(path.read_text())
    assert data["mode"] == "st" and data["n"] == 1
    assert data["reports"]["range"]["converged"] is True
    assert data["reports"]["kernel_residual_sup"] < 1e-10
    assert data["note"] == 1


def test_scaling_guards():
    with pytest.raises(GuardError):
        scaling_study([0.1, 0.2], n=1, p=1.0, coupling=0.25)  # increasing
    with pytest.raises(GuardError):
        scaling_study([0.2], n=1, p=1.0, coupling=0.25)  # single point
    tab = scaling_study([0.3, 0.2], n=1, p=1.0, coupling=0.25,
                        r_min=15.0, l_max=5)
    with pytest.raises(GuardError):
        tab.slope("e_h2")  # only 2 rows
    for name in ("omega", "kg_residual"):  # not fitted columns
        with pytest.raises(GuardError, match="no slope"):
            tab.slope(name)


def test_scaling_records_failures_instead_of_raising():
    # m mu^2 = 0.14 < 1/2 at mu = 1.5, so the kernel problem is posed; the
    # smallness guard of the contraction refuses it (estimate 0.213 > 0.1)
    tab = scaling_study([1.5, 0.2], n=1, p=1.0, coupling=0.25,
                        r_min=10.0, l_max=5)
    assert len(tab.rows) == 1
    assert "contraction regime" in tab.failures[repr(1.5)]


def test_scaling_progress_reports_a_failed_mu_as_none(monkeypatch):
    # a failure after a success must not hand the callback the earlier row
    def assemble(cfg):
        if cfg.mu == 0.2:
            raise GuardError("injected failure")
        return assemble_breather(cfg)

    monkeypatch.setattr(breather, "assemble_breather", assemble)
    seen = []
    tab = scaling_study([0.4, 0.3, 0.2], n=1, p=1.0, coupling=0.25,
                        r_min=10.0, l_max=5,
                        progress=lambda mu, row: seen.append((mu, row)))
    assert [mu for mu, _ in seen] == [0.4, 0.3, 0.2]
    assert [row.mu for _, row in seen[:2]] == [0.4, 0.3]
    assert seen[2][1] is None
    assert tab.failures == {repr(0.2): "injected failure"}
    assert [row.mu for row in tab.rows] == [0.4, 0.3]


@pytest.fixture(scope="module")
def sweep_1d():
    return scaling_study(
        [0.3, 0.25, 0.2, 0.15], n=1, p=1.0, coupling=0.25, r_min=40.0
    )


def test_scaling_study_holds_one_breather_at_a_time(monkeypatch):
    """The last mu's breather is released before the next one assembles:
    a two-mu study peaks where its larger point alone does, not two
    stacks of the first point above it.  The collocation buffers are
    shrunk so that the block stacks set every peak."""
    monkeypatch.setattr(timespectral, "_CHUNK_VALUES", 1 << 12)
    kw = dict(n=2, p=0.5, coupling=0.25, mode="p", r_min=12.0, l_max=7)

    def point(mu):
        b = assemble_breather(PipelineConfig(mu=mu, **kw))
        error_vs_reference(b)
        kg_residual(b)
        return 8 * (b.L_max + 1) * b.grid.size  # one box stack

    stack = point(0.4)  # warm the ground state outside the measurements
    alone = _allocation_peak(lambda: point(0.3))
    study = _allocation_peak(lambda: scaling_study([0.4, 0.3], **kw))
    assert study < alone + 0.5 * stack


def test_scaling_slopes_match_frozen_rates(sweep_1d):
    """Measured convergence rates (frozen from well-resolved runs)."""
    tab = sweep_1d
    assert not tab.failures
    assert tab.slope("e_h2").slope == pytest.approx(2.5, abs=0.15)
    assert tab.slope("e_sup").slope == pytest.approx(3.0, abs=0.2)
    assert tab.slope("w_x2").slope == pytest.approx(2.5, abs=0.15)
    assert tab.slope("dist_dnls_ref").slope == pytest.approx(2.0, abs=0.15)
    assert tab.slope("dist_phi_dnls").slope == pytest.approx(2.0, abs=0.15)
    assert tab.slope("remainder_norm_mu").slope == pytest.approx(2.0, abs=0.15)


# p = 1 over two more decades of mu, where the 1d rates are asymptotic
DEEP_MUS = (0.02, 0.014, 0.01, 0.007, 0.005, 0.0035, 0.0025)
DEEP_RATES = {"e_h2": 2.5, "e_sup": 3.0, "w_x2": 2.5, "tail_fraction": 2.0,
              "dist_phi_dnls": 2.0, "dist_dnls_ref": 2.0, "remainder_norm_mu": 2.0}


@pytest.fixture(scope="session", params=["st", "p"])
def deep_sweep_1d(request):
    """K up to 32,000 at r_min 80; 1d costs O(K), so under a second per
    centering."""
    return scaling_study(DEEP_MUS, n=1, p=1.0, coupling=0.25,
                         mode=request.param, r_min=80.0)


def test_deep_scaling_slopes_match_frozen_rates(deep_sweep_1d):
    """Every fitted slope sits within 1.5e-5 of its rate (standard errors
    2e-6 to 5e-6), so 1e-4 holds it; bending a column by a factor 1 + mu
    moves its slope by about 8e-3."""
    assert not deep_sweep_1d.failures
    for name, rate in DEEP_RATES.items():
        assert deep_sweep_1d.slope(name).slope == pytest.approx(rate, abs=1e-4), name


def test_scaling_rows_monotone(sweep_1d):
    for name in ("e_h2", "e_sup", "w_x2", "dist_dnls_ref"):
        col = sweep_1d.column(name)
        assert np.all(np.diff(col) < 0.0), name


def test_scaling_table_files(tmp_path, sweep_1d):
    sweep_1d.to_csv(tmp_path / "t.csv")
    sweep_1d.to_json(tmp_path / "t.json")
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "mu"
    assert len(lines) == 2 + len(sweep_1d.rows)
    assert "kg_residual" in lines[1].split(",")
    data = json.loads((tmp_path / "t.json").read_text())
    # the roundoff-floor residual is reported by its maximum, not fitted
    assert "kg_residual" not in data["slopes"]
    assert data["kg_residual_max"] == max(sweep_1d.column("kg_residual"))
    assert data["slopes"]["e_h2"]["points"] == 4
    lo, hi = data["slopes"]["e_h2"]["ci"]
    assert lo < data["slopes"]["e_h2"]["slope"] < hi


@pytest.mark.parametrize("at", [0, 1, 3])
def test_scaling_json_keeps_a_nan_residual_in_any_row(tmp_path, sweep_1d, at):
    """A NaN kg_residual makes kg_residual_max NaN in whichever row it
    sits, as kg_residual itself propagates NaN; max() kept it only first."""
    residuals = [1e-10, 2e-10, 3e-10]
    residuals.insert(at, np.nan)
    rows = [dataclasses.replace(r, kg_residual=x)
            for r, x in zip(sweep_1d.rows, residuals, strict=True)]
    dataclasses.replace(sweep_1d, rows=rows).to_json(tmp_path / "t.json")
    data = json.loads((tmp_path / "t.json").read_text())
    assert np.isnan(data["kg_residual_max"])


def test_2d_modes_are_distinct_and_related():
    """All four 2d centerings assemble; the two bond-centred ones are
    transposes of each other, everything else is genuinely different."""
    bs = {}
    for mode in ("st", "h1", "h2", "p"):
        cfg = PipelineConfig(
            n=2, p=0.5, coupling=0.25, mu=0.4, mode=mode,
            r_min=12.0, l_max=7,
        )
        bs[mode] = assemble_breather(cfg)
    shapes = {m: bs[m].coeffs.shape for m in bs}
    assert shapes["st"][1] == shapes["st"][2]  # odd x odd
    assert shapes["h1"][1] != shapes["h1"][2]
    # bond-y and bond-x solutions are the same object transposed
    h1, h2 = bs["h1"].coeffs, bs["h2"].coeffs
    assert h1.shape == h2.transpose(0, 2, 1).shape
    assert np.allclose(h1, h2.transpose(0, 2, 1), rtol=0, atol=1e-14)
    # site vs plaquette amplitudes differ measurably
    assert not np.isclose(
        float(np.max(bs["st"].coeffs)), float(np.max(bs["p"].coeffs))
    )
    for b in bs.values():
        # at l_max = 7 the non-polynomial tail (~C/l^3) limits the
        # residual near 1e-6; acceptance-grade runs widen the window
        assert kg_residual(b) < 5e-6
        assert b.symmetry_error() < 1e-13
