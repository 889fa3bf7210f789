"""Golden points: two small breathers pinned to their measured figures.

Each point assembles in under a second, so a change to the solver stack can
show "same behaviour" without the full acceptance sweep.  The pins hold to
1e-7 relative: tight enough to catch any change of discretisation, window
or stopping rule, loose enough for the kernel Newton solve to land anywhere
inside its tolerance (1e-11 on the kernel residual moves e_h2 and e_sup by
a few 1e-9 relative at mu = 0.2).  Each point's .kgbr snapshot loads back
into the same breather and saves to the same bytes.
"""
import pytest

from kgbreather.breather import (
    PipelineConfig,
    assemble_breather,
    error_vs_reference,
    kg_residual,
    load_breather,
    save_breather,
)

GOLDEN_REL = 1e-7


def _measure(cfg, tmp_path):
    b = assemble_breather(cfg)
    save_breather(tmp_path / "golden.kgbr", b)
    again = load_breather(tmp_path / "golden.kgbr")
    save_breather(tmp_path / "again.kgbr", again)
    raw = (tmp_path / "golden.kgbr").read_bytes()
    assert (tmp_path / "again.kgbr").read_bytes() == raw
    assert again.w.tobytes() == b.w.tobytes()
    return b, error_vs_reference(b), kg_residual(b)


def test_golden_1d_site_centered(tmp_path):
    cfg = PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.2, mode="st", r_min=30.0)
    b, err, residual = _measure(cfg, tmp_path)
    assert b.grid.K == 150 and b.L_max == 15
    assert err.e_h2 == pytest.approx(1.1560713188702588e-03, rel=GOLDEN_REL)
    assert err.e_sup == pytest.approx(5.597771654617172e-05, rel=GOLDEN_REL)
    assert err.w_x2 == pytest.approx(8.154595580542935e-04, rel=GOLDEN_REL)
    assert b.omega == pytest.approx(0.998749217771909, rel=1e-12)
    assert residual <= 1e-10
    assert b.symmetry_error() <= 1e-13


def test_golden_2d_bond_centered(tmp_path):
    cfg = PipelineConfig(
        n=2, p=0.5, coupling=0.25, mu=0.3, mode="h1", r_min=40 * 0.3
    )
    b, err, residual = _measure(cfg, tmp_path)
    assert b.grid.K == 40 and b.L_max == 15
    assert err.e_h2 == pytest.approx(1.394897041560693e-02, rel=GOLDEN_REL)
    assert err.e_sup == pytest.approx(1.5549102240586154e-04, rel=GOLDEN_REL)
    assert err.w_x2 == pytest.approx(3.031858649177535e-04, rel=GOLDEN_REL)
    assert b.omega == pytest.approx(0.9985474797973757, rel=1e-12)
    # the p = 1/2 kink leaves a harmonic tail beyond l = 15: this residual
    # is the truncation of the fixed window, not solver error
    assert residual == pytest.approx(1.0217389882368017e-07, rel=1e-6)
    assert b.symmetry_error() <= 1e-13
