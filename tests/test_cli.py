"""Tests for the command-line front end: option merging, file outputs,
exit codes.  Everything runs in-process through main(argv) except one
subprocess check that the installed entry point exists end-to-end.
"""
import importlib.util
import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgbreather.breather as breather
import kgbreather.cli as cli
from kgbreather.breather import SCALING_COLUMNS
from kgbreather.cli import _parse_mu_list, build_parser, main
from kgbreather.errors import (
    ConvergenceError, FormatError, GuardError, ResonanceError,
)
from kgbreather.groundstate import sample_reference, solve_ground_state
from kgbreather.lattice import GridSpec, mirror_block
from references import norm_q


def test_parser_builds_and_knows_subcommands():
    parser = build_parser()
    for cmd in ("groundstate", "breather", "scaling", "validate", "fem-check"):
        assert parser.parse_args([cmd]).command == cmd


def test_mu_list_parsing():
    assert _parse_mu_list("0.2,0.1") == [0.2, 0.1]
    assert _parse_mu_list("0.2;0.1") == [0.2, 0.1]
    with pytest.raises(FormatError):
        _parse_mu_list("0.2,zebra")
    with pytest.raises(FormatError):
        _parse_mu_list("")


def test_groundstate_command(tmp_path):
    out = tmp_path / "gs"
    assert main(["groundstate", "--n", "1", "--p", "1", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "gs.csv.json").read_text())
    assert meta["multiplier"] == pytest.approx(1.0 / 16.0, rel=1e-14)
    lines = (tmp_path / "gs.csv").read_text().splitlines()
    assert lines[0] == "radius,value"


def test_missing_required_option_exits_2(capsys):
    assert main(["groundstate", "--n", "1"]) == 2
    assert "--p" in capsys.readouterr().err


def test_config_file_supplies_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nn = 1\np = 1\nout = {}\n".format(tmp_path / "a"))
    assert main(["groundstate", "--config", str(cfg)]) == 0
    assert (tmp_path / "a.csv").exists()
    # flag beats file
    assert main(
        ["groundstate", "--config", str(cfg), "--out", str(tmp_path / "b")]
    ) == 0
    assert (tmp_path / "b.csv").exists()


def test_malformed_config_exits_4(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert main(["groundstate", "--config", str(cfg), "--n", "1", "--p", "1"]) == 4
    assert main(["groundstate", "--config", str(tmp_path / "nope.cfg"),
                 "--n", "1", "--p", "1"]) == 4


def test_guard_violation_exits_2(tmp_path, capsys):
    # coupling outside (0, 1/2)
    rc = main(["breather", "--n", "1", "--p", "1", "--a", "0.9",
               "--mu", "0.2", "--out", str(tmp_path / "x")])
    assert rc == 2
    # 2d-only mode on a 1d chain
    rc = main(["breather", "--n", "1", "--p", "1", "--a", "0.25",
               "--mu", "0.2", "--mode", "h1", "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("flags", [
    ["--l-max", "1000000000"], ["--residual-target", "nan"], ["--tol", "-1"],
    ["--tol", "nan"], ["--kernel-tol", "nan"],
], ids=["l-max", "residual-target-nan", "tol-negative", "tol-nan", "kernel-tol-nan"])
def test_runs_that_cannot_work_exit_2_before_solving(monkeypatch, tmp_path, capsys, flags):
    """A window whose stack cannot fit, a NaN residual target, and a NaN or
    negative tolerance are guard violations found before any solve: no
    assembly starts and no file is written."""
    def assemble(config):
        raise AssertionError("assembled a run that cannot work")

    monkeypatch.setattr(cli, "assemble_breather", assemble)
    out = tmp_path / "x"
    rc = main(["breather", "--n", "1", "--p", "1", "--a", "0.25", "--mu", "0.1",
               *flags, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error, code", [
    (GuardError("guard"), 2),
    (ResonanceError(3, 1e-9), 2),
    (ConvergenceError("diverged"), 3),
    (FormatError("bad file"), 4),
])
def test_exit_codes_follow_the_error_classes(monkeypatch, capsys, error, code):
    def command(options):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "groundstate", (command, "raises"))
    assert main(["groundstate", "--n", "1", "--p", "1"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_breather_and_validate_roundtrip(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "breather", "--n", "1", "--p", "1", "--a", "0.25", "--mu", "0.3",
        "--r-min", "20", "--l-max", "7", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "b.json").read_text())
    assert report["kg_residual"] < 1e-12
    assert report["omega"] == pytest.approx(np.sqrt(1.0 - 0.09 / 16.0), rel=1e-14)

    vout = tmp_path / "v.json"
    rc = main([
        "validate", "--input", str(tmp_path / "b.kgbr"),
        "--integrate", "--steps", "256", "--out", str(vout),
    ])
    assert rc == 0
    v = json.loads(vout.read_text())
    assert v["kg_residual"] < 1e-12
    assert v["errors"]["e_sup"] <= v["errors"]["sup_bound"]
    assert v["integration"]["energy_drift"] < 1e-4
    # the step counts stay integers in the JSON (1 and 256, not 1.0, 256.0)
    assert type(v["integration"]["periods"]) is int
    assert v["integration"]["steps_per_period"] == 256
    assert type(v["integration"]["steps_per_period"]) is int
    # the continuum seed races the breather under the same leapfrog, and
    # returns worse: that gap is what the range part and kernel buy
    seed = v["continuum_seed"]
    assert seed.keys() == v["integration"].keys()
    assert type(seed["periods"]) is int and type(seed["steps_per_period"]) is int
    assert seed["dt"] == v["integration"]["dt"]
    assert seed["return_error"] > v["integration"]["return_error"]


def test_validate_missing_file_exits_4(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "no.kgbr")]) == 4


def test_explicit_K_overrides_r_min(tmp_path):
    out = tmp_path / "bk"
    rc = main([
        "breather", "--n", "1", "--p", "1", "--a", "0.25", "--mu", "0.3",
        "--K", "60", "--l-max", "7", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "bk.json").read_text())
    assert report["K"] == 60


def test_residual_target_widens_the_window(tmp_path):
    # p = 1/2 is not band-limited: the target asks for more harmonics than
    # --l-max keeps, and the report carries the widened window
    out = tmp_path / "rt"
    rc = main([
        "breather", "--n", "1", "--p", "0.5", "--a", "0.25", "--mu", "0.3",
        "--r-min", "15", "--l-max", "8", "--residual-target", "1e-9",
        "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "rt.json").read_text())
    assert report["L_max"] > 8
    assert report["reports"]["config"]["residual_target"] == 1e-9


def test_scaling_command(tmp_path, capsys):
    out = tmp_path / "sc"
    rc = main([
        "scaling", "--n", "1", "--p", "1", "--a", "0.25",
        "--mu-list", "0.3,0.25,0.2,0.15", "--r-min", "20", "--l-max", "7",
        "--out", str(out),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    # every mu line carries its cost, and the sweep its total time
    mu_lines = [line for line in lines if line.startswith("  mu=")]
    assert len(mu_lines) == 4
    assert all("wall=" in line and "peak_rss=" in line for line in mu_lines)
    assert sum(line.startswith("sweep took ") for line in lines) == 1
    # one slope line, with its stderr, per fitted column
    for name in SCALING_COLUMNS:
        assert sum(line.startswith(f"slope({name}) = ") and " +- " in line
                   for line in lines) == 1
    data = json.loads((tmp_path / "sc.json").read_text())
    assert len(data["rows"]) == 4
    assert 2.0 < data["slopes"]["e_h2"]["slope"] < 3.0
    assert (tmp_path / "sc.csv").exists()


def _readme_command_lines():
    """Every command line of README.md that starts with ``kgbreather ``,
    its backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands, parts = [], []
    for line in text.splitlines():
        line = line.strip()
        if parts or line.startswith("kgbreather "):
            parts.append(line.rstrip("\\"))
            if not line.endswith("\\"):
                commands.append(" ".join(parts))
                parts = []
    return commands


def test_readme_command_lines_parse():
    """The README's command lines, the headline sweeps among them, parse
    against the option table and merge without a missing option."""
    commands = _readme_command_lines()
    assert sum(c.startswith("kgbreather scaling ") for c in commands) >= 3
    parser = build_parser()
    for command in commands:
        args = parser.parse_args(shlex.split(command, comments=True)[1:])
        assert cli._merge(args, args.command)


def test_fem_check_command(tmp_path, capsys):
    out = tmp_path / "fem.json"
    rc = main([
        "fem-check", "--n", "1", "--p", "1",
        "--mu-list", "0.3,0.2,0.15,0.1", "--r-min", "25", "--out", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["rg_slope"] == pytest.approx(2.0, abs=0.1)
    assert all(r["R_G"] < 0.0 for r in data["rows"])
    # the embedding ratio, from block sums, is the box formula
    # mu^n sum |psi|^6 / ||psi||_{Q_mu}^6 on the mirrored sample
    profile = solve_ground_state(1, 1.0)
    for row in data["rows"]:
        mu = row["mu"]
        grid = GridSpec.for_radius(1, mu=mu, r_min=25.0)
        psi = mirror_block(sample_reference(profile, grid), grid)
        want = mu * np.sum(psi**6) / (np.sqrt(mu) * norm_q(psi, mu)) ** 6
        assert row["embedding_ratio"] == pytest.approx(want, rel=1e-13)


def test_scaling_refuses_a_nan_mu_exits_2(monkeypatch, tmp_path, capsys):
    """0.4, nan, 0.35, ... is not a decreasing list, though a NaN passes
    every b >= a test: the sweep refuses it before any assembly, with
    exit code 2 and no output files."""
    def assemble(config):
        raise AssertionError("assembled a breather of a refused sweep")

    monkeypatch.setattr(breather, "assemble_breather", assemble)
    rc = main(["scaling", "--n", "1", "--p", "1", "--a", "0.25",
               "--mu-list", "0.4,nan,0.35,0.3,0.25", "--out", str(tmp_path / "sc")])
    assert rc == 2
    assert "finite and strictly decreasing" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_console_entry_point_subprocess(tmp_path):
    rc = subprocess.run(
        [sys.executable, "-m", "kgbreather.cli", "groundstate",
         "--n", "1", "--p", "1", "--out", str(tmp_path / "sp")],
        capture_output=True,
        text=True,
    )
    assert rc.returncode == 0
    assert "multiplier=0.0625" in rc.stdout


def _load_file(*parts):
    """Import a repository file that lives outside the package."""
    path = Path(__file__).resolve().parents[1].joinpath(*parts)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_validate_workload_reads_its_snapshot(tmp_path):
    """The benchmark's validate-1d workload at its self-check size saves a
    snapshot in setup, loads it in its op and checks the loaded coeffs bit
    for bit: a snapshot format that breaks the workload fails here."""
    workloads = _load_file("benchmark", "workloads.py")
    workload = workloads.Validate1D(0, tiny=True)
    workload.setup(str(tmp_path))
    try:
        assert workload.check(workload.op()) == []
    finally:
        workload.teardown()
    assert list(tmp_path.iterdir()) == []
