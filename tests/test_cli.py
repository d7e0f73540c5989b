import dataclasses
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from micpsim.cli import main
from micpsim.config import format_config, parse_config, preset
from micpsim.grid import build_domain
from micpsim.vtkio import read_snapshot_field, read_timeseries, write_snapshot


@pytest.fixture
def tiny_config(tmp_path):
    """A seconds-scale variant of the 1D layout for CLI round trips."""
    cfg = preset("ex1")
    periods = cfg.schedule.periods
    short = tuple(dataclasses.replace(p, end_time=p.end_time / 100.0)
                  for p in periods)
    cfg = dataclasses.replace(
        cfg,
        domain=dataclasses.replace(cfg.domain, nx=20, dx=5.0),
        reservoir=dataclasses.replace(cfg.reservoir, well_x=2.5),
        leak=dataclasses.replace(cfg.leak, anchor_x=12.5),
        schedule=dataclasses.replace(cfg.schedule, periods=short),
        co2=dataclasses.replace(cfg.co2, duration=3600.0),
        outputs=dataclasses.replace(cfg.outputs, out_dir=str(tmp_path / "out"),
                                    snapshot_cadence=36000.0),
        solver=dataclasses.replace(cfg.solver, dt_max=3600.0),
    )
    path = tmp_path / "tiny.cfg"
    path.write_text(format_config(cfg))
    return path, cfg


@pytest.fixture
def leaky_config(tmp_path):
    """A seconds-scale ex2 slice whose untreated leak carries CO2 upward."""
    cfg = preset("ex2")
    short = tuple(dataclasses.replace(p, end_time=p.end_time / 100.0)
                  for p in cfg.schedule.periods)
    cfg = dataclasses.replace(
        cfg,
        domain=dataclasses.replace(cfg.domain, nx=40, nz=12, dx=2.5, dz=2.5),
        leak=dataclasses.replace(cfg.leak, aperture=4.0),
        schedule=dataclasses.replace(cfg.schedule, periods=short),
        co2=dataclasses.replace(cfg.co2, duration=172800.0, plane_z=5.0),
        outputs=dataclasses.replace(cfg.outputs, out_dir=str(tmp_path / "out")),
    )
    path = tmp_path / "leaky.cfg"
    path.write_text(format_config(cfg))
    return path, cfg


def test_benchmark_trace_sees_every_layer(leaky_config, tmp_path, monkeypatch):
    """bench/child.py's trace mode still finds every name it wraps, and each
    span that bench/run.py's layers read records calls on a study."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)
    spec.loader.exec_module(run)
    path, _ = leaky_config
    record = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(bench / "child.py"), "trace", str(record), "--",
         "study", str(path), "--out", str(tmp_path / "traced")],
        cwd=bench.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert rec["missing"] == []
    spans = {span for names, _ in run.LAYERS.values() for span in names}
    assert "co2.leak" in spans
    calls = {span: rec["spans"].get(span, {"calls": 0})["calls"] for span in spans}
    assert all(n > 0 for n in calls.values()), calls
    # the evaluation's second return value is its aux, never None, so the
    # trace counts every evaluation as a Jacobian; that each Jacobian is
    # factored is checked in the solvers' own tests
    assert rec["counts"]["micp.jacobians"] == calls["micp.eval"]


@pytest.fixture
def failing_config(tmp_path):
    """A treatment whose first step fails: one Newton iteration, no dt cut."""
    cfg = preset("ex1")
    cfg = dataclasses.replace(
        cfg,
        domain=dataclasses.replace(cfg.domain, nx=10, dx=10.0),
        reservoir=dataclasses.replace(cfg.reservoir, well_x=5.0),
        leak=None,
        solver=dataclasses.replace(cfg.solver, newton_max_iter=1,
                                   dt_init=3600.0, dt_min=3600.0,
                                   dt_max=3600.0),
        outputs=dataclasses.replace(cfg.outputs,
                                    out_dir=str(tmp_path / "out")),
    )
    path = tmp_path / "fail.cfg"
    path.write_text(format_config(cfg))
    return path


class TestPresetCommand:
    def test_preset_round_trips(self, capsys):
        assert main(["preset", "ex1"]) == 0
        text = capsys.readouterr().out
        assert parse_config(text) == preset("ex1")

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["preset", "ex7"]) == 2


class TestRunMicp:
    def test_run_and_outputs(self, tiny_config, capsys, tmp_path):
        path, cfg = tiny_config
        assert main(["run-micp", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ledger" in out
        assert "min K/K0" in out
        out_dir = tmp_path / "out"
        finals = list(out_dir.glob("micp_final.vtk"))
        assert finals
        assert (out_dir / "micp_diagnostics.csv").exists()
        t, cols = read_timeseries(out_dir / "micp_diagnostics.csv")
        assert t.size > 0
        assert "newton_iterations" in cols

    def test_summary_lines_keep_their_shape(self, tiny_config, capsys, tmp_path):
        """The summary lines, matched as ``bench/run.py`` matches them."""
        path, cfg = tiny_config
        assert main(["run-micp", str(path)]) == 0
        out = capsys.readouterr().out
        done = re.search(r"treatment finished: t = (\S+) h in (\d+) steps "
                         r"\((\d+) Newton iterations, (\d+) dt cuts\)", out)
        factors = re.search(r"dt cuts\), (\d+) factorizations, wall time [0-9.]+ s$",
                            out, re.M)
        ledgers = re.findall(r"^ledger (\w): injected=(\S+) kg .* closure=(\S+)$",
                             out, re.M)
        clamped = re.search(r"clamped mass total: (\S+) kg", out)
        min_k = re.search(r"min K/K0 in leak: (\S+)", out)
        assert done and factors and clamped and min_k
        t_h, steps, iters, cuts = done.groups()
        assert float(t_h) == pytest.approx(cfg.schedule.periods[-1].end_time / 3600.0)
        t, cols = read_timeseries(tmp_path / "out" / "micp_diagnostics.csv")
        assert int(steps) == t.size > 1
        assert int(iters) == cols["newton_iterations"].sum() > 0
        assert int(factors.group(1)) == cols["factorizations"].sum() > 0
        assert int(cuts) == 0
        assert [name for name, _, _ in ledgers] == ["m", "o", "u"]
        assert all(float(inj) > 0.0 and float(c) >= 0.0 for _, inj, c in ledgers)
        assert float(clamped.group(1)) >= 0.0
        assert 0.0 < float(min_k.group(1)) <= 1.0

    def test_missing_config_file(self, capsys):
        assert main(["run-micp", "/does/not/exist.cfg"]) == 2

    def test_geometry_error_leaves_no_directory(self, tmp_path, capsys):
        cfg = preset("ex2")
        cfg = dataclasses.replace(cfg, leak=dataclasses.replace(cfg.leak,
                                                                anchor_x=2.0))
        path = tmp_path / "offside.cfg"
        path.write_text(format_config(cfg))
        out_dir = tmp_path / "never"
        assert main(["run-micp", str(path), "--out", str(out_dir)]) == 2
        assert "error: geometry" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[kinetics]\nrho_b = frog\n")
        assert main(["run-micp", str(path)]) == 2
        assert "error: config" in capsys.readouterr().err

    def test_bad_period_number_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[schedule]\nperiod.x = 10 no_flow 0 0 0 0\n")
        out_dir = tmp_path / "never"
        assert main(["run-micp", str(path), "--out", str(out_dir)]) == 2
        assert "error: config: [schedule] period.x" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, line", [
        ("solver", "newton_max_iter = 0"), ("outputs", "snapshot_cadence = -5"),
        ("reservoir", "outflow = x+, x+"),  # the doubled face halves the resistance
    ])
    def test_setting_that_cannot_run_is_config_error(self, tmp_path, capsys,
                                                     section, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{line}\n")
        out_dir = tmp_path / "never"
        assert main(["run-micp", str(path), "--out", str(out_dir)]) == 2
        assert f"error: config: [{section}] {line.split()[0]}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_solver_failure_exit_code(self, failing_config, tmp_path, capsys):
        path = failing_config
        assert main(["run-micp", str(path)]) == 3
        assert "solver-failure" in capsys.readouterr().err
        assert (tmp_path / "out" / "micp_last_good.vtk").exists()

    def test_failed_run_keeps_its_diagnostics(self, tmp_path, capsys):
        # two Newton iterations and no room to cut dt: ex1 fails at 100 h
        path = tmp_path / "late_fail.cfg"
        path.write_text("[experiment]\npreset = ex1\n[solver]\nnewton_max_iter = 2\n"
                        "dt_min = 600\ndt_init = 600\n")
        out_dir = tmp_path / "late"
        assert main(["run-micp", str(path), "--out", str(out_dir)]) == 3
        assert "failed at t = 360000 s" in capsys.readouterr().err
        assert (out_dir / "micp_last_good.vtk").exists()
        t, cols = read_timeseries(out_dir / "micp_diagnostics.csv")
        assert t.size > 1 and t[-1] == 360000.0
        assert np.all(cols["newton_iterations"] <= 2)

    def test_output_directory_that_cannot_be_made(self, tiny_config, tmp_path, capsys):
        path, _ = tiny_config
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert main(["run-micp", str(path), "--out", str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: io: ") and str(blocker / "sub") in err


class TestRunCo2:
    def test_missing_snapshot_path(self, tiny_config, capsys):
        path, _ = tiny_config
        assert main(["run-co2", str(path), "--perm-from", "/nope.vtk"]) == 2

    def test_given_plane_without_leak_is_a_run_error(self, tmp_path, capsys):
        path = tmp_path / "no_leak.cfg"
        path.write_text("[experiment]\npreset = ex1\n[leak]\nenabled = false\n"
                        "[twophase]\nplane_z = 0.5\n")
        assert main(["run-co2", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "does not cut any leak-tagged face" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["truncated", "non_numeric", "dimensions"])
    def test_damaged_snapshot_is_reported(self, tiny_config, tmp_path, capsys, damage):
        path, cfg = tiny_config
        grid = build_domain(cfg.domain, cfg.leak, cfg.reservoir, cfg.rock)
        snap = tmp_path / "treated.vtk"
        write_snapshot(grid, {"phi": grid.poro0, "K": grid.perm0}, 0.0, snap)
        lines = snap.read_text().splitlines()
        at = lines.index("SCALARS K double 1") + 2
        if damage == "truncated":
            lines = lines[:at + 5]
        elif damage == "non_numeric":
            lines[at + 5] = "abc"
        else:
            lines[lines.index("DIMENSIONS 21 2 2")] = "DIMENSIONS 21 x 2"
        snap.write_text("\n".join(lines) + "\n")
        assert main(["run-co2", str(path), "--perm-from", str(snap)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snapshot: ")
        message = ("bad lattice line 'DIMENSIONS 21 x 2'" if damage == "dimensions"
                   else "cell field 'K' has 5 numeric values, expected 20")
        assert f"{snap}: {message}" in err

    @pytest.mark.parametrize("name, field, bad", [
        ("K", "perm", "nan"), ("K", "perm", "inf"), ("phi", "poro", "nan"),
    ])
    def test_nonfinite_snapshot_field_is_a_run_error(self, tiny_config, tmp_path,
                                                      capsys, name, field, bad):
        path, cfg = tiny_config
        grid = build_domain(cfg.domain, cfg.leak, cfg.reservoir, cfg.rock)
        fields = {"phi": grid.poro0.copy(), "K": grid.perm0.copy()}
        fields[name][3] = float(bad)
        snap = tmp_path / "treated.vtk"
        write_snapshot(grid, fields, 0.0, snap)
        out_dir = tmp_path / "out"
        assert main(["run-co2", str(path), "--perm-from", str(snap)]) == 2
        assert capsys.readouterr().err == (
            f"error: run: {field} must be finite and > 0 in active cells\n")
        assert not list(out_dir.glob("co2_*"))

    def test_solver_failure_writes_last_good_state(self, failing_config, tmp_path,
                                                   capsys):
        assert main(["run-co2", str(failing_config)]) == 3
        assert "error: solver-failure: " in capsys.readouterr().err
        out_dir = tmp_path / "out"
        assert (out_dir / "co2_last_good.vtk").exists()
        assert not list(out_dir.glob("co2_final_*"))

    def test_untreated_then_treated(self, tiny_config, capsys, tmp_path):
        path, cfg = tiny_config
        assert main(["run-micp", str(path)]) == 0
        capsys.readouterr()
        assert main(["run-co2", str(path)]) == 0
        out = capsys.readouterr().out
        assert "peak normalized leakage flux" in out
        out_dir = tmp_path / "out"
        snap = out_dir / "micp_final.vtk"
        assert main(["run-co2", str(path), "--perm-from", str(snap)]) == 0
        assert (out_dir / "co2_final_treated.vtk").exists()
        # the treated permeability actually differs from the pristine field
        grid = build_domain(cfg.domain, cfg.leak, cfg.reservoir, cfg.rock)
        K = read_snapshot_field(snap, "K", grid)
        assert np.any(K < grid.perm0)

    def test_diagnostics_csv(self, tiny_config, capsys, tmp_path):
        path, cfg = tiny_config
        assert main(["run-co2", str(path)]) == 0
        steps = int(re.search(r"\((\d+) steps", capsys.readouterr().out).group(1))
        t, cols = read_timeseries(tmp_path / "out" / "co2_diagnostics_untreated.csv")
        assert t.size == steps
        assert {"dt", "newton_iterations", "residual", "max_s"} <= set(cols)
        assert cols["dt"].sum() == pytest.approx(cfg.co2.duration)
        assert t[-1] == pytest.approx(cfg.co2.duration)
        assert np.all(cols["max_s"] > 0.0)

    def test_summary_shows_the_work(self, tiny_config, capsys, tmp_path):
        path, cfg = tiny_config
        assert main(["run-co2", str(path)]) == 0
        out = capsys.readouterr().out
        done = re.search(r"peak normalized leakage flux: \S+ \((\d+) steps, "
                         r"(\d+) Newton iterations, (\d+) factorizations, "
                         r"(\d+) dt cuts, wall time [0-9.]+ s\)$", out, re.M)
        # the balance line as ``bench/run.py`` matches it
        balance = re.search(r"co2 assessment \((\w+)\): .* closure=(\S+)$", out, re.M)
        injected = re.search(r"co2 assessment \(\w+\): injected=(\S+) m\^3 ", out)
        assert done and balance and injected
        assert balance.group(1) == "untreated"
        assert 0.0 <= float(balance.group(2)) < 1e-6
        assert float(injected.group(1)) == pytest.approx(cfg.co2.rate * cfg.co2.duration,
                                                         rel=1e-6)
        steps, iters, factors, cuts = (int(v) for v in done.groups())
        t, cols = read_timeseries(tmp_path / "out" / "co2_diagnostics_untreated.csv")
        assert steps == t.size > 1
        assert iters == cols["newton_iterations"].sum() > 0
        # later steps update with the factorization an earlier step left
        assert factors == cols["factorizations"].sum() < iters
        assert cuts == 0


def _files(directory):
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


def _without_wall_times(text):
    return re.sub(r"wall time [0-9.]+ s", "wall time - s", text)


class TestStudy:
    def test_matches_the_three_command_chain(self, leaky_config, tmp_path,
                                              capsys):
        path, _ = leaky_config
        study_dir, chain_dir = tmp_path / "study", tmp_path / "chain"
        assert main(["study", str(path), "--out", str(study_dir)]) == 0
        study_out = capsys.readouterr().out
        chain = ["--out", str(chain_dir)]
        assert main(["run-micp", str(path)] + chain) == 0
        assert main(["run-co2", str(path)] + chain) == 0
        assert main(["run-co2", str(path), "--perm-from",
                     str(chain_dir / "micp_final.vtk")] + chain) == 0
        chain_out = capsys.readouterr().out

        study_files = _files(study_dir)
        del study_files["study_summary.csv"]
        assert study_files == _files(chain_dir)
        assert {"co2_final_treated.vtk", "co2_leakage_untreated.csv",
                "micp_final.vtk"} <= set(study_files)

        # the study prints what the chain prints, then the ratio of the peaks
        ratio_line = study_out.splitlines()[-1]
        assert (_without_wall_times(study_out)
                == _without_wall_times(chain_out) + ratio_line + "\n")
        peak_u, peak_t = (float(v) for v in re.findall(
            r"peak normalized leakage flux: (\S+)", study_out))
        assert peak_u > 0.0
        label, ratio = ratio_line.split(": ")
        assert label == "treated/untreated peak leakage ratio"
        assert float(ratio) == pytest.approx(peak_t / peak_u, rel=1e-3)

        _, cols = read_timeseries(study_dir / "study_summary.csv")
        peaks = {label: read_timeseries(study_dir / f"co2_leakage_{label}.csv")[1]
                 ["normalized_flux"].max() for label in ("untreated", "treated")}
        assert cols["peak_untreated"][0] == peaks["untreated"]
        assert cols["peak_treated"][0] == peaks["treated"]
        assert cols["peak_ratio"][0] == peaks["treated"] / peaks["untreated"]

    def test_failed_treatment_skips_assessment(self, failing_config, tmp_path,
                                               capsys):
        path = failing_config
        assert main(["study", str(path)]) == 3
        assert "solver-failure" in capsys.readouterr().err
        out_dir = tmp_path / "out"
        assert (out_dir / "micp_last_good.vtk").exists()
        assert not list(out_dir.glob("co2_*"))
        assert not (out_dir / "study_summary.csv").exists()

    def test_csv_only_still_assesses_treated_field(self, leaky_config,
                                                    tmp_path, capsys):
        path, cfg = leaky_config
        csv_only = dataclasses.replace(
            cfg, outputs=dataclasses.replace(cfg.outputs, formats=("csv",)))
        csv_path = tmp_path / "csv_only.cfg"
        csv_path.write_text(format_config(csv_only))
        assert main(["study", str(csv_path), "--out", str(tmp_path / "csv")]) == 0
        assert main(["study", str(path), "--out", str(tmp_path / "both")]) == 0
        csv_files = _files(tmp_path / "csv")
        assert sorted(csv_files) == [
            "co2_diagnostics_treated.csv", "co2_diagnostics_untreated.csv",
            "co2_leakage_treated.csv", "co2_leakage_untreated.csv",
            "micp_diagnostics.csv", "study_summary.csv"]
        both = _files(tmp_path / "both")
        assert all(both[name] == data for name, data in csv_files.items())

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["study", str(tmp_path / "missing.cfg")]) == 2
        assert "error: io" in capsys.readouterr().err


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("PASS") >= 7


class TestDeterminism:
    def test_identical_runs_identical_csv_bytes(self, tiny_config, tmp_path,
                                                capsys):
        path, _ = tiny_config
        assert main(["run-micp", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(["run-micp", str(path), "--out", str(tmp_path / "b")]) == 0
        csv_a = (tmp_path / "a" / "micp_diagnostics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "micp_diagnostics.csv").read_bytes()
        assert csv_a == csv_b
        vtk_a = (tmp_path / "a" / "micp_final.vtk").read_bytes()
        vtk_b = (tmp_path / "b" / "micp_final.vtk").read_bytes()
        assert vtk_a == vtk_b


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
