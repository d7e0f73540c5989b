#!/usr/bin/env python3
"""micpsim benchmark: the user-facing CLI on three generated workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``micpsim`` command on a config generated from the
seed, run in its own process from ``src/`` of this checkout. Seed 0 uses
the preset injection rate; any other seed scales it by a factor drawn in
[0.95, 1.05], so that a change cannot be tuned to one trajectory.

``--trace 0`` times the command with nothing wrapped, repeating it until
``--seconds`` have passed (at least once), and probes set-up time in
separate processes that stop at the first solver call. It reports the
medians of wall time, set-up time and peak RSS, and the share of runs
that passed.

``--trace 1`` runs the command once untraced and then traced until
``--seconds`` have passed in all (at least once), with spans around the
calls into each package module, and reports the per-layer metrics and the
tracing overhead.

Every run must exit 0, pass the workload's physics gates, and print the
same work counters as every other run of the same seed; a run that does
not counts as failed. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
CLI_SOURCE = ROOT / "src" / "micpsim" / "cli.py"

TIME_LIMIT_S = 170.0  # a whole benchmark run ends within 180 s
SETUP_PROBES = 9


def rate_factor(seed: int) -> float:
    return 1.0 if seed == 0 else random.Random(seed).uniform(0.95, 1.05)


# ---------------------------------------------------------------- parsing

_MICP_DONE = re.compile(r"treatment finished: t = (\S+) h in (\d+) steps "
                        r"\((\d+) Newton iterations, (\d+) dt cuts\)")
_LEDGER = re.compile(r"^ledger (\w): injected=(\S+) kg .* closure=(\S+)$", re.M)
_CLAMPED = re.compile(r"clamped mass total: (\S+) kg")
_MIN_K = re.compile(r"min K/K0 in leak: (\S+)")
_CO2_BALANCE = re.compile(r"co2 assessment \((\w+)\): .* closure=(\S+)$", re.M)
_CO2_DONE = re.compile(r"peak normalized leakage flux: (\S+) \((\d+) steps")


@dataclass
class Outcome:
    """What one CLI run printed and wrote, judged against the gates."""

    counters: dict = field(default_factory=dict)
    physics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _micp_outcome(stdout: str, out_dir: Path, t_end_h: float) -> Outcome:
    res = Outcome()
    done = _MICP_DONE.search(stdout)
    clamped = _CLAMPED.search(stdout)
    min_k = _MIN_K.search(stdout)
    ledgers = _LEDGER.findall(stdout)
    if not (done and clamped and min_k and len(ledgers) == 3):
        res.problems.append("run-micp summary incomplete")
        return res
    t_h, steps, iters, cuts = done.groups()
    res.counters = {"steps": int(steps), "newton_iters": int(iters),
                    "dt_cuts": int(cuts)}
    res.physics = {
        "t_end_h": float(t_h),
        "closure": {name: float(c) for name, _, c in ledgers},
        "injected_kg": sum(float(inj) for _, inj, _ in ledgers),
        "clamped_kg": float(clamped.group(1)),
        "min_K_ratio": float(min_k.group(1)),
    }
    if abs(float(t_h) - t_end_h) > 1e-3:
        res.problems.append(f"treatment ended at {t_h} h, not {t_end_h:g} h")
    for name in ("micp_final.vtk", "micp_diagnostics.csv"):
        if not (out_dir / name).is_file():
            res.problems.append(f"{name} not written")
    return res


def _vtk_field(path: Path, name: str) -> list[float]:
    lines = path.read_text().splitlines()
    dims = next(ln for ln in lines if ln.startswith("DIMENSIONS")).split()[1:]
    n_cells = 1
    for d in dims:
        n_cells *= int(d) - 1
    start = lines.index(f"SCALARS {name} double 1") + 2
    return [float(v) for v in lines[start:start + n_cells]]


def _co2_outcome(stdout: str, out_dir: Path) -> Outcome:
    res = Outcome()
    balance = _CO2_BALANCE.search(stdout)
    done = _CO2_DONE.search(stdout)
    series_csv = out_dir / "co2_leakage_untreated.csv"
    final_vtk = out_dir / "co2_final_untreated.vtk"
    if not (balance and done and series_csv.is_file() and final_vtk.is_file()):
        res.problems.append("run-co2 summary or output files incomplete")
        return res
    rows = [ln.split(",") for ln in series_csv.read_text().splitlines()[1:]]
    flux = [float(r[1]) for r in rows if len(r) == 2]
    s = _vtk_field(final_vtk, "s_co2")
    res.counters = {"steps": int(done.group(2)), "peak_flux": done.group(1)}
    res.physics = {
        "volume_closure": float(balance.group(2)),
        "first_flux": flux[0] if flux else float("nan"),
        "peak_flux": max(flux, default=float("nan")),
        "s_min": min(s), "s_max": max(s),
    }
    return res


# ------------------------------------------------------------------ gates
#
# ex1 and co2 use the acceptance criteria (2, 6 and 7). The desk gate is
# set around the seed commit's values (closure 1.16e-5, clamped 6.5e-9 kg,
# min K/K0 0.1685): across rate factors 0.95-1.05 these move to at most
# 1.2e-5, 1.6e-8 kg and 0.165-0.173, and a 0.5% change of the calcite
# fraction moves min K/K0 by about 1%. A run with no or double the
# clogging, a leaking ledger or large clamping falls outside.

DESK_MIN_K = (0.8 * 0.1685, 1.25 * 0.1685)


def gate_ex1(o: Outcome) -> None:
    ph = o.physics
    for name, closure in ph["closure"].items():
        if not closure < 1e-6:
            o.problems.append(f"ledger {name} closure {closure:.3e} >= 1e-6")
    if not ph["clamped_kg"] < 1e-8 * ph["injected_kg"]:
        o.problems.append(f"clamped mass {ph['clamped_kg']:.3e} kg >= 1e-8 x "
                          f"injected {ph['injected_kg']:.3e} kg")


def gate_desk(o: Outcome) -> None:
    ph = o.physics
    worst = max(ph["closure"].values())
    if not worst < 1e-4:
        o.problems.append(f"worst ledger closure {worst:.3e} >= 1e-4")
    if not ph["clamped_kg"] < 1e-6:
        o.problems.append(f"clamped mass {ph['clamped_kg']:.3e} kg >= 1e-6 kg")
    lo, hi = DESK_MIN_K
    if not lo <= ph["min_K_ratio"] <= hi:
        o.problems.append(f"min K/K0 in leak {ph['min_K_ratio']} outside "
                          f"[{lo:.4f}, {hi:.4f}]")


def gate_co2(o: Outcome) -> None:
    ph = o.physics
    if not ph["volume_closure"] < 1e-6:
        o.problems.append(f"volume closure {ph['volume_closure']:.3e} >= 1e-6")
    if not (0.0 <= ph["s_min"] and ph["s_max"] <= 1.0):
        o.problems.append(f"saturation outside [0, 1]: "
                          f"[{ph['s_min']}, {ph['s_max']}]")
    if not ph["first_flux"] < 1e-6:
        o.problems.append(f"first leak flux {ph['first_flux']:.3e} >= 1e-6")
    if not ph["peak_flux"] > 0.01:
        o.problems.append(f"peak leak flux {ph['peak_flux']:.3e} <= 0.01")


# -------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    command: str
    config: object  # fn(rate factor) -> config text
    judge: object  # fn(stdout, out_dir) -> Outcome, gates applied
    layers: frozenset


def _ex1_config(f: float) -> str:
    return ("[experiment]\npreset = ex1\n"
            f"[schedule]\nbuiltin = ex1\nrate = {2.31e-5 * f!r}\n"
            "[solver]\nnewton_rel_tol = 1e-10\n")


def _desk_config(f: float) -> str:
    # ex3 on the 2.5 m desk grid; phase I of ex3 is the ex2 strategy at
    # the ex3 rate
    return ("[experiment]\npreset = ex3\n"
            "[domain]\nnx = 40\nnz = 12\ndx = 2.5\ndz = 2.5\n"
            "[leak]\na = 4.0\n"
            f"[schedule]\nbuiltin = ex2\nrate = {8.70e-3 * f!r}\n"
            "[solver]\ndt_max = 7200.0\n")


def _co2_config(f: float) -> str:
    return ("[experiment]\npreset = ex3\n"
            f"[twophase]\nco2_rate = {2.31e-4 * f!r}\n"
            f"co2_duration = {8 * 86400.0!r}\nplane_z = 5.0\n"
            "[solver]\nnewton_rel_tol = 1e-10\ndt_max = 14400.0\n")


def _judged(parse, gate):
    def judge(stdout, out_dir):
        o = parse(stdout, out_dir)
        if not o.problems:
            gate(o)
        return o
    return judge


MICP_LAYERS = frozenset({"config", "grid", "kinetics", "micp", "vtkio", "cli"})
CO2_LAYERS = frozenset({"config", "grid", "co2", "vtkio", "cli"})

WORKLOADS = {
    "ex1_line": Workload(
        "run-micp", _ex1_config,
        _judged(lambda out, d: _micp_outcome(out, d, 300.0), gate_ex1),
        MICP_LAYERS),
    # run by hand only, not listed in BENCHMARK.json: one run takes 40-60 s,
    # too long to repeat within a benchmark run, and ten such single runs
    # spread by more than the wall-time bound as the host's speed drifts
    "ex3_desk_phase1": Workload(
        "run-micp", _desk_config,
        _judged(lambda out, d: _micp_outcome(out, d, 300.0), gate_desk),
        MICP_LAYERS),
    "ex3_co2_fine": Workload("run-co2", _co2_config,
                             _judged(_co2_outcome, gate_co2), CO2_LAYERS),
}


# ---------------------------------------------------------------- running

@dataclass
class Run:
    exit_code: int
    wall_s: float
    rss_mb: float
    stdout: str
    record: dict | None = None


def _monotonic() -> float:
    # system-wide clock, comparable with the mark a child writes
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(mode: str, cli_args: list, work: Path, tag: str, limit_s: float) -> Run:
    """Run child.py in MODE; wall time from just before the spawn to exit."""
    record = work / f"{tag}.json"
    env = dict(os.environ, TMPDIR=str(work))
    with open(work / f"{tag}.out", "w+") as out, open(work / f"{tag}.err", "w") as err:
        t0 = _monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, str(record), "--", *cli_args],
            stdout=out, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(max(limit_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: end the child too
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = _monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    rec = json.loads(record.read_text()) if record.is_file() else None
    if mode == "setup" and rec is not None:
        rec["setup_s"] = rec["setup_mark"] - t0
    return Run(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, rec)


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, work: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seconds = seconds
        self.work = work
        self.deadline = _monotonic() + TIME_LIMIT_S
        self.cfg = work / f"{name}.cfg"
        self.cfg.write_text(self.wl.config(rate_factor(seed)))
        self.attempted = 0
        self.failed = 0
        self.counters: dict | None = None
        self.n = 0  # CLI runs so far
        self.n_probes = 0

    def remaining(self) -> float:
        return self.deadline - _monotonic()

    def cli(self, mode: str) -> tuple[Run, Outcome]:
        """One counted CLI run: exit code, gates and counter agreement."""
        self.n += 1
        tag = f"{mode}{self.n}"
        out_dir = self.work / tag
        run = spawn(mode, [self.wl.command, str(self.cfg), "--out", str(out_dir)],
                    self.work, tag, self.remaining())
        self.attempted += 1
        if run.exit_code != 0:
            outcome = Outcome(problems=[f"exit code {run.exit_code}"])
        else:
            outcome = self.wl.judge(run.stdout, out_dir)
            self._check_counters(outcome, run.record)
        if outcome.problems:
            self.failed += 1
            err = (self.work / f"{tag}.err").read_text().strip().splitlines()
            print(f"{self.name} {tag}: FAILED: {'; '.join(outcome.problems)}"
                  + (f" (stderr: {err[-1]})" if err else ""), file=sys.stderr)
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
        print(f"{self.name} {tag}: wall {run.wall_s:.3f} s, rss "
              f"{run.rss_mb:.1f} MB, counters {outcome.counters}", file=sys.stderr)
        return run, outcome

    def _check_counters(self, outcome: Outcome, record: dict | None) -> None:
        """Work counters of one seed must repeat exactly across runs."""
        counters = dict(outcome.counters)
        if record is not None:
            counters.update(trace_counters(record))
        if self.counters is None:
            self.counters = counters
            return
        diff = {k: (self.counters[k], v) for k, v in counters.items()
                if k in self.counters and self.counters[k] != v}
        if diff:
            outcome.problems.append(f"work counters differ from the first run: {diff}")
        for k, v in counters.items():
            self.counters.setdefault(k, v)

    def setup_times(self, count: int) -> list[float]:
        times = []
        for _ in range(count):
            self.n_probes += 1
            i = self.n_probes
            out_dir = self.work / f"setup{i}"
            run = spawn("setup", [self.wl.command, str(self.cfg), "--out",
                                  str(out_dir)], self.work, f"setup{i}",
                        self.remaining())
            if run.exit_code != 0 or run.record is None:
                err = (self.work / f"setup{i}.err").read_text()
                raise SystemExit(f"set-up probe failed (exit {run.exit_code}):\n{err}")
            times.append(run.record["setup_s"])
        return times

    def timing(self) -> dict:
        # half the set-up probes before the timed runs and half after, so
        # that they sample the host's speed over the whole run
        setup = self.setup_times(SETUP_PROBES // 2)
        runs = []
        start = _monotonic()
        while not runs or (_monotonic() - start < self.seconds
                           and self.remaining() > 1.5 * runs[-1].wall_s):
            runs.append(self.cli("plain")[0])
        setup += self.setup_times(SETUP_PROBES - len(setup))
        ok = [r for r in runs if r.exit_code == 0]
        return {
            "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in ok or runs), "MB"),
            "ok_frac": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }

    def traced(self) -> dict:
        # the untraced run counts towards --seconds, so that a traced
        # benchmark run takes about as long as an untraced one
        start = _monotonic()
        plain, _ = self.cli("plain")
        traced = []
        while not traced or (_monotonic() - start < self.seconds
                             and self.remaining() > 1.5 * traced[-1].wall_s):
            run, outcome = self.cli("trace")
            if run.record is not None and not outcome.problems:
                traced.append(run)
            elif not traced:
                return {}
        per_run = [layer_metrics(r.record, self.wl.layers) for r in traced]
        # median_low: a value one traced run measured, integral for counts
        metrics = {name: (statistics.median_low(m[name][0] for m in per_run), unit)
                   for name, (_, unit) in per_run[0].items()}
        wall = statistics.median(r.wall_s for r in traced)
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.overhead_s"] = (wall - plain.wall_s, "s")
        return metrics


# ------------------------------------------------------------ layer metrics

def _span(rec: dict, name: str) -> dict:
    return rec["spans"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "durations": []})


def trace_counters(rec: dict) -> dict:
    """Work counters a traced run adds to the determinism check."""
    c = dict(rec["counts"])
    for span in ("micp.lu_factor", "micp.eval", "co2.lu_factor", "co2.eval"):
        c[f"{span}.calls"] = _span(rec, span)["calls"]
    return {f"trace.{k}": v for k, v in sorted(c.items())}


def _ms(rec: dict, span: str, pct: int) -> float:
    d = _span(rec, span)["durations"]
    if len(d) < 2:
        return 1e3 * d[0] if d else 0.0
    if pct == 50:
        return 1e3 * statistics.median(d)
    return 1e3 * statistics.quantiles(d, n=100)[pct - 1]


def _layer_config(r, c):
    return {"config.parse_s": (_span(r, "config.parse")["total_s"], "s")}


def _layer_grid(r, c):
    return {"grid.build_s": (_span(r, "grid.build")["total_s"], "s"),
            "grid.cells": (c.get("grid.cells", 0), "count"),
            "grid.faces": (c.get("grid.faces", 0), "count")}


def _layer_kinetics(r, c):
    return {"kinetics.rates_s": (_span(r, "kinetics.rates")["total_s"], "s"),
            "kinetics.rate_jac_s": (_span(r, "kinetics.rate_jac")["total_s"], "s"),
            "kinetics.calls": (_span(r, "kinetics.rates")["calls"]
                               + _span(r, "kinetics.rate_jac")["calls"], "count")}


def _layer_micp(r, c):
    factors = _span(r, "micp.lu_factor")["calls"]
    iters = c.get("micp.newton_iters", 0)
    return {
        "micp.steps": (c.get("micp.steps", 0), "count"),
        "micp.failed_steps": (c.get("micp.failed_steps", 0), "count"),
        "micp.newton_iters": (iters, "count"),
        "micp.wasted_iters": (c.get("micp.wasted_iters", 0), "count"),
        "micp.useful_frac": (iters / factors if factors else 0.0, "ratio"),
        "micp.step_self_s": (_span(r, "micp.step")["self_s"], "s"),
        "micp.loop_self_s": (_span(r, "micp.loop")["self_s"], "s"),
        "micp.step_ms.p50": (_ms(r, "micp.step", 50), "ms"),
        "micp.step_ms.p90": (_ms(r, "micp.step", 90), "ms"),
        "micp.eval_s": (_span(r, "micp.eval")["self_s"], "s"),
        "micp.evals": (_span(r, "micp.eval")["calls"], "count"),
        "micp.unused_jacobians": (c.get("micp.jacobians", 0) - factors, "count"),
        "micp.lu_factor_s": (_span(r, "micp.lu_factor")["total_s"], "s"),
        "micp.lu_solve_s": (_span(r, "micp.lu_solve")["total_s"], "s"),
        "micp.lu_factors": (factors, "count"),
        "micp.lu_fill_nnz": (c.get("micp.lu_fill_nnz", 0), "count"),
    }


def _layer_co2(r, c):
    return {
        "co2.steps": (c.get("co2.steps", 0), "count"),
        "co2.failed_steps": (c.get("co2.failed_steps", 0), "count"),
        "co2.newton_iters": (c.get("co2.newton_iters", 0), "count"),
        "co2.eval_s": (_span(r, "co2.eval")["self_s"], "s"),
        "co2.lu_factor_s": (_span(r, "co2.lu_factor")["total_s"], "s"),
        "co2.lu_solve_s": (_span(r, "co2.lu_solve")["total_s"], "s"),
        "co2.lu_factors": (_span(r, "co2.lu_factor")["calls"], "count"),
        "co2.lu_fill_nnz": (c.get("co2.lu_fill_nnz", 0), "count"),
        "co2.leak_s": (_span(r, "co2.leak")["total_s"], "s"),
        "co2.step_ms.p50": (_ms(r, "co2.step", 50), "ms"),
    }


def _layer_vtkio(r, c):
    return {"vtkio.write_s": (_span(r, "vtkio.write")["total_s"], "s"),
            "vtkio.bytes_written": (c.get("vtkio.bytes_written", 0), "B")}


def _layer_cli(r, c):
    return {"cli.self_s": (_span(r, "cli.main")["self_s"], "s")}


# layer -> (spans its metrics are computed from, metric fn)
LAYERS = {
    "config": (("config.parse",), _layer_config),
    "grid": (("grid.build",), _layer_grid),
    "kinetics": (("kinetics.rates", "kinetics.rate_jac"), _layer_kinetics),
    "micp": (("micp.loop", "micp.step", "micp.eval", "micp.lu_factor",
              "kinetics.rates", "kinetics.rate_jac"), _layer_micp),
    "co2": (("co2.loop", "co2.step", "co2.eval", "co2.lu_factor", "co2.leak"),
            _layer_co2),
    "vtkio": (("vtkio.write",), _layer_vtkio),
    # cli self time is only right when every span directly below it exists
    "cli": (("cli.main", "config.parse", "grid.build", "micp.loop", "co2.loop",
             "vtkio.write"), _layer_cli),
}


def layer_metrics(rec: dict, runs_in: frozenset) -> dict:
    """Per-layer metrics of one traced run.

    A layer whose wrapped names are gone, or that the workload runs but
    whose spans recorded no call, is left out (reported missing), never
    reported as zero. Layers the workload does not run report zeros.
    """
    out = {}
    for layer, (spans, fn) in LAYERS.items():
        gone = [s for s in spans if s in rec["missing"]]
        idle = [s for s in spans if layer in runs_in
                and s.split(".")[0] in runs_in and _span(rec, s)["calls"] == 0]
        if gone or idle:
            print(f"layer {layer}: metrics missing (spans gone: {gone}, "
                  f"never called: {idle})", file=sys.stderr)
            continue
        out.update(fn(rec, rec["counts"]))
    return out


# ------------------------------------------------------------------- main

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so that a running child is ended
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not CLI_SOURCE.is_file():
        print(f"{CLI_SOURCE} not found: run from a micpsim checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, work)
    metrics = bench.traced() if args.trace else bench.timing()
    if bench.failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
