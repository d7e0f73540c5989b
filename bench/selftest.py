#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about 10 s).

    python3 bench/selftest.py

Runs the ex1 line through the harness on a nine-period phase compressed
to 15 h, once untraced, twice traced and through the set-up probes, and
checks that every span the micp workloads report fires, that the gates
pass it, that the gates and the determinism check reject wrong answers,
that a missing span is reported missing rather than zero, and that the
benchmark refuses to run without the package sources. Exits 0 when all
checks pass.
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

_PERIODS = (  # ex1 phase I with every end time divided by 20, in hours
    (0.75, "microbial", (0.01, 0.0, 0.0)), (1.1, "water_push", (0.0, 0.0, 0.0)),
    (5.0, "no_flow", None), (6.5, "growth", (0.0, 0.04, 0.0)),
    (6.75, "water_push", (0.0, 0.0, 0.0)), (8.0, "no_flow", None),
    (10.0, "cementation", (0.0, 0.0, 300.0)), (10.5, "water_push", (0.0, 0.0, 0.0)),
    (15.0, "no_flow", None))


def _short_ex1_config(f: float) -> str:
    lines = ["[experiment]", "preset = ex1", "[schedule]", "phases = 0"]
    for i, (end_h, label, conc) in enumerate(_PERIODS, start=1):
        rate = 0.0 if conc is None else 2.31e-5 * f
        c = conc or (0.0, 0.0, 0.0)
        lines.append(f"period.{i} = {end_h * 3600.0!r} {label} {rate!r} "
                     f"{c[0]!r} {c[1]!r} {c[2]!r}")
    lines += ["[solver]", "newton_rel_tol = 1e-10"]
    return "\n".join(lines) + "\n"


FAILURES: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"selftest {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    if not ok:
        FAILURES.append(name)


def _rejects(gate, outcome, **changes) -> bool:
    bad = copy.deepcopy(outcome)
    bad.problems = []
    bad.physics.update(changes)
    gate(bad)
    return bool(bad.problems)


def main() -> int:
    work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run.WORKLOADS["selftest_ex1"] = run.Workload(
        "run-micp", _short_ex1_config,
        run._judged(lambda out, d: run._micp_outcome(out, d, 15.0), run.gate_ex1),
        run.MICP_LAYERS)
    bench = run.Bench("selftest_ex1", seed=7, seconds=0.0, work=work)

    layer = bench.traced()
    check("traced runs pass gates", bench.failed == 0 and bench.attempted == 2)
    expected = [n for fn in (run._layer_config, run._layer_grid,
                             run._layer_kinetics, run._layer_micp,
                             run._layer_vtkio, run._layer_cli)
                for n in fn({"spans": {}}, {})]
    absent = [n for n in expected if n not in layer]
    check("every micp-side layer metric reported", not absent, f"absent {absent}")
    may_be_zero = {"micp.failed_steps", "micp.wasted_iters"}  # no dt cut here
    zero = [n for n in expected
            if n in layer and n not in may_be_zero and layer[n][0] <= 0]
    check("micp-side layer metrics are positive", not zero, f"zero {zero}")
    co2_zero = all(v == 0 for n, (v, _) in layer.items() if n.startswith("co2."))
    check("co2 layer reads zero on a micp workload",
          co2_zero and "co2.steps" in layer)
    check("tracing overhead reported",
          "trace.overhead_s" in layer and layer["trace.wall_s"][0] > 0)

    run_, outcome = bench.cli("trace")
    check("second traced run repeats every work counter", not outcome.problems,
          "; ".join(outcome.problems))

    timing = bench.timing()
    check("timing metrics reported",
          sorted(timing) == ["ok_frac", "peak_rss_mb", "setup_s", "wall_s"]
          and 0 < timing["setup_s"][0] < timing["wall_s"][0]
          and timing["ok_frac"][0] == 1.0, str(timing))

    good = copy.deepcopy(outcome)
    check("ex1 gate rejects an open ledger",
          _rejects(run.gate_ex1, good, closure={"m": 1e-5, "o": 0.0, "u": 0.0}))
    check("ex1 gate rejects clamped mass",
          _rejects(run.gate_ex1, good, clamped_kg=good.physics["injected_kg"]))
    desk = copy.deepcopy(good)
    desk.physics.update(closure={"m": 1.16e-5}, clamped_kg=6.5e-9,
                        min_K_ratio=0.1685)
    check("desk gate passes the seed values", not _rejects(run.gate_desk, desk))
    check("desk gate passes a 5% change of min K/K0",
          not _rejects(run.gate_desk, desk, min_K_ratio=0.1685 * 1.05)
          and not _rejects(run.gate_desk, desk, min_K_ratio=0.1685 / 1.05))
    check("desk gate rejects no treatment and over-clogging",
          _rejects(run.gate_desk, desk, min_K_ratio=1.0)
          and _rejects(run.gate_desk, desk, min_K_ratio=0.05))
    check("desk gate rejects an open ledger and clamping",
          _rejects(run.gate_desk, desk, closure={"m": 1e-3})
          and _rejects(run.gate_desk, desk, clamped_kg=1e-5))
    co2 = run.Outcome(physics={"volume_closure": 1e-16, "first_flux": 0.0,
                               "peak_flux": 0.16, "s_min": 0.0, "s_max": 0.9})
    check("co2 gate passes the seed values", not _rejects(run.gate_co2, co2))
    check("co2 gate rejects each broken criterion", all(
        _rejects(run.gate_co2, co2, **bad) for bad in (
            {"volume_closure": 1e-5}, {"s_max": 1.001}, {"s_min": -1e-3},
            {"first_flux": 1e-3}, {"peak_flux": 0.005})))

    drift = run.Outcome(counters=dict(outcome.counters, newton_iters=-1))
    bench._check_counters(drift, None)
    check("determinism check flags a changed counter", bool(drift.problems))

    rec = {"spans": {}, "counts": {}, "missing": ["micp.eval"]}
    rec["spans"] = copy.deepcopy(run_.record["spans"])
    rec["counts"] = copy.deepcopy(run_.record["counts"])
    metrics = run.layer_metrics(rec, run.MICP_LAYERS)
    check("a missing span leaves its layer out",
          "micp.eval_s" not in metrics and "kinetics.rates_s" in metrics)
    del rec["spans"]["kinetics.rates"]
    rec["missing"] = []
    metrics = run.layer_metrics(rec, run.MICP_LAYERS)
    check("a layer that never ran is left out, not zero",
          "kinetics.rates_s" not in metrics and "micp.steps" not in metrics)

    bare = work / "bare"
    shutil.copytree(Path(run.__file__).parent, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ex1_line",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    check("refuses to run without the package sources",
          proc.returncode != 0 and "correct" not in proc.stdout)

    if not FAILURES:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} self-test check(s) failed" if FAILURES
          else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
