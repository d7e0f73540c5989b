"""Command-line entry points.

    micpsim preset ex1|ex2|ex3          print a preset configuration
    micpsim run-micp CONFIG [...]       run the sealing treatment
    micpsim run-co2 CONFIG [...]        run the CO2 leakage assessment
    micpsim study CONFIG [--out DIR]    treatment, then CO2 on the untreated
                                        and treated fields; prints the
                                        treated/untreated peak leakage ratio
    micpsim verify [--seed N]           run the built-in check suite

Exit codes: 0 success, 1 verification failure, 2 bad arguments or
configuration, 3 solver hard failure (a last-good snapshot is written).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from .config import SimulationConfig, format_config, parse_config, preset
from .co2 import Co2Report, simulate_co2
from .errors import ConfigError, ConvergenceError, MicpSimError
from .grid import Grid, build_domain, face_transmissibility
from .kinetics import CellChemState, batch_oracle, monod, permeability
from .micp import (
    MicpState,
    MicpSystem,
    RunReport,
    permeability_field,
    porosity_field,
    simulate_micp,
    solve_timestep,
)
from .schedule import WellControl
from .stepping import OutputHooks, SolverSettings
from .vtkio import read_snapshot_field, write_snapshot, write_timeseries


class _Exit(Exception):
    """Ends a command with the exit code ``args[0]``; :func:`main` returns it."""


def _fail(code: int, kind: str, *messages: str) -> NoReturn:
    """Print each message as an error of ``kind`` and end the command with ``code``."""
    for message in messages:
        print(f"error: {kind}: {message}", file=sys.stderr)
    raise _Exit(code)


def _prepare_run(args) -> tuple[SimulationConfig, Path, Grid]:
    """Config, output directory and grid of a run command."""
    try:
        cfg = parse_config(Path(args.config).read_text())
    except OSError as exc:
        _fail(2, "io", str(exc))
    except ConfigError as exc:
        _fail(2, "config", *exc.problems)
    try:
        grid = build_domain(cfg.domain, cfg.leak, cfg.reservoir, cfg.rock)
    except MicpSimError as exc:
        _fail(2, "geometry", str(exc))
    out_dir = Path(args.out or cfg.outputs.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(2, "io", str(exc))
    return cfg, out_dir, grid


def _state_fields(grid, rock, state: MicpState) -> dict:
    phi = porosity_field(grid, state)
    K = permeability_field(grid, rock, state)
    return {"phi": phi, "K": K, "phi_b": state.phi_b, "phi_c": state.phi_c,
            "c_m": state.c_m, "c_o": state.c_o, "c_u": state.c_u, "p": state.p}


def _cmd_preset(args) -> int:
    try:
        print(format_config(preset(args.name)), end="")
    except ConfigError as exc:
        _fail(2, "config", str(exc))
    return 0


def _run_solver(cfg: SimulationConfig, grid: Grid, solve, fields, last_good_path: Path,
                diagnostics_path: Path):
    """Report of ``solve(on_diagnostics)``.

    A hard failure writes ``fields(state)`` of the last good state to
    ``last_good_path`` and exits 3; any other run error exits 2. A finished
    run, and a hard failure, write the records of the accepted steps to
    ``diagnostics_path``.
    """
    records = []

    def write_records():
        if "csv" in cfg.outputs.formats and records:
            write_timeseries(diagnostics_path, records)

    try:
        report = solve(lambda t, info: records.append((t, info)))
    except ConvergenceError as exc:
        if exc.last_good_state is not None and "vtk" in cfg.outputs.formats:
            write_snapshot(grid, fields(exc.last_good_state), exc.last_good_time or 0.0,
                           last_good_path)
        write_records()
        _fail(3, "solver-failure", str(exc))
    except MicpSimError as exc:
        _fail(2, "run", str(exc))
    write_records()
    return report


def _treat(cfg: SimulationConfig, grid: Grid, out_dir: Path) -> RunReport:
    """Run the sealing treatment, write its outputs and print its ledger."""
    snapshots = cfg.outputs.snapshot_cadence > 0 and "vtk" in cfg.outputs.formats

    def fields(state):
        return _state_fields(grid, cfg.rock, state)

    def on_snapshot(t, state):
        write_snapshot(grid, fields(state), t,
                       out_dir / f"micp_{int(round(t)):010d}s.vtk")

    def solve(on_diagnostics):
        hooks = OutputHooks(snapshot_cadence=cfg.outputs.snapshot_cadence,
                            on_snapshot=on_snapshot if snapshots else None,
                            on_diagnostics=on_diagnostics)
        return simulate_micp(grid, cfg.schedule, cfg.kinetics, cfg.rock, cfg.solver,
                             sinks=hooks)

    report = _run_solver(cfg, grid, solve, fields, out_dir / "micp_last_good.vtk",
                         out_dir / "micp_diagnostics.csv")
    if "vtk" in cfg.outputs.formats:
        write_snapshot(grid, fields(report.state), report.t, out_dir / "micp_final.vtk")

    print(f"treatment finished: t = {report.t / 3600.0:.6g} h in "
          f"{report.steps} steps ({report.newton_iterations} Newton iterations, "
          f"{report.dt_failures} dt cuts), {report.factorizations} factorizations, "
          f"wall time {report.wall_time:.2f} s")
    worst = 0.0
    for name, L in sorted(report.species.items()):
        worst = max(worst, L.relative_closure_error)
        print(f"ledger {name}: injected={L.injected:.6e} kg "
              f"produced={L.produced:.6e} kg reacted={L.reacted:.6e} kg "
              f"in-place={L.final_mass - L.initial_mass:+.6e} kg "
              f"closure={L.relative_closure_error:.3e}")
    clamp_total = sum(report.clamped.values())
    print(f"ledger closure worst: {worst:.3e} relative; "
          f"clamped mass total: {clamp_total:.3e} kg")
    print(f"min K/K0 in leak: {report.min_perm_ratio(grid, cfg.rock):.4g}")
    return report


def _assess(cfg: SimulationConfig, grid: Grid, out_dir: Path, perm, poro,
            label: str) -> Co2Report:
    """Run the CO2 leakage assessment on one K/phi field and write its outputs.

    ``label`` names the output files.
    """
    def fields(state):
        return {"s_co2": state.s, "p": state.p, "K": perm, "phi": poro}

    def solve(on_diagnostics):
        return simulate_co2(grid, perm, cfg.co2.rate, cfg.co2.duration,
                            cfg.solver, cfg.twophase, plane_z=cfg.co2.plane_z,
                            poro_field=poro, sinks=OutputHooks(on_diagnostics=on_diagnostics))

    report = _run_solver(cfg, grid, solve, fields, out_dir / "co2_last_good.vtk",
                         out_dir / f"co2_diagnostics_{label}.csv")
    if "csv" in cfg.outputs.formats:
        write_timeseries(out_dir / f"co2_leakage_{label}.csv",
                         [(t, {"normalized_flux": v}) for t, v in report.series])
    if "vtk" in cfg.outputs.formats:
        write_snapshot(grid, fields(report.state), report.t,
                       out_dir / f"co2_final_{label}.vtk")
    print(f"co2 assessment ({label}): injected={report.injected_volume:.6e} m^3 "
          f"produced={report.produced_volume:.6e} m^3 "
          f"in-place={report.in_place_volume:.6e} m^3 "
          f"closure={report.volume_closure_error:.3e}")
    print(f"peak normalized leakage flux: {report.peak_flux:.6g} "
          f"({report.steps} steps, {report.newton_iterations} Newton iterations, "
          f"{report.factorizations} factorizations, {report.dt_failures} dt cuts, "
          f"wall time {report.wall_time:.2f} s)")
    return report


def _cmd_run_micp(args) -> int:
    cfg, out_dir, grid = _prepare_run(args)
    _treat(cfg, grid, out_dir)
    return 0


def _cmd_run_co2(args) -> int:
    cfg, out_dir, grid = _prepare_run(args)
    perm, poro, label = grid.perm0, grid.poro0, "untreated"
    if args.perm_from:
        try:
            perm = read_snapshot_field(args.perm_from, "K", grid)
            poro = read_snapshot_field(args.perm_from, "phi", grid)
        except OSError as exc:
            _fail(2, "io", str(exc))
        except MicpSimError as exc:
            _fail(2, "snapshot", str(exc))
        label = "treated"
    _assess(cfg, grid, out_dir, perm, poro, label)
    return 0


def _cmd_study(args) -> int:
    cfg, out_dir, grid = _prepare_run(args)
    final = _treat(cfg, grid, out_dir).state
    untreated = _assess(cfg, grid, out_dir, grid.perm0, grid.poro0, "untreated")
    treated = _assess(cfg, grid, out_dir, permeability_field(grid, cfg.rock, final),
                      porosity_field(grid, final), "treated")
    peak_u, peak_t = untreated.peak_flux, treated.peak_flux
    ratio = peak_t / peak_u if peak_u > 0 else math.nan
    print(f"treated/untreated peak leakage ratio: {ratio:.3e}")
    if "csv" in cfg.outputs.formats:
        write_timeseries(out_dir / "study_summary.csv", [(cfg.co2.duration, {
            "peak_untreated": peak_u, "peak_treated": peak_t, "peak_ratio": ratio})])
    return 0


def _cmd_verify(args) -> int:
    from .grid import DomainSpec, LeakSpec, ReservoirSpec
    from .kinetics import reaction_rates
    from .params import KineticParams, RockLaw

    rng = np.random.default_rng(args.seed)
    rock = RockLaw()
    params = KineticParams()
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"check {name}: {status}{suffix}")
        if not ok:
            failures += 1

    # permeability law exactness
    K_at_phi0 = permeability(rock, rock.phi0)
    K_at_crit = permeability(rock, rock.phi_crit)
    phis = np.linspace(0.0, rock.phi0, 100)
    Ks = permeability(rock, phis)
    check("permeability-law",
          math.isclose(K_at_phi0, rock.K0, rel_tol=1e-14)
          and K_at_crit == rock.K_min * rock.K0 / (rock.K0 + rock.K_min)
          and bool(np.all(np.diff(Ks) >= 0.0)),
          f"K(phi0)/K0-1={K_at_phi0 / rock.K0 - 1.0:.2e}")

    # stoichiometry over random states
    n = 2000
    state = CellChemState(c_m=rng.uniform(0, 0.1, n), c_o=rng.uniform(0, 0.1, n),
                          c_u=rng.uniform(0, 400, n), phi_b=rng.uniform(0, 0.07, n),
                          phi_c=rng.uniform(0, 0.07, n))
    r = reaction_rates(state, params, rock, shear_norm=rng.uniform(0, 1e6, n))
    check("stoichiometry", bool(np.all(r.R_c == -params.Y_uc * r.R_u))
          and bool(np.all(r.R_u <= 0.0)) and bool(np.all(r.R_o <= 0.0)))

    # monod basics
    check("monod", monod(21.3, 21.3) == 0.5 and monod(0.0, 1.0) == 0.0)

    # transmissibility symmetry on a 3-cell grid
    g = build_domain(DomainSpec(nx=3, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0), None,
                     ReservoirSpec(aquifer_height=1.0, caprock_height=0.0,
                                   well_x=0.5), rock)
    ok = True
    for _ in range(50):
        ka, kb = rng.uniform(1e-20, 1e-12, 2)
        ok &= (face_transmissibility(g, np.array([ka, kb, 1e-14]), 0)
               == face_transmissibility(g, np.array([kb, ka, 1e-14]), 0))
    check("transmissibility-symmetry", ok)

    # leak rasterization against a brute-force predicate
    gd = DomainSpec(nx=100, ny=2, nz=60, dx=1.0, dy=10.0, dz=0.5)
    lk = LeakSpec(aperture=2.0, width=10.0, tilt_deg=135.0, perm=2e-14)
    rs = ReservoirSpec(aquifer_height=5.0, caprock_height=20.0, well_x=0.5)
    g3 = build_domain(gd, lk, rs, rock)
    foot = rs.well_x + lk.gap_lower + lk.gap_leak
    count = 0
    for i in range(gd.nx):
        for j in range(gd.ny):
            for k in range(gd.nz):
                x, y, z = (i + 0.5) * gd.dx, (j + 0.5) * gd.dy, (k + 0.5) * gd.dz
                s = ((x - foot) * math.sin(math.radians(135.0))
                     - (z - 5.0) * math.cos(math.radians(135.0)))
                if (5.0 <= z < 25.0 and -1.0 <= s < 1.0
                        and 10.0 - 5.0 <= y < 10.0 + 5.0):
                    count += 1
    check("leak-rasterization", g3.leak_cells.size == count,
          f"{g3.leak_cells.size} cells vs {count} brute-force")

    # batch oracle stoichiometric balance
    start = CellChemState(c_u=300.0, phi_b=0.01)
    out = batch_oracle(start, params, rock, 3600.0, 0.25)
    d_urea = out.c_u * (rock.phi0 - out.phi_b - out.phi_c) - 300.0 * (rock.phi0 - 0.01)
    produced = params.rho_c * out.phi_c
    ok = abs(produced + params.Y_uc * d_urea) / produced < 1e-3
    check("oracle-stoichiometry", ok)

    # closed-cell exchange conservation with detachment active
    p2 = KineticParams(mu=0.0, k_d=0.0)
    st = CellChemState(c_m=0.01, phi_b=0.01)
    out = batch_oracle(st, p2, rock, 3600.0, 0.1, shear_norm=1e5)
    tot0 = 0.01 * (rock.phi0 - 0.01) + p2.rho_b * 0.01
    tot1 = out.c_m * (rock.phi0 - out.phi_b) + p2.rho_b * out.phi_b
    check("exchange-conservation", abs(tot1 - tot0) / tot0 < 1e-10,
          f"rel err {abs(tot1 - tot0) / tot0:.2e}")

    # implicit single-cell step against the explicit oracle
    g1 = build_domain(DomainSpec(nx=1, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0), None,
                      ReservoirSpec(aquifer_height=1.0, caprock_height=0.0,
                                    well_x=0.5, outflow_sides=()), rock)
    st0 = MicpState(p=np.array([1e7]), c_m=np.zeros(1), c_o=np.zeros(1),
                    c_u=np.array([300.0]), phi_b=np.array([0.01]),
                    phi_c=np.zeros(1))
    sys1 = MicpSystem(g1, params, rock)
    settings = SolverSettings()
    s_be = st0
    for _ in range(24):
        s_be, rep = solve_timestep(sys1, s_be, 300.0, WellControl(rate=0.0), settings)
        if not rep.converged:
            break
    ref = batch_oracle(CellChemState(c_u=300.0, phi_b=0.01), params, rock,
                       7200.0, 0.25)
    ok = (rep.converged
          and abs(s_be.phi_c[0] - ref.phi_c) / ref.phi_c < 0.02
          and abs(s_be.c_u[0] - ref.c_u) / 300.0 < 0.02)
    check("implicit-vs-oracle", ok,
          f"phi_c {s_be.phi_c[0]:.5g} vs {ref.phi_c:.5g}")

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="micpsim",
        description="Reservoir sealing by microbially induced calcite "
                    "precipitation, with CO2 leakage assessment.")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run-micp", help="run the sealing treatment")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")

    p_co2 = sub.add_parser("run-co2", help="run the CO2 leakage assessment")
    p_co2.add_argument("config")
    p_co2.add_argument("--perm-from", default=None,
                       help="snapshot file providing the treated K and phi fields")
    p_co2.add_argument("--out", default=None)

    p_study = sub.add_parser(
        "study", help="run the treatment, then the CO2 assessment on the "
                      "untreated and the treated field")
    p_study.add_argument("config")
    p_study.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run the built-in check suite")
    p_ver.add_argument("--seed", type=int, default=0)

    p_pre = sub.add_parser("preset", help="print a preset configuration")
    p_pre.add_argument("name", choices=("ex1", "ex2", "ex3"))

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    handlers = {"run-micp": _cmd_run_micp, "run-co2": _cmd_run_co2,
                "study": _cmd_study, "verify": _cmd_verify,
                "preset": _cmd_preset}
    try:
        return handlers[args.command](args)
    except _Exit as exc:
        return exc.args[0]


if __name__ == "__main__":
    sys.exit(main())
