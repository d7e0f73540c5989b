"""Sectioned key-value configuration: parsing, formatting, presets.

The file format is INI-style with case-sensitive keys named after the
conventional parameter symbols (SI units throughout):

    [experiment]   preset = ex1 | ex2 | ex3   (base values; rest overrides)
    [domain]       nx ny nz dx dy dz gz
    [reservoir]    K_A H h well_x well_y outflow
    [leak]         enabled a w theta K_L g_l g_u l anchor_x
    [rock]         phi0 phi_crit eta K0 K_min
    [kinetics]     rho_b rho_c rho_w mu_w k_str k_o k_u mu mu_u k_a k_d F Y Y_uc
    [twophase]     rho_co2 mu_co2 rho_w mu_w co2_rate co2_duration plane_z
    [schedule]     builtin rate c_m c_o c_u p_bdry | period.N ... + phases
    [solver]       newton_rel_tol newton_max_iter dt_init dt_min dt_max
                   dt_grow dt_cut
    [outputs]      out_dir snapshot_cadence formats

Unknown sections or keys are rejected; all problems are reported at once.
``format_config`` writes a fully resolved, canonical file (schedules as
explicit ``period.N = end_s label rate c_m c_o c_u`` lines) that parses
back to an identical configuration.

The three presets reproduce the published experiment setups exactly
(domain sizes, rates, times, Table-1/Table-2 parameters). ex2 is the 2D
slice, modeled with 1 m thickness; its preset grid (0.625 m cells) is
fine enough that the 1 m leak aperture rasterizes into a face-connected
band.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace

from .errors import ConfigError, DomainError, MicpSimError
from .grid import SIDES, DomainSpec, LeakSpec, ReservoirSpec
from .params import KineticParams, RockLaw, TwoPhaseParams
from .schedule import (
    DEFAULT_BOUNDARY_PRESSURE,
    INJECTED_MICROBES,
    INJECTED_OXYGEN,
    INJECTED_UREA,
    Period,
    Schedule,
    SlugType,
    builtin_schedule,
)
from .schedule import validate as validate_schedule
from .stepping import SolverSettings


@dataclass(frozen=True)
class Co2RunSpec:
    """Settings of the leakage-assessment run."""

    rate: float = 2.31e-4  # m^3/s
    duration: float = 25 * 86400.0  # s
    plane_z: float | None = None  # None: lower aquifer / caprock interface


@dataclass(frozen=True)
class OutputSettings:
    out_dir: str = "out"
    snapshot_cadence: float = 0.0  # s of simulated time; 0 disables
    formats: tuple[str, ...] = ("vtk", "csv")


@dataclass(frozen=True)
class SimulationConfig:
    domain: DomainSpec
    reservoir: ReservoirSpec
    leak: LeakSpec | None
    rock: RockLaw
    kinetics: KineticParams
    twophase: TwoPhaseParams
    co2: Co2RunSpec
    schedule: Schedule
    solver: SolverSettings
    outputs: OutputSettings


def preset(name: str) -> SimulationConfig:
    """Built-in experiment configuration ex1, ex2 or ex3."""
    rock = RockLaw()
    kinetics = KineticParams()
    twophase = TwoPhaseParams()
    if name == "ex1":
        return SimulationConfig(
            domain=DomainSpec(nx=100, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0),
            reservoir=ReservoirSpec(perm_aquifer=1e-14, aquifer_height=1.0,
                                    caprock_height=0.0, well_x=0.5,
                                    well_y=None, outflow_sides=("x+",)),
            leak=LeakSpec(aperture=5.0, width=1.0, tilt_deg=90.0, perm=2e-14,
                          anchor_x=14.5),
            rock=rock, kinetics=kinetics, twophase=twophase,
            co2=Co2RunSpec(rate=2.31e-4, duration=10 * 86400.0),
            schedule=builtin_schedule("ex1"),
            solver=SolverSettings(), outputs=OutputSettings())
    if name == "ex2":
        return SimulationConfig(
            domain=DomainSpec(nx=160, ny=1, nz=48, dx=0.625, dy=1.0, dz=0.625),
            reservoir=ReservoirSpec(perm_aquifer=1e-14, aquifer_height=5.0,
                                    caprock_height=20.0, well_x=0.3125,
                                    well_y=None, outflow_sides=("x+",)),
            leak=LeakSpec(aperture=1.0, width=1.0, tilt_deg=135.0, perm=2e-14,
                          gap_lower=15.0, gap_upper=5.0, gap_leak=15.0),
            rock=rock, kinetics=kinetics, twophase=twophase,
            co2=Co2RunSpec(rate=2.31e-4, duration=25 * 86400.0),
            schedule=builtin_schedule("ex2"),
            solver=SolverSettings(), outputs=OutputSettings())
    if name == "ex3":
        return SimulationConfig(
            domain=DomainSpec(nx=160, ny=4, nz=48, dx=0.625, dy=5.0, dz=0.625),
            reservoir=ReservoirSpec(perm_aquifer=1e-14, aquifer_height=5.0,
                                    caprock_height=20.0, well_x=0.3125,
                                    well_y=10.0, outflow_sides=("x+",)),
            leak=LeakSpec(aperture=1.0, width=6.0, tilt_deg=135.0, perm=2e-14,
                          gap_lower=15.0, gap_upper=5.0, gap_leak=15.0),
            rock=rock, kinetics=kinetics, twophase=twophase,
            co2=Co2RunSpec(rate=2.31e-4, duration=25 * 86400.0),
            schedule=builtin_schedule("ex3"),
            solver=SolverSettings(), outputs=OutputSettings())
    raise ConfigError([f"unknown preset {name!r}; choose ex1, ex2 or ex3"])


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)  # shortest lossless form
    return str(v)


def format_config(cfg: SimulationConfig) -> str:
    """Canonical text form; parses back to an equal configuration."""
    out = io.StringIO()

    def section(name, pairs):
        out.write(f"[{name}]\n")
        for k, v in pairs:
            out.write(f"{k} = {v}\n")
        out.write("\n")

    d = cfg.domain
    section("domain", [("nx", d.nx), ("ny", d.ny), ("nz", d.nz),
                       ("dx", _fmt(d.dx)), ("dy", _fmt(d.dy)), ("dz", _fmt(d.dz)),
                       ("gz", _fmt(d.gravity[2]))])
    r = cfg.reservoir
    section("reservoir", [("K_A", _fmt(r.perm_aquifer)),
                          ("H", _fmt(r.aquifer_height)),
                          ("h", _fmt(r.caprock_height)),
                          ("well_x", _fmt(r.well_x)),
                          ("well_y", "full" if r.well_y is None else _fmt(r.well_y)),
                          ("outflow", ",".join(r.outflow_sides))])
    if cfg.leak is None:
        section("leak", [("enabled", "false")])
    else:
        lk = cfg.leak
        section("leak", [("enabled", "true"), ("a", _fmt(lk.aperture)),
                         ("w", _fmt(lk.width)), ("theta", _fmt(lk.tilt_deg)),
                         ("K_L", _fmt(lk.perm)), ("g_l", _fmt(lk.gap_lower)),
                         ("g_u", _fmt(lk.gap_upper)), ("l", _fmt(lk.gap_leak)),
                         ("anchor_x", "auto" if lk.anchor_x is None
                          else _fmt(lk.anchor_x))])
    rk = cfg.rock
    section("rock", [("phi0", _fmt(rk.phi0)), ("phi_crit", _fmt(rk.phi_crit)),
                     ("eta", _fmt(rk.eta)), ("K0", _fmt(rk.K0)),
                     ("K_min", _fmt(rk.K_min))])
    kp = cfg.kinetics
    section("kinetics", [(k, _fmt(getattr(kp, k))) for k in (
        "rho_b", "rho_c", "rho_w", "mu_w", "k_str", "k_o", "k_u", "mu",
        "mu_u", "k_a", "k_d", "F", "Y", "Y_uc")])
    tp = cfg.twophase
    section("twophase", [("rho_co2", _fmt(tp.rho_co2)),
                         ("mu_co2", _fmt(tp.mu_co2)),
                         ("rho_w", _fmt(tp.rho_w)), ("mu_w", _fmt(tp.mu_w)),
                         ("co2_rate", _fmt(cfg.co2.rate)),
                         ("co2_duration", _fmt(cfg.co2.duration)),
                         ("plane_z", "auto" if cfg.co2.plane_z is None
                          else _fmt(cfg.co2.plane_z))])
    pairs = [("p_bdry", _fmt(cfg.schedule.p_bdry)),
             ("phases", ",".join(str(i) for i in cfg.schedule.phase_starts))]
    for i, p in enumerate(cfg.schedule.periods, start=1):
        pairs.append((f"period.{i}",
                      f"{_fmt(p.end_time)} {p.label.value} {_fmt(p.rate)} "
                      f"{_fmt(p.c_m)} {_fmt(p.c_o)} {_fmt(p.c_u)}"))
    section("schedule", pairs)
    sv = cfg.solver
    section("solver", [(k, _fmt(getattr(sv, k))) for k in (
        "newton_rel_tol", "newton_max_iter", "dt_init", "dt_min", "dt_max",
        "dt_grow", "dt_cut")])
    o = cfg.outputs
    section("outputs", [("out_dir", o.out_dir),
                        ("snapshot_cadence", _fmt(o.snapshot_cadence)),
                        ("formats", ",".join(o.formats))])
    return out.getvalue()


_KNOWN_KEYS = {
    "experiment": {"preset"},
    "domain": {"nx", "ny", "nz", "dx", "dy", "dz", "gz"},
    "reservoir": {"K_A", "H", "h", "well_x", "well_y", "outflow"},
    "leak": {"enabled", "a", "w", "theta", "K_L", "g_l", "g_u", "l", "anchor_x"},
    "rock": {"phi0", "phi_crit", "eta", "K0", "K_min"},
    "kinetics": {"rho_b", "rho_c", "rho_w", "mu_w", "k_str", "k_o", "k_u",
                 "mu", "mu_u", "k_a", "k_d", "F", "Y", "Y_uc"},
    "twophase": {"rho_co2", "mu_co2", "rho_w", "mu_w", "co2_rate",
                 "co2_duration", "plane_z"},
    "schedule": {"builtin", "rate", "c_m", "c_o", "c_u", "p_bdry", "phases"},
    "solver": {"newton_rel_tol", "newton_max_iter", "dt_init", "dt_min",
               "dt_max", "dt_grow", "dt_cut"},
    "outputs": {"out_dir", "snapshot_cadence", "formats"},
}

_LABELS = {t.value: t for t in SlugType}


class _Reader:
    """Typed access to one section with problem collection."""

    def __init__(self, cp, section, problems):
        self.cp = cp
        self.section = section
        self.problems = problems

    def has(self, key):
        return self.cp.has_option(self.section, key)

    def raw(self, key):
        return self.cp.get(self.section, key).strip()

    def floatv(self, key, current):
        if not self.has(key):
            return current
        try:
            return float(self.raw(key))
        except ValueError:
            self.problems.append(f"[{self.section}] {key}: not a number: "
                                 f"{self.raw(key)!r}")
            return current

    def intv(self, key, current):
        if not self.has(key):
            return current
        try:
            return int(self.raw(key))
        except ValueError:
            self.problems.append(f"[{self.section}] {key}: not an integer")
            return current

    def boolv(self, key, current):
        if not self.has(key):
            return current
        v = self.raw(key).lower()
        if v in ("true", "yes", "1", "on"):
            return True
        if v in ("false", "no", "0", "off"):
            return False
        self.problems.append(f"[{self.section}] {key}: not a boolean")
        return current

    def float_or(self, key, sentinel, current):
        if not self.has(key):
            return current
        if self.raw(key).lower() == sentinel:
            return None
        return self.floatv(key, current)


def parse_config(text: str, default_preset: str = "ex1") -> SimulationConfig:
    """Parse configuration text into a fully resolved SimulationConfig.

    Values start from the preset named in [experiment] (or
    ``default_preset``) and are overridden key by key. Every syntax,
    unknown-key and range problem found is raised inside one ConfigError.
    """
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([str(exc).replace("\n", " ")]) from exc

    problems: list[str] = []
    for sec in cp.sections():
        if sec not in _KNOWN_KEYS:
            problems.append(f"unknown section [{sec}]")
            continue
        for key in cp.options(sec):
            if key in _KNOWN_KEYS[sec]:
                continue
            if sec == "schedule" and key.startswith("period."):
                continue
            problems.append(f"unknown key {key!r} in [{sec}]")

    preset_name = default_preset
    if cp.has_option("experiment", "preset"):
        preset_name = cp.get("experiment", "preset").strip()
    try:
        cfg = preset(preset_name)
    except ConfigError as exc:
        raise ConfigError(problems + exc.problems) from exc

    def reader(section):
        return _Reader(cp, section, problems)

    if cp.has_section("domain"):
        r = reader("domain")
        d = cfg.domain
        gz = r.floatv("gz", d.gravity[2])
        cfg = replace(cfg, domain=DomainSpec(
            nx=r.intv("nx", d.nx), ny=r.intv("ny", d.ny), nz=r.intv("nz", d.nz),
            dx=r.floatv("dx", d.dx), dy=r.floatv("dy", d.dy),
            dz=r.floatv("dz", d.dz), gravity=(0.0, 0.0, gz)))

    if cp.has_section("reservoir"):
        r = reader("reservoir")
        rs = cfg.reservoir
        outflow = rs.outflow_sides
        if r.has("outflow"):
            raw = r.raw("outflow")
            outflow = tuple(s.strip() for s in raw.split(",") if s.strip())
            for s in outflow:
                if s not in SIDES:
                    problems.append(f"[reservoir] outflow: unknown side {s!r}")
        cfg = replace(cfg, reservoir=ReservoirSpec(
            perm_aquifer=r.floatv("K_A", rs.perm_aquifer),
            aquifer_height=r.floatv("H", rs.aquifer_height),
            caprock_height=r.floatv("h", rs.caprock_height),
            well_x=r.floatv("well_x", rs.well_x),
            well_y=r.float_or("well_y", "full", rs.well_y),
            outflow_sides=outflow))

    if cp.has_section("leak"):
        r = reader("leak")
        enabled = r.boolv("enabled", cfg.leak is not None)
        if not enabled:
            cfg = replace(cfg, leak=None)
        else:
            lk = cfg.leak if cfg.leak is not None else LeakSpec()
            cfg = replace(cfg, leak=LeakSpec(
                aperture=r.floatv("a", lk.aperture),
                width=r.floatv("w", lk.width),
                tilt_deg=r.floatv("theta", lk.tilt_deg),
                perm=r.floatv("K_L", lk.perm),
                gap_lower=r.floatv("g_l", lk.gap_lower),
                gap_upper=r.floatv("g_u", lk.gap_upper),
                gap_leak=r.floatv("l", lk.gap_leak),
                anchor_x=r.float_or("anchor_x", "auto", lk.anchor_x)))

    if cp.has_section("rock"):
        r = reader("rock")
        rk = cfg.rock
        cfg = replace(cfg, rock=RockLaw(
            phi0=r.floatv("phi0", rk.phi0),
            phi_crit=r.floatv("phi_crit", rk.phi_crit),
            eta=r.floatv("eta", rk.eta), K0=r.floatv("K0", rk.K0),
            K_min=r.floatv("K_min", rk.K_min)))

    if cp.has_section("kinetics"):
        r = reader("kinetics")
        kp = cfg.kinetics
        cfg = replace(cfg, kinetics=KineticParams(
            **{k: r.floatv(k, getattr(kp, k)) for k in _KNOWN_KEYS["kinetics"]}))

    if cp.has_section("twophase"):
        r = reader("twophase")
        tp = cfg.twophase
        cfg = replace(cfg, twophase=TwoPhaseParams(
            rho_co2=r.floatv("rho_co2", tp.rho_co2),
            mu_co2=r.floatv("mu_co2", tp.mu_co2),
            rho_w=r.floatv("rho_w", tp.rho_w), mu_w=r.floatv("mu_w", tp.mu_w)))
        cfg = replace(cfg, co2=Co2RunSpec(
            rate=r.floatv("co2_rate", cfg.co2.rate),
            duration=r.floatv("co2_duration", cfg.co2.duration),
            plane_z=r.float_or("plane_z", "auto", cfg.co2.plane_z)))

    if cp.has_section("schedule"):
        cfg = replace(cfg, schedule=_parse_schedule(cp, cfg.schedule, problems))

    if cp.has_section("solver"):
        r = reader("solver")
        sv = cfg.solver
        cfg = replace(cfg, solver=SolverSettings(
            newton_rel_tol=r.floatv("newton_rel_tol", sv.newton_rel_tol),
            newton_max_iter=r.intv("newton_max_iter", sv.newton_max_iter),
            dt_init=r.floatv("dt_init", sv.dt_init),
            dt_min=r.floatv("dt_min", sv.dt_min),
            dt_max=r.floatv("dt_max", sv.dt_max),
            dt_grow=r.floatv("dt_grow", sv.dt_grow),
            dt_cut=r.floatv("dt_cut", sv.dt_cut)))

    if cp.has_section("outputs"):
        r = reader("outputs")
        o = cfg.outputs
        formats = o.formats
        if r.has("formats"):
            formats = tuple(s.strip() for s in r.raw("formats").split(",") if s.strip())
            for f in formats:
                if f not in ("vtk", "csv"):
                    problems.append(f"[outputs] formats: unknown format {f!r}")
        cfg = replace(cfg, outputs=OutputSettings(
            out_dir=r.raw("out_dir") if r.has("out_dir") else o.out_dir,
            snapshot_cadence=r.floatv("snapshot_cadence", o.snapshot_cadence),
            formats=formats))

    if problems:
        raise ConfigError(problems)
    _validate_config(cfg, problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def _parse_schedule(cp, current: Schedule, problems) -> Schedule:
    r = _Reader(cp, "schedule", problems)
    p_bdry = r.floatv("p_bdry", current.p_bdry)
    period_keys = sorted((k for k in cp.options("schedule") if k.startswith("period.")),
                         key=lambda k: int(k.split(".", 1)[1]))
    has_builtin = r.has("builtin")
    if period_keys and has_builtin:
        problems.append("[schedule] give either builtin or period.* lines, not both")
        return current
    if has_builtin or not period_keys:
        name = r.raw("builtin") if has_builtin else None
        rate = r.floatv("rate", None) if r.has("rate") else None
        conc = (r.floatv("c_m", INJECTED_MICROBES),
                r.floatv("c_o", INJECTED_OXYGEN),
                r.floatv("c_u", INJECTED_UREA))
        if name is None:
            # keep the preset's periods, override only the datum pressure
            return Schedule(periods=current.periods,
                            phase_starts=current.phase_starts, p_bdry=p_bdry)
        try:
            return builtin_schedule(name, rate=rate, conc=conc, p_bdry=p_bdry)
        except DomainError as exc:
            problems.append(f"[schedule] builtin: {exc}")
            return current
    periods = []
    for key in period_keys:
        fields = r.raw(key).split()
        if len(fields) != 6:
            problems.append(f"[schedule] {key}: expected "
                            "'end_s label rate c_m c_o c_u'")
            continue
        end_s, label, rate_s, cm, co, cu = fields
        if label not in _LABELS:
            problems.append(f"[schedule] {key}: unknown label {label!r}")
            continue
        try:
            periods.append(Period(end_time=float(end_s), rate=float(rate_s),
                                  c_m=float(cm), c_o=float(co), c_u=float(cu),
                                  label=_LABELS[label]))
        except ValueError:
            problems.append(f"[schedule] {key}: bad number")
    phases = (0,)
    if r.has("phases"):
        try:
            phases = tuple(int(s) for s in r.raw("phases").split(","))
        except ValueError:
            problems.append("[schedule] phases: expected comma-separated indices")
    sched = Schedule(periods=tuple(periods), phase_starts=phases, p_bdry=p_bdry)
    for msg in validate_schedule(sched):
        problems.append(f"[schedule] {msg}")
    return sched


def _validate_config(cfg: SimulationConfig, problems) -> None:
    checks = (
        (cfg.domain.validate, "domain"),
        (cfg.reservoir.validate, "reservoir"),
        (cfg.rock.validate, "rock"),
        (cfg.kinetics.validate, "kinetics"),
        (cfg.twophase.validate, "twophase"),
        (cfg.solver.validate, "solver"),
    )
    for fn, section in checks:
        try:
            fn()
        except MicpSimError as exc:
            problems.append(f"[{section}] {exc}")
    if cfg.leak is not None:
        try:
            cfg.leak.validate(cfg.domain.ly)
        except MicpSimError as exc:
            problems.append(f"[leak] {exc}")
    if cfg.co2.rate <= 0.0 or cfg.co2.duration < 0.0:
        problems.append("[twophase] co2_rate must be > 0 and co2_duration >= 0")
    for msg in validate_schedule(cfg.schedule):
        problems.append(f"[schedule] {msg}")
