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

One table, ``_KEYS``, ties each key to the ``SimulationConfig`` field it
sets and to the codec that reads and writes its text; parsing, formatting
and the unknown-key check all follow it. Numbers must be finite. Unknown
sections or keys are rejected; all problems are reported at once.

``[schedule]`` without ``period.N`` lines builds the ``builtin`` strategy
(by default the preset's) at the given ``rate`` and injected ``c_m``,
``c_o``, ``c_u``; with ``period.N`` lines those keys are errors, and so
is ``phases`` without them. ``[leak] enabled = false`` drops the leak
after checking the other ``[leak]`` keys given. ``format_config`` writes
a fully resolved, canonical file (schedules as explicit ``period.N =
end_s label rate c_m c_o c_u`` lines) that parses back to an identical
configuration.

The three presets reproduce the published experiment setups exactly
(domain sizes, rates, times, Table-1/Table-2 parameters). ex2 is the 2D
slice, modeled with 1 m thickness; its preset grid (0.625 m cells) is
fine enough that the 1 m leak aperture rasterizes into a face-connected
band.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

from .errors import ConfigError, DomainError, MicpSimError
from .grid import SIDES, DomainSpec, LeakSpec, ReservoirSpec
from .params import KineticParams, RockLaw, TwoPhaseParams
from .schedule import (
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
    if name not in ("ex1", "ex2", "ex3"):
        raise ConfigError([f"unknown preset {name!r}; choose ex1, ex2 or ex3"])
    cfg = SimulationConfig(  # ex2; the other two change it
        domain=DomainSpec(nx=160, ny=1, nz=48, dx=0.625, dy=1.0, dz=0.625),
        reservoir=ReservoirSpec(well_x=0.3125), leak=LeakSpec(width=1.0),
        rock=RockLaw(), kinetics=KineticParams(), twophase=TwoPhaseParams(),
        co2=Co2RunSpec(), schedule=builtin_schedule(name),
        solver=SolverSettings(), outputs=OutputSettings())
    if name == "ex1":
        return replace(
            cfg, domain=DomainSpec(nx=100, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0),
            reservoir=replace(cfg.reservoir, aquifer_height=1.0,
                              caprock_height=0.0, well_x=0.5),
            leak=replace(cfg.leak, aperture=5.0, tilt_deg=90.0, anchor_x=14.5),
            co2=Co2RunSpec(duration=10 * 86400.0))
    if name == "ex3":
        return replace(cfg, domain=replace(cfg.domain, ny=4, dy=5.0),
                       reservoir=replace(cfg.reservoir, well_y=10.0),
                       leak=replace(cfg.leak, width=6.0))
    return cfg


class _Codec(NamedTuple):
    """Reads a key's text, raising ValueError(*problems), and writes it."""

    read: Callable[[str], object]
    write: Callable[[object], str] | None  # None: input only, not written


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("not an integer") from None


def _boolean(text: str) -> bool:
    word = text.lower()
    if word not in ("true", "yes", "1", "on", "false", "no", "0", "off"):
        raise ValueError("not a boolean")
    return word in ("true", "yes", "1", "on")


def _indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError("expected comma-separated indices") from None


def _float_or(word: str) -> _Codec:
    """A finite number, or ``word`` for None."""
    return _Codec(lambda text: None if text.lower() == word else _finite(text),
                  lambda value: word if value is None else repr(value))


def _names(kind: str, allowed) -> _Codec:
    """Comma-separated names, each one of ``allowed``."""
    def read(text):
        names = tuple(s.strip() for s in text.split(",") if s.strip())
        unknown = [s for s in names if s not in allowed]
        if unknown:
            raise ValueError(*(f"unknown {kind} {s!r}" for s in unknown))
        return names
    return _Codec(read, ",".join)


_FLOAT = _Codec(_finite, repr)  # repr: the shortest lossless form
_INT = _Codec(_integer, str)
_STR = _Codec(str, str)
_GZ = _Codec(lambda text: (0.0, 0.0, _finite(text)), lambda g: repr(g[2]))


class _Key(NamedTuple):
    section: str
    key: str
    part: str  # field of SimulationConfig
    field: str | None  # field of that part; None: whether the part is there
    codec: _Codec


def _same_names(section: str, cls) -> list[_Key]:
    """Rows of a section whose keys are the fields of ``cls``."""
    return [_Key(section, f.name, section, f.name,
                 _INT if type(f.default) is int else _FLOAT) for f in fields(cls)]


_KEYS = (
    _Key("experiment", "preset", "experiment", "preset", _Codec(str, None)),
    *(_Key("domain", k, "domain", k, _INT) for k in ("nx", "ny", "nz")),
    *(_Key("domain", k, "domain", k, _FLOAT) for k in ("dx", "dy", "dz")),
    _Key("domain", "gz", "domain", "gravity", _GZ),
    _Key("reservoir", "K_A", "reservoir", "perm_aquifer", _FLOAT),
    _Key("reservoir", "H", "reservoir", "aquifer_height", _FLOAT),
    _Key("reservoir", "h", "reservoir", "caprock_height", _FLOAT),
    _Key("reservoir", "well_x", "reservoir", "well_x", _FLOAT),
    _Key("reservoir", "well_y", "reservoir", "well_y", _float_or("full")),
    _Key("reservoir", "outflow", "reservoir", "outflow_sides", _names("side", SIDES)),
    _Key("leak", "enabled", "leak", None,
         _Codec(_boolean, lambda on: "true" if on else "false")),
    _Key("leak", "a", "leak", "aperture", _FLOAT),
    _Key("leak", "w", "leak", "width", _FLOAT),
    _Key("leak", "theta", "leak", "tilt_deg", _FLOAT),
    _Key("leak", "K_L", "leak", "perm", _FLOAT),
    _Key("leak", "g_l", "leak", "gap_lower", _FLOAT),
    _Key("leak", "g_u", "leak", "gap_upper", _FLOAT),
    _Key("leak", "l", "leak", "gap_leak", _FLOAT),
    _Key("leak", "anchor_x", "leak", "anchor_x", _float_or("auto")),
    *_same_names("rock", RockLaw),
    *_same_names("kinetics", KineticParams),
    *(_Key("twophase", k, "twophase", k, _FLOAT)
      for k in ("rho_co2", "mu_co2", "rho_w", "mu_w")),
    _Key("twophase", "co2_rate", "co2", "rate", _FLOAT),
    _Key("twophase", "co2_duration", "co2", "duration", _FLOAT),
    _Key("twophase", "plane_z", "co2", "plane_z", _float_or("auto")),
    # builtin .. c_u select the built-in strategy; format_config writes
    # the resolved periods instead
    _Key("schedule", "builtin", "schedule", "builtin", _Codec(str, None)),
    *(_Key("schedule", k, "schedule", k, _Codec(_finite, None))
      for k in ("rate", "c_m", "c_o", "c_u")),
    _Key("schedule", "p_bdry", "schedule", "p_bdry", _FLOAT),
    _Key("schedule", "phases", "schedule", "phase_starts",
         _Codec(_indices, lambda starts: ",".join(str(i) for i in starts))),
    *_same_names("solver", SolverSettings),
    _Key("outputs", "out_dir", "outputs", "out_dir", _STR),
    _Key("outputs", "snapshot_cadence", "outputs", "snapshot_cadence", _FLOAT),
    _Key("outputs", "formats", "outputs", "formats", _names("format", ("vtk", "csv"))),
)

_SECTION_KEYS = {section: {row.key for row in rows}
                 for section, rows in itertools.groupby(_KEYS, lambda row: row.section)}


def format_config(cfg: SimulationConfig) -> str:
    """Canonical text form; parses back to an equal configuration."""
    text = ""
    for section, rows in itertools.groupby(_KEYS, lambda row: row.section):
        lines = []
        for row in rows:
            if row.codec.write is None:
                continue
            part = getattr(cfg, row.part)
            if part is None and row.field is not None:
                continue
            value = part is not None if row.field is None else getattr(part, row.field)
            lines.append(f"{row.key} = {row.codec.write(value)}\n")
        if section == "schedule":
            lines += [f"period.{i} = {p.end_time!r} {p.label.value} {p.rate!r} "
                      f"{p.c_m!r} {p.c_o!r} {p.c_u!r}\n"
                      for i, p in enumerate(cfg.schedule.periods, start=1)]
        if lines:
            text += f"[{section}]\n" + "".join(lines) + "\n"
    return text


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
        if sec not in _SECTION_KEYS:
            problems.append(f"unknown section [{sec}]")
            continue
        for key in cp.options(sec):
            if key in _SECTION_KEYS[sec]:
                continue
            if sec == "schedule" and key.startswith("period."):
                continue
            problems.append(f"unknown key {key!r} in [{sec}]")

    given: dict[str, dict] = {}  # part -> {field: value}
    for row in _KEYS:
        if cp.has_option(row.section, row.key):
            raw = cp.get(row.section, row.key).strip()
            try:
                given.setdefault(row.part, {})[row.field] = row.codec.read(raw)
            except ValueError as exc:  # one problem per argument
                problems += [f"[{row.section}] {row.key}: {msg}" for msg in exc.args]

    preset_name = given.pop("experiment", {}).get("preset", default_preset)
    try:
        cfg = preset(preset_name)
    except ConfigError as exc:
        raise ConfigError(problems + exc.problems) from exc

    leak_on = given.get("leak", {}).pop(None, True)
    if not leak_on and not given.get("leak"):  # enabled = false alone
        given.pop("leak", None)
        cfg = replace(cfg, leak=None)
    schedule = given.pop("schedule", {})
    if cp.has_section("schedule"):
        cfg = replace(cfg, schedule=_parse_schedule(
            cp, schedule, preset_name, cfg.schedule, problems))
    cfg = replace(cfg, **{part: replace(getattr(cfg, part), **values)
                          for part, values in given.items()})

    if problems:
        raise ConfigError(problems)
    _validate_config(cfg, problems)
    if problems:
        raise ConfigError(problems)
    # enabled = false with other [leak] keys: they are checked, then dropped
    return cfg if leak_on else replace(cfg, leak=None)


_LABELS = {t.value: t for t in SlugType}


def _parse_schedule(cp, given: dict, preset_name: str, current: Schedule,
                    problems) -> Schedule:
    """[schedule]: the period lines, or else the built-in strategy."""
    p_bdry = given.get("p_bdry", current.p_bdry)
    numbered = []
    for key in cp.options("schedule"):
        if key.startswith("period."):
            try:
                numbered.append((int(key.split(".", 1)[1]), key))
            except ValueError:
                problems.append(f"[schedule] {key}: period number must be an integer")
    if numbered and "builtin" in given:
        problems.append("[schedule] give either builtin or period.* lines, not both")
        return current
    if not numbered:
        if cp.has_option("schedule", "phases"):
            problems.append("[schedule] phases: used only with period.* lines; "
                            "the built-in strategy sets its own phases")
        conc = (given.get("c_m", INJECTED_MICROBES), given.get("c_o", INJECTED_OXYGEN),
                given.get("c_u", INJECTED_UREA))
        try:
            return builtin_schedule(given.get("builtin", preset_name),
                                    rate=given.get("rate"), conc=conc, p_bdry=p_bdry)
        except DomainError as exc:
            problems.append(f"[schedule] builtin: {exc}")
            return current
    problems += [f"[schedule] {key}: not used with period.* lines, "
                 "which give their own rate and concentrations"
                 for key in ("rate", "c_m", "c_o", "c_u") if cp.has_option("schedule", key)]
    periods = []
    for _, key in sorted(numbered):
        words = cp.get("schedule", key).split()
        if len(words) != 6:
            problems.append(f"[schedule] {key}: expected "
                            "'end_s label rate c_m c_o c_u'")
            continue
        end_s, label, *numbers = words
        if label not in _LABELS:
            problems.append(f"[schedule] {key}: unknown label {label!r}")
            continue
        try:
            end_time, rate, c_m, c_o, c_u = map(_finite, (end_s, *numbers))
        except ValueError as exc:
            problems.append(f"[schedule] {key}: bad number ({exc})")
            continue
        periods.append(Period(end_time=end_time, rate=rate, c_m=c_m, c_o=c_o,
                              c_u=c_u, label=_LABELS[label]))
    sched = Schedule(periods=tuple(periods),
                     phase_starts=given.get("phase_starts", (0,)), p_bdry=p_bdry)
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
    if cfg.outputs.snapshot_cadence < 0.0:
        problems.append("[outputs] snapshot_cadence must be >= 0")
    for msg in validate_schedule(cfg.schedule):
        problems.append(f"[schedule] {msg}")
