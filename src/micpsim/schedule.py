"""Injection strategies: slug sequencing for the sealing treatment.

A treatment phase is a sequence of up to nine sub-periods: a microbial
slug, a water push and a no-flow rest; a growth (oxygen) slug with its
push and rest; and a cementation (urea) slug with its push and rest.
Later phases may drop the microbial and/or growth triplet, down to a
cementation-only phase. Period end times are absolute seconds from the
start of the treatment; the well control is piecewise constant on
(previous end, end].

Three named strategies are built in:

    ex1 - one full phase at 2.31e-5 m^3/s (1D verification layout)
    ex2 - one full phase at 2.31e-4 m^3/s, slugs ending at
          15, 22, 100, 130, 135, 160, 200, 210, 300 h
    ex3 - five phases at 8.70e-3 m^3/s ending at 800 h; phases III and V
          are cementation-only, phases II and IV growth + cementation

Default injected concentrations: 0.01 kg/m^3 microbes, 0.04 kg/m^3
oxygen, 300 kg/m^3 urea.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

HOUR = 3600.0

INJECTED_MICROBES = 0.01  # kg/m^3
INJECTED_OXYGEN = 0.04  # kg/m^3
INJECTED_UREA = 300.0  # kg/m^3


class SlugType(Enum):
    MICROBIAL = "microbial"
    WATER_PUSH = "water_push"
    NO_FLOW = "no_flow"
    GROWTH = "growth"
    CEMENTATION = "cementation"


@dataclass(frozen=True)
class Period:
    """One sub-period: constant control until its absolute end time."""

    end_time: float  # s from treatment start
    rate: float  # m^3/s
    c_m: float  # injected microbe concentration, kg/m^3
    c_o: float  # injected oxygen concentration, kg/m^3
    c_u: float  # injected urea concentration, kg/m^3
    label: SlugType

    @property
    def control(self) -> WellControl:
        """The well control of the period: its rate and injected concentrations."""
        return WellControl(rate=self.rate, c_m=self.c_m, c_o=self.c_o, c_u=self.c_u)


@dataclass(frozen=True)
class WellControl:
    """Resolved control for one solver step."""

    rate: float = 0.0
    c_m: float = 0.0
    c_o: float = 0.0
    c_u: float = 0.0


@dataclass(frozen=True)
class Schedule:
    """Ordered periods grouped into phases.

    ``phase_starts`` holds the index of the first period of each phase.
    The production boundary's pressure is the reservoir's
    (:class:`micpsim.grid.ReservoirSpec`).
    """

    periods: tuple[Period, ...]
    phase_starts: tuple[int, ...] = (0,)

    @property
    def end_time(self) -> float:
        return self.periods[-1].end_time

    def phase_labels(self) -> list[tuple[SlugType, ...]]:
        bounds = list(self.phase_starts) + [len(self.periods)]
        return [tuple(p.label for p in self.periods[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])]


# Allowed label sequences of one phase: the full nine sub-periods, or the
# same with the microbial and/or growth triplet omitted.
_M = SlugType.MICROBIAL
_W = SlugType.WATER_PUSH
_N = SlugType.NO_FLOW
_G = SlugType.GROWTH
_C = SlugType.CEMENTATION
_FULL_PHASE = (_M, _W, _N, _G, _W, _N, _C, _W, _N)
_PHASE_GRAMMAR = {
    _FULL_PHASE,
    (_G, _W, _N, _C, _W, _N),
    (_C, _W, _N),
    (_M, _W, _N, _C, _W, _N),
}


def control_at(schedule: Schedule, t: float) -> WellControl:
    """Control of the unique period with previous end < t <= end.

    t = 0 maps to the first period. A schedule with no periods, or a t
    outside it, raises DomainError.
    """
    if not schedule.periods:
        raise DomainError("schedule has no periods")
    if t < 0.0 or t > schedule.end_time:
        raise DomainError(f"t = {t} s is outside the schedule [0, {schedule.end_time}]")
    prev_end = 0.0
    for p in schedule.periods:
        if prev_end < t <= p.end_time or (t == 0.0 and prev_end == 0.0):
            return p.control
        prev_end = p.end_time
    raise DomainError(f"t = {t} s not covered by any period")  # pragma: no cover


def well_problems(i: int, p: Period) -> list[str]:
    """What is wrong with period i's well rate and injected concentrations,
    each of which must be finite and >= 0 (NaN fails)."""
    return [f"period {i}: {what}" for holds, what in (
        (0.0 <= p.rate < math.inf, "negative or non-finite rate"),
        (all(0.0 <= c < math.inf for c in (p.c_m, p.c_o, p.c_u)),
         "negative or non-finite injected concentration"),
    ) if not holds]


def validate(schedule: Schedule) -> list[str]:
    """Collect invariant violations; an empty list means the schedule is ok."""
    problems: list[str] = []
    if not schedule.periods:
        return ["schedule has no periods"]
    prev = 0.0
    for i, p in enumerate(schedule.periods):
        if not p.end_time > prev:  # NaN fails too
            problems.append(f"period {i}: non-monotone times "
                            f"({p.end_time} s after {prev} s)")
        prev = p.end_time
        problems += well_problems(i, p)
        if p.label is SlugType.NO_FLOW and p.rate != 0.0:
            problems.append(f"period {i}: no-flow period with nonzero rate")
        if p.label is SlugType.MICROBIAL and not (p.c_m > 0.0 and p.c_u == 0.0):
            problems.append(f"period {i}: urea in microbial slug" if p.c_u > 0.0
                            else f"period {i}: microbial slug without microbes")
        if p.label is SlugType.GROWTH and not (p.c_o > 0.0 and p.c_m == 0.0):
            problems.append(f"period {i}: growth slug must carry oxygen only")
        if p.label is SlugType.CEMENTATION and not (
                p.c_u > 0.0 and p.c_m == 0.0 and p.c_o == 0.0):
            problems.append(f"period {i}: cementation slug must carry urea only")
        if p.label is SlugType.WATER_PUSH and max(p.c_m, p.c_o, p.c_u) > 0.0:
            problems.append(f"period {i}: water push must carry no solutes")

    starts = schedule.phase_starts
    if not starts or starts[0] != 0 or list(starts) != sorted(set(starts)):
        problems.append("phase_starts must begin at 0 and increase")
        return problems
    if max(starts) >= len(schedule.periods):
        problems.append("phase start index beyond the last period")
        return problems
    for n, labels in enumerate(schedule.phase_labels()):
        if n == 0 and labels != _FULL_PHASE:
            problems.append("phase I must contain the full nine sub-periods")
        elif labels not in _PHASE_GRAMMAR:
            problems.append(f"phase {n + 1} labels {tuple(l.value for l in labels)} "
                            "do not follow the slug grammar")
    return problems


def _phase(times_h, labels, rate, conc):
    c_m, c_o, c_u = conc
    slug_conc = {
        _M: (c_m, 0.0, 0.0),
        _G: (0.0, c_o, 0.0),
        _C: (0.0, 0.0, c_u),
        _W: (0.0, 0.0, 0.0),
        _N: (0.0, 0.0, 0.0),
    }
    out = []
    for t_h, label in zip(times_h, labels):
        cm, co, cu = slug_conc[label]
        out.append(Period(end_time=t_h * HOUR,
                          rate=0.0 if label is _N else rate,
                          c_m=cm, c_o=co, c_u=cu, label=label))
    return out


_PHASE_I_TIMES_H = (15.0, 22.0, 100.0, 130.0, 135.0, 160.0, 200.0, 210.0, 300.0)
_EX3_PHASES = (
    (_PHASE_I_TIMES_H, _FULL_PHASE),
    ((330.0, 340.0, 341.0, 371.0, 381.0, 431.0), (_G, _W, _N, _C, _W, _N)),
    ((461.0, 471.0, 571.0), (_C, _W, _N)),
    ((601.0, 611.0, 612.0, 642.0, 652.0, 702.0), (_G, _W, _N, _C, _W, _N)),
    ((732.0, 742.0, 800.0), (_C, _W, _N)),
)

BUILTIN_RATES = {"ex1": 2.31e-5, "ex2": 2.31e-4, "ex3": 8.70e-3}


def builtin_schedule(experiment: str, rate: float | None = None,
                     conc: tuple[float, float, float] | None = None) -> Schedule:
    """One of the three published strategies, optionally re-rated."""
    if experiment not in BUILTIN_RATES:
        raise DomainError(f"unknown experiment {experiment!r}; "
                          f"choose from {sorted(BUILTIN_RATES)}")
    rate = BUILTIN_RATES[experiment] if rate is None else rate
    conc = (INJECTED_MICROBES, INJECTED_OXYGEN, INJECTED_UREA) if conc is None else conc
    if experiment in ("ex1", "ex2"):
        periods = _phase(_PHASE_I_TIMES_H, _FULL_PHASE, rate, conc)
        starts = (0,)
    else:
        periods = []
        starts_list = []
        for times, labels in _EX3_PHASES:
            starts_list.append(len(periods))
            periods.extend(_phase(times, labels, rate, conc))
        starts = tuple(starts_list)
    return Schedule(periods=tuple(periods), phase_starts=starts)
