"""Model parameter sets: fluid/reaction constants and the rock closure laws.

All quantities are SI: kg, m, s, Pa. Field names follow the conventional
symbols used in field-scale urea-hydrolysis models so that configuration
files read like the published parameter tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError


def require_finite(spec, names=None) -> None:
    """Raise DomainError if a field in ``names`` (default all) is neither None nor finite."""
    for name in names or [f.name for f in fields(spec)]:
        value = getattr(spec, name)
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{type(spec).__name__}.{name} must be finite")


@dataclass(frozen=True)
class KineticParams:
    """Fluid properties and reaction/growth constants.

    Defaults are the standard literature values used for field-scale
    numerical studies of microbially induced calcite precipitation.
    """

    rho_b: float = 35.0  # biofilm dry density, kg/m^3
    rho_c: float = 2710.0  # calcite density, kg/m^3
    rho_w: float = 1045.0  # brine density, kg/m^3
    mu_w: float = 2.54e-4  # water viscosity, Pa*s
    k_str: float = 2.6e-10  # shear detachment rate, m/(Pa*s)
    k_o: float = 2e-5  # oxygen half-velocity coefficient, kg/m^3
    k_u: float = 21.3  # urea half-velocity coefficient, kg/m^3
    mu: float = 4.17e-5  # maximum specific growth rate, 1/s
    mu_u: float = 1.61e-2  # maximum urea utilization rate, 1/s
    k_a: float = 8.51e-7  # microbial attachment rate, 1/s
    k_d: float = 3.18e-7  # microbial death rate, 1/s
    F: float = 0.5  # oxygen consumed per substrate used, dimensionless
    Y: float = 0.5  # growth yield coefficient, dimensionless
    Y_uc: float = 1.67  # calcite produced per urea utilized, dimensionless

    def validate(self) -> None:
        positive = ("rho_b", "rho_c", "rho_w", "mu_w", "k_o", "k_u", "F", "Y_uc")
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise DomainError(f"KineticParams.{name} must be > 0")
        nonnegative = ("k_str", "mu", "mu_u", "k_a", "k_d")
        for name in nonnegative:
            if not getattr(self, name) >= 0.0:  # NaN fails too
                raise DomainError(f"KineticParams.{name} must be >= 0")
        if not 0.0 < self.Y <= 1.0:
            raise DomainError("KineticParams.Y must lie in (0, 1]")
        require_finite(self)


@dataclass(frozen=True)
class RockLaw:
    """Porosity/permeability closure for a clogging rock.

    ``K0`` is the reference (clean-rock) permeability the law is anchored
    to; heterogeneous fields pass a per-cell reference instead.
    """

    phi0: float = 0.15  # initial porosity
    phi_crit: float = 0.1  # porosity at which permeability bottoms out
    eta: float = 3.0  # fitting exponent of the power law
    K0: float = 1e-14  # reference permeability, m^2
    K_min: float = 1e-20  # minimum permeability, m^2

    def validate(self) -> None:
        if not 0.0 < self.phi_crit < self.phi0 < 1.0:
            raise DomainError("RockLaw requires 0 < phi_crit < phi0 < 1")
        if not self.eta > 0.0:
            raise DomainError("RockLaw.eta must be > 0")
        if not 0.0 < self.K_min < self.K0:
            raise DomainError("RockLaw requires 0 < K_min < K0")
        require_finite(self)


@dataclass(frozen=True)
class TwoPhaseParams:
    """Constant fluid properties of the immiscible CO2/water system.

    Linear relative permeabilities and zero capillary pressure are built
    into the two-phase solver; only densities and viscosities vary.
    """

    rho_co2: float = 479.0  # kg/m^3
    rho_w: float = 1045.0  # kg/m^3
    mu_co2: float = 3.95e-5  # Pa*s
    mu_w: float = 2.54e-4  # Pa*s

    def validate(self) -> None:
        for name in ("rho_co2", "rho_w", "mu_co2", "mu_w"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"TwoPhaseParams.{name} must be > 0")
        require_finite(self)
