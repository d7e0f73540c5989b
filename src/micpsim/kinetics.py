"""Pointwise biogeochemistry of the urea-hydrolysis sealing process.

A cell carries three mobile solutes (suspended microbes m, oxygen o,
urea u, all in kg/m^3 of water) and two immobile volume fractions
(biofilm phi_b, calcite phi_c). The closures implemented here:

    porosity:      phi = phi0 - phi_b - phi_c
    permeability:  K   = [K0*((phi - phi_crit)/(phi0 - phi_crit))^eta + K_min]
                         * K0/(K0 + K_min)        for phi > phi_crit,
                   K   = K_min*K0/(K0 + K_min)    for phi <= phi_crit
    Monod factor:  M(c, k) = c/(k + c)

and the five volumetric reaction terms (kg per m^3 of bulk volume per s):

    R_m = c_m*phi*(Y*mu*M_o - k_d - k_a) + phi_b*rho_b*k_str*phi*s^0.58
    R_o = -(c_m*phi + rho_b*phi_b)*F*mu*M_o
    R_u = -rho_b*phi_b*mu_u*M_u
    R_c =  rho_b*phi_b*Y_uc*mu_u*M_u            (= -Y_uc*R_u, production)
    R_b =  rho_b*phi_b*(Y*mu*M_o - k_d - R_c/(rho_c*(phi0 - phi_c))
                        - k_str*phi*s^0.58) + c_m*phi*k_a

where s is the norm of the water driving force, ||grad p_w - rho_w g||.
Calcite is a produced phase: R_c carries a positive sign so that the
biofilm-to-calcite conversion term in R_b and the urea consumption R_u
stay mutually consistent (R_c = -Y_uc*R_u holds identically).

The rate laws are written once, in :func:`_rates`, and differentiated
by complex step (:func:`_rate_jacobian`). All functions accept scalars
or numpy arrays; the batch oracle at the bottom is a deliberately
independent plain-float implementation used to cross-check the implicit
solver and the partials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantError, OracleError
from .params import KineticParams, RockLaw

DETACHMENT_EXPONENT = 0.58

# Slack, relative to phi0, tolerated when checking volume-fraction sums.
_EPS = 1e-12


@dataclass(frozen=True)
class CellChemState:
    """Chemical state of one cell (or arrays of cells)."""

    c_m: float | np.ndarray = 0.0  # suspended microbes, kg/m^3
    c_o: float | np.ndarray = 0.0  # oxygen, kg/m^3
    c_u: float | np.ndarray = 0.0  # urea, kg/m^3
    phi_b: float | np.ndarray = 0.0  # biofilm volume fraction
    phi_c: float | np.ndarray = 0.0  # calcite volume fraction

    def validate(self, rock: RockLaw) -> None:
        for name in ("c_m", "c_o", "c_u", "phi_b", "phi_c"):
            if np.any(np.asarray(getattr(self, name)) < 0.0):
                raise InvariantError(f"CellChemState.{name} must be >= 0")
        if np.any(np.asarray(self.phi_b) + np.asarray(self.phi_c) > rock.phi0 * (1.0 + _EPS)):
            raise InvariantError("phi_b + phi_c exceeds the initial porosity phi0")


@dataclass(frozen=True)
class ReactionRates:
    """Volumetric reaction terms, kg/(m^3 bulk * s)."""

    R_m: float | np.ndarray
    R_o: float | np.ndarray
    R_u: float | np.ndarray
    R_b: float | np.ndarray
    R_c: float | np.ndarray


def effective_porosity(rock: RockLaw, phi_b, phi_c):
    """Porosity left after biofilm and calcite filled part of the pores."""
    phi_b = np.asarray(phi_b, dtype=float)
    phi_c = np.asarray(phi_c, dtype=float)
    if np.any(phi_b < 0.0) or np.any(phi_c < 0.0):
        raise InvariantError("volume fractions must be >= 0")
    if np.any(phi_b + phi_c > rock.phi0 * (1.0 + _EPS)):
        raise InvariantError("phi_b + phi_c exceeds phi0")
    phi = rock.phi0 - phi_b - phi_c
    return np.maximum(phi, 0.0)[()]


def permeability(rock: RockLaw, phi, K0=None):
    """Permeability of partially clogged rock, m^2.

    ``K0`` overrides the law's reference permeability; pass the per-cell
    initial field for heterogeneous grids (leak vs. aquifer).
    """
    phi = np.asarray(phi, dtype=float)
    if np.any(phi < -_EPS) or np.any(phi > rock.phi0 * (1.0 + _EPS)):
        raise DomainError("phi outside [0, phi0]")
    K0 = rock.K0 if K0 is None else np.asarray(K0, dtype=float)
    x = (phi - rock.phi_crit) / (rock.phi0 - rock.phi_crit)
    bracket = K0 * np.maximum(x, 0.0) ** rock.eta + rock.K_min
    return (bracket * K0 / (K0 + rock.K_min))[()]


def permeability_derivative(rock: RockLaw, phi, K0=None):
    """dK/dphi of :func:`permeability`; zero at and below phi_crit."""
    phi = np.asarray(phi, dtype=float)
    K0 = rock.K0 if K0 is None else np.asarray(K0, dtype=float)
    span = rock.phi0 - rock.phi_crit
    x = (phi - rock.phi_crit) / span
    slope = K0 * rock.eta / span * np.maximum(x, 0.0) ** (rock.eta - 1.0)
    return np.where(phi > rock.phi_crit, slope * K0 / (K0 + rock.K_min), 0.0)[()]


def monod(c, k_half):
    """Saturation factor c/(k_half + c) in [0, 1)."""
    c = np.asarray(c, dtype=float)
    if np.any(c < 0.0):
        raise DomainError("concentration must be >= 0")
    if np.any(np.asarray(k_half) <= 0.0):
        raise DomainError("half-velocity coefficient must be > 0")
    return (c / (k_half + c))[()]


def reaction_rates(state: CellChemState, params: KineticParams, rock: RockLaw,
                   shear_norm=0.0) -> ReactionRates:
    """All five reaction terms for a valid state.

    ``shear_norm`` is ||grad p_w - rho_w g|| in Pa/m, evaluated at the cell.
    """
    state.validate(rock)
    if np.any(np.asarray(shear_norm) < 0.0):
        raise DomainError("shear_norm must be >= 0")
    if np.any(np.asarray(state.phi_c) >= rock.phi0):
        raise DomainError("phi_c >= phi0 makes the calcite conversion term singular")
    r = _rates(np.asarray(state.c_m, dtype=float), np.asarray(state.c_o, dtype=float),
               np.asarray(state.c_u, dtype=float), np.asarray(state.phi_b, dtype=float),
               np.asarray(state.phi_c, dtype=float), np.asarray(shear_norm, dtype=float),
               params, rock)
    return ReactionRates(*(v[()] for v in r))


def _rates(m, o, u, b, c, shear, params: KineticParams, rock: RockLaw):
    """Core rate evaluation; inputs assumed clipped/valid. Complex-analytic
    in (m, o, u, b, c) for :func:`_rate_jacobian`: no abs, comparison or
    real cast on them."""
    p = params
    phi = rock.phi0 - b - c
    M_o = o / (p.k_o + o)
    M_u = u / (p.k_u + u)
    growth = p.Y * p.mu * M_o
    sp = np.asarray(shear, dtype=float) ** DETACHMENT_EXPONENT
    det = p.k_str * phi * sp  # specific detachment rate, 1/s

    R_m = m * phi * (growth - p.k_d - p.k_a) + p.rho_b * b * det
    R_o = -(m * phi + p.rho_b * b) * p.F * p.mu * M_o
    R_u = -p.rho_b * b * p.mu_u * M_u
    R_c = -p.Y_uc * R_u
    # Biofilm-to-calcite conversion, 1/s. The denominator is floored to keep
    # mid-Newton iterates finite; valid states never reach phi_c = phi0.
    conv = R_c / (p.rho_c * np.maximum(rock.phi0 - c, 1e-12 * rock.phi0))
    R_b = p.rho_b * b * (growth - p.k_d - conv - det) + m * phi * p.k_a
    return R_m, R_o, R_u, R_b, R_c


def _rate_jacobian(m, o, u, b, c, shear, params: KineticParams, rock: RockLaw):
    """Partials (*shape, 5, 5) of the rates of :func:`_rates` by (m, o, u, b, c).

    Column k is Im R(x + i h e_k) / h with h = 1e-30 (Squire & Trapp 1998),
    all five from one :func:`_rates` call on a trailing axis: exact to
    roundoff and exactly 0 where a rate does not depend on a variable.
    The shear norm is frozen: its coupling to pressure and, through K, to
    phi_b and phi_c is dropped from the Newton matrix, not the residual.
    """
    h = 1e-30
    x = np.asarray(np.broadcast_arrays(m, o, u, b, c), dtype=float)
    step = 1j * h * np.eye(5).reshape(5, *(1,) * (x.ndim - 1), 5)
    with np.errstate(invalid="ignore"):  # complex arithmetic warns on NaN iterates
        r = _rates(*(x[..., None] + step), np.asarray(shear)[..., None], params, rock)
    return np.stack(r, axis=-2).imag / h


def _oracle_rate_law(params: KineticParams, rock: RockLaw, shear_norm: float):
    """The rate laws of :func:`batch_oracle` as a function of one cell's state,
    in plain arithmetic that shares no code with :func:`_rates`: on complex
    numbers, an independent complex-step reference for :func:`_rate_jacobian`."""
    rho_b, rho_c = params.rho_b, params.rho_c
    k_o, k_u = params.k_o, params.k_u
    mu, mu_u = params.mu, params.mu_u
    k_a, k_d, k_str = params.k_a, params.k_d, params.k_str
    F, Y, Y_uc = params.F, params.Y, params.Y_uc
    phi0 = rock.phi0
    sp = float(shear_norm) ** DETACHMENT_EXPONENT

    def rates(c_m, c_o, c_u, b, c):
        phi = phi0 - b - c
        mon_o = c_o / (k_o + c_o)
        mon_u = c_u / (k_u + c_u)
        growth = Y * mu * mon_o
        det = k_str * phi * sp
        R_m = c_m * phi * (growth - k_d - k_a) + rho_b * b * det
        R_o = -(c_m * phi + rho_b * b) * F * mu * mon_o
        R_u = -rho_b * b * mu_u * mon_u
        R_c = -Y_uc * R_u
        R_b = rho_b * b * (growth - k_d - R_c / (rho_c * (phi0 - c)) - det) + c_m * phi * k_a
        return R_m, R_o, R_u, R_b, R_c

    return rates


def batch_oracle(initial: CellChemState, params: KineticParams, rock: RockLaw,
                 duration: float, dt_fine: float, shear_norm: float = 0.0) -> CellChemState:
    """Fine-step explicit reference for the closed-cell reaction system.

    Integrates the solute masses per bulk volume (m_x = c_x * phi, so that
    dm_x/dt = R_x holds exactly) and the immobile fractions with forward
    Euler, using plain floats and a standalone transcription of the rate
    laws. This is intentionally a second, independent implementation: the
    implicit solver is verified against it, so it must not share code with
    :func:`reaction_rates`.

    ``dt_fine`` must be small enough for explicit stability (~1 s for the
    default parameters). ``shear_norm`` is held constant, which is exact
    for a closed cell with no flow (0) and lets tests exercise detachment.
    """
    if duration < 0.0 or dt_fine <= 0.0:
        raise DomainError("duration must be >= 0 and dt_fine > 0")
    initial.validate(rock)

    rates = _oracle_rate_law(params, rock, shear_norm)
    rho_b, rho_c, phi0 = params.rho_b, params.rho_c, rock.phi0

    b = float(initial.phi_b)
    c = float(initial.phi_c)
    phi = phi0 - b - c
    m_m = float(initial.c_m) * phi
    m_o = float(initial.c_o) * phi
    m_u = float(initial.c_u) * phi

    n_steps = int(duration // dt_fine)
    tail = duration - n_steps * dt_fine
    steps = [dt_fine] * n_steps + ([tail] if tail > 1e-12 * max(dt_fine, 1.0) else [])

    for dt in steps:
        if phi <= 0.0:
            raise OracleError("cell clogged completely; concentrations undefined")
        c_m = m_m / phi
        c_o = m_o / phi
        c_u = m_u / phi
        R_m, R_o, R_u, R_b, R_c = rates(c_m, c_o, c_u, b, c)

        m_m = max(m_m + dt * R_m, 0.0)
        m_o = max(m_o + dt * R_o, 0.0)
        m_u = max(m_u + dt * R_u, 0.0)
        b = min(max(b + dt * R_b / rho_b, 0.0), phi0)
        c = min(c + dt * R_c / rho_c, phi0 - b)
        phi = phi0 - b - c

        # NaN fails every comparison, so this also catches NaN blow-ups.
        if not (m_m < 1e12 and m_o < 1e12 and m_u < 1e12 and b <= 1.0 and c <= 1.0):
            raise OracleError(f"explicit integration unstable at dt_fine={dt_fine}")

    if phi <= 0.0:
        raise OracleError("cell clogged completely; concentrations undefined")
    return CellChemState(c_m=m_m / phi, c_o=m_o / phi, c_u=m_u / phi, phi_b=b, phi_c=c)
