"""Finite-volume simulator for microbially induced calcite precipitation.

Builds structured reservoir grids with leakage paths through a caprock,
runs a fully implicit reactive-transport solver for the sealing treatment,
and assesses the result with an immiscible two-phase CO2/water solver.
"""

from .co2 import (
    Co2Report,
    TwoPhaseState,
    TwoPhaseSystem,
    leak_plane,
    leakage_flux,
    make_initial_twophase_state,
    simulate_co2,
    solve_twophase_step,
)
from .config import SimulationConfig, format_config, parse_config, preset
from .grid import (
    DomainSpec,
    Grid,
    LeakSpec,
    Region,
    ReservoirSpec,
    build_domain,
    face_transmissibility,
    leak_connects_aquifers,
)
from .kinetics import (
    CellChemState,
    ReactionRates,
    batch_oracle,
    effective_porosity,
    monod,
    permeability,
    reaction_rates,
)
from .micp import (
    MicpState,
    MicpSystem,
    RunReport,
    assemble_residual,
    make_initial_state,
    permeability_field,
    porosity_field,
    shear_norm_field,
    simulate_micp,
    solve_timestep,
)
from .params import KineticParams, RockLaw, TwoPhaseParams
from .schedule import (
    Period,
    Schedule,
    SlugType,
    WellControl,
    builtin_schedule,
    control_at,
)
from .stepping import OutputHooks, SolverSettings
from .vtkio import read_snapshot_field, write_snapshot, write_timeseries

__all__ = [
    "CellChemState", "Co2Report", "DomainSpec", "Grid", "KineticParams",
    "LeakSpec", "MicpState", "MicpSystem", "OutputHooks", "Period",
    "ReactionRates", "Region", "ReservoirSpec", "RockLaw", "RunReport",
    "Schedule", "SimulationConfig", "SlugType", "SolverSettings",
    "TwoPhaseParams", "TwoPhaseState", "TwoPhaseSystem", "WellControl",
    "assemble_residual", "batch_oracle", "build_domain", "builtin_schedule",
    "control_at", "effective_porosity", "face_transmissibility", "format_config",
    "leak_connects_aquifers", "leak_plane", "leakage_flux", "make_initial_state",
    "make_initial_twophase_state", "monod", "parse_config", "permeability",
    "permeability_field", "porosity_field", "preset", "reaction_rates",
    "read_snapshot_field", "shear_norm_field", "simulate_co2", "simulate_micp",
    "solve_timestep", "solve_twophase_step", "write_snapshot", "write_timeseries",
]
__version__ = "0.1.0"
