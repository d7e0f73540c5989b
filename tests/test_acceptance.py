"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line (visible with ``pytest -s``); a failed
assert marks the criterion red. The desk-scale treatment runs coarsen the
published grids; tilted leaks must stay one face-connected band when
rasterized, which on coarse cells requires widening the aperture with the
cell size (cells of ~a/sqrt(2) resolve the published 1 m aperture; the
2.5 m desk cells use 4 m). Ratio- and band-type criteria are insensitive
to this.
"""

import dataclasses
import time

import numpy as np
import pytest

from micpsim.co2 import (
    TwoPhaseSystem,
    make_initial_twophase_state,
    simulate_co2,
    solve_twophase_step,
)
from micpsim.config import preset
from micpsim.grid import build_domain, leak_connects_aquifers
from micpsim.kinetics import CellChemState, batch_oracle, permeability, reaction_rates
from micpsim.micp import (
    MicpState,
    MicpSystem,
    SolverSettings,
    make_initial_state,
    permeability_field,
    porosity_field,
    simulate_micp,
    solve_timestep,
)
from micpsim.params import KineticParams, RockLaw, TwoPhaseParams
from micpsim.schedule import WellControl

PARAMS = KineticParams()
ROCK = RockLaw()
HOUR = 3600.0


def _passed(n, name):
    print(f"[acceptance] criterion {n} ({name}): PASS")


def closed_cell_grid():
    from micpsim.grid import DomainSpec, ReservoirSpec
    domain = DomainSpec(nx=1, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0)
    res = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0, well_x=0.5,
                        outflow_sides=())
    return build_domain(domain, None, res, ROCK)


@pytest.fixture(scope="module")
def ex1_report():
    cfg = preset("ex1")
    grid = build_domain(cfg.domain, cfg.leak, cfg.reservoir, cfg.rock)
    settings = dataclasses.replace(cfg.solver, newton_rel_tol=1e-10)
    start = time.perf_counter()
    report = simulate_micp(grid, cfg.schedule, cfg.kinetics, cfg.rock, settings)
    return grid, report, time.perf_counter() - start


@pytest.fixture(scope="module")
def ex3_results():
    """Desk-scale Example 3: treatment, then untreated and treated CO2 runs."""
    cfg = preset("ex3")
    cfg = dataclasses.replace(
        cfg,
        domain=dataclasses.replace(cfg.domain, nx=40, nz=12, dx=2.5, dz=2.5),
        leak=dataclasses.replace(cfg.leak, aperture=4.0),
    )
    grid = build_domain(cfg.domain, cfg.leak, cfg.reservoir, cfg.rock)
    assert grid.n_active <= 10_000
    assert leak_connects_aquifers(grid)
    start = time.perf_counter()
    micp = simulate_micp(grid, cfg.schedule, cfg.kinetics, cfg.rock,
                         SolverSettings(dt_max=7200.0))
    K_treated = permeability_field(grid, cfg.rock, micp.state)
    phi_treated = porosity_field(grid, micp.state)
    co2_settings = SolverSettings(dt_max=14400.0, newton_rel_tol=1e-10)
    rate, horizon = cfg.co2.rate, 25 * 86400.0
    untreated = simulate_co2(grid, grid.perm0, rate, horizon, co2_settings,
                             cfg.twophase, plane_z=5.0)
    treated = simulate_co2(grid, K_treated, rate, horizon, co2_settings,
                           cfg.twophase, plane_z=5.0, poro_field=phi_treated)
    elapsed = time.perf_counter() - start
    return grid, micp, K_treated, untreated, treated, elapsed


class TestCriterion1KineticsOracle:
    def test_backward_euler_matches_fine_step_oracle(self):
        start = time.perf_counter()
        grid = closed_cell_grid()
        state = MicpState(p=np.array([1e7]), c_m=np.zeros(1), c_o=np.zeros(1),
                          c_u=np.array([300.0]), phi_b=np.array([0.01]),
                          phi_c=np.zeros(1))
        sys = MicpSystem(grid, PARAMS, ROCK)
        settings = SolverSettings()
        control = WellControl(rate=0.0)
        for _ in range(100):  # 100 h at dt = 1 h
            state, rep = solve_timestep(sys, state, HOUR, control, settings)
            assert rep.converged
        oracle = batch_oracle(CellChemState(c_u=300.0, phi_b=0.01), PARAMS,
                              ROCK, 100 * HOUR, 1.0)
        # relative differences; concentrations that decayed to nothing are
        # measured against a floor of 1e-6 x the initial value
        for got, ref, floor in ((state.phi_c[0], oracle.phi_c, 0.0),
                                (state.phi_b[0], oracle.phi_b, 0.0),
                                (state.c_u[0], oracle.c_u, 1e-6 * 300.0)):
            denom = max(abs(ref), floor)
            assert abs(got - ref) / denom < 0.02
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _passed(1, "kinetics oracle equivalence")


class TestCriterion2ConservationLedger:
    def test_example1_ledger_closes(self, ex1_report):
        grid, report, elapsed = ex1_report
        assert grid.n_active == 100
        for name, ledger in report.species.items():
            assert ledger.relative_closure_error < 1e-6, name
        injected_total = sum(L.injected for L in report.species.values())
        clamped_total = sum(report.clamped.values())
        assert clamped_total < 1e-8 * injected_total
        assert elapsed < 60.0
        _passed(2, "conservation ledger on the 1D verification run")


class TestCriterion3PermeabilityLaw:
    def test_exactness_monotonicity_continuity(self):
        K0, Kmin = ROCK.K0, ROCK.K_min
        assert permeability(ROCK, ROCK.phi0) == pytest.approx(K0, rel=4e-16)
        assert permeability(ROCK, ROCK.phi_crit) == Kmin * K0 / (K0 + Kmin)
        sweep = permeability(ROCK, np.linspace(0.0, ROCK.phi0, 100))
        assert np.all(np.diff(sweep) >= 0.0)
        below = permeability(ROCK, ROCK.phi_crit * (1 - 1e-13))
        above = permeability(ROCK, ROCK.phi_crit * (1 + 1e-13))
        assert abs(above - below) / below < 1e-12
        _passed(3, "permeability-law exactness")


class TestCriterion4Stoichiometry:
    def test_identity_over_randomized_states(self):
        rng = np.random.default_rng(20260809)
        n = 10_000
        state = CellChemState(
            c_m=rng.uniform(0.0, 0.1, n), c_o=rng.uniform(0.0, 0.1, n),
            c_u=rng.uniform(0.0, 400.0, n), phi_b=rng.uniform(0.0, 0.074, n),
            phi_c=rng.uniform(0.0, 0.074, n))
        rates = reaction_rates(state, PARAMS, ROCK,
                               shear_norm=rng.uniform(0.0, 1e7, n))
        assert np.all(rates.R_c == -PARAMS.Y_uc * rates.R_u)

    def test_closed_cell_exchange_conservation(self):
        params = KineticParams(mu=0.0, k_d=0.0)
        start = CellChemState(c_m=0.01, phi_b=0.01)
        total0 = 0.01 * (ROCK.phi0 - 0.01) + params.rho_b * 0.01
        out = batch_oracle(start, params, ROCK, 100 * HOUR, 1.0,
                           shear_norm=2.54e5)
        phi_end = ROCK.phi0 - out.phi_b - out.phi_c
        total1 = out.c_m * phi_end + params.rho_b * out.phi_b
        assert abs(total1 - total0) / total0 < 1e-10
        _passed(4, "stoichiometry and exchange antisymmetry")


class TestCriterion5Example2:
    def test_leak_permeability_reduction_band(self):
        start = time.perf_counter()
        cfg = preset("ex2")
        cfg = dataclasses.replace(
            cfg,
            domain=dataclasses.replace(cfg.domain, nx=80, nz=24, dx=1.25,
                                       dz=1.25),
            leak=dataclasses.replace(cfg.leak, aperture=2.0),
        )
        grid = build_domain(cfg.domain, cfg.leak, cfg.reservoir, cfg.rock)
        assert leak_connects_aquifers(grid)
        report = simulate_micp(grid, cfg.schedule, cfg.kinetics, cfg.rock,
                               SolverSettings(dt_max=7200.0))
        K = permeability_field(grid, cfg.rock, report.state)
        ratio = K[grid.leak_cells] / grid.perm0[grid.leak_cells]
        max_reduction = 1.0 - float(ratio.min())
        elapsed = time.perf_counter() - start
        assert 0.20 <= max_reduction <= 0.40, max_reduction
        assert elapsed < 600.0
        _passed(5, f"2D leak treatment, max reduction {max_reduction:.1%}")


class TestCriterion6Example3Sealing:
    def test_untreated_leaks_then_treatment_seals(self, ex3_results):
        grid, micp, K_treated, untreated, treated, elapsed = ex3_results
        times = np.array([t for t, _ in untreated.series])
        fluxes = np.array([v for _, v in untreated.series])
        # starts tight, breaks through, then leaks significantly
        assert fluxes[0] < 1e-6
        assert untreated.peak_flux > 0.01
        breakthrough = times[fluxes > 1e-3]
        assert breakthrough.size > 0
        assert fluxes[-1] > 1e-3
        # sealing: treated peak below 10% of the untreated peak
        assert treated.peak_flux < 0.10 * untreated.peak_flux
        assert elapsed < 1800.0
        _passed(6, f"3D sealing, treated/untreated peak ratio "
                   f"{treated.peak_flux / untreated.peak_flux:.2e}")


class TestCriterion7TwoPhaseSanity:
    def test_volume_balance_and_bounds(self, ex3_results):
        _, _, _, untreated, treated, _ = ex3_results
        assert untreated.volume.relative_closure_error < 1e-6
        assert treated.volume.relative_closure_error < 1e-6
        for rep in (untreated, treated):
            assert np.all(rep.state.s >= 0.0)
            assert np.all(rep.state.s <= 1.0)

    def test_buoyancy_monotonicity(self):
        from micpsim.grid import DomainSpec, ReservoirSpec
        domain = DomainSpec(nx=1, ny=1, nz=10, dx=1.0, dy=1.0, dz=1.0)
        res = ReservoirSpec(aquifer_height=10.0, caprock_height=0.0,
                            well_x=0.5, outflow_sides=())
        grid = build_domain(domain, None, res, ROCK)
        tp = TwoPhaseParams()
        state = make_initial_twophase_state(grid, tp)
        state.s[:] = 0.5
        z = grid.centers[:, 2]
        com = [float(np.sum(state.s * z) / np.sum(state.s))]
        sys = TwoPhaseSystem(grid, grid.perm0, tp)
        settings = SolverSettings(dt_init=HOUR, dt_max=HOUR)
        for _ in range(20):
            state, rep = solve_twophase_step(sys, state, HOUR, 0.0, settings)
            assert rep.converged
            com.append(float(np.sum(state.s * z) / np.sum(state.s)))
        assert np.all(np.diff(np.array(com)) > 0.0)
        _passed(7, "two-phase sanity")


class TestCriterion8MonotoneTreatment:
    def test_lower_permeability_never_leaks_more(self, ex3_results):
        grid, micp, K_treated, untreated, treated, _ = ex3_results
        # the treated field is pointwise at or below the pristine one
        assert np.all(K_treated <= grid.perm0 * (1.0 + 1e-12))

        def cumulative(series):
            total, t_prev = 0.0, 0.0
            for t, v in series:
                total += v * (t - t_prev)
                t_prev = t
            return total

        assert cumulative(treated.series) <= cumulative(untreated.series)
        _passed(8, "monotone treatment response")
