import gc
import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from micpsim.co2 import (
    NV2,
    TwoPhaseState,
    _eval_twophase,
    _extrapolate,
    _leak_plane,
    _TwoPhaseSystem,
    co2_face_fluxes,
    leakage_flux,
    make_initial_twophase_state,
    simulate_co2,
    solve_twophase_step,
)
from micpsim.errors import ConvergenceError, DomainError, GeometryError
from micpsim.grid import DomainSpec, LeakSpec, ReservoirSpec, build_domain
from micpsim.params import RockLaw, TwoPhaseParams
from micpsim.stepping import OutputHooks, SolverSettings, march

ROCK = RockLaw()
TP = TwoPhaseParams()
P0 = 1.0e7


def line_grid(nx=100):
    domain = DomainSpec(nx=nx, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0)
    res = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0, well_x=0.5)
    return build_domain(domain, None, res, ROCK)


def closed_column(nz=10):
    domain = DomainSpec(nx=1, ny=1, nz=nz, dx=1.0, dy=1.0, dz=1.0)
    res = ReservoirSpec(aquifer_height=float(nz), caprock_height=0.0,
                        well_x=0.5, outflow_sides=())
    return build_domain(domain, None, res, ROCK)


def conduit_grid():
    # 1 x 1 x 4 column: aquifer, two caprock layers with a vertical leak,
    # aquifer on top
    domain = DomainSpec(nx=1, ny=1, nz=4, dx=1.0, dy=1.0, dz=1.0)
    leak = LeakSpec(aperture=1.0, width=1.0, tilt_deg=90.0, perm=2e-14,
                    anchor_x=0.0)
    res = ReservoirSpec(aquifer_height=1.0, caprock_height=2.0, well_x=0.5)
    return build_domain(domain, leak, res, ROCK)


class TestStep:
    def test_no_co2_no_injection_unchanged(self):
        grid = line_grid(nx=20)
        state = make_initial_twophase_state(grid, TP, P0)
        new, rep = solve_twophase_step(grid, grid.perm0, state, 3600.0, 0.0,
                                       SolverSettings(), TP, p_bdry=P0)
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(new.s, state.s)

    def test_saturation_bounds_kept(self):
        grid = line_grid(nx=30)
        state = make_initial_twophase_state(grid, TP, P0)
        for _ in range(20):
            state, rep = solve_twophase_step(grid, grid.perm0, state, 3600.0,
                                             2.31e-4, SolverSettings(), TP,
                                             p_bdry=P0)
            assert rep.converged
            assert np.all(state.s >= 0.0) and np.all(state.s <= 1.0)

    def test_nan_residual_fails_the_step(self):
        grid = line_grid(nx=20)
        state = make_initial_twophase_state(grid, TP, P0)
        state.s[3] = np.nan
        new, rep = solve_twophase_step(grid, grid.perm0, state, 3600.0, 0.0,
                                       SolverSettings(), TP, p_bdry=P0)
        assert not rep.converged
        assert new is state


class TestPredictor:
    """Newton started from the linear extrapolation of the last two states."""

    def test_same_state_in_fewer_iterations(self):
        grid = _leaky_box()
        tol = 1e-8
        settings = SolverSettings(newton_rel_tol=tol)
        states = [make_initial_twophase_state(grid, TP, P0)]
        for _ in range(6):  # a CO2 plume spreading from the well
            new, rep = solve_twophase_step(grid, grid.perm0, states[-1], 3600.0,
                                           1e-5, settings, TP, p_bdry=P0)
            assert rep.converged
            states.append(new)
        plain, rep_plain = solve_twophase_step(grid, grid.perm0, states[-1], 3600.0,
                                               1e-5, settings, TP, p_bdry=P0)
        guess = _extrapolate(states[-2], states[-1], 1.0)
        guessed, rep_guessed = solve_twophase_step(
            grid, grid.perm0, states[-1], 3600.0, 1e-5, settings, TP, p_bdry=P0,
            guess=guess)
        assert plain.s.max() > 0.1
        assert rep_plain.converged and rep_guessed.converged
        assert rep_guessed.iterations < rep_plain.iterations
        assert np.max(np.abs(guessed.s - plain.s)) < tol
        assert np.max(np.abs(guessed.p - plain.p)) < tol * 1e5  # pin scale: 1 bar

    def test_equilibrium_takes_no_iteration(self):
        grid = _leaky_box()
        state = make_initial_twophase_state(grid, TP, P0)
        for guess in (None, state):
            new, rep = solve_twophase_step(grid, grid.perm0, state, 3600.0, 0.0,
                                           SolverSettings(), TP, p_bdry=P0,
                                           guess=guess)
            assert rep.converged and rep.iterations == 0
            assert np.array_equal(new.p, state.p) and np.array_equal(new.s, state.s)

    def test_extrapolation_clips_saturation(self):
        prev = TwoPhaseState(p=np.array([1.0, 2.0]), s=np.array([0.5, 0.9]))
        last = TwoPhaseState(p=np.array([2.0, 2.0]), s=np.array([0.3, 0.95]))
        guess = _extrapolate(prev, last, 2.0)
        assert np.array_equal(guess.p, [4.0, 2.0])
        assert np.array_equal(guess.s, [0.0, 1.0])

    def test_run_needs_fewer_iterations_than_without_guess(self):
        grid = _leaky_box()
        settings = SolverSettings(newton_rel_tol=1e-8)
        rate, T = 1e-5, 5 * 86400.0
        rep = simulate_co2(grid, grid.perm0, rate, T, settings, TP, plane_z=2.0,
                           p_bdry=P0)
        sys = _TwoPhaseSystem(grid, grid.perm0, grid.poro0, TP)
        plain = march(make_initial_twophase_state(grid, TP, P0), [(T, rate)],
                      settings,
                      lambda st, dt, q: solve_twophase_step(
                          grid, grid.perm0, st, dt, q, settings, TP, p_bdry=P0,
                          _sys=sys),
                      lambda *args: {})
        assert rep.steps == plain.steps and rep.dt_failures == plain.dt_failures == 0
        assert rep.newton_iterations < plain.newton_iterations
        assert np.max(np.abs(rep.final_state.s - plain.state.s)) < 1e-6


class TestCarriedFactorization:
    """A run hands each converged step's factorization to the next step."""

    def test_failed_step_leaves_no_factorization(self):
        grid = _leaky_box()
        sys = _TwoPhaseSystem(grid, grid.perm0, grid.poro0, TP)
        state = make_initial_twophase_state(grid, TP, P0)
        _, rep = solve_twophase_step(grid, grid.perm0, state, 3600.0, 1e-5,
                                     SolverSettings(), TP, p_bdry=P0, _sys=sys)
        assert rep.converged and rep.factorizations > 0 and sys.lu is not None
        state.s[3] = np.nan
        new, rep = solve_twophase_step(grid, grid.perm0, state, 3600.0, 1e-5,
                                       SolverSettings(), TP, p_bdry=P0, _sys=sys)
        assert not rep.converged and new is state
        assert rep.factorizations == 0
        assert sys.lu is None

    def test_run_factors_less_than_cold_started_solves(self):
        grid = _leaky_box()
        settings = SolverSettings(newton_rel_tol=1e-8)
        rate, T = 1e-5, 5 * 86400.0
        times = []
        rep = simulate_co2(grid, grid.perm0, rate, T, settings, TP, plane_z=2.0,
                           p_bdry=P0, sinks=OutputHooks(
                               on_diagnostics=lambda t, info: times.append(t)))
        # the same predictor, but no system kept from step to step
        start = make_initial_twophase_state(grid, TP, P0)
        prev, last, dt_last = None, start, 0.0
        cold_times, cold_factors = [], []

        def step(st, dt, q):
            guess = None if prev is None else _extrapolate(prev, last, dt / dt_last)
            return solve_twophase_step(grid, grid.perm0, st, dt, q, settings, TP,
                                       p_bdry=P0, guess=guess)

        def accept(t, dt, st, r, q):
            nonlocal prev, last, dt_last
            prev, last, dt_last = last, st, dt
            cold_times.append(t)
            cold_factors.append(r.factorizations)
            return {}

        cold = march(start, [(T, rate)], settings, step, accept)
        assert times == cold_times
        assert rep.dt_failures == cold.dt_failures == 0
        assert 0 < rep.factorizations < sum(cold_factors)
        assert np.max(np.abs(rep.final_state.s - cold.state.s)) < 1e-6


class TestFrontPosition:
    def test_volume_balance_front(self):
        # unit mobility ratio: linear kr with equal viscosities makes the
        # front a contact wave at V_injected / (phi A)
        grid = line_grid(nx=100)
        params = TwoPhaseParams(mu_co2=TP.mu_w)
        rate, T = 2.31e-4, 32468.0
        settings = SolverSettings(dt_init=2000.0, dt_max=2000.0)
        rep = simulate_co2(grid, grid.perm0, rate, T, settings, params,
                           p_bdry=P0)
        s = rep.final_state.s
        x = grid.centers[:, 0]
        crossing = np.interp(0.5, s[::-1], x[::-1])
        expected = rate * T / (ROCK.phi0 * 1.0)
        assert abs(crossing - expected) / expected < 0.05
        assert rep.volume_closure_error < 1e-6


class TestBuoyancy:
    def test_co2_center_of_mass_rises(self):
        grid = closed_column()
        state = make_initial_twophase_state(grid, TP, P0)
        state.s[:] = 0.5
        z = grid.centers[:, 2]
        settings = SolverSettings(dt_init=3600.0, dt_max=3600.0)
        com = [float(np.sum(state.s * z) / np.sum(state.s))]
        for _ in range(25):
            state, rep = solve_twophase_step(grid, grid.perm0, state, 3600.0,
                                             0.0, settings, TP, p_bdry=P0)
            assert rep.converged
            assert np.all(state.s >= 0.0) and np.all(state.s <= 1.0)
            com.append(float(np.sum(state.s * z) / np.sum(state.s)))
        diffs = np.diff(np.array(com))
        assert np.all(diffs > 0.0)


class TestLeakageFlux:
    def test_zero_co2_gives_zero(self):
        grid = conduit_grid()
        state = make_initial_twophase_state(grid, TP, P0)
        assert leakage_flux(grid, state, 1.0, 2.31e-4, grid.perm0, TP) == 0.0

    def test_steady_conduit_normalization(self):
        grid = conduit_grid()
        Q = 2.31e-4
        # all-CO2 column with pressures chosen so each vertical face
        # carries exactly Q upward
        z = grid.centers[:, 2]
        p = np.empty(grid.n_active)
        p[0] = 2.0e7
        order = np.argsort(z)
        assert np.array_equal(order, np.arange(4))
        lam = 1.0 / TP.mu_co2
        for k in range(1, 4):
            face = None
            for f in range(grid.n_ifaces):
                a, b = grid.iface_cells[f]
                if {int(a), int(b)} == {k - 1, k}:
                    face = f
            perm = grid.perm0
            T = grid.iface_area[face] / (grid.iface_d[face, 0] / perm[k - 1]
                                         + grid.iface_d[face, 1] / perm[k])
            dz = 1.0
            p[k] = p[k - 1] - TP.rho_co2 * 9.81 * dz - Q / (T * lam)
        state = TwoPhaseState(p=p, s=np.ones(4))
        flux = leakage_flux(grid, state, 1.0, Q, grid.perm0, TP)
        assert flux == pytest.approx(1.0, rel=1e-12)
        # the same flux crosses the mid-caprock plane
        flux2 = leakage_flux(grid, state, 2.0, Q, grid.perm0, TP)
        assert flux2 == pytest.approx(1.0, rel=1e-12)

    def test_run_plane_gives_the_same_bits(self):
        grid = _leaky_box()
        rep = simulate_co2(grid, grid.perm0, 1e-5, 86400.0, SolverSettings(), TP,
                           plane_z=2.0, p_bdry=P0)
        state = rep.final_state
        sys = _TwoPhaseSystem(grid, grid.perm0, grid.poro0, TP)
        plane = _leak_plane(grid, 2.0, sys.T)
        faces = plane[0]
        every_face = np.sum(np.maximum(
            co2_face_fluxes(grid, grid.perm0, state, TP)[faces], 0.0)) / 1e-5
        alone = leakage_flux(grid, state, 2.0, 1e-5, grid.perm0, TP)
        assert alone > 0.0
        assert alone == every_face
        assert leakage_flux(grid, state, 2.0, 1e-5, grid.perm0, TP,
                            _plane=plane) == alone
        assert rep.series[-1][1] == alone

    def test_plane_outside_domain_raises(self):
        grid = conduit_grid()
        state = make_initial_twophase_state(grid, TP, P0)
        with pytest.raises(GeometryError):
            leakage_flux(grid, state, 99.0, 1e-4, grid.perm0, TP)

    def test_plane_missing_leak_raises(self):
        grid = line_grid(nx=4)
        state = make_initial_twophase_state(grid, TP, P0)
        with pytest.raises(GeometryError):
            leakage_flux(grid, state, 0.5, 1e-4, grid.perm0, TP)

    def test_bad_normalization_raises(self):
        grid = conduit_grid()
        state = make_initial_twophase_state(grid, TP, P0)
        with pytest.raises(DomainError):
            leakage_flux(grid, state, 1.0, 0.0, grid.perm0, TP)


class TestSimulateCo2:
    def test_zero_duration_empty_series(self):
        grid = conduit_grid()
        rep = simulate_co2(grid, grid.perm0, 1e-5, 0.0, SolverSettings(), TP,
                           p_bdry=P0)
        assert rep.series == []
        assert rep.injected_volume == 0.0

    def test_volume_ledger_closes(self):
        grid = line_grid(nx=40)
        settings = SolverSettings(newton_rel_tol=1e-10)
        rep = simulate_co2(grid, grid.perm0, 2.31e-4, 40000.0, settings, TP,
                           p_bdry=P0)
        assert rep.volume_closure_error < 1e-6
        assert rep.produced_volume >= 0.0

    def test_monotone_treatment_response(self):
        # a pointwise-lower permeability field must not leak more
        grid = _leaky_box()
        settings = SolverSettings(newton_rel_tol=1e-8)
        rate, T = 1e-5, 10 * 86400.0
        untreated = simulate_co2(grid, grid.perm0, rate, T, settings, TP,
                                 plane_z=2.0, p_bdry=P0)
        treated_perm = grid.perm0.copy()
        treated_perm[grid.leak_cells] *= 0.05
        treated = simulate_co2(grid, treated_perm, rate, T, settings, TP,
                               plane_z=2.0, p_bdry=P0)
        cum_untreated = _cumulative(untreated.series)
        cum_treated = _cumulative(treated.series)
        assert cum_treated <= cum_untreated
        assert untreated.peak_flux > 0.0

    def test_diagnostics_once_per_accepted_step(self):
        grid = _leaky_box()
        records = []
        hooks = OutputHooks(on_diagnostics=lambda t, info: records.append((t, info)))
        rep = simulate_co2(grid, grid.perm0, 1e-5, 86400.0, SolverSettings(), TP,
                           plane_z=2.0, p_bdry=P0, sinks=hooks)
        assert rep.steps > 1
        assert len(records) == rep.steps
        assert [t for t, _ in records] == [t for t, _ in rep.series]
        assert [info["leak_flux"] for _, info in records] == [v for _, v in rep.series]
        assert sum(info["dt"] for _, info in records) == pytest.approx(86400.0)
        assert sum(info["newton_iterations"] for _, info in records) == rep.newton_iterations

    def test_hard_failure_carries_last_good_state(self):
        grid = line_grid(nx=20)
        settings = SolverSettings(newton_max_iter=1, dt_init=3600.0,
                                  dt_min=3600.0, dt_max=3600.0)
        with pytest.raises(ConvergenceError) as exc_info:
            simulate_co2(grid, grid.perm0, 2.31e-4, 36000.0, settings, TP,
                         p_bdry=P0)
        last = exc_info.value.last_good_state
        assert isinstance(last, TwoPhaseState)
        assert exc_info.value.last_good_time == 0.0
        assert np.all(last.s == 0.0)


class TestFactor:
    """The Newton matrix factored in the system's fill-reducing order."""

    def test_freed_by_reference_counting_alone(self):
        grid = _leaky_box()
        sys = _TwoPhaseSystem(grid, grid.perm0, grid.poro0, TP)
        state = make_initial_twophase_state(grid, TP, P0)
        J = _newton_matrix(sys, state, state)
        gc.disable()
        try:
            lu = sys.factor(J)
            freed = weakref.ref(lu)
            del lu
            assert freed() is None
        finally:
            gc.enable()

    def test_solves_a_leaky_system_with_co2_in_place(self):
        grid = _leaky_box()
        rep = simulate_co2(grid, grid.perm0, 1e-5, 86400.0, SolverSettings(), TP,
                           plane_z=2.0, p_bdry=P0)
        assert rep.final_state.s.max() > 0.1
        sys = _TwoPhaseSystem(grid, grid.perm0, grid.poro0, TP)
        old = make_initial_twophase_state(grid, TP, P0)
        J = _newton_matrix(sys, rep.final_state, old)
        b = -_eval_twophase(sys, _vector(rep.final_state), old, 3600.0, 1e-5, P0,
                            False)[0]
        x = sys.factor(J).solve(b)
        assert (np.linalg.norm(sys.in_natural_order(J) @ x - b)
                < 1e-12 * np.linalg.norm(b))

    def test_less_fill_than_colamd_at_scale(self, system_at_scale):
        sys, J = system_at_scale
        assert sys.factor(J).lu.nnz < splu(sys.in_natural_order(J)).nnz

    def test_less_fill_than_with_relaxed_supernodes(self, system_at_scale):
        sys, J = system_at_scale
        relaxed = splu(J, permc_spec="NATURAL")  # default relax, panel_size
        assert sys.factor(J).lu.nnz < relaxed.nnz


@pytest.fixture(scope="module")
def system_at_scale():
    """A 40 x 4 x 24 leaky system and its Newton matrix with CO2 in place."""
    domain = DomainSpec(nx=40, ny=4, nz=24, dx=0.5, dy=0.25, dz=0.25)
    leak = LeakSpec(aperture=2.0, width=1.0, tilt_deg=90.0, perm=2e-14,
                    anchor_x=9.0)
    res = ReservoirSpec(aquifer_height=2.0, caprock_height=2.0, well_x=1.0)
    grid = build_domain(domain, leak, res, ROCK)
    rep = simulate_co2(grid, grid.perm0, 1e-5, 86400.0, SolverSettings(), TP,
                       plane_z=2.0, p_bdry=P0)
    sys = _TwoPhaseSystem(grid, grid.perm0, grid.poro0, TP)
    return sys, _newton_matrix(sys, rep.final_state,
                               make_initial_twophase_state(grid, TP, P0))


def _vector(state):
    x = np.empty(NV2 * state.p.size)
    x[0::NV2] = state.p
    x[1::NV2] = state.s
    return x


def _newton_matrix(sys, state, old):
    return _eval_twophase(sys, _vector(state), old, 3600.0, 1e-5, P0, True)[1]


def _leaky_box():
    domain = DomainSpec(nx=10, ny=1, nz=6, dx=2.0, dy=1.0, dz=1.0)
    leak = LeakSpec(aperture=2.0, width=1.0, tilt_deg=90.0, perm=2e-14,
                    anchor_x=9.0)
    res = ReservoirSpec(aquifer_height=2.0, caprock_height=2.0, well_x=1.0)
    return build_domain(domain, leak, res, ROCK)


def _cumulative(series):
    total = 0.0
    t_prev = 0.0
    for t, v in series:
        total += v * (t - t_prev)
        t_prev = t
    return total
