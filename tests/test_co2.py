import gc
import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from micpsim import co2
from micpsim.co2 import (
    NV2,
    TwoPhaseState,
    TwoPhaseSystem,
    _eval_twophase,
    _extrapolate,
    _jacobian_twophase,
    leak_plane,
    leakage_flux,
    make_initial_twophase_state,
    simulate_co2,
    solve_twophase_step,
)
from micpsim.config import preset
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
        state = make_initial_twophase_state(grid, TP)
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        new, rep = solve_twophase_step(sys, state, 3600.0, 0.0, SolverSettings())
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(new.s, state.s)

    def test_saturation_bounds_kept(self):
        grid = line_grid(nx=30)
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        state = make_initial_twophase_state(grid, TP)
        for _ in range(20):
            state, rep = solve_twophase_step(sys, state, 3600.0, 2.31e-4,
                                             SolverSettings())
            assert rep.converged
            assert np.all(state.s >= 0.0) and np.all(state.s <= 1.0)

    def test_nan_residual_fails_the_step(self):
        grid = line_grid(nx=20)
        state = make_initial_twophase_state(grid, TP)
        state.s[3] = np.nan
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        new, rep = solve_twophase_step(sys, state, 3600.0, 0.0, SolverSettings())
        assert not rep.converged
        assert new is state


class TestPredictor:
    """Newton started from the linear extrapolation of the last two states."""

    def test_same_state_in_fewer_iterations(self):
        grid = _leaky_box()
        tol = 1e-8
        settings = SolverSettings(newton_rel_tol=tol)
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        states = [make_initial_twophase_state(grid, TP)]
        for _ in range(6):  # a CO2 plume spreading from the well
            new, rep = solve_twophase_step(sys, states[-1], 3600.0, 1e-5, settings)
            assert rep.converged
            states.append(new)
        plain, rep_plain = solve_twophase_step(sys, states[-1], 3600.0, 1e-5, settings)
        guess = _extrapolate(states[-2], states[-1], 1.0)
        guessed, rep_guessed = solve_twophase_step(sys, states[-1], 3600.0, 1e-5,
                                                   settings, guess=guess)
        assert plain.s.max() > 0.1
        assert rep_plain.converged and rep_guessed.converged
        assert rep_guessed.iterations < rep_plain.iterations
        assert np.max(np.abs(guessed.s - plain.s)) < tol
        assert np.max(np.abs(guessed.p - plain.p)) < tol * 1e5  # pin scale: 1 bar

    def test_equilibrium_takes_no_iteration(self):
        grid = _leaky_box()
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        state = make_initial_twophase_state(grid, TP)
        for guess in (None, state):
            new, rep = solve_twophase_step(sys, state, 3600.0, 0.0, SolverSettings(),
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
        rep = simulate_co2(grid, grid.perm0, rate, T, settings, TP, plane_z=2.0)
        # the same carried factorization, but no predict: every guess is None
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        plain = march(make_initial_twophase_state(grid, TP), [(T, rate)],
                      settings,
                      lambda st, dt, q, guess, carry: solve_twophase_step(
                          sys, st, dt, q, settings, guess, carry),
                      lambda *args: {})
        assert rep.steps == plain.steps and rep.dt_failures == plain.dt_failures == 0
        assert rep.newton_iterations < plain.newton_iterations
        assert np.max(np.abs(rep.state.s - plain.state.s)) < 1e-6


class TestCarriedFactorization:
    """A run hands each converged step's factorization to the next step."""

    def test_failed_step_leaves_no_factorization(self):
        grid = _leaky_box()
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        settings = SolverSettings(dt_init=3600.0)
        attempts = []  # (LU handed in, state returned is the one given, report)

        def step(st, dt, q, guess, carry):
            if len(attempts) == 1:  # the second attempt fails on a NaN saturation
                st = st.copy()
                st.s[3] = np.nan
            handed = carry.lu is not None
            new, rep = solve_twophase_step(sys, st, dt, q, settings, guess, carry)
            attempts.append((handed, new is st, rep))
            return new, rep

        run = march(make_initial_twophase_state(grid, TP), [(3 * 3600.0, 1e-5)],
                    settings, step, lambda *args: {}, predict=_extrapolate)
        (_, _, first), (handed, same, failed), (retry_handed, _, retry) = attempts[:3]
        assert first.converged and first.factorizations > 0
        assert handed and not failed.converged and same
        assert failed.factorizations == 0
        assert not retry_handed and retry.converged
        assert run.dt_failures == 1

    def test_run_factors_less_than_cold_started_solves(self):
        grid = _leaky_box()
        settings = SolverSettings(newton_rel_tol=1e-8)
        rate, T = 1e-5, 5 * 86400.0
        times = []
        rep = simulate_co2(grid, grid.perm0, rate, T, settings, TP, plane_z=2.0,
                           sinks=OutputHooks(on_diagnostics=lambda t, info: times.append(t)))
        # the same predictor, but march's carry not handed to the step
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        cold_times, cold_factors = [], []

        def step(st, dt, q, guess, carry):
            return solve_twophase_step(sys, st, dt, q, settings, guess)

        def accept(t, dt, st, r, q):
            cold_times.append(t)
            cold_factors.append(r.factorizations)
            return {}

        cold = march(make_initial_twophase_state(grid, TP), [(T, rate)], settings,
                     step, accept, predict=_extrapolate)
        assert times == cold_times
        assert rep.dt_failures == cold.dt_failures == 0
        assert 0 < rep.factorizations < sum(cold_factors)
        assert np.max(np.abs(rep.state.s - cold.state.s)) < 1e-6

    def test_no_earlier_factorization_alive_at_a_fresh_one(self, monkeypatch):
        """A step report kept by march does not keep the carried LU alive."""
        grid = _leaky_box()
        real_step, real_splu = co2.solve_twophase_step, co2.splu
        steps = 0  # calls of solve_twophase_step so far
        made = []  # (step, weak reference) of each factorization
        first = {}  # step -> earlier steps' factorizations alive at its first

        class Watched:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return self.lu.solve(b)

        def counted_step(*args, **kwargs):
            nonlocal steps
            steps += 1
            return real_step(*args, **kwargs)

        def watched_splu(*args, **kwargs):
            if steps not in first:
                first[steps] = [s for s, ref in made if s < steps and ref() is not None]
            lu = Watched(real_splu(*args, **kwargs))
            made.append((steps, weakref.ref(lu)))
            return lu

        monkeypatch.setattr(co2, "solve_twophase_step", counted_step)
        monkeypatch.setattr(co2, "splu", watched_splu)
        gc.disable()
        try:
            rep = simulate_co2(grid, grid.perm0, 1e-5, 5 * 86400.0,
                               SolverSettings(newton_rel_tol=1e-8), TP, plane_z=2.0)
        finally:
            gc.enable()
        assert len(first) > 1 and rep.factorizations == len(made)
        assert all(alive == [] for alive in first.values())
        assert rep.factorizations < rep.newton_iterations


class TestFrontPosition:
    def test_volume_balance_front(self):
        # unit mobility ratio: linear kr with equal viscosities makes the
        # front a contact wave at V_injected / (phi A)
        grid = line_grid(nx=100)
        params = TwoPhaseParams(mu_co2=TP.mu_w)
        rate, T = 2.31e-4, 32468.0
        settings = SolverSettings(dt_init=2000.0, dt_max=2000.0)
        rep = simulate_co2(grid, grid.perm0, rate, T, settings, params)
        s = rep.state.s
        x = grid.centers[:, 0]
        crossing = np.interp(0.5, s[::-1], x[::-1])
        expected = rate * T / (ROCK.phi0 * 1.0)
        assert abs(crossing - expected) / expected < 0.05
        assert rep.volume_closure_error < 1e-6


class TestBuoyancy:
    def test_co2_center_of_mass_rises(self):
        grid = closed_column()
        state = make_initial_twophase_state(grid, TP)
        state.s[:] = 0.5
        z = grid.centers[:, 2]
        settings = SolverSettings(dt_init=3600.0, dt_max=3600.0)
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        com = [float(np.sum(state.s * z) / np.sum(state.s))]
        for _ in range(25):
            state, rep = solve_twophase_step(sys, state, 3600.0, 0.0, settings)
            assert rep.converged
            assert np.all(state.s >= 0.0) and np.all(state.s <= 1.0)
            com.append(float(np.sum(state.s * z) / np.sum(state.s)))
        diffs = np.diff(np.array(com))
        assert np.all(diffs > 0.0)


def co2_flux(sys, state):
    """The CO2 flux on every face that the residual holds at ``state``."""
    x = np.empty(NV2 * sys.n)
    x[0::NV2], x[1::NV2] = state.p, state.s
    _, aux = _eval_twophase(sys, x, state, 3600.0, 0.0)
    return aux["Fc"]


class TestLeakageFlux:
    def test_zero_co2_gives_zero(self):
        grid = conduit_grid()
        state = make_initial_twophase_state(grid, TP)
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        assert leakage_flux(leak_plane(sys, 1.0), co2_flux(sys, state), 2.31e-4) == 0.0

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
                a, b = grid.face_cells[f]
                if {int(a), int(b)} == {k - 1, k}:
                    face = f
            perm = grid.perm0
            T = grid.face_area[face] / (grid.face_d[face, 0] / perm[k - 1]
                                        + grid.face_d[face, 1] / perm[k])
            dz = 1.0
            p[k] = p[k - 1] - TP.rho_co2 * 9.81 * dz - Q / (T * lam)
        state = TwoPhaseState(p=p, s=np.ones(4))
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        Fc = co2_flux(sys, state)
        flux = leakage_flux(leak_plane(sys, 1.0), Fc, Q)
        assert flux == pytest.approx(1.0, rel=1e-12)
        # the same flux crosses the mid-caprock plane
        flux2 = leakage_flux(leak_plane(sys, 2.0), Fc, Q)
        assert flux2 == pytest.approx(1.0, rel=1e-12)

    def test_run_plane_gives_the_same_bits(self):
        grid = _leaky_box()
        rep = simulate_co2(grid, grid.perm0, 1e-5, 86400.0, SolverSettings(), TP,
                           plane_z=2.0)
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        # a fresh evaluation of the residual's CO2 flux at the final state
        flux = leakage_flux(leak_plane(sys, 2.0), co2_flux(sys, rep.state), 1e-5)
        assert flux > 0.0
        assert rep.series[-1][1] == flux

    def test_plane_outside_domain_raises(self):
        grid = conduit_grid()
        with pytest.raises(GeometryError):
            leak_plane(TwoPhaseSystem(grid, grid.perm0, TP), 99.0)

    def test_plane_missing_leak_raises(self):
        grid = line_grid(nx=4)
        with pytest.raises(GeometryError):
            leak_plane(TwoPhaseSystem(grid, grid.perm0, TP), 0.5)

    @pytest.mark.parametrize("bad", [0.0, -1e-14, np.nan, np.inf])
    def test_bad_permeability_raises(self, bad):
        grid = conduit_grid()
        perm = grid.perm0.copy()
        perm[2] = bad
        with pytest.raises(DomainError,
                           match="perm must be finite and > 0 in active cells"):
            TwoPhaseSystem(grid, perm, TP)

    def test_bad_normalization_raises(self):
        grid = conduit_grid()
        state = make_initial_twophase_state(grid, TP)
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        with pytest.raises(DomainError, match="normalize_by"):
            leakage_flux(leak_plane(sys, 1.0), co2_flux(sys, state), 0.0)


class TestSimulateCo2:
    def test_zero_duration_empty_series(self):
        grid = conduit_grid()
        rep = simulate_co2(grid, grid.perm0, 1e-5, 0.0, SolverSettings(), TP)
        assert rep.series == []
        assert rep.injected_volume == 0.0

    def test_negative_duration_raises(self):
        grid = conduit_grid()
        with pytest.raises(DomainError, match="interval ends"):
            simulate_co2(grid, grid.perm0, 1e-5, -3600.0, SolverSettings(), TP)

    def test_given_plane_on_a_grid_without_leak_raises(self):
        grid = line_grid(nx=4)
        with pytest.raises(GeometryError, match="leak-tagged"):
            simulate_co2(grid, grid.perm0, 1e-5, 3600.0, SolverSettings(), TP,
                         plane_z=0.5)

    @pytest.mark.parametrize("field", ["perm", "poro"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_field_rejected_before_a_step(self, field, bad):
        grid = conduit_grid()
        fields = {"perm": grid.perm0.copy(), "poro": grid.poro0.copy()}
        fields[field][1] = bad
        records = []
        with pytest.raises(DomainError, match=f"{field} must be finite and > 0"):
            simulate_co2(grid, fields["perm"], 1e-5, 3600.0, SolverSettings(), TP,
                         poro_field=fields["poro"],
                         sinks=OutputHooks(on_diagnostics=lambda *rec: records.append(rec)))
        assert records == []

    def test_invalid_params_rejected_before_a_step(self):
        grid = line_grid(nx=10)
        records = []
        with pytest.raises(DomainError, match="TwoPhaseParams.mu_w must be > 0"):
            simulate_co2(grid, grid.perm0, 1e-5, 3600.0, SolverSettings(),
                         TwoPhaseParams(mu_w=0.0),
                         sinks=OutputHooks(on_diagnostics=lambda *rec: records.append(rec)))
        assert records == []

    @pytest.mark.parametrize("bad", ["one cell", "NaN pressure"])
    def test_bad_initial_state_rejected_before_a_step(self, bad):
        grid = line_grid(nx=10)
        state = make_initial_twophase_state(grid, TP)
        if bad == "one cell":
            state = TwoPhaseState(p=state.p[:1], s=state.s[:1])
        else:
            state.p[4] = np.nan
        records = []
        with pytest.raises(DomainError, match="one finite value per active cell"):
            simulate_co2(grid, grid.perm0, 1e-5, 3 * 3600.0, SolverSettings(), TP,
                         initial_state=state,
                         sinks=OutputHooks(on_diagnostics=lambda *rec: records.append(rec)))
        assert records == []

    def test_jacobian_pass_runs_once_per_factorization(self, monkeypatch):
        """Newton builds a Jacobian only for an iterate it factors, never the
        converged one, also while a carried factorization is kept."""
        jacobian, step = co2._jacobian_twophase, co2.solve_twophase_step
        built = []  # iterates the Jacobian pass ran on in the current step
        steps = []  # (those iterates, Newton's result) of each step

        def counted_jacobian(sys, x, dt, aux):
            built.append(x)
            return jacobian(sys, x, dt, aux)

        def watched_step(*args):
            built.clear()
            state, res = step(*args)
            steps.append((list(built), res))
            return state, res

        monkeypatch.setattr(co2, "_jacobian_twophase", counted_jacobian)
        monkeypatch.setattr(co2, "solve_twophase_step", watched_step)
        grid = _leaky_box()
        rep = simulate_co2(grid, grid.perm0, 1e-5, 5 * 86400.0,
                           SolverSettings(newton_rel_tol=1e-8), TP, plane_z=2.0)
        assert len(steps) == rep.steps
        assert 0 < rep.factorizations < rep.newton_iterations
        for iterates, res in steps:
            assert res.converged
            assert len(iterates) == res.factorizations
            assert not any(x is res.x for x in iterates)

    @pytest.mark.parametrize("rate", [1e-5, 0.0])
    def test_volume_closure_counts_co2_in_place_at_the_start(self, rate):
        cfg = preset("ex1")
        grid = build_domain(cfg.domain, cfg.leak, cfg.reservoir, cfg.rock)
        start = make_initial_twophase_state(grid, TP)
        start.s[:10] = 0.3
        rep = simulate_co2(grid, grid.perm0, rate, 86400.0, SolverSettings(), TP,
                           initial_state=start)
        assert rep.initial_volume == pytest.approx(10 * 0.3 * cfg.rock.phi0, rel=1e-12)
        assert rep.in_place_volume > 0.0
        assert rep.volume_closure_error < 1e-9

    def test_datum_shifts_the_pressure_and_nothing_else(self):
        runs = []
        for p_bdry in (P0, 2 * P0):
            grid = _leaky_box(p_bdry)
            runs.append(simulate_co2(grid, grid.perm0, 1e-5, 86400.0, SolverSettings(),
                                     TP, plane_z=2.0))
        low, high = runs
        assert (high.steps, high.newton_iterations) == (low.steps, low.newton_iterations)
        assert np.max(np.abs(high.state.p - low.state.p - P0)) <= 1e-10 * np.max(low.state.p)
        assert np.max(np.abs(high.state.s - low.state.s)) <= 1e-10 * np.max(low.state.s)
        (t_low, f_low), (t_high, f_high) = (np.array(run.series).T for run in runs)
        assert np.array_equal(t_high, t_low)
        assert low.peak_flux > 0.0
        assert np.max(np.abs(f_high - f_low)) <= 1e-10 * low.peak_flux

    def test_volume_ledger_closes(self):
        grid = line_grid(nx=40)
        settings = SolverSettings(newton_rel_tol=1e-10)
        rep = simulate_co2(grid, grid.perm0, 2.31e-4, 40000.0, settings, TP)
        assert rep.volume_closure_error < 1e-6
        assert rep.produced_volume >= 0.0

    def test_monotone_treatment_response(self):
        # a pointwise-lower permeability field must not leak more
        grid = _leaky_box()
        settings = SolverSettings(newton_rel_tol=1e-8)
        rate, T = 1e-5, 10 * 86400.0
        untreated = simulate_co2(grid, grid.perm0, rate, T, settings, TP,
                                 plane_z=2.0)
        treated_perm = grid.perm0.copy()
        treated_perm[grid.leak_cells] *= 0.05
        treated = simulate_co2(grid, treated_perm, rate, T, settings, TP,
                               plane_z=2.0)
        cum_untreated = _cumulative(untreated.series)
        cum_treated = _cumulative(treated.series)
        assert cum_treated <= cum_untreated
        assert untreated.peak_flux > 0.0

    def test_diagnostics_once_per_accepted_step(self):
        grid = _leaky_box()
        records = []
        hooks = OutputHooks(on_diagnostics=lambda t, info: records.append((t, info)))
        rep = simulate_co2(grid, grid.perm0, 1e-5, 86400.0, SolverSettings(), TP,
                           plane_z=2.0, sinks=hooks)
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
            simulate_co2(grid, grid.perm0, 2.31e-4, 36000.0, settings, TP)
        last = exc_info.value.last_good_state
        assert isinstance(last, TwoPhaseState)
        assert exc_info.value.last_good_time == 0.0
        assert np.all(last.s == 0.0)


class TestFactor:
    """The Newton matrix factored in the system's fill-reducing order."""

    def test_freed_by_reference_counting_alone(self):
        grid = _leaky_box()
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        state = make_initial_twophase_state(grid, TP)
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
                           plane_z=2.0)
        assert rep.state.s.max() > 0.1
        sys = TwoPhaseSystem(grid, grid.perm0, TP)
        old = make_initial_twophase_state(grid, TP)
        J = _newton_matrix(sys, rep.state, old)
        b = -_eval_twophase(sys, _vector(rep.state), old, 3600.0, 1e-5)[0]
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
                       plane_z=2.0)
    sys = TwoPhaseSystem(grid, grid.perm0, TP)
    return sys, _newton_matrix(sys, rep.state,
                               make_initial_twophase_state(grid, TP))


def _vector(state):
    x = np.empty(NV2 * state.p.size)
    x[0::NV2] = state.p
    x[1::NV2] = state.s
    return x


def _newton_matrix(sys, state, old):
    x = _vector(state)
    return _jacobian_twophase(sys, x, 3600.0, _eval_twophase(sys, x, old, 3600.0, 1e-5)[1])


def _leaky_box(p_bdry=P0):
    domain = DomainSpec(nx=10, ny=1, nz=6, dx=2.0, dy=1.0, dz=1.0)
    leak = LeakSpec(aperture=2.0, width=1.0, tilt_deg=90.0, perm=2e-14,
                    anchor_x=9.0)
    res = ReservoirSpec(aquifer_height=2.0, caprock_height=2.0, well_x=1.0,
                        p_bdry=p_bdry)
    return build_domain(domain, leak, res, ROCK)


def _cumulative(series):
    total = 0.0
    t_prev = 0.0
    for t, v in series:
        total += v * (t - t_prev)
        t_prev = t
    return total
