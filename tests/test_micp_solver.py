from dataclasses import replace

import numpy as np
import pytest

import micpsim.micp as micp
from micpsim.config import preset
from micpsim.errors import ConvergenceError, DomainError
from micpsim.grid import DomainSpec, LeakSpec, ReservoirSpec, build_domain
from micpsim.kinetics import CellChemState, batch_oracle
from micpsim.micp import (
    IB,
    IC,
    IM,
    IO,
    IU,
    NVAR,
    MicpState,
    SolverSettings,
    MicpSystem,
    _eval_system,
    _jacobian_system,
    assemble_residual,
    make_initial_state,
    permeability_field,
    porosity_field,
    shear_norm_field,
    simulate_micp,
    solve_timestep,
)
from micpsim.params import KineticParams, RockLaw
from micpsim.schedule import Schedule, WellControl, builtin_schedule
from micpsim.stepping import OutputHooks

ROCK = RockLaw()
PARAMS = KineticParams()
INERT = KineticParams(mu=0.0, mu_u=0.0, k_a=0.0, k_d=0.0, k_str=0.0)
P0 = 1.0e7


def line_grid(nx=20, dx=1.0, leak=None, sides=("x+",)):
    domain = DomainSpec(nx=nx, ny=1, nz=1, dx=dx, dy=1.0, dz=1.0)
    res = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0, well_x=dx / 2,
                        outflow_sides=sides)
    return build_domain(domain, leak, res, ROCK)


def closed_cell_grid():
    domain = DomainSpec(nx=1, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0)
    res = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0, well_x=0.5,
                        outflow_sides=())
    return build_domain(domain, None, res, ROCK)


def example1_grid(nx=100, p_bdry=P0):
    dx = 100.0 / nx
    domain = DomainSpec(nx=nx, ny=1, nz=1, dx=dx, dy=1.0, dz=1.0)
    leak = LeakSpec(aperture=5.0, width=1.0, tilt_deg=90.0, perm=2e-14,
                    anchor_x=15.0 - dx / 2)
    res = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0, well_x=dx / 2,
                        p_bdry=p_bdry)
    return build_domain(domain, leak, res, ROCK)


def steady_flow_state(grid, rate):
    """Inert single long step: pressure relaxes to its steady profile."""
    settings = SolverSettings(dt_init=3600.0, dt_max=3600.0)
    control = WellControl(rate=rate)
    state, rep = solve_timestep(MicpSystem(grid, INERT, ROCK),
                                make_initial_state(grid, INERT), 3600.0, control,
                                settings)
    assert rep.converged
    return state


class TestShearNorm:
    def test_hydrostatic_no_flow_is_zero(self):
        domain = DomainSpec(nx=2, ny=1, nz=5, dx=1.0, dy=1.0, dz=1.0)
        res = ReservoirSpec(aquifer_height=5.0, caprock_height=0.0, well_x=0.5)
        grid = build_domain(domain, None, res, ROCK)
        state = make_initial_state(grid, PARAMS)
        shear = shear_norm_field(MicpSystem(grid, PARAMS, ROCK), state)
        # zero up to float cancellation in p + rho g z (p is ~1e7 Pa, so
        # potential differences carry ~1e-9 Pa of roundoff)
        assert np.all(shear < 1e-8)

    def test_water_at_rest_is_exactly_zero_at_any_datum(self):
        grid = example1_grid(p_bdry=2 * P0)
        shear = shear_norm_field(MicpSystem(grid, PARAMS, ROCK),
                                 make_initial_state(grid, PARAMS))
        assert np.all(shear == 0.0)

    def test_steady_darcy_inversion(self):
        grid = line_grid(nx=20)
        rate = 1e-5  # m^3/s through 1 m^2 -> v = 1e-5 m/s
        state = steady_flow_state(grid, rate)
        shear = shear_norm_field(MicpSystem(grid, INERT, ROCK), state)
        expected = rate * INERT.mu_w / 1e-14  # 2.54e5 Pa/m
        assert expected == pytest.approx(2.54e5, rel=1e-12)
        # interior cells average two equal face fluxes
        assert shear[1:] == pytest.approx(expected, rel=1e-6)
        # the injection cell sees the inflow as a distributed source
        assert shear[0] == pytest.approx(expected / 2, rel=1e-6)

    def test_linearity_in_gradient(self):
        grid = line_grid(nx=20)
        sys = MicpSystem(grid, INERT, ROCK)
        s1 = shear_norm_field(sys, steady_flow_state(grid, 1e-5))
        s2 = shear_norm_field(sys, steady_flow_state(grid, 2e-5))
        assert s2[1:] == pytest.approx(2.0 * s1[1:], rel=1e-6)

    def test_per_axis_sums_match_masked_reference(self):
        domain = DomainSpec(nx=4, ny=3, nz=2, dx=1.1, dy=0.7, dz=0.3)
        res = ReservoirSpec(aquifer_height=0.6, caprock_height=0.0, well_x=0.55,
                            outflow_sides=("x+", "y-"))
        grid = build_domain(domain, None, res, ROCK)
        sys = MicpSystem(grid, PARAMS, ROCK)
        state = make_initial_state(grid, PARAMS)
        state.p += np.random.default_rng(0).uniform(0.0, 1e4, grid.n_active)
        _, aux = _eval_system(sys, state.to_vector(), state, 600.0,
                              WellControl(rate=1e-5))
        # the shear norm summed over boolean masks of each axis's faces; the
        # face list holds the interior faces, then the boundary faces
        n, ni = grid.n_active, grid.n_ifaces
        F, Fb = aux["F"][:ni], aux["F"][ni:]
        assert aux["F"].shape == (ni + grid.bface_cell.size,)
        cells, area = grid.face_cells[:ni], grid.face_area[:ni]
        b_cell, b_area = grid.face_cells[ni:, 0], grid.face_area[ni:]
        b_axis, b_sign = grid.face_axis[ni:], grid.face_sign[ni:]
        v2 = np.zeros(n)
        for axis in range(3):
            fmask = grid.face_axis[:ni] == axis
            vel = np.zeros(n)
            fluxa = F[fmask] / area[fmask]
            vel += np.bincount(cells[fmask, 0], weights=fluxa, minlength=n)
            vel += np.bincount(cells[fmask, 1], weights=fluxa, minlength=n)
            bmask = b_axis == axis
            if np.any(bmask):
                vel += np.bincount(b_cell[bmask],
                                   weights=b_sign[bmask] * Fb[bmask] / b_area[bmask],
                                   minlength=n)
            v2 += (0.5 * vel) ** 2
        assert sorted(set(b_axis)) == [0, 1]
        assert aux["shear"].tobytes() == (np.sqrt(v2) * PARAMS.mu_w / aux["K"]).tobytes()


class TestAssembleResidual:
    def test_steady_no_flow_zero_residual(self):
        grid = line_grid()
        state = make_initial_state(grid, PARAMS)
        r, J = assemble_residual(MicpSystem(grid, PARAMS, ROCK), state, state, 600.0,
                                 WellControl(rate=0.0))
        assert np.all(r == 0.0)
        assert J.shape == (6 * grid.n_active, 6 * grid.n_active)

    def test_linear_pressure_profile(self):
        grid = line_grid(nx=20)
        rate = 2.31e-5
        state = steady_flow_state(grid, rate)
        # uniform K: equal pressure drop across every interior face, half
        # a cell against the boundary; cells sit at z = 0.5 below the datum
        drop = rate * INERT.mu_w * 1.0 / 1e-14
        hydro = INERT.rho_w * 9.81 * 0.5
        expected = P0 - hydro + drop * (np.arange(20)[::-1] + 0.5)
        assert state.p == pytest.approx(expected, rel=1e-10)

    def test_shut_in_single_cell_matches_batch_odes(self):
        grid = closed_cell_grid()
        start = MicpState(p=np.array([P0]), c_m=np.zeros(1), c_o=np.zeros(1),
                          c_u=np.array([300.0]), phi_b=np.array([0.01]),
                          phi_c=np.zeros(1))
        sys = MicpSystem(grid, PARAMS, ROCK)
        settings = SolverSettings(dt_min=1e-3)
        control = WellControl(rate=0.0)
        errs = []
        for dt in (600.0, 300.0):
            state = start.copy()
            t = 0.0
            while t < 1200.0 - 1e-9:
                state, rep = solve_timestep(sys, state, dt, control, settings)
                assert rep.converged
                t += dt
            ref = batch_oracle(CellChemState(c_u=300.0, phi_b=0.01), PARAMS,
                               ROCK, 1200.0, 0.05)
            errs.append(abs(state.phi_c[0] - ref.phi_c))
        # backward Euler is first order: halving dt roughly halves the error
        assert errs[1] < errs[0]
        assert 1.4 < errs[0] / errs[1] < 3.0


def past_clip_iterate():
    """A closed, hydrostatic 3-cell line, its old state and an iterate with
    variables past their clips: (system, x, old, control)."""
    grid = line_grid(nx=3, sides=())  # closed and hydrostatic: no flow
    n = grid.n_active
    p = make_initial_state(grid, PARAMS).p
    old = MicpState(p=p.copy(), c_m=np.full(n, 0.005), c_o=np.full(n, 0.02),
                    c_u=np.full(n, 50.0), phi_b=np.full(n, 0.01),
                    phi_c=np.full(n, 0.02))
    x = MicpState(p=p.copy(), c_m=np.array([0.004, -1e-4, 0.003]),
                  c_o=np.array([-2e-5, 0.01, -3e-3]),
                  c_u=np.array([40.0, -0.5, -2.0]),
                  phi_b=np.array([0.012, -1e-3, -4e-4]),
                  phi_c=np.array([0.021, 0.02, 0.019])).to_vector()
    return MicpSystem(grid, PARAMS, ROCK), x, old, WellControl(rate=0.0)


def flowing_box():
    """A 3 x 2 x 2 box open on x+ and y-, with injection, water leaving
    through some boundary faces and entering through others, and an
    in-bounds iterate: (system, x, old, control)."""
    domain = DomainSpec(nx=3, ny=2, nz=2, dx=1.0, dy=1.0, dz=1.0)
    res = ReservoirSpec(aquifer_height=2.0, caprock_height=0.0, well_x=0.5,
                        outflow_sides=("x+", "y-"))
    grid = build_domain(domain, None, res, ROCK)
    n = grid.n_active
    rng = np.random.default_rng(7)
    x_c, y_c, _ = grid.centers.T
    old = make_initial_state(grid, PARAMS)
    old.c_u[:] = 40.0
    old.phi_b[:] = 0.01
    new = MicpState(p=old.p + 5e3 * (3.0 - x_c) - 2e4 * (y_c < 1.0),
                    c_m=rng.uniform(2e-3, 1e-2, n), c_o=rng.uniform(5e-3, 3e-2, n),
                    c_u=rng.uniform(10.0, 60.0, n), phi_b=rng.uniform(5e-3, 2e-2, n),
                    phi_c=rng.uniform(5e-3, 3e-2, n))
    return (MicpSystem(grid, PARAMS, ROCK), new.to_vector(), old,
            WellControl(rate=1e-5, c_m=0.01, c_u=30.0))


def closed_pinned_cell():
    """One closed cell, its pressure pinned: (system, x, old, control)."""
    state = MicpState(p=np.array([P0 + 1e3]), c_m=np.array([1e-3]),
                      c_o=np.array([0.01]), c_u=np.array([300.0]),
                      phi_b=np.array([0.01]), phi_c=np.array([0.002]))
    return (MicpSystem(closed_cell_grid(), PARAMS, ROCK), state.to_vector(), state,
            WellControl(rate=0.0))


class TestOutOfBoundsJacobian:
    """Columns of out-of-bounds variables are derivatives of the residual."""

    def test_columns_match_finite_differences(self):
        sys, x, old, control = past_clip_iterate()
        n = sys.n
        _, aux = _eval_system(sys, x, old, 600.0, control)
        assert np.all(aux["shear"] == 0.0)
        J = sys.in_natural_order(_jacobian_system(sys, x, 600.0, aux)).toarray()
        checked = 0
        for var in (IM, IO, IU, IB):
            for cell in range(n):
                col = NVAR * cell + var
                if x[col] >= 0.0:
                    continue
                h = 1e-3 * abs(x[col])  # stays out of bounds on both sides
                hi, lo = x.copy(), x.copy()
                hi[col] += h
                lo[col] -= h
                r_hi, _ = _eval_system(sys, hi, old, 600.0, control)
                r_lo, _ = _eval_system(sys, lo, old, 600.0, control)
                fd = (r_hi - r_lo) / (2 * h)
                err = np.max(np.abs(J[:, col] - fd))
                assert err <= 1e-6 * np.max(np.abs(J[:, col])), (var, cell)
                checked += 1
        assert checked == 7


class TestBlockPattern:
    """The block entries micp declares hold every nonzero one it computes."""

    @staticmethod
    def unmasked_blocks(sys, x, old, control, dt=600.0):
        """The cell blocks and the interior faces' blocks, before any gather."""
        handed = []
        sys.jacobian = lambda *args: handed.append(args)
        _jacobian_system(sys, x, dt, _eval_system(sys, x, old, dt, control)[1])
        cell, face_a, face_b, _ = handed[0]
        inner = sys.interior
        return (cell + sys.face_sums(face_a, face_b),
                np.concatenate((face_b[inner], -face_a[inner])))

    @pytest.mark.parametrize("setup", [past_clip_iterate, flowing_box, closed_pinned_cell])
    def test_patterns_cover_every_nonzero_entry(self, setup):
        sys, x, old, control = setup()
        cells, faces = self.unmasked_blocks(sys, x, old, control)
        assert not np.any(cells[:, ~sys.cell_pattern])
        assert not np.any(faces[:, ~sys.face_pattern])

    def test_every_declared_entry_is_reached_in_a_flowing_box(self):
        sys, *rest = flowing_box()
        cells, faces = self.unmasked_blocks(sys, *rest)
        for blocks, pattern, count in ((cells, sys.cell_pattern, 25),
                                       (faces, sys.face_pattern, 15)):
            assert pattern.sum() == count
            assert np.array_equal(np.any(blocks != 0.0, axis=0), pattern)


class TestSolveTimestep:
    def test_zero_rate_zero_kinetics_identity(self):
        grid = line_grid()
        state = make_initial_state(grid, INERT)
        new, rep = solve_timestep(MicpSystem(grid, INERT, ROCK), state, 600.0,
                                  WellControl(rate=0.0), SolverSettings())
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(new.p, state.p)
        assert np.array_equal(new.phi_b, state.phi_b)

    def test_example1_microbial_step_converges(self):
        grid = example1_grid()
        state = make_initial_state(grid, PARAMS)
        control = WellControl(rate=2.31e-5, c_m=0.01)
        new, rep = solve_timestep(MicpSystem(grid, PARAMS, ROCK), state, 3600.0,
                                  control, SolverSettings())
        assert rep.converged
        assert rep.iterations <= 15
        assert new.c_m.max() > 0.0

    def test_residual_below_tolerance_after_solve(self):
        grid = example1_grid(nx=25)
        state = make_initial_state(grid, PARAMS)
        control = WellControl(rate=2.31e-5, c_m=0.01)
        settings = SolverSettings()
        sys = MicpSystem(grid, PARAMS, ROCK)
        new, rep = solve_timestep(sys, state, 1800.0, control, settings)
        assert rep.converged
        assert rep.resid_norm < settings.newton_rel_tol
        r, _ = assemble_residual(sys, new, state, 1800.0, control)
        # pre-clamp converged residual was below tol; clamping moved nothing
        assert np.array_equal(new.to_vector(), rep.x)
        assert np.max(np.abs(r)) < 1e-6

    def test_factors_at_every_iterate(self):
        grid = example1_grid(nx=25)
        state = make_initial_state(grid, PARAMS)
        control = WellControl(rate=2.31e-5, c_m=0.01)
        _, rep = solve_timestep(MicpSystem(grid, PARAMS, ROCK), state, 1800.0, control,
                                SolverSettings())
        assert rep.converged
        assert rep.factorizations == rep.iterations > 0

    def test_nan_residual_fails_the_step(self):
        grid = line_grid()
        state = make_initial_state(grid, PARAMS)
        state.c_u[3] = np.nan
        _, rep = solve_timestep(MicpSystem(grid, PARAMS, ROCK), state, 600.0,
                                WellControl(rate=0.0), SolverSettings())
        assert not rep.converged

    @pytest.mark.parametrize("dt", [0.0, -600.0, np.nan])
    def test_nonpositive_dt_raises(self, dt):
        # a negative dt would converge and run time backwards
        grid = example1_grid()
        state = make_initial_state(grid, PARAMS)
        control = WellControl(rate=2.31e-5, c_m=0.01)
        with pytest.raises(DomainError, match="dt must be > 0"):
            solve_timestep(MicpSystem(grid, PARAMS, ROCK), state, dt, control,
                           SolverSettings())

    def test_nonconvergence_reported_not_raised(self):
        grid = example1_grid(nx=25)
        state = make_initial_state(grid, PARAMS)
        control = WellControl(rate=2.31e-5, c_m=0.01)
        settings = SolverSettings(newton_max_iter=1)
        _, rep = solve_timestep(MicpSystem(grid, PARAMS, ROCK), state, 7200.0, control,
                                settings)
        assert not rep.converged


class TestSimulateMicp:
    def test_empty_schedule_returns_initial(self):
        grid = line_grid()
        schedule = Schedule(periods=())
        report = simulate_micp(grid, schedule, PARAMS, ROCK, SolverSettings())
        assert report.t == 0.0
        assert report.steps == 0
        assert np.all(report.state.phi_c == 0.0)
        assert all(L.injected == 0.0 for L in report.species.values())

    @pytest.mark.parametrize("field, value", [
        ("rate", -2.31e-5), ("rate", np.nan), ("rate", np.inf), ("c_m", -0.01),
        ("c_m", np.nan)])
    def test_bad_period_raises_before_the_first_step(self, field, value):
        # a negative rate withdrew through the well and a NaN one failed
        # every step down to dt_min
        period = replace(builtin_schedule("ex1").periods[0], **{field: value})
        with pytest.raises(DomainError, match="period 0: negative or non-finite"):
            simulate_micp(example1_grid(), Schedule(periods=(period,)), PARAMS, ROCK,
                          SolverSettings())

    def test_example1_quick_run(self):
        grid = example1_grid(nx=25)
        schedule = builtin_schedule("ex1")
        settings = SolverSettings(newton_rel_tol=1e-8, dt_max=14400.0)
        report = simulate_micp(grid, schedule, PARAMS, ROCK, settings)
        assert report.state.phi_c.max() > 0.0
        K = permeability_field(grid, ROCK, report.state)
        assert K.min() < ROCK.K0
        for name, L in report.species.items():
            assert L.relative_closure_error < 1e-6, name
        assert report.min_perm_ratio(grid, ROCK) < 1.0
        # flowing sub-periods total 107 h; injected volume is exact
        flowing_hours = 15 + 7 + 30 + 5 + 40 + 10
        expected = 2.31e-5 * flowing_hours * 3600.0
        assert report.water_injected == pytest.approx(expected, rel=1e-12)
        # Newton at out-of-bounds iterates converges: no dt cut, no clamping
        assert report.dt_failures == 0
        assert sum(report.clamped.values()) == 0.0

    def test_datum_shifts_the_pressure_and_nothing_else(self):
        low, high = (simulate_micp(example1_grid(nx=25, p_bdry=p_bdry),
                                   builtin_schedule("ex1"), PARAMS, ROCK, SolverSettings())
                     for p_bdry in (P0, 2 * P0))
        assert (high.steps, high.newton_iterations) == (low.steps, low.newton_iterations)
        assert np.max(np.abs(high.state.p - low.state.p - P0)) <= 1e-10 * np.max(low.state.p)
        for name in ("c_m", "c_o", "c_u", "phi_b", "phi_c"):
            a, b = getattr(low.state, name), getattr(high.state, name)
            assert np.max(np.abs(b - a)) <= 1e-10 * np.max(np.abs(a)), name

    def test_upwind_monotone_tracer(self):
        # no reactions: an injected microbe slug must stay within
        # [0, injected concentration]
        grid = line_grid(nx=30)
        periods = builtin_schedule("ex1").periods[:3]
        schedule = Schedule(periods=periods)
        report = simulate_micp(grid, schedule, INERT, ROCK, SolverSettings())
        c = report.state.c_m
        assert np.all(c >= -1e-12)
        assert np.all(c <= 0.01 + 1e-9)

    def test_y_symmetry(self):
        domain = DomainSpec(nx=8, ny=4, nz=4, dx=2.0, dy=1.0, dz=1.0)
        leak = LeakSpec(aperture=2.0, width=4.0, tilt_deg=90.0, perm=2e-14,
                        anchor_x=7.0)
        res = ReservoirSpec(aquifer_height=1.0, caprock_height=2.0, well_x=1.0,
                            well_y=None, outflow_sides=("x+",))
        grid = build_domain(domain, leak, res, ROCK)
        periods = builtin_schedule("ex2", rate=1e-5).periods[:2]
        schedule = Schedule(periods=periods)
        report = simulate_micp(grid, schedule, PARAMS, ROCK,
                               SolverSettings(dt_max=14400.0))
        full = grid.full_field(report.state.c_m, fill=np.nan)
        mirrored = full[:, ::-1, :]
        both = np.isfinite(full)
        assert np.allclose(full[both], mirrored[both], rtol=1e-10, atol=1e-18)

    def test_refinement_changes_calcite_mass_little(self):
        totals = []
        for nx in (100, 200):
            grid = example1_grid(nx=nx)
            schedule = builtin_schedule("ex1")
            report = simulate_micp(grid, schedule, PARAMS, ROCK,
                                   SolverSettings(dt_max=14400.0))
            totals.append(float(np.sum(report.state.phi_c * grid.volumes))
                          * PARAMS.rho_c)
        assert abs(totals[1] - totals[0]) / totals[0] < 0.05

    @pytest.mark.parametrize("params, rock, name", [
        (replace(PARAMS, rho_c=-1.0), ROCK, "KineticParams.rho_c must be > 0"),
        (replace(PARAMS, k_o=0.0), ROCK, "KineticParams.k_o must be > 0"),
        (replace(PARAMS, mu=np.nan), ROCK, "KineticParams.mu must be >= 0"),
        (PARAMS, replace(ROCK, eta=0.0), "RockLaw.eta must be > 0"),
    ], ids=["rho_c", "k_o", "mu_nan", "eta"])
    def test_invalid_parameters_rejected_before_a_step(self, params, rock, name):
        grid = example1_grid(nx=25)
        records = []
        with pytest.raises(DomainError, match=name):
            simulate_micp(grid, builtin_schedule("ex1"), params, rock,
                          SolverSettings(),
                          OutputHooks(on_diagnostics=lambda *rec: records.append(rec)))
        assert records == []

    @pytest.mark.parametrize("bad", ["one cell", "NaN pressure"])
    def test_bad_initial_state_rejected_before_a_step(self, bad):
        grid = example1_grid(nx=25)
        state = make_initial_state(grid, PARAMS)
        if bad == "one cell":
            state = MicpState(*(values[:1] for values in vars(state).values()))
        else:
            state.p[10] = np.nan
        records = []
        with pytest.raises(DomainError, match="one finite value per active cell"):
            simulate_micp(grid, builtin_schedule("ex1"), PARAMS, ROCK, SolverSettings(),
                          OutputHooks(on_diagnostics=lambda *rec: records.append(rec)),
                          initial_state=state)
        assert records == []

    @pytest.mark.parametrize("field, value, message", [
        ("c_u", -5.0, "c_u must be >= 0"),
        ("phi_b", 0.5, "phi_b \\+ phi_c exceeds"),
    ])
    def test_impossible_initial_state_rejected_before_a_step(self, field, value, message):
        grid = example1_grid(nx=25)
        state = make_initial_state(grid, PARAMS)
        getattr(state, field)[10] = value
        records = []
        with pytest.raises(DomainError, match=message):
            simulate_micp(grid, builtin_schedule("ex1"), PARAMS, ROCK, SolverSettings(),
                          OutputHooks(on_diagnostics=lambda *rec: records.append(rec)),
                          initial_state=state)
        assert records == []

    def test_final_state_accepted_as_initial_state(self):
        grid = example1_grid(nx=25)
        schedule = Schedule(periods=builtin_schedule("ex1").periods[:2])
        first = simulate_micp(grid, schedule, PARAMS, ROCK, SolverSettings())
        assert first.state.phi_b.max() > 0.0
        again = simulate_micp(grid, schedule, PARAMS, ROCK, SolverSettings(),
                              initial_state=first.state)
        assert again.steps > 0 and again.state.phi_b.max() > first.state.phi_b.max()

    def test_jacobian_pass_runs_once_per_factorization(self, monkeypatch):
        """Newton builds a Jacobian only for an iterate it factors, never the converged one."""
        jacobian, step = micp._jacobian_system, micp.solve_timestep
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

        monkeypatch.setattr(micp, "_jacobian_system", counted_jacobian)
        monkeypatch.setattr(micp, "solve_timestep", watched_step)
        schedule = Schedule(periods=builtin_schedule("ex1").periods[:3])
        report = simulate_micp(example1_grid(nx=25), schedule, PARAMS, ROCK,
                               SolverSettings())
        assert len(steps) == report.steps and report.factorizations > 0
        for iterates, res in steps:
            assert res.converged
            assert len(iterates) == res.factorizations
            assert not any(x is res.x for x in iterates)

    def test_hard_failure_carries_last_good_state(self):
        grid = example1_grid(nx=25)
        schedule = builtin_schedule("ex1")
        settings = SolverSettings(newton_max_iter=1, dt_init=3600.0,
                                  dt_min=3600.0, dt_max=3600.0)
        with pytest.raises(ConvergenceError) as exc_info:
            simulate_micp(grid, schedule, PARAMS, ROCK, settings)
        assert exc_info.value.last_good_state is not None


class TestDerivedFields:
    def test_porosity_and_permeability_fields(self):
        grid = example1_grid(nx=25)
        state = make_initial_state(grid, PARAMS)
        state.phi_b[:] = 0.02
        state.phi_c[:] = 0.03
        phi = porosity_field(grid, state)
        assert phi == pytest.approx(0.10, rel=1e-12)
        K = permeability_field(grid, ROCK, state)
        assert np.all(K < grid.perm0)


def desk_grid(name):
    """Preset ``name``'s grid; ex2 and ex3 on the desk grid (2.5 m cells, 4 m aperture)."""
    cfg = preset(name)
    if name != "ex1":
        cfg = replace(cfg, domain=replace(cfg.domain, nx=40, nz=12, dx=2.5, dz=2.5),
                      leak=replace(cfg.leak, aperture=4.0))
    return build_domain(cfg.domain, cfg.leak, cfg.reservoir, ROCK)


def treated_states(grid, seed):
    """Old and new state of a flowing, partly treated field, both in bounds."""
    rng = np.random.default_rng(seed)
    n = grid.n_active
    old = make_initial_state(grid, PARAMS)
    old.p += 2e4 * (1.0 - grid.centers[:, 0] / grid.centers[:, 0].max())
    old.c_m[:] = rng.uniform(0.0, 0.01, n)
    old.c_o[:] = rng.uniform(0.0, 0.04, n)
    old.c_u[:] = rng.uniform(0.0, 60.0, n)
    old.phi_b[:] = rng.uniform(0.0, 0.005, n)
    old.phi_c[:] = rng.uniform(0.0, 0.01, n)
    new = old.copy()  # a Newton iterate: solutes off by 10%, volume fractions by 1e-4
    new.p += rng.normal(0.0, 10.0, n)
    for name, spread in (("c_m", 0.1), ("c_o", 0.1), ("c_u", 0.1),
                         ("phi_b", 1e-4), ("phi_c", 1e-4)):
        getattr(new, name)[:] *= rng.uniform(1.0 - spread, 1.0 + spread, n)
    return old, new


class TestFactorOrder:
    """Newton matrices built and factored in one COLAMD order per system."""

    CONTROL = WellControl(rate=2.31e-5, c_m=0.01, c_u=30.0)

    @staticmethod
    def assert_solves(sys, x, old, control, dt=600.0):
        resid, aux = _eval_system(sys, x, old, dt, control)
        J = _jacobian_system(sys, x, dt, aux)
        b = -resid
        dx = sys.factor(J).solve(b)
        natural = sys.in_natural_order(J)
        assert np.linalg.norm(natural @ dx - b) <= 1e-12 * np.linalg.norm(b)
        return natural

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_lu_solves_the_natural_order_matrix(self, name):
        grid = desk_grid(name)
        sys = MicpSystem(grid, PARAMS, ROCK)
        old, new = treated_states(grid, seed=3)
        self.assert_solves(sys, new.to_vector(), old, self.CONTROL)
        assert not np.array_equal(sys.order, np.arange(NVAR * grid.n_active))

    def test_lu_solves_at_out_of_bounds_iterates(self):
        grid = example1_grid(nx=25)
        sys = MicpSystem(grid, PARAMS, ROCK)
        old, new = treated_states(grid, seed=5)
        x = new.to_vector()
        x[IM::NVAR][::3] = -1e-4
        x[IU::NVAR][1::4] = -0.5
        x[IO::NVAR][::4] = -2e-5
        x[IB::NVAR][2::5] = -1e-6
        x[IC::NVAR][::7] = -1e-6
        self.assert_solves(sys, x, old, self.CONTROL)

    def test_pin_lands_on_entry_zero_zero(self):
        sys, x, state, control = closed_pinned_cell()
        natural = self.assert_solves(sys, x, state, control).toarray()
        pin_scale = sys.V[0] * sys.phi0[0] / (600.0 * 1e5)
        assert natural[0].tolist() == [pin_scale] + [0.0] * (NVAR - 1)

    def test_two_systems_on_one_grid_share_the_order(self):
        grid = desk_grid("ex3")
        first = MicpSystem(grid, PARAMS, ROCK).order
        second = MicpSystem(grid, PARAMS, INERT).order
        assert np.array_equal(first, second)
        assert np.array_equal(np.sort(first), np.arange(NVAR * grid.n_active))

    def test_splu_sees_only_the_newton_factorizations(self, monkeypatch):
        calls = []
        splu = micp.splu

        def counted(J, **options):
            calls.append(options)
            return splu(J, **options)

        monkeypatch.setattr(micp, "splu", counted)
        grid = example1_grid(nx=25)
        periods = builtin_schedule("ex1").periods[:2]
        report = simulate_micp(grid, Schedule(periods=periods), PARAMS,
                               ROCK, SolverSettings())
        assert report.dt_failures == 0
        assert len(calls) == report.factorizations == report.newton_iterations > 0
        assert all(options["permc_spec"] == "NATURAL" for options in calls)
