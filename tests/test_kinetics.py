import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micpsim.errors import DomainError, InvariantError, OracleError
from micpsim.kinetics import (
    CellChemState,
    batch_oracle,
    effective_porosity,
    monod,
    permeability,
    reaction_rates,
    _oracle_rate_law,
    _permeability,
    _rate_jacobian,
)
from micpsim.params import KineticParams, RockLaw

PARAMS = KineticParams()
ROCK = RockLaw()


# Strategy for states that satisfy the CellChemState invariants.
def valid_states(max_cu=400.0):
    return st.builds(
        CellChemState,
        c_m=st.floats(0.0, 0.1),
        c_o=st.floats(0.0, 0.1),
        c_u=st.floats(0.0, max_cu),
        phi_b=st.floats(0.0, 0.07),
        phi_c=st.floats(0.0, 0.07),
    )


class TestEffectivePorosity:
    def test_clean_rock(self):
        assert effective_porosity(ROCK, 0.0, 0.0) == 0.15

    def test_direct_subtraction(self):
        assert effective_porosity(ROCK, 0.02, 0.03) == pytest.approx(0.10, rel=1e-14)

    def test_fully_clogged(self):
        assert effective_porosity(ROCK, 0.0, 0.15) == 0.0

    def test_over_clogged_raises(self):
        with pytest.raises(InvariantError):
            effective_porosity(ROCK, 0.1, 0.1)

    @pytest.mark.parametrize("phi_b, phi_c", [
        (np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (-0.01, 0.0),
        (np.array([0.01, np.nan]), 0.0)])
    def test_invalid_fraction_raises(self, phi_b, phi_c):
        with pytest.raises(InvariantError, match="must be >= 0 and finite"):
            effective_porosity(ROCK, phi_b, phi_c)


class TestPermeability:
    def test_clean_rock_is_exactly_k0(self):
        K = permeability(ROCK, ROCK.phi0)
        assert K == pytest.approx(ROCK.K0, rel=1e-14)

    def test_value_at_critical_porosity(self):
        K = permeability(ROCK, ROCK.phi_crit)
        expected = ROCK.K_min * ROCK.K0 / (ROCK.K0 + ROCK.K_min)
        assert K == expected
        # within one part in ~1e6 of K_min itself
        assert K == pytest.approx(1e-20, rel=1e-5)

    def test_hand_evaluated_midpoint(self):
        # ((0.125 - 0.1) / 0.05)^3 = 0.125, so K ~ 0.125 * K0
        K = permeability(ROCK, 0.125)
        expected = (ROCK.K0 * 0.125 + ROCK.K_min) * ROCK.K0 / (ROCK.K0 + ROCK.K_min)
        assert K == pytest.approx(expected, rel=1e-14)
        assert K == pytest.approx(1.25e-15, rel=1e-5)

    def test_monotone_and_continuous(self):
        phis = np.linspace(0.0, ROCK.phi0, 100)
        Ks = permeability(ROCK, phis)
        assert np.all(np.diff(Ks) >= 0.0)
        below = permeability(ROCK, ROCK.phi_crit - 1e-13)
        above = permeability(ROCK, ROCK.phi_crit + 1e-13)
        assert above == pytest.approx(below, rel=1e-10)

    def test_out_of_range_raises(self):
        with pytest.raises(DomainError):
            permeability(ROCK, 0.2)
        with pytest.raises(DomainError):
            permeability(ROCK, -0.01)

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf, np.array([0.12, np.nan])])
    def test_non_finite_raises(self, phi):
        with pytest.raises(DomainError, match="phi outside"):
            permeability(ROCK, phi)

    def test_complex_step_slope_matches_closed_form(self):
        # dK/dphi of the law written out, an independent reference
        span = ROCK.phi0 - ROCK.phi_crit
        above = np.array([0.105, 0.12, 0.149])
        x = (above - ROCK.phi_crit) / span
        slope = (ROCK.K0 * ROCK.eta / span * x ** (ROCK.eta - 1.0)
                 * ROCK.K0 / (ROCK.K0 + ROCK.K_min))
        h = 1e-30
        K = _permeability(ROCK, above + 1j * h, ROCK.K0)
        assert np.all(np.abs(K.imag / h - slope) <= 1e-14 * slope)
        assert K.real == pytest.approx(permeability(ROCK, above), rel=1e-15)
        at_or_below = _permeability(ROCK, np.array([0.0, 0.05, ROCK.phi_crit]) + 1j * h,
                                    ROCK.K0)
        assert np.all(at_or_below.imag == 0.0)


class TestMonod:
    def test_half_velocity_point(self):
        assert monod(21.3, 21.3) == 0.5

    def test_zero(self):
        assert monod(0.0, 2e-5) == 0.0

    def test_three_k(self):
        assert monod(3 * 21.3, 21.3) == 0.75

    def test_negative_raises(self):
        with pytest.raises(DomainError):
            monod(-1.0, 1.0)

    @pytest.mark.parametrize("c, k_half, message", [
        (np.nan, 1.0, "concentration"), (np.inf, 1.0, "concentration"),
        (np.array([1.0, np.nan]), 1.0, "concentration"), (1.0, np.nan, "half-velocity")])
    def test_non_finite_raises(self, c, k_half, message):
        with pytest.raises(DomainError, match=message):
            monod(c, k_half)


class TestReactionRates:
    def test_microbial_injection_conditions(self):
        # Independent arithmetic transcription of the rate laws.
        state = CellChemState(c_m=0.01, c_o=0.04, c_u=0.0)
        phi = 0.15
        mon_o = 0.04 / (2e-5 + 0.04)
        exp_Rm = 0.01 * phi * (0.5 * 4.17e-5 * mon_o - 3.18e-7 - 8.51e-7)
        exp_Ro = -(0.01 * phi) * 0.5 * 4.17e-5 * mon_o
        exp_Rb = 0.01 * phi * 8.51e-7

        r = reaction_rates(state, PARAMS, ROCK, shear_norm=0.0)
        assert r.R_m == pytest.approx(exp_Rm, rel=1e-13)
        assert r.R_o == pytest.approx(exp_Ro, rel=1e-13)
        assert r.R_u == 0.0
        assert r.R_c == 0.0
        assert r.R_b == pytest.approx(exp_Rb, rel=1e-13)
        # ballpark figures for the record
        assert r.R_m == pytest.approx(2.95e-8, rel=5e-3)
        assert r.R_o == pytest.approx(-3.13e-8, rel=5e-3)
        assert r.R_b == pytest.approx(1.28e-9, rel=5e-3)

    def test_cementation_conditions(self):
        state = CellChemState(c_u=300.0, phi_b=0.01)
        mon_u = 300.0 / 321.3
        exp_Ru = -35.0 * 0.01 * 1.61e-2 * mon_u
        r = reaction_rates(state, PARAMS, ROCK, shear_norm=0.0)
        assert r.R_u == pytest.approx(exp_Ru, rel=1e-13)
        assert r.R_c == pytest.approx(-1.67 * exp_Ru, rel=1e-13)
        assert r.R_u == pytest.approx(-5.26e-3, rel=2e-3)
        assert r.R_c == pytest.approx(8.79e-3, rel=2e-3)

    def test_all_zero_state(self):
        r = reaction_rates(CellChemState(), PARAMS, ROCK)
        assert r.R_m == r.R_o == r.R_u == r.R_b == r.R_c == 0.0

    def test_singular_calcite_guarded(self):
        with pytest.raises(DomainError):
            reaction_rates(CellChemState(phi_c=0.15), PARAMS, ROCK)

    @pytest.mark.parametrize("state, shear, error", [
        (CellChemState(c_m=np.nan), 0.0, InvariantError),
        (CellChemState(c_u=np.inf), 0.0, InvariantError),
        (CellChemState(phi_b=np.array([0.01, np.nan])), 0.0, InvariantError),
        (CellChemState(), np.nan, DomainError),
        (CellChemState(), np.inf, DomainError)])
    def test_non_finite_raises(self, state, shear, error):
        with pytest.raises(error, match="must be >= 0 and finite"):
            reaction_rates(state, PARAMS, ROCK, shear_norm=shear)

    @given(valid_states(), st.floats(0.0, 1e7))
    @settings(max_examples=200)
    def test_stoichiometry_identity(self, state, shear):
        r = reaction_rates(state, PARAMS, ROCK, shear_norm=shear)
        assert r.R_c == -PARAMS.Y_uc * r.R_u

    @given(valid_states(), st.floats(0.0, 1e7))
    @settings(max_examples=200)
    def test_sign_properties(self, state, shear):
        r = reaction_rates(state, PARAMS, ROCK, shear_norm=shear)
        assert r.R_o <= 0.0
        assert r.R_u <= 0.0
        assert r.R_c >= 0.0

    @given(valid_states(), st.floats(1.0, 100.0), st.floats(1.001, 2.0))
    @settings(max_examples=100)
    def test_calcite_rate_monotone(self, state, du, factor):
        base = reaction_rates(state, PARAMS, ROCK).R_c
        more_urea = reaction_rates(
            CellChemState(state.c_m, state.c_o, state.c_u + du, state.phi_b, state.phi_c),
            PARAMS, ROCK).R_c
        assert more_urea >= base
        if state.phi_b * factor + state.phi_c <= ROCK.phi0:
            more_film = reaction_rates(
                CellChemState(state.c_m, state.c_o, state.c_u, state.phi_b * factor,
                              state.phi_c), PARAMS, ROCK).R_c
            assert more_film >= base


class TestRateJacobian:
    # (rate, variable) pairs, both in the order of _rates, that no rate law couples
    INDEPENDENT = ((0, 2), (1, 2), (2, 0), (2, 1), (2, 4), (4, 0), (4, 1), (4, 4))

    @given(valid_states(), st.floats(0.0, 1e6))
    @example(CellChemState(c_o=0.09375, phi_b=0.015625, phi_c=0.015625), 0.5)
    @settings(max_examples=60, deadline=None)
    def test_matches_complex_step(self, state, shear):
        # The reference is the complex step (Squire & Trapp 1998) of the
        # batch oracle's own transcription of the rate laws, which shares
        # no code with _rates. Im f(x + ih)/h carries no subtractive
        # cancellation: it is exact to roundoff unless h*f' underflows, so
        # derivatives are resolved down to finfo.tiny/h (2e-278), not down
        # to a cancellation floor.
        c = max(min(state.phi_c, ROCK.phi0 - state.phi_b - 1e-4), 0.0)
        args = (state.c_m, state.c_o, state.c_u, state.phi_b, c)
        jac = _rate_jacobian(*args, shear, PARAMS, ROCK)
        assert jac.shape == (5, 5)
        rates = _oracle_rate_law(PARAMS, ROCK, shear)
        h = 1e-30
        resolved = np.finfo(float).tiny / h
        for j in range(5):
            z = [complex(a) for a in args]
            z[j] += 1j * h
            for i, rate in enumerate(rates(*z)):
                cs = rate.imag / h
                scale = max(abs(cs), abs(jac[i, j]), resolved)
                assert abs(jac[i, j] - cs) <= 1e-10 * scale, (i, j, jac[i, j], cs)

    def test_exactly_zero_where_a_rate_does_not_depend(self):
        # the Newton matrix stores no exact zero, so its fill rests on these
        rng = np.random.default_rng(3)
        n = 400

        def draw(top):  # about a third of the entries exactly zero
            return rng.uniform(0.0, top, n) * (rng.random(n) < 0.7)

        args = (draw(0.1), draw(0.1), draw(400.0), draw(0.05), draw(0.05), draw(1e6))
        jac = _rate_jacobian(*args, PARAMS, ROCK)
        assert jac.shape == (n, 5, 5)
        independent = np.zeros((5, 5), bool)
        independent[tuple(zip(*self.INDEPENDENT))] = True
        assert np.all(jac[:, independent] == 0.0)
        assert np.all(np.any(jac[:, ~independent] != 0.0, axis=0))


class TestBatchOracle:
    @pytest.mark.parametrize("duration, dt_fine", [
        (np.inf, 1.0), (np.nan, 1.0), (10.0, np.inf), (10.0, np.nan), (-1.0, 1.0),
        (10.0, 0.0)])
    def test_bad_times_raise(self, duration, dt_fine):
        with pytest.raises(DomainError, match="duration must be >= 0"):
            batch_oracle(CellChemState(), PARAMS, ROCK, duration, dt_fine)

    def test_zero_duration_is_identity(self):
        state = CellChemState(c_m=0.01, c_u=4.0, phi_b=0.02)
        out = batch_oracle(state, PARAMS, ROCK, 0.0, 1.0)
        assert out == state

    def test_inert_parameters_keep_state_constant(self):
        inert = KineticParams(mu=0.0, mu_u=0.0, k_a=0.0, k_d=0.0, k_str=0.0)
        state = CellChemState(c_m=0.01, c_o=0.04, c_u=300.0, phi_b=0.01, phi_c=0.02)
        out = batch_oracle(state, inert, ROCK, 36000.0, 1.0)
        assert out.c_m == pytest.approx(state.c_m, rel=1e-12)
        assert out.c_u == pytest.approx(state.c_u, rel=1e-12)
        assert out.phi_b == state.phi_b
        assert out.phi_c == state.phi_c

    def test_cementation_stoichiometry(self):
        start = CellChemState(c_u=300.0, phi_b=0.01)
        out = batch_oracle(start, PARAMS, ROCK, 10 * 3600.0, 1.0)
        assert out.c_u < start.c_u
        assert out.phi_c > 0.0
        phi_start = ROCK.phi0 - start.phi_b - start.phi_c
        phi_end = ROCK.phi0 - out.phi_b - out.phi_c
        d_urea_mass = out.c_u * phi_end - start.c_u * phi_start
        produced = PARAMS.rho_c * (out.phi_c - start.phi_c)
        assert produced == pytest.approx(-PARAMS.Y_uc * d_urea_mass, rel=1e-3)

    def test_converges_with_step_refinement(self):
        start = CellChemState(c_m=0.01, c_o=0.04, c_u=10.0, phi_b=0.01)
        T = 3600.0
        ref = batch_oracle(start, PARAMS, ROCK, T, 0.125)
        coarse = batch_oracle(start, PARAMS, ROCK, T, 4.0)
        fine = batch_oracle(start, PARAMS, ROCK, T, 1.0)
        err_coarse = abs(coarse.phi_c - ref.phi_c)
        err_fine = abs(fine.phi_c - ref.phi_c)
        assert err_fine < err_coarse

    def test_instability_detected(self):
        start = CellChemState(c_u=300.0, phi_b=0.01)
        with pytest.raises(OracleError):
            # hours-long explicit steps on a seconds-scale process blow up
            batch_oracle(start, KineticParams(mu_u=50.0), ROCK, 1e6, 5e4)

    def test_exchange_conservation_with_detachment(self):
        # With growth and death off and no urea, attachment/detachment only
        # exchange mass between suspended microbes and biofilm.
        params = KineticParams(mu=0.0, k_d=0.0)
        start = CellChemState(c_m=0.01, phi_b=0.01)
        phi_start = ROCK.phi0 - start.phi_b
        total_start = start.c_m * phi_start + params.rho_b * start.phi_b
        out = batch_oracle(start, params, ROCK, 100 * 3600.0, 1.0, shear_norm=2.54e5)
        phi_end = ROCK.phi0 - out.phi_b - out.phi_c
        total_end = out.c_m * phi_end + params.rho_b * out.phi_b
        assert abs(total_end - total_start) / total_start < 1e-10
        # detachment actually acted: biofilm content moved
        assert out.phi_b != start.phi_b
