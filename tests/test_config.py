import dataclasses

import pytest

from micpsim.config import format_config, parse_config, preset
from micpsim.errors import ConfigError
from micpsim.schedule import HOUR, SlugType


class TestPresets:
    def test_ex1_values(self):
        cfg = preset("ex1")
        assert (cfg.domain.nx, cfg.domain.ny, cfg.domain.nz) == (100, 1, 1)
        assert cfg.domain.dx == 1.0
        assert cfg.schedule.periods[0].rate == 2.31e-5
        # leak zone [12.5, 17.5]: centerline 15 m, aperture 5 m
        assert cfg.reservoir.well_x + cfg.leak.anchor_x == 15.0
        assert cfg.leak.aperture == 5.0
        assert cfg.leak.perm == 2e-14

    def test_ex2_values(self):
        cfg = preset("ex2")
        assert cfg.schedule.periods[0].rate == 2.31e-4
        assert [p.end_time for p in cfg.schedule.periods] == [
            t * HOUR for t in (15, 22, 100, 130, 135, 160, 200, 210, 300)]
        assert cfg.leak.aperture == 1.0
        assert cfg.leak.tilt_deg == 135.0
        assert cfg.reservoir.aquifer_height == 5.0
        assert cfg.reservoir.caprock_height == 20.0
        assert cfg.domain.nx * cfg.domain.dx == 100.0

    def test_ex3_values(self):
        cfg = preset("ex3")
        assert len(cfg.schedule.periods) == 27
        assert cfg.schedule.end_time == 800.0 * HOUR
        assert cfg.schedule.periods[0].rate == 8.70e-3
        assert cfg.domain.ny * cfg.domain.dy == 20.0
        assert cfg.leak.width == 6.0
        assert cfg.co2.rate == 2.31e-4

    def test_table1_values_exact(self):
        k = preset("ex2").kinetics
        assert (k.rho_b, k.rho_c, k.rho_w) == (35.0, 2710.0, 1045.0)
        assert (k.k_str, k.k_o, k.k_u) == (2.6e-10, 2e-5, 21.3)
        assert (k.mu, k.mu_u) == (4.17e-5, 1.61e-2)
        assert (k.k_a, k.k_d) == (8.51e-7, 3.18e-7)
        assert (k.F, k.Y, k.Y_uc) == (0.5, 0.5, 1.67)
        assert k.mu_w == 2.54e-4
        t = preset("ex2").twophase
        assert (t.rho_co2, t.mu_co2) == (479.0, 3.95e-5)
        r = preset("ex2").rock
        assert (r.phi0, r.phi_crit, r.eta) == (0.15, 0.1, 3.0)
        assert (r.K0, r.K_min) == (1e-14, 1e-20)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("ex9")


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_format_parse_identity(self, name):
        cfg = preset(name)
        assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_with_overrides(self):
        cfg = preset("ex2")
        cfg = dataclasses.replace(
            cfg,
            rock=dataclasses.replace(cfg.rock, eta=2.7),
            leak=dataclasses.replace(cfg.leak, aperture=3.3),
            reservoir=dataclasses.replace(cfg.reservoir, well_y=7.25),
        )
        assert parse_config(format_config(cfg)) == cfg

    def test_no_leak_round_trip(self):
        cfg = dataclasses.replace(preset("ex1"), leak=None)
        assert parse_config(format_config(cfg)) == cfg


class TestParsing:
    def test_empty_config_with_preset(self):
        cfg = parse_config("[experiment]\npreset = ex1\n")
        assert cfg == preset("ex1")

    def test_empty_text_defaults_to_ex1(self):
        assert parse_config("") == preset("ex1")

    def test_eta_override(self):
        cfg = parse_config("[experiment]\npreset = ex1\n\n[rock]\neta = 4\n")
        assert cfg.rock.eta == 4.0

    def test_misspelled_key_named(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[kinetics]\ndensty_b = 35\n")
        assert any("densty_b" in p for p in exc_info.value.problems)

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[wells]\nx = 1\n")
        assert any("[wells]" in p for p in exc_info.value.problems)

    def test_unknown_preset_in_text(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[experiment]\npreset = ex9\n")
        assert any("ex9" in p for p in exc_info.value.problems)

    def test_all_parse_problems_reported_together(self):
        text = "[kinetics]\nrho_b = frog\n\n[rock]\nbad = 1\n"
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        joined = "\n".join(exc_info.value.problems)
        assert "rho_b" in joined
        assert "bad" in joined

    def test_range_violation_reported(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[rock]\nphi_crit = 0.5\n")  # above phi0 = 0.15
        assert any("phi_crit" in p for p in exc_info.value.problems)

    @pytest.mark.parametrize("setting", ["dt_cut = 1.0", "dt_cut = 0.0", "dt_grow = 0.5"])
    def test_step_factors_that_never_end_a_run_rejected(self, setting):
        # dt_cut = 1 retries a failing step at the same dt forever; dt_grow < 1
        # shrinks the steps so that they never reach the end of the interval
        with pytest.raises(ConfigError) as exc_info:
            parse_config(f"[solver]\n{setting}\n")
        assert any(p.startswith("[solver]") for p in exc_info.value.problems)

    def test_every_failed_solver_condition_reported(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[solver]\ndt_cut = 1.0\ndt_grow = 0.5\n")
        joined = "\n".join(exc_info.value.problems)
        assert "need 0 < dt_cut < 1" in joined
        assert "need dt_grow >= 1" in joined

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[domain]\nnx 100\n")
        assert "line" in str(exc_info.value).lower()

    def test_builtin_schedule_with_rate_override(self):
        cfg = parse_config("[schedule]\nbuiltin = ex2\nrate = 1e-5\n")
        assert cfg.schedule.periods[0].rate == 1e-5
        assert cfg.schedule.periods[2].rate == 0.0  # rests stay shut in

    def test_explicit_periods(self):
        text = """
[schedule]
p_bdry = 2e7
phases = 0
period.1 = 54000 microbial 2.31e-05 0.01 0 0
period.2 = 79200 water_push 2.31e-05 0 0 0
period.3 = 360000 no_flow 0 0 0 0
period.4 = 468000 growth 2.31e-05 0 0.04 0
period.5 = 486000 water_push 2.31e-05 0 0 0
period.6 = 576000 no_flow 0 0 0 0
period.7 = 720000 cementation 2.31e-05 0 0 300
period.8 = 756000 water_push 2.31e-05 0 0 0
period.9 = 1080000 no_flow 0 0 0 0
"""
        cfg = parse_config(text)
        assert cfg.schedule.p_bdry == 2e7
        assert len(cfg.schedule.periods) == 9
        assert cfg.schedule.periods[6].label is SlugType.CEMENTATION

    def test_builtin_and_periods_conflict(self):
        text = "[schedule]\nbuiltin = ex1\nperiod.1 = 10 no_flow 0 0 0 0\n"
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert any("either builtin or period" in p for p in exc_info.value.problems)

    def test_bad_schedule_grammar_rejected(self):
        text = "[schedule]\nphases = 0\nperiod.1 = 3600 cementation 1e-5 0 0 300\n"
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert any("nine sub-periods" in p for p in exc_info.value.problems)
