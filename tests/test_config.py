import dataclasses
import math

import pytest

from micpsim import config
from micpsim.config import format_config, parse_config, preset
from micpsim.errors import ConfigError, DomainError
from micpsim.params import KineticParams, RockLaw, TwoPhaseParams
from micpsim.schedule import HOUR, SlugType, builtin_schedule

# The keys of the file format, written out independently of config._KEYS.
FILE_FORMAT_KEYS = {
    "experiment": {"preset"},
    "domain": {"nx", "ny", "nz", "dx", "dy", "dz", "gz"},
    "reservoir": {"K_A", "H", "h", "well_x", "well_y", "outflow"},
    "leak": {"enabled", "a", "w", "theta", "K_L", "g_l", "g_u", "l", "anchor_x"},
    "rock": {"phi0", "phi_crit", "eta", "K0", "K_min"},
    "kinetics": {"rho_b", "rho_c", "rho_w", "mu_w", "k_str", "k_o", "k_u",
                 "mu", "mu_u", "k_a", "k_d", "F", "Y", "Y_uc"},
    "twophase": {"rho_co2", "mu_co2", "rho_w", "mu_w", "co2_rate",
                 "co2_duration", "plane_z"},
    "schedule": {"builtin", "rate", "c_m", "c_o", "c_u", "p_bdry", "phases"},
    "solver": {"newton_rel_tol", "newton_max_iter", "dt_init", "dt_min",
               "dt_max", "dt_grow", "dt_cut"},
    "outputs": {"out_dir", "snapshot_cadence", "formats"},
}

# What each key changes in SimulationConfig, as "part" (whether it is there)
# or "part.field"; a key absent here sets the field [section] key.
CHANGES = {
    ("reservoir", "K_A"): {"reservoir.perm_aquifer"},
    ("reservoir", "H"): {"reservoir.aquifer_height"},
    ("reservoir", "h"): {"reservoir.caprock_height"},
    ("reservoir", "outflow"): {"reservoir.outflow_sides"},
    ("leak", "enabled"): {"leak"},
    ("leak", "a"): {"leak.aperture"},
    ("leak", "w"): {"leak.width"},
    ("leak", "theta"): {"leak.tilt_deg"},
    ("leak", "K_L"): {"leak.perm"},
    ("leak", "g_l"): {"leak.gap_lower"},
    ("leak", "g_u"): {"leak.gap_upper"},
    ("leak", "l"): {"leak.gap_leak"},
    ("twophase", "co2_rate"): {"co2.rate"},
    ("twophase", "co2_duration"): {"co2.duration"},
    ("twophase", "plane_z"): {"co2.plane_z"},
    ("schedule", "builtin"): {"schedule.periods", "schedule.phase_starts"},
    ("schedule", "rate"): {"schedule.periods"},
    ("schedule", "c_m"): {"schedule.periods"},
    ("schedule", "c_o"): {"schedule.periods"},
    ("schedule", "c_u"): {"schedule.periods"},
    ("schedule", "p_bdry"): {"reservoir.p_bdry"},  # the reservoir's datum
}

# Valid non-default values of the keys whose value is not a plain number.
NEW_TEXT = {
    ("reservoir", "outflow"): "x-",
    ("leak", "enabled"): "false", ("schedule", "builtin"): "ex2",
    ("schedule", "rate"): "1e-3", ("schedule", "c_m"): "0.02",
    ("schedule", "c_o"): "0.03", ("schedule", "c_u"): "200",
    ("outputs", "out_dir"): "elsewhere", ("outputs", "formats"): "csv",
}


def _leaves(cfg):
    """{"part": present, "part.field": value} of a SimulationConfig."""
    out = {}
    for f in dataclasses.fields(cfg):
        part = getattr(cfg, f.name)
        out[f.name] = part is not None
        if part is not None:
            out.update({f"{f.name}.{g.name}": getattr(part, g.name)
                        for g in dataclasses.fields(part)})
    return out


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

    @pytest.mark.parametrize("section, line", [
        ("solver", "newton_max_iter = 0"),  # every step fails down to dt_min
        ("outputs", "snapshot_cadence = -5"),  # the next snapshot time never advances
    ])
    def test_setting_that_cannot_run_rejected(self, section, line):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(f"[{section}]\n{line}\n")
        key = line.split(" = ")[0]
        assert any(p.startswith(f"[{section}] {key} must be >=")
                   for p in exc_info.value.problems)

    def test_repeated_outflow_side_rejected(self):
        # a side given twice would double its boundary faces
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[reservoir]\noutflow = x+, y-, x+\n")
        assert exc_info.value.problems == [
            "[reservoir] outflow side 'x+' is given more than once"]

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
        assert cfg.reservoir.p_bdry == 2e7
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

    def test_schedule_keys_without_builtin_use_the_presets_strategy(self):
        cfg = parse_config("[experiment]\npreset = ex2\n[schedule]\nrate = 1e-5\n")
        assert cfg.schedule == builtin_schedule("ex2", rate=1e-5)
        cfg = parse_config("[experiment]\npreset = ex3\n[schedule]\np_bdry = 2e7\n")
        assert cfg.schedule == builtin_schedule("ex3")
        assert cfg.reservoir.p_bdry == 2e7

    @pytest.mark.parametrize("key", ["rate", "c_m", "c_o", "c_u"])
    def test_builtin_keys_with_period_lines_rejected(self, key):
        text = f"[schedule]\n{key} = 1e-3\nperiod.1 = 10 no_flow 0 0 0 0\n"
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert any(p.startswith(f"[schedule] {key}: not used with period")
                   for p in exc_info.value.problems)

    def test_phases_without_period_lines_rejected(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[schedule]\nbuiltin = ex3\nphases = 0,9\n")
        assert any(p.startswith("[schedule] phases: used only with period")
                   for p in exc_info.value.problems)

    def test_disabled_leak_keys_still_checked(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[leak]\nenabled = false\na = -3\n")
        assert exc_info.value.problems == ["[leak] leak aperture must be > 0"]
        cfg = parse_config("[leak]\nenabled = false\na = 3\n")
        assert cfg.leak is None

    def test_disabled_leak_alone_ignores_the_presets_leak(self):
        # the preset's 6 m wide leak does not fit a 1 m wide domain
        cfg = parse_config("[experiment]\npreset = ex3\n[domain]\nny = 1\n"
                           "dy = 1.0\n[leak]\nenabled = false\n")
        assert cfg.leak is None

    def test_bad_period_number_named(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[schedule]\nperiod.x = 10 no_flow 0 0 0 0\n")
        assert any(p.startswith("[schedule] period.x:") for p in exc_info.value.problems)

    @pytest.mark.parametrize("section, line", [
        ("kinetics", "k_str = nan"), ("domain", "dx = nan"),
        ("twophase", "co2_duration = nan"), ("solver", "dt_max = inf"),
        ("schedule", "period.1 = nan no_flow 0 0 0 0"),
    ])
    def test_non_finite_number_rejected(self, section, line):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(f"[{section}]\n{line}\n")
        key = line.split(" = ")[0]
        assert any(p.startswith(f"[{section}] {key}:") and "not a finite number" in p
                   for p in exc_info.value.problems)

    @pytest.mark.parametrize("spec, field", [
        (RockLaw(K0=math.inf), "K0"), (KineticParams(rho_w=math.inf), "rho_w"),
        (TwoPhaseParams(mu_w=math.inf), "mu_w"),
    ], ids=["K0", "rho_w", "mu_w"])
    def test_parameters_refuse_what_the_text_refuses(self, spec, field):
        # config text cannot give an infinite parameter; the code must not take one
        with pytest.raises(DomainError, match=f"{type(spec).__name__}.{field} must be finite"):
            spec.validate()


class TestKeyTable:
    def test_keys_are_the_file_formats(self):
        keys = {}
        for row in config._KEYS:
            keys.setdefault(row.section, set()).add(row.key)
        assert keys == FILE_FORMAT_KEYS

    @pytest.mark.parametrize(
        "row", [r for r in config._KEYS
                if (r.section, r.key) not in {("experiment", "preset"),
                                              ("schedule", "phases")}],
        ids=lambda r: f"{r.section}.{r.key}")
    def test_each_key_sets_only_its_own_field(self, row):
        # phases needs period lines, and preset sets everything
        base = _leaves(preset("ex3"))
        expected = CHANGES.get((row.section, row.key), {f"{row.section}.{row.key}"})
        text = NEW_TEXT.get((row.section, row.key))
        if text is None:
            (old,) = (base[name] for name in expected)
            text = str(old + 1) if type(old) is int else repr(0.9 * old) if old else "1.0"
        new = _leaves(parse_config(f"[experiment]\npreset = ex3\n"
                                   f"[{row.section}]\n{row.key} = {text}\n"))
        changed = {name for name in base.keys() & new.keys() if base[name] != new[name]}
        assert changed == expected

    def test_module_docstring_lists_every_key(self):
        listed, section = {}, None
        for line in config.__doc__.splitlines():
            words = line.split()
            if words and words[0].startswith("[") and words[0].endswith("]"):
                section = words.pop(0)[1:-1]
            elif not line.startswith("    "):
                section = None
            if section is not None:
                listed.setdefault(section, set()).update(words)
        for row in config._KEYS:
            assert row.key in listed.get(row.section, set()), (row.section, row.key)
