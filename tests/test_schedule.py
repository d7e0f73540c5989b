import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micpsim.errors import DomainError
from micpsim.schedule import (
    HOUR,
    Period,
    Schedule,
    SlugType,
    builtin_schedule,
    control_at,
    validate,
)


class TestBuiltins:
    def test_ex2_layout(self):
        s = builtin_schedule("ex2")
        assert len(s.periods) == 9
        assert s.end_time == 300.0 * HOUR
        assert s.phase_starts == (0,)
        assert validate(s) == []

    def test_ex3_layout(self):
        s = builtin_schedule("ex3")
        assert len(s.periods) == 27
        assert s.end_time == 800.0 * HOUR
        assert s.phase_starts == (0, 9, 15, 18, 24)
        labels = s.phase_labels()
        assert len(labels[2]) == 3 and labels[2][0] is SlugType.CEMENTATION
        assert len(labels[4]) == 3 and labels[4][0] is SlugType.CEMENTATION
        assert all(p.rate in (0.0, 8.70e-3) for p in s.periods)
        assert validate(s) == []

    def test_ex1_rate(self):
        s = builtin_schedule("ex1")
        assert s.periods[0].rate == 2.31e-5
        assert [p.end_time for p in s.periods] == [
            t * HOUR for t in (15, 22, 100, 130, 135, 160, 200, 210, 300)]

    def test_unknown_experiment(self):
        with pytest.raises(DomainError):
            builtin_schedule("ex9")


class TestControlAt:
    def setup_method(self):
        self.s = builtin_schedule("ex2")

    def test_empty_schedule_raises(self):
        with pytest.raises(DomainError, match="schedule has no periods"):
            control_at(Schedule(periods=()), 0.0)

    def test_microbial_slug(self):
        c = control_at(self.s, 10.0 * HOUR)
        assert c.rate == 2.31e-4
        assert c.c_m == 0.01
        assert c.c_o == c.c_u == 0.0

    def test_no_flow_rest(self):
        c = control_at(self.s, 50.0 * HOUR)
        assert c.rate == 0.0

    def test_cementation_slug(self):
        c = control_at(self.s, 180.0 * HOUR)
        assert c.c_u == 300.0
        assert c.c_m == c.c_o == 0.0
        assert c.rate == 2.31e-4

    def test_boundary_ownership(self):
        # at an end time the control belongs to the ending period
        c = control_at(self.s, 15.0 * HOUR)
        assert c.c_m == 0.01
        c = control_at(self.s, 15.0 * HOUR + 1e-6)
        assert c.c_m == 0.0

    def test_time_zero(self):
        assert control_at(self.s, 0.0).c_m == 0.01

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            control_at(self.s, 301.0 * HOUR)
        with pytest.raises(DomainError):
            control_at(self.s, -1.0)

    @given(st.integers(0, 8), st.floats(1e-6, 1.0 - 1e-9))
    @settings(max_examples=100)
    def test_piecewise_constant_within_period(self, idx, frac):
        start = 0.0 if idx == 0 else self.s.periods[idx - 1].end_time
        end = self.s.periods[idx].end_time
        t = start + frac * (end - start)
        c = control_at(self.s, t)
        assert c == control_at(self.s, end)


class TestValidate:
    def test_decreasing_times(self):
        s = builtin_schedule("ex2")
        periods = list(s.periods)
        periods[3] = Period(end_time=1.0, rate=periods[3].rate, c_m=0.0,
                            c_o=0.04, c_u=0.0, label=SlugType.GROWTH)
        bad = Schedule(periods=tuple(periods))
        assert any("non-monotone" in p for p in validate(bad))

    def test_urea_in_microbial_slug(self):
        s = builtin_schedule("ex2")
        periods = list(s.periods)
        p0 = periods[0]
        periods[0] = Period(end_time=p0.end_time, rate=p0.rate, c_m=p0.c_m,
                            c_o=0.0, c_u=300.0, label=SlugType.MICROBIAL)
        bad = Schedule(periods=tuple(periods))
        assert any("urea in microbial slug" in p for p in validate(bad))

    def test_flow_in_no_flow(self):
        s = builtin_schedule("ex2")
        periods = list(s.periods)
        p2 = periods[2]
        periods[2] = Period(end_time=p2.end_time, rate=1e-5, c_m=0.0,
                            c_o=0.0, c_u=0.0, label=SlugType.NO_FLOW)
        assert any("no-flow" in p for p in validate(Schedule(periods=tuple(periods))))

    def test_bad_grammar(self):
        s = builtin_schedule("ex2")
        truncated = Schedule(periods=s.periods[:5])
        assert any("nine sub-periods" in p for p in validate(truncated))

    def test_empty(self):
        assert validate(Schedule(periods=())) == ["schedule has no periods"]
