"""Run one ``micpsim`` command inside a benchmark subprocess.

    python3 bench/child.py MODE RECORD -- CLI-ARGS...

MODE is one of

``plain``
    Run the command as the ``micpsim`` console script does, with nothing
    wrapped. Timing runs use this mode.
``setup``
    Run the command until its first call into a solver, write the
    system-wide monotonic clock at that moment to RECORD and exit. The
    parent subtracts its own clock reading taken just before the spawn,
    which gives interpreter start, imports, config parse and
    ``build_domain``.
``trace``
    Wrap the calls into each package module in timing spans, run the
    command, and write the span totals and work counters to RECORD.

The package is imported from ``src/`` next to this directory; a child
that finds it anywhere else exits with code 97.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WRONG_PACKAGE = 97


class Tracer:
    """In-memory span totals, keyed by span name.

    A span's self time is its duration minus the durations of the spans
    that ran inside it. Durations of every call are kept per span so the
    parent can take percentiles.
    """

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._open: list[float] = []  # child time of each open span

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def run(self, name, fn, args, kwargs):
        start = time.perf_counter()
        self._open.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            inner = self._open.pop()
            if self._open:
                self._open[-1] += dur
            rec = self.spans.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - inner
            rec["durations"].append(dur)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` by a spanned call.

        ``after(result, args, kwargs)`` runs outside the span and returns
        the value handed back to the caller.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            print(f"trace: {module.__name__}.{attr} not found; span {name} "
                  "is missing", file=sys.stderr)
            self.missing.append(name)
            return

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            result = self.run(name, fn, args, kwargs)
            return result if after is None else after(result, args, kwargs)

        setattr(module, attr, spanned)


class _SpannedLU:
    """Factorisation handle whose ``solve`` runs in a span."""

    def __init__(self, lu, tracer: Tracer, span: str):
        self._lu = lu
        self._tracer = tracer
        self._span = span

    def solve(self, *args, **kwargs):
        return self._tracer.run(self._span, self._lu.solve, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _install(tracer: Tracer, cli) -> None:
    import micpsim.co2 as co2
    import micpsim.micp as micp

    def grid_counts(grid, args, kwargs):
        tracer.peak("grid.cells", grid.n_active)
        tracer.peak("grid.faces", grid.n_ifaces + grid.bface_cell.size)
        return grid

    def step_outcome(prefix):
        def after(result, args, kwargs):
            report = result[1]
            if report.converged:
                tracer.count(f"{prefix}.steps")
                tracer.count(f"{prefix}.newton_iters", report.iterations)
            else:
                tracer.count(f"{prefix}.failed_steps")
                tracer.count(f"{prefix}.wasted_iters", report.iterations)
            return result
        return after

    def jacobian_count(result, args, kwargs):
        if result[1] is not None:
            tracer.count("micp.jacobians")
        return result

    def spanned_lu(prefix):
        def after(lu, args, kwargs):
            # SuperLU's own count of stored L and U entries
            tracer.peak(f"{prefix}.lu_fill_nnz", int(lu.nnz))
            return _SpannedLU(lu, tracer, f"{prefix}.lu_solve")
        return after

    def written_bytes(index):
        def after(result, args, kwargs):
            path = args[index] if len(args) > index else kwargs["path"]
            tracer.count("vtkio.bytes_written", os.path.getsize(path))
            return result
        return after

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "parse_config", "config.parse")
    tracer.wrap(cli, "build_domain", "grid.build", grid_counts)
    tracer.wrap(cli, "simulate_micp", "micp.loop")
    tracer.wrap(cli, "simulate_co2", "co2.loop")
    tracer.wrap(cli, "write_snapshot", "vtkio.write", written_bytes(3))
    tracer.wrap(cli, "write_timeseries", "vtkio.write", written_bytes(0))
    tracer.wrap(micp, "solve_timestep", "micp.step", step_outcome("micp"))
    tracer.wrap(micp, "_eval_system", "micp.eval", jacobian_count)
    tracer.wrap(micp, "_rates", "kinetics.rates")
    tracer.wrap(micp, "_rate_jacobian", "kinetics.rate_jac")
    tracer.wrap(micp, "splu", "micp.lu_factor", spanned_lu("micp"))
    tracer.wrap(co2, "solve_twophase_step", "co2.step", step_outcome("co2"))
    tracer.wrap(co2, "_eval_twophase", "co2.eval")
    tracer.wrap(co2, "splu", "co2.lu_factor", spanned_lu("co2"))
    tracer.wrap(co2, "leakage_flux", "co2.leak")


class _SetupDone(Exception):
    pass


def _stop_at_solver(*args, **kwargs):
    raise _SetupDone(time.clock_gettime(time.CLOCK_MONOTONIC))


def main() -> int:
    mode, record = sys.argv[1], Path(sys.argv[2])
    if sys.argv[3] != "--" or mode not in ("plain", "setup", "trace"):
        print("usage: child.py plain|setup|trace RECORD -- CLI-ARGS...",
              file=sys.stderr)
        return 2
    argv = sys.argv[4:]
    sys.path.insert(0, str(SRC))
    from micpsim import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"micpsim imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return WRONG_PACKAGE
    if mode == "plain":
        return cli.main(argv)
    if mode == "setup":
        cli.simulate_micp = cli.simulate_co2 = _stop_at_solver
        try:
            code = cli.main(argv)
        except _SetupDone as done:
            record.write_text(json.dumps({"setup_mark": done.args[0]}))
            return 0
        print("the command returned before reaching a solver", file=sys.stderr)
        return code or 1
    tracer = Tracer()
    _install(tracer, cli)
    code = cli.main(argv)
    record.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts,
                                  "missing": tracer.missing}))
    return code


if __name__ == "__main__":
    sys.exit(main())
