"""Legacy ASCII VTK snapshots and CSV time series.

Snapshots use DATASET STRUCTURED_GRID over the full lattice so any stock
scientific viewer opens them; inactive (caprock) cells are padded with
zeros and flagged by the ``active`` cell field. Points and cells are
listed in VTK order, x fastest, then y, then z: a cell field is the
(nx, ny, nz) lattice array flattened with ``order="F"``, and it is read
back with ``reshape(..., order="F")``. Output is byte-identical for
identical input: floats are written as ``repr(float(v))``, the shortest
form that reads back to the same double.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, MicpSimError
from .grid import Grid


def _f(v: float) -> str:
    return repr(float(v))  # shortest lossless form, <= 17 significant digits


def write_snapshot(grid: Grid, fields: dict, t: float, path) -> None:
    """Write named per-active-cell arrays as a legacy VTK structured grid.

    ``fields`` maps names to arrays of length grid.n_active. The region
    tags and the active mask are always included.
    """
    nx, ny, nz = grid.domain.nx, grid.domain.ny, grid.domain.nz
    for name, arr in fields.items():
        if np.asarray(arr).shape != (grid.n_active,):
            raise DomainError(f"field {name!r} must have one value per active cell")
    lines = [
        "# vtk DataFile Version 3.0",
        f"micpsim snapshot t={_f(t)} s",
        "ASCII",
        "DATASET STRUCTURED_GRID",
        f"DIMENSIONS {nx + 1} {ny + 1} {nz + 1}",
        f"POINTS {(nx + 1) * (ny + 1) * (nz + 1)} double",
    ]
    xs = [_f(i * grid.domain.dx) for i in range(nx + 1)]
    ys = [_f(j * grid.domain.dy) for j in range(ny + 1)]
    zs = [_f(k * grid.domain.dz) for k in range(nz + 1)]
    lines.extend(f"{x} {y} {z}" for z in zs for y in ys for x in xs)
    lines.append(f"CELL_DATA {nx * ny * nz}")

    def emit(name, full):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_f(v) for v in full.ravel(order="F"))

    emit("active", (grid.active_index >= 0).astype(float))
    emit("region", grid.shape_region.astype(float))
    for name, arr in fields.items():
        emit(name, grid.full_field(np.asarray(arr, dtype=float)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot_field(path, name: str, grid: Grid) -> np.ndarray:
    """Read one cell field back from a snapshot written by write_snapshot.

    Returns the array restricted to the active cells of ``grid``; the file
    must match the grid's lattice dimensions. A field with fewer numeric
    values than lattice cells (a truncated file, or a word among the
    numbers) raises MicpSimError with the count found and the count
    expected; a DIMENSIONS line that is not three integers raises it too.
    """
    nx, ny, nz = grid.domain.nx, grid.domain.ny, grid.domain.nz
    with open(path) as fh:
        lines = fh.read().splitlines()
    for ln in lines:
        if ln.startswith("DIMENSIONS"):
            try:
                dims = tuple(int(x) for x in ln.split()[1:4])
            except ValueError:
                raise MicpSimError(f"{path}: bad lattice line {ln!r}") from None
            if dims != (nx + 1, ny + 1, nz + 1):
                raise MicpSimError(
                    f"snapshot lattice {dims} does not match the grid "
                    f"({nx + 1}, {ny + 1}, {nz + 1})")
            break
    else:
        raise MicpSimError(f"{path}: not a structured-grid snapshot")
    try:
        start = lines.index(f"SCALARS {name} double 1") + 2
    except ValueError:
        raise MicpSimError(f"{path}: no cell field named {name!r}") from None
    n_cells = nx * ny * nz
    values = []
    for v in lines[start:start + n_cells]:
        try:
            values.append(float(v))
        except ValueError:
            break
    if len(values) != n_cells:
        raise MicpSimError(f"{path}: cell field {name!r} has {len(values)} numeric "
                           f"values, expected {n_cells}")
    full = np.reshape(values, (nx, ny, nz), order="F")
    # active cells are numbered in C order of the lattice mask, which is
    # exactly the order boolean indexing yields
    return full[grid.active_index >= 0]


def write_timeseries(path, records) -> None:
    """Write (t, named-scalars) records as CSV, lossless at 17 digits.

    ``records`` is a sequence of (time, mapping) pairs with consistent
    keys; an empty sequence yields a header-only file with just ``t``.
    """
    records = list(records)
    keys: list[str] = []
    if records:
        keys = list(records[0][1].keys())
    prev = -np.inf
    rows = []
    for t, values in records:
        if not t >= prev:  # NaN fails too
            raise DomainError("time-series records must be time-ordered")
        prev = t
        if list(values.keys()) != keys:
            raise DomainError("inconsistent column names across records")
        rows.append(",".join([_f(t)] + [_f(values[k]) for k in keys]))
    with open(path, "w") as fh:
        fh.write(",".join(["t"] + keys) + "\n")
        for row in rows:
            fh.write(row + "\n")


def read_timeseries(path):
    """Inverse of write_timeseries: (times array, dict of column arrays)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [line.strip().split(",") for line in fh if line.strip()]
    cols = np.array(data, dtype=float).reshape(len(data), len(header))
    times = cols[:, 0] if data else np.empty(0)
    return times, {name: cols[:, i + 1] if data else np.empty(0)
                   for i, name in enumerate(header[1:])}
