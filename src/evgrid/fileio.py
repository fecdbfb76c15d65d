"""Shared delimited-file helpers with bit-exact float round-tripping.

Every writer in the package formats floats with ``repr`` (shortest string
that parses back to the same double), so rerunning a deterministic pipeline
produces byte-identical files.  Cells are not quoted, so every writer of
ev_ids rejects one with a comma or a line break before it opens its file
(``check_ev_ids``); no reader can return one.  Every
reader goes through ``read_table``, which streams the data rows from the open
file.  The reader that splits a row checks its cell count against the header
and reports a bad row as ``path:line``: ``read_rows`` also a row that does not
parse, the schedule reader one with a bad bus or kW cell.  Schedule files are
read in blocks of rows (``read_schedule_blocks``), so a caller that only sums
them never holds the whole per-EV matrix.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterator

import numpy as np

_BREAKS = (",", "\n", "\r")


def check_ev_ids(ev_ids) -> None:
    """Raise ValueError on the first ev_id that would not survive being
    written as one unquoted cell."""
    for ev_id in ev_ids:
        if any(ch in ev_id for ch in _BREAKS):
            raise ValueError(f"ev_id {ev_id!r} contains a comma or line break")


def fmt(x) -> str:
    """Canonical text form: shortest exact representation for floats."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_lines(path: str | os.PathLike, header: list[str], lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_rows(path: str | os.PathLike, header: list[str], rows) -> None:
    _write_lines(path, header, (",".join(map(fmt, row)) for row in rows))


def read_table(path: str | os.PathLike) -> tuple[list[str], Iterator[tuple[int, str]]]:
    """Header cells and an iterator over the ``(line number, text)`` of every
    data row, read from the open file as it is consumed; blank lines are
    skipped.  The rows' cell counts are the caller's to check."""
    numbered = _numbered_lines(path)
    try:
        _, first = next(numbered)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    return [h.strip() for h in first.split(",")], numbered


def _numbered_lines(path) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if not line.isspace():
                yield n, line.rstrip("\n")


def read_rows(path: str | os.PathLike, expected_header: list[str], parse) -> list:
    """``parse(cells)`` for every data row, in file order.  A row whose cell
    count differs from the header's, or for which ``parse`` raises a
    ValueError, is reported at its ``path:line``."""
    header, rows = read_table(path)
    if header != expected_header:
        raise ValueError(f"{path}: expected header {expected_header}, got {header}")
    parsed = []
    for n, line in rows:
        cells = line.split(",")
        try:
            _check_cells(cells, len(header))
            parsed.append(parse(cells))
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
    return parsed


def _check_cells(cells: list[str], expected: int) -> None:
    if len(cells) != expected:
        raise ValueError(f"{len(cells)} cells, header has {expected}")


# --- schedules: one row per EV, wide slot columns ---------------------------

def schedule_header(slots: int) -> list[str]:
    return ["ev_id", "bus_id"] + [f"kw_{t}" for t in range(slots)]


def write_schedules(path, ev_ids: list[str], bus_ids: list[int],
                    profiles_kw: np.ndarray) -> None:
    """Per-EV charging profiles in kW; one column per slot."""
    check_ev_ids(ev_ids)
    # each row's tolist() yields Python floats, so repr is fmt's float rule
    # without a numpy scalar per cell, and only one row's floats are alive
    lines = (
        ",".join([fmt(ev_id), fmt(bus_id), *map(repr, row.tolist())])
        for ev_id, bus_id, row in zip(ev_ids, bus_ids, profiles_kw)
    )
    _write_lines(path, schedule_header(profiles_kw.shape[1]), lines)


_BLOCK_ROWS = 2048


def read_schedule_blocks(path) -> Iterator[tuple[list[str], list[int], np.ndarray]]:
    """``(ev_ids, bus_ids, profiles_kw)`` for consecutive blocks of at most
    ``_BLOCK_ROWS`` rows, in file order; a file with no rows yields none."""
    return _schedule_blocks(path)[1]


def read_schedules(path) -> tuple[list[str], list[int], np.ndarray]:
    slots, blocks = _schedule_blocks(path)
    ev_ids, bus_ids, profiles = [], [], [np.zeros((0, slots))]
    for block_ids, block_buses, block_kw in blocks:
        ev_ids += block_ids
        bus_ids += block_buses
        profiles.append(block_kw)
    return ev_ids, bus_ids, np.concatenate(profiles)


def _schedule_blocks(path) -> tuple[int, Iterator]:
    """The slot count from the header, and the row blocks still to be read."""
    header, rows = read_table(path)
    slots = len(header) - 2
    if slots < 0 or header != schedule_header(slots):
        raise ValueError(f"{path}: expected header ev_id,bus_id,kw_0..kw_<T-1>, got {header}")

    def blocks():
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            yield _parse_schedule_rows(path, block, slots)

    return slots, blocks()


def _parse_schedule_rows(path, rows, slots: int) -> tuple[list[str], list[int], np.ndarray]:
    split = [line.split(",", 2) for _, line in rows]     # ev_id, bus_id, kW cells
    try:
        bus_ids = [int(cells[1]) for cells in split]
        tails = [cells[2] for cells in split] if slots else []
        # loadtxt would skip an empty tail, not parse it; with no slots, any
        # third cell is one too many
        if "" in tails or (not slots and max(map(len, split)) > 2):
            raise ValueError("bad schedule row")
        # one C-level parse of the block's kW cells, exact like float()
        profiles = (np.loadtxt(tails, delimiter=",", comments=None, ndmin=2)
                    if slots else np.zeros((len(rows), 0)))
        if profiles.shape[1] != slots or not np.isfinite(profiles).all():
            raise ValueError("bad schedule block")
    except (IndexError, ValueError):
        for n, line in rows:                 # name the first bad row
            cells = line.split(",")
            try:
                _check_cells(cells, slots + 2)
                int(cells[1])
                kw = cells[2:]
                bad = np.flatnonzero(~np.isfinite(np.array(kw, dtype=float)))
                if bad.size:
                    raise ValueError(f"kw_{bad[0]} {kw[bad[0]]} is not finite")
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None
        raise
    return [cells[0] for cells in split], bus_ids, profiles


# --- convergence traces ------------------------------------------------------

def write_traces(path, traces) -> None:
    """Traces for consecutive horizon steps; step index is 1-based."""
    rows = []
    for step, trace in enumerate(traces, start=1):
        for it, (residual, objective) in enumerate(zip(trace.residuals, trace.objectives)):
            rows.append([step, it, residual, objective])
    write_rows(path, ["step", "iteration", "residual", "objective"], rows)


# --- plot-ready aggregates ---------------------------------------------------

def write_system_aggregate(path, base_mw, uncoordinated_mw, coordinated_mw) -> None:
    rows = (
        [t, *cells]
        for t, cells in enumerate(zip(base_mw.tolist(), uncoordinated_mw.tolist(),
                                      coordinated_mw.tolist()))
    )
    write_rows(path, ["slot", "base_mw", "uncoordinated_total_mw", "coordinated_total_mw"], rows)


def write_bus_aggregate(path, bus_ids, base_mw, uncoordinated_mw, coordinated_mw) -> None:
    """Per-bus loads; row k of each (buses, T) array belongs to ``bus_ids[k]``."""
    rows = (
        [bus, t, *cells]
        for bus, base, unc, coord in zip(bus_ids, base_mw.tolist(), uncoordinated_mw.tolist(),
                                         coordinated_mw.tolist())
        for t, cells in enumerate(zip(base, unc, coord))
    )
    write_rows(
        path,
        ["bus_id", "slot", "base_mw", "uncoordinated_total_mw", "coordinated_total_mw"],
        rows,
    )
