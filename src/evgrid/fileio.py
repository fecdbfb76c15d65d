"""Shared delimited-file helpers with bit-exact float round-tripping.

Every writer in the package formats floats with ``repr`` (shortest string
that parses back to the same double), so rerunning a deterministic pipeline
produces byte-identical files.  Cells are not quoted, so text written as a
cell must not contain a comma or a line break (see ``is_plain_cell``).  Every
reader goes through ``read_table``, which streams the data rows from the open
file, checks each row's cell count against the header and reports a bad row
as ``path:line``; ``read_rows`` locates a row that does not parse the same
way.  Schedule files are read in blocks of rows
(``read_schedule_blocks``), so a caller that only sums them never holds the
whole per-EV matrix.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterator

import numpy as np

_BREAKS = (",", "\n", "\r")


def is_plain_cell(text: str) -> bool:
    """True when ``text`` survives being written as one unquoted cell."""
    return not any(ch in text for ch in _BREAKS)


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
    data row, read from the open file as it is consumed.

    Blank lines are skipped.  A data row whose cell count differs from the
    header's is an error located at its ``path:line``.
    """
    numbered = _numbered_lines(path)
    try:
        _, first = next(numbered)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    header = [h.strip() for h in first.split(",")]
    return header, _checked_rows(path, numbered, len(header))


def _numbered_lines(path) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if not line.isspace():
                yield n, line.rstrip("\n")


def _checked_rows(path, numbered, cells: int) -> Iterator[tuple[int, str]]:
    commas = cells - 1
    for n, line in numbered:
        if line.count(",") != commas:
            raise ValueError(f"{path}:{n}: {line.count(',') + 1} cells, header has {cells}")
        yield n, line


def read_rows(path: str | os.PathLike, expected_header: list[str], parse) -> list:
    """``parse(cells)`` for every data row, in file order.  A ValueError that
    ``parse`` raises is reported at the row's ``path:line``."""
    header, rows = read_table(path)
    if header != expected_header:
        raise ValueError(f"{path}: expected header {expected_header}, got {header}")
    parsed = []
    for n, line in rows:
        try:
            parsed.append(parse(line.split(",")))
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
    return parsed


# --- schedules: one row per EV, wide slot columns ---------------------------

def schedule_header(slots: int) -> list[str]:
    return ["ev_id", "bus_id"] + [f"kw_{t}" for t in range(slots)]


def write_schedules(path, ev_ids: list[str], bus_ids: list[int],
                    profiles_kw: np.ndarray) -> None:
    """Per-EV charging profiles in kW; one column per slot."""
    slots = profiles_kw.shape[1] if len(ev_ids) else 0
    # tolist() yields Python floats, so repr is fmt's float rule without a
    # numpy scalar per cell
    lines = (
        ",".join([fmt(ev_id), fmt(bus_id), *map(repr, row)])
        for ev_id, bus_id, row in zip(ev_ids, bus_ids, profiles_kw.tolist())
    )
    _write_lines(path, schedule_header(slots), lines)


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
    heads = [line.split(",", 2)[:2] for _, line in rows]
    try:
        bus_ids = [int(bus_id) for _, bus_id in heads]
        # one C-level parse of the block's slot cells, exact like float()
        profiles = (np.loadtxt([line for _, line in rows], delimiter=",", comments=None,
                               usecols=range(2, slots + 2), ndmin=2)
                    if slots else np.zeros((len(rows), 0)))
    except ValueError:
        for n, line in rows:                 # name the first bad row
            _, bus_id, *kw = line.split(",")
            try:
                int(bus_id)
                np.array(kw, dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None
        raise
    return [ev_id for ev_id, _ in heads], bus_ids, profiles


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
