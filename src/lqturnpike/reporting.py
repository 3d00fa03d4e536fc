"""Deterministic CSV emission shared by the command-line front end and the gate.

:func:`turnpike_tables` and :func:`yosida_tables` are the one statement of
the files of a turnpike run and of a Yosida study, which the CLI and the
acceptance suite both write: ``{file name: (header, rows)}`` in order.

All floating-point values are rendered with 17 significant digits, which
round-trips IEEE doubles exactly, so identical runs produce byte-identical
files.

A per-node table (:func:`turnpike_report_rows`, :func:`trajectory_rows`,
:func:`dre_rows`) on N + 1 nodes writes every s-th node and the last one,
with s = ceil(N / 2000) (:func:`node_indices`), so it holds at most 2,001
nodes; a table with N <= 2000 writes every node.  The nodes a table omits
are kept whole by :func:`sha256_digest` of the full-resolution arrays,
which the turnpike summary writes as its ``sha256`` column and the CLI
records in the run manifest.
"""

from __future__ import annotations

import hashlib
import itertools
import operator

import numpy as np

__all__ = [
    "format_value",
    "node_indices",
    "sha256_digest",
    "render_csv",
    "write_csv",
    "stationary_rows",
    "dynamic_study_rows",
    "trajectory_rows",
    "dre_rows",
    "are_rows",
    "turnpike_report_rows",
    "turnpike_summary_rows",
    "horizon_label",
    "turnpike_tables",
    "yosida_tables",
]


def format_value(value) -> str:
    """The CSV text of one value: the definition every cell follows."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _column_format(kinds):
    """Printf format of a column whose values have the types ``kinds``.

    ``'%.17g' % v`` equals ``f"{float(v):.17g}"`` and ``'%d' % v`` equals
    ``str(int(v))``, so the typed formats write what :func:`format_value`
    writes.  None for a bool or mixed column, which goes through
    :func:`format_value`.
    """
    if all(issubclass(k, (float, np.floating)) for k in kinds):
        return "%.17g"
    if all(issubclass(k, (int, np.integer)) and k is not bool for k in kinds):
        return "%d"
    if all(issubclass(k, str) for k in kinds):
        return "%s"
    return None


def render_csv(header, rows) -> str:
    """CSV text of a header and a list of rows of its length, one line each.

    Every cell reads as :func:`format_value` writes it.  The format is
    chosen once per column from the set of value types in that column:
    ``%.17g`` for floats, ``%d`` for integers and ``%s`` for strings,
    while bool and mixed columns are mapped through :func:`format_value`.
    Each row is then rendered with one ``%`` of the joined formats, off
    the rows themselves unless a column is mapped.
    """
    formats = [
        _column_format(set(map(type, map(operator.itemgetter(k), rows))))
        for k in range(len(header))
    ]
    mapped = {k for k, fmt in enumerate(formats) if fmt is None}
    if mapped:
        rows = [
            tuple(format_value(v) if k in mapped else v for k, v in enumerate(row))
            for row in rows
        ]
    line = ",".join(fmt or "%s" for fmt in formats)
    lines = [",".join(header)]
    lines.extend(line % row for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_csv(header, rows))


# A per-node table spans at most this many node intervals.
_MAX_NODE_INTERVALS = 2000


def node_indices(nodes: int) -> np.ndarray:
    """The nodes a per-node table on ``nodes`` nodes writes.

    Every s-th node and the last, with s = ceil(N / 2000) for N = nodes - 1
    intervals: at most 2,001 nodes, and every node when N <= 2000.
    """
    intervals = nodes - 1
    stride = max(1, -(-intervals // _MAX_NODE_INTERVALS))
    index = np.arange(0, nodes, stride)
    if index[-1] != intervals:
        index = np.append(index, intervals)
    return index


def sha256_digest(*arrays) -> str:
    """Hex SHA-256 of the arrays' little-endian float64 bytes, in order.

    Each array is hashed through its buffer, with no copy when it is
    already contiguous little-endian float64.
    """
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<f8"))
    return digest.hexdigest()


def stationary_rows(triple):
    header = ["quantity", "index", "value"]
    rows = []
    for name, vec in (
        ("x_bar", triple.x_bar),
        ("u_bar", triple.u_bar),
        ("y_bar", triple.y_bar),
    ):
        rows.extend((name, i, v) for i, v in enumerate(vec))
    rows.append(("residual_constraint", 0, triple.residual_constraint))
    rows.append(("residual_adjoint", 0, triple.residual_adjoint))
    rows.append(("residual_control", 0, triple.residual_control))
    return header, rows


def dynamic_study_rows(rows):
    return ["k", "err_u_l2", "err_x_max", "err_y_max"], rows


def _repeat_each(values, count):
    """Each of ``values`` ``count`` times in a row (the same object each time)."""
    return itertools.chain.from_iterable(itertools.repeat(v, count) for v in values)


def trajectory_rows(traj):
    """One row per written node and component of x, then y, then u."""
    header = ["t", "kind", "index", "value"]
    nodes = node_indices(traj.grid.size)
    times = traj.grid[nodes].tolist()
    rows = []
    for kind, samples in (("x", traj.x), ("y", traj.y), ("u", traj.u)):
        width = samples.shape[1]
        rows.extend(
            zip(
                _repeat_each(times, width),
                itertools.repeat(kind),
                itertools.cycle(range(width)),
                samples[nodes].ravel().tolist(),
            )
        )
    return header, rows


def dre_rows(dre):
    """One row per written node and entry (i, j) of P, row by row."""
    header = ["t", "i", "j", "value"]
    nodes = node_indices(dre.grid.size)
    n = dre.p_samples.shape[1]
    rows = zip(
        _repeat_each(dre.grid[nodes].tolist(), n * n),
        itertools.cycle(_repeat_each(range(n), n)),
        itertools.cycle(range(n)),
        dre.p_samples[nodes].ravel().tolist(),
    )
    return header, list(rows)


def are_rows(are):
    header = ["quantity", "i", "j", "value"]
    n = are.p.shape[0]
    rows = [("p", i, j, are.p[i, j]) for i in range(n) for j in range(n)]
    rows.append(("residual", 0, 0, are.residual))
    rows.append(("closed_loop_abscissa", 0, 0, are.closed_loop_abscissa))
    return header, rows


def turnpike_report_rows(report):
    """One row per written node, of Python floats.

    ``tolist`` columns build and render faster than numpy scalars, and
    ``%.17g`` writes the same text for both.
    """
    header = ["T", "t", "gap_x", "gap_y", "gap_u_window", "h_norm"]
    nodes = node_indices(report.trajectory.grid.size)
    columns = (
        report.trajectory.grid,
        report.gap_x,
        report.gap_y,
        report.gap_u_window,
        report.h_norm,
    )
    rows = zip(itertools.repeat(report.horizon), *(c[nodes].tolist() for c in columns))
    return header, list(rows)


def turnpike_summary_rows(reports):
    """One row per report; ``sha256`` digests its full-resolution arrays.

    The digest covers the trajectory's grid, x, y and u, then gap_x, gap_y,
    gap_u_window and h_norm, so it changes with any node the strided
    ``turnpike_T*.csv`` omits.
    """
    header = ["T", "fitted_c", "fitted_lambda", "lambda_reference",
              "propagation_residual", "c_min", "sha256"]
    rows = [
        (
            r.horizon,
            r.fitted_c,
            r.fitted_lambda,
            r.lambda_reference,
            r.propagation_residual,
            r.c_min,
            sha256_digest(
                r.trajectory.grid, r.trajectory.x, r.trajectory.y, r.trajectory.u,
                r.gap_x, r.gap_y, r.gap_u_window, r.h_norm,
            ),
        )
        for r in reports
    ]
    return header, rows


def horizon_label(horizon) -> str:
    """``T{T:g}``, the label that names a horizon's turnpike table."""
    return f"T{horizon:g}"


def turnpike_tables(reports) -> dict:
    """``turnpike_T*.csv`` for each report in order, then ``turnpike_summary.csv``."""
    tables = {f"turnpike_{horizon_label(r.horizon)}.csv": turnpike_report_rows(r) for r in reports}
    tables["turnpike_summary.csv"] = turnpike_summary_rows(reports)
    return tables


def yosida_tables(stat_rows, dyn_rows) -> dict:
    """The stationary and dynamic Yosida studies' tables."""
    return {
        "yosida_stationary.csv": (["k", "err_x", "err_u", "err_y"], stat_rows),
        "yosida_dynamic.csv": dynamic_study_rows(dyn_rows),
    }
