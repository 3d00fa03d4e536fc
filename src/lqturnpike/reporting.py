"""Deterministic CSV emission shared by the command-line front end.

All floating-point values are rendered with 17 significant digits, which
round-trips IEEE doubles exactly, so identical runs produce byte-identical
files.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "format_value",
    "render_csv",
    "write_csv",
    "stationary_rows",
    "study_rows",
    "dynamic_study_rows",
    "trajectory_rows",
    "dre_rows",
    "are_rows",
    "turnpike_report_rows",
    "turnpike_summary_rows",
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


def _column_format(column):
    """Printf format of one column and the values it is applied to.

    ``'%.17g' % v`` equals ``f"{float(v):.17g}"`` and ``'%d' % v`` equals
    ``str(int(v))``, so the typed formats write what :func:`format_value`
    writes.
    """
    kinds = set(map(type, column))
    if all(issubclass(k, (float, np.floating)) for k in kinds):
        return "%.17g", column
    if all(issubclass(k, (int, np.integer)) and k is not bool for k in kinds):
        return "%d", column
    if all(issubclass(k, str) for k in kinds):
        return "%s", column
    return "%s", tuple(map(format_value, column))


def render_csv(header, rows) -> str:
    """CSV text of a header and rows of equal length, one line each.

    Every cell reads as :func:`format_value` writes it.  The format is
    chosen once per column from the set of value types in that column:
    ``%.17g`` for floats, ``%d`` for integers and ``%s`` for strings,
    while bool and mixed columns are mapped through :func:`format_value`.
    Each row is then rendered with one ``%`` of the joined formats.
    """
    typed = [_column_format(column) for column in zip(*rows)]
    line = ",".join(fmt for fmt, _ in typed)
    lines = [",".join(header)]
    lines.extend(line % row for row in zip(*(values for _, values in typed)))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_csv(header, rows))


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


def study_rows(rows):
    return ["k", "err_x", "err_u", "err_y"], rows


def dynamic_study_rows(rows):
    return ["k", "err_u_l2", "err_x_max", "err_y_max"], rows


def trajectory_rows(traj):
    header = ["t", "kind", "index", "value"]
    rows = []
    for kind, samples in (("x", traj.x), ("y", traj.y), ("u", traj.u)):
        for t, vec in zip(traj.grid, samples):
            rows.extend((t, kind, i, v) for i, v in enumerate(vec))
    return header, rows


def dre_rows(dre):
    header = ["t", "i", "j", "value"]
    rows = []
    n = dre.p_samples.shape[1]
    for t, sample in zip(dre.grid, dre.p_samples):
        rows.extend((t, i, j, sample[i, j]) for i in range(n) for j in range(n))
    return header, rows


def are_rows(are):
    header = ["quantity", "i", "j", "value"]
    n = are.p.shape[0]
    rows = [("p", i, j, are.p[i, j]) for i in range(n) for j in range(n)]
    rows.append(("residual", 0, 0, are.residual))
    rows.append(("closed_loop_abscissa", 0, 0, are.closed_loop_abscissa))
    return header, rows


def turnpike_report_rows(report):
    """One row per node, of Python floats.

    ``tolist`` columns build and render faster than numpy scalars, and
    ``%.17g`` writes the same text for both.
    """
    header = ["T", "t", "gap_x", "gap_y", "gap_u_window", "h_norm"]
    columns = (
        report.trajectory.grid,
        report.gap_x,
        report.gap_y,
        report.gap_u_window,
        report.h_norm,
    )
    rows = list(zip(itertools.repeat(report.horizon), *(c.tolist() for c in columns)))
    return header, rows


def turnpike_summary_rows(reports):
    header = [
        "T",
        "fitted_c",
        "fitted_lambda",
        "lambda_reference",
        "propagation_residual",
        "c_min",
    ]
    rows = [
        (
            r.horizon,
            r.fitted_c,
            r.fitted_lambda,
            r.lambda_reference,
            r.propagation_residual,
            r.c_min,
        )
        for r in reports
    ]
    return header, rows
