"""Command-line front end: scenario runs, verification suites, CSV emission.

Subcommands
-----------
stationary : solve the steady-state problem and write the triple
solve      : solve one finite-horizon tracking problem and write the trajectory
riccati    : solve the algebraic and differential Riccati equations
turnpike   : run the turnpike verification over the configured horizons
yosida     : run the stationary and dynamic smoothing convergence studies
verify     : run the acceptance suite (quick or full)

Every command accepts ``--config`` (JSON, see the README for the schema)
plus targeted overrides, writes its CSV outputs and a JSON run manifest
into the output directory, and follows one exit-code contract:
0 success, 1 check failure, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys as _sys
import time

import numpy as np
import scipy

from . import __version__, reporting
from ._blas import serial_blas, thread_counts
from .errors import InputError, LqTurnpikeError
from .lq import cost
from .riccati import solve_are, solve_dre
from .scenarios import ExperimentConfig, _read_json, build_scenario, config_from_dict
from .stationary import solve_stationary, stationary_convergence_study
from .turnpike import SOLVERS, verify_turnpike, yosida_dynamic_study
from .verification import check_determinism, run_suite, suite_tables

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

# The KKT residual bound of `stationary`'s exit code, relative to max(1, |z|).
_KKT_TOL = 1e-10

# The largest max/min of the envelope constants c_min over a `turnpike` run's
# horizons that exits 0.  Looser than criterion 7's 1.01 on the scalar
# problem, since a user's problem may carry more rounding into c.
_C_SPREAD_LIMIT = 2.0


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and kibibytes elsewhere.
    return peak / (2**20 if _sys.platform == "darwin" else 2**10)


class _Manifest:
    """Collects timings and output paths; written as manifest.json.

    :meth:`write` writes ``{name: (header, rows)}`` maps, the shape of
    :func:`~lqturnpike.reporting.turnpike_tables`, and ``outputs`` lists
    their names in order.  ``digests`` maps the per-node CSVs of ``solve``
    and ``riccati``, which may be strided
    (:func:`~lqturnpike.reporting.node_indices`), to the
    :func:`~lqturnpike.reporting.sha256_digest` of their full-resolution
    arrays.  The manifest also records the Python, numpy and scipy versions, the
    thread count of each OpenBLAS pool (by library basename; empty when none
    is found) and the process's peak resident set size when it is written.
    Its ``config`` holds the values the scenario read, with the built n and
    m (:meth:`ExperimentConfig.read_values`), and is None for a command that
    reads no configuration.  The output directory is made at the first
    write, so a command that fails before it writes leaves none behind.
    """

    def __init__(self, command: str, config: ExperimentConfig | None, out_dir: str):
        self.command = command
        self.config = config
        self.out_dir = out_dir
        self.timings = {}
        self.outputs = []
        self.digests = {}
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = time.perf_counter() - start

    def _path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)

    def write(self, tables: dict, digests=None) -> None:
        """Write each ``{name: (header, rows)}`` table and record ``digests``, if any."""
        for name, (header, rows) in tables.items():
            reporting.write_csv(self._path(name), header, rows)
        self.outputs.extend(tables)
        self.digests.update(digests or {})

    def finalize(self) -> None:
        payload = {
            "command": self.command,
            "config": None if self.config is None else self.config.read_values(),
            "version": __version__,
            "timings_s": {k: round(v, 6) for k, v in self.timings.items()},
            "total_s": round(time.perf_counter() - self._t0, 6),
            "outputs": self.outputs,
            "digests": self.digests,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas": thread_counts(),
            },
            "peak_rss_mb": round(_peak_rss_mb(), 3),
        }
        with open(self._path("manifest.json"), "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")


def _resolve_config(args) -> ExperimentConfig:
    """The config file (default: scalar) with the flag overrides merged in, parsed once."""
    raw = _read_json(args.config) if args.config is not None else {"scenario": "scalar"}
    overrides = {
        "horizons": args.horizon, "dt": args.dt, "seed": args.seed, "output_dir": args.out,
    }
    if isinstance(raw, dict):  # otherwise config_from_dict reports the root
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    return config_from_dict(raw)


def _prepare(args, command: str):
    """The config, its problem (built in the manifest's ``build`` stage) and the run's manifest."""
    config = _resolve_config(args)
    manifest = _Manifest(command, config, config.output_dir)
    with manifest.stage("build"):
        prob = build_scenario(config)
    return config, prob, manifest


def cmd_stationary(args) -> int:
    _, prob, manifest = _prepare(args, "stationary")
    with manifest.stage("solve"):
        triple = solve_stationary(prob.sys, prob.target)
    with manifest.stage("emit"):
        manifest.write({"stationary.csv": reporting.stationary_rows(triple)})
    manifest.finalize()
    scale = max(1.0, float(np.linalg.norm(prob.target)))
    worst = max(
        triple.residual_constraint, triple.residual_adjoint, triple.residual_control
    )
    if worst > _KKT_TOL * scale:
        print(
            f"stationary: KKT residual {worst:.3e} above tolerance {_KKT_TOL:.1e}",
            file=_sys.stderr,
        )
        return EXIT_CHECK_FAILED
    print(f"stationary: residuals <= {worst:.3e}, wrote {manifest.outputs}")
    return EXIT_OK


def cmd_solve(args) -> int:
    config, prob, manifest = _prepare(args, "solve")
    with manifest.stage("solve"):
        traj = SOLVERS[config.solver](prob)
    with manifest.stage("emit"):
        manifest.write(
            {"trajectory.csv": reporting.trajectory_rows(traj)},
            {"trajectory.csv": reporting.sha256_digest(traj.grid, traj.x, traj.y, traj.u)},
        )
        value = cost(prob, traj)
    manifest.finalize()
    print(f"solve: method={traj.method} T={prob.horizon} cost={value:.12g}")
    return EXIT_OK


def cmd_riccati(args) -> int:
    _, prob, manifest = _prepare(args, "riccati")
    with manifest.stage("dre"):  # first, so the sample guard refuses before the ARE
        dre = solve_dre(prob)
    with manifest.stage("are"):
        are = solve_are(prob.sys)
    with manifest.stage("emit"):
        manifest.write(
            {"are.csv": reporting.are_rows(are), "dre.csv": reporting.dre_rows(dre)},
            {"dre.csv": reporting.sha256_digest(dre.grid, dre.p_samples)},
        )
    manifest.finalize()
    print(
        f"riccati: residual={are.residual:.3e} abscissa={are.closed_loop_abscissa:.6g}"
    )
    return EXIT_OK


def cmd_turnpike(args) -> int:
    config, prob, manifest = _prepare(args, "turnpike")
    with manifest.stage("pipeline"):
        reports = verify_turnpike(prob, config.horizons, solver=config.solver)
    with manifest.stage("emit"):
        manifest.write(reporting.turnpike_tables(reports))
    manifest.finalize()
    for report in reports:
        print(
            f"turnpike T={report.horizon:g}: lambda={report.fitted_lambda:.6g} "
            f"(reference {report.lambda_reference:.6g}) c={report.c_min:.6g}"
        )
    c_values = [r.c_min for r in reports]
    if max(c_values) == 0.0:
        print("turnpike: x0 is on the turnpike, so every c is 0 and there is no spread")
        return EXIT_OK
    spread = max(c_values) / min(c_values)
    print(f"turnpike: c spread = {spread:.6g} (limit {_C_SPREAD_LIMIT:g})")
    return EXIT_OK if spread <= _C_SPREAD_LIMIT else EXIT_CHECK_FAILED


def cmd_yosida(args) -> int:
    config, prob, manifest = _prepare(args, "yosida")
    with manifest.stage("stationary-study"):
        stat_rows = stationary_convergence_study(prob.sys, prob.target, config.ks)
    with manifest.stage("dynamic-study"):
        dyn_rows = yosida_dynamic_study(prob, config.ks, solver=config.solver)
    with manifest.stage("emit"):
        manifest.write(reporting.yosida_tables(stat_rows, dyn_rows))
    manifest.finalize()
    print(
        f"yosida: stationary errors {stat_rows[0][1]:.3e} -> {stat_rows[-1][1]:.3e}, "
        f"dynamic control errors {dyn_rows[0][1]:.3e} -> {dyn_rows[-1][1]:.3e}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    manifest = _Manifest(f"verify-{args.suite}", None, args.out)
    with manifest.stage("suite"):
        results = run_suite(args.suite, out_dir=args.out)
    manifest.outputs = list(suite_tables(results))
    with manifest.stage("determinism"):
        determinism = check_determinism(args.suite, results, manifest.timings["suite"])
    determinism.runtime = manifest.timings["determinism"]
    results.append(determinism)
    for result in results:
        print(result.line())
    manifest.finalize()
    failed = [r.criterion for r in results if not r.passed]
    if failed:
        print(f"verify: FAILED criteria: {', '.join(failed)}", file=_sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"verify: all {len(results)} criteria passed ({args.suite} suite)")
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--config", help="path to a JSON experiment configuration")
    parser.add_argument(
        "--T",
        dest="horizon",
        action="append",
        type=float,
        help="horizon override; repeat for a list",
    )
    parser.add_argument("--dt", type=float, help="time step override")
    parser.add_argument("--seed", type=int, help="seed override (random_stable only)")
    parser.add_argument(
        "--out", help="output directory override (default: the config's output_dir)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqturnpike",
        description="Linear-quadratic optimal control and turnpike verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("stationary", cmd_stationary),
        ("solve", cmd_solve),
        ("riccati", cmd_riccati),
        ("turnpike", cmd_turnpike),
        ("yosida", cmd_yosida),
    ):
        sp = sub.add_parser(name, help=f"run the {name} pipeline")
        _add_common(sp)
        if fn is cmd_turnpike:  # perfbench passes --jobs 1; sweeps run on this thread
            sp.add_argument("--jobs", type=int, choices=(1,), help=argparse.SUPPRESS)
        sp.set_defaults(func=fn)

    vp = sub.add_parser("verify", help="run the acceptance suite")
    vp.add_argument("suite", choices=("quick", "full"), help="suite flavor")
    vp.add_argument("--out", default="out", help="output directory (default: out)")
    vp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command on one BLAS thread (see :mod:`lqturnpike._blas`)."""
    with serial_blas():
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except (InputError, OSError) as exc:
            print(f"error: {exc}", file=_sys.stderr)
            return EXIT_INPUT_ERROR
        except LqTurnpikeError as exc:
            print(f"error: {exc}", file=_sys.stderr)
            return EXIT_INTERNAL_ERROR
        except Exception as exc:  # pragma: no cover - defensive
            print(f"internal error: {exc!r}", file=_sys.stderr)
            return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
