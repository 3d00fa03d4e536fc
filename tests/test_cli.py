import fnmatch
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lqturnpike as lab
from lqturnpike import _blas, cli, verification
from lqturnpike.cli import main
from lqturnpike.reporting import (
    dre_rows,
    format_value,
    node_indices,
    render_csv,
    trajectory_rows,
    turnpike_report_rows,
    turnpike_summary_rows,
)
from lqturnpike.scenarios import config_from_dict


CUSTOM_1X1 = {"a": [[-1.0]], "b": [[1.0]], "c": [[1.0]]}
README = Path(__file__).resolve().parents[1] / "README.md"


def sha256_of(*arrays):
    """Hex SHA-256 of the arrays' little-endian float64 bytes, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.asarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestFormatting:
    def test_float_round_trip_exact(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        for value in rng.standard_normal(200):
            value = float(value) * 10.0 ** float(rng.integers(-12, 12))
            assert float(format_value(value)) == value

    def test_bool_and_int(self):
        assert format_value(True) == "true"
        assert format_value(np.bool_(False)) == "false"
        assert format_value(np.int64(7)) == "7"

    def test_render(self):
        text = render_csv(["a", "b"], [(1, 2.5), (3, False)])
        assert text == "a,b\n1,2.5\n3,false\n"

    def test_render_matches_format_value_join(self):
        floats = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e300, 2.5]
        rng = np.random.Generator(np.random.Philox(key=2))
        columns = [
            floats,
            [np.float64(v) for v in rng.standard_normal(len(floats))],
            [np.int64(v) for v in rng.integers(-10**12, 10**12, len(floats))],
            [np.bool_(v) for v in rng.integers(0, 2, len(floats))],
            [bool(v) for v in rng.integers(0, 2, len(floats))],
            [f"s{i}" for i in range(len(floats))],
            list(range(len(floats))),
            [2.5, False, 3, "x", np.float64(-0.0), np.int64(4), True, None],
        ]
        header = [f"c{i}" for i in range(len(columns))]
        rows = list(zip(*columns))
        want = "\n".join(
            [",".join(header)] + [",".join(format_value(v) for v in row) for row in rows]
        ) + "\n"
        assert render_csv(header, rows) == want

    def test_turnpike_rows_render_as_their_numpy_scalars(self):
        # The rows hold Python floats taken off the report's arrays; the text
        # is what the arrays' numpy scalars render.
        sys_, z, x0 = lab.scalar_example()
        prob = lab.LqProblem(sys=sys_, horizon=5.0, target=z, x0=x0, dt=1e-2)
        report = lab.verify_turnpike(prob, [5.0], solver="transcription")[0]
        header, rows = turnpike_report_rows(report)
        columns = (
            report.trajectory.grid, report.gap_x, report.gap_y,
            report.gap_u_window, report.h_norm,
        )
        numpy_rows = [(report.horizon, *values) for values in zip(*columns)]
        assert isinstance(numpy_rows[1][2], np.float64)
        assert render_csv(header, rows) == render_csv(header, numpy_rows)


class TestNodeStride:
    """Per-node tables write every s-th node and the last, s = ceil(N / 2000)."""

    @pytest.fixture(scope="class")
    def scalar_runs(self, scalar):
        sys_, z, x0 = scalar
        prob = lab.LqProblem(sys=sys_, horizon=5.0, target=z, x0=x0, dt=1e-3)
        reports = lab.verify_turnpike(prob, [5.0, 10.0, 20.0], solver="transcription")
        return prob, reports

    def test_short_table_is_whole(self):
        # heat_1d(50) at T = 5, dt = 1e-2 has N = 500 <= 2000 intervals.
        sys_, z = lab.heat_1d(50)
        prob = lab.LqProblem(sys=sys_, horizon=5.0, target=z, x0=np.zeros(50), dt=1e-2)
        report = lab.verify_turnpike(prob, [5.0], solver="transcription")[0]
        header, rows = turnpike_report_rows(report)
        columns = (
            report.trajectory.grid, report.gap_x, report.gap_y,
            report.gap_u_window, report.h_norm,
        )
        full = [(report.horizon, *values) for values in zip(*columns)]
        assert len(full) == 501
        assert render_csv(header, rows) == render_csv(header, full)

    @pytest.mark.parametrize("intervals, stride", [(5000, 3), (10000, 5), (20000, 10)])
    def test_long_tables_keep_both_ends_at_one_spacing(self, scalar_runs, intervals, stride):
        prob, reports = scalar_runs
        report = next(r for r in reports if r.trajectory.grid.size == intervals + 1)
        grid = report.trajectory.grid
        t_rows = [row[1] for row in turnpike_report_rows(report)[1]]
        assert t_rows[0] == 0.0 and t_rows[-1] == report.horizon
        assert len(t_rows) <= 2001
        # Every spacing is the stride but the last, which reaches t = T.
        index = node_indices(grid.size)
        steps = np.diff(index)
        assert np.all(steps[:-1] == stride) and 1 <= steps[-1] <= stride
        assert t_rows == grid[index].tolist()
        # The trajectory (x, y, u blocks of width 1) and DRE tables write
        # the same nodes.
        traj_t = [row[0] for row in trajectory_rows(report.trajectory)[1]]
        assert traj_t == t_rows * 3
        dre = lab.solve_dre(replace(prob, horizon=report.horizon))
        assert [row[0] for row in dre_rows(dre)[1]] == t_rows

    def test_summary_digest_is_a_recomputation(self, scalar_runs):
        _, reports = scalar_runs
        header, rows = turnpike_summary_rows(reports)
        assert header[-1] == "sha256"
        for report, row in zip(reports, rows):
            traj = report.trajectory
            assert row[-1] == sha256_of(
                traj.grid, traj.x, traj.y, traj.u,
                report.gap_x, report.gap_y, report.gap_u_window, report.h_norm,
            )

    def test_manifest_digests_the_strided_tables(self, tmp_path):
        # The scalar defaults solve T = 5 at dt = 1e-3: 5,001 nodes, 1,668 written.
        prob = lab.build_scenario(config_from_dict({"scenario": "scalar"}))
        traj = lab.solve_transcription(prob)
        dre = lab.solve_dre(prob)
        for command, name, rows, arrays in (
            ("solve", "trajectory.csv", 3 * 1668, (traj.grid, traj.x, traj.y, traj.u)),
            ("riccati", "dre.csv", 1668, (dre.grid, dre.p_samples)),
        ):
            out = tmp_path / command
            assert main([command, "--out", str(out)]) == 0
            assert len((out / name).read_text().splitlines()) == 1 + rows
            digests = json.loads((out / "manifest.json").read_text())["digests"]
            assert digests == {name: sha256_of(*arrays)}


class TestExitCodes:
    def test_stationary_scalar_success(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(["stationary", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "stationary.csv"))
        manifest = json.loads(Path(out, "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert os.path.exists(os.path.join(out, name))

    def test_kkt_residual_above_tolerance_fails_the_check(self, tmp_path, capsys, monkeypatch):
        # heat_1d's triple has a KKT residual near 4e-13, above 1e-14 times
        # max(1, |z|) = 5.2; no input reaches 1e-10, the shipped tolerance.
        monkeypatch.setattr(cli, "_KKT_TOL", 1e-14)
        path = write_config(tmp_path, {"scenario": "heat_1d"})
        assert main(["stationary", "--config", path, "--out", str(tmp_path / "run")]) == 1
        message = r"stationary: KKT residual \S+ above tolerance 1\.0e-14"
        assert re.search(message, capsys.readouterr().err)

    def test_missing_config_is_input_error(self, tmp_path):
        code = main(["stationary", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_bad_config_is_input_error(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "unknown-name"})
        assert main(["stationary", "--config", path]) == 2

    @pytest.mark.parametrize(
        "override, message",
        [
            (["--dt", "0"], "dt must be positive"),
            (["--T", "-1"], "horizon must be positive, got -1.0"),
            (["--dt", "0.3", "--T", "1"], "does not divide horizon 1.0"),
        ],
    )
    def test_bad_time_grid_override_is_input_error(
        self, tmp_path, capsys, override, message
    ):
        code = main(["solve", *override, "--out", str(tmp_path / "run")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("target", [1.0, 2.0]), ("x0", [0.0, 0.0])])
    def test_wrong_vector_length_is_input_error(self, tmp_path, capsys, key, value):
        path = write_config(
            tmp_path, {"scenario": "scalar", key: value, "output_dir": str(tmp_path / "out")}
        )
        assert main(["solve", "--config", path]) == 2
        assert f"{key} must have length 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("stationary", {"scenario": "custom", "system": CUSTOM_1X1},
             "requires an inline 'target' vector"),
            ("solve", {"scenario": "heat_1d", "n": 2}, "needs n >= 3"),
            ("riccati", {"scenario": "scalar", "target": [1.0, 2.0]},
             "target must have length 1"),
            ("turnpike", {"scenario": "scalar", "x0": [0.0, 0.0]}, "x0 must have length 1"),
            ("yosida", {"scenario": "heat_1d", "n": 2}, "needs n >= 3"),
        ],
    )
    def test_scenario_input_error_makes_no_directory(
        self, tmp_path, capsys, command, config, message
    ):
        out = tmp_path / "out"
        path = write_config(tmp_path, {**config, "output_dir": str(out)})
        assert main([command, "--config", path]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_rank_deficient_scenario_exit_two(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "scenario": "custom",
                "system": {"a": [[0.0]], "b": [[1.0]], "c": [[0.0]]},
                "target": [1.0],
                "horizons": [1.0],
                "output_dir": str(tmp_path / "out"),
            },
        )
        code = main(["stationary", "--config", path])
        captured = capsys.readouterr()
        assert code == 2
        assert "rank" in captured.err

    def test_not_stabilizable_is_internal_class(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": "custom",
                "system": {"a": [[1.0]], "b": [[0.0]], "c": [[1.0]]},
                "target": [1.0],
                "horizons": [1.0],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["riccati", "--config", path]) == 3

    @pytest.mark.parametrize(
        "command, system, dt",
        [
            ("riccati", {"a": [[1e300]], "b": [[1.0]], "c": [[1.0]]}, 1e-1),
            ("solve", {"a": [[100.0, 0.0], [0.0, 100.0]], "b": [[0.0], [0.0]],
                       "c": [[1.0, 0.0], [0.0, 1.0]]}, 1e-3),
        ],
        ids=["riccati A=1e300", "solve A=100I2,B=0"],
    )
    def test_overflow_is_typed_when_warnings_are_errors(self, tmp_path, command, system, dt):
        # A fresh interpreter under -W error: numpy's overflow warning must
        # not reach the "internal error" branch before the typed refusal.
        n = len(system["a"])
        path = write_config(
            tmp_path,
            {
                "scenario": "custom",
                "system": system,
                "target": [1.0] * n,
                "x0": [1.0] * n,
                "horizons": [10.0],
                "dt": dt,
                "output_dir": str(tmp_path / "out"),
            },
        )
        src = os.path.dirname(os.path.dirname(lab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lqturnpike", command, "--config", path],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 3
        assert result.stderr == "error: Riccati flow produced non-finite samples\n"

    def test_singular_trapezoid_step_is_internal_class(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "scenario": "custom",
                "system": {"a": [[2000.0]], "b": [[1.0]], "c": [[1.0]]},
                "target": [1.0],
                "horizons": [1.0],
                "dt": 1e-3,
                "output_dir": str(tmp_path / "out"),
            },
        )
        # dt/2 times the eigenvalue 2000 of A is 1: a typed error, not a crash.
        assert main(["solve", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "dt=0.001 makes I - (dt/2) A singular" in err

    def test_fault_injection_fails_named_criterion(self, tmp_path, capsys, monkeypatch):
        # Corrupt the suite's scalar value operator.  A plain property, since
        # a cached_property assigned after class creation never gets its name.
        solve = verification.SuiteContext.scalar_are.func

        def corrupted(ctx):
            are = solve(ctx)
            return replace(are, p=are.p + 0.01)

        monkeypatch.setattr(verification.SuiteContext, "scalar_are", property(corrupted))
        out = str(tmp_path / "vfail")
        code = main(["verify", "quick", "--out", out])
        captured = capsys.readouterr()
        assert code == 1
        assert "scalar-are" in captured.err
        # The corrupted P fails exactly the checks that read it as the
        # fixed point: the ARE value and DRE constancy.  Propagation reads
        # the P its turnpike reports solved.
        failed = {
            line.split()[1] for line in captured.out.splitlines() if line.startswith("FAIL")
        }
        assert failed == {"1", "4"}
        assert "PASS  12 determinism: files differing between reruns = 0 == 0" in captured.out
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["config"] is None

    @pytest.mark.parametrize(
        "suite, runs", [("quick", ["quick", "quick"]), ("full", ["full", "quick", "quick"])]
    )
    def test_verify_passes_and_lists_what_it_wrote(
        self, tmp_path, capsys, monkeypatch, suite, runs
    ):
        # Criterion 12 compares the quick run it follows with one rerun, so
        # `verify quick` runs the suite twice and `verify full` three times.
        calls = []
        run_suite = verification.run_suite

        def spied(name, **kwargs):
            calls.append(name)
            return run_suite(name, **kwargs)

        monkeypatch.setattr(verification, "run_suite", spied)
        monkeypatch.setattr(cli, "run_suite", spied)
        out = tmp_path / "verify"
        assert main(["verify", suite, "--out", str(out)]) == 0
        assert f"verify: all 12 criteria passed ({suite} suite)" in capsys.readouterr().out
        assert calls == runs
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(path.name for path in out.glob("*.csv"))

    @pytest.mark.parametrize(
        "error, code",
        [
            *[
                (cls, 2) for cls in (
                    lab.ConfigError, lab.UniquenessError, lab.DimensionError,
                    lab.NonFiniteError, lab.ResolventError, lab.GridMismatchError,
                    lab.ProblemSizeError, OSError,
                )
            ],
            (lab.UndefinedRateError, 3),
            (lab.IntegrationError, 3),
            (lab.ConvergenceError, 3),
        ],
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_error_type_decides_the_exit_code(self, tmp_path, capsys, monkeypatch, error, code):
        def fail(config):
            raise error("planted")

        monkeypatch.setattr(cli, "build_scenario", fail)
        assert main(["stationary", "--out", str(tmp_path / "run")]) == code
        assert capsys.readouterr().err == "error: planted\n"

    def test_dimension_mismatch_is_input_error(self, tmp_path, capsys):
        # heat_1d builds one control column, so it does not read m.
        path = write_config(
            tmp_path,
            {"scenario": "heat_1d", "m": 3, "output_dir": str(tmp_path / "out")},
        )
        assert main(["stationary", "--config", path]) == 2
        assert "does not read config key(s) m" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, flags, message",
        [
            ("stationary", {"scenario": "heat_1d", "n": 2}, [], "needs n >= 3"),
            ("stationary", {"scenario": "random_stable", "n": 0}, [], "n and m must be"),
            ("stationary", {"scenario": "random_stable", "n": True}, [], "key 'n'"),
            ("stationary", {"scenario": "random_stable", "seed": True}, [], "key 'seed'"),
            ("yosida", {"scenario": "scalar", "ks": []}, [], "key 'ks'"),
            ("yosida", {"scenario": "scalar", "ks": "abc"}, [], "key 'ks'"),
            ("yosida", {"scenario": "scalar", "ks": [-1, 2]}, [], "key 'ks'"),
            ("stationary", {"scenario": "scalar", "horizons": 5}, [], "key 'horizons'"),
            ("stationary", {"scenario": "scalar", "dt": "x"}, [], "key 'dt'"),
            ("stationary", {"scenario": "random_stable", "margin": 1.0}, [],
             "does not read config key(s) margin"),
            ("stationary", {"scenario": "heat_1d", "target": "bump"}, [], "key 'target'"),
            ("stationary", {"scenario": "heat_1d", "interval": [0.25, 0.75]}, [],
             "does not read config key(s) interval"),
            ("solve", {"scenario": "scalar", "dt": np.nan}, [], "key 'dt'"),
            ("stationary", {"scenario": "scalar", "x0": "abc"}, [], "key 'x0'"),
            ("stationary", {"scenario": "scalar", "x0": ["a"]}, [], "key 'x0'"),
            ("stationary", {"scenario": "scalar", "tolerances": {"solver": "x"}}, [],
             "does not read config key(s) tolerances"),
            ("stationary", {"scenario": "scalar", "target": "sine"}, [], "key 'target'"),
            ("stationary", {"scenario": "scalar", "control": "distributed"}, [],
             "does not read config key(s) control"),
            ("stationary", {"scenario": "scalar"}, ["--seed", "3"],
             "does not read config key(s) seed"),
            ("solve", {"scenario": "scalar"}, ["--T", "1e-12", "--dt", "1"],
             "dt 1.0 does not divide horizon 1e-12"),
            ("solve", {"scenario": "scalar", "dt": "0.01", "horizons": [1]}, [], "key 'dt'"),
            ("turnpike", {"scenario": "scalar"}, ["--T", "0.002", "--dt", "0.001"],
             "refine dt or lengthen the horizon"),
            ("turnpike", {"scenario": "scalar"}, ["--jobs", "0"], "--jobs"),
            ("verify", None, ["quick", "--jobs", "-3"], "--jobs"),
            ("stationary", {"scenario": "scalar", "output_dir": None}, [],
             "key 'output_dir'"),
            ("stationary", {"scenario": "scalar", "dt": True, "horizons": [1]}, [],
             "key 'dt'"),
            ("stationary", {"scenario": "scalar", "horizons": [True]}, [], "key 'horizons'"),
            ("stationary", {"scenario": "scalar", "ks": [True, 2]}, [], "key 'ks'"),
            ("yosida", {"scenario": "scalar", "ks": [np.nan]}, [], "key 'ks'"),
            ("stationary", {"scenario": "scalar", "horizons": []}, [],
             "horizons must be nonempty"),
            ("solve", {"scenario": "scalar", "horizons": [np.inf]}, [], "key 'horizons'"),
            ("stationary", {"scenario": "custom", "system": CUSTOM_1X1}, [],
             "custom scenario requires an inline 'target' vector"),
            ("stationary", {"scenario": "scalar"}, ["--jobs", "2"], "--jobs"),
            # JSON's NaN and Infinity and argparse's float admit non-finite
            # numbers, and a JSON integer may exceed a float; the parse
            # refuses each and names the key.
            ("solve", {"scenario": "scalar", "x0": [np.nan]}, [], "key 'x0'"),
            ("solve", {"scenario": "scalar", "target": [np.inf]}, [], "key 'target'"),
            ("solve", {"scenario": "scalar"}, ["--T", "inf"], "key 'horizons'"),
            ("solve", {"scenario": "scalar", "ks": [np.nan]}, [], "key 'ks'"),
            ("solve", {"scenario": "scalar", "dt": 10**400}, [], "key 'dt'"),
            # Two horizons that share a file label would write one file.
            ("turnpike", {"scenario": "scalar"}, ["--T", "5", "--T", "5"],
             "key 'horizons': 5.0 and 5.0 share the label T5"),
            ("turnpike", {"scenario": "scalar"},
             ["--T", "5", "--T", "5.000001", "--dt", "1e-6"],
             "key 'horizons': 5.0 and 5.000001 share the label T5"),
            # A JSON string is not a number, even when it spells one.
            ("solve", {"scenario": "scalar", "horizons": ["1"]}, [], "key 'horizons'"),
            ("solve", {"scenario": "scalar", "ks": ["2"]}, [], "key 'ks'"),
            ("solve", {"scenario": "scalar", "x0": ["1"]}, [], "key 'x0'"),
        ],
    )
    def test_malformed_input_is_input_error(
        self, tmp_path, capsys, monkeypatch, command, config, flags, message
    ):
        monkeypatch.chdir(tmp_path)  # a run that got through writes nothing elsewhere
        argv = [command, *flags]
        if config is None or "output_dir" not in config:
            argv += ["--out", str(tmp_path / "out")]
        if config is not None:
            argv += ["--config", write_config(tmp_path, config)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag before main runs it
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))


def _readme_command_files():
    """{command: the file names, ``*`` globs among them, its README line names}.

    A line of the command block that does not start with ``lqturnpike``
    continues the command above it.
    """
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    named = {}
    for line in block.splitlines():
        if line.startswith("lqturnpike "):
            words = line.split()
            command = " ".join(words[1:3] if words[1] == "verify" else words[1:2])
        named.setdefault(command, set()).update(re.findall(r"[\w*]+\.csv", line))
    return named


class TestPipelineFiles:
    @pytest.fixture(scope="class")
    def command_runs(self, tmp_path_factory):
        """Each scenario command on {"scenario": "scalar"}, and verify quick: their out dirs."""
        root = tmp_path_factory.mktemp("commands")
        config = write_config(root, {"scenario": "scalar"})
        runs = {}
        for command in ("stationary", "solve", "riccati", "turnpike", "yosida"):
            runs[command] = root / command
            assert main([command, "--config", config, "--out", str(runs[command])]) == 0
        runs["verify quick"] = root / "verify"
        assert main(["verify", "quick", "--out", str(runs["verify quick"])]) == 0
        return runs

    def test_gate_checks_the_default_pipeline(self, command_runs):
        gate = command_runs["verify quick"]
        for command, names in (
            ("turnpike", ["turnpike_T5.csv", "turnpike_T10.csv", "turnpike_T20.csv",
                          "turnpike_summary.csv"]),
            ("stationary", ["stationary.csv"]),
            ("riccati", ["are.csv"]),
        ):
            for name in names:
                written = (command_runs[command] / name).read_bytes()
                assert written == (gate / name).read_bytes(), (command, name)
        turnpike, verify = (
            json.loads((command_runs[run] / "manifest.json").read_text())["outputs"]
            for run in ("turnpike", "verify quick")
        )
        start = verify.index(turnpike[0])
        assert verify[start : start + len(turnpike)] == turnpike  # one order

    def test_readme_names_every_file_of_each_command(self, command_runs):
        named = _readme_command_files()
        named["verify full"] |= named["verify quick"]  # "the quick suite's files, plus ..."
        written = {
            command: json.loads((out / "manifest.json").read_text())["outputs"]
            for command, out in command_runs.items()
        }
        written["verify full"] = list(verification.suite_tables(verification.run_suite("full")))
        assert set(named) == set(written)
        for command, outputs in written.items():
            for name in outputs:
                assert any(fnmatch.fnmatchcase(name, p) for p in named[command]), (command, name)
            for pattern in named[command]:
                assert any(fnmatch.fnmatchcase(n, pattern) for n in outputs), (command, pattern)


class TestCommands:
    def test_one_step_riccati_matches_closed_form(self, tmp_path):
        # The exact flow needs no minimum step count.  Oracle: with A = -1,
        # B = C = 1 and P0 = 0, P_T(0) = sqrt2 tanh(sqrt2 T + artanh(1/sqrt2)) - 1.
        path = write_config(
            tmp_path,
            {"scenario": "scalar", "horizons": [0.5], "dt": 0.5,
             "output_dir": str(tmp_path / "o")},
        )
        assert main(["riccati", "--config", path]) == 0
        rows = (tmp_path / "o" / "dre.csv").read_text().splitlines()
        assert len(rows) == 1 + 2  # header and two nodes
        t, _, _, value = (float(v) for v in rows[1].split(","))
        root2 = np.sqrt(2.0)
        exact = root2 * np.tanh(root2 * 0.5 + np.arctanh(1.0 / root2)) - 1.0
        assert t == 0.0
        assert abs(value - exact) <= 1e-14

    def test_solve_writes_trajectory(self, tmp_path):
        path = write_config(
            tmp_path,
            {"scenario": "scalar", "horizons": [1.0], "output_dir": str(tmp_path / "o")},
        )
        assert main(["solve", "--config", path]) == 0
        rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,kind,index,value"
        assert len(rows) == 1 + 3 * 1001

    def test_riccati_outputs(self, tmp_path):
        path = write_config(
            tmp_path,
            {"scenario": "scalar", "horizons": [1.0], "output_dir": str(tmp_path / "o")},
        )
        assert main(["riccati", "--config", path]) == 0
        are_rows = (tmp_path / "o" / "are.csv").read_text().splitlines()
        p_value = float(are_rows[1].split(",")[-1])
        assert abs(p_value - (np.sqrt(2.0) - 1.0)) < 1e-10
        dre_rows = (tmp_path / "o" / "dre.csv").read_text().splitlines()
        assert dre_rows[0] == "t,i,j,value"

    def test_riccati_stiff_heat_reaches_are(self, tmp_path):
        # heat_1d's defaults (n = 50, T = 5, dt = 1e-2) are stiff; P_T(0)
        # must reach the ARE's P, since the rod's closed loop decays fast.
        path = write_config(
            tmp_path, {"scenario": "heat_1d", "output_dir": str(tmp_path / "o")}
        )
        assert main(["riccati", "--config", path]) == 0
        # The manifest's stages account for the run, emission of the large
        # dre.csv included.
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert sum(manifest["timings_s"].values()) >= 0.95 * manifest["total_s"]

        def first_matrix(name, n):
            # The first n * n rows after the header: P at t = 0 in dre.csv.
            with open(tmp_path / "o" / name) as handle:
                rows = [next(handle).split(",") for _ in range(n * n + 1)][1:]
            return np.array([float(row[-1]) for row in rows]).reshape(n, n)

        p_are, p_dre = first_matrix("are.csv", 50), first_matrix("dre.csv", 50)
        assert np.linalg.norm(p_dre - p_are) <= 1e-10 * np.linalg.norm(p_are)

    @pytest.mark.parametrize(
        "command, solver",
        [("solve", "transcription"), ("solve", "riccati-sweep"), ("riccati", "transcription")],
    )
    def test_over_the_sample_cap_is_input_error(
        self, tmp_path, capsys, monkeypatch, command, solver
    ):
        # 501 nodes of samples of size 1000 to 1002: about 5.0e8 doubles.  The
        # guard refuses before any solve, the ARE of this 1000-node rod included.
        monkeypatch.setattr(cli, "solve_are", lambda sys: pytest.fail("ARE solved"))
        path = write_config(
            tmp_path,
            {
                "scenario": "heat_1d", "n": 1000, "horizons": [5.0], "solver": solver,
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main([command, "--config", path]) == 2
        assert "above the cap of 5e+07 doubles" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_long_horizon_shares_the_constant(self, tmp_path, capsys):
        # The envelope is 0 at the midpoint of T = 1100; the floored nodes
        # give that horizon the constant of T = 20.
        path = write_config(
            tmp_path,
            {
                "scenario": "scalar", "horizons": [20.0, 1100.0], "dt": 0.1,
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["turnpike", "--config", path]) == 0
        assert "c spread = 1 (limit 2)" in capsys.readouterr().out

    def test_start_on_the_turnpike_has_no_verdict(self, tmp_path, capsys):
        # Target 0 and x0 = 0 put the scalar problem on its turnpike.
        path = write_config(
            tmp_path,
            {
                "scenario": "scalar", "horizons": [2.0, 4.0], "target": [0.0],
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["turnpike", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.count("c=0\n") == 2
        assert "every c is 0" in out

    def test_off_turnpike_solve_fails(self, tmp_path, capsys, off_turnpike_solver):
        path = write_config(
            tmp_path,
            {
                "scenario": "scalar", "horizons": [5.0, 10.0, 20.0, 40.0],
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["turnpike", "--config", path]) == 1
        assert "c spread = " in capsys.readouterr().out

    def test_turnpike_summary(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "scenario": "scalar",
                "horizons": [5.0, 10.0],
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["turnpike", "--config", path]) == 0
        lines = (tmp_path / "o" / "turnpike_summary.csv").read_text().splitlines()
        assert lines[0] == (
            "T,fitted_c,fitted_lambda,lambda_reference,"
            "propagation_residual,c_min,sha256"
        )
        assert len(lines) == 3
        c_values = [float(line.split(",")[-2]) for line in lines[1:]]
        assert 1.0 < min(c_values) and max(c_values) <= 1.01 * min(c_values)

    def test_turnpike_horizon_override(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["turnpike", "--T", "3.0", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "turnpike_T3.csv"))

    def test_turnpike_heat_scenario(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": "heat_1d",
                "horizons": [2.0],
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["turnpike", "--config", path]) == 0
        lines = (tmp_path / "o" / "turnpike_summary.csv").read_text().splitlines()
        fitted_lambda = float(lines[1].split(",")[2])
        assert fitted_lambda > 0.0

    def test_yosida_outputs(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": "scalar",
                "horizons": [2.0],
                "ks": [2.0, 8.0, 32.0],
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["yosida", "--config", path]) == 0
        stat_lines = (tmp_path / "o" / "yosida_stationary.csv").read_text().splitlines()
        assert stat_lines[0] == "k,err_x,err_u,err_y"
        assert len(stat_lines) == 4

    def test_csv_reparse_reproduces_values(self, tmp_path):
        path = write_config(
            tmp_path,
            {"scenario": "scalar", "horizons": [2.0], "output_dir": str(tmp_path / "o")},
        )
        assert main(["stationary", "--config", path]) == 0
        import lqturnpike as lab

        triple = lab.solve_stationary(*lab.scalar_example()[:2])
        parsed = {}
        for line in (tmp_path / "o" / "stationary.csv").read_text().splitlines()[1:]:
            name, idx, value = line.split(",")
            parsed[(name, int(idx))] = float(value)
        assert parsed[("x_bar", 0)] == triple.x_bar[0]
        assert parsed[("u_bar", 0)] == triple.u_bar[0]
        assert parsed[("y_bar", 0)] == triple.y_bar[0]

    def test_jobs_do_not_change_outputs(self, tmp_path):
        base = write_config(
            tmp_path,
            {
                "scenario": "scalar",
                "horizons": [2.0, 3.0],
                "output_dir": str(tmp_path / "o1"),
            },
            name="c1.json",
        )
        other = write_config(
            tmp_path,
            {
                "scenario": "scalar",
                "horizons": [2.0, 3.0],
                "output_dir": str(tmp_path / "o2"),
            },
            name="c2.json",
        )
        assert main(["turnpike", "--config", base, "--jobs", "1"]) == 0
        assert main(["turnpike", "--config", other, "--jobs", "4"]) == 0
        for name in ("turnpike_summary.csv", "turnpike_T2.csv", "turnpike_T3.csv"):
            a = (tmp_path / "o1" / name).read_bytes()
            b = (tmp_path / "o2" / name).read_bytes()
            assert a == b

    def test_manifest_records_environment_and_peak_rss(self, tmp_path):
        import platform

        import scipy

        out = tmp_path / "o"
        assert main(["stationary", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {name: 1 for name in _blas.openblas_pools()},
        }
        # The interpreter with numpy and scipy loaded is already past 1 MiB.
        assert isinstance(manifest["peak_rss_mb"], float)
        assert 1.0 < manifest["peak_rss_mb"] < 1e6

    def test_manifest_records_only_the_keys_read(self, tmp_path):
        out = tmp_path / "o"
        assert main(["stationary", "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        for unread in ("seed", "control", "system"):
            assert unread not in config
        assert (config["scenario"], config["n"], config["m"]) == ("scalar", 1, 1)
        assert config["output_dir"] == str(out)
