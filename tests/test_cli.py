import json
import os
from pathlib import Path

import numpy as np
import pytest

from lqturnpike.cli import main
from lqturnpike.reporting import format_value, render_csv


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


class TestExitCodes:
    def test_stationary_scalar_success(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(["stationary", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "stationary.csv"))
        manifest = json.loads(Path(out, "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert os.path.exists(os.path.join(out, name))

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
            (["--T", "-1"], "horizons must be positive"),
            (["--dt", "0.3", "--T", "1"], "does not divide horizon 1.0"),
        ],
    )
    def test_bad_time_grid_override_is_input_error(
        self, tmp_path, capsys, override, message
    ):
        code = main(["solve", *override, "--out", str(tmp_path / "run")])
        assert code == 2
        assert message in capsys.readouterr().err

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

    def test_fault_injection_fails_named_criterion(self, tmp_path, capsys):
        out = str(tmp_path / "vfail")
        code = main(["verify", "quick", "--out", out, "--fault-inject", "are"])
        captured = capsys.readouterr()
        assert code == 1
        assert "scalar-are" in captured.err
        # The corrupted P fails exactly the checks that read it as the
        # fixed point: the ARE value, DRE constancy and propagation.
        failed = {
            line.split()[1] for line in captured.out.splitlines() if line.startswith("FAIL")
        }
        assert failed == {"1", "4", "5"}


class TestCommands:
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

        def first_matrix(name, n):
            # The first n * n rows after the header: P at t = 0 in dre.csv.
            with open(tmp_path / "o" / name) as handle:
                rows = [next(handle).split(",") for _ in range(n * n + 1)][1:]
            return np.array([float(row[-1]) for row in rows]).reshape(n, n)

        p_are, p_dre = first_matrix("are.csv", 50), first_matrix("dre.csv", 50)
        assert np.linalg.norm(p_dre - p_are) <= 1e-10 * np.linalg.norm(p_are)

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
            "propagation_residual,bound_satisfied"
        )
        assert len(lines) == 3
        assert lines[1].endswith("true") and lines[2].endswith("true")

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
        }
        # The interpreter with numpy and scipy loaded is already past 1 MiB.
        assert isinstance(manifest["peak_rss_mb"], float)
        assert 1.0 < manifest["peak_rss_mb"] < 1e6
