import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import lqturnpike as lab
from lqturnpike.errors import ConfigError
from lqturnpike.scenarios import (
    _COMMON_KEYS,
    _PARSERS,
    _SCENARIOS,
    ExperimentConfig,
    build_scenario,
    config_from_dict,
)
from lqturnpike.turnpike import SOLVERS

README = Path(__file__).resolve().parents[1] / "README.md"

CUSTOM_1X1 = {"a": [[-1.0]], "b": [[1.0]], "c": [[1.0]]}


class TestScalarExample:
    def test_matrices_and_defaults(self):
        sys_, z, x0 = lab.scalar_example()
        assert sys_.a[0, 0] == -1.0 and sys_.b[0, 0] == 1.0 and sys_.c[0, 0] == 1.0
        assert z[0] == 1.0 and x0[0] == 0.0

    def test_downstream_values(self, scalar_pipeline):
        stat, are = scalar_pipeline
        assert abs(are.p[0, 0] - (np.sqrt(2.0) - 1.0)) < 1e-10
        assert abs(stat.x_bar[0] - 0.5) < 1e-12

    def test_hypotheses_hold(self):
        sys_, _, _ = lab.scalar_example()
        report = lab.check_hypotheses(sys_)
        assert report.satisfied and abs(report.delta - 1.0) < 1e-14


class TestRandomStable:
    def test_same_seed_bit_identical(self):
        a = lab.random_stable(5, 2, 123)
        b = lab.random_stable(5, 2, 123)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.c, b.c)

    def test_different_seed_differs(self):
        a = lab.random_stable(5, 2, 123)
        b = lab.random_stable(5, 2, 124)
        assert not np.array_equal(a.a, b.a)

    def test_abscissa_forced_by_shift(self):
        for seed in (9, 10, 11):
            sys_ = lab.random_stable(6, 2, seed)
            abscissa = np.max(np.linalg.eigvals(sys_.a).real)
            assert abs(abscissa + 1.0) <= 1e-10

    def test_observation_regularized(self):
        sys_ = lab.random_stable(6, 2, 9)
        assert np.linalg.svd(sys_.c, compute_uv=False)[-1] >= 0.1 - 1e-12

    def test_seed42_passes_hypotheses(self):
        report = lab.check_hypotheses(lab.random_stable(4, 2, 42))
        assert report.satisfied


class TestHeat1d:
    def test_three_node_stencil(self):
        # (n + 1)^2 = 16 scales the second-difference stencil.
        sys_, _ = lab.heat_1d(3)
        expected = 16.0 * np.array(
            [[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]]
        )
        assert np.allclose(sys_.a, expected, atol=0.0)

    def test_identity_observation_delta(self):
        sys_, _ = lab.heat_1d(10)
        assert abs(lab.check_hypotheses(sys_).delta - 1.0) < 1e-14

    def test_hypothesis_margins_at_pde_scale(self):
        # Kernel flags, coercivity, and state observability hold outright;
        # the dual Gramian margin sits at the rounding floor because heat
        # observability constants decay exponentially in the mode index
        # (the quasi-unbounded regime this scenario emulates).
        sys_, _ = lab.heat_1d(50)
        report = lab.check_hypotheses(sys_)
        assert report.ker_ac_trivial and report.ker_astar_bstar_trivial
        assert report.delta == 1.0
        assert report.obs_ac > 0.0
        assert report.obs_astar_bstar >= -1e-10

    def test_boundary_flavored_norm_grows(self):
        norms = [
            np.linalg.norm(lab.heat_1d(n, "boundary_flavored")[0].b)
            for n in (25, 50, 100)
        ]
        assert norms[0] < norms[1] < norms[2]
        assert abs(norms[0] - 26.0) < 1e-12  # 1/dx with dx = 1/(n+1)

    def test_bump_profile(self):
        _, z = lab.heat_1d(3)
        nodes = np.array([0.25, 0.5, 0.75])
        assert np.allclose(z, 4.0 * nodes * (1.0 - nodes), atol=0.0)

    def test_unknown_control_rejected(self):
        with pytest.raises(ConfigError):
            lab.heat_1d(5, control="pointwise")


class TestConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "scalar"}))
        config = lab.load_config(path)
        assert config.scenario == "scalar"
        assert config.dt == 1e-3
        assert config.horizons == (5.0, 10.0, 20.0)

    def test_pde_scale_default_step(self):
        config = config_from_dict({"scenario": "heat_1d", "horizons": [5.0]})
        assert config.dt == 1e-2
        assert config.n == 50

    def test_step_must_divide_horizons(self):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"scenario": "scalar", "dt": 0.3, "horizons": [1.0]})
        message = str(excinfo.value)
        assert "0.3" in message and "1" in message

    def test_unknown_scenario_lists_names(self):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"scenario": "pendulum"})
        message = str(excinfo.value)
        for name in ("scalar", "random_stable", "heat_1d", "custom"):
            assert name in message

    def test_unknown_keys_rejected(self):
        for key in ("dts", "t0"):
            with pytest.raises(ConfigError) as excinfo:
                config_from_dict({"scenario": "scalar", key: 0.1})
            assert key in str(excinfo.value)

    @pytest.mark.parametrize(
        "raw, n, m, dt",
        [
            ({"scenario": "scalar"}, 1, 1, 1e-3),
            ({"scenario": "random_stable"}, 4, 2, 1e-3),
            ({"scenario": "heat_1d"}, 50, 1, 1e-2),
            ({"scenario": "custom", "system": CUSTOM_1X1}, 1, 1, 1e-3),
        ],
    )
    def test_defaults_come_from_the_dataclass(self, raw, n, m, dt):
        config = config_from_dict(raw)
        assert config == ExperimentConfig(n=n, m=m, dt=dt, **raw)
        assert config.solver == "transcription"

    def test_every_registered_solver_accepted(self):
        for name in SOLVERS:
            assert config_from_dict({"scenario": "scalar", "solver": name}).solver == name

    def test_unknown_solver_lists_registry(self):
        for bad in ("newton", None, ["transcription"]):
            with pytest.raises(ConfigError) as excinfo:
                config_from_dict({"scenario": "scalar", "solver": bad})
            for name in SOLVERS:
                assert name in str(excinfo.value)

    def test_readme_schema_lists_the_dataclass_fields(self):
        text = README.read_text(encoding="utf-8")
        table = text.split("### Configuration schema", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|") for line in table.splitlines() if line.startswith("| `")]
        read_by = {}
        for cells in rows:
            named = set(re.findall(r"`(\w+)`", cells[3]))
            if cells[3].strip() == "all":
                named = set(_SCENARIOS)
            for key in re.findall(r"`(\w+)`", cells[1]):
                read_by[key] = named
        assert set(read_by) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        for key, named in read_by.items():
            assert named == {
                name for name, (_, reads, _) in _SCENARIOS.items()
                if key in _COMMON_KEYS or key in reads
            }, key

    def test_every_field_is_a_key_some_scenario_reads(self):
        # A field that no scenario reads, or a parser of no field, is a
        # setting no configuration can reach.
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        reads = {key for _, keys, _ in _SCENARIOS.values() for key in keys}
        assert names == {*_COMMON_KEYS, *reads, "n", "m"}
        assert set(_PARSERS) <= names

    def test_bad_seed_rejected(self):
        for seed in (-1, 2**64, True, 1.5):
            with pytest.raises(ConfigError) as excinfo:
                config_from_dict({"scenario": "random_stable", "seed": seed})
            assert "'seed'" in str(excinfo.value)
        top = config_from_dict({"scenario": "random_stable", "seed": 2**64 - 1})
        assert top.seed == 2**64 - 1

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError):
            lab.load_config(tmp_path / "absent.json")

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"scenario": "scalar",}')
        with pytest.raises(ConfigError) as excinfo:
            lab.load_config(path)
        assert "line" in str(excinfo.value)


class TestBuildScenario:
    def test_scalar(self):
        config = config_from_dict({"scenario": "scalar"})
        prob = build_scenario(config)
        assert prob.sys.n == 1 and prob.target[0] == 1.0 and prob.x0[0] == 0.0
        assert prob.horizon == 5.0 and prob.dt == 1e-3
        assert np.array_equal(prob.p0, np.zeros((1, 1)))

    def test_random_deterministic(self):
        config = config_from_dict({"scenario": "random_stable", "seed": 5})
        p1 = build_scenario(config)
        p2 = build_scenario(config)
        assert np.array_equal(p1.sys.a, p2.sys.a)
        assert np.array_equal(p1.target, p2.target)
        assert np.array_equal(p1.x0, p2.x0)

    def test_heat_default_initial_state(self):
        config = config_from_dict({"scenario": "heat_1d", "horizons": [5.0]})
        prob = build_scenario(config)
        assert prob.sys.n == 50 and np.all(prob.x0 == 0.0) and prob.target.shape == (50,)
        assert prob.horizon == 5.0 and prob.dt == 1e-2

    def test_custom_requires_system(self):
        with pytest.raises(ConfigError):
            config_from_dict({"scenario": "custom"})

    def test_custom_scenario_built(self):
        config = config_from_dict(
            {
                "scenario": "custom",
                "system": {"a": [[-1.0]], "b": [[1.0]], "c": [[1.0]]},
                "target": [2.0],
                "x0": [0.5],
                "horizons": [1.0],
            }
        )
        prob = build_scenario(config)
        assert prob.sys.n == 1 and prob.target[0] == 2.0 and prob.x0[0] == 0.5
        assert prob.horizon == 1.0

    def test_inline_overrides_for_builtin(self):
        config = config_from_dict(
            {"scenario": "scalar", "target": [3.0], "x0": [1.0]}
        )
        prob = build_scenario(config)
        assert prob.target[0] == 3.0 and prob.x0[0] == 1.0

    @pytest.mark.parametrize(
        "raw",
        [
            {"scenario": "heat_1d", "m": 3},
            {"scenario": "scalar", "n": 5},
            {"scenario": "custom", "n": 3, "system": CUSTOM_1X1, "target": [1.0]},
        ],
    )
    def test_dimensions_must_match_the_built_system(self, raw):
        # A scenario that fixes a dimension does not read it as a key, so a
        # config cannot claim a size the scenario does not build.
        key = "m" if "m" in raw else "n"
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(raw)
        assert f"does not read config key(s) {key}" in str(excinfo.value)


@pytest.mark.parametrize("raw", [["scalar"], "scalar", None, 1.0])
def test_config_root_must_be_an_object(raw):
    with pytest.raises(ConfigError, match="config root must be a JSON object"):
        config_from_dict(raw)
