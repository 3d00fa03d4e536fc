"""Built-in, seeded, and configured problem instances.

Three scenario families cover the laboratory's range: the canonical
scalar system on which every identity has a closed form, seeded random
stable systems for property checks, and a one-dimensional heat equation
whose control column either acts on [0.25, 0.75] (bounded control) or
concentrates on the first grid node with norm growing like 1/dx under
refinement, emulating boundary control.  Configurations load from JSON
with strict key checking so that identical files reproduce identical
runs bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ConfigError
from .lq import LqProblem, _step_count
from .operators import LtiSystem, _check_ks, make_system, spectral_abscissa
from .reporting import horizon_label
from .turnpike import _solver

__all__ = [
    "ExperimentConfig",
    "scalar_example",
    "random_stable",
    "heat_1d",
    "load_config",
    "build_scenario",
]

HEAT_CONTROLS = ("distributed", "boundary_flavored")


def scalar_example():
    """The canonical scalar instance: A = -1, B = 1, C = 1, z = 1, x0 = 0."""
    sys = make_system([[-1.0]], [[1.0]], [[1.0]])
    return sys, np.array([1.0]), np.array([0.0])


def random_stable(n: int, m: int, seed: int) -> LtiSystem:
    """Seeded random system with spectral abscissa exactly -1.

    Entries are standard normal draws from the Philox counter-based
    64-bit generator, so a seed reproduces the instance bit for bit.
    A is shifted so its spectral abscissa equals -1; C is
    regularized through its SVD so its smallest singular value is at
    least 0.1, which guarantees the coercivity hypothesis.
    """
    if n < 1 or m < 1:
        raise ConfigError(f"n and m must be at least 1, got n = {n}, m = {m}")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    a = gen.standard_normal((n, n))
    a = a - (spectral_abscissa(a) + 1.0) * np.eye(n)
    b = gen.standard_normal((n, m))
    c = gen.standard_normal((n, n))
    u_svd, sv, vt_svd = np.linalg.svd(c)
    c = u_svd @ np.diag(np.maximum(sv, 0.1)) @ vt_svd
    return make_system(a, b, c)


def random_target_and_state(n: int, seed: int):
    """Deterministic companion draws (z, x0) for a seeded random system.

    Drawn from the jumped Philox stream so they are independent of the
    system entries but still fully determined by the seed.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)).jumped())
    return gen.standard_normal(n), gen.standard_normal(n)


def heat_1d(n: int, control: str = "distributed"):
    """Finite-difference heat equation on [0, 1], Dirichlet ends.

    A is the standard second-difference Laplacian ``(n+1)^2 tridiag(1,-2,1)``
    on ``n`` interior nodes.  The control column is either the indicator
    of [0.25, 0.75] (``distributed``), which holds a node for every n >= 3,
    or ``(1/dx) e_1`` (``boundary_flavored``), whose norm grows under grid
    refinement.  C is the identity, so the coercivity constant is 1.
    Returns the system and the target, the bump ``4x(1 - x)`` sampled at
    the interior nodes.
    """
    if n < 3:
        raise ConfigError(f"heat_1d needs n >= 3 interior nodes, got n = {n}")
    if control not in HEAT_CONTROLS:
        raise ConfigError(
            f"unknown control kind '{control}', expected one of {HEAT_CONTROLS}"
        )
    dx = 1.0 / (n + 1)
    a = (np.diag(np.full(n - 1, 1.0), -1)
         + np.diag(np.full(n, -2.0))
         + np.diag(np.full(n - 1, 1.0), 1)) / dx**2
    nodes = dx * np.arange(1, n + 1)
    if control == "distributed":
        b = ((nodes >= 0.25) & (nodes <= 0.75)).astype(float).reshape(n, 1)
    else:
        b = np.zeros((n, 1))
        b[0, 0] = 1.0 / dx
    return make_system(a, b, np.eye(n)), 4.0 * nodes * (1.0 - nodes)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment configuration with defaults filled in.

    The fields are the configuration schema: :func:`config_from_dict`
    accepts these keys where the scenario reads them, and takes each
    default from here unless the scenario sets its own.
    """

    scenario: str
    n: int
    m: int
    seed: int = 42
    horizons: tuple = (5.0, 10.0, 20.0)
    dt: float = 1e-3
    target: object = None  # inline vector, or None for the scenario's own
    ks: tuple = (10.0, 100.0, 1000.0)
    output_dir: str = "out"
    control: str = "distributed"
    x0: object = None
    system: object = None  # inline matrices for the custom scenario
    solver: str = "transcription"  # a name in turnpike.SOLVERS

    def read_values(self) -> dict:
        """The values of the keys this scenario reads, with the built n and m."""
        reads = _SCENARIOS[self.scenario][1]
        return {key: getattr(self, key) for key in (*_COMMON_KEYS, *reads, "n", "m")}


# Every key a configuration may set, with the dataclass default where there is one.
_FIELD_DEFAULTS = {
    f.name: None if f.default is MISSING else f.default for f in fields(ExperimentConfig)
}

_COMMON_KEYS = ("scenario", "horizons", "dt", "target", "x0", "ks", "solver", "output_dir")


def _custom_system(system) -> LtiSystem:
    """The custom scenario's inline system; ConfigError if it is malformed."""
    try:
        return make_system(system["a"], system["b"], system["c"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config key 'system' must hold matrices a, b, c: {exc}") from exc


def _custom(config):
    sys = _custom_system(config.system)
    if config.target is None:
        raise ConfigError("custom scenario requires an inline 'target' vector")
    return sys, config.target, np.zeros(sys.n)


# Per scenario: where its defaults depart from the dataclass's, the keys it
# reads besides _COMMON_KEYS, which all read, and its builder of (system,
# target, x0) from the config.  A custom scenario reads n and m off its matrices.
_SCENARIOS = {
    "scalar": ({"n": 1, "m": 1}, (), lambda cfg: scalar_example()),
    "random_stable": ({"n": 4, "m": 2}, ("n", "m", "seed"), lambda cfg: (
        random_stable(cfg.n, cfg.m, cfg.seed), *random_target_and_state(cfg.n, cfg.seed)
    )),
    "heat_1d": ({"n": 50, "m": 1, "dt": 1e-2}, ("n", "control"), lambda cfg: (
        *heat_1d(cfg.n, cfg.control), np.zeros(cfg.n)
    )),
    "custom": ({}, ("system",), _custom),
}


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _seed(value) -> int:
    if not 0 <= _integer(value) < 2**64:
        raise ValueError(f"expected a 64-bit unsigned integer, got {value!r}")
    return value


def _number(value) -> float:
    if isinstance(value, (bool, str)) or not np.isfinite(float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _numbers(value) -> tuple:
    if isinstance(value, str):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return tuple(_number(v) for v in value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _solver_name(name: str) -> str:
    _solver(name)  # ConfigError unless a name in turnpike.SOLVERS
    return name


# The one parse of each typed key.  The builders that read n, m and control
# check their ranges; _check_time_grid checks dt against the horizons.
_PARSERS = {
    "n": _integer,
    "m": _integer,
    "seed": _seed,
    "dt": _number,
    "horizons": _numbers,
    "ks": lambda ks: tuple(_check_ks(_numbers(ks))),
    "target": lambda z: None if z is None else _numbers(z),
    "x0": lambda x0: None if x0 is None else _numbers(x0),
    "solver": _solver_name,
    "output_dir": _string,
}


def _read_json(path):
    """The JSON value in the file at ``path``; ConfigError if absent or malformed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment configuration (:func:`config_from_dict`)."""
    return config_from_dict(_read_json(path))


def _check_time_grid(dt: float, horizons) -> None:
    """Raise ConfigError unless dt > 0 splits every horizon into whole steps and
    no two horizons share the :func:`~lqturnpike.reporting.horizon_label`
    that names their output files.
    """
    if not horizons:
        raise ConfigError("horizons must be nonempty")
    for i, t_final in enumerate(horizons):
        try:
            _step_count(t_final, dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        label = horizon_label(t_final)
        twins = [t for t in horizons[:i] if horizon_label(t) == label]
        if twins:
            raise ConfigError(
                f"config key 'horizons': {twins[0]!r} and {t_final!r} share the label {label}"
            )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a configuration mapping and fill in its defaults.

    The keys are the fields of :class:`ExperimentConfig` that the scenario
    reads (``_SCENARIOS``); any other key is rejected.  An omitted key takes
    the scenario's default, else the field's.  Each typed value is parsed
    once (``_PARSERS``); a malformed or non-finite one is a ConfigError
    naming its key.  The builders check the ranges of the values they read.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    scenario = raw.get("scenario")
    if not isinstance(scenario, str) or scenario not in _SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; valid names: {', '.join(_SCENARIOS)}"
        )
    defaults, reads, _ = _SCENARIOS[scenario]
    unread = sorted(set(raw) - set(_COMMON_KEYS) - set(reads))
    if unread:
        raise ConfigError(
            f"scenario '{scenario}' does not read config key(s) {', '.join(unread)}; "
            f"it reads {', '.join(sorted(_COMMON_KEYS + reads))}"
        )
    cfg = {**_FIELD_DEFAULTS, **defaults, **raw}
    if scenario == "custom":
        system = _custom_system(cfg["system"])
        cfg["n"], cfg["m"] = system.n, system.m
    for key, parse in _PARSERS.items():
        try:
            cfg[key] = parse(cfg[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key '{key}': {exc}") from exc
    _check_time_grid(cfg["dt"], cfg["horizons"])
    return ExperimentConfig(**cfg)


def build_scenario(config: ExperimentConfig) -> LqProblem:
    """The tracking problem on the first horizon; each builder checks what it reads.

    :class:`~lqturnpike.lq.LqProblem` checks the lengths of the target and
    the initial state (DimensionError).
    """
    sys, z, x0 = _SCENARIOS[config.scenario][2](config)
    z = z if config.target is None else config.target
    x0 = x0 if config.x0 is None else config.x0
    return LqProblem(sys=sys, horizon=config.horizons[0], target=z, x0=x0, dt=config.dt)
