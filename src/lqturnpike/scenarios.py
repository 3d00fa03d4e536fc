"""Built-in, seeded, and configured problem instances.

Three scenario families cover the laboratory's range: the canonical
scalar system on which every identity has a closed form, seeded random
stable systems for property checks, and a one-dimensional heat equation
whose control column either acts on a sub-interval (bounded control) or
concentrates on the first grid node with norm growing like 1/dx under
refinement, emulating boundary control.  Configurations load from JSON
with strict key checking so that identical files reproduce identical
runs bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .operators import LtiSystem, make_system, spectral_abscissa

__all__ = [
    "ExperimentConfig",
    "scalar_example",
    "random_stable",
    "heat_1d",
    "load_config",
    "build_scenario",
]

SCENARIO_NAMES = ("scalar", "random_stable", "heat_1d", "custom")
HEAT_PROFILES = ("bump", "sine", "zero")
HEAT_CONTROLS = ("distributed", "boundary_flavored")


def scalar_example():
    """The canonical scalar instance: A = -1, B = 1, C = 1, z = 1, x0 = 0."""
    sys = make_system([[-1.0]], [[1.0]], [[1.0]])
    return sys, np.array([1.0]), np.array([0.0])


def random_stable(n: int, m: int, seed: int, margin: float = 1.0) -> LtiSystem:
    """Seeded random system with spectral abscissa exactly -margin.

    Entries are standard normal draws from the Philox counter-based
    64-bit generator, so a seed reproduces the instance bit for bit.
    A is shifted so its spectral abscissa equals ``-margin``; C is
    regularized through its SVD so its smallest singular value is at
    least 0.1, which guarantees the coercivity hypothesis.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if margin <= 0.0:
        raise ValueError(f"margin must be positive, got {margin}")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    a = gen.standard_normal((n, n))
    a = a - (spectral_abscissa(a) + margin) * np.eye(n)
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


def heat_1d(
    n: int,
    control: str = "distributed",
    interval=(0.25, 0.75),
    profile: str = "bump",
):
    """Finite-difference heat equation on the unit interval, Dirichlet ends.

    A is the standard second-difference Laplacian ``(n+1)^2 tridiag(1,-2,1)``
    on ``n`` interior nodes.  The control column is either the indicator
    of a sub-interval (``distributed``) or ``(1/dx) e_1``
    (``boundary_flavored``), whose norm grows under grid refinement.
    C is the identity, so the coercivity constant is 1.  Returns the
    system and the target profile sampled at the interior nodes.
    """
    if n < 3:
        raise ValueError(f"need at least 3 interior nodes, got {n}")
    if control not in HEAT_CONTROLS:
        raise ConfigError(
            f"unknown control kind '{control}', expected one of {HEAT_CONTROLS}"
        )
    if profile not in HEAT_PROFILES:
        raise ConfigError(
            f"unknown target profile '{profile}', expected one of {HEAT_PROFILES}"
        )
    dx = 1.0 / (n + 1)
    a = (np.diag(np.full(n - 1, 1.0), -1)
         + np.diag(np.full(n, -2.0))
         + np.diag(np.full(n - 1, 1.0), 1)) / dx**2
    nodes = dx * np.arange(1, n + 1)
    if control == "distributed":
        lo, hi = float(interval[0]), float(interval[1])
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigError(
                f"control interval must satisfy 0 <= lo < hi <= 1, got ({lo}, {hi})"
            )
        b = ((nodes >= lo) & (nodes <= hi)).astype(float).reshape(n, 1)
        if not b.any():
            raise ConfigError(
                f"control interval ({lo}, {hi}) contains no grid node"
            )
    else:
        b = np.zeros((n, 1))
        b[0, 0] = 1.0 / dx
    if profile == "bump":
        z = 4.0 * nodes * (1.0 - nodes)
    elif profile == "sine":
        z = np.sin(np.pi * nodes)
    else:
        z = np.zeros(n)
    return make_system(a, b, np.eye(n)), z


_DEFAULT_TOLERANCES = {"solver": 1e-10}

_SCENARIO_DEFAULTS = {
    "scalar": {"n": 1, "m": 1, "dt": 1e-3},
    "random_stable": {"n": 4, "m": 2, "dt": 1e-3},
    "heat_1d": {"n": 50, "m": 1, "dt": 1e-2},
    "custom": {"n": None, "m": None, "dt": 1e-3},
}

_KNOWN_KEYS = {
    "scenario",
    "n",
    "m",
    "seed",
    "horizons",
    "dt",
    "target",
    "ks",
    "tolerances",
    "output_dir",
    "margin",
    "control",
    "interval",
    "x0",
    "system",
    "solver",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment configuration with defaults filled in."""

    scenario: str
    n: int
    m: int
    seed: int = 42
    horizons: tuple = (5.0, 10.0, 20.0)
    dt: float = 1e-3
    target: object = None  # profile name, inline vector, or None for default
    ks: tuple = (10.0, 100.0, 1000.0)
    tolerances: dict = field(default_factory=lambda: dict(_DEFAULT_TOLERANCES))
    output_dir: str = "out"
    margin: float = 1.0
    control: str = "distributed"
    interval: tuple = (0.25, 0.75)
    x0: object = None
    system: object = None  # inline matrices for the custom scenario
    solver: str | None = None  # None picks the scenario default


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment configuration.

    Unknown keys are rejected; each invariant violation is reported with
    the offending field and value.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(raw)


def _check_time_grid(dt: float, horizons) -> None:
    """Raise ConfigError unless dt > 0 splits every horizon into whole steps."""
    if dt <= 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if not horizons:
        raise ConfigError("horizons must be nonempty")
    for t_final in horizons:
        if t_final <= 0.0:
            raise ConfigError(f"horizons must be positive, got {t_final}")
        ratio = t_final / dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ConfigError(
                f"dt {dt} does not divide horizon {t_final} into whole steps"
            )


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    scenario = raw.get("scenario")
    if scenario not in SCENARIO_NAMES:
        raise ConfigError(
            f"unknown scenario {scenario!r}; valid names: {', '.join(SCENARIO_NAMES)}"
        )
    defaults = _SCENARIO_DEFAULTS[scenario]

    n = raw.get("n", defaults["n"])
    m = raw.get("m", defaults["m"])
    if scenario == "custom":
        system = raw.get("system")
        if system is None:
            raise ConfigError("custom scenario requires a 'system' entry")
        try:
            a = np.asarray(system["a"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("custom system must define matrix 'a'") from exc
        n = n if n is not None else a.shape[0]
        m = m if m is not None else np.asarray(system.get("b", [[0.0]])).shape[1]
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"n must be a positive integer, got {n!r}")
    if not isinstance(m, int) or m < 1:
        raise ConfigError(f"m must be a positive integer, got {m!r}")

    seed = raw.get("seed", 42)
    if not isinstance(seed, int) or seed < 0 or seed >= 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed!r}")

    dt = float(raw.get("dt", defaults["dt"]))
    horizons = tuple(float(t) for t in raw.get("horizons", (5.0, 10.0, 20.0)))
    _check_time_grid(dt, horizons)

    ks = tuple(float(k) for k in raw.get("ks", (10.0, 100.0, 1000.0)))
    if any(k <= 0 for k in ks):
        raise ConfigError("all ks must be positive")
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise ConfigError("ks must be strictly increasing")

    tolerances = dict(_DEFAULT_TOLERANCES)
    extra_tol = raw.get("tolerances", {})
    if not isinstance(extra_tol, dict):
        raise ConfigError("tolerances must be an object")
    unknown_tol = sorted(set(extra_tol) - set(_DEFAULT_TOLERANCES))
    if unknown_tol:
        raise ConfigError(f"unknown tolerance keys: {', '.join(unknown_tol)}")
    for key, value in extra_tol.items():
        value = float(value)
        if value <= 0.0:
            raise ConfigError(f"tolerance '{key}' must be positive, got {value}")
        tolerances[key] = value

    control = raw.get("control", "distributed")
    if control not in HEAT_CONTROLS:
        raise ConfigError(
            f"unknown control kind {control!r}, expected one of {HEAT_CONTROLS}"
        )
    interval = tuple(float(v) for v in raw.get("interval", (0.25, 0.75)))
    if len(interval) != 2:
        raise ConfigError(f"interval must have two endpoints, got {interval}")

    margin = float(raw.get("margin", 1.0))
    if margin <= 0.0:
        raise ConfigError(f"margin must be positive, got {margin}")

    solver = raw.get("solver")
    if solver is not None and solver not in ("transcription", "riccati-sweep"):
        raise ConfigError(
            f"unknown solver {solver!r}, expected 'transcription' or 'riccati-sweep'"
        )

    # Precedence for the output directory: config entry, then the
    # LQTURNPIKE_OUT environment variable, then "out".
    default_out = os.environ.get("LQTURNPIKE_OUT", "out")
    return ExperimentConfig(
        scenario=scenario,
        n=n,
        m=m,
        seed=seed,
        horizons=horizons,
        dt=dt,
        target=raw.get("target"),
        ks=ks,
        tolerances=tolerances,
        output_dir=str(raw.get("output_dir", default_out)),
        margin=margin,
        control=control,
        interval=interval,
        x0=raw.get("x0"),
        system=raw.get("system"),
        solver=solver,
    )


def build_scenario(config: ExperimentConfig):
    """Materialize (system, target, initial state) from a configuration."""
    if config.scenario == "scalar":
        sys, z, x0 = scalar_example()
    elif config.scenario == "random_stable":
        sys = random_stable(config.n, config.m, config.seed, config.margin)
        z, x0 = random_target_and_state(config.n, config.seed)
    elif config.scenario == "heat_1d":
        profile = config.target if isinstance(config.target, str) else "bump"
        sys, z = heat_1d(config.n, config.control, config.interval, profile)
        x0 = np.zeros(config.n)
    elif config.scenario == "custom":
        system = config.system
        try:
            sys = make_system(system["a"], system["b"], system["c"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(
                "custom scenario requires 'system' with matrices a, b, c"
            ) from exc
        if config.target is None or isinstance(config.target, str):
            raise ConfigError("custom scenario requires an inline 'target' vector")
        z = np.asarray(config.target, dtype=float)
        x0 = (
            np.zeros(sys.n)
            if config.x0 is None
            else np.asarray(config.x0, dtype=float)
        )
    else:  # pragma: no cover - guarded by config validation
        raise ConfigError(f"unknown scenario {config.scenario!r}")

    if isinstance(config.target, (list, tuple)) and config.scenario != "custom":
        z = np.asarray(config.target, dtype=float)
    if config.x0 is not None and config.scenario != "custom":
        x0 = np.asarray(config.x0, dtype=float)
    if z.shape != (sys.n,):
        raise ConfigError(f"target must have length {sys.n}, got shape {z.shape}")
    if x0.shape != (sys.n,):
        raise ConfigError(f"x0 must have length {sys.n}, got shape {x0.shape}")
    return sys, z, x0
