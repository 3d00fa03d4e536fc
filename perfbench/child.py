"""One benchmark child process: set up a workload, then run timed passes.

The parent (run.py) starts this script under an address-space limit and
reads one JSON object per line from the descriptor ``--proto-fd``:

    {"event": "ready", "operations": [...], "import_s": ..., "fingerprint": {...}}
    {"event": "pass_start"}
    {"event": "op", "name": ..., "ok": ..., "detail": ...}     one per operation
    {"event": "pass", "wall_s": ..., "layers": {...}}          layers only when traced

A separate descriptor keeps the protocol intact whatever the library or
native code prints.  With ``--setup-only`` the child exits after "ready".
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import lqturnpike  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import tracing  # noqa: E402

MIN_PASSES = 3


def kernel_path():
    """``numba`` or ``pure-python``: which inner loops the sweep runs."""
    try:
        kernels = importlib.import_module("lqturnpike._kernels")
    except ImportError:
        return "no-kernels-module"
    return "pure-python" if getattr(kernels, "_njit", None) is None else "numba"


def blas_info():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    info = {"env": {k: os.environ[k] for k in names if k in os.environ}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def fingerprint():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lqturnpike": getattr(lqturnpike, "__version__", None),
        "blas": blas_info(),
        "cpu_count": os.cpu_count(),
        "kernel_path": kernel_path(),
    }


def layer_metrics(spans, counters, wall_s):
    """The per-layer metrics of one traced pass."""
    totals = tracing.layer_totals(spans)
    out = {"trace.wall_s": wall_s}
    for name, entry in totals.items():
        if name.startswith("verification.criterion_"):
            out[name + ".s"] = entry["s"]
            continue
        for key, value in entry.items():
            out[f"{name}.{key}"] = value
    sweep, transcription = "lq.solve_riccati_sweep", "lq.solve_transcription"
    out[sweep + ".backward_s"] = tracing.time_within(spans, "riccati.backward_sweep_loop", sweep)
    out[sweep + ".forward_s"] = tracing.time_within(spans, "lq.closed_loop_forward_loop", sweep)
    out[transcription + ".factor_s"] = tracing.time_within(spans, "lq.spsolve", transcription)
    out.update(counters)
    return out


def run_pass(workload, send, trace):
    send(event="pass_start")
    tracer = tracing.Tracer()
    reached = set()
    detail = "not reached"
    with tracing.traced(tracer) if trace else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            for name, ok, text in workload.run_pass():
                send(event="op", name=name, ok=bool(ok), detail=text)
                reached.add(name)
        except Exception as exc:  # an operation that raises is a failed operation
            traceback.print_exc()
            detail = f"raised {exc!r}"
        wall_s = time.perf_counter() - start
    for name in workload.operations:
        if name not in reached:
            send(event="op", name=name, ok=False, detail=detail)
            detail = "not reached"
    layers = layer_metrics(tracer.spans, tracer.counters, wall_s) if trace else None
    send(event="pass", wall_s=wall_s, layers=layers)
    return wall_s


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, help="module:name in a WORKLOADS dict")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--proto-fd", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    proto = os.fdopen(args.proto_fd, "w", buffering=1, encoding="utf-8")

    def send(**event):
        proto.write(json.dumps(event) + "\n")

    module_name, name = args.workload.split(":", 1)
    factory = importlib.import_module(module_name).WORKLOADS[name]
    workload = factory(args.seed, args.work_dir)
    send(event="ready", operations=list(workload.operations), import_s=IMPORT_S,
         fingerprint=fingerprint())
    if args.setup_only:
        return
    # Passes run while the next one, at the median pass time so far, still
    # fits in the measuring time, and at least MIN_PASSES run: the median
    # of three passes of a long workload sets aside one pass that the
    # shared host slowed, where the median of two is their mean.
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(run_pass(workload, send, args.trace))
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
            break


if __name__ == "__main__":
    main()
