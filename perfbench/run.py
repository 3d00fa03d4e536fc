"""Benchmark of record for lqturnpike.

    python3 perfbench/run.py --workload heat-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                    # every workload, untraced and traced

One run of one workload starts fresh child processes (child.py), each
under a 3 GiB address-space limit set on that child only:

* ``SETUP_CHILDREN`` set-up-only children;
* the measuring child, which sets up once more and then runs passes over
  the workload's fixed operations for ``--seconds``.

``setup_s`` is the median, over the set-up children and the measuring
child, of the time from spawning a fresh interpreter to the child's
"ready" (imports plus scenario set-up, before the first solve).
``wall_s`` is the median pass time of the measuring child and
``peak_rss_mb`` its peak resident memory from ``os.wait4``.  An operation
that raises or misses its check, or that a child did not finish because
it died, exited non-zero or ran out of time, is a failed operation.

With ``--trace 1`` the measuring child wraps the package's public calls
(tracing.py) and the run reports the per-layer metrics instead; the
tracing overhead is that run's ``trace.wall_s`` minus ``wall_s``.

The last line of standard output is the result object; the full record,
with an environment fingerprint, goes to .perfbench-runs/.
"""

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"
MEMORY_CAP_BYTES = 3 * 1024**3
SETUP_CHILDREN = 2
# Every run must end within 180 s; children still running at this point
# are killed and their unfinished operations count as failed.
RUN_LIMIT_S = 170.0
# Runs only on request: heat-refine plus n = 200, which fails today.
PROBE = "heat-refine-full"


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    # A child killed by a signal must not leave a core file in the checkout.
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


class ChildRun:
    """What one child reported, how it ended, and its resource usage."""

    def __init__(self):
        self.events = []
        self.setup_s = None
        self.status = None  # exit code, or -signal number
        self.timed_out = False
        self.peak_rss_mb = None
        self.elapsed_s = None

    def of(self, kind):
        return [e for e in self.events if e["event"] == kind]

    def ended(self):
        if self.timed_out:
            return "timed out"
        if self.status < 0:
            return f"killed by {signal.Signals(-self.status).name}"
        return f"exit code {self.status}"


def spawn(workload, seed, seconds, trace, work_dir, deadline, setup_only=False):
    """Run child.py to completion (or the deadline) and collect its events."""
    read_fd, write_fd = os.pipe()
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--work-dir", str(work_dir), "--proto-fd", str(write_fd),
    ]
    if setup_only:
        cmd.append("--setup-only")
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    run = ChildRun()
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            pass_fds=(write_fd,), preexec_fn=_limit_child,
        )
    finally:
        os.close(write_fd)
    try:
        buffer = b""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                run.timed_out = True
                proc.kill()
                break
            chunk = os.read(read_fd, 65536)
            if not chunk:
                break
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                event = json.loads(line)
                if event["event"] == "ready":
                    run.setup_s = time.perf_counter() - start
                run.events.append(event)
    except BaseException:
        proc.kill()
        raise
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = run.status = os.waitstatus_to_exitcode(status)
    run.elapsed_s = time.perf_counter() - start
    run.peak_rss_mb = usage.ru_maxrss / 1024.0
    return run


def tally(run, operations):
    """Per-operation outcomes of the measuring child, unfinished ones failed."""
    outcomes = []
    current = None
    for event in run.events:
        if event["event"] == "pass_start":
            current = []
        elif event["event"] == "op":
            current.append((event["name"], event["ok"], event["detail"]))
        elif event["event"] == "pass":
            outcomes.extend(current)
            current = None
    if current is not None:  # the child ended inside a pass
        reached = {name for name, _, _ in current}
        outcomes.extend(current)
        outcomes.extend((name, False, run.ended()) for name in operations if name not in reached)
    elif run.status != 0 or run.timed_out:
        outcomes.append(("child", False, run.ended()))
    return outcomes


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload, seed, seconds, trace, spec):
    """One run of one workload; returns (result line object, full record)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    RUNS.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    target = workload if ":" in workload else f"workloads:{workload}"
    try:
        setups = []
        for _ in range(SETUP_CHILDREN):
            child = spawn(target, seed, seconds, trace, work_dir, deadline, setup_only=True)
            if child.setup_s is None or child.status != 0:
                raise RuntimeError(f"set-up of {workload} failed: {child.ended()}")
            setups.append(child)
        main = spawn(target, seed, seconds, trace, work_dir, deadline)
        if main.setup_s is None:
            raise RuntimeError(f"set-up of {workload} failed: {main.ended()}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setups.append(main)

    ready = main.of("ready")[0]
    outcomes = tally(main, ready["operations"])
    failed = sum(1 for _, ok, _ in outcomes if not ok)
    passes = main.of("pass")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        layers = [p["layers"] for p in passes] or [{}]
        measured = {
            m["name"]: statistics.median(layer.get(m["name"], 0.0) for layer in layers)
            for m in declared
        }
        measured["setup.import_s"] = statistics.median(c.of("ready")[0]["import_s"] for c in setups)
        measured["setup.kernels_compiled"] = float(ready["fingerprint"]["kernel_path"] == "numba")
    else:
        # A child that died in its first pass: report the time it ran.
        walls = [p["wall_s"] for p in passes] or [main.elapsed_s - main.setup_s]
        measured = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(c.setup_s for c in setups),
            "peak_rss_mb": main.peak_rss_mb,
        }
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fingerprint": dict(ready["fingerprint"], git_commit=git_commit(), seed=seed),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": [c.setup_s for c in setups],
        "operations": [{"name": n, "ok": ok, "detail": d} for n, ok, d in outcomes],
        "result": result,
    }
    return result, record


def report(result, record):
    fails = [op for op in record["operations"] if not op["ok"]]
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{record['passes']} pass(es), fail_ratio {result['failed']}/{result['attempted']}"
    )
    for op in fails:
        print(f"  FAILED {op['name']}: {op['detail']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    path = RUNS / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def run_all(seed, seconds, spec):
    """Every workload untraced and traced, then the probe untraced."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]] + [PROBE]:
        plain, record = run_workload(workload, seed, seconds, 0, spec)
        report(plain, record)
        traced = {}
        if workload != PROBE:
            layers, record = run_workload(workload, seed, seconds, 1, spec)
            report(layers, record)
            traced = {k: v["value"] for k, v in layers["metrics"].items()}
        rows.append((workload, plain, traced))
    print()
    print(f"{'workload':18}{'wall_s [s]':>11}{'setup_s [s]':>12}{'peak_rss_mb [MB]':>17}"
          f"{'fail_ratio':>12}{'trace overhead [s]':>19}{'sweep share':>12}"
          f"{'transcription share':>20}")
    for workload, plain, traced in rows:
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        line = (f"{workload:18}{m['wall_s']:11.3f}{m['setup_s']:12.3f}{m['peak_rss_mb']:17.1f}"
                f"{plain['failed']:>7}/{plain['attempted']:<4}")
        if traced:
            wall = traced["trace.wall_s"]
            line += (f"{wall - m['wall_s']:19.3f}"
                     f"{traced['lq.solve_riccati_sweep.s'] / wall:12.1%}"
                     f"{traced['lq.solve_transcription.s'] / wall:20.1%}")
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "lqturnpike" / "__init__.py").is_file():
        parser.exit(2, f"error: no lqturnpike sources under {ROOT / 'src'}\n")
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    known = {w["name"] for w in spec["workloads"]} | {PROBE}
    try:
        if args.workload == "all":
            run_all(args.seed, seconds, spec)
            return 0
        if args.workload not in known:
            parser.error(f"unknown workload {args.workload!r}; known: {sorted(known)}")
        result, record = run_workload(args.workload, args.seed, seconds, args.trace, spec)
    except RuntimeError as exc:
        parser.exit(1, f"error: {exc}\n")
    report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
