"""Self-tests of the benchmark harness, at tiny sizes.

The test workloads below are run by real child processes, which import
this module by name through ``run.run_workload("test_perfbench:<name>")``.
"""

import os
import re
import shutil
import signal
import subprocess
import sys

import pytest

import child
import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _raises(seed, work_dir):
    def run_pass():
        yield "first", True, "ok"
        raise RuntimeError("boom")

    return workloads.Workload(("first", "second", "third"), run_pass)


def _killed(seed, work_dir):
    def run_pass():
        yield "first", True, "ok"
        os.kill(os.getpid(), signal.SIGSEGV)
        yield "second", True, "not reached"

    return workloads.Workload(("first", "second"), run_pass)


def _tiny_heat(seed, work_dir):
    return workloads.heat_sweep(seed, work_dir, n=6, horizon=0.1)


WORKLOADS = {"raises": _raises, "killed": _killed, "tiny-heat": _tiny_heat}


@pytest.fixture
def spec(monkeypatch):
    monkeypatch.setattr(run, "SETUP_CHILDREN", 0)
    return run.load_spec()


def test_raising_operation_counts_as_failed(spec):
    result, record = run.run_workload("test_perfbench:raises", 1, 0, 0, spec)
    passes = child.MIN_PASSES
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 3 * passes, 2 * passes,
    )
    details = [op["detail"] for op in record["operations"]]
    assert details == passes * ["ok", "raised RuntimeError('boom')", "not reached"]


def test_child_killed_by_signal_counts_as_failed(spec):
    result, record = run.run_workload("test_perfbench:killed", 1, 0, 0, spec)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert record["operations"][1] == {
        "name": "second", "ok": False, "detail": "killed by SIGSEGV",
    }


def test_traced_run_reports_declared_layers(spec):
    result, record = run.run_workload("test_perfbench:tiny-heat", 2, 0, 1, spec)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (
        True, 5 * child.MIN_PASSES, 0,
    )
    assert [m["name"] for m in spec["per_layer"]] == list(result["metrics"])
    assert result["metrics"]["lq.solve_riccati_sweep.calls"]["value"] == 1
    fingerprint = record["fingerprint"]
    for key in ("python", "numpy", "scipy", "blas", "cpu_count", "kernel_path",
                "git_commit", "seed"):
        assert key in fingerprint


def _lookup_state():
    """Identity of every value at every lookup site of the package."""
    state = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("lqturnpike"):
            continue
        for key, value in vars(module).items():
            if key.startswith("__"):
                continue
            state[(name, key)] = id(value)
            if isinstance(value, dict):
                state.update(((name, key, k), id(v)) for k, v in value.items())
            elif isinstance(value, list):
                state.update(((name, key, i), id(v)) for i, v in enumerate(value))
    return state


def test_traced_block_restores_every_wrapped_attribute(tmp_path):
    import lqturnpike
    from lqturnpike import turnpike

    before = _lookup_state()
    sweep = lqturnpike.solve_riccati_sweep
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer) as replaced:
            wrapper = turnpike.SOLVERS["riccati-sweep"]
            assert wrapper is not sweep and wrapper.__wrapped__ is sweep
            assert lqturnpike.solve_riccati_sweep is wrapper
            heat = _tiny_heat(1, str(tmp_path))
            assert all(ok for _, ok, _ in heat.run_pass())
            refine = workloads.heat_refine(1, str(tmp_path), ns=(6,))
            list(refine.run_pass())
            raise RuntimeError("leave the block by an exception")
    assert len(replaced) > len(tracing.TARGETS)
    assert all(container[key] is original for container, key, original in replaced)
    assert _lookup_state() == before
    names = {span[0] for span in tracer.spans}
    assert {"lq.solve_riccati_sweep", "lq.solve_transcription", "cli.main"} <= names


def test_missing_target_yields_no_span(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS", tracing.TARGETS + (("gone.fn", "lqturnpike.lq", "no_such_fn"),
                                               ("gone.mod", "lqturnpike.no_such_mod", "f"))
    )
    with tracing.traced(tracing.Tracer()) as replaced:
        pass
    assert replaced


def test_metric_names(spec):
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) for name in declared)
    spans = [[name, 0.0, 1.0, -1] for name, _, _ in tracing.TARGETS]
    spans += [[f"verification.criterion_{k}", 0.0, 1.0, -1] for k in range(1, 12)]
    emitted = child.layer_metrics(spans, {"reporting.write_csv.bytes": 1}, 1.0)
    emitted.update({"setup.import_s": 1.0, "setup.kernels_compiled": 0.0})
    assert set(emitted) == {m["name"] for m in spec["per_layer"]}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heat-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench-runs").exists()
