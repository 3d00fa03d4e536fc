"""The command line and the acceptance gate run on one BLAS thread."""

import json

import pytest

from lqturnpike import _blas, lq, verification
from lqturnpike.cli import main


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def pools_at():
    """Set every OpenBLAS pool to a thread count; the caller's counts come back after.

    Skips the test when the process has loaded no OpenBLAS.
    """
    pools = _blas.openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS pool loaded")
    saved = _blas.thread_counts()

    def set_all(count):
        for _, set_ in pools.values():
            set_(count)
        assert set(_blas.thread_counts().values()) == {count}

    yield set_all
    for name, (_, set_) in pools.items():
        set_(saved[name])


def test_turnpike_bytes_do_not_depend_on_the_callers_threads(tmp_path, pools_at):
    # At two threads the ARE's Schur form of this 200 x 200 Hamiltonian
    # rounds differently from one thread, and so did the CSVs.
    path = write_config(
        tmp_path,
        {
            "scenario": "heat_1d", "n": 100, "control": "boundary_flavored",
            "horizons": [5.0], "dt": 1e-2,
        },
    )
    outs = []
    for threads in (2, 1):
        pools_at(threads)
        out = tmp_path / f"threads{threads}"
        assert main(["turnpike", "--config", path, "--out", str(out)]) == 0
        assert set(_blas.thread_counts().values()) == {threads}
        outs.append(out)
    for name in ("turnpike_T5.csv", "turnpike_summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["stationary"], 0),
        (["solve", "--dt", "0"], 2),
    ],
)
def test_main_restores_the_thread_count(tmp_path, pools_at, argv, code):
    pools_at(2)
    assert main([*argv, "--out", str(tmp_path / "o")]) == code
    assert set(_blas.thread_counts().values()) == {2}


def test_run_suite_restores_the_thread_count(pools_at):
    pools_at(2)
    assert all(result.passed for result in verification.run_suite("quick"))
    assert set(_blas.thread_counts().values()) == {2}


def test_run_suite_restores_the_thread_count_on_error(pools_at, monkeypatch):
    def broken(ctx):
        raise RuntimeError("criterion raised")

    monkeypatch.setattr(verification, "CRITERIA", (broken,))
    pools_at(2)
    with pytest.raises(RuntimeError, match="criterion raised"):
        verification.run_suite("quick")
    assert set(_blas.thread_counts().values()) == {2}


def test_riccati_pass_runs_on_one_thread(tmp_path, pools_at, monkeypatch):
    seen = []
    backward = lq.riccati_backward_pass

    def spy(*args, **kwargs):
        seen.append(_blas.thread_counts())
        return backward(*args, **kwargs)

    monkeypatch.setattr(lq, "riccati_backward_pass", spy)
    pools_at(2)
    assert main(["solve", "--out", str(tmp_path / "o")]) == 0
    assert seen and all(set(counts.values()) == {1} for counts in seen)
    assert set(_blas.thread_counts().values()) == {2}


def test_no_pool_found_runs_and_records_none(tmp_path, monkeypatch):
    monkeypatch.setattr(_blas, "openblas_pools", dict)
    out = tmp_path / "o"
    assert main(["solve", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["environment"]["blas"] == {}


def test_serial_blas_restores_after_an_exception(pools_at):
    pools_at(2)
    with pytest.raises(ValueError):
        with _blas.serial_blas():
            assert set(_blas.thread_counts().values()) == {1}
            raise ValueError("leave the block")
    assert set(_blas.thread_counts().values()) == {2}
