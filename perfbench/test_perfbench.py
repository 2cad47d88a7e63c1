"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest perfbench -q

They run real ops of every workload, so they take a few minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before NumPy loads

import pytest
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _result_lines(argv, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().splitlines()


@pytest.fixture
def work():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.WORK, prefix="test-"))
    yield path
    shutil.rmtree(path)


@pytest.mark.parametrize("name", NAMES)
def test_inputs_match_recorded_digests(name, work):
    ref = workloads.load_reference()[name]
    w = workloads.WORKLOADS[name]()
    w.prepare(work)
    assert w.op("warmup", workloads.warmup_input(w)).digest() == ref["warmup_sha256"]
    for i, want in enumerate(ref["seed0_sha256"]):
        assert w.op(f"op{i}", workloads.timed_input(w, 0, i)).digest() == want
    other = workloads.WORKLOADS[name]()
    (work / "seed1").mkdir()
    other.prepare(work / "seed1")
    assert other.op("op0", workloads.timed_input(other, 1, 0)).digest() != ref["seed0_sha256"][0]


@pytest.mark.parametrize("name", NAMES)
def test_tracing_restores_functions_and_keeps_outputs_bitwise_equal(name, work):
    from latseg import cli

    w = workloads.WORKLOADS[name]()
    w.prepare(work)
    made = workloads.timed_input(w, 0, 0)
    plain = w.op("plain", made)
    assert run.run_op(cli, plain, "timed").error is None
    want = [f.read_bytes() for f in w.output_files(plain)]

    counts = []
    for memory in (False, True):
        tracer = tracing.Tracer(memory=memory)
        with tracer:
            patched = list(tracer._patched)
            assert patched
            for owner, attr, original in patched:
                assert owner.__dict__[attr] is not original
            op = w.op(f"traced{int(memory)}", made)
            assert run.run_op(cli, op, "traced", tracer).error is None
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is original
        assert [f.read_bytes() for f in w.output_files(op)] == want

        self_times, walls = tracer.self_times()
        assert abs(sum(self_times[0].values()) - walls[0]) <= 1e-9 * walls[0]
        assert self_times[0]["lattice.build"] > 0
        assert tracer.op_metrics(0)["lattice.builds"] >= 1
        counts.append({k: v for k, v in tracer.op_metrics(0).items()
                       if not k.endswith("_peak_mb")})
    assert counts[0] == counts[1]
    assert tracer.op_metrics(0)["network.forward_peak_mb" if name != "sparse_filter"
                                else "bcl.splat_peak_mb"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_printed_metrics_match_benchmark_json(name):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc, lines = _result_lines(["--workload", name, "--seed", "3", "--seconds",
                                     "0.1", "--trace", str(trace)], run.ROOT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        diag = json.loads(lines[-2])["diagnostics"]
        assert diag["error_rate"] == 0.0
        if trace:
            assert diag["trace_self_sum_error"] < 1e-9
            assert (run.ROOT / diag["spans_file"]).is_file()


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == NAMES


def test_failing_op_is_counted(work, monkeypatch):
    real = workloads.timed_input

    def corrupt_first(workload, seed, index):
        made = real(workload, seed, index)
        if index == 0:
            made[0].write_text("ply\nnot a cloud\n")
        return made

    monkeypatch.setattr(workloads, "timed_input", corrupt_first)
    w = workloads.WORKLOADS["sparse_filter"]()
    result, diag = run.run_workload(w, 5, 3.0, 0, work)
    assert result["failed"] == 1
    assert result["correct"] is False
    assert diag["error_rate"] == 1 / result["attempted"]
    assert diag["errors"][0].startswith("timed op0: exit code 2")


def test_exits_nonzero_without_the_program(work):
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    shutil.copytree(run.HERE, work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _result_lines(["--workload", "facade_predict", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"], work)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_steal_meter_reads_the_pinned_cpu_line():
    assert run.StealMeter(None).label == "cpu"
    assert run.StealMeter(0)._ticks() is not None
    assert run.StealMeter(1 << 20)._ticks() is None
