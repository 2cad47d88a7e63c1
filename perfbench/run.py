"""latseg benchmark: one workload, one process, closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one in-process call to latseg.cli.main([...]) on input files the
benchmark generated from the seed; the next op starts when the previous one
returns. The program is imported from src/ of the checkout this file sits
in. The last line of stdout is the result,
{"correct", "attempted", "failed", "metrics"}; the line before it holds run
diagnostics that are not gated.

A run goes:
  1. write the fixed warm-up input and check its digest against
     reference.json;
  2. set-up, SETUP_SAMPLES times: import the program and run the warm-up op,
     in fresh interpreters and finally in this process (setup_s is the
     median);
  3. timed ops on fresh inputs until their summed time reaches --seconds,
     with a speed probe (speed.py) before the first op and after each op;
  4. with --trace 1, TRACED_OPS traced ops and MEMORY_OPS ops traced with
     tracemalloc, for the per-layer metrics;
  5. check every op's output (outside any timing).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import os

# One BLAS thread, before NumPy loads anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REFERENCE_S, SpeedProbe, pin_to_current_cpu  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 9
MIN_TIMED_OPS = 2
TRACED_OPS = 3
MEMORY_OPS = 1
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"points_per_s": "points/s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units():
    from tracing import PEAKS, SELF_TIMES

    units = {f"{name}_s": "s" for name in SELF_TIMES}
    units.update({f"{name}_peak_mb": "MB" for name in PEAKS})
    units.update({
        "lattice.builds": "count", "lattice.points": "count",
        "lattice.vertices": "count", "lattice.adjacency_fill": "ratio",
        "lattice.rebuild_ratio": "ratio", "bcl.splat_values": "count",
        "bcl.slice_values": "count", "train.iterations": "count",
        "data.read_mb": "MB", "data.written_mb": "MB",
        "trace.overhead_ratio": "ratio",
    })
    return units


class Record:
    """What one op did: its kind, Op, wall seconds and error (None if fine)."""

    def __init__(self, kind, op, seconds, error):
        self.kind, self.op, self.seconds, self.error = kind, op, seconds, error


def run_op(cli, op, kind, tracer=None):
    """One closed-loop op: cli.main(argv) with stdout and stderr captured."""
    captured = io.StringIO()

    def call():
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            return cli.main(op.argv)

    gc.collect()
    start = time.perf_counter()
    try:
        rc = tracer.run_op(call) if tracer else call()
        error = None if rc == 0 else f"exit code {rc}: {captured.getvalue()[-300:]}"
    except (Exception, SystemExit):
        error = traceback.format_exc(limit=3)[-600:]
    return Record(kind, op, time.perf_counter() - start, error)


def probe_setup(op):
    """Set-up sample in a fresh interpreter.

    Returns (seconds, mean probe seconds around them, error)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *op.argv],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, None, f"set-up probe took over {PROBE_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None, f"set-up probe failed: {proc.stderr[-600:]}"
    sample = json.loads(lines[-1])
    error = f"exit code {sample['rc']}" if sample["rc"] != 0 else None
    return sample["setup_s"], statistics.fmean(sample["probe_s"]), error


class StealMeter:
    """Share of CPU ticks stolen by the host while ops run, from the
    /proc/stat line of the CPU the process is pinned to (all CPUs if None)."""

    def __init__(self, cpu=None):
        self.label = "cpu" if cpu is None else f"cpu{cpu}"
        self.steal = self.total = 0

    def _ticks(self):
        try:
            with open("/proc/stat", encoding="ascii") as fh:
                for line in fh:
                    tok = line.split()
                    if tok and tok[0] == self.label:
                        fields = [int(x) for x in tok[1:9]]
                        return fields[7], sum(fields)
        except (OSError, ValueError, IndexError):
            pass
        return None

    def __enter__(self):
        self._start = self._ticks()
        return self

    def __exit__(self, *exc):
        end = self._ticks()
        if self._start and end:
            self.steal += end[0] - self._start[0]
            self.total += end[1] - self._start[1]
        return False

    @property
    def fraction(self):
        return self.steal / self.total if self.total else None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_outputs(workload, records, reference):
    """Fill in each record's error from the workload's output check.

    The warm-up ops all ran on one input, so their outputs must be byte
    identical; the one from this process is also held to the reference.
    """
    def outputs(op):
        return [f.read_bytes() for f in workload.output_files(op)]

    def check(record):
        if record.kind == "warmup":
            return workload.check(record.op, reference)
        if record.kind == "setup":
            if warm.error is not None:
                return "no warm-up output to compare with"
            if outputs(record.op) != outputs(warm.op):
                return "warm-up output differs from this process's warm-up output"
            return None
        return workload.check(record.op)

    warm = next(r for r in records if r.kind == "warmup")
    for r in sorted(records, key=lambda r: r is not warm):
        if r.error is None:
            try:
                r.error = check(r)
            except Exception as exc:  # a broken output fails its op, not the run
                r.error = f"output check raised {exc!r}"


def per_layer_metrics(tracer, memory_tracer, timed_seconds, traced_seconds):
    self_times, walls = tracer.self_times()
    counts = [tracer.op_metrics(i) for i in range(len(walls))]
    peaks = [memory_tracer.op_metrics(i) for i in range(len(memory_tracer.op_counts))]
    units = per_layer_units()
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_ratio":
            value = statistics.median(traced_seconds) / statistics.median(timed_seconds)
        elif name.endswith("_peak_mb"):
            value = statistics.median(p[name] for p in peaks)
        elif name.endswith("_s"):
            value = statistics.median(t.get(name[:-2], 0.0) for t in self_times)
        else:
            value = statistics.median(c.get(name, 0.0) for c in counts)
        metrics[name] = {"value": value, "unit": unit}
    sum_error = max(abs(sum(t.values()) - w) / w for t, w in zip(self_times, walls))
    return metrics, sum_error


def run_workload(workload, seed, seconds, trace, work, cpu=None):
    from tracing import Tracer
    from workloads import load_reference, timed_input, traced_input, warmup_input

    reference = load_reference()[workload.name]
    workload.prepare(work)
    records, diag = [], {}

    warm_input = warmup_input(workload)
    warm_op = workload.op("warmup", warm_input)
    diag["warmup_input_ok"] = warm_op.digest() == reference["warmup_sha256"]

    # Set-up samples as (seconds, mean probe seconds around them).
    setup = []
    for i in range(SETUP_SAMPLES - 1):
        op = workload.op(f"setup{i}", warm_input)
        sample, speed, error = probe_setup(op)
        records.append(Record("setup", op, sample, error))
        if sample is not None:
            setup.append((sample, speed))
    probe = SpeedProbe()
    before = probe()
    start = time.perf_counter()
    from latseg import cli  # the program's first import in this process

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"latseg imported from {cli.__file__}, not from {SRC}")
    warm = run_op(cli, warm_op, "warmup")
    setup.append((time.perf_counter() - start, (before + probe()) / 2))
    records.append(warm)

    steal = StealMeter(cpu)
    digests = hashlib.sha256()
    timed, index, measured = [], 0, 0.0
    probe.samples.clear()
    probe()
    # A failing op ends the loop early: failures can be fast, and the run
    # has to end in bounded time whatever the program does.
    while len(timed) < MIN_TIMED_OPS or (
            measured < seconds and all(r.error is None for r in timed)):
        op = workload.op(f"op{index}", timed_input(workload, seed, index))
        digests.update(op.digest().encode())
        index += 1
        with steal:
            rec = run_op(cli, op, "timed")
        probe()
        timed.append(rec)
        measured += rec.seconds
    # Each timed op ran at the mean speed of the probes just before and after it.
    op_probe = [(a + b) / 2 for a, b in zip(probe.samples, probe.samples[1:])]
    # The peak so far, before traced ops and output checks allocate.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = []
    if trace:
        ops = [workload.op(f"traced{i}", traced_input(workload, seed, i))
               for i in range(TRACED_OPS + MEMORY_OPS)]
        with Tracer() as tracer:
            traced += [run_op(cli, op, "traced", tracer) for op in ops[:TRACED_OPS]]
        with Tracer(memory=True) as memory_tracer:
            traced += [run_op(cli, op, "traced", memory_tracer) for op in ops[TRACED_OPS:]]
        spans = WORK / "traces" / f"{workload.name}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
        diag["spans_file"] = str(spans.relative_to(ROOT))

    records += timed + traced
    check_outputs(workload, records, reference)
    failed = [r for r in records if r.error is not None]
    op_s = [r.seconds for r in timed]

    if trace:
        metrics, sum_error = per_layer_metrics(
            tracer, memory_tracer, op_s, [r.seconds for r in traced[:TRACED_OPS]])
        diag["traced_op_s"] = [r.seconds for r in traced]
        diag["trace_self_sum_error"] = sum_error
    else:
        metrics = {
            # Interference only ever slows an op down, so the fast side of the
            # speed-scaled ops is the steady estimate on a shared host.
            "points_per_s": statistics.quantiles(
                [workload.points_per_op / s * p / REFERENCE_S for s, p in zip(op_s, op_probe)],
                n=4)[2],
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(s * REFERENCE_S / p for s, p in setup),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    diag.update({
        "timed_ops": len(op_s), "op_s": op_s, "op_quartile_spread": quartile_spread(op_s),
        "raw_points_per_s": statistics.median(workload.points_per_op / s for s in op_s),
        "raw_setup_s": statistics.median(s for s, _ in setup),
        "probe_s": probe.samples, "warmup_op_s": warm.seconds, "setup_samples": setup,
        "machine.steal_frac": steal.fraction,
        "error_rate": len(failed) / len(records),
        "errors": [f"{r.kind} {r.op.label}: {r.error}" for r in failed][:5],
        "inputs_sha256": digests.hexdigest(),
    })
    correct = not failed and diag["warmup_input_ok"]
    result = {"correct": correct, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    return result, diag


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "latseg" / "cli.py").is_file():
        print(f"error: no latseg source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy

    cpu = pin_to_current_cpu()
    workload = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, diag = run_workload(workload, args.seed, args.seconds, args.trace, work,
                                    cpu)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    diag.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "git_sha": git_sha(), "numpy": numpy.__version__,
                 "python": sys.version.split()[0], "cpu": cpu,
                 "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]})
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
