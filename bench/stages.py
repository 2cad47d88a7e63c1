"""Criterion-scale wall time and memory of a facade inference, a filter, a build,
a training step and a training loop.

    python3 bench/stages.py --out BENCH_28.json --label change
    python3 bench/stages.py --out BENCH_28.json --label parent --src ../parent/src \
        --label change --src src

Runs the criterion-11 facade inference (the seed-111 `facade` cloud of
tests/oracles.py, `B64-B128-B128-B128-B64-C64-C7` at lambda0 = 32,
lattice descriptors built inside `network.forward`) at each size in SIZES, each run
in a fresh child process with one BLAS thread, REPEATS times. For each
size it records the median `forward` wall time, the median `ru_maxrss` of
the child (which includes the cloud, the model and the import) and the
lattice vertices per BCL level. The filter case, run the same way, is the
criterion-scale `latseg filter`: `bcl.project` of FILTER_CHANNELS channels
between two FILTER_POINTS-point clouds uniform in a cube of side n^(1/3),
at lambda 1, then `data.save_cloud` of the result as the rgb and height of
the destination cloud to a PLY in a temporary directory; it records the
median `project` and save wall times, the median `ru_maxrss` (read before
the save), the median tracemalloc peak of a second `project`, in bytes per
point, and the source lattice's vertex count. The build case, run the
same way at each size in BUILD_SIZES, is `build_lattice` of a cloud uniform
in a cube of side n^(1/3) at lambda 1; it records the median `build_lattice`
wall time, the median `ru_maxrss` and the vertex count, and the median
tracemalloc peak of a second `build_lattice` of the same cloud, in bytes
per point: `ru_maxrss` also counts pages the allocator keeps after they
are freed, so it can move by a few MB when only the order of allocations
changes, while the traced peak counts live allocations and repeats
exactly. The training case, run the same way at each size in TRAIN_SIZES,
is one step of the facade model above on the same cloud with random labels
and its lattice descriptors prebuilt: `network.forward` in training mode,
`train.cross_entropy_loss` and `network.backward`. After one warm-up step it
records the median wall times of the forward, of the loss and backward,
and of the whole step over TRAIN_STEPS steps, the `ru_maxrss` after them,
and the tracemalloc peak of one more step in KB (1024 bytes) per point.
The loop case is criterion 9's training run cut to LOOP_ITERATIONS
iterations: `train.train_loop` of `B16-B16-B16-C16-C2` at lambda0 = 2 on
`synthetic_two_blob_dataset(200, 256)`, descriptors built and reused as
the loop decides, run LOOP_REPEATS times per label; it records the median
wall time of the loop, the median `ru_maxrss` and the vertices of each BCL
level summed over the clouds, each cloud's lattice built alone.
Every child's
address space is capped at AS_LIMIT bytes, so a case over budget fails with
a MemoryError instead of exhausting the machine. Under the label go
the git SHA of the checkout that holds --src, whether the tracked files
under --src differ from that SHA ("dirty"), the NumPy version and the name and version
of NumPy's BLAS.

--label and --src may be given more than once, the n-th --src holding the
n-th label's source. The labels' children then run alternately: within each
case, every repeat runs one child per label, the order of the labels
flipping from one repeat to the next, so load drift on a shared machine
falls on all labels alike. Other labels already in --out are kept.

A child reads `ru_maxrss` before it saves the filter's output or rebuilds
the lattices to count their vertices or to trace the build, the filter or
the training step, so none of those can set the recorded peak.

Takes tens of minutes and up to about 3 GB per child at 1M points; it is not part of
the tests.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ARCH = "B64-B128-B128-B128-B64-C64-C7"
SIZES = (100_000, 300_000, 1_000_000)
REPEATS = 3
FILTER_POINTS = 300_000
FILTER_CHANNELS = 4
FILTER_AS = ("rgb", "height")  # the channels that hold the filtered values when saved
BUILD_SIZES = (10_000, 100_000, 1_000_000)
TRAIN_SIZES = (20_000, 100_000)
TRAIN_STEPS = 3
LOOP_ARCH = "B16-B16-B16-C16-C2"
LOOP_CLOUDS, LOOP_POINTS, LOOP_ITERATIONS = 200, 256, 200
LOOP_REPEATS = 7
AS_LIMIT = 6 * 2**30
REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def child(n):
    """One inference; prints {"forward_s", "maxrss_mb", "vertices"}."""
    import numpy as np
    from latseg import network
    from latseg.lattice import LatticeConfig, build_lattice

    sys.path.insert(0, str(REPO / "tests"))
    from oracles import facade

    rng = np.random.default_rng(111)
    pts, feats = facade(n, rng)
    spec = network.parse_arch(ARCH, LatticeConfig(3, 32.0))
    params = network.init_parameters(spec, 7, rng)
    start = time.perf_counter()
    probs, _ = network.forward(spec, params, feats, pts)
    seconds = time.perf_counter() - start
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if probs.shape != (n, 7) or not np.isfinite(probs).all():
        raise SystemExit(f"bad probabilities at n = {n}")
    vertices = [build_lattice(pts, spec.bcl_config(layer.level)).num_vertices
                for layer in spec.layers if isinstance(layer, network.BCLSpec)]
    print(json.dumps({"forward_s": seconds, "maxrss_mb": maxrss_mb, "vertices": vertices}))


def child_filter():
    """One filter and the save of its output, then one traced filter; prints
    {"seconds", "save_s", "maxrss_mb", "traced_peak_b_per_point", "vertices"}."""
    import tempfile
    import tracemalloc

    import numpy as np
    from latseg import bcl, data
    from latseg.lattice import LatticeConfig, build_lattice

    n = FILTER_POINTS
    rng = np.random.default_rng(111)
    src, dst = rng.uniform(0, n ** (1 / 3), size=(2, n, 3))
    values = rng.uniform(0, 1, size=(n, FILTER_CHANNELS))
    config = LatticeConfig(3, 1.0)
    start = time.perf_counter()
    out = bcl.project(values, src, dst, config)
    seconds = time.perf_counter() - start
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if out.shape != (n, FILTER_CHANNELS) or not np.isfinite(out).all():
        raise SystemExit("bad filter output")
    cloud = data.PointCloud(positions=dst).with_channels(FILTER_AS, out)
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        data.save_cloud(cloud, Path(tmp) / "out.ply")
        save_s = time.perf_counter() - start
    del cloud, out
    tracemalloc.start()
    bcl.project(values, src, dst, config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    vertices = build_lattice(src, config).num_vertices
    print(json.dumps({"seconds": seconds, "save_s": save_s, "maxrss_mb": maxrss_mb,
                      "traced_peak_b_per_point": peak / n, "vertices": vertices}))


def child_build(n):
    """One build_lattice, then one traced; prints {"seconds", "maxrss_mb",
    "traced_peak_b_per_point", "vertices"}."""
    import tracemalloc

    import numpy as np
    from latseg.lattice import LatticeConfig, build_lattice

    pts = np.random.default_rng(111).uniform(0, n ** (1 / 3), size=(n, 3))
    start = time.perf_counter()
    lat = build_lattice(pts, LatticeConfig(3, 1.0))
    seconds = time.perf_counter() - start
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    build_lattice(pts, LatticeConfig(3, 1.0))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({"seconds": seconds, "maxrss_mb": maxrss_mb,
                      "traced_peak_b_per_point": peak / n, "vertices": lat.num_vertices}))


def child_train(n):
    """One warm-up training step, TRAIN_STEPS timed ones, then one traced;
    prints {"step_s", "forward_s", "backward_s", "maxrss_mb",
    "traced_peak_kb_per_point", "vertices"}."""
    import tracemalloc

    import numpy as np
    from latseg import network
    from latseg.lattice import LatticeConfig
    from latseg.train import cross_entropy_loss

    sys.path.insert(0, str(REPO / "tests"))
    from oracles import facade

    rng = np.random.default_rng(111)
    pts, feats = facade(n, rng)
    labels = rng.integers(0, 7, n)
    spec = network.parse_arch(ARCH, LatticeConfig(3, 32.0))
    params = network.init_parameters(spec, 7, rng)
    descs = network.prepare_descriptors(spec, pts)

    def step():
        start = time.perf_counter()
        probs, tape = network.forward(spec, params, feats, pts, training=True,
                                      descriptors=descs)
        middle = time.perf_counter()
        _, grad_probs = cross_entropy_loss(probs, labels)
        del probs
        network.backward(tape, params, grad_probs)
        return middle - start, time.perf_counter() - middle

    step()
    times = [step() for _ in range(TRAIN_STEPS)]
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    step()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({"step_s": statistics.median(f + b for f, b in times),
                      "forward_s": statistics.median(f for f, _ in times),
                      "backward_s": statistics.median(b for _, b in times),
                      "maxrss_mb": maxrss_mb, "traced_peak_kb_per_point": peak / n / 1024,
                      "vertices": [d.lattice.num_vertices for d in descs]}))


def child_loop():
    """One training loop; prints {"loop_s", "maxrss_mb", "vertices"}."""
    import numpy as np
    from latseg import network, train
    from latseg.data import synthetic_two_blob_dataset
    from latseg.lattice import LatticeConfig, build_lattice

    dataset = synthetic_two_blob_dataset(LOOP_CLOUDS, LOOP_POINTS, seed=42)
    spec = network.parse_arch(LOOP_ARCH, LatticeConfig(3, 2.0))
    config = train.TrainConfig(learning_rate=1e-3, max_iterations=LOOP_ITERATIONS, seed=7,
                               log_every=100)
    start = time.perf_counter()
    result = train.train_loop(spec, dataset, config)
    seconds = time.perf_counter() - start
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if result.iterations != LOOP_ITERATIONS or not np.isfinite(result.history[-1][1]):
        raise SystemExit("bad training loop")
    vertices = [sum(build_lattice(cloud.positions, spec.bcl_config(layer.level)).num_vertices
                    for cloud in dataset)
                for layer in spec.layers if isinstance(layer, network.BCLSpec)]
    print(json.dumps({"loop_s": seconds, "maxrss_mb": maxrss_mb, "vertices": vertices}))


def run_case(case, src):
    """The child's record for case: a facade size, "filter", "build:<size>",
    "train:<size>" or "loop"."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, __file__, "--child", str(case)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarize(runs):
    """Each figure's median and its runs; the vertices of the first run."""
    figures = [key for key in runs[0] if key != "vertices"]
    return {**{key: statistics.median(r[key] for r in runs) for key in figures},
            "vertices": runs[0]["vertices"],
            **{f"{key}_runs": [r[key] for r in runs] for key in figures}}


def git_sha(src):
    done = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def git_dirty(src):
    """Whether tracked files under src differ from HEAD, so the SHA alone does
    not name the code."""
    done = subprocess.run(["git", "-C", str(src), "status", "--porcelain",
                           "--untracked-files=no", "--", "."], capture_output=True, text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def numpy_build(src):
    """NumPy's version and the name and version of the BLAS it was built with."""
    code = ("import json, numpy\n"
            "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "print(json.dumps([numpy.__version__,"
            " {'name': blas['name'], 'version': blas['version']}]))")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def run_alternately(case, sources, repeats=REPEATS):
    """{label: repeats child records of case}, the labels taking turns."""
    runs = {label: [] for label in sources}
    order = list(sources)
    for _ in range(repeats):
        for label in order:
            runs[label].append(run_case(case, sources[label]))
        order.reverse()
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help="JSON file to add the labels' results to")
    parser.add_argument("--label", action="append",
                        help="name of the results (default: change); repeat to compare sources")
    parser.add_argument("--src", type=Path, action="append",
                        help="latseg source directory of the matching --label (default: src/)")
    args = parser.parse_args()
    if args.child is not None:
        resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))
        if args.child == "filter":
            child_filter()
        elif args.child.startswith("build:"):
            child_build(int(args.child.removeprefix("build:")))
        elif args.child.startswith("train:"):
            child_train(int(args.child.removeprefix("train:")))
        elif args.child == "loop":
            child_loop()
        else:
            child(int(args.child))
        return

    labels, srcs = args.label or ["change"], args.src or [SRC]
    if len(labels) != len(srcs) or len(set(labels)) != len(labels):
        parser.error("give one --src per --label, and distinct labels")
    sources = {label: src.resolve() for label, src in zip(labels, srcs)}
    results = {label: {"sizes": {}, "filter": None, "build": {"lambda": 1.0, "sizes": {}},
                       "train": {"steps": TRAIN_STEPS, "sizes": {}}, "loop": None}
               for label in sources}
    for n in SIZES:
        for label, runs in run_alternately(n, sources).items():
            case = results[label]["sizes"][str(n)] = summarize(runs)
            print(f"{label} n={n}: forward {case['forward_s']:.2f} s, "
                  f"ru_maxrss {case['maxrss_mb']:.0f} MB", file=sys.stderr)
    for label, runs in run_alternately("filter", sources).items():
        case = results[label]["filter"] = {"points": FILTER_POINTS, "channels": FILTER_CHANNELS,
                                           "lambda": 1.0, **summarize(runs)}
        print(f"{label} filter: project {case['seconds']:.2f} s, save {case['save_s']:.2f} s, "
              f"ru_maxrss {case['maxrss_mb']:.0f} MB, "
              f"traced peak {case['traced_peak_b_per_point']:.1f} B/point", file=sys.stderr)
    for n in BUILD_SIZES:
        for label, runs in run_alternately(f"build:{n}", sources).items():
            case = results[label]["build"]["sizes"][str(n)] = summarize(runs)
            print(f"{label} build n={n}: {case['seconds']:.3f} s, "
                  f"ru_maxrss {case['maxrss_mb']:.0f} MB, "
                  f"traced peak {case['traced_peak_b_per_point']:.1f} B/point", file=sys.stderr)

    for n in TRAIN_SIZES:
        for label, runs in run_alternately(f"train:{n}", sources).items():
            case = results[label]["train"]["sizes"][str(n)] = summarize(runs)
            print(f"{label} train n={n}: step {case['step_s']:.2f} s "
                  f"(forward {case['forward_s']:.2f}, backward {case['backward_s']:.2f}), "
                  f"ru_maxrss {case['maxrss_mb']:.0f} MB, "
                  f"traced peak {case['traced_peak_kb_per_point']:.2f} KB/point", file=sys.stderr)
    for label, runs in run_alternately("loop", sources, LOOP_REPEATS).items():
        case = results[label]["loop"] = {
            "arch": LOOP_ARCH, "lambda0": 2.0, "clouds": LOOP_CLOUDS, "points": LOOP_POINTS,
            "iterations": LOOP_ITERATIONS, "repeats": LOOP_REPEATS, **summarize(runs)}
        print(f"{label} loop: {case['loop_s']:.3f} s, ru_maxrss {case['maxrss_mb']:.0f} MB",
              file=sys.stderr)

    record = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    for label, src in sources.items():
        numpy_version, blas = numpy_build(src)
        record[label] = {"git_sha": git_sha(src), "dirty": git_dirty(src), "numpy": numpy_version,
                         "blas": blas, "arch": ARCH, "seed": 111, "blas_threads": 1,
                         "repeats": REPEATS, "alternated_with": [l for l in sources if l != label],
                         **results[label]}
    if args.out is None:
        print(json.dumps(record, indent=2))
        return
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
