"""Criterion-scale wall time and memory of a facade inference.

    python3 bench/stages.py --out BENCH_20.json --label change
    python3 bench/stages.py --out BENCH_20.json --label parent --src ../parent/src

Runs the criterion-11 facade inference (the seed-111 `facade` cloud of
tests/oracles.py, `B64-B128-B128-B128-B64-C64-C7` at lambda0 = 32,
lattice descriptors built inside `network.forward`) at each size in SIZES, each run
in a fresh child process with one BLAS thread, REPEATS times. For each
size it records the median `forward` wall time, the median `ru_maxrss` of
the child (which includes the cloud, the model and the import), the lattice
vertices per BCL level, and under the label: the git SHA of the checkout
that holds --src, whether its tracked files differ from that SHA ("dirty"),
the NumPy version and the name and version of NumPy's BLAS.
Other labels already in --out are kept, so a parent and a change can share
one file.

The child reads `ru_maxrss` before it rebuilds the lattices to count their
vertices, so that rebuild cannot set the recorded peak.

Takes minutes and gigabytes at 300k points; it is not part of the tests.
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
SIZES = (100_000, 300_000)
REPEATS = 3
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


def run_case(n, src):
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, __file__, "--child", str(n)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def git_sha(src):
    done = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def git_dirty(src):
    """Whether tracked files differ from HEAD, so the SHA alone does not name the code."""
    done = subprocess.run(["git", "-C", str(src), "status", "--porcelain",
                           "--untracked-files=no"], capture_output=True, text=True)
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help="JSON file to add the label's results to")
    parser.add_argument("--label", default="change")
    parser.add_argument("--src", type=Path, default=SRC, help="latseg source directory")
    args = parser.parse_args()
    if args.child is not None:
        child(args.child)
        return

    src = args.src.resolve()
    cases = {}
    for n in SIZES:
        runs = [run_case(n, src) for _ in range(REPEATS)]
        cases[str(n)] = {
            "forward_s": statistics.median(r["forward_s"] for r in runs),
            "maxrss_mb": statistics.median(r["maxrss_mb"] for r in runs),
            "vertices": runs[0]["vertices"],
            "forward_s_runs": [r["forward_s"] for r in runs],
            "maxrss_mb_runs": [r["maxrss_mb"] for r in runs],
        }
        print(f"{args.label} n={n}: forward {cases[str(n)]['forward_s']:.2f} s, "
              f"ru_maxrss {cases[str(n)]['maxrss_mb']:.0f} MB", file=sys.stderr)
    numpy_version, blas = numpy_build(src)
    result = {"git_sha": git_sha(src), "dirty": git_dirty(src), "numpy": numpy_version, "blas": blas, "arch": ARCH,
              "seed": 111, "blas_threads": 1, "repeats": REPEATS, "sizes": cases}
    if args.out is None:
        print(json.dumps(result, indent=2))
        return
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.label] = result
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
