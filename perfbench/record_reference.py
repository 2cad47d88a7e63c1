"""Record reference.json: the digests of the warm-up inputs and of the first
timed inputs of seed 0, the warm-up outputs the checks compare against
(facade labels, count of supported filter points), and the batch-norm
statistics the facade model is calibrated with.

    python3 perfbench/record_reference.py

Run it only when the benchmark's inputs change on purpose; the program whose
outputs it records is the one under src/.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before NumPy loads

REFERENCE_SEED = 0
REFERENCE_OPS = 2


def main():
    sys.path.insert(0, str(run.SRC))
    import json

    from latseg import cli
    from workloads import REFERENCE_PATH, WORKLOADS, timed_input, warmup_input

    reference = {}
    for name, cls in sorted(WORKLOADS.items()):
        workload = cls()
        work = Path(tempfile.mkdtemp(dir=run.ROOT))
        try:
            extra = {}
            if hasattr(workload, "calibrate"):
                extra["bn_stats"] = workload.calibrate(work)
                shutil.rmtree(work)
                work.mkdir()
                workload.prepare(work, **extra)
            else:
                workload.prepare(work)
            warm = workload.op("warmup", warmup_input(workload))
            record = run.run_op(cli, warm, "warmup")
            if record.error:
                raise RuntimeError(f"{name}: warm-up op failed: {record.error}")
            entry = {"warmup_sha256": warm.digest(), **workload.record(warm), **extra}
            entry["seed0_sha256"] = [
                workload.op(f"op{i}", timed_input(workload, REFERENCE_SEED, i)).digest()
                for i in range(REFERENCE_OPS)]
            reference[name] = entry
        finally:
            shutil.rmtree(work)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
