"""One set-up sample in a fresh interpreter.

    python3 setup_probe.py SRC_DIR LATSEG_ARGS...

Times importing the program and running one warm-up op of latseg's CLI,
exactly as the workload process sets itself up, between two speed probes,
and prints {"rc": exit code, "setup_s": seconds, "probe_s": [before, after]}
on stdout. The BLAS thread count and CPU affinity come from the parent.
NumPy loads before the clock starts, as it does in the workload process,
where it loads to generate inputs.
"""

import contextlib
import io
import json
import sys
import time

from speed import SpeedProbe


def main():
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    probe = SpeedProbe()
    probe()
    start = time.perf_counter()
    from latseg import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    elapsed = time.perf_counter() - start
    probe()
    print(json.dumps({"rc": rc, "setup_s": elapsed, "probe_s": probe.samples}))


if __name__ == "__main__":
    main()
