"""Pin numeric kernels to one thread.

Must run before numpy is first imported anywhere in the test process:
the acceptance timings and bitwise-reproducibility checks assume
single-threaded execution. Importing latseg.cli loads no numpy.
"""

import os

from latseg.cli import THREAD_ENV_VARS

for _var in THREAD_ENV_VARS:
    os.environ.setdefault(_var, "1")
