"""Suite-wide test settings.

BLAS runs on one thread, as in every ksoftmax program, so the tests see
the bits the programs give and the suite does not run BLAS threads on
every CPU beside the lanes. The setting holds only if it comes before
numpy loads, so a session that has loaded numpy already stops here.

Every hypothesis test draws the same examples on every run and keeps no
example database, so two trees run the same tests. A test's own
``@settings`` keeps its ``max_examples``."""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded before tests/conftest.py could put BLAS on one "
                       "thread; run the suite in a fresh interpreter")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings  # noqa: E402

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
