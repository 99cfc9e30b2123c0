"""``python -m ksoftmax`` and the ``ksoftmax`` script: the command-line
interface, with BLAS on one thread unless the environment sets a count."""

import os

# before numpy loads, which reads them once: BLAS threads on top of the
# mixture's lanes oversubscribe the CPUs
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    main()
