"""Run the tests on the command's path: one BLAS thread, set before numpy loads.

``spinnet run`` and ``reproduce`` pin every BLAS thread variable to 1 before
they import numpy, so their realizations spread over worker processes.  The
test process loads numpy before any command runs, so it pins the variables
here, as the command does, and its in-process commands take the same path.
"""

import os

# spinnet.constants.BLAS_THREAD_VARS; pytest loads this file before any
# test puts spinnet on the path, so the names are spelt out
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
