"""Test-suite set-up: one BLAS thread, set before anything imports numpy.

The solver's dense calls are small; with several BLAS threads they thrash on
a machine with few cores. An explicit setting in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402


@pytest.fixture
def no_qp_structure():
    """Drop the MPC's solver structure (mpc._qp_structure), with its one
    cache, the factors of every start and candidate working set it has
    seen, so that a test counting factorizations or checks does not depend
    on test order."""
    from lakempc import mpc

    mpc._qp_structure.cache_clear()
