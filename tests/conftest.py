"""Fixtures shared by the test modules."""

import os

# One BLAS thread, set before numpy loads. Beside another busy process a
# threaded BLAS made the timed acceptance checks several times slower
# (criterion 8's `np.dot` energies), and the last bits of a long `np.dot`
# sum depend on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture(scope="session")
def centers():
    """centers(grid): every cell centre, shape (n_cells, d) in C order, from
    the grid's axis centres; the brute-force oracles measure from these."""

    def build(grid):
        mesh = np.meshgrid(*(grid.axis_centers(ax) for ax in range(grid.dim)), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    return build
