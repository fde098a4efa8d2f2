"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture(scope="session")
def centers():
    """centers(grid): every cell centre, shape (n_cells, d) in C order, from
    the grid's axis centres; the brute-force oracles measure from these."""

    def build(grid):
        mesh = np.meshgrid(*(grid.axis_centers(ax) for ax in range(grid.dim)), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    return build
