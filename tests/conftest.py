"""Fixtures shared by more than one test module."""

import pytest


@pytest.fixture
def geometric_grid():
    """(M, N) grids with both sides running by `ratio` from q^(1/4) up to q^(3/4)."""

    def grid(q, ratio):
        sides, side = [], q**0.25
        while side <= q**0.75 * (1 + 1e-12):
            sides.append(side)
            side *= ratio
        return [(m, n) for m in sides for n in sides]

    return grid
