import sys

import numpy as np
import pytest

import chowcert.matrix as matrix


class Schedule:
    """What the elimination's reduction schedule did (`matrix._regime`).

    `settles` gets one entry per outer update of `_echelon_blocked`, its
    own `_carry` call, not those of `_factor_panel`: True where it
    reduced the trailing tiles.  `depths` gets the run length of each of the
    split's products (`_subtract_product`): None where the product is
    reduced only once, with the others, after the last A row.
    """

    def __init__(self):
        self.settles = []
        self.depths = []

    def assert_kind(self, kind, m):
        """Check what ran at modulus m against a kind of schedule:
        "deep", float64 and nothing reduced early; "settled", float64,
        every outer update settled and every split product went in runs
        of the budget; "eager", int64 and nothing reduced early."""
        dtype, _, _, budget = matrix._regime(m)
        assert (dtype is np.int64) == (kind == "eager")
        if kind == "settled":
            assert all(self.settles) and set(self.depths) == {budget}
        else:
            assert not any(self.settles) and set(self.depths) <= {None}


@pytest.fixture
def schedule(monkeypatch):
    """A `Schedule` that records every elimination of the test."""
    seen = Schedule()
    carry, subtract_product = matrix._carry, matrix._subtract_product

    def recorded_carry(*args):
        if sys._getframe(1).f_code.co_name == "_echelon_blocked":
            seen.settles.append(args[-1])
        return carry(*args)

    def recorded_subtract(target, hit, left, right, reduce_, m, matmul, depth):
        seen.depths.append(depth)
        return subtract_product(target, hit, left, right, reduce_, m, matmul, depth)

    monkeypatch.setattr(matrix, "_carry", recorded_carry)
    monkeypatch.setattr(matrix, "_subtract_product", recorded_subtract)
    return seen
