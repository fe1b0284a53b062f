import numpy as np
import pytest

import chowcert.matrix as matrix


class Schedule:
    """The kernels that the test's eliminations ran (`matrix._regime`).

    `dtypes` gets, per modulus, the working dtype of every `_regime`
    call: one per dense elimination, and one per split, which D''s
    elimination picks again.
    """

    def __init__(self):
        self.dtypes = {}

    def assert_kind(self, kind, m):
        """Check the dtype of what ran at modulus m against a kind of
        schedule: "deep", float64; "eager", int64."""
        want = np.int64 if kind == "eager" else np.float64
        assert self.dtypes.get(m) and set(self.dtypes[m]) == {want}


@pytest.fixture
def schedule(monkeypatch):
    """A `Schedule` that records every elimination of the test."""
    seen = Schedule()
    regime = matrix._regime

    def recorded_regime(m, terms):
        out = regime(m, terms)
        seen.dtypes.setdefault(m, []).append(out[0])
        return out

    monkeypatch.setattr(matrix, "_regime", recorded_regime)
    return seen
