import tracemalloc

import pytest

from dimuq import apply_scaler, fit_scaler, synthetic_matrix
from dimuq.harness import Fractions, dual_mc_split


@pytest.fixture(scope="session")
def scaled_split():
    """Encoded synthetic 80/20 split, scaler fitted on the training side."""
    data = synthetic_matrix(400, 0.05, seed=11)
    plan = dual_mc_split(400, Fractions(0.8, 0.2, 0.0), 0, 0)
    train = data.take(plan.train)
    test = data.take(plan.test)
    scaler = fit_scaler(train)
    return apply_scaler(scaler, train), apply_scaler(scaler, test)


@pytest.fixture
def traced_peak():
    """``traced_peak(call, *args, **kwargs)``: the tracemalloc peak, in
    bytes, of one call, its result included. numpy reports its array
    buffers to tracemalloc; whatever the call imports counts too, so warm
    it up first."""
    def peak(call, *args, **kwargs):
        tracemalloc.start()
        try:
            call(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
