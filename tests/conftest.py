import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def fft_counter(monkeypatch):
    """Patch np.fft's transforms to count their calls in the returned
    one-item list; reset it by assigning calls[0] = 0."""
    calls = [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    return calls


@pytest.fixture
def traced_peak():
    """A function that calls fn(*args) and returns (its result, the peak
    bytes `tracemalloc` traced above the start of the call); NumPy reports
    its array buffers to `tracemalloc`."""
    def measure(fn, *args):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
    return measure


class StackRecord:
    """An `evolve_hj` record that keeps every gradient stack it is given,
    beside each recorded step's time and samples."""

    def __init__(self):
        self.times, self.samples, self.gradients = [], [], []

    def add(self, t, samples, gradients):
        self.times.append(t)
        self.samples.append(samples)
        self.gradients.append(gradients)


@pytest.fixture
def stack_record():
    """A new StackRecord."""
    return StackRecord()
