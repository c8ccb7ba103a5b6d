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
