"""Host-speed reference for op timings (numpy and the standard library only).

On a small shared host the processor's speed changes from second to second
with what the neighbours run (a busy sibling hyperthread alone costs about a
third), and the share of a run spent at each speed changes from run to run.
A fixed reference kernel, independent of driventb, is timed right before and
right after every timed op. The op's latency is then scaled to the nominal
host on which the kernel takes ``REFERENCE_S``:

    scaled = latency * REFERENCE_S / sqrt(ref_before * ref_after)

A program change moves ``latency`` and not the reference, so a slower or
faster program still shows in full; a slower or faster host moves both and
cancels. The raw latencies and reference times are kept in the run record.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Reference kernel time, in seconds, on the nominal host: about the median
# of ``reference()`` on a 2-core Intel Xeon VM at its base speed.
REFERENCE_S = 0.010

_RNG = np.random.default_rng(20030722)
_VECTOR = _RNG.standard_normal(8192)
_MATRIX = _RNG.standard_normal((160, 160))


def _kernel():
    """A fixed mix of the work driventb does: an interpreted loop, FFTs, a
    small matrix product, elementwise transcendental functions, a sort and
    float-to-text formatting."""
    s = 0.0
    for i in range(12000):
        s += i * 0.5
    for _ in range(12):
        np.fft.ifft(np.fft.fft(_VECTOR))
    for _ in range(3):
        _MATRIX @ _MATRIX
    np.sort(np.exp(1j * np.sin(3.0 * _VECTOR)).real)
    ",".join(f"{x:.17g}" for x in _VECTOR[:1200])
    return s


def reference(repeat: int = 2) -> float:
    """Wall time of the reference kernel, the least of ``repeat`` back-to-back
    runs, so that a single interrupt does not count as a slower host."""
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(latency: float, ref_before: float, ref_after: float) -> float:
    """``latency`` on the nominal host, given the bracketing reference times."""
    return latency * REFERENCE_S / math.sqrt(ref_before * ref_after)
