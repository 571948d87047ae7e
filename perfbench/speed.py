"""Machine-speed reference for a shared, noisy host.

The host this benchmark was built on changes speed by 10-30% over seconds
to minutes, whatever runs on it, while the ratio of a ddcrit job's time to
a fixed pure-Python kernel's time stays within a few percent.  So a run
times that kernel between its jobs and reports every time scaled by
``REFERENCE_S / kernel time`` around it: times in "seconds on the reference
machine".  The kernel does not import ddcrit, so no change to the library
can move it; the run summary also prints the unscaled figures.
"""

from __future__ import annotations

import time

# the kernel's median time on the reference machine (2-core x86-64 VM,
# Python 3.11); a constant, so scaled times compare across commits
REFERENCE_S = 0.0008

_A = (1, 2, 0, 1, 2, 2, 0, 1, 1)
_B = (2, 1, 1, 0, 2, 1, 2, 0, 1)
_M = (1, 0, 2, 0, 0, 0, 1, 0, 0, 1)


def kernel() -> float:
    """Seconds for 60 products of two fixed degree-8 polynomials over F_3,
    reduced modulo a fixed degree-9 polynomial: list and int work of the
    same kind as the library's field arithmetic."""
    t0 = time.perf_counter()
    for _ in range(60):
        prod = [0] * (len(_A) + len(_B) - 1)
        for i, a in enumerate(_A):
            for j, b in enumerate(_B):
                prod[i + j] = (prod[i + j] + a * b) % 3
        for k in range(len(prod) - 1, len(_M) - 2, -1):
            c = prod[k]
            if c:
                shift = k - len(_M) + 1
                for i, m in enumerate(_M):
                    prod[shift + i] = (prod[shift + i] - c * m) % 3
        tuple(prod)
    return time.perf_counter() - t0


class Sampler:
    """Kernel times: one before the first job and one after every job, so
    each job is scaled by the two samples around it, plus bursts."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        self.samples.append(kernel())
        return self.samples[-1]

    def burst(self, count=10):
        self.samples += [kernel() for _ in range(count)]

    def factor(self) -> float:
        """Multiply a time measured during the samples by this to get
        reference-machine time."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)


def scale(value: float, unit: str, factor: float) -> float:
    """Scale a measured figure by a speed factor according to its unit."""
    if unit in ("s", "ms", "us", "ns"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value
