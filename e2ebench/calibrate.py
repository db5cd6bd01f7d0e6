"""Host-speed calibration: a fixed unit of work timed next to every CLI call.

On a shared host the speed of a core drifts by up to a factor of two over
tens of seconds: the same ``fuzz`` call, with the same seed, took 0.21 s in
one stretch and 0.38 s in another, with CPU time equal to wall time (the
process is not descheduled; each instruction runs slower).  A unit of work
that never changes, run right before and right after every call, slows down
with it.  Each call's time is scaled by
``REFERENCE_S / (mean of the two neighbouring units)``: the seconds it would
have taken on a host where one unit takes ``REFERENCE_S``.  The README gives
the raw and scaled spreads.

The unit mixes what the program spends its time on: small-array NumPy
operations in a Python loop (as in the NumPy Jacobi kernel), a LAPACK SVD,
and plain Python on dicts, strings and JSON (as in operator construction
and the file format).  It uses only NumPy and the standard library, never
the package, so a change to the program never changes the unit.
"""

import json
import time

import numpy as np

# Seconds of one unit on the reference host (2 shared vCPUs, NumPy 2.4.6
# with OpenBLAS on one thread), rounded; it took 6-12 ms there as the host's
# speed drifted.  Only its constancy matters: it makes scaled figures of
# different commits and runs comparable.
REFERENCE_S = 0.0080

_N = 24
_PAIRS = _N // 2


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20140101)
        self._a = rng.standard_normal((_N, _N)) + 1j * rng.standard_normal((_N, _N))
        self._record = {"re": self._a[0].real.tolist(), "im": self._a[0].imag.tolist()}

    def _work(self):
        a = self._a.copy()
        for sweep in range(40):
            p, q = a[:, :_PAIRS], a[:, _PAIRS:]
            alpha = np.einsum("ij,ij->j", p.conj(), p).real
            beta = np.einsum("ij,ij->j", q.conj(), q).real
            gamma = np.einsum("ij,ij->j", p.conj(), q)
            c = 1.0 / np.sqrt(1.0 + np.abs(gamma) / (alpha + beta))
            s = np.sqrt(1.0 - c * c)
            a[:, :_PAIRS], a[:, _PAIRS:] = c * p + s * q, c * q - s * p
            a = np.roll(a, sweep % 3 + 1, axis=1)
        for _ in range(6):
            np.linalg.svd(self._a)
        table = {}
        for i in range(120):
            key = f"{i % 37}:{i % 11}"
            table[key] = table.get(key, 0) + len(json.dumps(self._record)) % 7
        return a, table

    def unit(self):
        """Seconds that one unit of fixed work takes now."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start
