"""Scaling measured times to a reference host speed.

Shared machines run the same code at changing speeds: on a shared 2-vCPU
Xeon virtual machine a fixed Python loop ran up to 1.7 times slower for tens of
seconds at a time, and the machine offers no hardware counters.  So every
timed unit of work -- one job, one CLI call, one set-up -- is bracketed by a
short fixed probe, and its time is reported scaled by REFERENCE_S / (mean of
the probes before and after it).  The probe uses no icx code, so no change to
icx can move it.  Raw times are kept alongside.
"""

import time

REFERENCE_S = 0.0125  # the probe's time on the reference host
_ROWS = [[(i * j + 7) % 37 for j in range(24)] for i in range(24)]


def probe(reps=300):
    """Seconds for a fixed interpreter-bound loop of list indexing and modular arithmetic."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(reps):
        for row in _ROWS:
            for j in range(0, 24, 2):
                acc = (acc + row[j] * row[j + 1]) % 1000003
    return time.perf_counter() - t0


def scale(raw, probe_before, probe_after):
    """`raw` seconds as they would read at the reference host speed."""
    return raw * REFERENCE_S / ((probe_before + probe_after) / 2)


class ScaledClock:
    """Times units of work back to back, probing the host between them."""

    def __init__(self):
        self.last_probe = probe()

    def time(self, fn):
        """(fn's result, raw seconds, seconds at the reference host speed)."""
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = probe()
        scaled = scale(raw, self.last_probe, after)
        self.last_probe = after
        return result, raw, scaled


class RawClock:
    """Times units of work without probing (traced passes)."""

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        return result, raw, raw
