"""Host speed probe: a fixed computation timed next to every op.

The shared host this benchmark was written on runs the same code up to
twice as slowly for tens of seconds at a time, and CPU time stretches with
wall time, so neither is steady from one run to the next.  The probe is a
fixed mix of the kinds of work envest does (batched small solves and
symmetric eigenvalues, einsum reductions and a plain Python loop) that
belongs to the benchmark, so no change to envest alters it.  Its time,
divided into REFERENCE_S, scales a measured time to what it would have been
at the reference host speed.

The probe runs on one thread and leaves out calls that OpenBLAS spreads
over both CPUs (a single 30 x 30 ``eigh`` is one): on this host such a call
sometimes waits milliseconds for the idle CPU to wake, which would make the
probe track wake-up latency rather than CPU speed.  The probe therefore
corrects for CPU speed only; the wake-up stalls the program itself meets
stay in its measured times.
"""

import time

import numpy as np

# probe time on the 2-vCPU host the baseline was measured on, in its
# faster state; only ratios between runs matter, so the value is a unit
REFERENCE_S = 0.0016


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 30))
        self.m = a @ a.T + 30.0 * np.eye(30)
        self.w = rng.standard_normal((40, 30))
        self.stack = np.stack([self.m] * 40)

    def __call__(self):
        """Seconds for the fixed computation, the fastest of three tries, so
        that a stall of the whole virtual CPU does not count as slowness."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            np.linalg.solve(self.stack, self.w[..., None])
            np.linalg.eigvalsh(self.stack)
            np.einsum("ij,ij->i", self.w @ self.m, self.w)
            total = 0.0
            for i in range(2000):
                total += i * 0.5
            times.append(time.perf_counter() - t0)
        return min(times)


def scale(before, after):
    """Factor taking a time measured between two probes to reference speed.

    The faster of the two probes is used, so that an interrupt landing in
    one probe does not inflate the correction.
    """
    return REFERENCE_S / min(before, after)
