"""
Sequential extraction versus direct subspace optimization
=========================================================

Three ways to minimize the same objective on a sample problem at
(d, u) = (30, 10): the sequential one-direction-at-a-time solver, the
full optimizer started from an eigenvector scan, and the full optimizer
started from the sequential answer.  The warm start tends to land at a
lower objective value; the scan start can get stuck.
"""

import time

import numpy as np

from envest import grassmann, linalg, onedim, simulate
from envest.estimators import covariance_kit
from envest.objective import ObjectivePair, j_value

inst = simulate.generate_instance(d=30, u=10, seed=11)
data = simulate.sample_data(inst, n=2000, seed=12)
kit = covariance_kit(data)
m_hat = kit.s_y_given_x
u_hat = linalg.symmetrize(kit.s_y - kit.s_y_given_x)
pair = ObjectivePair.from_pair(m_hat, kit.s_y)

t0 = time.perf_counter()
seq = onedim.fit(m_hat, u_hat, 10)
t_seq = time.perf_counter() - t0

t0 = time.perf_counter()
scan = grassmann.fit(m_hat, u_hat, 10)  # from the eigenvector scan
t_scan = time.perf_counter() - t0

t0 = time.perf_counter()
warm = grassmann.fit(m_hat, u_hat, 10, start=seq.basis)
t_warm = time.perf_counter() - t0

rows = [
    ("sequential", seq.basis, t_seq),
    ("full, scan start", scan.basis, t_scan),
    ("full, warm start", warm.basis, t_warm + t_seq),  # includes its start
]
print("method              final J      distance to truth   seconds")
for name, basis, secs in rows:
    print(
        "%-18s  %9.5f      %.4f              %7.3f"
        % (name, j_value(pair, basis), linalg.subspace_distance(basis, inst.gamma), secs)
    )
