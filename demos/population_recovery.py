"""
Recovering a known envelope from an exact covariance pair
=========================================================

Build a synthetic problem whose envelope is known, hand the exact
population matrices to the sequential solver, and compare the answer
against the eigenspace construction that needs no optimization at all.
"""

import numpy as np

from envest import linalg, onedim, simulate

# one reproducible instance: a 12-dimensional response whose covariance
# reduces along a 4-dimensional subspace carrying all of the signal
inst = simulate.generate_instance(d=12, u=4, seed=2024)
print("instance: d = 12, envelope dimension u = 4")

# the spectrum oracle reads the envelope directly off the eigenspaces of M
oracle = simulate.oracle_envelope(inst.m, inst.u_mat)
print("oracle basis shape:", oracle.shape)
print("oracle vs true basis distance: %.3e" % linalg.subspace_distance(oracle, inst.gamma))

# the sequential solver extracts one direction at a time, deflating as it goes
fit = onedim.fit(inst.m, inst.u_mat, 4)
print("solver iterations per direction:", fit.inner_iterations)
print("solver vs oracle distance:       %.3e" % linalg.subspace_distance(fit.basis, oracle))
print("solver vs true basis distance:   %.3e" % linalg.subspace_distance(fit.basis, inst.gamma))

# the recovered subspace reduces M: the off-diagonal block should vanish
p = fit.basis @ fit.basis.T
q = np.eye(12) - p
print("off-block norm |P M Q|: %.3e" % np.abs(p @ inst.m @ q).max())

# asking for every direction returns the whole space and says so
full = onedim.fit(inst.m, inst.u_mat, 12)
print("u = d diagnostics:", full.diagnostics)
