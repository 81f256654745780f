"""Print how far each solver's answer moves when the problem is rotated.

Usage: python3 tools/equivariance.py

Imports envest from the tree it sits in (``tree.load``, which prints the
machine line first).  J and the envelope are invariant under an orthogonal
change of coordinates, so the fit of (Q M Q', Q U Q') should span Q times
the span of the fit of (M, U).  For instance seed s the pair is
``simulate._sample_pair`` of data drawn with seed s + 1, and Q is the
orthonormal basis of ``default_rng(10000 + s).standard_normal((d, d))``.  Every
algorithm fits both frames through ``estimators._fits``, as the estimators
run it, at these sizes:

* (d, u) = (30, 10), n = 200, s = 0-59;
* (d, u) = (60, 30), n = 4000, s = 0-7.

For each size and algorithm it prints one line: the median and the largest
projector distance between Q times the fit of (M, U) and the fit of the
rotated pair, the largest gap between their two J values, and the count of
starts that differ between the frames (``starts_differ``): for onedim and
fg-warm's warm start, the sequential directions whose screened set of
eigenvector starts differs; for fg, the fits whose eigenvector scan start
differs by more than 1e-8 in projector distance.

Its output is committed as ``tools/records/equivariance.txt``; the check
is ``python3 tools/equivariance.py | diff tools/records/equivariance.txt -``.
"""

from collections import Counter

import tree

SIZES = ((30, 10, 200, range(60)), (60, 30, 4000, range(8)))


class Starts:
    """Records the starts of every fit: each direction's screened eigenvector
    candidates, by index, and fg's scan start basis."""

    def __init__(self, onedim, grassmann, objective):
        self.screened, self.scans = [], []
        real_lockstep, real_scan = onedim._lockstep, grassmann._scan

        def lockstep(pairs, settings):
            # the screening of onedim._lockstep: the starts with the lowest D
            for pair in pairs:
                f = objective._d_tilde_values(pair.m, pair.m_plus_u_inv, pair.candidates)
                kept = f.argsort(kind="stable")[:onedim._SCREENED_STARTS]
                self.screened.append(tuple(sorted(kept.tolist())))
            return real_lockstep(pairs, settings)

        def scan(pair, u):
            basis = real_scan(pair, u)
            self.scans.append(basis)
            return basis

        onedim._lockstep, grassmann._scan = lockstep, scan

    def take(self):
        out = (self.screened, self.scans)
        self.screened, self.scans = [], []
        return out


def main():
    tree.load(__doc__)
    import numpy as np
    from envest import estimators, grassmann, objective, onedim, simulate
    from envest.linalg import orthonormalize, subspace_distance, symmetrize
    from envest.objective import ObjectivePair

    algos = estimators.ALGORITHMS
    starts = Starts(onedim, grassmann, objective)

    def fit(m, u_mat, u, algo):
        fits = estimators._fits([(ObjectivePair.from_m_u(m, u_mat), [])], u, algo, None)
        outcome = fits(u)[0]
        if isinstance(outcome, Exception):
            raise outcome
        fitted, j = outcome
        return fitted.basis, j, starts.take()

    print("d u n algo fits median_dist max_dist max_j_gap starts_differ")
    for d, u, n, seeds in SIZES:
        dists, gaps, differ = {a: [] for a in algos}, {a: [] for a in algos}, Counter()
        for s in seeds:
            inst = simulate.generate_instance(d, u, s)
            m, u_mat = simulate._sample_pair(inst, n, s + 1)
            q = orthonormalize(np.random.default_rng(10000 + s).standard_normal((d, d)))
            m_q, u_q = symmetrize(q @ m @ q.T), symmetrize(q @ u_mat @ q.T)
            for algo in algos:
                basis, j, (screened, scans) = fit(m, u_mat, u, algo)
                basis_q, j_q, (screened_q, scans_q) = fit(m_q, u_q, u, algo)
                dists[algo].append(subspace_distance(q @ basis, basis_q))
                gaps[algo].append(abs(j - j_q))
                differ[algo] += sum(a != b for a, b in zip(screened, screened_q))
                differ[algo] += sum(
                    subspace_distance(q @ a, b) > 1e-8 for a, b in zip(scans, scans_q)
                )
        for algo in algos:
            print(
                f"{d} {u} {n} {algo} {len(dists[algo])} {np.median(dists[algo]):.2g} "
                f"{max(dists[algo]):.2g} {max(gaps[algo]):.2g} {differ[algo]}",
                flush=True,
            )

if __name__ == "__main__":
    main()
