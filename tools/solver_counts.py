"""Print machine-independent work counts of the direction solver and of fg.

Usage: python3 tools/solver_counts.py

Imports envest and the benchmark workloads from the tree it sits in
(``tree.load``, which prints the machine line first), wraps the solver's
kernels in ``envest.onedim`` and ``envest.objective``, the trust-region
loop of ``envest.grassmann`` and the build of an ``ObjectivePair`` with
counters and runs five sets of fits:

* ``population``: ``onedim.fit`` at u = 10 on ``generate_instance(30, 10, s)``
  for seeds 0-16;
* ``regression-session`` and ``grassmann-refine``: one op on every dataset of
  the benchmark workload's universe (workload seed 0), through the command
  line as the benchmark runs them;
* ``fg-population`` and ``fg-sample``: ``grassmann._fit`` at u = 10 from its
  scan start, on the ``tree.pairs`` of ``generate_instance(30, 10, s)`` for
  seeds 0-16, the sample pairs of n = 200 observations.  These two sets
  print the fg rows below and ``j_value_calls``.

Every count is made per problem: a lockstep batch that serves the starts of
several problems (``onedim._lockstep``) counts once for each problem with
rows in it, so that the counts do not depend on how problems are batched
together.  For each set it prints one line per count:

* ``pair_builds``: ``ObjectivePair`` builds (two d x d eigendecompositions
  each), by the estimators and the solvers alike, counted once per pair a
  stacked build (``ObjectivePair._build_many``) makes;
* ``directions``: direction solves with more than one coordinate;
* ``candidates``: their eigenvector starts, 2(d - k) for a direction in
  d - k coordinates;
* ``starts``: the candidates they iterate, the rows of each direction's
  first tangential-gradient batch (those that reach a Hessian batch and
  those that stop at iteration 0);
* ``iterations``: Newton iterations, one Hessian batch each per problem;
* ``lockstep_batches``: Hessian batches as made, each serving one or more
  problems;
* ``hessian_rows``: tangent Hessians built;
* ``cholesky_calls``: Cholesky factorization calls made while solving,
  single or batched, counted at numpy's kernel
  ``np.linalg._umath_linalg.cholesky_lo``, which ``np.linalg.cholesky``
  calls too, so that every route counts;
* ``eigvalsh_batches`` and ``eigvalsh_rows``: eigenvalue calls made while
  solving, as made, and the matrices they decompose, counted at numpy's
  kernel ``np.linalg._umath_linalg.eigvalsh_lo``, which
  ``np.linalg.eigvalsh`` calls too;
* ``d_kernel_calls`` and ``d_kernel_rows``: batched D evaluations: the
  screening of the candidates and the trials of the line searches;
* ``quadratic_form_passes``: passes of w M and w N over a batch of rows
  (``objective._quadratic_forms``), whether for a D evaluation or for the
  gradient and Hessian of a Newton iteration;
* ``newton_searches``: rows sent to the Newton line search;
* ``line_search_d_calls``: the D-kernel calls made inside the line searches;
* ``long_steps``: rows handed to a line search whose direction p is longer
  than 1;
* ``stop_gradient``, ``stop_resolved``, ``stop_stalled``: starts stopped by
  the gradient test, by the Newton decrement at D's float64 resolution, and
  by the line search giving up (inferred from the line-search calls: the
  rows a search rejects); ``capped_directions``: direction solves that ran
  to the iteration cap;
* ``fg_fits`` and ``fg_iterations``: fits that reach the trust-region
  loop, ``grassmann._fit``, and their trust-region iterations, as each fit
  reports them;
* ``fg_newton_steps``: trust-region steps (one per iteration, plus the step
  whose predicted decrease stops a fit as ``Roundoff``) that are the
  Cholesky-certified Newton step, with no call of ``_trust_region_step``;
* ``fg_hessian_eighs``: calls of ``linalg._eigh`` (``np.linalg.eigh``'s
  kernel) by ``grassmann`` on a Hessian that ``grassmann._tangent_model``
  returned;
* ``j_value_calls``: J evaluations of one basis made by ``grassmann``, calls
  of ``objective.j_value`` and of its unchecked ``_j_value`` both, per fg
  fit;
* ``profiled_calls``: the Python and C function calls made inside
  ``onedim.fit_many``, as ``sys.setprofile`` reports them ("call" and
  "c_call" events; calling a ufunc or an operator makes none), in all of
  the set's fits.  They are counted in a pass of their own, made before the
  counters are installed and after a warm-up, so no counter's call is
  among them.  The figure depends on the Python and numpy versions, not on
  the host's speed, so it tells a change in the solver's call overhead
  apart from timing noise.  It is a total, so that a change which saves
  Newton iterations reads as fewer calls.

Its output is committed as ``tools/records/solver_counts.txt``; the check
is ``python3 tools/solver_counts.py | diff tools/records/solver_counts.txt -``.
"""

import os
import sys
import tempfile
from collections import Counter

import tree

POPULATION_SEEDS = range(17)
DATASET_WORKLOADS = ("regression-session", "grassmann-refine")
FG_ROWS = ("fg_fits", "fg_iterations", "fg_newton_steps", "fg_hessian_eighs")


def problems(owner):
    """The number of problems with rows in a kernel batch (1 without owner)."""
    return 1 if owner is None else len(set(owner.tolist()))


class Counts:
    """Counters installed around ``envest.onedim``'s kernels, the quadratic
    forms of ``envest.objective``, the grassmann trust-region loop and
    ``ObjectivePair._build_many``."""

    def __init__(self, onedim, objective, grassmann):
        self.c = Counter()
        self._count_fg(grassmann)
        self._count_pair_builds(onedim.ObjectivePair)
        self.in_search = False
        self.iterations_here = Counter()  # per problem of the current lockstep
        self.first_gradients = False
        np = onedim.np
        real_values = onedim._d_tilde_values
        real_gradients = onedim._d_tilde_gradients
        real_hessians = onedim._d_tilde_hessians
        real_armijo = onedim._armijo
        real_forms = objective._quadratic_forms
        kernels = np.linalg._umath_linalg
        real_eigvalsh = kernels.eigvalsh_lo
        real_cholesky = kernels.cholesky_lo

        def values(m, n, w, *args, **kwargs):
            # a line search's D evaluations are counted at their forms: it
            # may evaluate D from forms it keeps
            if not self.in_search:
                self.c["d_kernel_calls"] += problems(args[0] if args else kwargs.get("owner"))
                self.c["d_kernel_rows"] += w.shape[0]
            return real_values(m, n, w, *args, **kwargs)

        def forms(m, n, w, owner=None):
            self.c["quadratic_form_passes"] += problems(owner)
            if self.in_search:
                self.c["d_kernel_calls"] += problems(owner)
                self.c["d_kernel_rows"] += w.shape[0]
                self.c["line_search_d_calls"] += problems(owner)
            return real_forms(m, n, w, owner)

        def gradients(m, n, w, *args, **kwargs):
            if self.first_gradients:
                self.c["starts"] += w.shape[0]
                self.first_gradients = False
            return real_gradients(m, n, w, *args, **kwargs)

        def hessians(m, n, w, *args, **kwargs):
            owner = kwargs.get("owner")
            self.c["iterations"] += problems(owner)
            self.c["lockstep_batches"] += 1
            self.c["hessian_rows"] += w.shape[0]
            self.c["stop_resolved"] += w.shape[0]  # less the rows searched
            self.iterations_here.update([0] if owner is None else set(owner.tolist()))
            return real_hessians(m, n, w, *args, **kwargs)

        def armijo(m, n, w, f, p, dg, *rest):
            self.c["long_steps"] += int((np.linalg.norm(p, axis=1) > 1.0).sum())
            self.in_search = True
            try:
                result = real_armijo(m, n, w, f, p, dg, *rest)
            finally:
                self.in_search = False
            # stalled: the rows a search rejects
            self.c["stop_stalled"] += int((~result[0]).sum())
            self.c["newton_searches"] += w.shape[0]
            self.c["stop_resolved"] -= w.shape[0]
            return result

        def eigvalsh(a, *args, **kwargs):
            self.c["eigvalsh_batches"] += 1
            self.c["eigvalsh_rows"] += 1 if a.ndim == 2 else a.shape[0]
            return real_eigvalsh(a, *args, **kwargs)

        def cholesky(a, *args, **kwargs):
            self.c["cholesky_calls"] += 1
            return real_cholesky(a, *args, **kwargs)

        def lockstep(pairs, settings, solve):
            self.iterations_here.clear()
            self.first_gradients = True
            kernels.eigvalsh_lo, kernels.cholesky_lo = eigvalsh, cholesky
            try:
                return solve()
            finally:
                kernels.eigvalsh_lo, kernels.cholesky_lo = real_eigvalsh, real_cholesky
                for k, pair in enumerate(pairs):
                    if pair.dim > 1:
                        self.c["directions"] += 1
                        self.c["candidates"] += 2 * pair.dim
                        self.c["capped_directions"] += (
                            self.iterations_here[k] >= settings.max_inner_iterations
                        )

        onedim._d_tilde_values = values
        onedim._d_tilde_gradients = gradients
        onedim._d_tilde_hessians = hessians
        onedim._armijo = armijo
        # the D kernels call objective's, and onedim calls it too
        objective._quadratic_forms = forms
        onedim._quadratic_forms = forms
        real_lockstep = onedim._lockstep
        onedim._lockstep = lambda pairs, settings: lockstep(
            pairs, settings, lambda: real_lockstep(pairs, settings)
        )

    def _count_pair_builds(self, pair_class):
        # a stacked build takes a stack of M first
        real_build = pair_class._build_many.__func__

        def build(cls, m, *args):
            self.c["pair_builds"] += len(m)
            return real_build(cls, m, *args)

        pair_class._build_many = classmethod(build)

    def _count_fg(self, grassmann):
        real_fit = grassmann._fit
        real_model = grassmann._tangent_model
        real_step = grassmann._trust_region_step
        real_eigh = grassmann._eigh
        real_j_values = grassmann.j_value, grassmann._j_value
        hessian = [None]  # the Hessian of the model in use

        def counted(real):
            def j_value(*args):
                self.c["j_value_calls"] += 1
                return real(*args)

            return j_value

        def tangent_model(*args):
            model = real_model(*args)
            hessian[0] = model[2]
            return model

        def eigh(a):
            self.c["fg_hessian_eighs"] += a is hessian[0]
            return real_eigh(a)

        def trust_region_step(*args):
            self.c["fg_eigen_steps"] += 1
            return real_step(*args)

        def fit(*args, **kwargs):
            try:
                result = real_fit(*args, **kwargs)
            finally:
                hessian[0] = None
            iterations = result.inner_iterations[0]
            self.c["fg_fits"] += 1
            self.c["fg_iterations"] += iterations
            self.c["fg_steps"] += iterations + ("Roundoff" in result.diagnostics)
            return result

        grassmann._fit = fit
        grassmann._tangent_model = tangent_model
        grassmann._trust_region_step = trust_region_step
        grassmann._eigh = eigh
        grassmann.j_value, grassmann._j_value = map(counted, real_j_values)

    def table(self):
        c = self.c
        c["stop_gradient"] = c["starts"] - c["stop_resolved"] - c["stop_stalled"]
        c["fg_newton_steps"] = c["fg_steps"] - c["fg_eigen_steps"]
        keys = (
            "pair_builds", "directions", "candidates", "starts", "iterations", "lockstep_batches",
            "hessian_rows", "cholesky_calls", "eigvalsh_batches", "eigvalsh_rows",
            "d_kernel_calls", "d_kernel_rows", "quadratic_form_passes", "newton_searches",
            "line_search_d_calls",
            "long_steps", "stop_gradient", "stop_resolved", "stop_stalled",
            "capped_directions", "fg_fits", "fg_iterations", "fg_newton_steps",
            "fg_hessian_eighs",
        )
        return [(k, int(c[k])) for k in keys]


def profiled_calls(onedim, run):
    """The "call" and "c_call" profile events inside ``onedim.fit_many``
    while run() runs."""
    target = onedim.fit_many.__code__
    depth = calls = 0

    def profile(frame, event, arg):
        nonlocal depth, calls
        if event == "call" and frame.f_code is target:
            depth += 1
        elif event == "return" and frame.f_code is target:
            depth -= 1
        elif depth and event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def main():
    tree.load(__doc__, benchmarks=True)
    import workloads
    from envest import grassmann, objective, onedim, simulate

    def population():
        for s in POPULATION_SEEDS:
            inst = simulate.generate_instance(30, 10, s)
            onedim.fit(inst.m, inst.u_mat, 10)

    def fg(pairs):
        # looked up at each call: the counters replace grassmann._fit
        return lambda: [grassmann._fit(pair, 10) for pair in pairs]

    def ops(name, workload):
        def run():
            for i in range(workload.universe):
                codes = workload.run_op(i)
                if any(codes):
                    raise SystemExit(f"error: {name} op {i} exited with {codes}")
        return run

    with tempfile.TemporaryDirectory(prefix="envest-counts-") as work:
        runs = [("population", population)]
        for name in DATASET_WORKLOADS:
            os.mkdir(os.path.join(work, name))
            workload = workloads.WORKLOADS[name](0, os.path.join(work, name))
            workload.prepare()  # its reference fits are not counted
            runs.append((name, ops(name, workload)))
        population()  # warm-up: first calls are left out of the profile
        calls = {name: profiled_calls(onedim, run) for name, run in runs}
        fg_runs = [(f"fg-{kind}", fg(tree.pairs(kind, 30, 10, 200, POPULATION_SEEDS)))
                   for kind in ("population", "sample")]
        counts = Counts(onedim, objective, grassmann)
        sets = []
        for name, run in runs:
            counts.c.clear()
            run()
            rows = counts.table()
            rows.append(("profiled_calls", calls[name]))
            sets.append((name, rows))
        for name, run in fg_runs:
            counts.c.clear()
            run()
            rows = [(key, value) for key, value in counts.table() if key in FG_ROWS]
            per_fit = counts.c["j_value_calls"] / counts.c["fg_fits"]
            rows.append(("j_value_calls", f"{per_fit:.1f}"))
            sets.append((name, rows))
    for name, rows in sets:
        for key, value in rows:
            print(f"{name} {key} {value}")


if __name__ == "__main__":
    main()
