"""Self-tests of the benchmark itself, run by ``run.py --self-test``.

1. Each workload's check passes a real report and fails each of a list of
   corrupted copies of it.
2. Two traced runs of a few ops at one seed give identical counters, and
   in each op the root span's duration equals the sum of the self times
   inside it.
"""

import copy

SEED = 3
TRACE_OPS = 2


def _set(path, value=None, scale=None, add=None):
    """Mutation that walks ``path`` from the outputs dict and edits the leaf."""

    def mutate(out, work):
        node = out
        for key in path[:-1]:
            node = node[key]
        leaf = path[-1]
        if scale is not None:
            node[leaf] *= scale
        elif add is not None:
            node[leaf] += add
        else:
            node[leaf] = value

    return mutate


def _above_warm_start(out, work):
    ref = work.reference[work.item(0)]
    out["reports"][0]["records"][0]["objective"] = ref + 1e-8 * max(1.0, abs(ref))


POP = ("reports", 0, "records")
SEL = ("reports", 0, "records")
FIT = ("reports", 1, "records", 0)
BOOT = ("reports", 2, "summary")
REF = ("reports", 0, "records", 0)

CORRUPTIONS = {
    "population-sweep": (
        ("nonzero exit code", _set(("codes", 0), 1)),
        ("record carries an error", _set(POP + (0, "error"), "NoConvergence: stalled")),
        ("distance above 1e-4", _set(POP + (1, "distance"), 2e-4)),
        ("objective off the oracle's", _set(POP + (0, "final_objective"), scale=1 + 1e-6)),
        ("record for another seed", _set(POP + (1, "seed"), add=7)),
    ),
    "regression-session": (
        ("nonzero exit code", _set(("codes", 2), 1)),
        ("BIC score missing", _set(SEL + (2, "score"), None)),
        ("gamma not orthonormal", _set(FIT + ("gamma", 0, 0), add=1e-3)),
        ("beta_env not the projected OLS", _set(FIT + ("beta_env", 0, 0), add=1e-6)),
        ("too many bootstrap failures", _set(BOOT + ("failed",), 3)),
        ("bootstrap standard error missing", _set(BOOT + ("se_env", 0, 0), None)),
    ),
    "grassmann-refine": (
        ("nonzero exit code", _set(("codes", 0), 2)),
        ("gamma not orthonormal", _set(REF + ("gamma", 1, 0), add=1e-3)),
        ("objective above the warm start", _above_warm_start),
    ),
}


def run(workloads, run_workload, workdir):
    ok = True

    def report(passed, text):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {text}")

    workdir.mkdir(parents=True, exist_ok=True)
    for name, corruptions in CORRUPTIONS.items():
        work = workloads.WORKLOADS[name](SEED, str(workdir))
        work.universe = 1
        work.prepare()
        out = work.outputs(work.run_op(0))
        problems = work.check(0, out)
        report(not problems, f"{name}: real report passes {problems or ''}")
        for label, mutate in corruptions:
            bad = copy.deepcopy(out)
            mutate(bad, work)
            try:
                problems = work.check(0, bad)
            except Exception as exc:  # a check that raises has still rejected it
                problems = [f"{type(exc).__name__}: {exc}"]
            report(bool(problems), f"{name}: rejects {label}")

    for name in CORRUPTIONS:
        runs = [
            run_workload(workloads, name, SEED, 0, 1, max_ops=TRACE_OPS, universe=TRACE_OPS)
            for _ in range(2)
        ]
        first, second = (r["layers"]["counters"] for r in runs)
        report(first == second, f"{name}: counters repeat over {TRACE_OPS} traced ops")
        worst = max(r["layers"]["max_root_residual_s"] for r in runs)
        report(worst <= 1e-9, f"{name}: root span = sum of self times (max gap {worst:.2g} s)")
        report(all(r["failed"] == 0 for r in runs), f"{name}: traced ops pass their checks")
    return ok
