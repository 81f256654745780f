"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into envest's public functions by
replacing the module attributes the program calls through; nothing inside
the package changes.  A span is ``[name, start, end, parent, op, extra]``:
``parent`` is the enclosing span object (or None for an op's root), ``op``
the id of the op that caused it, and ``extra`` a dict of deterministic
counts read from the wrapped call's return value (or None).

Each thread keeps its own parent stack.  A span opened on a worker thread
with an empty stack takes as parent the innermost span open on the client
thread, which in envest's thread pool is the call that is waiting for the
workers, so pool work is charged to its op.
"""

import functools
import importlib
import os
import sys
import threading
import time

# (dotted path of the original callable, span name).  Every module
# attribute of the envest package bound to the same object is replaced,
# because several modules import these functions by name.
TARGETS = (
    ("envest.cli.run", "cli.run"),
    ("envest.cli.read_matrix_csv", "cli.read_matrix_csv"),
    ("envest.cli.write_report_json", "cli.write_report_json"),
    ("envest.simulate.population_experiment", "simulate.population_experiment"),
    ("envest.simulate.residual_bootstrap", "simulate.residual_bootstrap"),
    ("envest.estimators.covariance_kit", "estimators.covariance_kit"),
    ("envest.estimators.select_dimension_bic", "estimators.select_dimension_bic"),
    ("envest.estimators.response_envelope", "estimators.response_envelope"),
    ("envest.onedim.fit", "onedim.fit"),
    ("envest.grassmann.fit", "grassmann.fit"),
    ("envest.objective.j_value", "objective.j_value"),
    ("envest.objective.j_gradient", "objective.j_gradient"),
    ("envest.linalg.orthonormal_complement", "linalg.orthonormal_complement"),
    ("envest.linalg.subspace_distance", "linalg.subspace_distance"),
)
# classmethods are replaced on the class itself
CLASS_TARGETS = (
    ("envest.objective", "ObjectivePair", "from_m_u", "objective.pair_build"),
    ("envest.objective", "ObjectivePair", "from_pair", "objective.pair_build"),
)

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _onedim_extra(result, args, kwargs):
    return {
        "newton_iters": int(sum(result.inner_iterations)),
        "flat_steps": sum(1 for f in result.diagnostics if f.startswith("FlatStep@")),
    }


def _grassmann_extra(result, args, kwargs):
    stopped = {"CapReached", "LineSearchStall"}
    return {
        "iters": int(sum(result.inner_iterations)),
        "converged": int(not stopped.intersection(result.diagnostics)),
    }


def _report_extra(result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"report_bytes": os.path.getsize(path) if path is not None else 0}


EXTRACTORS = {
    "onedim.fit": _onedim_extra,
    "grassmann.fit": _grassmann_extra,
    "cli.write_report_json": _report_extra,
}


class Tracer:
    """Collects spans for one run; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._local = threading.local()
        self._client_stack = self._stack()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            client = self._client_stack
            parent = client[-1] if client else None
        span = [name, 0.0, 0.0, parent, self.op, None]
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def begin_op(self, op):
        """Open the root span of op number ``op`` on the client thread."""
        self.op = op
        return self._open("op")

    def end_op(self, span):
        self._close(span)
        self.op = None

    def wrap(self, fn, name):
        extract = EXTRACTORS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if extract is not None:
                span[EXTRA] = extract(result, args, kwargs)
            return result

        return traced

    def install(self):
        for path, name in TARGETS:
            module_name, attr = path.rsplit(".", 1)
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "envest" and not mod_name.startswith("envest."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, traced)
        for module_name, cls_name, attr, name in CLASS_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, classmethod(self.wrap(original.__func__, name)))

    def uninstall(self):
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched = []


def self_times(spans):
    """Self time of every span, keyed by id(span).

    A span's self time is its duration minus the union of its children's
    intervals.  Where spans on different threads run at the same instant,
    that instant's wall time is split evenly between the innermost spans
    running then, so the self times of one op add up to its root duration.
    """
    depth = {}

    def depth_of(span):
        key = id(span)
        if key not in depth:
            parent = span[PARENT]
            depth[key] = 0 if parent is None else depth_of(parent) + 1
        return depth[key]

    # at equal times: ends before starts, parents open before and close
    # after their children; spans of zero length take no time and are left out
    events = []
    for span in spans:
        if span[END] > span[START]:
            d = depth_of(span)
            events.append((span[START], 1, d, id(span), span))
            events.append((span[END], 0, -d, id(span), span))
    events.sort(key=lambda e: e[:3])
    active = {}
    open_children = {}
    result = {id(s): 0.0 for s in spans}
    last = None
    for t, is_start, _, key, span in events:
        if last is not None and t > last and active:
            leaves = [k for k in active if open_children[k] == 0]
            share = (t - last) / len(leaves)
            for k in leaves:
                result[k] += share
        last = t
        parent = span[PARENT]
        pkey = id(parent) if parent is not None else None
        if is_start:
            active[key] = span
            open_children[key] = 0
            if pkey in active:
                open_children[pkey] += 1
        else:
            active.pop(key, None)
            open_children.pop(key, None)
            if pkey in active:
                open_children[pkey] -= 1
    return result


# per-layer metrics: (name, unit).  Counts are per op unless the
# unit says otherwise; they depend only on the ops run, never on timing.
COUNTERS = (
    ("cli.report_bytes", "B/op"),
    ("estimators.covariance_kit.calls", "count/op"),
    ("estimators.fits_per_op", "count/op"),
    ("onedim.fit.calls", "count/op"),
    ("onedim.newton_iters", "count/op"),
    ("onedim.flat_steps", "count/op"),
    ("grassmann.fit.calls", "count/op"),
    ("grassmann.iters", "count/op"),
    ("grassmann.converged_ratio", "ratio"),
    ("grassmann.evals_per_iter", "ratio"),
    ("objective.pair_build.calls", "count/op"),
    ("objective.j_value.calls", "count/op"),
    ("objective.j_gradient.calls", "count/op"),
    ("linalg.orthonormal_complement.calls", "count/op"),
)
TIMINGS = (
    ("cli.read_matrix_csv.self_s", "s/op"),
    ("cli.write_report_json.self_s", "s/op"),
    ("simulate.population_experiment.self_s", "s/op"),
    ("simulate.parallelism", "ratio"),
    ("simulate.residual_bootstrap.self_s", "s/op"),
    ("estimators.covariance_kit.self_s", "s/op"),
    ("estimators.select_dimension_bic.self_s", "s/op"),
    ("estimators.response_envelope.self_s", "s/op"),
    ("onedim.fit.self_s", "s/op"),
    ("onedim.fit.p50_s", "s"),
    ("grassmann.fit.self_s", "s/op"),
    ("objective.pair_build.self_s", "s/op"),
    ("objective.j_value.self_s", "s/op"),
    ("objective.j_gradient.self_s", "s/op"),
    ("linalg.orthonormal_complement.self_s", "s/op"),
    ("linalg.subspace_distance.self_s", "s/op"),
)


def _has_ancestor(span, name):
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME] == name:
            return True
        parent = parent[PARENT]
    return False


def layer_metrics(spans, scales):
    """Per-layer counters and timings of a traced run, one op per entry of
    ``scales``; each op's times are multiplied by its host-speed scale.

    Also returns ``max_root_residual_s``: the largest gap, over ops, between
    an op's root duration and the sum of the self times inside it.
    """
    ops = len(scales)
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def extra(name, key):
        return sum(s[EXTRA][key] for s in named(name) if s[EXTRA])

    def ratio(a, b):
        return a / b if b else 0.0

    fits = named("onedim.fit")
    refines = named("grassmann.fit")
    g_iters = extra("grassmann.fit", "iters")
    g_evals = sum(1 for s in named("objective.j_value") if _has_ancestor(s, "grassmann.fit"))
    pe_time = sum(s[END] - s[START] for s in named("simulate.population_experiment"))
    pe_fit_time = sum(
        s[END] - s[START] for s in fits if _has_ancestor(s, "simulate.population_experiment")
    )
    counters = {
        "cli.report_bytes": extra("cli.write_report_json", "report_bytes") / ops,
        "estimators.covariance_kit.calls": len(named("estimators.covariance_kit")) / ops,
        "estimators.fits_per_op": (len(fits) + len(refines)) / ops,
        "onedim.fit.calls": len(fits) / ops,
        "onedim.newton_iters": extra("onedim.fit", "newton_iters") / ops,
        "onedim.flat_steps": extra("onedim.fit", "flat_steps") / ops,
        "grassmann.fit.calls": len(refines) / ops,
        "grassmann.iters": g_iters / ops,
        "grassmann.converged_ratio": ratio(extra("grassmann.fit", "converged"), len(refines)),
        "grassmann.evals_per_iter": ratio(g_evals, g_iters),
        "objective.pair_build.calls": len(named("objective.pair_build")) / ops,
        "objective.j_value.calls": len(named("objective.j_value")) / ops,
        "objective.j_gradient.calls": len(named("objective.j_gradient")) / ops,
        "linalg.orthonormal_complement.calls": len(named("linalg.orthonormal_complement")) / ops,
    }
    timings = {}
    for key, _ in TIMINGS:
        if key.endswith(".self_s"):
            spans_of = named(key[: -len(".self_s")])
            timings[key] = sum(selfs[id(s)] * scales[s[OP]] for s in spans_of) / ops
    timings["simulate.parallelism"] = ratio(pe_fit_time, pe_time)
    durations = sorted((s[END] - s[START]) * scales[s[OP]] for s in fits)
    timings["onedim.fit.p50_s"] = durations[len(durations) // 2] if durations else 0.0
    timings = {key: timings[key] for key, _ in TIMINGS}

    per_op = {}
    for span in spans:
        per_op[span[OP]] = per_op.get(span[OP], 0.0) + selfs[id(span)]
    residual = max(
        (abs(s[END] - s[START] - per_op[s[OP]]) for s in named("op")), default=0.0
    )
    units = dict(COUNTERS + TIMINGS)
    return {"counters": counters, "timings": timings, "units": units,
            "max_root_residual_s": residual}


def span_table(spans):
    """Spans as rows [name, start, end, parent row or -1, op], in close order."""
    index = {id(s): k for k, s in enumerate(spans)}
    return [
        [s[NAME], s[START], s[END], index[id(s[PARENT])] if s[PARENT] is not None else -1, s[OP]]
        for s in spans
    ]
