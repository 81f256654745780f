#!/usr/bin/env python3
"""envest benchmark: closed-loop workloads through the command line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload population-sweep --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py              # every workload, untraced and traced
    python3 benchmarks/run.py --self-test  # checks and tracer self-tests

One client in one process sends the next op only after the previous one
returns.  A run makes whole passes over the workload's input universe
until ``--seconds`` have passed.  The program runs from ``src/`` of this
checkout with its default thread settings.  Every op's reports are checked against references built
before the timed loop; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  Side
files go to ``.bench_out/`` at the checkout root.  The exit code is 0 when
every op passed its checks, 1 when one did not and 2 when the program
cannot be loaded.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("population-sweep", "regression-session", "grassmann-refine")
# a seed kept out of tuning, for confirming later claims
HELD_OUT_SEED = 104729
SETUP_REPS = 3
MIN_PASSES = 2


def load_program():
    """Import envest from this checkout's src/ and the workload module.

    Returns (workloads module, seconds spent importing).
    """
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import envest
        import workloads
    except ImportError as exc:
        print(f"error: cannot import envest from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if Path(envest.__file__).resolve().parent.parent != src.resolve():
        print(f"error: envest was imported from {envest.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return workloads, time.perf_counter() - t0


def provenance(name, seed, seconds, trace):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ENVEST_THREADS")}
    return {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cli_pool_threads": int(env["ENVEST_THREADS"] or os.cpu_count() or 1),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": env,
        "git_commit": commit,
    }


def _end_to_end(items, latencies, cpu, scales, failed):
    """Timing metrics at reference host speed, plus the raw loop figures.

    Each op's wall and CPU time is scaled to reference host speed by the
    probes around it.  Every input of the universe then gets its median
    scaled time over the passes; throughput is one pass over the universe
    at those times, times the share of ops that succeeded, and the tail is
    the slowest input.  (The universes hold 4 to 16 inputs, so no
    percentile of distinct inputs has ten beyond it; the raw loop's
    highest percentile with ten ops beyond it is reported beside.)
    """
    per_item = {}
    for k, lat, c, f in zip(items, latencies, cpu, scales):
        walls, cpus = per_item.setdefault(k, ([], []))
        walls.append(lat * f)
        cpus.append(c * f)
    wall = [statistics.median(w) for w, _ in per_item.values()]
    attempted = len(latencies)
    ok_share = (attempted - failed) / attempted
    metrics = {
        "ops_per_s": (ok_share * len(wall) / sum(wall), "1/s"),
        "op_p50_s": (statistics.median(lat * f for lat, f in zip(latencies, scales)), "s"),
        "op_tail_s": (max(wall), "s"),
        "cpu_s_per_op": (statistics.fmean(statistics.median(c) for _, c in per_item.values()), "s"),
    }
    ordered = sorted(latencies)
    beyond = min(10, attempted - 1)
    raw = {
        "passes": attempted / len(per_item),
        "ops_per_s": (attempted - failed) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": ordered[attempted - 1 - beyond],
        "op_tail_percentile": 100.0 * (attempted - beyond) / attempted,
        "cpu_s_per_op": sum(cpu) / attempted,
        "host_scale_p50": statistics.median(scales),
    }
    return metrics, raw


def run_workload(workloads, name, seed, seconds, trace, import_s=0.0, max_ops=None, universe=None):
    """Set up, warm up and run one workload; returns the result record.

    With ``max_ops`` the loop runs exactly that many ops instead of for
    ``seconds``; ``universe`` overrides the workload's input universe size.
    """
    import hostprobe  # imports numpy, so only after the timed program import

    cls = workloads.WORKLOADS[name]
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set-up (inputs, references and one untimed warm-up op) runs
        # SETUP_REPS times and reports the median; the last one is used
        probe = hostprobe.HostProbe()
        setup_reps, warm_problems = [], []
        for _ in range(SETUP_REPS if max_ops is None else 1):
            work = cls(seed, str(workdir))
            if universe is not None:
                work.universe = universe
            before = probe()
            t0 = time.perf_counter()
            work.prepare()
            warm_problems = _checked(work, -1, *_timed(work, -1)[:2])
            elapsed = time.perf_counter() - t0
            setup_reps.append(elapsed * hostprobe.scale(before, probe()))

        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        latencies, cpu, failures = [], [], []
        probes = [probe()]
        try:
            start = time.perf_counter()
            i = 0
            while _more(i, max_ops, work.universe, time.perf_counter() - start, seconds):
                root = tracer.begin_op(i) if tracer else None
                codes, error, wall, cpu_s = _timed(work, i)
                if tracer:
                    tracer.end_op(root)
                probes.append(probe())
                problems = _checked(work, i, codes, error)
                latencies.append(wall)
                cpu.append(cpu_s)
                if problems:
                    failures.append({"op": i, "problems": problems})
                i += 1
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(latencies)
    failed = len(failures)
    items = [work.item(i) for i in range(attempted)]
    scales = [hostprobe.scale(a, b) for a, b in zip(probes, probes[1:])]
    end_to_end, raw = _end_to_end(items, latencies, cpu, scales, failed)
    end_to_end = {
        "setup_s": (import_s + statistics.median(setup_reps), "s"),
        **end_to_end,
        "error_rate": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {
        "provenance": provenance(name, seed, seconds, trace),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "raw": raw,
        "setup_detail": {"import_s": import_s, "reps_s": setup_reps},
        "attempted": attempted,
        "failed": failed,
        "warmup_problems": warm_problems,
        "failures": failures,
        "items": items,
        "latencies_s": latencies,
        "cpu_s": cpu,
        "host_scales": scales,
    }
    if tracer:
        record["layers"] = tracing.layer_metrics(tracer.spans, scales)
        record["spans"] = tracer.spans
    return record


def _more(i, max_ops, universe, elapsed, seconds):
    """Whether to start op i: a fixed count when ``max_ops`` is set, else
    whole passes over the input universe, at least MIN_PASSES of them, until
    ``seconds`` have passed, so that every run measures the same mix."""
    if max_ops is not None:
        return i < max_ops
    return i % universe != 0 or i < MIN_PASSES * universe or elapsed < seconds


def _timed(work, i):
    """Run op i; returns (exit codes or None, exception text, wall s, cpu s)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        codes, error = work.run_op(i), None
    except Exception as exc:  # a crash inside the program fails this op only
        codes, error = None, f"{type(exc).__name__}: {exc}"
    return codes, error, time.perf_counter() - t0, time.process_time() - c0


def _checked(work, i, codes, error):
    """Problems found with op i's outputs; empty when it is correct."""
    if error is not None:
        return [error]
    try:
        return work.check(i, work.outputs(codes))
    except Exception as exc:  # a malformed report fails the op
        return [f"check raised {type(exc).__name__}: {exc}"]


def write_side_files(record):
    """Result file for every run, and the span file for traced runs."""
    prov = record["provenance"]
    stem = f"{prov['workload']}-seed{prov['seed']}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans = record.pop("spans", None)
    with open(OUT_DIR / f"{stem}-trace{prov['trace']}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracing.span_table(spans), fh)


def print_result(record):
    """Human-readable lines, then the one-line JSON result."""
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    e2e = record["end_to_end"]
    for key, m in e2e.items():
        print(f"  {key:<14} {m['value']:.6g} {m['unit']}")
    raw = record["raw"]
    print(f"  raw loop: {record['attempted']} ops in {raw['passes']:.3g} passes, "
          f"{raw['ops_per_s']:.4g} ops/s, p50 {raw['op_p50_s']:.4g} s, "
          f"p{raw['op_tail_percentile']:.1f} {raw['op_tail_s']:.4g} s, "
          f"cpu {raw['cpu_s_per_op']:.4g} s/op, host scale {raw['host_scale_p50']:.3g}")
    print("end_to_end " + json.dumps(e2e, sort_keys=True))
    if record["failures"] or record["warmup_problems"]:
        print("failures " + json.dumps(
            {"warmup": record["warmup_problems"], "ops": record["failures"][:5]}))
    if "layers" in record:
        lay = record["layers"]
        for group in ("counters", "timings"):
            print(group + " " + json.dumps(lay[group]))
        metrics = {**lay["counters"], **lay["timings"]}
        units = lay["units"]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        metrics = {k: v for k, v in e2e.items() if k != "error_rate"}
    correct = not record["failures"] and not record["warmup_problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return correct


def run_all(seed, seconds):
    """Every workload untraced, then traced, each in its own process."""
    rows = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT))
            sys.stderr.write(proc.stderr)
            ok = ok and proc.returncode == 0
            lines = proc.stdout.splitlines()
            e2e = next((json.loads(l[len("end_to_end "):]) for l in lines
                        if l.startswith("end_to_end ")), None)
            rows[(name, trace)] = (e2e, json.loads(lines[-1]) if lines else None)
    names = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "cpu_s_per_op",
             "error_rate", "peak_rss_mb")
    for name in WORKLOAD_NAMES:
        e2e, _ = rows[(name, 0)]
        traced, layer_result = rows[(name, 1)]
        print(f"== {name} (seed {seed}, {seconds} s)")
        if e2e is None:
            print("  no result")
            continue
        for key in names:
            print(f"  {key:<14} {e2e[key]['value']:.6g} {e2e[key]['unit']}")
        if traced is not None:
            overhead = traced["ops_per_s"]["value"] / e2e["ops_per_s"]["value"]
            print(f"  {'trace_overhead':<14} {overhead:.4g} (traced ops_per_s / untraced)")
        if layer_result is not None:
            for key, m in layer_result["metrics"].items():
                print(f"    {key:<40} {m['value']:.6g} {m['unit']}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        workloads, _ = load_program()
        import selftest

        workdir = OUT_DIR / f"selftest-{os.getpid()}"
        try:
            return 0 if selftest.run(workloads, run_workload, workdir) else 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.workload is None:
        load_program()
        return 0 if run_all(args.seed, args.seconds) else 1
    workloads, import_s = load_program()
    record = run_workload(workloads, args.workload, args.seed, args.seconds, args.trace, import_s)
    write_side_files(record)
    return 0 if print_result(record) else 1


if __name__ == "__main__":
    sys.exit(main())
