"""Benchmark for driventb: one workload, one closed-loop client, one process.

Usage, from the repository root:

    python3 bench/run.py --workload oracle_verify --seed 1 --seconds 30 --trace 0

Workloads are defined in bench/workloads.py. The run imports driventb from
./src, writes its seeded inputs under ./.bench_out, sets up several times
(the median counts as ``setup_s``), then runs the op list in whole passes
until ``--seconds`` have elapsed, checking every op's output outside its
timed span. With ``--trace 1`` half the time runs untraced, then the same
passes run again with span recorders on every layer, and the per-layer
metrics are reported instead of the end-to-end ones.

Every timed op and set-up is bracketed by a fixed reference kernel
(bench/calibrate.py), and the reported times are scaled to a nominal host
speed, so that a neighbour's load on a shared host cancels out of them.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A run record (environment, per-op latencies, check values) and, when
traced, the spans are written to ./.bench_out.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# set-up runs at least SETUP_MIN times and repeats while the set-ups so
# far took under SETUP_SECONDS (at most SETUP_MAX times); setup_s is the median
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 5.0


def better(metric: str) -> str:
    return "higher" if metric == "ops_per_s" else "lower"


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_driventb():
    """Import driventb (and its scenario layer) afresh from ./src."""
    for name in [m for m in sys.modules
                 if m == "driventb" or m.startswith("driventb.")]:
        del sys.modules[name]
    importlib.import_module("driventb.scenario")
    module = importlib.import_module("driventb")
    if not Path(module.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"driventb imported from {module.__file__}, not from ./src")
    return module


def run_op(op):
    """(latency, result, error) of one op."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception:  # an op that raises counts as failed, the run goes on
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, result, None


def check_op(op, result, error):
    """(ok, check values, error) of one op's result, outside its timed span."""
    if error is not None:
        return False, {}, error
    try:
        ok, values = op.check(result)
    except Exception:
        return False, {}, traceback.format_exc(limit=3)
    return bool(ok), values, None


def run_passes(ops, seconds=None, passes=None):
    """Whole passes over the op list until ``seconds`` elapse (or ``passes``).

    The reference kernel runs right before and right after each op; the op's
    ``latency_s`` is its wall time scaled by them to the nominal host.
    """
    from calibrate import reference, scale

    samples = []
    start = time.perf_counter()
    done = 0
    ref_before = reference()
    while True:
        for op in ops:
            wall, result, error = run_op(op)
            ref_after = reference()
            ok, values, error = check_op(op, result, error)
            del result
            samples.append({"op": op.name,
                            "latency_s": scale(wall, ref_before, ref_after),
                            "wall_s": wall, "ref_s": [ref_before, ref_after],
                            "ok": ok, "values": values, "error": error})
            ref_before = reference()
        done += 1
        if passes is not None and done >= passes:
            break
        if passes is None and time.perf_counter() - start >= seconds:
            break
    return samples, done


def ops_per_second(samples, ops) -> float:
    """Ops per second over one pass, each op timed by its median latency."""
    from stats import median

    per_op = {op.name: [] for op in ops}
    for s in samples:
        per_op[s["op"]].append(s["latency_s"])
    return len(ops) / sum(median(v) for v in per_op.values())


def summarize(samples):
    failed = sum(1 for s in samples if not s["ok"])
    checks = {}
    for s in samples:
        for key, value in s["values"].items():
            checks[key] = max(checks.get(key, value), value)
    return failed, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "driventb" / "__init__.py").is_file():
        fail(f"no driventb sources under {ROOT / 'src'}")
    if not (ROOT / "configs").is_dir():
        fail(f"no shipped configs under {ROOT / 'configs'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    import numpy as np

    from calibrate import REFERENCE_S
    from stats import median, tail_latency
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    startup_s = time.perf_counter() - T_START

    out_root = ROOT / ".bench_out"
    work = out_root / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        from calibrate import reference, scale

        setup_runs, setup_walls = [], []
        while len(setup_runs) < SETUP_MIN or (
                len(setup_runs) < SETUP_MAX and sum(setup_walls) < SETUP_SECONDS):
            ref_before = reference()
            t0 = time.perf_counter()
            driventb = import_driventb()
            ops = workload.build(ROOT, args.seed, work / f"setup{len(setup_runs)}")
            ops[0].run()  # warm-up op, untimed and unchecked
            setup_walls.append(time.perf_counter() - t0)
            setup_runs.append(scale(setup_walls[-1], ref_before, reference()))
        setup_s = median(setup_runs)

        if args.trace:
            from spans import COUNTERS, LAYERS, SpanRecorder, install

            plain, passes = run_passes(ops, seconds=args.seconds / 2.0)
            recorder = SpanRecorder()
            uninstall = install(recorder)
            try:
                traced, _ = run_passes(ops, passes=passes)
            finally:
                uninstall()
            samples = plain + traced
            traced_wall = sum(s["wall_s"] for s in traced)
            self_s, calls = recorder.self_times()
            metrics = {}
            for layer in LAYERS:
                metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
                metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
                metrics[f"{layer}.share"] = (self_s.get(layer, 0.0) / traced_wall,
                                             "fraction")
            for key, unit in COUNTERS.items():
                metrics[key] = (recorder.counts[key], unit)
            metrics["trace_overhead"] = (
                1.0 - ops_per_second(traced, ops) / ops_per_second(plain, ops),
                "fraction")
            out_root.mkdir(exist_ok=True)
            (out_root / f"spans-{tag}.json").write_text(json.dumps(
                {"columns": ["layer", "name", "start", "end", "parent"],
                 "spans": recorder.spans}))
        else:
            samples, passes = run_passes(ops, seconds=args.seconds)
            latencies = [s["latency_s"] for s in samples]
            tail, tail_p, tail_above = tail_latency(latencies)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (ops_per_second(samples, ops), "1/s"),
                "latency_p50_s": (median(latencies), "s"),
                "latency_tail_s": (tail, "s"),
                "peak_rss_mib": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, checks = summarize(samples)
    attempted = len(samples)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": passes,
        "ops": [op.name for op in ops],
        "environment": {
            "commit": commit_id(), "python": platform.python_version(),
            "numpy": np.__version__, "driventb": driventb.__version__,
            "nproc": os.cpu_count(),
            "pinned": {var: os.environ[var] for var in PINNED}},
        "setup_runs_s": setup_runs, "setup_walls_s": setup_walls,
        "reference_s": REFERENCE_S, "startup_s": startup_s,
        "failed_ratio": failed / attempted, "checks": checks,
        "metrics": {k: {**m, "better": better(k)} for k, m in reported.items()},
        "samples": samples,
    }
    if not args.trace:
        record["latency_tail"] = {"percentile": tail_p, "samples_above": tail_above,
                                  "samples": attempted}
    out_root.mkdir(exist_ok=True)
    (out_root / f"record-{tag}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"ops {attempted}  commit {record['environment']['commit'][:12]}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:.6g} {unit}  ({better(key)} is better)")
    if not args.trace:
        print(f"  latency_tail_s is p{tail_p:g} with {tail_above} of "
              f"{attempted} samples above it")
    print(f"  failed_ratio                 {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    for key, value in sorted(checks.items()):
        print(f"  check {key:22s} {value:.3g}")
    for s in samples:
        if s["error"]:
            print(f"  op {s['op']} raised:\n{s['error']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
