"""coxmin benchmark: one workload per invocation, a JSON result on the last line.

    python3 perfbench/run.py --workload verify-rank4 --seed 1 --seconds 30 --trace 0

Each round runs in a fresh interpreter (a child process of this script),
because coxmin keeps process-wide state: `get_field` is an `lru_cache` whose
isolating interval is refined in place, and class records cache arrow exits.
A round is: import coxmin, set the workload up, then run its operations in a
fixed order, timing each, and check every output outside the timed part.
Operation times are reported in units of a reference loop timed around each
operation (`reference_s`), which takes the host's speed drift out of them.
Rounds repeat while the next one still fits in `--seconds` (at least one);
set-up alone is then repeated in fresh interpreters until there are
SETUP_SAMPLES set-up times. Every figure is a median over rounds or set-ups.

With `--trace 1` the script runs one untraced and one traced round and
prints the per-layer metrics of the traced one (see tracing.py); the span
columns are written to perfbench/results/.

`--workload all` runs every workload in turn and prints one line each.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOAD_NAMES = ("verify-rank4", "walk-h4", "classes-e6")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
TAIL_CANDIDATES = (99, 95, 90, 80, 75, 50)

PER_LAYER = (
    ("scalars.mul", ("calls", "self_s")),
    ("scalars.inverse", ("calls",)),
    ("scalars.sign", ("calls",)),
    ("scalars.refine", ("calls",)),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.kernel_basis", ("calls", "self_s")),
    ("linalg.cone_from_constraints", ("self_s",)),
    ("linalg.cone_point_avoiding", ("self_s",)),
    ("coxeter.build_system", ("calls", "self_s", "distinct_ratio")),
    ("coxeter.with_field_level", ("calls",)),
    ("coxeter.GroupTable", ("calls", "self_s")),
    ("eigen.eigen_decomposition", ("calls", "self_s", "distinct_ratio")),
    ("eigen.regular_point", ("calls", "self_s")),
    ("eigen.good_position_chamber", ("self_s",)),
    ("conjugacy.enumerate_classes", ("self_s",)),
    ("conjugacy.approx_partition", ("self_s",)),
    ("conjugacy.strong_partition", ("self_s",)),
    ("conjugacy.path_graph", ("self_s",)),
    ("conjugacy.verify_arrow_reduction", ("self_s",)),
    ("conjugacy.elementary_strong_targets", ("calls",)),
    ("walk.descent_walk", ("calls", "self_s")),
    ("walk.special_length_formula", ("self_s",)),
    ("walk.decompose_at_regular", ("self_s",)),
    ("braid.certify_good", ("self_s",)),
    ("braid.normal_form", ("calls", "self_s")),
    ("braid.verify_quasi_elliptic_divisibility", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio"}
E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "op_p50_ref": "ref",
             "op_tail_ref": "ref", "peak_rss_mb": "MB"}
REFERENCE_ITERATIONS = 50_000


class BenchError(Exception):
    """The benchmark could not produce a result."""


def monotonic() -> float:
    """A clock shared by this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop: the unit `ref` of op times.

    The host's speed drifts by up to a factor of two over seconds to minutes.
    Timing the loop right before and right after an operation and dividing
    by it takes most of that drift out of the operation's time.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def percentile(values, p: int) -> float:
    """The p-th percentile, interpolating between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(n: int) -> int:
    """The highest percentile with at least ten of n operations beyond it."""
    for p in TAIL_CANDIDATES:
        if n * (100 - p) >= 10 * 100:
            return p
    raise BenchError(f"{n} operations leave no tail percentile with ten beyond it")


# ---------------------------------------------------------------------------
# Child: one fresh interpreter, one round.


def _import_coxmin():
    sys.path.insert(0, SRC)
    try:
        import coxmin
    except ImportError as exc:
        raise BenchError(f"coxmin is not importable from {SRC}: {exc}") from None
    if not os.path.abspath(coxmin.__file__).startswith(SRC + os.sep):
        raise BenchError(f"coxmin was imported from {coxmin.__file__}, not {SRC}")


def child_main(args) -> dict:
    _import_coxmin()
    import checks
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = workloads.WORKLOADS[args.workload]
    state = workloads.setup(workload)
    ops = workloads.build_ops(workload, state, args.seed)
    setup_s = monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.child == "full":
        op_s, op_ref, failures = run_ops(ops, tracer)
        if tracer is not None:
            tracer.enabled = False
        try:
            workloads.check_tables(state)
            tables_ok = True
        except checks.CheckFailed as exc:
            tables_ok = False
            print(f"class tables: {exc}", file=sys.stderr)
        result.update(op_s=op_s, op_ref=op_ref, failures=failures, tables_ok=tables_ok)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json"))
    return result


def run_ops(ops, tracer=None) -> tuple[list[float], list[float], list[str]]:
    """Time each operation's call and check its output outside the timing.

    Returns each call's seconds, the same in `ref` units (seconds over the
    mean of reference loops run just before and just after the call), and
    the failure messages. An operation whose call raises or whose check
    fails is a failed one. Tracing, if any, is paused while checks run.
    """
    op_s, op_ref, failures = [], [], []
    clock = time.perf_counter
    for op in ops:
        before = reference_s()
        t0 = clock()
        try:
            out, error = op.run(), None
        except Exception as exc:  # any error of the program fails the operation
            out, error = None, exc
        dt = clock() - t0
        op_s.append(dt)
        op_ref.append(dt / ((before + reference_s()) / 2))
        if error is None:
            if tracer is not None:
                tracer.enabled = False
            try:
                op.check(out)
            except Exception as exc:  # a failed check or an error while checking
                error = exc
            finally:
                if tracer is not None:
                    tracer.enabled = True
        if error is not None:
            failures.append(f"{op.label}: {type(error).__name__}: {error}")
    return op_s, op_ref, failures


def layer_metrics(tracer) -> dict:
    busy = tracer.self_times()
    out = {}
    for span, kinds in PER_LAYER:
        calls, self_s = busy.get(span, (0, 0.0))
        for kind in kinds:
            if kind == "calls":
                value = calls
            elif kind == "self_s":
                value = self_s
            else:
                value = len(tracer.inputs[span]) / calls if calls else 0.0
            out[f"{span}.{kind}"] = {"value": value, "unit": UNITS[kind]}
    out["walk.steps"] = {"value": tracer.counters["walk.steps"], "unit": "count"}
    return out


# ---------------------------------------------------------------------------
# Parent: rounds in fresh interpreters, medians, the result line.


def spawn(mode: str, workload: str, seed: int, deadline: float, trace: bool = False) -> dict:
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next round")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--spawned-at", repr(monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} round of {workload} ran past the deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} round of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def round_figures(op_ref: list[float]) -> dict:
    p = tail_percentile(len(op_ref))
    return {"wall_ref": sum(op_ref), "op_p50_ref": statistics.median(op_ref),
            "op_tail_ref": percentile(op_ref, p), "tail_percentile": p}


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    start = monotonic()
    rounds = []
    while True:
        t0 = monotonic()
        rounds.append(spawn("full", workload, seed, deadline))
        rounds[-1]["round_s"] = monotonic() - t0
        mean_round = statistics.fmean(r["round_s"] for r in rounds)
        if monotonic() - start + mean_round > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn("setup", workload, seed, deadline)["setup_s"])
    figures = [round_figures(r["op_ref"]) for r in rounds]
    values = {"setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}
    for key in ("wall_ref", "op_p50_ref", "op_tail_ref"):
        values[key] = statistics.median(f[key] for f in figures)
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in E2E_UNITS.items()}
    wall_s = statistics.median(sum(r["op_s"]) for r in rounds)
    print(f"{workload}: {len(rounds)} rounds, op_tail_ref is "
          f"p{figures[0]['tail_percentile']}, wall {wall_s:.2f} s", file=sys.stderr)
    return summarize(rounds, metrics)


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    plain = spawn("full", workload, seed, deadline)
    traced = spawn("full", workload, seed, deadline, trace=True)
    metrics = dict(traced["layers"])
    overhead = sum(traced["op_ref"]) / sum(plain["op_ref"])
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return summarize([plain, traced], metrics)


def summarize(rounds: list[dict], metrics: dict) -> dict:
    """The result line; failure messages go to standard error."""
    failures = [msg for r in rounds for msg in r["failures"]]
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    return {"correct": all(r["tables_ok"] for r in rounds),
            "attempted": sum(len(r["op_s"]) for r in rounds),
            "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("full", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.child:
            print(json.dumps(child_main(args)))
            return 0
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        for name in names:
            deadline = monotonic() + DEADLINE_S
            if args.trace:
                result = measure_traced(name, args.seed, deadline)
            else:
                result = measure(name, args.seed, args.seconds, deadline)
            if args.workload == "all":
                result = {"workload": name, **result}
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
