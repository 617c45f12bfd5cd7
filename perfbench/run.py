"""Fixed-seed benchmark of lagdelta: audit, query and gallery workloads.

    python3 perfbench/run.py --workload {audit,query,gallery} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout: the program is imported from its ``src/``.  One
closed-loop caller runs a fixed number of rounds, sized so that a run takes
about ``S`` seconds on the reference machine, and checks every output.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` each round runs twice, untraced
and traced, and the JSON holds the per-layer metrics and the tracing
overhead; the spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# BLAS threads are fixed before numpy loads, so every run uses the same.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 3
SETUP_TIMEOUT = 60.0  # seconds a set-up process may take
RUN_CAP = 1.25        # a run ends within RUN_CAP x --seconds (see run_rounds)
COVERAGE_FLOOR = 0.9  # share of traced time that top-level spans must cover

# (module.function) names reported per layer in a traced run.
LAYER_FUNCTIONS = (
    "cli.main",
    "delta.delta_invariant_batch", "delta.delta_invariant",
    "delta.oracle_delta_grid", "delta.oracle_delta_dim3",
    "frames.pair_curvature_operator",
    "cubic.random_cubic_form", "cubic.gauss_curvature",
    "cubic.mean_curvature", "cubic.rotate_cubic", "cubic.tau_from_cubic",
    "inequalities.soundness_audit", "inequalities.evaluate",
    "inequalities.detect_equality_structure",
    "inequalities.synthesize_equality_data",
    "fields.compatibility_report",
    "immersions.induced_data_flat", "immersions.induced_data_horizontal",
    "immersions.ode_family_integrate",
    "numdiff.second_derivatives", "numdiff.jacobian",
    "gallery.run_example", "gallery.mesh_export",
)
DIAGNOSTIC_COUNTS = ("delta.iterations", "delta.assignment_rounds",
                     "delta.unconverged", "delta.restarts_converged",
                     "delta.restarts_attempted")


def import_program():
    """lagdelta's CLI module from this checkout's src/; exits if absent."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import lagdelta.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import lagdelta from {src}: {exc}")
    if not os.path.abspath(lagdelta.cli.__file__).startswith(src + os.sep):
        sys.exit(f"error: lagdelta was imported from outside {src}")
    return lagdelta.cli


def environment_record(args) -> dict:
    import numpy as np
    import scipy

    record = {"nproc": os.cpu_count(), "cpu": platform.processor(),
              "caches": {}, "python": platform.python_version(),
              "numpy": np.__version__, "scipy": scipy.__version__,
              "openblas": None, "blas_threads": int(BLAS_THREADS),
              "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu"] = line.split(":", 1)[1].strip()
                    break
        cache_dir = "/sys/devices/system/cpu/cpu0/cache"
        for entry in sorted(os.listdir(cache_dir)):
            if entry.startswith("index"):
                fields = {}
                for field in ("level", "type", "size"):
                    with open(os.path.join(cache_dir, entry, field)) as fh:
                        fields[field] = fh.read().strip()
                record["caches"][f"L{fields['level']} {fields['type']}"] = \
                    fields["size"]
    except OSError:
        pass  # not Linux: keep what platform reported
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return record


def build_workload(args, workdir: str):
    import workloads

    cli = import_program()
    workload = workloads.WORKLOADS[args.workload](
        cli, args.seed, workdir, workloads.load_reference())
    workload.prepare()
    return workload


def run_op(op) -> tuple:
    """(latency seconds, ok, evals, message) of one operation."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
            traceback.print_exc(file=sys.__stderr__)
        latency = time.perf_counter() - start
    try:
        ok, evals, message = op.check(result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ok, evals, message = False, 0, f"unreadable output: {exc!r}"
    return latency, ok, evals, message


class Tally:
    """Outcomes of the operations of one kind of pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.round_seconds: list[float] = []
        self.round_rates: list[float] = []  # delta values per second
        self.attempted = 0
        self.failed = 0

    def run_round(self, ops, before_op=None):
        busy, round_evals = 0.0, 0
        for op in ops:
            if before_op is not None:
                before_op()
            latency, ok, evals, message = run_op(op)
            self.attempted += 1
            self.latencies.append(latency)
            round_evals += evals
            busy += latency
            if not ok:
                self.failed += 1
                print(f"FAILED {op.label}: {message}", file=sys.stderr)
        self.round_seconds.append(busy)
        self.round_rates.append(round_evals / busy)

    # Medians over rounds, so that a burst of load from elsewhere on the
    # machine moves a few rounds and not the result.
    def median_round(self) -> float:
        return statistics.median(self.round_seconds)

    def median_rate(self) -> float:
        return statistics.median(self.round_rates)


def warm_up(workload) -> Tally:
    """Run the warm-up operation; its outcome counts, its time does not."""
    tally = Tally()
    tally.run_round([workload.warm_up()])
    return tally


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def run_rounds(seconds: float, rounds: int, min_rounds: int,
               one_round) -> int:
    """Run ``rounds`` rounds; returns how many ran.

    Every run of a seed does the same work, so two versions of the program
    are timed on the same inputs.  On a slower machine or program, a round
    beyond ``min_rounds`` starts only if, at the mean round length so far,
    the run would still end within ``RUN_CAP`` times ``seconds``.
    """
    start = time.perf_counter()
    for r in range(rounds):
        elapsed = time.perf_counter() - start
        if r >= min_rounds and elapsed * (r + 1) / r > RUN_CAP * seconds:
            return r
        one_round(r)
    return rounds


def measure_setup(args) -> list[float]:
    """Wall seconds from process start to the end of the warm-up operation,
    for fresh processes that do the set-up only."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT)
        ready = proc.stdout.readline() if readable else ""
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=SETUP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        if proc.returncode != 0 or ready.strip() != "ready":
            sys.exit(f"error: set-up run failed ({proc.returncode}): {err}")
        samples.append(elapsed)
    return samples


def end_to_end(args, workload, record: dict) -> tuple:
    setup = measure_setup(args)
    warm = warm_up(workload)
    tally = Tally()
    run_rounds(args.seconds, workload.rounds_for(args.seconds),
               workload.min_rounds,
               lambda r: tally.run_round(workload.round_ops(r)))
    latencies = (tally.round_seconds if workload.latency_per_round
                 else tally.latencies)
    attempted = warm.attempted + tally.attempted
    failed = warm.failed + tally.failed
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (tally.median_round(), "s"),
        "evals_per_s": (tally.median_rate(), "1/s"),
        "p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "p90_ms": (1e3 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {"failed_frac": (failed / attempted, "ratio"),
             "operations": (len(tally.latencies), "count"),
             "latency_samples": (len(latencies), "count"),
             "rounds": (len(tally.round_seconds), "count"),
             "round_seconds": ([round(t, 4) for t in tally.round_seconds],
                               "s"),
             "setup_samples_s": (setup, "s")}
    return metrics, notes, attempted, failed, True


def traced(args, workload, record: dict) -> tuple:
    from tracing import Tracer

    tracer = Tracer()
    warm = warm_up(workload)
    plain, spanned = Tally(), Tally()
    op_round: list[int] = []  # round of each traced operation, by op id
    pass_walls: list[float] = []
    counts: dict = {}

    def traced_pass(ops, r):
        ids = iter(range(len(op_round), len(op_round) + len(ops)))
        op_round.extend([r] * len(ops))
        tracer.counts.clear()
        tracer.install()
        start = time.perf_counter()
        try:
            spanned.run_round(ops, lambda: setattr(tracer, "op", next(ids)))
        finally:
            pass_walls.append(time.perf_counter() - start)
            tracer.uninstall()
        if r == 0:
            counts.update(tracer.counts)

    def one_round(r):
        ops = workload.round_ops(r)
        # alternate which pass goes first, so neither gains from the order
        if r % 2 == 0:
            plain.run_round(ops)
            traced_pass(ops, r)
        else:
            traced_pass(ops, r)
            plain.run_round(ops)

    # each round runs twice, so half the rounds keep the run near --seconds
    rounds = run_rounds(args.seconds,
                        max(1, workload.rounds_for(args.seconds) // 2), 1,
                        one_round)
    every_op = set(range(len(op_round)))
    totals = tracer.layer_totals(every_op)
    # counts come from round 0 alone, so they repeat exactly for a seed
    firsts = tracer.layer_totals({i for i, r in enumerate(op_round) if r == 0})
    metrics = {}
    for name in LAYER_FUNCTIONS:
        _, total, own = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (firsts.get(name, (0,))[0], "count")
        metrics[f"{name}.s"] = (total / rounds, "s")
        metrics[f"{name}.self_s"] = (own / rounds, "s")
    for name in DIAGNOSTIC_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    restarts = counts.get("delta.restarts_attempted", 0)
    metrics["delta.restarts_converged_ratio"] = (
        counts.get("delta.restarts_converged", 0) / restarts
        if restarts else 0.0, "ratio")
    coverage = tracer.top_level_seconds(every_op) / sum(pass_walls)
    metrics.update({
        "trace.wall_s": (spanned.median_round(), "s"),
        "trace.untraced_wall_s": (plain.median_round(), "s"),
        "trace.overhead_s": (spanned.median_round() - plain.median_round(),
                             "s"),
        "trace.top_level_coverage": (coverage, "ratio"),
        "trace.spans_per_round": (len(tracer.spans) / rounds, "count"),
    })
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path, {"record": record, "rounds": rounds,
                        "op_round": op_round,
                        "metrics": {k: v[0] for k, v in metrics.items()}})
    if coverage < COVERAGE_FLOOR:
        print(f"top-level spans cover {coverage:.3f} of the traced passes, "
              f"below {COVERAGE_FLOOR}", file=sys.stderr)
    notes = {"rounds": (rounds, "count"), "trace_file": (path, "")}
    attempted = warm.attempted + plain.attempted + spanned.attempted
    failed = warm.failed + plain.failed + spanned.failed
    return metrics, notes, attempted, failed, coverage >= COVERAGE_FLOOR


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("audit", "query", "gallery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, warm up, print 'ready' and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        workload = build_workload(args, workdir)
        if args.setup_only:
            failed = warm_up(workload).failed
            print("ready", flush=True)
            return 1 if failed else 0
        record = environment_record(args)
        run_mode = traced if args.trace else end_to_end
        metrics, notes, attempted, failed, trace_ok = run_mode(
            args, workload, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only when no other run is using it

    print("record: " + json.dumps(record))
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{name:44s} {value!s:>24} {unit}")
    print(json.dumps({
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
