"""The benchmark's three workloads: inputs from a seed, operations, checks.

Each workload is split into rounds, a fixed unit of work whose inputs come
from ``(seed, round)``.  An operation is one call into lagdelta: the CLI's
``main`` in-process, or a library function where no command exists.  Its
check returns ``(ok, evals, message)``, where ``evals`` counts the delta
values the operation's output holds.

Reference deltas recorded from the program (``reference.json``, written
by ``make_reference.py``) cover a fixed pool of inputs; a seed picks which
pool entries each round uses.  The query and gallery points come from the
benchmark's own generator, not the program's, so a change to the
program's random draws cannot change the inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from typing import Callable, NamedTuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Pool definitions; make_reference.py records deltas for exactly these.
AUDIT_NS = "3..6"
AUDIT_COUNT = 16
AUDIT_POOL_SEEDS = tuple(range(100, 140))
QUERY_POOL_SEED = 20261017
QUERY_NS = (5, 6, 7, 8, 9)
QUERY_POINTS_PER_TUPLE = 4

DELTA_RTOL = 1e-10        # ROADMAP gate: |delta - ref| <= 1e-10 (1 + |ref|)
SLACK_FLOOR = -1e-9       # audit soundness threshold on relative slack
DIM3_TOL = 1e-6
GRID_TOL = 5e-3
GRID_RESOLUTION = 24
ROUND_TRIP_SLACK = 1e-9
ROUND_TRIP_DEVIATION = 1e-12
MESH_ROWS = 25            # verify --mesh-out default sample count


class Op(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


def point_json(n: int, rng: np.random.Generator) -> str:
    """Point data in the CLI input schema: c in {-1, 0, 1}, normal h."""
    c = float(rng.integers(-1, 2))
    h = [[a, b, d, float(rng.standard_normal())]
         for a in range(1, n + 1) for b in range(a, n + 1)
         for d in range(b, n + 1)]
    return json.dumps({"n": n, "c": c, "h": h})


def query_pool_point(n: int, tuple_index: int, k: int) -> str:
    return point_json(n, np.random.default_rng(
        [QUERY_POOL_SEED, n, tuple_index, k]))


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _agrees(value: float, ref: float) -> bool:
    return abs(value - ref) <= DELTA_RTOL * (1.0 + abs(ref))


def _exit_ok(result) -> tuple:
    if isinstance(result, BaseException):
        return False, 0, f"raised {result!r}"
    if result != 0:
        return False, 0, f"exit code {result}"
    return True, 0, ""


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Workload:
    """Rounds of operations on inputs drawn from ``(seed, round)``."""

    name = ""
    min_rounds = 1
    round_seconds = 1.0  # a round's length on the reference machine
    latency_per_round = False  # p50/p90 over rounds, not single operations

    def __init__(self, cli, seed: int, workdir: str, reference: dict):
        self.cli = cli  # main is looked up per call, so tracing sees it
        self.seed = seed
        self.workdir = workdir
        self.reference = reference

    def rounds_for(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.round_seconds))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r])

    def prepare(self):
        """Set-up work outside the timed phase."""

    def warm_up(self) -> Op:
        raise NotImplementedError

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError


class Audit(Workload):
    """``lagdelta audit --n 3..6 --count 16`` sweeps over pooled CLI seeds.

    A sweep is one round, short enough that a run holds eight to ten of
    them and its metrics can be medians over rounds.
    """

    name = "audit"
    min_rounds = 8
    round_seconds = 3.6

    def prepare(self):
        ref = self.reference["audit"]
        if (ref["ns"], ref["count"], tuple(ref["seeds"])) != (
                AUDIT_NS, AUDIT_COUNT, AUDIT_POOL_SEEDS):
            raise RuntimeError("reference.json does not match the audit pool")
        self.pairs = {tuple(p) for p in ref["pairs"]}
        self.order = np.random.default_rng(self.seed).permutation(
            AUDIT_POOL_SEEDS)

    def _sweep(self, ns: str, count: int, cli_seed: int, out: str) -> Op:
        argv = ["audit", "--n", ns, "--count", str(count), "--seed",
                str(cli_seed), "--format", "csv", "--out", out]
        return Op(f"audit --n {ns} --count {count} --seed {cli_seed}",
                  lambda: self.cli.main(argv),
                  lambda res: self._check(res, out, cli_seed))

    def warm_up(self) -> Op:
        return self._sweep("3", 4, 0, self.path("warm.csv"))

    def round_ops(self, r: int) -> list[Op]:
        cli_seed = int(self.order[r % len(self.order)])
        return [self._sweep(AUDIT_NS, AUDIT_COUNT, cli_seed,
                            self.path("audit.csv"))]

    def _check(self, result, out: str, cli_seed: int) -> tuple:
        ok, _, msg = _exit_ok(result)
        if not ok:
            return ok, 0, msg
        ref = self.reference["audit"]["deltas"].get(str(cli_seed))
        seen, evals, worst_rel, bad = set(), set(), math.inf, 0
        with open(out) as fh:
            for row in csv.DictReader(fh):
                n, tup = int(row["n"]), row["tuple"]
                seen.add((n, tup, row["variant"]))
                evals.add((n, tup, int(row["sample"])))
                rhs, slack = float(row["rhs"]), float(row["slack"])
                worst_rel = min(worst_rel, slack / (1.0 + abs(rhs)))
                if ref is not None:
                    want = ref[str(n)][tup][int(row["sample"])]
                    bad += not _agrees(float(row["delta"]), want)
        if ref is None:  # warm-up sweep: no reference, exit code only
            return True, len(evals), ""
        if seen != self.pairs:
            return False, len(evals), (f"{len(seen)} pairs, expected "
                                       f"{len(self.pairs)}")
        if worst_rel < SLACK_FLOOR:
            return False, len(evals), f"min relative slack {worst_rel:.3e}"
        if bad:
            return False, len(evals), f"{bad} deltas differ from reference"
        return True, len(evals), ""


class Query(Workload):
    """Single-point ``lagdelta delta --variant auto`` calls at n = 5..9."""

    name = "query"
    min_rounds = 20  # 20 x 5 calls: p90 has at least ten calls beyond it
    round_seconds = 1.45

    def prepare(self):
        ref = self.reference["query"]
        if (ref["pool_seed"], ref["points_per_tuple"]) != (
                QUERY_POOL_SEED, QUERY_POINTS_PER_TUPLE):
            raise RuntimeError("reference.json does not match the query pool")
        digest = hashlib.sha256()
        self.entries = {}
        for entry in ref["entries"]:
            n, ti, k = entry["n"], entry["tuple_index"], entry["k"]
            text = query_pool_point(n, ti, k)
            digest.update(text.encode())
            path = self.path(f"q{n}_{ti}_{k}.json")
            with open(path, "w") as fh:
                fh.write(text)
            self.entries[(n, ti, k)] = (path, entry)
        if digest.hexdigest() != ref["inputs_sha256"]:
            raise RuntimeError("generated query inputs differ from the "
                               "ones the reference was recorded on")
        self.tuple_counts = {n: 1 + max(ti for (m, ti, _) in self.entries
                                        if m == n) for n in QUERY_NS}

    def _call(self, key) -> Op:
        path, entry = self.entries[key]
        out = self.path("query-out.json")
        spec = ",".join(str(p) for p in entry["tuple"])
        argv = ["delta", "--input", path, "--tuple", spec, "--variant",
                "auto", "--out", out]
        return Op(f"delta n={entry['n']} tuple={spec} k={entry['k']}",
                  lambda: self.cli.main(argv),
                  lambda res: self._check(res, out, entry["delta"]))

    def warm_up(self) -> Op:
        return self._call((QUERY_NS[0], 0, 0))

    def round_ops(self, r: int) -> list[Op]:
        # A round is one call at each n.  Tuples are visited in turn, the
        # same for every seed, so that each run covers them evenly; the
        # seed draws the point for each call.
        rng = self.rng(r)
        return [self._call((n, r % self.tuple_counts[n],
                            int(rng.integers(QUERY_POINTS_PER_TUPLE))))
                for n in QUERY_NS]

    @staticmethod
    def _check(result, out: str, want: float) -> tuple:
        ok, _, msg = _exit_ok(result)
        if not ok:
            return ok, 0, msg
        got = _read_json(out)["delta"]
        if not _agrees(got, want):
            return False, 1, f"delta {got!r} != reference {want!r}"
        return True, 1, ""


class Gallery(Workload):
    """``verify`` with mesh export, oracle checks, equality round trips."""

    name = "gallery"
    min_rounds = 3
    round_seconds = 3.0
    # Its operations range from 15 ms to 1 s in fixed clusters, so a
    # percentile over them jumps between clusters; a round is one pass.
    latency_per_round = True
    EXAMPLES = ("exotic-s3", "graph-8.2", "thm-9.2", "thm-9.3")
    ORACLE_CASES = ((3, "2"), (4, "2"), (4, "2,2"), (4, "3"))

    def prepare(self):
        import lagdelta.inequalities as lib
        from lagdelta.delta import DeltaTuple, OptimizerOptions
        V = lib.InequalityVariant
        self.lib = lib  # attributes looked up per call, so tracing sees them
        # the acceptance-6 equality cases and optimizer options
        self.round_trip_cases = (
            (V.OLD, DeltaTuple(5, (2, 2))),
            (V.IMPROVED, DeltaTuple(5, (2,))),
            (V.IMPROVED, DeltaTuple(9, (4, 4))),
            (V.HIGH_A, DeltaTuple(6, (2, 2))),
        )
        self.opts = OptimizerOptions(restarts=8, seed=0)

    def _verify(self, example: str, seed: int) -> Op:
        report, mesh = self.path("verify.json"), self.path("mesh.csv")
        argv = ["verify", example, "--seed", str(seed), "--out", report,
                "--mesh-out", mesh]
        return Op(f"verify {example} --seed {seed}",
                  lambda: self.cli.main(argv),
                  lambda res: self._check_verify(res, report, mesh))

    def _oracle(self, n: int, spec: str, text: str, label: str) -> Op:
        inp, out = self.path(f"oracle-{label}.json"), self.path("oracle.json")
        with open(inp, "w") as fh:
            fh.write(text)
        argv = ["delta", "--input", inp, "--tuple", spec, "--oracle",
                "--grid-resolution", str(GRID_RESOLUTION), "--out", out]
        return Op(f"delta --oracle n={n} tuple={spec} ({label})",
                  lambda: self.cli.main(argv),
                  lambda res: self._check_oracle(res, out, n))

    def _round_trip(self, variant, tup, seed: int) -> Op:
        lib, opts = self.lib, self.opts

        def call():
            data = lib.synthesize_equality_data(tup, variant, lam=1.0,
                                                seed=seed)
            det = lib.detect_equality_structure(data.h, tup, variant,
                                                tol=ROUND_TRIP_DEVIATION,
                                                search=False)
            rep = lib.evaluate(data, variant, tup, opts,
                               eq_tol=ROUND_TRIP_SLACK)
            return det.deviation, rep.slack

        return Op(f"round trip {variant.value} {tup} seed {seed}", call,
                  self._check_round_trip)

    def warm_up(self) -> Op:
        return self._verify("thm-9.2", 0)

    def round_ops(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = [self._verify(ex, int(rng.integers(2**31)))
               for ex in self.EXAMPLES]
        for i, (n, spec) in enumerate(self.ORACLE_CASES):
            ops.append(self._oracle(n, spec, point_json(n, rng), f"r{r}c{i}"))
        synth_seed = int(rng.integers(2**31))
        ops += [self._round_trip(v, t, synth_seed)
                for v, t in self.round_trip_cases]
        return ops

    @staticmethod
    def _check_verify(result, report: str, mesh: str) -> tuple:
        ok, _, msg = _exit_ok(result)
        if not ok:
            return ok, 0, msg
        payload = _read_json(report)
        failing = [c["name"] for c in payload["claims"] if not c["passed"]]
        if not payload["passed"] or failing:
            return False, 0, f"claims failed: {failing}"
        with open(mesh) as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != MESH_ROWS:
            return False, 0, f"{len(rows)} mesh rows"
        if not all(math.isfinite(float(v)) for row in rows for v in row):
            return False, 0, "non-finite mesh value"
        return True, len(rows), ""

    @staticmethod
    def _check_oracle(result, out: str, n: int) -> tuple:
        ok, _, msg = _exit_ok(result)
        if not ok:
            return ok, 0, msg
        payload = _read_json(out)
        key, tol = ("oracle_dim3", DIM3_TOL) if n == 3 else ("oracle_grid",
                                                             GRID_TOL)
        if key not in payload:
            return False, 1, f"no {key} in report"
        diff = abs(payload["delta"] - payload[key])
        if not diff <= tol:
            return False, 1, f"|optimizer - {key}| = {diff:.3e} > {tol:g}"
        return True, 1, ""

    @staticmethod
    def _check_round_trip(result) -> tuple:
        if isinstance(result, BaseException):
            return False, 0, f"raised {result!r}"
        deviation, slack = result
        if not deviation <= ROUND_TRIP_DEVIATION:
            return False, 1, f"pattern deviation {deviation:.3e}"
        if not abs(slack) <= ROUND_TRIP_SLACK:
            return False, 1, f"slack {slack:.3e}"
        return True, 1, ""


WORKLOADS = {w.name: w for w in (Audit, Query, Gallery)}
