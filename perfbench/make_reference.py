"""Record the reference deltas the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Runs every pooled audit sweep and query input once through the CLI and
writes ``perfbench/reference.json``.  Re-record only when a change to the
program is meant to change its deltas; the benchmark's checks exist to
catch the changes that are not.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile

import run  # fixes BLAS threads and puts the checkout's src/ on sys.path
import workloads as wl


def _quiet(main, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"lagdelta {' '.join(argv)} exited {rc}")


def record_audit(main, tmp: str) -> dict:
    deltas, pairs = {}, set()
    out = os.path.join(tmp, "audit.csv")
    for seed in wl.AUDIT_POOL_SEEDS:
        _quiet(main, ["audit", "--n", wl.AUDIT_NS, "--count",
                      str(wl.AUDIT_COUNT), "--seed", str(seed),
                      "--format", "csv", "--out", out])
        per_seed: dict = {}
        with open(out) as fh:
            for row in csv.DictReader(fh):
                pairs.add((int(row["n"]), row["tuple"], row["variant"]))
                col = per_seed.setdefault(row["n"], {}).setdefault(
                    row["tuple"], [None] * wl.AUDIT_COUNT)
                col[int(row["sample"])] = float(row["delta"])
        deltas[str(seed)] = per_seed
        print(f"audit seed {seed} recorded", file=sys.stderr)
    return {"ns": wl.AUDIT_NS, "count": wl.AUDIT_COUNT,
            "seeds": list(wl.AUDIT_POOL_SEEDS), "pairs": sorted(pairs),
            "deltas": deltas}


def record_query(main, tmp: str) -> dict:
    from lagdelta.delta import enumerate_tuples
    entries, digest = [], hashlib.sha256()
    inp, out = os.path.join(tmp, "p.json"), os.path.join(tmp, "o.json")
    for n in wl.QUERY_NS:
        for ti, tup in enumerate(enumerate_tuples(n)):
            for k in range(wl.QUERY_POINTS_PER_TUPLE):
                text = wl.query_pool_point(n, ti, k)
                digest.update(text.encode())
                with open(inp, "w") as fh:
                    fh.write(text)
                spec = ",".join(str(p) for p in tup.parts)
                _quiet(main, ["delta", "--input", inp, "--tuple", spec,
                              "--variant", "auto", "--out", out])
                with open(out) as fh:
                    delta = json.load(fh)["delta"]
                entries.append({"n": n, "tuple_index": ti, "k": k,
                                "tuple": list(tup.parts), "delta": delta})
        print(f"query n={n} recorded", file=sys.stderr)
    return {"pool_seed": wl.QUERY_POOL_SEED,
            "points_per_tuple": wl.QUERY_POINTS_PER_TUPLE,
            "inputs_sha256": digest.hexdigest(), "entries": entries}


def main():
    cli_main = run.import_program().main
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        reference = {"audit": record_audit(cli_main, tmp),
                     "query": record_query(cli_main, tmp)}
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
