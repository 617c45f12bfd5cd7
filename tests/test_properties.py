"""Property tests: the JSON round trip, the CLI's exit-code contract and
the rotation invariance of equality detection and of delta(n-1).

Derandomized, so every run checks the same examples."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lagdelta.cli import LIMITS, main
from lagdelta.cubic import (LagrangianPointData, cubic_triples,
                            gauss_curvature, point_data_from_json,
                            point_data_to_json, random_cubic_form,
                            rotate_cubic, validate_cubic)
from lagdelta.delta import DeltaTuple, delta_invariant, enumerate_tuples
from lagdelta.frames import rotate_tensor
from lagdelta.inequalities import (InequalityVariant as V,
                                   admissible_variants,
                                   detect_equality_structure,
                                   synthesize_equality_data)

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def point_data(draw):
    n = draw(st.integers(3, 5))
    triples = [tuple(t) for t in (cubic_triples(n) + 1).tolist()]
    chosen = draw(st.lists(st.sampled_from(triples), unique=True))
    entries = [(*t, draw(finite)) for t in chosen]
    return LagrangianPointData(n, draw(finite), validate_cubic(entries, n))


@PROPERTY
@given(point_data())
def test_json_round_trip_is_exact(data):
    back = point_data_from_json(point_data_to_json(data))
    assert back.n == data.n and back.c == data.c
    assert back.h.tobytes() == data.h.tobytes()


json_leaf = (st.none() | st.booleans() | st.integers(-3, 14) | st.floats()
             | st.text(max_size=2))
json_value = st.recursive(
    json_leaf, lambda inner: (st.lists(inner, max_size=5)
                              | st.dictionaries(st.text(max_size=2), inner,
                                                max_size=3)),
    max_leaves=12)


@st.composite
def delta_input(draw):
    """Point data near the schema: well-formed, or with one part replaced
    by an arbitrary JSON value."""
    n = draw(st.integers(1, 13))
    index = st.integers(0, n + 1)
    entry = st.tuples(index, index, index, st.floats()).map(list)
    obj = {"n": n, "c": draw(st.floats()),
           "h": draw(st.lists(entry, max_size=4))}
    part = draw(st.sampled_from(["none", "n", "c", "h", "entry", "object"]))
    if part == "object":
        return draw(json_value)
    if part == "entry" and obj["h"]:
        obj["h"][0][draw(st.integers(0, 3))] = draw(json_value)
    elif part in obj:
        obj[part] = draw(json_value)
    return obj


@PROPERTY
@given(delta_input())
def test_delta_input_exits_0_or_2(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "point.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(obj))
        rc = main(["delta", "--input", path, "--tuple", "2",
                   "--restarts", "1", "--max-iters", "5"])
    assert rc in (0, 2)


# A command line for each command, and the commands taking each option of
# the limits table; an entry missing here fails the test below.
COMMANDS = {
    "verify": ["verify", "thm-9.2"],
    "delta": ["delta", "--example", "exotic-s3", "--tuple", "2"],
    "audit": ["audit", "--n", "3", "--count", "1"],
}
TAKES = {
    "samples": ["verify"],
    "count": ["audit"],
    "restarts": ["delta", "audit"],
    "max_iters": ["delta"],
    "grid_resolution": ["delta"],
    "seed": ["verify", "delta", "audit"],
    "eq_tol": ["delta"],
}


@st.composite
def out_of_range(draw):
    """A command line with one option of the limits table out of range."""
    name = draw(st.sampled_from(sorted(LIMITS)))
    low, high, _ = LIMITS[name]
    if isinstance(low, float):
        value = draw(st.sampled_from([math.nan, math.inf])
                     | st.floats().filter(lambda v: not low <= v <= high))
    else:
        outside = st.integers(max_value=low - 1)
        if high != math.inf:
            outside |= st.integers(min_value=high + 1)
        value = draw(outside)
    flag = "--" + name.replace("_", "-")
    command = COMMANDS[draw(st.sampled_from(TAKES[name]))]
    return flag, command + [f"{flag}={value!r}"]


@PROPERTY
@given(out_of_range())
def test_out_of_range_option_exits_2(case):
    flag, argv = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 2
    assert err.getvalue().startswith(f"error: {flag} ")
    assert err.getvalue().count("\n") == 1
    assert out.getvalue() == ""


@st.composite
def block_rotation_case(draw):
    """A tuple at n <= 7, a variant with an equality structure, a seed,
    and an orthogonal Q acting within each block and within the
    complement, of the drawn determinant sign."""
    n = draw(st.integers(3, 7))
    tup = draw(st.sampled_from(enumerate_tuples(n)))
    variant = draw(st.sampled_from([v for v in admissible_variants(tup)
                                    if v != V.OPREA]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    Q = np.zeros((n, n))
    for group in tup.blocks() + (tuple(range(tup.N, n)),):
        if group:
            Q[np.ix_(group, group)] = np.linalg.qr(
                rng.standard_normal((len(group), len(group))))[0]
    if (np.linalg.det(Q) < 0) != draw(st.booleans()):
        Q[:, 0] *= -1
    return tup, variant, seed, Q


@PROPERTY
@given(block_rotation_case(), st.floats(-2.0, 2.0))
def test_rotated_equality_pattern_passes(case, lam):
    tup, variant, seed, Q = case
    data = synthesize_equality_data(tup, variant, lam=lam, seed=seed)
    rep = detect_equality_structure(rotate_cubic(data.h, Q), tup, variant,
                                    tol=1e-12)
    assert rep.passed, rep.deviation


@PROPERTY
@given(block_rotation_case())
def test_deviation_is_rotation_invariant(case):
    tup, variant, seed, Q = case
    h = random_cubic_form(tup.n, np.random.default_rng(seed))
    dev = detect_equality_structure(h, tup, variant).deviation
    rotated = detect_equality_structure(h, tup, variant, frame=Q).deviation
    assert abs(rotated - dev) <= 1e-12 * (1.0 + dev)


@PROPERTY
@given(st.integers(3, 8), st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0))
def test_hyperplane_delta_is_rotation_invariant(n, seed, c):
    rng = np.random.default_rng(seed)
    R = gauss_curvature(LagrangianPointData(n, c, random_cubic_form(n, rng)))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    tup = DeltaTuple(n, (n - 1,))
    value, _, _ = delta_invariant(R, tup)
    rotated, _, _ = delta_invariant(rotate_tensor(R, Q), tup)
    assert abs(rotated - value) <= 1e-10 * (1.0 + abs(value))
