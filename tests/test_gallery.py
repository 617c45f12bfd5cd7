from collections import Counter

import numpy as np
import pytest

from lagdelta import gallery, inequalities
from lagdelta.cli import _format_float, main
from lagdelta.delta import OptimizerOptions
from lagdelta.gallery import example_names, mesh_export, run_example
from lagdelta.immersions import induced_data
from lagdelta.inequalities import evaluate


@pytest.mark.parametrize("name", example_names())
@pytest.mark.parametrize("samples", [0, -1])
def test_samples_below_one_rejected(name, samples):
    # with no sample, a claim would report its initial worst value as passed
    with pytest.raises(ValueError, match="samples must be >= 1"):
        run_example(name, samples=samples)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        mesh_export(name, samples=samples)


def count_batches(monkeypatch) -> list:
    """Record the stack size of every delta_invariant_batch call that
    evaluate_batch makes."""
    sizes = []
    batch = inequalities.delta_invariant_batch

    def counted(components, tup, opts=None):
        sizes.append(len(components))
        return batch(components, tup, opts)

    monkeypatch.setattr(inequalities, "delta_invariant_batch", counted)
    return sizes


def test_mesh_export_is_one_batch(monkeypatch):
    sizes = count_batches(monkeypatch)
    _, rows = mesh_export("graph-8.2", 25, seed=0)
    assert len(rows) == 25
    assert sizes == [25]


@pytest.mark.parametrize("name", ["thm-9.2", "thm-9.3"])
def test_family_checks_are_one_batch(monkeypatch, name):
    sizes = count_batches(monkeypatch)
    assert all(c.passed for c in run_example(name, samples=7))
    assert sizes == [7]


@pytest.mark.parametrize("name,seed", [
    ("graph-8.2", 0), ("graph-8.2", 1), ("graph-8.2", 2),
    ("exotic-s3", 0), ("thm-9.2", 0), ("thm-9.3", 0)])
def test_mesh_slack_matches_evaluate(name, seed):
    ex = gallery.GALLERY[name]
    chart, tup = ex.chart(), ex.tup
    opts = OptimizerOptions(restarts=6, seed=seed)
    _, rows = mesh_export(name, 25, seed)
    pts = gallery._mesh_rows(chart, 25, seed)
    for x, row in zip(pts, rows):
        assert row[:len(x)] == list(x)
        slack = evaluate(induced_data(chart, x).data, ex.variant, tup,
                         opts).slack
        if tup.parts == (tup.n - 1,):
            assert row[-1] == slack  # closed form: batching changes no bit
        else:
            assert abs(row[-1] - slack) <= 1e-10 * (1 + abs(slack))


def test_chunked_export_agrees(monkeypatch):
    _, whole = mesh_export("graph-8.2", 25, seed=0)
    sizes = count_batches(monkeypatch)
    # room for 10 rows of 6 restarts at n = 5
    monkeypatch.setattr(inequalities, "MAX_BATCH_ELEMENTS", 10 * 6 * 5 ** 4)
    _, rows = mesh_export("graph-8.2", 25, seed=0)
    assert sizes == [10, 10, 5]
    assert len(rows) == 25
    np.testing.assert_allclose(np.array(rows), np.array(whole),
                               rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("name", example_names())
@pytest.mark.parametrize("seed", [0, 3])
def test_verify_with_mesh_is_one_pass(tmp_path, monkeypatch, name, seed):
    # the bytes of the claims alone and of the mesh export alone
    alone = tmp_path / "alone.json"
    assert main(["verify", name, "--seed", str(seed), "--out",
                 str(alone)]) == 0
    header, rows = mesh_export(name, 25, seed)
    lines = [",".join(header)]
    lines += [",".join(_format_float(v) for v in row) for row in rows]

    extracted = Counter()
    extract = gallery.induced_data

    def counted(chart, pts):
        for x in pts:
            extracted[chart.name, x.tobytes()] += 1
        return extract(chart, pts)

    monkeypatch.setattr(gallery, "induced_data", counted)
    report, mesh = tmp_path / "report.json", tmp_path / "mesh.csv"
    assert main(["verify", name, "--seed", str(seed), "--out", str(report),
                 "--mesh-out", str(mesh)]) == 0
    assert report.read_bytes() == alone.read_bytes()
    assert mesh.read_text() == "\n".join(lines) + "\n"
    assert extracted and set(extracted.values()) == {1}
    # thm-9.2's 25 mesh points are among its 50 claim points, thm-9.3's 20
    # claim points among its 25 mesh points; the other sets are disjoint
    assert len(extracted) == {"exotic-s3": 100 + 25, "graph-8.2": 1 + 25,
                              "thm-9.2": 50, "thm-9.3": 25}[name]


def test_charts_built_once_per_process(monkeypatch):
    built = Counter()

    def counted(fn):
        def build(*args):
            built[fn.__name__] += 1
            return fn(*args)
        return build

    for name in ("clifford_legendrian", "ode_family_integrate"):
        monkeypatch.setattr(gallery, name, counted(getattr(gallery, name)))
    for ex in gallery.GALLERY.values():
        ex.chart.cache_clear()
    gallery._legendrian.cache_clear()
    gallery._cp_profile.cache_clear()
    for _ in range(2):
        gallery.verify_with_mesh("thm-9.3")
    run_example("thm-9.2")
    # one Legendrian torus, and one profile for each of the three steps
    assert built == {"clifford_legendrian": 1, "ode_family_integrate": 3}
