import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lagdelta
from lagdelta import cli
from lagdelta.cli import MAX_BATCH_ELEMENTS, main
from lagdelta.delta import MAX_GRID_RESOLUTION


def write_point(tmp_path, obj, name="data.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestVerify:
    def test_exotic_passes(self, capsys):
        assert main(["verify", "exotic-s3", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "tau-intrinsic" in out

    def test_unknown_example(self, capsys):
        assert main(["verify", "no-such-example"]) == 2

    def test_graph_single_sample(self, capsys):
        assert main(["verify", "graph-8.2", "--samples", "1"]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_exits_2(self, capsys, samples):
        assert main(["verify", "thm-9.2", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --samples")
        assert captured.out == ""  # no claim was run

    @pytest.mark.parametrize("example", ["thm-9.2", "exotic-s3", "graph-8.2"])
    def test_samples_above_limit_exits_2(self, capsys, example):
        assert main(["verify", example, "--samples",
                     "1000000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --samples must be in 1..")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_json_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "exotic-s3", "--samples", "5",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert any(c["name"] == "delta2" for c in payload["claims"])


@pytest.mark.parametrize("command", [
    pytest.param(["verify", "thm-9.2", "--samples", "2"], id="verify"),
    pytest.param(["delta", "--input", None, "--tuple", "2", "--restarts", "4"],
                 id="delta"),
    pytest.param(["audit", "--n", "3", "--count", "2"], id="audit"),
])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    path = write_point(tmp_path, {"n": 4, "c": 0.0, "h": []})
    argv = [path if arg is None else arg for arg in command]
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --seed")
    assert "Traceback" not in captured.err
    assert captured.out == ""  # rejected before any work ran


class TestDelta:
    def test_zero_form_closed_form(self, tmp_path, capsys):
        path = write_point(tmp_path, {"n": 4, "c": 1.0, "h": []})
        assert main(["delta", "--input", path, "--tuple", "2,2",
                     "--restarts", "4"]) == 0
        out = capsys.readouterr().out
        assert "delta(2,2) = 4" in out

    def test_exotic_file(self, tmp_path, capsys):
        lam = 2 / np.sqrt(3)
        path = write_point(tmp_path, {
            "n": 3, "c": 1.0,
            "h": [[1, 1, 1, lam], [1, 2, 2, -lam]]})
        assert main(["delta", "--input", path, "--tuple", "2",
                     "--restarts", "6", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "delta(2) = 2" in out

    def test_invalid_tuple_exits_2(self, tmp_path, capsys):
        path = write_point(tmp_path, {"n": 4, "c": 0.0, "h": []})
        assert main(["delta", "--input", path, "--tuple", "5"]) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ definitely not json")
        assert main(["delta", "--input", str(path), "--tuple", "2"]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    @pytest.mark.parametrize("text,extra", [
        pytest.param('{"n": 3, "c": 0.0, "h": [[1, 1, 1, NaN]]}', [],
                     id="NaN"),
        pytest.param('{"n": 3, "c": 0.0, "h": [[1, 1, 1, 1e308]]}', [],
                     id="1e308"),
        pytest.param('{"n": 4, "c": 0.5, "h": [[1, 1, 2, 1e150], '
                     '[2, 3, 4, 1], [1, 1, 1, 2]]}', ["--oracle"],
                     id="1e150"),
        pytest.param('{"n": 3, "c": 1e308, "h": []}', [], id="c-1e308"),
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, text, extra):
        # NaN is rejected on input; 1e308 is finite but its Gauss products
        # overflow; 1e150 and c = 1e308 give finite curvature components
        # above frames.MAX_COMPONENT, where the optimizer would overflow
        path = tmp_path / "big.json"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["delta", "--input", str(path), "--tuple", "2"]
                        + extra) == 2
        assert not caught  # a warning would reach stderr before the error
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        pytest.param("5", id="top-level-number"),
        pytest.param("[" * 100000 + "]" * 100000, id="deeply-nested"),
        pytest.param('{"n": 3, "c": 0, "h": 5}', id="h-number"),
        pytest.param('{"n": 3, "c": 0, "h": [1]}', id="entry-number"),
        pytest.param('{"n": 3, "c": 0, "h": [[1, 1, 1]]}', id="entry-short"),
        pytest.param('{"n": [3], "c": 0, "h": []}', id="n-array"),
        pytest.param('{"n": 3.7, "c": 0, "h": []}', id="n-float"),
        pytest.param('{"n": true, "c": 0, "h": []}', id="n-bool"),
        pytest.param('{"n": -1, "c": 0, "h": []}', id="n-negative"),
        pytest.param('{"n": 3, "c": null, "h": []}', id="c-null"),
        pytest.param('{"n": 3, "c": true, "h": []}', id="c-bool"),
        pytest.param('{"n": 3, "c": 1%s, "h": []}' % ("0" * 400),
                     id="c-int-beyond-float"),
        pytest.param('{"n": 3, "c": 0, "h": [[1, 1, 1, null]]}',
                     id="value-null"),
        pytest.param('{"n": 3, "c": 0, "h": [[1, 1, 1, "1"]]}',
                     id="value-string"),
        pytest.param('{"n": 3, "c": 0, "h": [[1.5, 1, 1, 1.0]]}',
                     id="index-float"),
        pytest.param('{"n": 3, "c": 0, "h": [[true, 1, 1, 1.0]]}',
                     id="index-bool"),
    ])
    def test_malformed_input_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["delta", "--input", str(path), "--tuple", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""  # rejected before the optimizer ran

    def test_grid_resolution_zero_exits_2(self, tmp_path, capsys):
        path = write_point(tmp_path, {"n": 4, "c": 0.0, "h": []})
        assert main(["delta", "--input", path, "--tuple", "2", "--oracle",
                     "--grid-resolution", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --grid-resolution")
        assert captured.out == ""  # rejected before the optimizer ran

    def test_grid_resolution_above_cap_exits_2(self, tmp_path, capsys):
        path = write_point(tmp_path, {"n": 4, "c": 0.0, "h": []})
        assert main(["delta", "--input", path, "--tuple", "2", "--oracle",
                     "--grid-resolution", str(MAX_GRID_RESOLUTION + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --grid-resolution")
        assert str(MAX_GRID_RESOLUTION) in captured.err
        assert captured.out == ""  # rejected before the optimizer ran

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_restarts_below_one_exits_2(self, tmp_path, capsys, restarts):
        path = write_point(tmp_path, {"n": 4, "c": 0.0, "h": []})
        assert main(["delta", "--input", path, "--tuple", "2",
                     "--restarts", restarts]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --restarts")
        assert captured.out == ""

    @pytest.mark.parametrize("eq_tol", ["nan", "-1", "inf"])
    def test_eq_tol_not_finite_nonnegative_exits_2(self, capsys, eq_tol):
        assert main(["delta", "--example", "exotic-s3", "--tuple", "2",
                     "--variant", "first", "--eq-tol", eq_tol]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --eq-tol")
        assert captured.out == ""

    def test_missing_file_exits_2_in_a_real_process(self, tmp_path):
        # through `sys.exit(main())`, which the in-process tests skip
        src = os.path.dirname(os.path.dirname(lagdelta.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "lagdelta.cli", "delta", "--input",
             str(tmp_path / "missing.json"), "--tuple", "2"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_max_iters_below_one_exits_2(self, tmp_path, capsys):
        path = write_point(tmp_path, {"n": 4, "c": 0.0, "h": []})
        assert main(["delta", "--input", path, "--tuple", "2",
                     "--max-iters", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --max-iters ")
        assert captured.out == ""

    def test_inadmissible_variant_exits_2_before_optimizing(self, capsys):
        assert main(["delta", "--example", "exotic-s3", "--tuple", "2",
                     "--variant", "high-a"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""  # no delta was computed or printed

    def test_restarts_over_budget_exits_2(self, tmp_path, capsys):
        path = write_point(tmp_path, {"n": 12, "c": 0.0, "h": []})
        restarts = MAX_BATCH_ELEMENTS // 12 ** 4 + 1
        assert main(["delta", "--input", path, "--tuple", "2",
                     "--restarts", str(restarts)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "budget" in captured.err
        assert captured.out == ""

    def test_hyperplane_tuple_skips_budget(self, tmp_path):
        # the closed-form (n-1) delta runs no optimizer, so no budget applies
        path = write_point(tmp_path, {"n": 12, "c": 0.0, "h": []})
        out = tmp_path / "report.json"
        restarts = MAX_BATCH_ELEMENTS // 12 ** 4 + 1
        assert main(["delta", "--input", path, "--tuple", "11",
                     "--restarts", str(restarts), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["diagnostics"]["restarts"] == 0

    def test_dimension_above_12_exits_2(self, tmp_path, capsys):
        path = write_point(tmp_path, {"n": 13, "c": 0.0, "h": [[1, 1, 1, 1]]})
        assert main(["delta", "--input", path, "--tuple", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "12" in err

    def test_unknown_example_exits_2(self, capsys):
        assert main(["delta", "--example", "no-such-example",
                     "--tuple", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown example")

    def test_conflicting_sources(self, tmp_path):
        path = write_point(tmp_path, {"n": 3, "c": 0.0, "h": []})
        assert main(["delta", "--input", path, "--example", "exotic-s3",
                     "--tuple", "2"]) == 2
        assert main(["delta", "--tuple", "2"]) == 2

    def test_variant_report_and_csv(self, tmp_path, capsys):
        path = write_point(tmp_path, {"n": 4, "c": 1.0, "h": []})
        out = tmp_path / "report.csv"
        assert main(["delta", "--input", path, "--tuple", "2",
                     "--variant", "auto", "--restarts", "4",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "variant,tuple,n,c,delta,h2,rhs,slack,equality"
        fields = lines[1].split(",")
        assert fields[0] == "improved" and fields[1] == "2"

    def test_seed_gives_byte_identical_reports(self, tmp_path):
        path = write_point(tmp_path, {
            "n": 4, "c": 0.0,
            "h": [[1, 1, 2, 0.7], [2, 3, 4, -0.3], [1, 4, 4, 0.2]]})
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["delta", "--input", path, "--tuple", "2",
                         "--seed", "5", "--restarts", "6",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestAudit:
    def test_small_run_passes(self, capsys):
        assert main(["audit", "--n", "3", "--count", "30", "--seed", "42",
                     "--restarts", "4"]) == 0
        out = capsys.readouterr().out
        assert "min relative slack" in out
        assert "OK" in out

    def test_count_zero_exits_2(self):
        assert main(["audit", "--n", "3", "--count", "0"]) == 2

    @pytest.mark.parametrize("spec", ["13", "3..13"])
    def test_n_above_12_exits_2(self, capsys, spec):
        assert main(["audit", "--n", spec, "--count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --n") and "3..12" in captured.err
        assert captured.out == ""  # rejected before any sweep ran

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_restarts_below_one_exits_2(self, capsys, restarts):
        assert main(["audit", "--n", "3", "--count", "5",
                     "--restarts", restarts]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --restarts")
        assert captured.out == ""

    @pytest.mark.parametrize("spec,count,restarts", [
        ("12", MAX_BATCH_ELEMENTS // (6 * 12 ** 4) + 1, "6"),
        ("3..12", 1, str(MAX_BATCH_ELEMENTS // 12 ** 4 + 1)),
    ])
    def test_size_over_budget_exits_2(self, capsys, spec, count, restarts):
        assert main(["audit", "--n", spec, "--count", str(count),
                     "--restarts", restarts]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "budget" in captured.err
        assert captured.out == ""  # rejected before any sweep ran

    @pytest.mark.parametrize("extra", [[], ["--variants", "old"]])
    def test_curvature_stack_over_budget_exits_2(self, capsys, extra):
        # no optimizer runs at n = 3, but the curvature stack is still built
        assert main(["audit", "--n", "3", "--count", "1000000000000000"]
                    + extra) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: count * n**4 = ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_closed_form_dimension_skips_budget(self, capsys):
        # every tuple at n = 3 is (n-1): no optimizer runs, no budget applies
        assert main(["audit", "--n", "3", "--count", "1000",
                     "--restarts", "20000"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_variant_exits_2(self):
        assert main(["audit", "--n", "3", "--count", "5",
                     "--variants", "bogus"]) == 2

    def test_variant_subset_and_csv(self, tmp_path):
        out = tmp_path / "audit.csv"
        assert main(["audit", "--n", "4", "--count", "10", "--seed", "1",
                     "--restarts", "4", "--variants", "old,improved",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("sample,variant,tuple,n,c,delta,h2,rhs,slack,"
                            "equality")
        body = [line.split(",") for line in lines[1:]]
        assert all(row[1] in ("old", "improved") for row in body)
        # one row per (sample, variant, tuple): 10 samples x 5 pairs at n=4
        # (old on all three tuples, improved on (2) and (3))
        assert len(body) == 50

    def test_mesh_export(self, tmp_path):
        out = tmp_path / "mesh.csv"
        assert main(["verify", "thm-9.3", "--samples", "6",
                     "--mesh-out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("x0,") and "tau" in lines[0]
        assert len(lines) == 7  # header + 6 samples
        # the family attains its bound: exported slacks are tiny
        slack_col = lines[0].split(",").index("slack_hyperplane-cp")
        assert all(abs(float(line.split(",")[slack_col])) < 1e-3
                   for line in lines[1:])

    def test_usage_error_exit_code(self):
        assert main(["audit", "--count", "5"]) == 2  # missing --n


def test_cli_import_loads_no_scipy():
    # a fresh process, so no other test's imports count
    src = os.path.dirname(os.path.dirname(lagdelta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import lagdelta.cli, sys; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_parser_built_once_per_process(monkeypatch, capsys):
    # a fresh cache, then calls that fail and succeed in turn: one parser
    # serves them all, and an error leaves nothing behind
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    try:
        assert main(["audit", "--count", "5"]) == 2
        assert main(["audit", "--n", "3", "--count", "2",
                     "--restarts", "2"]) == 0
        assert main(["verify", "no-such-example"]) == 2
        assert main(["audit", "--n", "3", "--count", "2",
                     "--restarts", "2"]) == 0
    finally:
        cli._build_parser.cache_clear()
    assert built == ["lagdelta", "lagdelta verify", "lagdelta delta",
                     "lagdelta audit"]  # the parser and its subparsers
