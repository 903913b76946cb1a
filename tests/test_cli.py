import ast
import decimal
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wcc
from wcc import cli
from wcc import lattice as lt
from wcc import volume as vol
from wcc.cli import dispatch
from wcc.errors import NumericError

from volume_reference import box_volume_quadrature


def json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, default=cli._json_default)


@pytest.fixture(autouse=True)
def emit_is_json_dumps(monkeypatch):
    """Every document a test here emits must be json.dumps's bytes."""
    dumps = cli._dumps

    def checked(node, pad=""):
        text = dumps(node, pad)
        if not pad:
            assert text == json_dumps(node)
        return text

    monkeypatch.setattr(cli, "_dumps", checked)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestProject:
    def test_unipotent(self, capsys):
        code, doc = run_json(
            capsys, "project", "--group", "sl2", "--matrix", "[[1,1],[0,1]]"
        )
        assert code == 0
        assert doc["result"]["jordan"] == [0.0, 0.0]
        assert doc["result"]["loxodromic"] is False
        assert "config_hash" in doc

    def test_integer_d3_takes_two_svds(self, capsys, linalg_calls):
        # the two compounds of the exact Cartan logs; no frames, which the output does not carry
        code, doc = run_json(capsys, "project", "--group", "sl3", "--matrix", "[[2,1,0],[1,1,0],[0,0,1]]")
        assert code == 0
        assert [call for call in linalg_calls if call[0] == "svd"] == [("svd", (1, 3, 3))] * 2

    def test_dimension_mismatch(self, capsys):
        code, out = run(capsys, "project", "--group", "sl3", "--matrix", "[[1,1],[0,1]]")
        assert code == 2

    def test_bad_matrix(self, capsys):
        code, _ = run(capsys, "project", "--group", "sl2", "--matrix", "[[2,0],[0,1]]")
        assert code == 2


class TestLoxo:
    def test_unpinned_dimension_exit_code(self, capsys):
        matrix = "[[2,1,0,0],[1,1,0,0],[0,0,2,1],[0,0,1,1]]"
        code, out = run(capsys, "loxo", "--matrix", matrix, "--r", "0.4", "--eps", "0.01")
        assert code == 2
        assert out == ""


class TestDimensionMismatch:
    @pytest.mark.parametrize("argv", [
        "flag --group sl3 --op dist --xi [[1,0],[0,1]]",
        "flag --group sl3 --op delta --xi [[1,0],[0,1]]",
        "flag --group sl3 --op gromov --xi [[1,0],[0,1]]",
        "flag --group sl2 --op dist --eta [[1,0,0],[0,1,0],[0,0,1]]",
        "flag --group sl3 --op hopf --matrix [[2,1],[1,1]]",
        "loxo --matrix [[2,1],[1,1]] --base [[1,0,0],[0,1,0],[0,0,1]] --r 0.4 --eps 0.01",
    ])
    def test_exit_code(self, capsys, argv):
        code = dispatch(argv.split())
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "does not match" in captured.err


class TestVolume:
    def test_ball_value(self, capsys):
        code, doc = run_json(
            capsys, "volume", "--group", "sl2", "--domain", "ball", "--t", "1"
        )
        assert code == 0
        expect = math.sqrt(2.0) * (math.cosh(1.0 / math.sqrt(2.0)) - 1.0)
        assert doc["result"]["value"] == pytest.approx(expect, rel=1e-9)
        assert doc["result"]["delta0"] == pytest.approx(1.0 / math.sqrt(2.0))
        assert 0.0 <= doc["result"]["error"] < 1e-9

    def test_box_payload(self, capsys):
        code, doc = run_json(
            capsys, "volume", "--group", "sl3", "--domain", "box", "--t", "4",
            "--edges", "1,1",
        )
        assert code == 0
        assert doc["result"]["delta_P"] == pytest.approx(4.0)
        assert "C_G" in doc["result"]

    def test_thin_box_value(self, capsys):
        # the signed-exponential expansion printed 9.712e-17 here, 68% high
        from volume_reference import decimal_box_log_volume

        code, doc = run_json(
            capsys, "volume", "--group", "sl3", "--domain", "box", "--t", "0.01",
            "--edges", "1,0.001",
        )
        assert code == 0
        exact = float(decimal_box_log_volume(3, 0.01, (1.0, 0.001)).exp())
        assert abs(doc["result"]["value"] / exact - 1.0) <= 1e-12
        assert 0.0 < doc["result"]["error"] <= 1e-12 * abs(doc["result"]["value_log"])

    def test_slab_ratio(self, capsys):
        code, doc = run_json(
            capsys, "volume", "--group", "sl2", "--domain", "ball", "--t", "6",
            "--slab", "1.0",
        )
        assert code == 0
        assert 0.0 < doc["result"]["ratio_to_volume"] < 1.0

    def test_parameter_error_exit_code(self, capsys):
        code, _ = run(capsys, "volume", "--group", "sl2", "--t", "6", "--slab", "7")
        assert code == 2

    def test_box_with_a_margin_is_the_filtered_box(self, capsys):
        # the unfiltered closed form is 17009.904115160243; the quadrature printed
        # 16992.550875559107, and 50 digits give 16992.5508755588726
        from volume_reference import decimal_log_volume, exact_rectangles

        code, doc = run_json(capsys, "volume", "--group", "sl3", "--domain", "box", "--t", "3",
                             "--edges", "1,1", "--regular-margin", "0.5")
        assert code == 0
        domain = vol.Domain("box", 3.0, (1.0, 1.0), regular_margin=0.5)
        want = vol.domain_volume(vol.root_system(3), domain)
        assert doc["result"]["value"] == want.value == 16992.550875558896
        assert doc["result"]["method"] == "closed_form"
        exact = decimal_log_volume(3, exact_rectangles(3, domain))
        assert float(abs(decimal.Decimal(doc["result"]["value_log"]) - exact)) <= doc["result"]["error"]

    @pytest.mark.parametrize("argv, message", [
        (["--domain", "ball", "--t", "8", "--slab", "0.8", "--regular-margin", "2"],
         "mutually exclusive"),
        (["--domain", "ball", "--t", "8", "--edges", "1,1"], "edges need a box domain"),
    ])
    def test_refuses_options_it_would_ignore(self, capsys, argv, message):
        code = dispatch(["volume", "--group", "sl3", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and message in captured.err


class TestEnumerate:
    def test_writes_cache_and_angular_reads_it(self, capsys, tmp_path):
        out = tmp_path / "census"
        code, doc = run_json(
            capsys, "enumerate", "--group", "sl2", "--t", "7", "--out", str(out),
            "--shards", "3",
        )
        assert code == 0
        assert doc["result"]["total"] > 100
        assert (out / "manifest.json").exists()

        code, doc2 = run_json(capsys, "angular", "--cache", str(out))
        assert code == 0
        assert doc2["result"]["ks_plus"] < 0.1

    def test_feasibility_exit_code(self, capsys):
        code, _ = run(capsys, "enumerate", "--group", "sl2", "--t", "40")
        assert code == 3

    def test_refuses_edges_without_a_box(self, capsys, tmp_path):
        # it enumerated the ball and wrote "edges": [1.0] into its config and manifest
        code = dispatch(["enumerate", "--group", "sl2", "--t", "5", "--edges", "1",
                         "--out", str(tmp_path / "census")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "edges need a box domain" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("damage", ["truncate", "drop_key", "drop_shard"])
    def test_damaged_cache_exit_code(self, capsys, tmp_path, damage):
        out = tmp_path / "census"
        assert run(capsys, "enumerate", "--group", "sl2", "--t", "5", "--out", str(out),
                   "--shards", "2")[0] == 0
        manifest = out / "manifest.json"
        if damage == "truncate":
            manifest.write_bytes(manifest.read_bytes()[:40])
        elif damage == "drop_key":
            doc = json.loads(manifest.read_text())
            del doc["counts"]
            manifest.write_text(json.dumps(doc))
        else:
            (out / "shard_0001.bin").unlink()
        assert run(capsys, "angular", "--cache", str(out))[0] == 2

    def test_refuses_an_out_directory_holding_other_files(self, capsys, tmp_path):
        out = tmp_path / "census"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")
        code, _ = run(capsys, "enumerate", "--group", "sl2", "--t", "5", "--out", str(out))
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "keep me"
        assert [p.name for p in tmp_path.iterdir()] == ["census"]

    def test_census_commands_build_no_element_record(self, capsys, tmp_path, monkeypatch):
        built, init = [], lt.ElementRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(lt.ElementRecord, "__init__", counting_init)
        out = str(tmp_path / "census")
        for argv in (["enumerate", "--group", "sl2", "--t", "7", "--shards", "3", "--out", out],
                     ["angular", "--cache", out],
                     ["angular", "--group", "sl2", "--sweep", "7,5,6"]):
            assert run(capsys, *argv)[0] == 0
        assert built == []
        lt.load_cache(out)[2][0]  # the count does see a record built on demand
        assert len(built) == 1

    def test_determinism_byte_identical(self, capsys, tmp_path):
        code1, out1 = run(
            capsys, "enumerate", "--group", "sl2", "--t", "5",
            "--out", str(tmp_path / "a"),
        )
        code2, out2 = run(
            capsys, "enumerate", "--group", "sl2", "--t", "5",
            "--out", str(tmp_path / "b"),
        )
        assert code1 == code2 == 0
        assert out1.replace(str(tmp_path / "a"), "X") == out2.replace(str(tmp_path / "b"), "X")
        assert (tmp_path / "a" / "shard_0000.bin").read_bytes() == (
            tmp_path / "b" / "shard_0000.bin"
        ).read_bytes()


class TestSurveyCommands:
    def test_tori_census(self, capsys, tmp_path):
        code, doc = run_json(capsys, "tori", "--T", "9", "--out", str(tmp_path / "x"))
        assert code == 0
        assert doc["result"]["regroup_exact"] is True
        csv_path = tmp_path / "x_tori.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "trace,period_volume,multiplicity"

    def test_growth(self, capsys):
        code, doc = run_json(capsys, "growth", "--T-grid", "10,11,12,13")
        assert code == 0
        assert doc["result"]["monotone"] is True

    def test_angular_sweep_csv(self, capsys, tmp_path):
        code, doc = run_json(
            capsys, "angular", "--group", "sl2", "--sweep", "7,8",
            "--out", str(tmp_path / "s"),
        )
        assert code == 0
        assert (tmp_path / "s_angular_sweep.csv").exists()

    def test_trace_bound_listing(self, capsys):
        code, doc = run_json(capsys, "tori", "--trace-bound", "10")
        assert code == 0
        assert doc["result"]["count"] == 23

    @pytest.mark.parametrize("argv, digest", [
        ("tori --trace-bound 40", "733ed1c4e179f944"),
        ("tori --T 12", "bfa6a478b17f772c"),
        ("tori --T-grid 10,11,12,13,14", "f734998bfc883b51"),
        ("growth --T-grid 10,11,12,13,14,15,16", "7b217384ddbb6cdd"),
        ("volume --group sl3 --domain ball --t 8", "6be581f984034c2a"),
        ("volume --group sl3 --domain ball --t 8 --slab 0.8", "8ce5395947fc17fc"),
        ("volume --group sl3 --domain ball --t 8 --regular-margin 2", "c8d40229f676e476"),
        ("volume --group sl3 --domain box --t 5 --edges 1,1", "80731308c04dba01"),
        ("volume --group sl2 --domain ball --t 4", "8ccd6be7ba5ad036"),
    ])
    def test_stdout_pinned(self, capsys, argv, digest):
        # sha256 prefixes recorded from the per-form cycle walk that the table
        # of reduced forms replaced: the growth commands print the same bytes;
        # the d = 3 ball digests from the strip rule in the wall distance
        # (the slab as one region, README command); the sl2 volumes (also in the torus
        # sweep) and the box from the rectangle closed forms
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("commands, digest", [
        (["project --group sl2 --matrix [[1,1],[0,1]]"], "fa7c1db2fade2fde"),
        (["flag --group sl3 --op gromov"], "a5cd3b9d5f4664fa"),
        (["flag --group sl3 --op hopf --matrix [[2,1,0],[1,1,0],[0,0,1]]"], "870973f9c659c6bb"),
        (["volume --group sl2 --domain ball --t 1"], "07725378a7075aa8"),
        (["loxo --matrix [[8,3],[5,2]] --r 0.4 --eps 0.01"], "2a24e682a7950e3c"),
        (["enumerate --group sl2 --t 12 --out census12 --shards 4"], "b8fbb0757eac3b92"),
        (["enumerate --group sl2 --t 12 --out census12 --shards 4",
          "angular --cache census12 --out report"], "6415bda32988f0e5"),
        (["angular --group sl2 --sweep 9,10,11,12,13"], "32b98b2865adabaa"),
        (["tori --trace-bound 10"], "507a292560a147b6"),
        (["tori --T-grid 10,11,12,13,14 --out tori"], "bc0ed75cca2b8a03"),
        (["growth --T-grid 10,11,12,13,14,15,16 --out growth"], "135e962a2a3b0fbb"),
    ])
    def test_readme_command_pinned(self, capsys, tmp_path, monkeypatch, commands, digest):
        # sha256 prefix of the stdout of each command, then the name and bytes of every
        # file the commands wrote; relative --out paths keep the printed paths stable
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        h = hashlib.sha256()
        for argv in commands:
            code, out = run(capsys, *argv.split())
            assert code == 0
            h.update(out.encode())
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            h.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
        assert h.hexdigest()[:16] == digest


class TestCheck:
    def test_quick_check_passes(self, capsys):
        code, out = run(capsys, "check", "--quick")
        assert code == 0
        assert "overall" in out and "FAIL" not in out

    def test_full_check_passes(self, capsys):
        code, out = run(capsys, "check")
        assert code == 0
        assert out.splitlines()[-1].startswith("overall") and "FAIL" not in out

    def test_box_line_runs_no_doubling(self, capsys, monkeypatch):
        # the box line's quadrature is one fixed product rule: it passes with the doubling
        # broken, and agrees with the doubled 2-D rule of the tests
        doubled = box_volume_quadrature(3, 3.0, (1.0, 1.0)).value
        assert abs(cli._box_product_rule() / doubled - 1.0) <= 1e-12

        def broken(evaluate):
            raise NumericError("no doubling")

        monkeypatch.setattr(vol, "_converge", broken)
        _, out = run(capsys, "check", "--quick")
        line = next(line for line in out.splitlines() if line.startswith("d=3 box closed form vs quadrature"))
        assert line.split()[-1] == "PASS"

    def test_library_error_is_a_fail_line(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise NumericError("quadrature stalled at delta 0.5")

        monkeypatch.setattr(vol, "ball_volume", broken)
        code, out = run(capsys, "check", "--quick")
        assert code == 1
        lines = [line for line in out.splitlines() if line.startswith("d=2 ball closed form")]
        assert len(lines) == 1
        assert "FAIL" in lines[0] and "NumericError: quadrature stalled at delta 0.5" in lines[0]
        assert out.splitlines()[-1].endswith("FAIL")

    def test_programming_error_propagates(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("ball_volume() got an unexpected argument")

        monkeypatch.setattr(vol, "ball_volume", broken)
        with pytest.raises(TypeError, match="unexpected argument"):
            dispatch(["check", "--quick"])


def test_usage_error_exit_code(capsys):
    assert dispatch(["no-such-command"]) == 2


@pytest.mark.parametrize("argv, token", [
    (["project", "--group", "sl2", "--matrix", "[[NaN,1],[0,1]]"], "NaN"),
    (["project", "--group", "sl2", "--matrix", "[[Infinity,1],[0,1]]"], "Infinity"),
    (["project", "--group", "sl2", "--matrix", '[["a",1],[0,1]]'], '"a"'),
    (["project", "--group", "sl2", "--matrix", "[[1,2],[3]]"], "[[1,2],[3]]"),
    (["loxo", "--matrix", "[[2,1],[1,1]]", "--base", "[[1]", "--r", "0.4", "--eps", "0.01"],
     "[[1]"),
    (["flag", "--group", "sl2", "--op", "dist", "--xi", "[[1,0"], "[[1,0"),
    (["flag", "--group", "sl2", "--op", "hopf", "--matrix", "@no-such-file.json"],
     "no-such-file.json"),
    (["flag", "--group", "sl2", "--op", "dist", "--eta", "[[0,1],[1,null]]"], "null"),
    (["volume", "--group", "sl3", "--domain", "box", "--t", "5", "--edges", "1,x"], "'x'"),
    (["growth", "--T-grid", "10,x"], "'x'"),
    (["tori", "--T-grid", "10,,12"], "''"),
    (["angular", "--sweep", "7,y"], "'y'"),
    (["growth", "--T-grid", "10,nan"], "'nan'"),
    (["tori", "--T-grid", "10,inf"], "'inf'"),
    (["tori", "--T", "inf"], "'inf'"),
    (["volume", "--group", "sl2", "--t", "inf"], "'inf'"),
    (["volume", "--group", "sl2", "--t", "4", "--slab=-inf"], "'-inf'"),
    (["loxo", "--matrix", "[[2,1],[1,1]]", "--r", "nan", "--eps", "0.01"], "'nan'"),
    (["angular", "--t", "3", "--bins", "-2"], "'-2'"),
    (["angular", "--t", "3", "--bins", "0"], "'0'"),
    (["angular", "--t", "3", "--bins", "2.5"], "'2.5'"),
    (["enumerate", "--group", "sl2", "--t", "3", "--shards", "-2"], "'-2'"),
    (["enumerate", "--group", "sl2", "--t", "3", "--shards", "0"], "'0'"),
    (["enumerate", "--group", "sl3", "--t", "3", "--word-radius", "-1"], "'-1'"),
])
def test_malformed_value_is_a_parameter_error(capsys, argv, token):
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: " in captured.err and token in captured.err


@pytest.mark.parametrize("argv, T", [
    (["tori", "--T", "-100"], "-100.0"),
    (["tori", "--T", "0"], "0.0"),
    (["tori", "--T-grid=-100,-50"], "-50.0"),
    (["growth", "--T-grid=-100,-90,-80"], "-80.0"),
])
def test_non_positive_T_is_refused_before_any_class_table(capsys, monkeypatch, argv, T):
    # the trace bound 2 cosh(T / sqrt 8) is even in T: T = -100 would ask for every trace
    # up to about 2.3e15, so the class table must never be built here
    def refuse(trace_bound):
        raise AssertionError(f"class table built for trace bound {trace_bound}")

    monkeypatch.setattr("wcc.survey.conjugacy_classes_sl2", refuse)
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: torus scale T must be positive, got {T}\n"


def test_T_below_the_shortest_class_reaches_each_command(capsys):
    # 0 < T < sqrt 8 arccosh(3/2) = 2.72: an empty census, sweep rows of weighted sum 0, and
    # the growth fit's own refusal, not the class table's refusal of a trace bound below 3
    code, doc = run_json(capsys, "tori", "--T", "1")
    assert code == 0 and doc["result"]["classes_in_ball"] == 0 and doc["result"]["rows"] == []
    code, doc = run_json(capsys, "tori", "--T-grid", "1,2")
    assert code == 0 and [row["weighted_sum"] for row in doc["result"]["rows"]] == [0.0, 0.0]
    code = dispatch(["growth", "--T-grid", "1,2,2.5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == "error: T grid starts below the shortest class length\n"


@pytest.mark.parametrize("grid", ["16", "16,16,16,16", "15,16", "14,14,16"])
def test_growth_needs_three_distinct_T(capsys, grid):
    # the fit has three parameters: one T died in an uncaught LinAlgError, two gave
    # standard errors near 1e-8 from a singular fit
    code = dispatch(["growth", "--T-grid", grid])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "three distinct T" in captured.err


def test_every_src_function_is_named_outside_the_tests():
    # the standing rule of the simplicity aim: a function or method of src/wcc (dunders aside)
    # stays only if src/wcc, an acceptance criterion or the benchmark names it, as a Name or
    # an Attribute outside its own def; the benchmark also names the functions it times as
    # strings ("module.name" or "name")
    src = sorted(Path(wcc.__file__).parent.glob("*.py"))
    bench = sorted(Path(__file__).resolve().parents[1].joinpath("perfbench").glob("*.py"))
    defs, refs = [], {}  # src defs; name -> the sets of defs enclosing each reference

    def visit(node, path, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.extend([(path.name, child)] if path in src else [])
                visit(child, path, enclosing | {child})
                continue
            if isinstance(child, ast.Name):
                refs.setdefault(child.id, []).append(enclosing)
            elif isinstance(child, ast.Attribute):
                refs.setdefault(child.attr, []).append(enclosing)
            elif path in bench and isinstance(child, ast.Constant) and isinstance(child.value, str):
                refs.setdefault(child.value.rsplit(".", 1)[-1], []).append(enclosing)
            visit(child, path, enclosing)

    for path in [*src, Path(__file__).with_name("test_acceptance.py"), *bench]:
        visit(ast.parse(path.read_text(encoding="utf-8")), path, frozenset())
    unnamed = [f"{file}:{node.lineno} {node.name}" for file, node in defs
               if not (node.name.startswith("__") and node.name.endswith("__"))
               and all(node in enclosing for enclosing in refs.get(node.name, []))]
    assert unnamed == []


def _loaded_modules(argv, tmp_path) -> set:
    """The `wcc` modules (without the prefix) and the watched numpy subpackages that
    one fresh process running the command has loaded."""
    code = (
        "import contextlib, io, sys\n"
        "from wcc import cli\n"
        "argv = sys.argv[1:]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert not argv or cli.dispatch(argv) == 0\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.startswith('wcc.') or m in ('numpy.ma', 'numpy.polynomial'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wcc.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         check=True, env=env, cwd=tmp_path, timeout=120)
    return {m.removeprefix("wcc.") for m in out.stdout.split()}


def test_src_stays_within_its_line_budget():
    # the 3,720-line target of the simplicity aim, counted as wc -l counts: a change that
    # grows src/wcc past it fails here
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(Path(wcc.__file__).parent.glob("*.py"))}
    lines = sum(counts.values())
    assert lines <= 3720, f"src/wcc/*.py is {lines} lines: {counts}"


def test_import_loads_only_errors(tmp_path):
    assert _loaded_modules([], tmp_path) == {"cli", "errors"}


@pytest.mark.parametrize("argv, unused", [
    ("volume --group sl3 --domain ball --t 4 --slab 0.5",
     {"lattice", "survey", "bqf", "flagmetric", "loxodromy", "projections"}),
    ("tori --T 9",
     {"lattice", "projections", "volume", "flagmetric", "loxodromy", "numpy.polynomial"}),
    ("tori --T-grid 10,11", {"lattice", "projections", "flagmetric", "loxodromy"}),
    ("growth --T-grid 10,11,12",
     {"lattice", "projections", "volume", "flagmetric", "loxodromy", "numpy.polynomial"}),
    ("enumerate --group sl2 --t 5 --out census", {"survey", "bqf", "flagmetric", "loxodromy"}),
    # the duplicate check of load_cache sorts rows; np.unique(axis=0) would import numpy.ma
    ("angular --cache census", {"bqf", "flagmetric", "loxodromy", "numpy.ma"}),
])
def test_each_command_loads_only_what_it_runs(argv, unused, capsys, tmp_path):
    if "--cache" in argv:  # the census it reads is written in this process
        assert dispatch(["enumerate", "--group", "sl2", "--t", "5", "--out", str(tmp_path / "census")]) == 0
        capsys.readouterr()
    assert _loaded_modules(argv.split(), tmp_path) & unused == set()


# rows that are a uniform table take the one-template path; every other node
# is json.dumps's own output
TEMPLATED = [
    [{"flag": True, "n": 1, "x": 0.5}, {"flag": False, "n": -2, "x": 1e-300}],
    [{"a": 2**80, "b": -0.0, "c": 5e-324, "d": 1e22, "e": 1.0}],
    [{"s": "caf\u00e9 \u2603 \ud83d\ude00", "t": "\x00\t\n\"\\\x7f"}, {"s": "", "t": "/"}],
    [{"%s": 1, "100%": "%d", "%%(k)r": 0.25}, {"%s": 2, "100%": "%%", "%%(k)r": 0.5}],
]
FALLBACK = [
    [],
    [{}, {}],
    [{"x": math.nan}, {"x": 1.0}],
    [{"x": math.inf}, {"x": -math.inf}],
    [{"x": np.float64(0.1)}, {"x": 0.2}],
    [{"x": np.int64(3)}, {"x": np.int64(4)}],
    [{"x": np.arange(3)}, {"x": np.ones(2)}],
    [{"a": 1}, {"b": 1}],
    [{"a": 1}, {"a": 1, "b": 2}],
    [{"a": 1}, {"a": 1.0}],
    [{"a": 1}, {"a": True}],
    [{"a": None}, {"a": None}],
    [{"a": [1, 2]}, {"a": [3]}],
    [{1: "a"}, {1: "b"}],
    [{"a": 1}, [1]],
    ({"a": 1}, {"a": 2}),
]


@pytest.mark.parametrize("rows", TEMPLATED + FALLBACK)
def test_emit_is_json_dumps_on_synthetic_rows(rows):
    templated = any(rows is r for r in TEMPLATED)
    assert (cli._table_rows(rows, "") is not None) == templated
    nested = {"result": {"rows": rows, "deeper": {"more": [rows], "rows": rows}}, "n": 1}
    for doc in (rows, {"rows": rows}, nested, {"a": {}, "b": [], "c": rows}):
        assert cli._dumps(doc) == json_dumps(doc)
    out = io.StringIO()
    cli._emit({"rows": rows}, {"cmd": "synthetic", "edges": (1.0, 2.0)}, out=out)
    doc = json.loads(out.getvalue())
    assert out.getvalue() == json_dumps({**doc, "result": {"rows": rows}}) + "\n"


def test_import_loads_no_scipy():
    # importing the CLI, the check battery and a certificate through flat_distance
    code = (
        "import contextlib, io, sys\n"
        "from wcc import cli, loxodromy as lx, projections as pj\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.dispatch(['check', '--quick']) == 0\n"
        "o = pj.BasePoint.origin(3)\n"
        "g = pj.GroupElement.from_cartan_vector([30.0, 0.0, -30.0])\n"
        "cert = lx.certify(g, o, 0.4, 0.9 * min(0.4 / lx.cx_constant(o), 0.1))\n"
        "assert cert.certified and cert.conditions['flat_dist'] < 1e-12\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wcc.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=120)
    assert out.stdout.strip() == "[]"
