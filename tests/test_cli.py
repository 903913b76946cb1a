import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wcc
from wcc.cli import dispatch


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

    def test_dimension_mismatch(self, capsys):
        code, out = run(capsys, "project", "--group", "sl3", "--matrix", "[[1,1],[0,1]]")
        assert code == 2

    def test_bad_matrix(self, capsys):
        code, _ = run(capsys, "project", "--group", "sl2", "--matrix", "[[2,0],[0,1]]")
        assert code == 2


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


class TestCheck:
    def test_quick_check_passes(self, capsys):
        code, out = run(capsys, "check", "--quick")
        assert code == 0
        assert "overall" in out and "FAIL" not in out


def test_usage_error_exit_code(capsys):
    assert dispatch(["no-such-command"]) == 2


def test_import_loads_no_scipy():
    code = "import sys, wcc.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=str(Path(wcc.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=120)
    assert out.stdout.strip() == "[]"
