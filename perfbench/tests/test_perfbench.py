"""Tests of the benchmark's own code: span arithmetic, the census oracle,
wrapping from outside the library, and a smoke run of every workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from wcc import lattice as lt  # noqa: E402
from wcc.volume import Domain  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans_ = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],  # overlaps b: the union 1..6 is covered once
        ["d", 2.0, 3.5, 1],  # grandchild: already inside b, not subtracted from a
        ["e", 9.0, 12.0, 0],  # runs past its parent: only 9..10 counts
    ]
    assert spans.self_times(spans_) == pytest.approx([4.0, 1.5, 3.0, 1.5, 3.0])


def test_inclusive_time_counts_recursion_once():
    spans_ = [["f", 0.0, 5.0, -1], ["f", 1.0, 2.0, 0], ["g", 6.0, 7.0, -1]]
    assert spans.inclusive_times(spans_) == pytest.approx({"f": 5.0, "g": 1.0})


def test_covered_ignores_intervals_outside_the_window():
    assert spans.covered([(-3.0, -1.0), (2.0, 3.0), (2.5, 4.0)], 0.0, 10.0) == pytest.approx(2.0)


def test_every_failure_has_its_own_attempt():
    job = run.Job()
    job.record("a", [])
    job.record("b", ["exit code 1", "output unreadable"])
    assert job.attempted == 2
    assert job.failures == ["b: exit code 1; output unreadable"]


def test_reference_unit_drops_the_fastest_and_slowest_run():
    assert run.reference_unit([0.3, 9.0, 0.5, 0.4]) == pytest.approx(0.45)
    assert run.reference_unit([0.3, 0.5]) == pytest.approx(0.4)


@pytest.mark.parametrize("t", [1e-9, 2.0, 3.5, 5.0, 6.2])
def test_census_oracle_matches_enumerate_elements(t):
    records, meta = lt.enumerate_elements(lt.LatticeSpec("sl2"), Domain("ball", t))
    oracle = oracles.Sl2Census(t)
    got = sorted(tuple(x for row in r.matrix for x in row) for r in records)
    assert got == [tuple(int(x) for x in row) for row in oracle.ball(t)]
    counts = oracle.counts(t)
    assert counts["total"] == len(records)
    assert counts["loxodromic"] == sum(r.loxodromic for r in records)
    assert counts["regular"] == sum(r.wall_margin > 0 for r in records)


def test_oracle_ball_is_nested():
    oracle = oracles.Sl2Census(4.0)
    assert oracle.counts(1e-9)["total"] == 4
    assert oracle.counts(3.0)["total"] < oracle.counts(4.0)["total"]


def test_recorder_wraps_reimported_names():
    code = f"""
import sys
sys.path.insert(0, {str(BENCH)!r})
import spans
from wcc import lattice, projections, survey
from wcc.volume import Domain
original = lattice.enumerate_elements
rec = spans.Recorder("test")
rec.install()
assert survey.enumerate_elements is lattice.enumerate_elements is not original
assert lattice.cartan_vector is projections.cartan_vector
records, _ = lattice.enumerate_elements(lattice.LatticeSpec("sl2"), Domain("ball", 2.0))
print(len(records))
print(sys.modules["json"].dumps([rec.spans, rec.counters]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    n, payload = out.stdout.splitlines()
    spans_, counters = json.loads(payload)
    top = [s for s in spans_ if s[3] == -1]
    assert [s[0] for s in top] == ["lattice.enumerate_elements"]
    children = {s[0] for s in spans_ if s[3] == 0}
    assert children == {"projections.cartan_vector", "projections.jordan_project"}
    assert counters["lattice.records"] == int(n)


def _smoke(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    saved = BENCH.parent / ".perfbench_out" / workload / f"result-seed3-trace{trace}.json"
    assert json.loads(saved.read_text())["result"] == result
    return result


def _declared(kind: str) -> list:
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[kind]]


@pytest.mark.parametrize("workload,trace", [("census", 0), ("growth", 0), ("census", 1),
                                            ("certify", 1)])
def test_smoke_run(workload, trace):
    result = _smoke(workload, trace)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(_declared("per_layer" if trace else "end_to_end"))
    if trace:
        assert metrics["trace.spans"]["value"] > 0
        assert metrics["trace.wrapper_s"]["value"] > 0
        if workload == "certify":
            assert metrics["flagmetric.flat_distance_calls"]["value"] > 0
            assert metrics["loxodromy.fitted_constants_misses"]["value"] == 2
            assert metrics["loxodromy.certified_ratio"]["value"] > 0
        else:
            assert metrics["lattice.enumerate_elements_calls"]["value"] > 0
            assert metrics["flagmetric.flat_distance_calls"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_a_tree_without_the_library(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    cmd = [sys.executable, str(copy / "run.py"), "--workload", "census", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
