"""The three workloads: inputs made from the seed, and the checks on outputs.

Each workload is a fixed job.  `census` and `growth` are lists of `wcc` CLI
commands, each run as a fresh process; `certify` is one fresh worker process
that calls the library (certify_worker.py).  The seed nudges t, T and the
sampled matrices within a narrow band, so sizes stay those named here while
a held-out seed still gives new inputs.  Every expected value is computed
per seed by oracles.py; nothing is pinned.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

NUDGE = 0.02  # half-width of the band the seed moves t and T in


def fmt(x: float) -> str:
    return f"{x:.6f}"


def nudged(rng: np.random.Generator, x: float) -> float:
    return float(fmt(x + rng.uniform(-NUDGE, NUDGE)))


@dataclass
class Op:
    """One CLI command of a job and the check of its parsed stdout."""

    label: str
    argv: list
    check: Callable[[dict], list]


@dataclass
class Workload:
    name: str
    params: dict
    # the figures the workload is named for, from run.py's Job of an untraced run
    figures: Callable
    ops: list = field(default_factory=list)
    # a run sets up `setups` times and runs the fixed job at least `jobs` times:
    # on census and certify one job alone spreads by more than a third of the
    # wall_per_ref bound between seeds
    setups: int = 3
    jobs: int = 1
    # per-layer metrics that must stay 0 on this workload
    bypassed: tuple = ()
    span_checks: Callable[[list], list] | None = None
    artifacts: Path | None = None  # output directory: emptied before a job, digested after
    certify_job: dict | None = None


def _expect(failures: list, ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


# -------------------------------------------------------------------- census


def census(seed: int, smoke: bool, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    top = 3.0 if smoke else 11.0
    delta = nudged(rng, 0.0)
    t = float(fmt(top + delta))
    grid = [float(fmt(x + delta)) for x in ((2.0, 3.0) if smoke else (9.0, 10.0, 11.0))]
    oracle = oracles.Sl2Census(max(grid + [t]))
    cache = work / "census_cache"

    def check_enumerate(doc):
        res, want, failures = doc["result"], oracle.counts(t), []
        _expect(failures, res["total"] == want["total"],
                f"enumerate total {res['total']} != oracle {want['total']}")
        _expect(failures, res["loxodromic"] == want["loxodromic"],
                f"enumerate loxodromic {res['loxodromic']} != oracle {want['loxodromic']}")
        _expect(failures, res["complete"] is True, "enumerate census not complete")
        manifest = json.loads((cache / "manifest.json").read_text())
        blobs = [(cache / name).read_bytes() for name in manifest["shards"]]
        mats = np.frombuffer(b"".join(blobs), dtype="<i8").reshape(-1, 4)
        mats = mats[np.lexsort(mats.T[::-1])]
        _expect(failures, np.array_equal(mats, oracle.ball(t)),
                "cache shards do not hold the oracle's matrices")
        return failures

    def check_cache_angular(doc):
        want = oracle.counts(t)["regular"]
        got = doc["result"]["n_regular"]
        return [] if got == want else [f"angular --cache n_regular {got} != oracle {want}"]

    def check_sweep(doc):
        rows, failures = doc["result"]["rows"], []
        _expect(failures, [r["t"] for r in rows] == grid, f"sweep rows {rows} do not follow {grid}")
        for r in rows:
            want = oracle.counts(r["t"])["regular"]
            _expect(failures, r["n_regular"] == want,
                    f"sweep t={r['t']} n_regular {r['n_regular']} != oracle {want}")
        return failures

    def span_checks(docs):
        # the records load_cache handed back must be the oracle's matrices
        digests = [d["checks"]["load_cache_digest"] for d in docs if "load_cache_digest" in d["checks"]]
        want = oracles.rows_digest(oracle.ball(t))
        return [] if digests == [want] else [f"load_cache returned other matrices: {digests}"]

    def figures(job):
        secs = {label: statistics.median(v) for label, v in job.stages.items()}
        return {
            "enumerate_s": secs["enumerate"],
            "cache_angular_s": secs["cache_angular"],
            "sweep_s": secs["sweep"],
            "records_per_s": oracle.counts(t)["total"] / secs["enumerate"],
        }

    return Workload(
        name="census",
        params={"t": t, "sweep": grid},
        figures=figures,
        setups=1 if smoke else 3,
        jobs=2,
        ops=[
            Op("enumerate", ["enumerate", "--group", "sl2", "--t", fmt(t), "--shards", "4",
                             "--out", str(cache)], check_enumerate),
            Op("cache_angular", ["angular", "--cache", str(cache)], check_cache_angular),
            Op("sweep", ["angular", "--group", "sl2", "--sweep", ",".join(fmt(x) for x in grid)],
               check_sweep),
        ],
        bypassed=("flagmetric.flat_distance_calls", "bqf.calls"),
        span_checks=span_checks,
        artifacts=cache,
    )


# -------------------------------------------------------------------- growth


def growth(seed: int, smoke: bool, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    t3 = nudged(rng, 3.0 if smoke else 8.0)
    t2 = nudged(rng, 2.0 if smoke else 4.0)
    big_T = nudged(rng, 8.0 if smoke else 16.0)
    slab = "0.5" if smoke else "0.8"
    box_t = "2" if smoke else "5"
    tori_grid = [6, 7] if smoke else [10, 11, 12, 13, 14]
    growth_grid = [6, 7, 8] if smoke else [10, 11, 12, 13, 14, 15, 16]

    def check_volume(group, closed_form_t=None):
        def check(doc):
            res, failures = doc["result"], []
            _expect(failures, abs(res["delta0"] - oracles.DELTA0[group]) <= 1e-9,
                    f"{group} delta0 {res['delta0']} != {oracles.DELTA0[group]}")
            _expect(failures, math.isfinite(res["value_log"]), f"volume log {res['value_log']}")
            if "ratio_to_volume" in res:
                _expect(failures, 0.0 < res["ratio_to_volume"] < math.inf,
                        f"slab ratio {res['ratio_to_volume']} not positive and finite")
            if closed_form_t is not None:
                want = oracles.sl2_ball_volume(closed_form_t)
                _expect(failures, abs(res["value"] / want - 1.0) <= 1e-6,
                        f"sl2 ball volume {res['value']} != closed form {want}")
            return failures
        return check

    def check_tori_grid(doc):
        rows = doc["result"]["rows"]
        failures = []
        _expect(failures, [r["T"] for r in rows] == [float(x) for x in tori_grid],
                "torus sweep rows do not follow the grid")
        _expect(failures, all(r["regroup_exact"] for r in rows), "torus sweep regroup not exact")
        return failures

    def check_growth(doc):
        res, failures = doc["result"], []
        counts = [r["count"] for r in res["rows"]]
        _expect(failures, len(counts) == len(growth_grid) and all(
            a <= b for a, b in zip(counts, counts[1:])), f"growth counts {counts} not monotone")
        _expect(failures, res["monotone"] is True, "growth report not monotone")
        _expect(failures, abs(res["delta0"] - oracles.DELTA0["sl2"]) <= 1e-9,
                f"growth delta0 {res['delta0']}")
        return failures

    def check_tori_T(doc):
        res, failures = doc["result"], []
        _expect(failures, res["regroup_exact"] is True, "torus census regroup not exact")
        _expect(failures, res["classes_in_ball"] > 0, "torus census is empty")
        return failures

    volumes = ("volume_sl3_ball", "volume_sl3_slab", "volume_sl3_box", "volume_sl2_ball")

    def figures(job):
        tori_s = statistics.median(job.stages["tori_T"])
        return {
            "volume_p50_s": statistics.median(s for label in volumes for s in job.stages[label]),
            "classes_per_s": job.docs["tori_T"]["result"]["classes_in_ball"] / tori_s,
        }

    ints = lambda xs: ",".join(str(x) for x in xs)  # noqa: E731
    return Workload(
        name="growth",
        params={"t_sl3": t3, "t_sl2": t2, "T": big_T},
        figures=figures,
        setups=1 if smoke else 3,
        ops=[
            Op("volume_sl3_ball", ["volume", "--group", "sl3", "--domain", "ball", "--t", fmt(t3)],
               check_volume("sl3")),
            Op("volume_sl3_slab", ["volume", "--group", "sl3", "--domain", "ball", "--t", fmt(t3),
                                   "--slab", slab], check_volume("sl3")),
            Op("volume_sl3_box", ["volume", "--group", "sl3", "--domain", "box", "--t", box_t,
                                  "--edges", "1,1"], check_volume("sl3")),
            Op("volume_sl2_ball", ["volume", "--group", "sl2", "--domain", "ball", "--t", fmt(t2)],
               check_volume("sl2", closed_form_t=t2)),
            Op("tori_grid", ["tori", "--T-grid", ints(tori_grid)], check_tori_grid),
            Op("growth", ["growth", "--T-grid", ints(growth_grid)], check_growth),
            Op("tori_T", ["tori", "--T", fmt(big_T)], check_tori_T),
        ],
        bypassed=("flagmetric.flat_distance_calls", "lattice.enumerate_elements_calls"),
    )


# ------------------------------------------------------------------- certify


def _random_so(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def certify(seed: int, smoke: bool, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    survey_t = nudged(rng, 3.0 if smoke else 6.0)
    per_rank = 2 if smoke else 100
    ranks = {}
    for d in (2, 3):
        constructed = []
        for _ in range(per_rank):
            yh = rng.normal(size=d)
            signs = rng.choice([1.0, -1.0], size=d)
            if np.prod(signs) < 0:
                signs[0] *= -1.0
            constructed.append({
                "yh": (yh - yh.mean()).tolist(),
                "u": float(rng.uniform()),
                "k1": _random_so(rng, d).tolist(),
                "k2": _random_so(rng, d).tolist(),
                "signs": signs.tolist(),
            })
        ranks[str(d)] = {
            "constructed": constructed,
            "unipotent_n": [1, 7, 100, 10**4, 10**6],
            "rotations": [_random_so(rng, d).tolist() for _ in range(10)],
            "near_wall": [1e-4, 0.1, 1.0, 3.0],
        }
    counts = oracles.Sl2Census(survey_t).counts(survey_t)
    survey = {"survey_t": survey_t, "survey_total": counts["total"],
              "survey_loxodromic": counts["loxodromic"]}

    def figures(job):
        return {
            "certify_p50_ms": quantile(job.certify_ms, 0.50),
            "certify_p95_ms": quantile(job.certify_ms, 0.95),
            "certify_calls": len(job.certify_ms),
            "survey_s": statistics.median(job.stages["survey"]),
            "flat_bound_per_s": counts["loxodromic"] / statistics.median(job.stages["survey"]),
        }

    return Workload(
        name="certify",
        params={"constructed_per_rank": per_rank, **survey},
        figures=figures,
        setups=1 if smoke else 2,  # each refits the constants for about 13 s
        jobs=2,
        certify_job={"t0_factor": 1.05, "ranks": ranks, **survey},
    )


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


WORKLOADS = {"census": census, "certify": certify, "growth": growth}
