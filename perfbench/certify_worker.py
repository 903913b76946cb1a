"""Fresh worker process for the `certify` workload.

    python perfbench/certify_worker.py --job JOB.json [--setup-only]
                                       [--spans PATH --run-id ID]

Set-up is `import wcc` plus `fitted_constants(2)` and `fitted_constants(3)`;
the worker prints `ready` when it is done.  It then certifies the job's
constructed and adversarial elements the way acceptance criterion 4 does,
runs `flat_bound_survey` over the loxodromic part of a small sl2 census the
way criterion 9 does (checking the census size against the job's oracle
counts), and repeats that job as often as it fits in
`seconds` (at least `jobs` times).
Before each part of the job (every PART certify calls, then the survey) it
prints `wait` and reads a line from stdin, so the parent can time its reference
while this process is idle.  The last line of stdout is a JSON report with
per-call latencies, the checks that failed (at most one per operation) and
a sha256 of every outcome.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import time

import spans

PART = 60  # certify calls between two pauses

_START = time.perf_counter()
import numpy as np  # noqa: E402

from wcc import lattice as lt  # noqa: E402
from wcc import loxodromy as lx  # noqa: E402
from wcc import survey as sv  # noqa: E402
from wcc.projections import BasePoint, GroupElement  # noqa: E402
from wcc.rootsys import root_system  # noqa: E402
from wcc.volume import Domain  # noqa: E402

IMPORT_S = time.perf_counter() - _START


def _build(job):
    """Matrices of the job: constructed elements just past t_zero, then
    the adversarial family, each with the (r, eps) it is certified at."""
    items = []
    for key, spec in sorted(job["ranks"].items()):
        d = int(key)
        rs = root_system(d)
        consts = lx.fitted_constants(d)
        o = BasePoint.origin(d)
        r = 0.98 * consts.r0
        eps = 0.9 * min(r / lx.cx_constant(o), consts.eps0)
        margin = job["t0_factor"] * lx.t_zero(o, eps) / math.sqrt(d)
        y = margin * (np.arange(d)[::-1] - (d - 1) / 2.0)
        for c in spec["constructed"]:
            yh = np.array(c["yh"])
            yh *= c["u"] * 0.3 * r / max(rs.killing_norm(yh), 1e-12)
            h = np.array(c["k1"]) @ np.diag(np.exp(np.sort(yh)[::-1])) @ np.array(c["k2"])
            g = h @ (np.diag(np.exp(y)) @ np.diag(c["signs"])) @ np.linalg.inv(h)
            items.append(("constructed", d, g, False, r, eps))
        for n in spec["unipotent_n"]:
            u = np.eye(d)
            u[0, -1] = float(n)
            items.append(("unipotent", d, u, True, r, eps))
        for rot in spec["rotations"]:
            items.append(("rotation", d, np.array(rot), False, r, eps))
        for w in spec["near_wall"]:
            yv = np.zeros(d)
            yv[0], yv[-1] = w, -w
            items.append(("near_wall", d, GroupElement.from_cartan_vector(yv).mat, True, r, eps))
    return items


def _pause() -> None:
    """Tell the parent this process is idle and wait for its `go`."""
    print("wait", flush=True)
    sys.stdin.readline()


def _run_job(job, items, report):
    clock = time.perf_counter
    outcomes, latencies = [], []
    wall = 0.0
    for i, (kind, d, mat, check, r, eps) in enumerate(items):
        if i % PART == 0:  # parts are timed apart from the pauses between them
            if i:
                wall += clock() - start
            _pause()
            start = clock()
        report["attempted"] += 1
        try:
            g = GroupElement(mat.copy(), check=check)
            t = clock()
            cert = lx.certify(g, BasePoint.origin(d), r, eps)
            latencies.append(1000.0 * (clock() - t))
        except Exception as exc:  # a raising call is a failed operation
            report["failures"].append(f"{kind} d={d}: {type(exc).__name__}: {exc}")
            continue
        errors = cert.fixed_point_errors
        if kind == "constructed":
            ok = cert.certified and max(errors) < eps
        else:
            ok = not cert.certified
        if not ok:
            report["failures"].append(f"{kind} d={d}: certified={cert.certified}, errors={errors}")
        outcomes.append([kind, d, cert.certified, cert.conditions, errors])

    wall += clock() - start
    _pause()
    start = clock()
    report["attempted"] += 1
    records, _ = lt.enumerate_elements(lt.LatticeSpec("sl2"), Domain("ball", job["survey_t"]))
    lox = [rec for rec in records if rec.loxodromic]
    survey, survey_s, problems = None, math.nan, []
    want = (job["survey_total"], job["survey_loxodromic"])
    if (len(records), len(lox)) != want:
        problems.append(f"census ({len(records)}, {len(lox)}) != oracle {want}")
    try:
        t = clock()
        survey = sv.flat_bound_survey(lox)
        survey_s = clock() - t
        if survey["violations"] != 0 or survey["checked"] != len(lox):
            problems.append(f"{survey} over {len(lox)} elements")
    except Exception as exc:  # a raising call is a failed operation
        problems.append(f"{type(exc).__name__}: {exc}")
    if problems:
        report["failures"].append(f"flat_bound_survey: {'; '.join(problems)}")
    outcomes.append(["survey", len(records), len(lox), survey])
    wall += clock() - start
    blob = json.dumps(outcomes, sort_keys=True, default=float).encode()
    return {
        "wall_s": wall,
        "certify_ms": latencies,
        "survey_s": survey_s,
        "digest": hashlib.sha256(blob).hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--job", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="certify")
    args = parser.parse_args()

    rec = spans.Recorder(args.run_id) if args.spans else None
    if rec is not None:
        rec.install()
    report = {"import_s": IMPORT_S, "attempted": 0, "failures": [], "iterations": []}
    with rec.capture_warnings() if rec is not None else contextlib.nullcontext():
        lx.fitted_constants(2)
        lx.fitted_constants(3)
        print("ready", flush=True)
        if not args.setup_only:
            with open(args.job) as fh:
                job = json.load(fh)
            items = _build(job)
            begin = time.perf_counter()
            while True:
                report["iterations"].append(_run_job(job, items, report))
                elapsed = time.perf_counter() - begin
                if (len(report["iterations"]) >= job["jobs"]
                        and elapsed + report["iterations"][-1]["wall_s"] > job["seconds"]):
                    break
    if rec is not None:
        rec.dump(args.spans, import_s=IMPORT_S)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
