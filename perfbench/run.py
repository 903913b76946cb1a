"""Benchmark of the wcc library and CLI.

    python3 perfbench/run.py --workload census|certify|growth --seed N
                             --seconds S --trace 0|1 [--smoke]

Run from the root of a source tree (the directory holding `src/wcc`).  One
client, closed loop: one process runs at a time, with BLAS and OpenMP pinned
to one thread.  reference.py is timed before every set-up, before every
command (or part of the certify worker's job) and once at the end; times are
reported in units of its trimmed mean.  `--trace 0` sets up a few times in
fresh processes, then repeats the workload's fixed job as often as it fits
in `--seconds` (at least the workload's `jobs` times), and prints the
end-to-end metrics.  `--trace 1` runs the job once untraced and once with
span recording, and prints the per-layer metrics.  `--smoke` shrinks every
input to a minimal size for the benchmark's own tests.

Every output is checked against oracles computed for the seed.  The last
stdout line is the JSON result; the line before it holds the figures named
per workload, the raw times, the environment and the sha256 of every
command's stdout.  Both are kept in `.perfbench_out/<workload>/` in the
source tree, one file per seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = Path(".perfbench_out")
# reference.py's time on the machine of the first baseline: setup_s is the
# set-up time in seconds at that reference speed
REF_NOMINAL_S = 0.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROC_TIMEOUT = 170.0
END_TO_END = {"setup_s": "s", "wall_per_ref": "ratio", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class ReferenceFailed(Exception):
    """reference.py did not run, so the run has no unit to measure in."""


@dataclass
class Job:
    """What one run measured: raw times, parsed outputs and checks."""

    walls: list = field(default_factory=list)  # seconds of each repeat of the fixed job
    refs: list = field(default_factory=list)  # seconds of each reference.py run
    setups: list = field(default_factory=list)  # seconds from spawn to ready
    stages: dict = field(default_factory=dict)  # op label -> seconds of each run of it
    docs: dict = field(default_factory=dict)  # op label -> last parsed stdout
    certify_ms: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    span_docs: list = field(default_factory=list)

    def record(self, what: str, problems) -> None:
        """One operation or check attempted; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


class Harness:
    def __init__(self, workload, seed: int, work: Path):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.stderr = open(work / "stderr.log", "ab")

    def close(self) -> None:
        self.stderr.close()

    def run(self, cmd) -> tuple[int, bytes, float]:
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  stderr=self.stderr, timeout=PROC_TIMEOUT)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            return -1, exc.stdout or b"", time.perf_counter() - start
        return proc.returncode, proc.stdout, time.perf_counter() - start

    def start(self, cmd):
        """Spawn `cmd` and wait for its `ready` line: (process, seconds to ready)."""
        begin = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=self.stderr)
        line = proc.stdout.readline()
        ready = time.perf_counter() - begin
        if line.strip() != b"ready":
            self.finish(proc)
            raise RuntimeError(f"{cmd[1:3]} did not get ready")
        return proc, ready

    def finish(self, proc, feed: bytes = b"") -> bytes:
        """Send `feed`, wait for the exit and return the rest of stdout."""
        try:
            out, _ = proc.communicate(feed, timeout=PROC_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{proc.args[1:3]} timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"{proc.args[1:3]} exited with {proc.returncode}")
        return out

    def reference(self, job: Job) -> None:
        """Time one run of reference.py; its docstring says why."""
        code, _, secs = self.run([sys.executable, str(BENCH / "reference.py")])
        if code != 0:
            raise ReferenceFailed(f"reference.py exited with {code}; see {self.stderr.name}")
        job.refs.append(secs)

    # ---------------------------------------------------------------- set-up

    def setup_cmd(self) -> list:
        if self.wl.certify_job is not None:
            return [sys.executable, str(BENCH / "certify_worker.py"), "--job", "-",
                    "--setup-only"]
        return [sys.executable, "-c", "import wcc.cli; print('ready', flush=True)"]

    def setups(self, job: Job, n: int) -> None:
        for _ in range(n):
            self.reference(job)
            problems = []
            try:
                proc, ready = self.start(self.setup_cmd())
                self.finish(proc)
                job.setups.append(ready)
            except RuntimeError as exc:
                problems.append(str(exc))
            job.record("set-up", problems)

    # ------------------------------------------------------------------ jobs

    def cli_job(self, job: Job, traced: bool, tag: str) -> None:
        if self.wl.artifacts is not None:
            shutil.rmtree(self.wl.artifacts, ignore_errors=True)
        wall = 0.0
        for op in self.wl.ops:
            self.reference(job)
            if traced:
                path = self.work / f"spans-{tag}-{op.label}.json"
                cmd = [sys.executable, str(BENCH / "launch.py"), "--spans", str(path),
                       "--run-id", f"{self.wl.name}-{self.seed}-{tag}-{op.label}", "--", *op.argv]
            else:
                cmd = [sys.executable, "-m", "wcc.cli", *op.argv]
            code, out, secs = self.run(cmd)
            wall += secs
            job.stages.setdefault(op.label, []).append(secs)
            problems = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                try:
                    doc = json.loads(out)
                    problems += op.check(doc)
                    job.docs[op.label] = doc
                    if traced:
                        span_doc = json.loads(path.read_text())
                        span_doc["stdout_bytes"] = len(out)
                        job.span_docs.append(span_doc)
                except (ValueError, KeyError, TypeError, OSError) as exc:
                    problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
                problems += self.digest(job, op.label, out)
            job.record(op.label, problems)
        job.walls.append(wall)
        if self.wl.artifacts is not None:
            files = sorted(self.wl.artifacts.iterdir()) if self.wl.artifacts.is_dir() else []
            problems = [] if files else ["no files written"]
            for path in files:
                problems += self.digest(job, f"{self.wl.artifacts.name}/{path.name}",
                                        path.read_bytes())
            job.record("cache files", problems)

    def certify_job(self, job: Job, traced: bool, tag: str, seconds: float, jobs: int) -> None:
        spec = dict(self.wl.certify_job, seconds=seconds, jobs=jobs)
        job_path = self.work / "certify_job.json"
        job_path.write_text(json.dumps(spec))
        cmd = [sys.executable, str(BENCH / "certify_worker.py"), "--job", str(job_path)]
        if traced:
            path = self.work / f"spans-{tag}-certify.json"
            cmd += ["--spans", str(path), "--run-id", f"certify-{self.seed}-{tag}"]
        self.reference(job)
        try:
            proc, ready = self.start(cmd)
            job.setups.append(ready)
            # the worker waits for `go` before each part of its job, so the
            # references interleave with its work as they do with CLI commands
            line = proc.stdout.readline()
            while line.strip() == b"wait":
                self.reference(job)
                proc.stdin.write(b"go\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
            self.finish(proc)
            report = json.loads(line)
            if traced:
                job.span_docs.append(json.loads(path.read_text()))
        except (RuntimeError, ValueError, OSError) as exc:
            job.record("certify worker", [str(exc)])
            return
        # the worker counts its own operations and at most one failure for each
        job.attempted += report["attempted"]
        job.failures += report["failures"]
        for it in report["iterations"]:
            job.walls.append(it["wall_s"])
            job.certify_ms += it["certify_ms"]
            job.stages.setdefault("survey", []).append(it["survey_s"])
            job.record("certify outcomes",
                       self.digest(job, "certify_outcomes", it["digest"].encode()))

    def job(self, job: Job, traced: bool, tag: str, seconds: float, jobs: int) -> Job:
        """Repeat the fixed job as often as it fits in `seconds`, at least `jobs` times."""
        if self.wl.certify_job is not None:
            self.certify_job(job, traced, tag, seconds, jobs)
        else:
            begin = time.perf_counter()
            while True:
                self.cli_job(job, traced, tag)
                if (len(job.walls) >= jobs
                        and time.perf_counter() - begin + job.walls[-1] > seconds):
                    break
        self.reference(job)
        return job

    def digest(self, job: Job, label: str, data: bytes) -> list:
        """sha256 of an output; a repeat that differs is a determinism failure."""
        value = hashlib.sha256(data).hexdigest()
        if job.digests.setdefault(label, value) != value:
            return [f"{label}: output differs between repeats of the same input"]
        return []


# ------------------------------------------------------------------- results


def environment() -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    tree = hashlib.sha256()
    for path in src:
        tree.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {name: child_env()[name] for name in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": tree.hexdigest(),
    }


def reference_unit(refs) -> float:
    """Mean reference time without the fastest and the slowest run.

    The reference's times cluster in two modes as the machine's load
    shifts, so a median flips between them; the mean follows the share of
    each, and trimming keeps a single stalled run from moving it.
    """
    refs = sorted(refs)
    return statistics.mean(refs[1:-1] if len(refs) > 2 else refs)


def end_to_end(job: Job) -> dict:
    ref = reference_unit(job.refs)
    values = {
        "setup_s": statistics.median(job.setups) * REF_NOMINAL_S / ref
        if job.setups else math.nan,
        "wall_per_ref": statistics.median(job.walls) / ref if job.walls else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - len(job.failures) / max(job.attempted, 1),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def named_figures(wl, job: Job) -> dict:
    """Raw times and the workload's own figures, named as in the benchmark's README."""
    out = {f"{label}_s": statistics.median(v) for label, v in job.stages.items()}
    for name, values in (("wall_s", job.walls), ("setup_raw_s", job.setups)):
        if values:
            out[name] = statistics.median(values)
    if job.refs:
        out["ref_s"] = reference_unit(job.refs)
    out["failed_ratio"] = len(job.failures) / max(job.attempted, 1)
    out["iterations"] = len(job.walls)
    try:
        out.update(wl.figures(job))
    except (KeyError, ValueError, ZeroDivisionError, statistics.StatisticsError):
        pass  # a failed command leaves its figures out; the failure is counted
    return out


def traced_run(harness: Harness, wl) -> tuple[Job, dict, dict]:
    """Run the job untraced, then traced; return the traced job, the untraced
    job's named figures and the per-layer metrics."""
    untraced = harness.job(Job(), False, "untraced", 0.0, 1)
    job = harness.job(Job(), True, "traced", 0.0, 1)
    job.attempted += untraced.attempted
    job.failures += untraced.failures
    for label, value in untraced.digests.items():
        if label in job.digests:
            job.record(f"{label} traced",
                       [] if job.digests[label] == value else ["output differs when traced"])
    # the traced wall, rescaled to the reference speed of the untraced run
    overhead = math.nan
    if job.walls and untraced.walls:
        speed = reference_unit(untraced.refs) / reference_unit(job.refs)
        overhead = job.walls[0] * speed - untraced.walls[0]
    values = spans.summarize(job.span_docs, overhead)
    for name in wl.bypassed:
        job.record(f"bypass {name}", [] if values[name] == 0 else [f"= {values[name]}"])
    if wl.span_checks is not None:
        job.record("spans", wl.span_checks(job.span_docs))
    metrics = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in values.items()}
    return job, named_figures(wl, untraced), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes and one set-up, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wcc" / "__init__.py").is_file():
        print(f"no wcc source tree under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # results are kept per seed; everything else is redone
    results = OUT / args.workload
    work = results / "tmp"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work)
    harness = Harness(wl, args.seed, work)
    try:
        if args.trace:
            job, named, metrics = traced_run(harness, wl)
        else:
            # the certify worker's own set-up is one of the workload's set-ups
            job = Job()
            harness.setups(job, wl.setups - (wl.certify_job is not None))
            harness.job(job, False, "run", args.seconds, wl.jobs)
            metrics = end_to_end(job)
            named = named_figures(wl, job)
    except ReferenceFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        harness.close()

    for metric in metrics.values():  # a failed run may leave a figure undefined
        if not math.isfinite(metric["value"]):
            metric["value"] = 0.0
    result = {
        "correct": not job.failures,
        "attempted": job.attempted,
        "failed": len(job.failures),
        "metrics": metrics,
    }
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "params": wl.params,
        "named": named,
        "setups_s": job.setups,
        "refs_s": job.refs,
        "failures": job.failures,
        "digests": job.digests,
        "environment": environment(),
    }
    path = results / f"result-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(detail, result=result), indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
