"""Fixed reference computation that run.py times next to every job.

    python3 perfbench/reference.py

Its time is the unit of the `wall_per_ref` metric.  On a shared machine the
speed of a CPU drifts by up to 1.5x over minutes; this program is timed in
the same minute as the job and does the same kind of work (a fresh
interpreter importing numpy, then a Python loop of small-matrix SVDs and
eigenvalues that builds and sorts tuples), so the drift cancels in the
ratio.  It uses no wcc code, so no change to the library moves it.
Changing it changes the unit: do so only in a change of its own that
re-measures the baseline.
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(12345)
    rows = []
    for m in rng.integers(-50, 51, size=(6000, 2, 2)).astype(float):
        s = np.linalg.svd(m, compute_uv=False)
        w = np.linalg.eigvals(m)
        rows.append((tuple(m.ravel()), float(s[0]), float(abs(w[0]))))
    rows.sort()


if __name__ == "__main__":
    main()
