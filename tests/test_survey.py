import math
from collections import deque

import numpy as np
import pytest

from wcc import loxodromy as lx
from wcc import survey as sv
from wcc.errors import NumericError, ParameterError
from wcc.lattice import LatticeSpec, enumerate_elements
from wcc.rootsys import root_system
from wcc.volume import Domain, domain_volume

SQRT8 = 2.0 * math.sqrt(2.0)


def bfs_conjugacy_class_count(trace, entry_bound=40, expand_bound=160):
    """Independent matrix-level oracle: conjugation closure over generators."""
    mats = set()
    for a in range(-entry_bound, entry_bound + 1):
        d = trace - a
        bc = a * d - 1
        for b in range(-entry_bound, entry_bound + 1):
            if b != 0 and bc % b == 0:
                c = bc // b
                if abs(c) <= entry_bound:
                    mats.add(((a, b), (c, d)))
            if b == 0 and bc == 0:
                for c in range(-entry_bound, entry_bound + 1):
                    mats.add(((a, 0), (c, d)))
    conj = []
    for g, gi in [
        (np.array([[0, -1], [1, 0]]), np.array([[0, 1], [-1, 0]])),
        (np.array([[0, 1], [-1, 0]]), np.array([[0, -1], [1, 0]])),
        (np.array([[1, 1], [0, 1]]), np.array([[1, -1], [0, 1]])),
        (np.array([[1, -1], [0, 1]]), np.array([[1, 1], [0, 1]])),
    ]:
        conj.append((g, gi))
    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    frontier = deque(mats)
    explored = set(mats)
    while frontier:
        key = frontier.popleft()
        m = np.array(key)
        for g, gi in conj:
            nxt = tuple(map(tuple, g @ m @ gi))
            if max(abs(x) for row in nxt for x in row) <= expand_bound:
                union(key, nxt)
                if nxt not in explored:
                    explored.add(nxt)
                    frontier.append(nxt)
    return len({find(m) for m in mats})


class TestConjugacyClasses:
    def test_counts_match_bfs_oracle(self, classes_trace_10):
        by_trace = {}
        for rec in classes_trace_10:
            by_trace[rec.trace] = by_trace.get(rec.trace, 0) + 1
        for t in range(3, 11):
            assert by_trace[t] == bfs_conjugacy_class_count(t), f"trace {t}"

    def test_total_count(self, classes_trace_10):
        assert len(classes_trace_10) == 23

    def test_golden_class_data(self, classes_trace_10):
        golden = [c for c in classes_trace_10 if c.trace == 3]
        assert len(golden) == 1
        rec = golden[0]
        assert rec.primitive and rec.power == 1
        phi = (1 + math.sqrt(5.0)) / 2.0
        assert rec.jordan == pytest.approx([2 * math.log(phi), -2 * math.log(phi)])
        assert rec.period_volume == pytest.approx(SQRT8 * 2 * math.log(phi), rel=1e-12)
        # normalized units: the entropy times the Killing length is the
        # classical curvature -1 length 2 arccosh(3/2)
        d0 = root_system(2).delta_zero()
        assert d0 * rec.period_volume == pytest.approx(2.0 * math.acosh(1.5), rel=1e-12)

    def test_class_id_conjugation_invariant(self, classes_trace_10):
        rng = np.random.default_rng(1)
        S = np.array([[0, -1], [1, 0]])
        T = np.array([[1, 1], [0, 1]])
        from wcc import bqf

        for rec in classes_trace_10[:6]:
            rep = np.array(bqf.matrix_of_form(rec.class_id[1][0], rec.trace))
            for _ in range(20):
                w = np.eye(2, dtype=int)
                for _ in range(8):
                    w = w @ (S if rng.random() < 0.5 else T)
                wi = np.array([[w[1, 1], -w[0, 1]], [-w[1, 0], w[0, 0]]])
                conj = tuple(map(tuple, w @ rep @ wi))
                assert sv.class_id_of_matrix(conj) == rec.class_id

    def test_primitive_powers_partition(self, classes_trace_10):
        # every class is a unique power of a unique primitive class
        for rec in classes_trace_10:
            assert rec.power >= 1
            assert rec.primitive == (rec.power == 1)
            assert rec.length == pytest.approx(rec.power * rec.period_volume, rel=1e-9)

    def test_trace_bound_validation(self):
        with pytest.raises(ParameterError):
            sv.conjugacy_classes_sl2(2)


class TestTorusCensus:
    def test_regrouping_identity_exact(self):
        for T in (8.0, 10.0, 12.0):
            census = sv.torus_census(T)
            assert census["regroup_exact"]
            assert census["left_sum"] == pytest.approx(census["right_sum"], rel=1e-12)

    def test_multiplicities_floor(self):
        census = sv.torus_census(12.0)
        for row in census["rows"]:
            assert row["multiplicity"] == int(12.0 / row["period_volume"])

    def test_weighted_sum_monotone_in_T(self):
        sums = [sv.torus_census(T)["right_sum"] for T in (8.0, 10.0, 12.0, 13.0)]
        assert all(a <= b for a, b in zip(sums, sums[1:]))

    def test_sweep_stabilizes(self):
        report = sv.torus_sweep([10.0, 11.0, 12.0, 13.0])
        assert report["tail_relative_change"] < 0.25
        assert all(r["regroup_exact"] for r in report["rows"])


class TestGrowth:
    def test_counts_monotone_and_rate(self):
        report = sv.conjugacy_growth([10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0])
        assert report["monotone"]
        d0 = root_system(2).delta_zero()
        assert abs(report["rate_fit"] / d0 - 1.0) < 0.1
        assert np.isfinite(report["poly_exponent_fit"])
        assert report["poly_exponent_std_err"] >= 0.0

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            sv.conjugacy_growth([0.5, 1.0])


class TestAngular:
    def test_psi_constant_reduces_to_counts(self, census_t8):
        records, meta = census_t8
        rs = root_system(2)
        dom = Domain("ball", 8.0)
        vol = domain_volume(rs, dom)
        stats = sv.angular_statistics(
            records, rs, dom, vol.log_value, psi=lambda tp, tm: np.ones_like(tp)
        )
        n_reg = sum(1 for r in records if r.wall_margin > 0)
        assert stats["psi"]["empirical_sum_over_volume"] == pytest.approx(
            n_reg / math.exp(vol.log_value), rel=1e-12
        )
        assert stats["n_regular"] == n_reg

    def test_ks_small_at_desk_scale(self, census_t8):
        records, _ = census_t8
        rs = root_system(2)
        dom = Domain("ball", 8.0)
        vol = domain_volume(rs, dom)
        stats = sv.angular_statistics(records, rs, dom, vol.log_value)
        assert stats["ks_plus"] < 0.05
        assert stats["ks_minus"] < 0.05

    def test_marginals_agree_by_inversion_closure(self, census_t8):
        # the census is closed under inversion, which swaps the two angular
        # marginals, so their empirical laws coincide exactly
        records, _ = census_t8
        kept = [r for r in records if r.wall_margin > 0]
        tp, tm = sv.sl2_angles(kept)
        assert np.allclose(np.sort(tp), np.sort(tm), atol=1e-9)

    def test_smooth_psi_matches_reference(self, census_t8):
        records, _ = census_t8
        rs = root_system(2)
        dom = Domain("ball", 8.0)
        vol = domain_volume(rs, dom)

        def psi(tp, tm):
            return np.sin(2 * tp) ** 2 * np.cos(2 * tm) ** 2 + 0.5

        stats = sv.angular_statistics(records, rs, dom, vol.log_value, psi=psi)
        emp = stats["psi"]["empirical_sum_over_volume"]
        pred = stats["psi"]["predicted_sum_over_volume"]
        # desk-scale equidistribution: a few percent at t = 8
        assert abs(emp / pred - 1.0) < 0.1

    def test_requires_sl2(self):
        records, _ = enumerate_elements(LatticeSpec("sl3"), Domain("ball", 4.0), word_radius=2)
        rs = root_system(3)
        with pytest.raises(ParameterError):
            sv.angular_statistics(records, rs, Domain("ball", 4.0), 0.0)

    def test_ks_uniform_oracle(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(0.0, math.pi, 200000)
        assert sv.ks_to_uniform(samples) < 0.005
        biased = np.concatenate([samples, np.full(20000, 0.3)])
        assert sv.ks_to_uniform(biased) > 0.05


class TestJordanCartanSurvey:
    def test_gaps_monotone_and_finite(self):
        report = sv.jordan_cartan_survey(10, radii=(0, 2, 4))
        assert report["monotone"]
        assert np.isfinite(report["C_Gamma"])
        assert report["C_Gamma"] >= 0.0

    def test_diagonalizable_classes_reach_small_gap(self):
        report = sv.jordan_cartan_survey(4, radii=(0, 2, 4, 6))
        for row in report["rows"]:
            assert row["gaps"][6] <= row["gaps"][0] + 1e-12

    def test_flat_bound_on_census(self, census_t8):
        records, _ = census_t8
        lox = [r for r in records if r.loxodromic][:120]
        report = sv.flat_bound_survey(lox)
        assert report["violations"] == 0
        assert report["checked"] == len(lox)
        assert report["failures"] == []

    def test_flat_bound_lists_failures_and_lets_other_errors_through(self, census_t8, monkeypatch):
        records, _ = census_t8
        lox = [r for r in records if r.loxodromic][:6]
        bad = lox[2].matrix
        gap = lx.jordan_cartan_gap

        def failing_gap(g, base):
            if tuple(map(tuple, g.int_mat)) == bad:
                raise NumericError("solver stalled")
            return gap(g, base)

        monkeypatch.setattr(lx, "jordan_cartan_gap", failing_gap)
        report = sv.flat_bound_survey(lox)
        assert (report["checked"], report["violations"]) == (5, 1)
        assert report["failures"] == [{"matrix": bad, "error": "NumericError: solver stalled"}]

        monkeypatch.setattr(lx, "jordan_cartan_gap", lambda g, base: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sv.flat_bound_survey(lox)


class TestBalancedSplit:
    def test_split_counts(self):
        records, _ = enumerate_elements(LatticeSpec("sl3"), Domain("ball", 6.0), word_radius=3)
        rs = root_system(3)
        kappa = 2.0 * rs.delta_zero() / rs.c_gap()
        report = sv.balanced_split(records, T=6.0, kappa=kappa)
        assert report["threshold"] == pytest.approx(6.0 / kappa)
        assert not report["exhaustive"]
        assert report["balanced"] + report["unbalanced"] > 0
