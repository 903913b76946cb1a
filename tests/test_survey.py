import functools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqf_reference import reference_form_classes, reference_power, reference_torus_key
from loxodromy_reference import reference_flat_bound_survey
from survey_reference import balanced_split, class_id_of_matrix, reference_class_id_text
from wcc import bqf
from wcc import flagmetric as fm
from wcc import loxodromy as lx
from wcc import survey as sv
from wcc.errors import NumericError, ParameterError, WccError
from wcc.lattice import LatticeSpec, enumerate_elements
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import root_system
from wcc.volume import Domain, domain_volume

SQRT8 = 2.0 * math.sqrt(2.0)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
S_MAT = np.array([[0, -1], [1, 0]], dtype=object)


@functools.cache
def classes_up_to(trace_bound):
    return sv.conjugacy_classes_sl2(trace_bound)


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
                assert class_id_of_matrix(conj) == rec.class_id

    def test_primitive_powers_partition(self, classes_trace_10):
        # every class is a unique power of a unique primitive class
        for rec in classes_trace_10:
            assert rec.power >= 1
            assert rec.primitive == (rec.power == 1)
            assert rec.length == pytest.approx(rec.power * rec.period_volume, rel=1e-9)

    def test_trace_bound_validation(self):
        with pytest.raises(ParameterError):
            sv.conjugacy_classes_sl2(2)


class TestAgainstReference:
    """The class list and the torus grouping against the per-class root key."""

    def test_ids_powers_and_tori_match_reference(self):
        classes = classes_up_to(300)
        by_trace = {}
        for rec in classes:
            by_trace.setdefault(rec.trace, []).append(rec.class_id[1])
        for t in range(3, 301):
            assert tuple(by_trace[t]) == reference_form_classes(t * t - 4), t
        new_tori, old_tori = {}, {}
        for rec in classes:
            assert rec.power == reference_power(rec.trace, rec.class_id[1][0])
            old_key = reference_torus_key(rec)
            assert rec.root_key == (old_key[0], old_key[2][0])
            new_tori.setdefault(rec.root_key, set()).add(rec.class_id)
            old_tori.setdefault(old_key, set()).add(rec.class_id)
        assert sorted(map(sorted, new_tori.values())) == sorted(map(sorted, old_tori.values()))


class TestProperties:
    @PROPERTY
    @given(st.integers(3, 120), st.data())
    def test_class_id_invariant_under_conjugation(self, trace, data):
        # conjugate by S T^k letter by letter until an entry would pass 10^6
        cids = bqf.form_classes(trace * trace - 4)
        cid = cids[data.draw(st.integers(0, len(cids) - 1))]
        conj = np.array(bqf.matrix_of_form(cid[0], trace), dtype=object)
        letters = data.draw(st.lists(st.integers(-4, 4), min_size=6, max_size=24))
        for k in letters:
            w = S_MAT @ np.array([[1, k], [0, 1]], dtype=object)
            w_inv = np.array([[w[1, 1], -w[0, 1]], [-w[1, 0], w[0, 0]]], dtype=object)
            nxt = w @ conj @ w_inv
            if max(abs(int(x)) for x in nxt.flat) > 10**6:
                break
            conj = nxt
        assert class_id_of_matrix(tuple(map(tuple, conj.tolist()))) == (trace, cid)

    @PROPERTY
    @given(st.data())
    def test_root_key_names_a_primitive_class(self, data):
        classes = classes_up_to(150)
        rec = data.draw(st.sampled_from(classes))
        roots = {(r.trace, r.class_id[1][0]): r for r in classes if r.primitive}
        root = roots[rec.root_key]
        assert root.period_volume == rec.period_volume
        assert rec.length == pytest.approx(rec.power * root.length, rel=1e-12)
        if rec.primitive:
            assert root is rec


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

    def test_reports_equal_with_and_without_the_table(self):
        grid = [10.0, 11.0, 12.0, 13.0, 14.0]
        classes = sv.conjugacy_classes_sl2(sv.trace_bound_for_length(max(grid)))
        assert sv.torus_census(12.0, classes) == sv.torus_census(12.0)
        assert sv.torus_sweep(grid, classes) == sv.torus_sweep(grid)
        assert sv.conjugacy_growth(grid, classes) == sv.conjugacy_growth(grid)


class TestClassIdText:
    """``ClassTable.class_id_text`` is the repr of ``class_id``, built in one pass."""

    @pytest.mark.parametrize("T", [8.0, 12.0, 16.0])
    def test_equals_the_per_row_repr(self, T):
        classes = sv.conjugacy_classes_sl2(sv.trace_bound_for_length(T))
        every = np.arange(len(classes))
        assert classes.class_id_text(every) == reference_class_id_text(classes, every)
        prim = np.flatnonzero(classes.primitive & (classes.length <= T))
        rows = sv.torus_census(T, classes)["rows"]
        assert [r["class_id"] for r in rows] == reference_class_id_text(classes, prim)

    def test_one_form_cycles_and_empty_selections(self):
        # no class of trace <= 300 has a one-form cycle; its tuple repr ends in ",)"
        lengths = np.array([1, 2, 1, 3])
        start = np.r_[0, np.cumsum(lengths)]
        n = len(lengths)
        forms = np.arange(3 * start[-1]).reshape(-1, 3) * np.array([1, -7, 1000])
        classes = sv.ClassTable(forms=forms, start=start, trace=np.array([3, 5, 7, 40]),
                                power=np.ones(n, int), root=np.arange(n),
                                primitive=np.ones(n, bool), jordan=np.zeros((n, 2)),
                                period_volume=np.ones(n), length=np.ones(n))
        for rows in ([0], [2, 0], [3, 1, 0, 2], [1, 1], []):
            rows = np.array(rows, dtype=np.int64)
            assert classes.class_id_text(rows) == reference_class_id_text(classes, rows)
        assert classes.class_id_text(np.array([0])) == ["(3, ((0, -7, 2000),))"]


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

    def test_sweep_rows_match_per_t_statistics(self):
        spec, rs = LatticeSpec("sl2"), root_system(2)
        report = sv.angular_sweep(spec, [6, 8.0, 7.0], bins=12)
        assert [r["t"] for r in report["rows"]] == [6.0, 8.0, 7.0]
        for row in report["rows"]:
            dom = Domain("ball", row["t"])
            records, _ = enumerate_elements(spec, dom)
            stats = sv.angular_statistics(records, rs, dom, domain_volume(rs, dom).log_value,
                                          bins=12)
            assert (row["n_regular"], row["ks_plus"], row["ks_minus"]) == (
                stats["n_regular"], stats["ks_plus"], stats["ks_minus"])

    def test_marginals_agree_by_inversion_closure(self, census_t8):
        # the census is closed under inversion, which swaps the two angular
        # marginals, so their empirical laws coincide exactly
        records, _ = census_t8
        kept = [r for r in records if r.wall_margin > 0]
        tp, tm = sv.sl2_angles(np.array([r.matrix for r in kept]))
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
        rows = lx._flat_bound_rows

        def failing_rows(mats, base):
            out = rows(mats, base)
            for i, m in enumerate(mats.tolist()):
                if tuple(map(tuple, m)) == bad:
                    out[i] = NumericError("solver stalled")
            return out

        monkeypatch.setattr(lx, "_flat_bound_rows", failing_rows)
        report = sv.flat_bound_survey(lox)
        assert (report["checked"], report["violations"]) == (5, 1)
        assert report["failures"] == [{"matrix": bad, "error": "NumericError: solver stalled"}]

        monkeypatch.setattr(lx, "_flat_bound_rows", lambda mats, base: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sv.flat_bound_survey(lox)


@functools.cache
def census_t6():
    return enumerate_elements(LatticeSpec("sl2"), Domain("ball", 6.0))[0]


class TestStackedFlatBound:
    """The stacked survey against the per-element loop it replaced."""

    @pytest.mark.parametrize("base", ["origin", "integer", "float"])
    def test_t6_matches_the_reference(self, base):
        x = {"origin": None,
             "integer": BasePoint(GroupElement.from_integer([[2, 1], [1, 1]])),
             "float": BasePoint(GroupElement.from_cartan_vector([0.3, -0.3]))}[base]
        self.check(census_t6(), x)

    def test_t8_matches_the_reference(self, census_t8):
        self.check(census_t8[0], None)

    def test_sl3_word_ball_matches_the_reference(self):
        census, _ = enumerate_elements(LatticeSpec("sl3"), Domain("ball", 5.0), word_radius=3)
        self.check(census, BasePoint(GroupElement.from_integer([[1, 1, 0], [0, 1, 0], [0, 0, 1]])))

    @pytest.mark.parametrize("base", ["origin", "float"])
    def test_flat_values_are_flat_distance_bit_for_bit(self, base):
        # the stacked F(0) shortcut and the rows it leaves to flat_distance both give
        # exactly what flat_distance returns for the fixed flags of each element
        census, _ = enumerate_elements(LatticeSpec("sl3"), Domain("ball", 5.0), word_radius=3)
        for lox in ([r for r in census_t6() if r.loxodromic], [r for r in census if r.loxodromic]):
            mats = np.array([rec.matrix for rec in lox], dtype=float)
            d = mats.shape[1]
            x = BasePoint.origin(d) if base == "origin" else BasePoint(
                GroupElement.from_cartan_vector(np.linspace(0.3, -0.3, d)))
            pairs = [fm.TransversePair(*fm.fixed_points(GroupElement(m, check=False))) for m in mats]
            want = [fm.flat_distance(x, pair) for pair in pairs]
            assert fm._fixed_flat_distances(x, *np.linalg.eig(mats)) == want
            _, settled = fm._flat_start(x, np.array([pair.witness.mat for pair in pairs]))
            assert settled.any() if base == "origin" else not settled.all()

    @staticmethod
    def check(census, x):
        lox = [rec for rec in census if rec.loxodromic]
        ref = reference_flat_bound_survey(lox, x)
        report = sv.flat_bound_survey(lox, x)
        assert sv.flat_bound_survey(census, x) == report
        for key in ("checked", "violations", "failures"):
            assert report[key] == ref[key], key
        mats = np.array([rec.matrix for rec in lox])
        rows = lx._flat_bound_rows(mats, x or BasePoint.origin(mats.shape[1]))
        gaps = [row for row in rows if not isinstance(row, WccError)]
        assert len(gaps) == len(ref["gaps"]) == report["checked"]
        assert gaps == pytest.approx(ref["gaps"], rel=1e-12, abs=0.0)
        assert report["max_gap"] == pytest.approx(ref["max_gap"], rel=1e-12, abs=0.0)


class TestBalancedSplit:
    def test_split_counts(self):
        records, _ = enumerate_elements(LatticeSpec("sl3"), Domain("ball", 6.0), word_radius=3)
        rs = root_system(3)
        kappa = 2.0 * rs.delta_zero() / rs.c_gap()
        report = balanced_split(records, T=6.0, kappa=kappa)
        assert report["threshold"] == pytest.approx(6.0 / kappa)
        assert not report["exhaustive"]
        assert report["balanced"] + report["unbalanced"] > 0
