import functools
import hashlib
import math
from collections import deque

import mpmath
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
from wcc import projections as pj
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

    @pytest.mark.parametrize("call", [lambda: sv.torus_census(-100.0), lambda: sv.torus_census(0.0),
                                      lambda: sv.torus_sweep([-100.0, -50.0]),
                                      lambda: sv.conjugacy_growth([-100.0, -90.0, -80.0])])
    def test_non_positive_T_builds_no_class_table(self, call, monkeypatch):
        def refuse(trace_bound):
            raise AssertionError(f"class table built for trace bound {trace_bound}")

        monkeypatch.setattr(sv, "conjugacy_classes_sl2", refuse)
        with pytest.raises(ParameterError, match="torus scale T must be positive"):
            call()

    def test_below_the_shortest_class(self):
        shortest = SQRT8 * math.acosh(1.5)
        assert sv.trace_bound_for_length(1.0) == sv.trace_bound_for_length(shortest) == 3
        assert sv.torus_census(1.0)["classes_in_ball"] == 0
        assert [r["weighted_sum"] for r in sv.torus_sweep([1.0, 2.0])["rows"]] == [0.0, 0.0]
        with pytest.raises(ParameterError, match="below the shortest class length"):
            sv.conjugacy_growth([1.0, 2.0, 2.5])


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
        with pytest.raises(ParameterError, match="below the shortest class length"):
            sv.conjugacy_growth([0.5, 1.0, 5.0])

    @pytest.mark.parametrize("grid", [[16.0], [16.0] * 4, [15.0, 16.0], [14.0, 14.0, 16.0]])
    def test_fewer_than_three_distinct_T_are_refused(self, grid):
        with pytest.raises(ParameterError, match="three distinct T"):
            sv.conjugacy_growth(grid)

    def test_three_distinct_T_are_enough(self):
        report = sv.conjugacy_growth([6.0, 7.0, 8.0])
        assert [row["T"] for row in report["rows"]] == [6.0, 7.0, 8.0]
        assert math.isfinite(report["rate_fit"]) and report["rate_std_err"] >= 0.0


class TestAngular:
    def test_psi_constant_reduces_to_counts(self, census_t8):
        records, meta = census_t8
        rs = root_system(2)
        dom = Domain("ball", 8.0)
        vol = domain_volume(rs, dom)
        stats = sv.angular_statistics(
            records, rs, vol.log_value, psi=lambda tp, tm: np.ones_like(tp)
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
        stats = sv.angular_statistics(records, rs, vol.log_value)
        assert stats["ks_plus"] < 0.05
        assert stats["ks_minus"] < 0.05

    def test_sweep_rows_match_per_t_statistics(self):
        spec, rs = LatticeSpec("sl2"), root_system(2)
        report = sv.angular_sweep(spec, [6, 8.0, 7.0], bins=12)
        assert [r["t"] for r in report["rows"]] == [6.0, 8.0, 7.0]
        for row in report["rows"]:
            dom = Domain("ball", row["t"])
            records, _ = enumerate_elements(spec, dom)
            stats = sv.angular_statistics(records, rs, domain_volume(rs, dom).log_value, bins=12)
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

        stats = sv.angular_statistics(records, rs, vol.log_value, psi=psi)
        emp = stats["psi"]["empirical_sum_over_volume"]
        pred = stats["psi"]["predicted_sum_over_volume"]
        # desk-scale equidistribution: a few percent at t = 8
        assert abs(emp / pred - 1.0) < 0.1

    def test_requires_sl2(self):
        records, _ = enumerate_elements(LatticeSpec("sl3"), Domain("ball", 4.0), word_radius=2)
        rs = root_system(3)
        with pytest.raises(ParameterError):
            sv.angular_statistics(records, rs, 0.0)

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

    def test_census_and_its_records_give_one_report(self, census_t8, monkeypatch):
        # a census is read by its columns, a list of records by its records: one report,
        # failures included
        census = census_t8[0]
        lox = [r for r in census if r.loxodromic]
        bad = [lox[2].matrix, lox[-1].matrix]
        rows = lx._flat_bound_rows

        def failing_rows(mats, base):
            return [NumericError("solver stalled") if tuple(map(tuple, m)) in bad else row
                    for m, row in zip(mats.tolist(), rows(mats, base))]

        monkeypatch.setattr(lx, "_flat_bound_rows", failing_rows)
        from_records = sv.flat_bound_survey(lox)
        assert sv.flat_bound_survey(list(census)) == from_records
        assert [f["matrix"] for f in from_records["failures"]] == bad
        monkeypatch.setattr(type(census), "_records", lambda self, rows: pytest.fail("a record was built"))
        assert sv.flat_bound_survey(census) == from_records


@functools.cache
def census_t6():
    return enumerate_elements(LatticeSpec("sl2"), Domain("ball", 6.0))[0]


@functools.cache
def sl3_word_ball():
    return enumerate_elements(LatticeSpec("sl3"), Domain("ball", 5.0), word_radius=3)[0]


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
        self.check(sl3_word_ball(), BasePoint(GroupElement.from_integer([[1, 1, 0], [0, 1, 0], [0, 0, 1]])))

    # every row of the fixed-flag stacks, pinned: each gap as its repr and each error as
    # "type: message", over the loxodromic rows of the sl2 t = 6 census and of the sl3 word
    # ball, each as int64 and as float, at three base points
    PINNED_ROWS = {
        (2, "int64", "origin"): "13bea853e65b39ce47ddda99e7d886c31fc56aa53c4d0852589904b6b00e4fa9",
        (2, "int64", "integer"): "732973980d92db3dd402248c100cfb4e884f2afb8b1fe6989de8dc00a17e5826",
        (2, "int64", "float"): "d963282d3b9210aebaa9ceaf29ab9bffcf0920c0a246a4094000b2753fcfe496",
        (2, "float", "origin"): "a17db5ebc6d15082c7e0e934dd894367d0650114c9080296d942d99af22d2642",
        (2, "float", "integer"): "dabbcd630e555a90cd0166727e3b87e681b3d7c859db2b0f169c69faf04529bd",
        (2, "float", "float"): "7965e66b607caef038158cd2d4429805b8266734b55db2c1e0c60c481cbda47b",
        (3, "int64", "origin"): "e7f10ad49aa869bfb47bd038a5df48f8af534d92fdad70b123b023dd224789be",
        (3, "int64", "integer"): "ea890ad159f259c1a2a5cbef18ea635462cf62d48fe4e5047e6764788cb11436",
        (3, "int64", "float"): "6d7bb03e4981c9bd658b75e96496da16c9c0241deece7fe2266a81b1239df461",
        (3, "float", "origin"): "e67ec7b0ce171d3c40c63e43f7a32b7df11cc0c8682db9eb72213f28ab47726f",
        (3, "float", "integer"): "1cdd18ac0c4eb28859eaf5fe4f3a5e6c282ca7469ce84eb46c7b36065a52082e",
        (3, "float", "float"): "c17265f56e0022159a772fc12578c638e9a4ea9e68ee4ddfc61be39c5b099d93",
    }

    @pytest.mark.parametrize("d, kind, base", sorted(PINNED_ROWS))
    def test_rows_are_pinned(self, d, kind, base):
        census = census_t6() if d == 2 else sl3_word_ball()
        mats = census.table[census.loxodromic].reshape(-1, d, d).astype(kind)
        h = {2: [[2, 1], [1, 1]], 3: [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}[d]
        x = {"origin": BasePoint.origin(d), "integer": BasePoint(GroupElement.from_integer(h)),
             "float": BasePoint(GroupElement.from_cartan_vector(np.linspace(0.3, -0.3, d)))}[base]
        rows = lx._flat_bound_rows(mats, x)
        text = "\n".join(repr(row) if isinstance(row, float) else f"{type(row).__name__}: {row}" for row in rows)
        assert len(rows) == {2: 240, 3: 228}[d]
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_ROWS[d, kind, base]

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


def survey_base(base: str):
    return {"origin": BasePoint.origin(2),
            "integer": BasePoint(GroupElement.from_integer([[2, 1], [1, 1]])),
            "float": BasePoint(GroupElement.from_cartan_vector([0.3, -0.3]))}[base]


class TestClosedFormFlats:
    """The d = 2 axis distances of an integer survey, sqrt(2) asinh(|b - c| / sqrt(tr^2 - 4)) of
    m = h_x^-1 g h_x, against the flat distance of the fixed flags and a 40-digit evaluation."""

    @pytest.mark.parametrize("base", ["origin", "integer", "float"])
    def test_axis_distances(self, census_t8, base):
        census, x = census_t8[0], survey_base(base)
        mats = census.table[census.loxodromic].reshape(-1, 2, 2)
        conj = pj._conjugate_stack(mats, x)
        disc = pj._int_char_discriminant(mats)
        flats = lx._sl2_axis_distances(conj, disc)
        eps = np.finfo(float).eps
        # the fixed-flag path itself strays up to 6.4 eps (1 + value) from the truth at the integer base point
        fixed = np.array([fm.flat_distance(x, fm.TransversePair(*fm.fixed_points(GroupElement(m, check=False))))
                          for m in mats.astype(float)])
        assert np.all(np.abs(flats - fixed) <= 8 * eps * (1 + fixed))
        with mpmath.workdps(40):
            exact = [float(mpmath.sqrt(2) * mpmath.asinh(abs(mpmath.mpf(b) - mpmath.mpf(c)) / mpmath.sqrt(q)))
                     for b, c, q in zip(conj[:, 0, 1].tolist(), conj[:, 1, 0].tolist(), disc.tolist())]
        assert np.all(np.abs(flats - exact) <= 2 * eps * (1 + np.array(exact)))
        symmetric = conj[:, 0, 1] == conj[:, 1, 0]
        assert (base == "float" or symmetric.any()) and np.all(flats[symmetric] == 0.0)

    @pytest.mark.parametrize("base", ["origin", "integer", "float"])
    def test_integer_survey_factors_nothing(self, census_t8, linalg_calls, base):
        census = census_t8[0]
        n = int(np.count_nonzero(census.loxodromic))
        report = sv.flat_bound_survey(census, survey_base(base))
        assert report["violations"] == 0 and report["checked"] == n
        # a float base point leaves only the SVD of the float conjugates' Cartan rows
        want = [("svd", (n, 2, 2))] if base == "float" else []
        assert [call for call in linalg_calls if call[0] in ("eig", "eigvals", "svd", "qr")] == want


class TestBalancedSplit:
    def test_split_counts(self):
        records, _ = enumerate_elements(LatticeSpec("sl3"), Domain("ball", 6.0), word_radius=3)
        rs = root_system(3)
        kappa = 2.0 * rs.delta_zero() / rs.c_gap()
        report = balanced_split(records, T=6.0, kappa=kappa)
        assert report["threshold"] == pytest.approx(6.0 / kappa)
        assert not report["exhaustive"]
        assert report["balanced"] + report["unbalanced"] > 0
