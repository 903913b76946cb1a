import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqf_reference import (
    automorph,
    class_id,
    cycle,
    form_of_matrix,
    is_reduced,
    reduce_form,
    reduced_forms,
    reference_class_id,
    reference_form_classes,
    reference_pell4,
    reference_reduced_forms,
    rho_step,
)
from wcc import bqf
from wcc.errors import NumericError, ParameterError

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


class TestReduction:
    def test_reduce_reaches_reduced(self):
        for f in [(1, -1, -1), (3, 11, 5), (-7, 2, 4), (12, 0, -5)]:
            g = reduce_form(f)
            assert is_reduced(g)
            assert bqf.discriminant(g) == bqf.discriminant(f)

    def test_rho_preserves_discriminant(self):
        f = (2, 3, -4)
        for _ in range(10):
            nf = rho_step(f)
            assert bqf.discriminant(nf) == bqf.discriminant(f)
            f = nf

    def test_cycle_closes_and_is_reduced(self):
        for f in [(1, 4, -4), (1, -1, -1), (5, 11, 1)]:
            cyc = cycle(f)
            assert all(is_reduced(g) for g in cyc)
            assert rho_step(cyc[-1]) == cyc[0]

    def test_square_discriminant_rejected(self):
        with pytest.raises(ParameterError):
            is_reduced((1, 3, 0))


class TestClasses:
    def test_known_class_counts(self):
        # verified independently by BFS conjugation closure over the
        # generators (see test_survey for the matrix-level oracle)
        expected = {3: 1, 4: 2, 5: 2, 6: 3, 7: 3, 8: 4, 9: 2, 10: 6}
        for trace, count in expected.items():
            assert len(bqf.form_classes(trace * trace - 4)) == count

    def test_class_id_invariant_in_cycle(self):
        f = (1, 4, -4)
        cyc = cycle(f)
        ids = {class_id(g) for g in cyc}
        assert len(ids) == 1

    def test_classes_partition_reduced_forms(self):
        D = 96
        forms = set(reduced_forms(D))
        union = set()
        for cid in bqf.form_classes(D):
            assert not (union & set(cid))
            union |= set(cid)
        assert union == forms


class TestMatrixCorrespondence:
    def test_roundtrip(self):
        m = ((2, 1), (1, 1))
        f = form_of_matrix(m)
        assert bqf.matrix_of_form(f, 3) == m

    def test_determinant_one_for_all_forms(self):
        for t in range(3, 12):
            D = t * t - 4
            for f in reduced_forms(D):
                (a, b), (c, d) = bqf.matrix_of_form(f, t)
                assert a * d - b * c == 1
                assert a + d == t

    def test_form_equivariance_under_conjugation(self):
        rng = np.random.default_rng(0)
        S = np.array([[0, -1], [1, 0]])
        T = np.array([[1, 1], [0, 1]])
        g = np.array([[2, 1], [1, 1]])
        cid = class_id(form_of_matrix(tuple(map(tuple, g))))
        for _ in range(30):
            w = np.eye(2, dtype=int)
            for _ in range(10):
                w = w @ (S if rng.random() < 0.4 else T)
            wi = np.array([[w[1, 1], -w[0, 1]], [-w[1, 0], w[0, 0]]])
            conj = w @ g @ wi
            assert class_id(form_of_matrix(tuple(map(tuple, conj)))) == cid


class TestAutomorphs:
    def test_pell_fundamental_small(self):
        assert bqf.pell4_fundamental(5) == (3, 1)
        assert bqf.pell4_fundamental(8) == (6, 2)
        assert bqf.pell4_fundamental(12) == (4, 1)

    def test_automorph_fixes_form(self):
        for f in [(1, 1, -1), (1, 2, -2), (1, 4, -4)]:
            m = automorph(f)
            (a, b), (c, d) = m
            assert a * d - b * c == 1
            # the automorph's own fixed form is proportional to f
            fm_ = form_of_matrix(m)
            k = fm_[0] // f[0] if f[0] else fm_[1] // f[1]
            assert fm_ == (f[0] * k, f[1] * k, f[2] * k)

    def test_primitive_split_powers(self):
        # trace 7 content 3 is the square of the golden class
        k, root_trace, (u1, v1), Dp = bqf.primitive_split(7, (-3, 3, 3))
        assert (k, root_trace, Dp) == (2, 3, 5)
        # trace 18 content 4: (18 + sqrt(320))/2 = phi^2 cubed? check k by machinery
        for t in range(3, 20):
            for cid in bqf.form_classes(t * t - 4):
                k, rt, _, _ = bqf.primitive_split(t, cid[0])
                assert k >= 1
                if k == 1:
                    assert rt == t

    def test_power_matrices_match(self):
        # the k-th power of the automorph of the primitive part reproduces
        # the representative matrix exactly
        for t in (7, 18):
            for cid in bqf.form_classes(t * t - 4):
                f = cid[0]
                k, *_ = bqf.primitive_split(t, f)
                m0 = bqf.content(f)
                q = (f[0] // m0, f[1] // m0, f[2] // m0)
                root = np.array(automorph(q), dtype=object)
                power = np.linalg.matrix_power(root, k)
                expected = np.array(bqf.matrix_of_form(f, t), dtype=object)
                assert np.array_equal(power, expected)


def _linear_scan(D, v_cap):
    """The linear Pell search over v <= v_cap at once; None when nothing is found.

    4 + D v^2 stays below 2^53 for the sizes used here, so the float square
    root of a perfect square is exact and the int64 check is exact.
    """
    v = np.arange(1, v_cap + 1, dtype=np.int64)
    uu = 4 + D * v * v
    assert int(uu[-1]) < 2**53
    r = np.rint(np.sqrt(uu.astype(np.float64))).astype(np.int64)
    hit = np.flatnonzero(r * r == uu)
    return (int(r[hit[0]]), int(v[hit[0]])) if hit.size else None


class TestPellContinuedFraction:
    NON_SQUARES = [D for D in range(2, 2001) if not bqf.is_square(D)]

    def test_agrees_with_linear_search(self):
        # every D the linear search solves with v <= 10^5 gets the same
        # answer; for the others the search finds nothing up to 10^5
        v_cap, solved = 10**5, 0
        for D in self.NON_SQUARES:
            u, v = bqf.pell4_fundamental(D)
            if v <= v_cap:
                assert reference_pell4(D, v_cap=v) == (u, v), D
                solved += 1
            else:
                assert _linear_scan(D, v_cap) is None, D
        assert solved == 1167

    def test_scan_agrees_with_reference_search(self):
        for D in (5, 8, 13, 61, 94, 151, 1726):
            try:
                want = reference_pell4(D, v_cap=2000)
            except NumericError:
                want = None
            assert _linear_scan(D, 2000) == want

    def test_solves_the_equation(self):
        for D in self.NON_SQUARES + [t * t - 4 for t in range(3, 2000)]:
            u, v = bqf.pell4_fundamental(D)
            assert u >= 1 and v >= 1
            assert u * u - D * v * v == 4, D

    def test_large_fundamental_solution(self):
        # v = 226153980, far past what a linear search in v reaches
        assert bqf.pell4_fundamental(244) == (3532638098, 226153980)
        m = automorph((1, 0, -61))
        (a, b), (c, d) = m
        assert a * d - b * c == 1
        assert (a + d, c) == (3532638098, 226153980)
        assert form_of_matrix(m) == (226153980, 0, -61 * 226153980)


class TestAgainstReference:
    DISCRIMINANTS = [t * t - 4 for t in range(3, 301)] + [
        D for D in range(5, 600) if D % 4 in (0, 1) and not bqf.is_square(D)
    ]

    def test_reduced_forms_match_reference(self):
        for D in self.DISCRIMINANTS:
            assert reduced_forms(D) == reference_reduced_forms(D), D

    def test_form_classes_match_reference(self):
        # 4099^2 - 4 has isqrt above 4096 and a scan of several blocks
        for D in self.DISCRIMINANTS + [4099 * 4099 - 4]:
            assert bqf.form_classes(D) == reference_form_classes(D), D

    def test_table_of_many_discriminants_matches_one_at_a_time(self):
        forms, start, disc = bqf.cycle_table(self.DISCRIMINANTS)
        rows = list(map(tuple, forms.tolist()))
        got = [[] for _ in self.DISCRIMINANTS]
        for i, j, k in zip(disc.tolist(), start[:-1].tolist(), start[1:].tolist()):
            got[i].append(tuple(rows[j:k]))
        assert [tuple(ids) for ids in got] == [bqf.form_classes(D) for D in self.DISCRIMINANTS]

    def test_class_id_matches_reference(self):
        # reduced forms moved off the window by x -> x + k y, then by S
        rng = np.random.default_rng(11)
        for _ in range(300):
            t = int(rng.integers(3, 60))
            forms = reduced_forms(t * t - 4)
            A, B, C = forms[int(rng.integers(len(forms)))]
            k = int(rng.integers(-50, 51))
            g = (A, B + 2 * A * k, A * k * k + B * k + C)
            for h in (g, (g[2], -g[1], g[0])):
                assert bqf.discriminant(h) == t * t - 4
                assert class_id(h) == reference_class_id(h)


class TestProperties:
    @PROPERTY
    @given(st.integers(3, 400))
    def test_classes_partition_reduced_forms_as_reference(self, t):
        D = t * t - 4
        classes = bqf.form_classes(D)
        walked = [f for cid in classes for f in cid]
        assert sorted(walked) == reduced_forms(D)
        assert all(cid == class_id(cid[0]) for cid in classes)
        assert classes == reference_form_classes(D)
