import decimal
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from wcc import volume as V
from wcc.errors import NumericError, ParameterError, PreconditionError, WccError
from wcc.rootsys import RootSystemA, root_system
from wcc.volume import Domain

from volume_reference import (
    _sample_chamber_point,
    _wall_scale,
    contains_cartan,
    decimal_box_log_volume,
    doubling_converge,
    expansion_box_volume,
    hc_integrand,
    lipschitz_probe,
    max_wall_distance,
    monte_carlo_volume,
    reference_log_quad_2d,
    well_rounded_probe,
)


def bisected_chamber_window(rs):
    """Ends of the d=3 chamber window about b1, each by 200-step bisection."""
    b1, b2, _, _ = V._chamber_arc(rs)

    def all_roots_nonneg(theta):
        u = math.cos(theta) * b1 + math.sin(theta) * b2
        return all(float(c @ u) >= -1e-15 for c in rs.simple_roots)

    def boundary(side):
        lo, hi = 0.0, side * math.pi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if all_roots_nonneg(mid):
                lo = mid
            else:
                hi = mid
        return lo

    return boundary(-1.0), boundary(+1.0)


def scanned_max_wall_distance(rs, t):
    """Largest wall distance on the d=3 ball by a 2,001-angle scan of the window."""
    b1, b2, _, _ = V._chamber_arc(rs)
    thetas = np.linspace(*bisected_chamber_window(rs), 2001)
    dirs = np.outer(np.cos(thetas), b1) + np.outer(np.sin(thetas), b2)
    return t * max(_wall_scale(rs, u) for u in dirs)


def grid_split_points(rs, t, margin):
    """Window cuts where the nearest wall switches and where min(t, margin/w)
    starts clipping, located on a 2,049-point theta grid and bisected."""
    b1, b2, _, _ = V._chamber_arc(rs)
    th_lo, th_hi = bisected_chamber_window(rs)

    def wall_of(theta):
        return _wall_scale(rs, math.cos(theta) * b1 + math.sin(theta) * b2)

    def refine(fn, a, b):
        # bisect a sign change of fn on [a, b]
        for _ in range(100):
            mid = 0.5 * (a + b)
            if fn(a) * fn(mid) <= 0:
                b = mid
            else:
                a = mid
        return 0.5 * (a + b)

    grid = np.linspace(th_lo, th_hi, 2049)
    cuts = {th_lo, th_hi}
    alphas = [np.array(c) for c in rs.simple_roots]
    scaled = [
        np.array([float(a @ (math.cos(th) * b1 + math.sin(th) * b2)) / rs.dual_norm(a)
                  for th in grid])
        for a in alphas
    ]
    argmins = np.argmin(np.array(scaled), axis=0)
    for idx in np.nonzero(np.diff(argmins))[0]:
        i, j = argmins[idx], argmins[idx + 1]
        cuts.add(refine(
            lambda th: (float(alphas[i] @ (math.cos(th) * b1 + math.sin(th) * b2)) / rs.dual_norm(alphas[i])
                        - float(alphas[j] @ (math.cos(th) * b1 + math.sin(th) * b2)) / rs.dual_norm(alphas[j])),
            float(grid[idx]), float(grid[idx + 1]),
        ))
    if margin > 0.0:
        level = margin / t
        vals = np.min(np.array(scaled), axis=0) - level
        for idx in np.nonzero(np.diff(np.sign(vals)))[0]:
            cuts.add(refine(lambda th: wall_of(th) - level,
                            float(grid[idx]), float(grid[idx + 1])))
    return sorted(cuts)


def same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestIntegrand:
    def test_zero_on_walls(self):
        assert hc_integrand(2, [0.0, 0.0]) == 0.0
        assert hc_integrand(3, [1.0, 1.0, -2.0]) == 0.0

    def test_sl2_single_root(self):
        for s in (0.3, 1.0, 2.0):
            assert hc_integrand(2, [s, -s]) == pytest.approx(math.sinh(2 * s), rel=1e-12)

    def test_sl3_example(self):
        val = hc_integrand(3, [1.0, 0.0, -1.0])
        assert val == pytest.approx(math.sinh(1.0) ** 2 * math.sinh(2.0), rel=1e-12)

    def test_outside_chamber_rejected(self):
        with pytest.raises(PreconditionError):
            hc_integrand(3, [-1.0, 0.0, 1.0])


class TestBallVolume:
    def test_closed_form_d2(self):
        for t in (0.5, 1.0, 4.0, 8.0):
            res = V.ball_volume(2, t)
            assert res.value == pytest.approx(V.closed_form_ball_d2(t), rel=1e-9)

    @pytest.mark.parametrize("t", [1e-6, 1000.0, 1500.0, 3000.0, 1e4])
    def test_d2_cross_check_in_logs(self, t):
        # the closed form cosh(t / sqrt 2) - 1 cancels near t = 0 and overflows from
        # t = 1005; the cross-check compares logs, so neither refuses a converged value
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            x = decimal.Decimal(t) / decimal.Decimal(2).sqrt()
            exact = float((decimal.Decimal(2).sqrt() * ((x.exp() + (-x).exp()) / 2 - 1)).ln())
        res = V.ball_volume(2, t)
        assert abs(res.log_value - exact) <= 1e-9
        assert res.extras["closed_form"] == V.closed_form_ball_d2(t)
        assert (res.value == math.inf) == (t >= 1000.0)
        assert (res.extras["closed_form"] == math.inf) == (t > 1000.0)

    def test_small_t_vanishes(self):
        assert V.ball_volume(3, 1e-4).value < 1e-10

    def test_monotone_in_t(self):
        for d in (2, 3):
            vols = [V.ball_volume(d, t).log_value for t in (2.0, 4.0, 6.0, 8.0)]
            assert all(a < b for a, b in zip(vols, vols[1:]))

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ParameterError):
            V.ball_volume(2, 0.0)

    def test_growth_exponent_fit(self):
        grid = [16.0, 18.0, 20.0, 22.0, 24.0]
        for d in (2, 3):
            rs = root_system(d)
            logs = [V.ball_volume(rs, t).log_value for t in grid]
            fit = V.fit_growth(rs, grid, logs)
            assert abs(fit["delta_fit"] / rs.delta_zero() - 1.0) < 0.02

    def test_sandwich_between_exponentials(self):
        # log vol - delta0 t stays between constants and r log t + constant
        for d in (2, 3):
            rs = root_system(d)
            d0 = rs.delta_zero()
            rows = [(t, V.ball_volume(rs, t).log_value - d0 * t) for t in (8.0, 10.0, 12.0, 14.0)]
            residuals = [x for _, x in rows]
            assert max(residuals) - min(residuals) < (d - 1) * math.log(rows[-1][0]) + 2.0


class TestChamberGeometry:
    """The closed-form A2 window, wall distance and cuts against their numeric oracles."""

    def test_window_matches_bisection(self):
        rs = root_system(3)
        _, _, lo, hi = V._chamber_arc(rs)
        assert (lo, hi) == (-math.pi / 6, math.pi / 6)
        assert np.allclose(bisected_chamber_window(rs), (lo, hi), rtol=0.0, atol=1e-12)

    def test_wall_distance_is_a_sine_on_the_window(self):
        rs = root_system(3)
        b1, b2, lo, hi = V._chamber_arc(rs)
        for th in np.linspace(lo, hi, 401):
            w = _wall_scale(rs, math.cos(th) * b1 + math.sin(th) * b2)
            assert abs(w - math.sin(math.pi / 6 - abs(th))) < 1e-12

    @pytest.mark.parametrize("t", [0.5, 4.0, 8.0, 13.7])
    def test_max_wall_distance_matches_scan(self, t):
        rs = root_system(3)
        wmax = max_wall_distance(rs, Domain("ball", t))
        assert wmax == pytest.approx(scanned_max_wall_distance(rs, t), rel=1e-12, abs=0.0)
        assert wmax == pytest.approx(t / 2.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("t, margin", [
        (8.0, 0.5), (8.0, 0.8), (8.0, 2.0), (8.0, 3.9), (8.0, 4.5), (6.0, 1.0), (2.5, 0.1), (5.0, 2.4999),
    ])
    def test_cuts_match_grid_split_points(self, t, margin):
        rs = root_system(3)
        _, _, lo, hi = V._chamber_arc(rs)
        cuts = V._arc_cuts(lo, hi, t, margin)
        oracle = grid_split_points(rs, t, margin)
        assert len(cuts) == len(oracle)
        assert np.allclose(cuts, oracle, rtol=0.0, atol=1e-12)
        assert V._arc_cuts(lo, hi, t, 0.0) == [lo, hi]


class TestStackedWallDistance:
    """The ball quadrature reads its wall distances from the stacked
    ``RootSystemA.wall_distances``, one call per rule of outer nodes."""

    @staticmethod
    def rules(monkeypatch, t, margin):
        """(a, b, lo2_fn) of each 2-D rule of the d=3 ball integral at this margin."""
        calls = []
        monkeypatch.setattr(V, "_log_quad_2d", lambda *args: calls.append(args) or (0.0, 0.0))
        V._region_log_integral(root_system(3), Domain("ball", t), "hc", margin)
        return [(a, b, lo2_fn) for _, a, b, lo2_fn, _, _ in calls]

    @pytest.mark.parametrize("t, margin", [
        (2.0, 0.1), (5.0, 1.0), (8.0, 0.8), (8.0, 2.0), (8.0, 3.9), (12.0, 5.9), (8.0, 4.0),
    ])
    def test_inner_bound_is_the_per_node_bound(self, monkeypatch, t, margin):
        rs = root_system(3)
        b1, b2, _, _ = V._chamber_arc(rs)
        rules = self.rules(monkeypatch, t, margin)
        assert bool(rules) == (margin < t / 2.0)  # t/2 is the largest wall distance
        for a, b, lo2_fn in rules:
            for n in (24, 48, 96, 192):
                u = 0.5 * (b - a) * V._gauss_legendre(n)[0] + 0.5 * (b + a)
                want = []
                for th in u:
                    w = _wall_scale(rs, math.cos(th) * b1 + math.sin(th) * b2)
                    want.append(t if w <= 0.0 else min(t, margin / w))
                assert np.broadcast_to(lo2_fn(u), u.shape).tobytes() == np.array(want).tobytes()

    def test_slab_volume_calls_the_kernel_once_per_rule(self, monkeypatch):
        kernel, shapes, per_rule, norms = RootSystemA.wall_distances, [], [], []
        quad = V._log_quad_2d

        def counted_quad(density, a, b, lo2_fn, hi2_fn, rel_tol=V.QUAD_REL_TOL):
            def lo2(u):
                before = len(shapes)
                out = lo2_fn(u)
                per_rule.append((len(u), shapes[before:]))
                return out

            return quad(density, a, b, lo2, hi2_fn, rel_tol)

        monkeypatch.setattr(RootSystemA, "wall_distances",
                            lambda rs, ys: shapes.append(np.shape(ys)) or kernel(rs, ys))
        monkeypatch.setattr(RootSystemA, "dual_norm", lambda rs, c: norms.append(c))
        monkeypatch.setattr(V, "_log_quad_2d", counted_quad)
        V.slab_volume(root_system(3), 8.0, 0.8)
        assert norms == []
        # a rule of the margin-free integrals reads no wall distance, one of the
        # 0.8-margin integral reads all its outer nodes at once
        assert all(calls in ([], [(n, 3)]) for n, calls in per_rule)
        in_rules = sum(len(calls) for _, calls in per_rule)
        assert 0 < in_rules < len(per_rule) < 100
        # the rest are the empty-window tests, one direction per piece of the 0.8 arc
        assert shapes.count((3,)) == len(shapes) - in_rules == 4


class TestPinnedVolumes:
    """sl3 volumes at t = 8 as computed with the bisected window and the grid
    cuts above; the closed forms must agree to 1e-12 relative."""

    def test_ball(self):
        rs = root_system(3)
        assert abs(V.ball_volume(rs, 8.0).log_value - 8.51612061748162) <= 1e-12
        assert abs(V.domain_volume(rs, Domain("ball", 8.0)).log_value - 8.51612061748162) <= 1e-12

    @pytest.mark.parametrize("s, log_value, log_ratio", [
        (0.5, 8.141680162836279, -0.3744404546453417),
        (0.8, 8.694202073620772, 0.17808145613915194),
        (2.0, 9.908449709729405, 1.3923290922477847),
    ])
    def test_slab(self, s, log_value, log_ratio):
        res = V.slab_volume(root_system(3), 8.0, s)
        assert abs(res.log_value - log_value) <= 1e-12
        assert abs(res.extras["log_ratio"] - log_ratio) <= 1e-12

    @pytest.mark.parametrize("margin, log_value", [
        (0.5, 8.494490293971324), (2.0, 8.108632379264566), (3.9, 3.290768991187151),
    ])
    def test_regular_margin(self, margin, log_value):
        res = V.domain_volume(root_system(3), Domain("ball", 8.0, regular_margin=margin))
        assert abs(res.log_value - log_value) <= 1e-12

    def test_slab_domain(self):
        res = V.domain_volume(root_system(3), Domain("ball", 8.0, slab=0.8))
        assert abs(res.log_value - 5.60990840274369) <= 1e-12


class TestMeasuredError:
    """Volume results report the last doubling delta, not the requested tolerance."""

    def test_ball_reports_its_delta(self):
        for d in (2, 3):
            rs = root_system(d)
            res = V.ball_volume(rs, 6.0)
            assert res.error_estimate == V._region_log_integral(rs, Domain("ball", 6.0), "hc")[1]
            assert 0.0 <= res.error_estimate < V.QUAD_REL_TOL

    def test_regular_margin_reports_its_delta(self):
        rs = root_system(3)
        dom = Domain("ball", 8.0, regular_margin=2.0)
        res = V.domain_volume(rs, dom)
        assert res.error_estimate == V._region_log_integral(rs, dom, "hc", 2.0)[1] < V.QUAD_REL_TOL

    def test_slab_reports_the_larger_delta(self):
        rs = root_system(3)
        dom = Domain("ball", 8.0)
        res = V.slab_volume(rs, 8.0, 0.8)
        deltas = [V._region_log_integral(rs, dom, "two_rho", m)[1] for m in (0.0, 0.8)]
        assert res.error_estimate == max(deltas) < V.QUAD_REL_TOL
        slab = V.domain_volume(rs, Domain("ball", 8.0, slab=0.8))
        deltas = [V._region_log_integral(rs, dom, "hc", m)[1] for m in (0.0, 0.8)]
        assert slab.error_estimate == max(deltas) < V.QUAD_REL_TOL

    def test_box(self):
        # the closed form reports its rounding bound, which covers the 50-digit error
        res = V.box_volume(3, 5.0, (1.0, 1.0))
        true_error = abs(decimal.Decimal(res.log_value) - decimal_box_log_volume(3, 5.0, (1.0, 1.0)))
        assert 0.0 < float(true_error) <= res.error_estimate <= 1e-12 * abs(res.log_value)
        quad = V.box_volume_quadrature(3, 5.0, (1.0, 1.0))
        assert 0.0 <= quad.error_estimate < V.QUAD_REL_TOL


class TestStalledQuadrature:
    """A doubling whose delta stops shrinking is refused at once; the doubling without that
    refusal (``doubling_converge``) is the oracle of every result that converges."""

    def test_the_rounding_floor_is_refused_with_its_figures(self, alarm):
        # the values at 1536, 3072 and 6144 nodes agree to 12 digits, but their deltas stay near
        # 2e-8, the rounding level of the rule: no doubling takes them below 1e-9
        with pytest.raises(NumericError, match=r"log value 115474\.434\d*: delta (\S+) at 1536 nodes") as err:
            V.ball_volume(3, 1e5)
        delta = float(re.search(r"delta (\S+) at", str(err.value)).group(1))
        assert V.QUAD_REL_TOL < delta <= 115475.0 * math.ulp(1.0) * 1536

    def test_an_unresolvable_box_is_refused_before_any_node(self, monkeypatch):
        # t * edge past rel_tol / eps = 4.5e6: the log value grows with it (about t a at d = 2,
        # 4 t a at d = 3) past what the doubling resolves, and at 1e308 the nodes' images overflow
        monkeypatch.setattr(V, "_gauss_legendre", None)
        for d, t, edges in ((3, 1e308, (1.0, 1.0)), (3, 1.0, (1e308, 1.0)), (3, 1.0, (1.0, 5e6)), (2, 5e6, (1.0,))):
            with pytest.raises(NumericError, match=re.escape(f"t * edge = {t * max(edges)} to 1e-09")):
                V.box_volume_quadrature(d, t, edges)

    def test_a_non_finite_delta_keeps_doubling(self):
        # an empty first rule (log 0) and a non-finite value have no delta to compare: the
        # doubling goes on, as it did, and converges or fails as the old doubling does
        for values in ({24: V.LOG_ZERO}, {48: math.nan}, {24: V.LOG_ZERO, 48: math.inf}):
            def evaluate(n, values=values):
                return values.get(n, 1.0 + 10.0 / n**6)

            value, delta = V._converge(evaluate)
            assert (value, delta) == doubling_converge(evaluate) and delta < V.QUAD_REL_TOL

    def test_converging_results_are_unchanged(self, monkeypatch):
        # t up to 1e4, where every case below converges; bit for bit, deltas included
        def results():
            out = []
            for d, t in itertools.product((2, 3), (0.01, 10.0, 1000.0, 1e4)):
                rs, edges = root_system(d), (1.0, 1e-3)[: d - 1]
                for domain, integrand, margin, rel_tol in (
                        (Domain("ball", t), "hc", 0.0, V.QUAD_REL_TOL),
                        (Domain("ball", t), "two_rho", 0.2 * t, 1e-7),
                        (Domain("box", t, edges), "hc", 0.0, V.QUAD_REL_TOL),
                        (Domain("box", t, edges), "hc", 0.1 * t, V.QUAD_REL_TOL)):
                    out.append(V._region_log_integral(rs, domain, integrand, margin, rel_tol))
            return out

        new = results()
        monkeypatch.setattr(V, "_converge", doubling_converge)
        assert new == results()


class TestGaussLegendreRules:
    """Each Gauss-Legendre rule is computed once per node count and shared read-only."""

    def test_rules_are_cached_and_read_only(self):
        x, w = V._gauss_legendre(24)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert V._gauss_legendre(24)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(24)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)

    def test_cold_warm_and_uncached_results_are_bit_identical(self, monkeypatch):
        rs2, rs3 = root_system(2), root_system(3)

        def results():
            runs = [
                V.domain_volume(rs3, Domain("ball", 8.0)),
                V.domain_volume(rs3, Domain("ball", 8.0, regular_margin=2.0)),
                V.domain_volume(rs2, Domain("ball", 4.0)),
                V.slab_volume(rs3, 8.0, 0.8),
                V.box_volume(rs3, 5.0, (1.0, 1.0)),
                V.box_volume_quadrature(rs3, 5.0, (1.0, 1.0)),
            ]
            return [(r.log_value, r.value, r.error_estimate, r.extras) for r in runs]

        V._gauss_legendre.cache_clear()
        cold = results()
        assert V._gauss_legendre.cache_info().misses > 0
        warm = results()
        monkeypatch.setattr(V, "_gauss_legendre", np.polynomial.legendre.leggauss)
        assert cold == warm == results()


class TestStackedQuadrature:
    """The stacked 2-D rule gives the per-node loop's floats exactly."""

    @staticmethod
    def runs():
        rs3 = root_system(3)
        out = []
        for t in (2.0, 8.0, 12.0):
            out += [
                V.domain_volume(rs3, Domain("ball", t)),
                V.domain_volume(rs3, Domain("ball", t, regular_margin=0.5)),
                V.domain_volume(rs3, Domain("ball", t, regular_margin=0.6 * t)),
                V.slab_volume(rs3, t, 0.1 * t),
                V.box_volume_quadrature(rs3, t, (1.0, 1.0)),
                V.box_volume_quadrature(rs3, t, (0.3, 2.0)),
                V.domain_volume(rs3, Domain("box", t, (1.0, 0.5), regular_margin=0.2)),
                V.slab_volume(rs3, t, 0.2 * t, "box", (1.0, 1.0)),
            ]
        return [(r.log_value, r.value, r.error_estimate, r.extras) for r in out]

    def test_ball_slab_box_and_margin_volumes(self, monkeypatch):
        stacked = self.runs()
        monkeypatch.setattr(V, "_QUAD_BLOCK", 50)  # blocks of one outer row, then of two
        assert self.runs() == stacked
        monkeypatch.setattr(V, "_log_quad_2d", reference_log_quad_2d)
        assert self.runs() == stacked

    @pytest.mark.parametrize("lo2_fn, hi2_fn", [
        (lambda u: u, lambda u: 1.0 - u),  # the inner window empties past u = 1/2
        (lambda u: 0.0, lambda u: np.where(u < 0.0, 1.0, 0.0)),  # empty where u >= 0
        (lambda u: 1.0, lambda u: 1.0),  # empty everywhere
    ])
    def test_empty_inner_windows(self, lo2_fn, hi2_fn):
        def density(u, v):
            return np.log1p(u * u + v * v) + 3.0 * v

        # a loose tolerance: the window edge is a kink the doubling converges on slowly
        args = (density, -1.0, 1.0, lo2_fn, hi2_fn, 1e-4)
        assert V._log_quad_2d(*args) == reference_log_quad_2d(*args)

    @pytest.mark.parametrize("density", [
        # -inf only where exp(density) is below e^-170 of the peak, so the rule converges
        lambda u, v: np.where(np.abs(u) > 1.33, -np.inf, v - 100.0 * u * u),  # whole rows
        lambda u, v: np.where(np.abs(v) > 1.33, -np.inf, u - 100.0 * v * v),  # part of each row
        lambda u, v: np.full_like(v, -np.inf),  # every row: the integral is 0
    ])
    def test_rows_at_minus_infinity(self, density):
        args = (density, -2.0, 2.0, lambda u: -2.0, lambda u: 2.0)
        assert V._log_quad_2d(*args) == reference_log_quad_2d(*args)


class TestLogsumexp:
    """The numpy logsumexp is bit-identical to scipy.special.logsumexp."""

    def test_quadrature_like_inputs(self):
        from scipy.special import logsumexp as reference

        rng = np.random.default_rng(29)
        for n in (2, 3, 24, 48, 97, 384):
            x, w = np.polynomial.legendre.leggauss(n)
            for scale in (1e-3, 1.0, 40.0, 400.0):
                a = scale * rng.normal(size=n) + rng.uniform(-50.0, 50.0) + np.log(w)
                assert same_bits(V.logsumexp(a), reference(a))
                assert same_bits(V.logsumexp(list(a)), reference(list(a)))
            a = V.log_hc_integrand(root_system(3), np.outer(4.0 * (x + 1.0), [1.0, 0.2, -1.2]))
            assert same_bits(V.logsumexp(a + np.log(w)), reference(a + np.log(w)))
        for n in (3072, 6144):
            a = 30.0 * rng.normal(size=n) + np.log(rng.uniform(1e-6, 1e-3, size=n))
            assert same_bits(V.logsumexp(a), reference(a))
        # one or two dominant terms at 0, where log1p and the tie count show in the bits
        for n in (2, 3, 24, 97, 384):
            for ties in (1, 2):
                a = -rng.uniform(15.0, 40.0, size=n + 1)
                a[rng.choice(n + 1, size=ties, replace=False)] = 0.0
                assert same_bits(V.logsumexp(a), reference(a))

    def test_rows_are_the_one_row_values(self):
        rng = np.random.default_rng(31)
        inf = math.inf
        rows = [[0.0, -20.0, 1.0], [5.0, 5.0, 5.0], [-inf, -inf, -inf], [-inf, 1.0, 0.5],
                [inf, 1.0, 2.0], [inf, -inf, 0.0], [0.0, -800.0, 750.0], [-745.5, 1.0, -1e308]]
        for a in [np.array(rows), 40.0 * rng.normal(size=(7, 97)), rng.normal(size=(1, 384))]:
            got = V.logsumexp(a)
            assert got.shape == a.shape[:1]
            assert all(same_bits(g, V.logsumexp(row)) for g, row in zip(got, a))

    @pytest.mark.parametrize("a", [
        [],
        [0.3],
        [2.0, 2.0, 1.0],
        [5.0, 5.0, 5.0],
        [0.0, -20.0],
        [0.0, 0.0, -20.0],
        [-math.inf, -math.inf],
        [-math.inf, 1.0, -math.inf, 0.5],
        [math.inf, 1.0],
        [math.inf, -math.inf],
        [0.0, -800.0, 750.0],
        [-745.5, 1.0, -1e308],
    ])
    def test_edge_cases(self, a):
        from scipy.special import logsumexp as reference

        assert same_bits(V.logsumexp(a), reference(a))
        assert same_bits(V.logsumexp(np.array(a, dtype=float)), reference(np.array(a, dtype=float)))


class TestBoxVolume:
    def test_d2_closed_form(self):
        for t, a in ((2.0, 1.0), (3.0, 0.7), (5.0, 0.4)):
            res = V.box_volume(2, t, (a,))
            assert res.value == pytest.approx(math.sqrt(2.0) * (math.cosh(t * a) - 1.0), rel=1e-12)
            assert res.extras["delta_P"] == pytest.approx(a, rel=1e-12)

    def test_d3_cross_check_quadrature(self):
        exact = V.box_volume(3, 5.0, (1.0, 1.0))
        quad = V.box_volume_quadrature(3, 5.0, (1.0, 1.0))
        assert abs(exact.value / quad.value - 1.0) < 1e-6

    def test_delta_p_is_sup_by_vertex_enumeration(self):
        rs = root_system(3)
        edges = (0.8, 1.3)
        res = V.box_volume(rs, 1.0, edges)
        duals = V._dual_basis(rs)
        sup = 0.0
        for corner in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            y = sum(c * e * u for c, e, u in zip(corner, edges, duals))
            sup = max(sup, float(rs.two_rho @ np.asarray(y)))
        assert res.extras["delta_P"] == pytest.approx(sup, rel=1e-9)

    def test_secondary_exponent_below_main(self):
        res = V.box_volume(3, 4.0, (1.0, 0.5))
        assert 0.0 <= res.extras["delta_minus"] < res.extras["delta_P"]

    def test_c_g_value_d3(self):
        res = V.box_volume(3, 2.0, (1.0, 1.0))
        assert res.extras["C_G"] == pytest.approx(math.sqrt(3.0) / 16.0, rel=1e-9)

    def test_degenerate_edges_rejected(self):
        with pytest.raises(ParameterError):
            V.box_volume(3, 2.0, (1.0, 0.0))
        with pytest.raises(ParameterError):
            V.box_volume(3, 2.0, (1.0,))


# the grid on which the rounding bound of the closed-form box volume is stated
BOX_GRID = (
    [(3, t, e) for t in (0.01, 0.03, 0.1, 0.3, 1.0, 2.0, 5.0, 16.0, 40.0, 300.0)
     for e in ((1.0, 1.0), (1.0, 1e-3), (1e-3, 1.0), (0.3, 2.0), (0.8, 1.3))]
    + [(2, t, (a,)) for t in (1e-6, 1e-4, 0.01, 1.0, 5.0, 300.0) for a in (1.0, 1e-3)]
)
# boxes of the tests above and of the self-check, on which every extra is as the expansion gave it
BOX_INPUTS = [(2, 2.0, (1.0,)), (2, 3.0, (0.7,)), (2, 5.0, (0.4,)), (3, 5.0, (1.0, 1.0)),
              (3, 3.0, (1.0, 1.0)), (3, 1.0, (0.8, 1.3)), (3, 4.0, (1.0, 0.5)), (3, 2.0, (1.0, 1.0)),
              (3, 1.0, (1.0, 1e-3)), (3, 1.0, (1e-3, 1.0)), (3, 16.0, (0.3, 2.0))]


class TestBoxClosedForm:
    """The closed-form box volume against its 50-digit evaluation and against the
    signed-exponential expansion it replaced."""

    @pytest.mark.parametrize("d, t, edges", BOX_GRID + [
        # boxes whose log is small against its terms, 8.4 and 5.1 eps max(1, |log|) off:
        (3, 1.0, (1e-4, 9.987)),  # 2 log sinh(X) = -18.4 and log S(Y) = 17.9 meet at 0.023
        (3, 9.852106691075484, (0.0032651020846314154, 0.3738499855881288)),  # log -1.02
    ])
    def test_error_is_a_bound(self, d, t, edges):
        res = V.box_volume(d, t, edges)
        true_error = float(abs(decimal.Decimal(res.log_value) - decimal_box_log_volume(d, t, edges)))
        assert res.method == "closed_form"
        assert true_error <= res.error_estimate <= 1e-12 * max(1.0, abs(res.log_value))

    @pytest.mark.parametrize("t", [1.0, 2.0, 5.0, 16.0, 40.0, 300.0])
    @pytest.mark.parametrize("edges", [(1.0, 1.0), (0.3, 2.0), (0.8, 1.3)])
    def test_agrees_with_the_expansion_on_fat_boxes(self, t, edges):
        # on thin boxes the expansion cancels (6.4e-10 at t = 1 on (1, 1e-3)), so those
        # are checked against the 50-digit oracle only
        res, old = V.box_volume(3, t, edges), expansion_box_volume(3, t, edges)
        assert abs(res.log_value - old.log_value) <= 1e-12

    @pytest.mark.parametrize("d, t, edges", BOX_INPUTS)
    def test_extras_are_the_expansion_extras(self, d, t, edges):
        new, old = V.box_volume(d, t, edges).extras, expansion_box_volume(d, t, edges).extras
        assert abs(new["delta_minus"] - old["delta_minus"]) <= 1e-12  # the expansion rounds to 12 places
        assert new["delta_minus"] == (2.0 * max(edges) if d == 3 else 0.0)
        for key in ("C_G", "delta_P", "jacobian"):
            assert same_bits(new[key], old[key])
        assert new["rho_coefficients"] == old["rho_coefficients"] == ([1] if d == 2 else [2, 2])

    def test_thin_and_small_boxes(self):
        # the expansion printed 9.712e-17 here, 68% high, and raised at t = 1e-6 on d = 2
        thin = V.box_volume(3, 0.01, (1.0, 1e-3))
        exact = float(decimal_box_log_volume(3, 0.01, (1.0, 1e-3)).exp())
        assert f"{exact:.4g}" == "5.779e-17" and abs(thin.value / exact - 1.0) <= 1e-12
        assert expansion_box_volume(3, 0.01, (1.0, 1e-3)).value > 1.6 * exact
        small = V.box_volume(2, 1e-6, (1e-3,))
        assert small.value == pytest.approx(math.sqrt(2.0) * 2.0 * math.sinh(5e-10) ** 2, rel=1e-12)

    def test_refusals(self):
        with pytest.raises(ParameterError, match="d = 2 and 3"):
            V.box_volume(4, 1.0, (1.0, 1.0, 1.0))
        with pytest.raises(ParameterError, match="d = 2 and 3"):
            V.box_volume_quadrature(4, 1.0, (1.0, 1.0, 1.0))
        with pytest.raises(ParameterError, match="finite, got inf"):
            V.box_volume(3, math.inf, (1.0, 1.0))
        # t a overflows to inf, and e^(2 t a) past the float range: a NumericError, and no
        # RuntimeWarning on the way (the log of sinh keeps -2x finite near 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="log value is nan at t \\* edges = \\[inf"):
                V.box_volume(3, 1e308, (2.0, 1.0))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="log value is inf at"):
            V.box_volume(2, 1e308, (10.0,))
        with pytest.raises(NumericError, match="normal float, got 1e-320"):
            V.box_volume(3, 1e-160, (1e-160, 1.0))


def _volume_calls(d, value):
    """Each volume entry point with ``value`` as t, as an edge, as a margin or as a slab."""
    rs, edges = root_system(d), (1.0,) * (d - 1)
    return [
        lambda: V.ball_volume(rs, value),
        lambda: V.box_volume(rs, value, edges),
        lambda: V.box_volume(rs, 1.0, (value,) + edges[1:]),
        lambda: V.box_volume_quadrature(rs, value, edges),
        lambda: V.box_volume_quadrature(rs, 1.0, (value,) + edges[1:]),
        lambda: V.domain_volume(rs, Domain("ball", value)),
        lambda: V.domain_volume(rs, Domain("ball", 4.0, regular_margin=value)),
        lambda: V.domain_volume(rs, Domain("box", 4.0, edges, regular_margin=value)),
        lambda: V.domain_volume(rs, Domain("ball", 4.0, slab=value)),
        lambda: V.slab_volume(rs, value, 0.5),
        lambda: V.slab_volume(rs, 4.0, value),
        lambda: V.slab_volume(rs, 4.0, value, "box", edges),
    ]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e308], ids=["inf", "-inf", "nan", "1e308"])
@pytest.mark.parametrize("d", [2, 3])
def test_non_finite_and_overflowing_inputs(alarm, d, value):
    """Every call raises a ``WccError`` or returns a finite log value; a margin past the
    largest wall distance leaves an empty region, whose volume is the exact 0.0."""
    for call in _volume_calls(d, value):
        try:
            res = call()
        except WccError:
            continue
        assert math.isfinite(res.log_value) or (res.log_value == -math.inf and res.value == 0.0)
        assert math.isfinite(res.error_estimate)


class TestSlab:
    def test_d2_explicit_ratio(self):
        rs = root_system(2)
        t, s = 6.0, 1.2
        res = V.slab_volume(rs, t, s)
        d0 = rs.delta_zero()
        expected = (math.exp(d0 * s) - 1.0) / d0
        assert res.value == pytest.approx(expected, rel=1e-7)
        assert res.extras["ratio"] == pytest.approx(expected / V.closed_form_ball_d2(t), rel=1e-7)

    def test_slab_exhausts_domain(self):
        rs = root_system(3)
        dom = Domain("ball", 6.0)
        wmax = max_wall_distance(rs, dom)
        assert wmax == pytest.approx(3.0, abs=1e-9)
        res = V.slab_volume(rs, 6.0, wmax * 0.99999, "ball")
        full, _ = V._region_log_integral(rs, dom, "two_rho", 0.0)
        assert res.log_value == pytest.approx(full, abs=1e-3)

    def test_decay_sweep_positive_kappa(self):
        for d in (2, 3):
            rep = V.slab_decay_sweep(d, [0.05, 0.1, 0.2], [5.0, 6.5, 8.0, 9.5])
            for eps, data in rep["per_epsilon"].items():
                assert data["kappa_fit"] > 0.0
                assert data["strictly_decreasing"]

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            V.slab_volume(2, 4.0, 4.0)
        with pytest.raises(ParameterError):
            V.slab_volume(2, 4.0, -1.0)


class TestDomain:
    def test_filters_mutually_exclusive(self):
        with pytest.raises(ParameterError):
            Domain("ball", 2.0, regular_margin=0.1, slab=0.5)

    def test_membership(self):
        rs = root_system(2)
        dom = Domain("ball", 2.0)
        assert contains_cartan(dom, rs, [0.5, -0.5])
        assert not contains_cartan(dom, rs, [1.0, -1.0])
        reg = Domain("ball", 2.0, regular_margin=1.0)
        assert not contains_cartan(reg, rs, [0.3, -0.3])

    def test_box_membership_d3(self):
        rs = root_system(3)
        dom = Domain("box", 2.0, (1.0, 0.5))
        assert contains_cartan(dom, rs, [1.0, 0.0, -1.0])
        assert not contains_cartan(dom, rs, [1.0, 0.8, -1.8])  # second root exceeds

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_values_are_refused(self, value):
        for kwargs in ({"kind": "ball", "t": value}, {"kind": "box", "t": 1.0, "edges": (value, 1.0)},
                       {"kind": "ball", "t": 1.0, "regular_margin": value},
                       {"kind": "ball", "t": 1.0, "slab": value}):
            with pytest.raises(ParameterError, match=f"finite, got {value}"):
                Domain(**kwargs)

    def test_max_top_weight_matches_sl2_bound(self):
        rs = root_system(2)
        dom = Domain("ball", 8.0)
        assert dom.max_top_weight(rs) == pytest.approx(8.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)


class TestProbes:
    def test_lipschitz_stability(self):
        rs = root_system(2)
        rep = lipschitz_probe(rs, "ball", [10.0], [0.1, 0.05, 0.01, 0.002])
        assert rep["finite"]
        slopes = [r["slope"] for r in rep["rows"]]
        assert max(slopes) / min(slopes) < 1.05
        assert abs(rep["C"] / rs.delta_zero() - 1.0) < 0.1

    def test_lipschitz_requires_t_above_one(self):
        with pytest.raises(ParameterError):
            lipschitz_probe(2, "ball", [0.5], [0.1])

    def test_well_rounded_conditions(self):
        rep = well_rounded_probe(3, "ball", delta=0.8, t=7.0, eps=0.01, n_samples=300)
        assert rep["samples_ok"]
        assert rep["volume_sandwich_C"] > 0.0
        zero = well_rounded_probe(2, "ball", delta=0.8, t=7.0, eps=0.0)
        assert zero["volume_sandwich_C"] == 0.0
        assert zero["vol_plus"] == zero["vol_minus"] == zero["vol_S"]

    def test_sampler_draws_as_pinned(self):
        # first sample and the next draw after 20 samples, at seed 5
        rs = root_system(3)
        cases = [
            (Domain("ball", 7.0), 0.8,
             [1.4328062121102603, 0.034959529311951384, -1.4677657414222116], 2911985062180514382),
            (Domain("box", 4.0, (1.0, 0.8)), 0.3,
             [3.0084779723732735, -0.211533722608247, -2.7969442497650268], 2335288630997192072),
        ]
        for dom, margin, first, next_draw in cases:
            rng = np.random.default_rng(5)
            ys = [_sample_chamber_point(rs, dom, margin, rng) for _ in range(20)]
            assert ys[0].tolist() == first
            assert int(rng.integers(2**62)) == next_draw

    def test_well_rounded_probe_as_pinned(self):
        rep = well_rounded_probe(3, "ball", delta=0.8, t=7.0, eps=0.01, n_samples=100)
        assert (rep["n_samples"], rep["failures"], rep["samples_ok"]) == (100, 0, True)
        for key, want in (("vol_S", 7.1148117768092805), ("vol_plus", 7.130514368961184),
                          ("vol_minus", 7.099060457840153)):
            assert abs(rep[key] - want) <= 1e-12
        assert rep["volume_sandwich_C"] == pytest.approx(3.145444141034574, rel=1e-9)

    def test_well_rounded_sandwich_stable_in_t(self):
        consts = [
            well_rounded_probe(2, "ball", delta=0.6, t=t, eps=0.02, n_samples=50)["volume_sandwich_C"]
            for t in (6.0, 8.0, 10.0)
        ]
        assert max(consts) / min(consts) < 2.0

    def test_monte_carlo_agreement(self):
        rs = root_system(3)
        dom = Domain("ball", 4.0)
        mc = monte_carlo_volume(rs, dom, n_samples=120000)
        quad = V.ball_volume(rs, 4.0)
        assert abs(mc["value"] - quad.value) < 3.0 * mc["std_err"]
