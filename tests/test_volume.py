import decimal
import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcc import volume as V
from wcc.errors import NumericError, ParameterError, PreconditionError, WccError
from wcc.rootsys import RootSystemA, root_system
from wcc.volume import Domain

import volume_reference
from rootsys_reference import dual_vector, killing_inner
from volume_reference import (
    _box_jacobian,
    _dual_basis,
    _ortho_basis,
    _sample_chamber_point,
    _wall_scale,
    box_volume_quadrature,
    contains_cartan,
    decimal_box_log_volume,
    decimal_log_volume,
    doubling_converge,
    exact_rectangles,
    expansion_box_volume,
    hc_integrand,
    lipschitz_probe,
    log_hc_integrand,
    log_quad_1d,
    log_two_rho_integrand,
    max_wall_distance,
    monte_carlo_volume,
    mp_log_ball_volume,
    well_rounded_probe,
)


def polar_frame(rs):
    """Killing-orthonormal (b1, b2) of the d = 3 chamber plane, b1 the rho direction."""
    b1, helmert = dual_vector(rs, rs.two_rho), _ortho_basis(rs)[1]
    b2 = helmert - killing_inner(rs, helmert, b1) * b1
    return b1, b2 / rs.killing_norm(b2)


def bisected_chamber_window(rs):
    """Ends of the d=3 chamber window about b1, each by 200-step bisection."""
    b1, b2 = polar_frame(rs)

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
    b1, b2 = polar_frame(rs)
    thetas = np.linspace(*bisected_chamber_window(rs), 2001)
    dirs = np.outer(np.cos(thetas), b1) + np.outer(np.sin(thetas), b2)
    return t * max(_wall_scale(rs, u) for u in dirs)


def grid_split_points(rs, t, margin):
    """Window cuts where the nearest wall switches and where min(t, margin/w)
    starts clipping, located on a 2,049-point theta grid and bisected."""
    b1, b2 = polar_frame(rs)
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
        # the log value holds past the float range, within its reported error of 50 digits;
        # the quadrature it replaced was 7.9e-11 off at t = 1e4 and reported 1.27e-11
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            x = decimal.Decimal(t) / decimal.Decimal(2).sqrt()
            exact = (decimal.Decimal(2).sqrt() * ((x.exp() + (-x).exp()) / 2 - 1)).ln()
        res = V.ball_volume(2, t)
        assert float(abs(decimal.Decimal(res.log_value) - exact)) <= res.error_estimate
        assert (res.value == math.inf) == (t > 1000.0)
        # the literal sinh form neither cancels near 0 nor raises past the float range
        closed = V.closed_form_ball_d2(t)
        assert (closed == math.inf) == (t > 1000.0)
        assert closed == math.inf or abs(math.log(closed) - float(exact)) <= 1e-14 * max(1.0, float(exact))

    @pytest.mark.parametrize("t", [997.0, 1003.0, 1005.0, 2000.0])
    def test_value_is_finite_up_to_the_float_range(self, t):
        # log values 704.6 and 708.9 are representable; 710.3 and 1413 are past
        # log(max float) = 709.78
        res = V.ball_volume(2, t)
        if res.log_value < math.log(np.finfo(float).max):
            assert 700.0 < res.log_value and res.value == math.exp(res.log_value) < math.inf
        else:
            assert res.log_value > 709.78 and res.value == math.inf

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
    """The A2 facts that the ball rules take in closed form, against their numeric oracles:
    the window [-pi/6, pi/6] about rho, the simple roots n sin(phi) and n sin(pi/3 - phi) at
    the angle phi from the nearer wall (n y and n (sqrt 3 x - y) / 2 at the wall distance
    y = r sin(phi) and x = r cos(phi), as the strip rule takes them), and the cut where the
    polar oracle's window bound reaches t."""

    def test_window_matches_bisection(self):
        assert np.allclose(bisected_chamber_window(root_system(3)), (-math.pi / 6, math.pi / 6),
                           rtol=0.0, atol=1e-12)

    def test_wall_distance_is_a_sine_on_the_window(self):
        rs = root_system(3)
        b1, b2 = polar_frame(rs)
        n = float(rs.simple_dual_norms[0])
        assert n == rs.simple_dual_norms[1] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
        for th in np.linspace(-math.pi / 6, math.pi / 6, 401):
            u, phi = math.cos(th) * b1 + math.sin(th) * b2, math.pi / 6 - abs(th)
            roots = sorted(float(c @ u) for c in rs.simple_roots)
            assert np.allclose(roots, [n * math.sin(phi), n * math.sin(math.pi / 3 - phi)], rtol=0.0, atol=1e-12)
            assert abs(_wall_scale(rs, u) - math.sin(phi)) < 1e-12

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
        # the kinks of the radial window lie at rho (theta = 0) and at asin(margin / t) from each wall
        edge = math.pi / 6 - math.asin(margin / t)
        cuts = [-math.pi / 6, 0.0, math.pi / 6] if margin >= t / 2 else [-math.pi / 6, -edge, 0.0, edge, math.pi / 6]
        assert np.allclose(grid_split_points(root_system(3), t, margin), cuts, rtol=0.0, atol=1e-12)


class TestStackedWallDistance:
    """The ball rule reads each node's wall distance from its window variable, with no call of
    the stacked ``RootSystemA.wall_distances``: every strip lies in the margin's window."""

    @pytest.mark.parametrize("t, margin", [
        (2.0, 0.1), (5.0, 1.0), (8.0, 0.8), (8.0, 2.0), (8.0, 3.9), (12.0, 5.9), (8.0, 4.0),
    ])
    def test_inner_bound_is_the_per_node_bound(self, monkeypatch, t, margin):
        rs, calls, strip = root_system(3), [], V._log_strip
        monkeypatch.setattr(V, "_log_strip", lambda *args: calls.append(args) or strip(*args))
        monkeypatch.setattr(RootSystemA, "wall_distances", None)
        res = V.domain_volume(rs, Domain("ball", t, regular_margin=margin))
        assert (res.value == 0.0) == (margin >= t / 2.0) == (not calls)  # t/2 is the largest wall distance
        n = float(rs.simple_dual_norms[0])
        for _, u, _ in calls:  # the simple root u = n y of each node's strip gives its wall distance y
            assert np.all((margin < u / n) & (u / n < t / 2.0))


# ``mp_log_ball_volume`` at 60 digits, to 22: the log volume of the d = 3 ball of radius t
# with each filter of BALL_FILTERS (a fraction of t), for each density in turn
BALL_FILTERS = [{}, {"regular_margin": 0.05}, {"regular_margin": 0.3}, {"regular_margin": 0.49},
                {"slab": 0.05}, {"slab": 0.3}]
BALL_GRID = {
    0.0001: (
        "-51.10081767394999525804", "-19.06763681646854153651", "-51.11968269763717726961", "-19.26930358180166999632",
        "-51.9574907602047045196", "-20.8441038820296983055", "-57.48159193738475472062", "-26.79613187729473478847",
        "-55.08068102707566882356", "-20.76791483159362564659", "-51.65345927655973997503", "-19.25304511852235529325",
    ),
    0.01: (
        "-28.07496079222610758665", "-9.850015474090878954553", "-28.09382579792651149125", "-10.05124094676865663245",
        "-28.93163313169843848478", "-11.62391690218753798594", "-34.45573278445307906491", "-17.57443634713414696507",
        "-32.05482508983294999407", "-11.55227087057996562081", "-28.62760294584035470405", "-10.03594722969421219789",
    ),
    0.5: (
        "-8.499985008852385772671", "-1.65739833178552044419", "-8.518805312582616378619", "-1.838289229003332592848",
        "-9.354801056394302140045", "-3.311129961554060064003", "-14.87510848366070435581", "-9.188363736406579168746",
        "-12.48219940852866734246", "-3.456341962704490785879", "-9.053999018875491583729", "-1.869768357694284496513",
    ),
    1.0: (
        "-4.989818621092054512885", "0.1207085548739381885879", "-5.008507717436764893796", "-0.04225599215315233862812",
        "-5.839182102970940353528", "-1.423382777286258422876", "-11.34831530840701268739", "-7.228565538949038412778",
        "-8.97896362422794384627", "-1.773890008015853519496", "-5.547887988179955590554", "-0.1194613620313625154064",
    ),
    5.0: (
        "4.36574570191906528492", "6.891146778508140420069", "4.349787377413323166111", "6.807435550036158715078",
        "3.631743138701544361662", "5.895373789592374205925", "-1.621117822207228271963", "0.5786052704178017397095",
        "0.2200024775008101309404", "4.3692009702106143475", "3.711850053342058875338", "6.430003360847422367204",
    ),
    8.0: (
        "8.516120617481606545389", "10.78078865561816495299", "8.502325830062307095416", "10.72362348741665354207",
        "7.873007122238641345432", "9.993564259307876514417", "2.860142594457823881568", "4.960139675469282246872",
        "4.225766671352507348584", "7.890531714889043611869", "7.770303922954445949473", "10.17362421946449602129",
    ),
    20.0: (
        "23.1670483307857264963", "25.26259772331208517343", "23.16085602048230673714", "25.24860846242047765823",
        "22.78054846509151613449", "24.86019253053845537274", "18.48193526596740674019", "20.5613976927865348312",
        "18.07950674298065332763", "20.98614592410195918215", "22.02939116563065993906", "24.15783737066230485862",
    ),
    100.0: (
        "116.3931125386137651046", "118.4725541122738851029", "116.3931120498183563921", "118.472553592951828499",
        "116.3716462344770050798", "118.4510877761568410145", "113.5852690851246598678", "115.664710626804495796",
        "101.8617904721052540901", "104.001812239336968642", "112.5411277638422047859", "114.6205708113582260323",
    ),
    1000.0: (
        "1156.777826555670498945", "1158.857268097350334873", "1156.777826555670498945", "1158.857268097350334873",
        "1156.777826555670372592", "1158.85726809735020852", "1155.546128976893085247", "1157.625570518572921175",
        "1026.866868664522699093", "1028.946310206203462011", "1127.078129121534994257", "1129.157570663214830185",
    ),
    3000.0: (
        "3466.728426089961290294", "3468.807867631641126222", "3466.728426089961290294", "3468.807867631641126222",
        "3466.728426089961290294", "3468.807867631641126222", "3466.026556395997641965", "3468.105997937677477893",
        "3082.102708682981976758", "3084.182150224661812687", "3381.377192161229145868", "3383.456633702908981797",
    ),
}


def ball_domain(t, filt):
    return Domain("ball", t, **{key: f * t for key, f in filt.items()})


BALL_PINNED = {  # (t, regular_margin, slab, integrand): the 60-digit log volume, to 22
    (60.0, None, 1.0, "hc"): "58.08789839259954747305",
    (8.0, 2.0, None, "hc"): "8.108632379264562347302",
    (8.0, 3.9, None, "hc"): "3.290768991187148103801",
    (8.0, 0.5, None, "hc"): "8.494490293971312489075",
    (8.0, None, 0.5, "two_rho"): "8.141680162836196789935",
    (8.0, None, 0.8, "two_rho"): "8.69420207362070076015",
    (8.0, None, 2.0, "two_rho"): "9.908449709729371455415",
    (8.0, None, 0.8, "hc"): "5.609908402743596720463",
    (8.0, None, None, "hc"): "8.516120617481606545389",
    (6.0, None, None, "hc"): "5.818387046516130715958",
    # the polar rule returned each of these outside its reported error: 60033.7751351002
    # (5.3e-11), 81.5723444538139 (7.3e-14), -3.0432550479134113 (2.3e-12) and
    # 23996.97033997489 (6.5e-10)
    (6e4, None, 60.0, "hc"): "60033.77571131306581214",
    (70.0, 0.07, None, "hc"): "81.57234445362616297325",
    (8.0, None, 8e-6, "two_rho"): "-3.043255047556883588145",
    (2.4e4, None, 0.024, "two_rho"): "23996.97038193112936669",
}
BALL_ORACLE = {
    (t, domain.regular_margin, domain.slab, integrand): value
    for t, values in BALL_GRID.items()
    for (domain, integrand), value in zip([(ball_domain(t, f), i) for f in BALL_FILTERS for i in ("hc", "two_rho")],
                                          values)
} | BALL_PINNED


class TestBallOracle:
    """The d = 3 ball, margin and slab volumes against ``mp_log_ball_volume``: the 2-D rule
    that they replaced reported less than its true error on 25 of the 118 grid results it
    returned (0.0 on 4, up to 3 times less on the rest), and refused t = 3000 with a slab of
    150, where its stalled log value was 4.35 off."""

    @pytest.mark.parametrize("t", list(BALL_GRID))
    def test_error_is_a_bound(self, t):
        rs = root_system(3)
        for filt, integrand in itertools.product(BALL_FILTERS, ("hc", "two_rho")):
            domain = ball_domain(t, filt)
            res = V._region_volume(rs, domain, integrand)
            exact = decimal.Decimal(BALL_ORACLE[t, domain.regular_margin, domain.slab, integrand])
            assert res.method == "quadrature"
            assert float(abs(decimal.Decimal(res.log_value) - exact)) <= res.error_estimate < 1e-8, (domain, integrand)

    @pytest.mark.parametrize("t, margin, slab, integrand", list(BALL_PINNED))
    def test_pinned_cases(self, t, margin, slab, integrand):
        res = V._region_volume(root_system(3), Domain("ball", t, regular_margin=margin, slab=slab), integrand)
        exact = decimal.Decimal(BALL_ORACLE[t, margin, slab, integrand])
        assert float(abs(decimal.Decimal(res.log_value) - exact)) <= res.error_estimate

    @pytest.mark.parametrize("t, margin, slab, integrand", [
        (0.5, None, None, "hc"), (8.0, 0.3 * 8.0, None, "two_rho"), (1000.0, None, 0.05 * 1000.0, "hc"),
        (8.0, None, 8e-6, "two_rho"),
    ])
    def test_table_is_the_oracle(self, t, margin, slab, integrand):
        value = decimal.Decimal(mpmath.nstr(mp_log_ball_volume(t, integrand, margin, slab), 40))
        assert abs(value - decimal.Decimal(BALL_ORACLE[t, margin, slab, integrand])) <= decimal.Decimal("1e-21") * abs(value)

    def test_strip_closed_forms(self):
        # k times the integral over x of each density along the strip, within 4 eps (1 + the
        # summed magnitudes of its log terms) of a 30-digit Gauss-Legendre quadrature in x, for
        # u = n y and v = k (X - sqrt 3 y) from 1e-8 to 1e4; with k = 1 the strip is x in
        # [3u, 3u + v].  Both densities grow at least like e^x, so the quadrature stops 120
        # below the top, where the rest is under e^-120 of the integral
        grid = np.geomspace(1e-8, 1e4, 9)
        u, v = (a.ravel() for a in np.meshgrid(grid, grid))
        densities = {"hc": lambda x, u: mpmath.sinh(u) * mpmath.sinh((x + u) / 2) * mpmath.sinh((x - u) / 2),
                     "two_rho": lambda x, u: mpmath.exp(u + x)}
        with mpmath.workdps(30):
            for integrand, density in densities.items():
                log_val, mag = V._log_strip(integrand, u, v)
                for u_i, v_i, got, m in zip(u.tolist(), v.tolist(), log_val.tolist(), mag.tolist()):
                    top = 3 * mpmath.mpf(u_i) + mpmath.mpf(v_i)
                    ends = [top - s for s in (min(v_i, 120.0), 10.0, 1.0, 0.0) if s <= min(v_i, 120.0)]
                    exact = mpmath.log(mpmath.quad(lambda x: density(x, u_i), ends, method="gauss-legendre"))
                    assert abs(got - exact) <= 4.0 * math.ulp(1.0) * (1.0 + m), (integrand, u_i, v_i)

    def test_a_margin_past_the_largest_wall_distance_is_empty(self):
        for margin in (4.0, 4.5):
            res = V.domain_volume(root_system(3), Domain("ball", 8.0, regular_margin=margin))
            assert (res.value, res.log_value, res.error_estimate) == (0.0, V.LOG_ZERO, 0.0)
        assert mp_log_ball_volume(8.0, regular_margin=4.0) == -math.inf


class TestPinnedVolumes:
    """sl3 volumes at t = 8 as the 2-D polar rule computed them, with the bisected window and
    the grid cuts above; the angular rule over closed-form radial integrals agrees to 1e-12
    (to 8e-14 at most), and ``TestBallOracle.test_pinned_cases`` holds each within its error
    of ``mp_log_ball_volume``."""

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


def recorded_deltas(monkeypatch) -> list:
    """The doubling delta of each ``_converge`` call from now on."""
    deltas, converge = [], V._converge

    def recording(evaluate):
        value, delta = converge(evaluate)
        deltas.append(delta)
        return value, delta

    monkeypatch.setattr(V, "_converge", recording)
    return deltas


class TestMeasuredError:
    """Volume results report their measured error, not the requested tolerance: on the d = 3
    ball the last doubling delta plus the rounding bound of its closed strip integrals, on
    every other domain the rounding bound of its closed form."""

    @staticmethod
    def check(monkeypatch, domain, integrand="hc"):
        """The volume's error is its one doubling delta plus at least 4 eps (1 + |log value|)."""
        deltas = recorded_deltas(monkeypatch)
        res = V._region_volume(root_system(3), domain, integrand)
        assert res.method == "quadrature" and len(deltas) == 1
        assert deltas[0] + 4.0 * math.ulp(1.0) * (1.0 + abs(res.log_value)) <= res.error_estimate < V.QUAD_REL_TOL
        deltas.clear()

    def test_ball_reports_its_delta(self, monkeypatch):
        self.check(monkeypatch, Domain("ball", 6.0))
        res = V.ball_volume(2, 6.0)
        exact = decimal_log_volume(2, exact_rectangles(2, Domain("ball", 6.0)))
        assert res.method == "closed_form"
        assert 0.0 < float(abs(decimal.Decimal(res.log_value) - exact)) <= res.error_estimate < 1e-14

    def test_regular_margin_reports_its_delta(self, monkeypatch):
        self.check(monkeypatch, Domain("ball", 8.0, regular_margin=2.0))

    def test_slab_reports_the_larger_delta(self, monkeypatch):
        # the slab is one region, not a difference of two: one rule over its one window, so
        # one delta, where the 2-D rule reported the larger of two
        for integrand in ("two_rho", "hc"):
            self.check(monkeypatch, Domain("ball", 8.0, slab=0.8), integrand)

    def test_box(self):
        # the closed form reports its rounding bound, which covers the 50-digit error
        res = V.box_volume(3, 5.0, (1.0, 1.0))
        true_error = abs(decimal.Decimal(res.log_value) - decimal_box_log_volume(3, 5.0, (1.0, 1.0)))
        assert 0.0 < float(true_error) <= res.error_estimate <= 1e-12 * abs(res.log_value)
        quad = box_volume_quadrature(3, 5.0, (1.0, 1.0))
        assert 0.0 <= quad.error_estimate < V.QUAD_REL_TOL


# log values of d = 3 volumes that the doubling refused while it also refused a delta that
# stopped shrinking (a stall), or that the polar rule refused at MAX_NODES (the last two), by
# mp_log_ball_volume at 60 digits: (t, slab) with the hc density
STALLED_ORACLE = {
    (1e4, 500.0): "10275.42066631538660906799724837820086752",
    (1e4, 10.0): "10004.92669931763331944397279831190884795",
    (3e5, None): "346415.0910170069305584284650680882270044",
    (3e5, 6e4): "328579.3845363715018406714234700996736657",
    (1e6, 1e4): "1005722.681923654132998253056884554559411",
}


class TestStalledQuadrature:
    """The doubling refuses only a first value it cannot resolve and no convergence by
    ``MAX_NODES``; the cases it also refused as stalled, while it read a delta that did not
    shrink as a stall, are values within their error of 60 digits.  The doubling up to
    2 MAX_NODES nodes (``doubling_converge``) is the oracle of every result that converges."""

    @pytest.mark.parametrize("t, slab", list(STALLED_ORACLE))
    def test_thin_slabs_and_the_large_ball_are_values(self, t, slab):
        # the slabs stalled at 96 nodes, the ball at 192 with its delta at the rounding level
        # eps |value| n; they converge at 768 and 384 nodes
        res = V.domain_volume(root_system(3), Domain("ball", t, slab=slab))
        exact = decimal.Decimal(STALLED_ORACLE[t, slab])
        assert float(abs(decimal.Decimal(res.log_value) - exact)) <= res.error_estimate < 1e-8

    def test_the_stalled_table_is_the_oracle(self):
        value = decimal.Decimal(mpmath.nstr(mp_log_ball_volume(3e5), 40))
        assert abs(value - decimal.Decimal(STALLED_ORACLE[3e5, None])) <= decimal.Decimal("1e-30")

    def test_a_first_value_past_the_resolution_is_refused(self):
        # 4.6e6 eps = 1.03e-9: its rounding alone passes QUAD_REL_TOL, so no doubling starts
        with pytest.raises(NumericError, match=r"^quadrature log value 4618808\.4\d* cannot be resolved to 1e-09$"):
            V.ball_volume(3, 4e6)

    def test_a_thick_slab_at_large_t_is_refused(self):
        # rounding noise of about eps |log value| per node keeps the delta above QUAD_REL_TOL;
        # mp_log_ball_volume gives 1095265.550220015814
        with pytest.raises(NumericError, match=r"did not converge below 1e-09 by 3072 nodes: log value 1095265\.55"):
            V.domain_volume(root_system(3), Domain("ball", 1e6, slab=2e5))

    def test_the_ball_past_the_old_floor_is_a_value(self):
        # the 2-D rule stalled here at 1536 nodes; the strip rule converges, within its error
        # of the 60-digit value
        res = V.ball_volume(3, 1e5)
        assert abs(res.log_value - 115474.434032847215) <= res.error_estimate < V.QUAD_REL_TOL

    def test_an_unresolvable_box_is_refused_before_any_node(self, monkeypatch):
        # the box quadrature of the tests refuses t * edge past rel_tol / eps = 4.5e6: the log
        # value grows with it (about t a at d = 2, 4 t a at d = 3) past what the doubling
        # resolves, and at 1e308 the nodes' images overflow
        monkeypatch.setattr(volume_reference, "_gauss_legendre", None)
        for d, t, edges in ((3, 1e308, (1.0, 1.0)), (3, 1.0, (1e308, 1.0)), (3, 1.0, (1.0, 5e6)),
                            (3, 5e6, (1.0, 1.0))):
            with pytest.raises(NumericError, match=re.escape(f"t * edge = {t * max(edges)} to 1e-09")):
                box_volume_quadrature(d, t, edges)

    def test_a_non_finite_delta_keeps_doubling(self):
        # an empty first rule (log 0) and a non-finite value have no delta to compare: the
        # doubling goes on, as it did, and converges or fails as the old doubling does
        for values in ({24: V.LOG_ZERO}, {48: math.nan}, {24: V.LOG_ZERO, 48: math.inf}):
            def evaluate(n, values=values):
                return values.get(n, 1.0 + 10.0 / n**6)

            value, delta = V._converge(evaluate)
            assert (value, delta) == doubling_converge(evaluate) and delta < V.QUAD_REL_TOL

    def test_the_doubling_stops_at_max_nodes(self):
        # the last rule is the one the refusal names, and the refusal carries its figures; the
        # doubling used to build a rule of 2 MAX_NODES nodes first
        counts = []

        def evaluate(n):
            counts.append(n)
            return 1.0 + n**-0.5

        with pytest.raises(NumericError, match=r"did not converge below 1e-09 by 3072 nodes: "
                                               r"log value 1\.018\d*, delta 0\.0074\d*$"):
            V._converge(evaluate)
        assert counts == [24 * 2**k for k in range(8)] and counts[-1] == V.MAX_NODES

    def test_converging_results_are_unchanged(self, monkeypatch):
        # t up to 1e4, where every case below converges; bit for bit, errors included
        def results():
            out, rs = [], root_system(3)
            for t in (0.01, 10.0, 1000.0, 1e4):
                for domain, integrand in ((Domain("ball", t), "hc"),
                                          (Domain("ball", t, regular_margin=0.2 * t), "two_rho"),
                                          (Domain("ball", t, slab=0.2 * t), "two_rho")):
                    res = V._region_volume(rs, domain, integrand)
                    out.append((res.log_value, res.error_estimate))
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
            ]
            return [(r.log_value, r.value, r.error_estimate, r.extras) for r in runs]

        V._gauss_legendre.cache_clear()
        cold = results()
        assert V._gauss_legendre.cache_info().misses > 0
        warm = results()
        monkeypatch.setattr(V, "_gauss_legendre", np.polynomial.legendre.leggauss)
        assert cold == warm == results()


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
            a = log_hc_integrand(root_system(3), np.outer(4.0 * (x + 1.0), [1.0, 0.2, -1.2]))
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


class TestCellGeometry:
    """The closed forms of the simple-root cell: its Killing area (2d)^((d-1)/2) / sqrt d and
    chi_1 on the i-th dual vector, (d - i) / d, against the Gram determinant of the Helmert
    and dual bases and the linear solve they replaced."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_cell_area(self, d):
        rs = root_system(d)
        area = V._cell_area(rs)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            exact = (decimal.Decimal(2 * d) ** (d - 1) / d).sqrt()
        assert abs(decimal.Decimal(area) - exact) <= decimal.Decimal(math.ulp(area))
        assert abs(area - _box_jacobian(rs, _dual_basis(rs))) <= 2 * math.ulp(area)

    @pytest.mark.parametrize("d", [2, 3])
    def test_max_top_weight_of_a_box_is_the_dual_basis_value(self, d):
        rs = root_system(d)
        chi1, duals = rs.fundamental_weights[0], _dual_basis(rs)
        rng = np.random.default_rng(60 + d)
        for _ in range(2000):
            t, edges = 10.0 ** rng.uniform(-3, 3), tuple(10.0 ** rng.uniform(-3, 1, d - 1))
            old = t * sum(e * max(0.0, float(chi1 @ u)) for e, u in zip(edges, duals))
            assert same_bits(Domain("box", t, edges).max_top_weight(rs), old)


class TestBoxVolume:
    def test_d2_closed_form(self):
        for t, a in ((2.0, 1.0), (3.0, 0.7), (5.0, 0.4)):
            res = V.box_volume(2, t, (a,))
            assert res.value == pytest.approx(math.sqrt(2.0) * (math.cosh(t * a) - 1.0), rel=1e-12)
            assert res.extras["delta_P"] == pytest.approx(a, rel=1e-12)

    def test_d3_cross_check_quadrature(self):
        exact = V.box_volume(3, 5.0, (1.0, 1.0))
        quad = box_volume_quadrature(3, 5.0, (1.0, 1.0))
        assert abs(exact.value / quad.value - 1.0) < 1e-6

    def test_delta_p_is_sup_by_vertex_enumeration(self):
        rs = root_system(3)
        edges = (0.8, 1.3)
        res = V.box_volume(rs, 1.0, edges)
        duals = _dual_basis(rs)
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
        assert same_bits(new["delta_P"], old["delta_P"])
        if d == 2:
            assert same_bits(new["C_G"], old["C_G"]) and same_bits(new["jacobian"], old["jacobian"])
        else:  # the expansion's Gram determinant is 1.5 ulp above 2 sqrt 3, the closed form 0.55
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                exact = {"jacobian": 2 * decimal.Decimal(3).sqrt(), "C_G": decimal.Decimal(3).sqrt() / 16}
            for key, value in exact.items():
                assert abs(decimal.Decimal(new[key]) - value) <= decimal.Decimal(math.ulp(new[key]))
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


# the grid on which the rounding bound of every closed-form domain is stated
RECT_TS = (1e-8, 1e-4, 0.01, 0.3, 1.0, 3.0, 10.0, 40.0, 300.0, 1e3, 1e4)
RECT_FILTERS = ({}, {"regular_margin": 0.1}, {"regular_margin": 0.3}, {"slab": 0.05}, {"slab": 0.3})


class TestRectangleClosedForm:
    """Every domain but the d = 3 ball is rectangles in the simple-root coordinates, each
    with its closed form; a slab is its own rectangles, not a difference of two volumes."""

    @pytest.mark.parametrize("d, kind, edges", [
        (2, "ball", None), (2, "box", (1.0,)), (2, "box", (1e-3,)), (3, "box", (1.0, 1.0)),
        (3, "box", (1.0, 1e-3)), (3, "box", (1e-3, 1.0)), (3, "box", (0.3, 2.0)), (3, "box", (0.8, 1.3)),
    ])
    def test_error_is_a_bound(self, d, kind, edges):
        for t, filt, integrand in itertools.product(RECT_TS, RECT_FILTERS, ("hc", "two_rho")):
            domain = Domain(kind, t, edges, **{key: f * t for key, f in filt.items()})
            res = V._region_volume(root_system(d), domain, integrand)
            rects = exact_rectangles(d, domain)
            if not rects:  # a margin past the largest wall distance
                assert res.value == 0.0
                continue
            true_error = float(abs(decimal.Decimal(res.log_value) - decimal_log_volume(d, rects, integrand)))
            assert res.method == "closed_form", domain
            assert true_error <= res.error_estimate <= 1e-12 * max(1.0, abs(res.log_value)), (domain, integrand)

    @pytest.mark.parametrize("d, domain, integrand", [
        # the difference of two volumes returned -inf for each of these, a volume of 0
        (2, Domain("ball", 60.0, slab=0.5), "two_rho"),
        (2, Domain("ball", 100.0, slab=1.0), "two_rho"),
        (2, Domain("ball", 60.0, slab=0.5), "hc"),
        (3, Domain("box", 20.0, (1.0, 1.0), slab=0.5), "two_rho"),
        (3, Domain("box", 30.0, (1.0, 1.0), slab=0.2), "hc"),
        # 0.37042 where the value is 0.37430, with a reported error of 3.6e-14
        (2, Domain("ball", 40.0, slab=1.0), "two_rho"),
        # the quadrature was 7.9e-11 off and reported 1.27e-11
        (2, Domain("ball", 1e4), "hc"),
    ])
    def test_slabs_that_cancelled(self, d, domain, integrand):
        if integrand == "two_rho":
            res = V.slab_volume(d, domain.t, domain.slab, domain.kind, domain.edges)
        else:
            res = V.domain_volume(root_system(d), domain)
        exact = decimal_log_volume(d, exact_rectangles(d, domain), integrand)
        assert math.isfinite(res.log_value)
        assert float(abs(decimal.Decimal(res.log_value) - exact)) <= res.error_estimate

    def test_d3_ball_slab_is_one_quadrature(self):
        # the difference of two volumes logged 58.08789836356 with a reported error of 8.5e-13
        res = V.domain_volume(root_system(3), Domain("ball", 60.0, slab=1.0))
        assert res.method == "quadrature"
        assert abs(res.log_value - float(BALL_ORACLE[60.0, None, 1.0, "hc"])) <= res.error_estimate < V.QUAD_REL_TOL

    @pytest.mark.parametrize("d, kind, edges", [(2, "ball", None), (2, "box", (0.7,)), (3, "box", (1.0, 0.4)),
                                                (3, "box", (0.3, 2.0)), (3, "ball", None)])
    @pytest.mark.parametrize("t, s", [(0.5, 0.1), (8.0, 0.8), (8.0, 3.0), (40.0, 2.0)])
    def test_slab_and_regular_part_make_the_domain(self, d, kind, edges, t, s):
        # the slab and the margin-s region are computed apart; together they are the domain
        rs = root_system(d)
        whole, slab, regular = (V.domain_volume(rs, Domain(kind, t, edges, **kw))
                                for kw in ({}, {"slab": s}, {"regular_margin": s}))
        both = V.logsumexp([slab.log_value, regular.log_value])
        assert abs(both - whole.log_value) <= 2.0 * max(whole.error_estimate, slab.error_estimate,
                                                        regular.error_estimate, 4e-16 * abs(both))

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.floats(-3.0, 4.0), st.floats(-7.0, math.log10(0.49)))
    @example(math.log10(6e4), -3.0).via("s = 60 at t = 6e4")
    @example(math.log10(70.0), -3.0).via("s = 0.07 at t = 70")
    @example(math.log10(8.0), -6.0).via("s = 8e-6 at t = 8")
    @example(math.log10(2.4e4), -6.0).via("s = 0.024 at t = 2.4e4")
    def test_slab_and_regular_part_make_the_d3_ball(self, log_t, log_fraction):
        # the identity above on the d = 3 ball, for t in [1e-3, 1e4] and s / t in [1e-7, 0.49]
        self.test_slab_and_regular_part_make_the_domain(3, "ball", None, 10.0**log_t, 10.0**(log_t + log_fraction))

    @pytest.mark.parametrize("filt", [{}, {"regular_margin": 0.1}, {"regular_margin": 0.7}, {"slab": 0.1},
                                      {"slab": 0.7}])
    @pytest.mark.parametrize("t", [0.1, 3.0, 40.0])
    def test_d2_matches_the_quadrature_it_replaced(self, t, filt):
        # along the ray b1 of unit wall distance, Killing radius is wall distance
        rs = root_system(2)
        b1 = dual_vector(rs, rs.two_rho)
        kw = {key: f * t for key, f in filt.items()}
        lo, hi = kw.get("regular_margin", 0.0), kw.get("slab", t)
        for integrand, logf in (("hc", log_hc_integrand), ("two_rho", log_two_rho_integrand)):
            quad, _ = log_quad_1d(lambda u, logf=logf: logf(rs, np.outer(u, b1)), lo, hi)
            res = V._region_volume(rs, Domain("ball", t, **kw), integrand)
            assert abs(res.log_value - quad) <= 1e-9, (integrand, res, quad)


def _volume_calls(d, value):
    """Each volume entry point with ``value`` as t, as an edge, as a margin or as a slab."""
    rs, edges = root_system(d), (1.0,) * (d - 1)
    return [
        lambda: V.ball_volume(rs, value),
        lambda: V.box_volume(rs, value, edges),
        lambda: V.box_volume(rs, 1.0, (value,) + edges[1:]),
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
        assert res.log_value == pytest.approx(V._region_volume(rs, dom, "two_rho").log_value, abs=1e-3)

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

    def test_edges_need_a_box(self):
        # a ball with edges was accepted, with the plain ball's volume
        for edges in ((1.0,), ()):
            with pytest.raises(ParameterError, match="edges need a box domain, got kind 'ball'"):
                Domain("ball", 3.0, edges)
        with pytest.raises(ParameterError, match="edges need a box domain"):
            V.slab_volume(2, 4.0, 1.0, "ball", (1.0,))

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
