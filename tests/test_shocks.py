from __future__ import annotations

import numpy as np
import pytest

from saturnet import (
    InputError,
    Network,
    NotCriticalError,
    ShockRay,
    extremal_equilibria,
    find_critical_eps,
    loss_jump,
    max_jump_norm,
    sweep,
    sweep_to_csv,
    systemic_loss,
)

from conftest import C_BASE, C_STAR, CONDITION_STAR, PI_TRIANGLE, Q_DIR, X_MAX_STAR, X_MIN_STAR, random_network


def demo_ray(eps_hi=14.0, grid=57) -> ShockRay:
    return ShockRay(C_BASE, Q_DIR, 0.0, eps_hi, grid)


class TestShockRay:
    def test_validation(self):
        with pytest.raises(InputError):
            ShockRay([1.0, 2.0], [0.0, 0.0], 0.0, 1.0, 5)  # zero direction
        with pytest.raises(InputError):
            ShockRay([1.0, 2.0], [0.5, -0.5], 0.0, 1.0, 5)  # mixed without override
        with pytest.raises(InputError):
            ShockRay([1.0, 2.0], [1.0, 1.0], 2.0, 1.0, 5)  # inverted range
        with pytest.raises(InputError):
            ShockRay([1.0, 2.0], [1.0, 1.0], 0.0, 1.0, 1)  # grid too small
        ray = ShockRay([1.0, 2.0], [0.5, -0.5], 0.0, 1.0, 5, allow_mixed_direction=True)
        assert np.allclose(ray.c_at(2.0), [0.0, 3.0])


class TestSystemicLoss:
    def test_no_shock_full_payment_is_zero(self, triangle):
        assert systemic_loss(triangle, C_BASE, C_BASE, triangle.w) == 0.0

    def test_demo_losses_at_the_crossing(self, triangle):
        # direct loss 9 plus shortfall against total capacity 10
        above = systemic_loss(triangle, C_BASE, C_STAR, X_MIN_STAR)
        below = systemic_loss(triangle, C_BASE, C_STAR, X_MAX_STAR)
        assert above == pytest.approx(14.584324324324324, abs=1e-9)
        assert below == pytest.approx(10.2125, abs=1e-12)

    def test_requires_an_actual_shock(self, triangle):
        with pytest.raises(InputError):
            systemic_loss(triangle, C_STAR, C_BASE, triangle.w)

    def test_never_increases_when_payments_rise(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            net = random_network(rng)
            c0 = rng.uniform(0, 3, net.n)
            c = c0 - rng.uniform(0, 2, net.n)
            lo, hi = extremal_equilibria(net, c)
            assert systemic_loss(net, c0, c, hi) <= systemic_loss(net, c0, c, lo) + 1e-12


class TestLossJump:
    def test_demo_critical_flow(self, triangle):
        assert loss_jump(triangle, C_STAR) == pytest.approx(CONDITION_STAR, abs=1e-9)

    def test_zero_flow(self, triangle):
        assert loss_jump(triangle, np.zeros(3)) == pytest.approx(4.45, abs=1e-12)

    def test_two_cycle(self, two_cycle):
        assert loss_jump(two_cycle, np.zeros(2)) == pytest.approx(2.0, abs=1e-12)

    def test_unique_flow_is_not_critical(self, triangle):
        with pytest.raises(NotCriticalError):
            loss_jump(triangle, [1.0, 1.0, 0.0])

    def test_equals_aggregate_gap(self, triangle):
        lo, hi = extremal_equilibria(triangle, C_STAR)
        assert loss_jump(triangle, C_STAR) == pytest.approx(float((hi.x - lo.x).sum()), abs=1e-10)


class TestMaxJumpNorm:
    def test_demo_network_norms(self, triangle):
        assert max_jump_norm(triangle, 1.0) == pytest.approx(4.45, abs=1e-12)
        # (min_i w_i/pi_i)^p * sum(pi^p) under the sum-normalized direction
        expected_p2 = float(np.sqrt(4.45**2 * np.sum(PI_TRIANGLE**2)))
        assert max_jump_norm(triangle, 2.0) == pytest.approx(expected_p2, rel=1e-12)
        assert max_jump_norm(triangle, float("inf")) == pytest.approx(2.0, abs=1e-12)

    def test_two_cycle(self, two_cycle):
        assert max_jump_norm(two_cycle, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_out_connected_only_network(self):
        net = Network([[0.0, 0.5], [0.4, 0.0]], [1.0, 1.0])
        assert max_jump_norm(net, 1.0) == 0.0

    def test_rejects_bad_exponent(self, triangle):
        with pytest.raises(InputError):
            max_jump_norm(triangle, 0.5)

    def test_bounds_realized_jumps(self, triangle):
        rng = np.random.default_rng(103)
        bounds = {p: max_jump_norm(triangle, p) for p in (1.0, 2.0, float("inf"))}
        for _ in range(60):
            c = rng.uniform(-4, 4, 3)
            if rng.random() < 0.4:  # visit the critical manifold often
                c -= c.sum() / 3.0
            lo, hi = extremal_equilibria(triangle, c)
            gap = hi.x - lo.x
            for p, bound in bounds.items():
                assert float(np.linalg.norm(gap, ord=p)) <= bound + 1e-8
        lo, hi = extremal_equilibria(triangle, np.zeros(3))
        for p, bound in bounds.items():
            assert float(np.linalg.norm(hi.x - lo.x, ord=p)) == pytest.approx(bound, abs=1e-8)


class TestFindCriticalEps:
    def test_demo_crossing(self, triangle):
        eps = find_critical_eps(triangle, demo_ray(), 0)
        assert eps == pytest.approx(9.0, abs=1e-9)
        assert np.allclose(C_BASE - eps * Q_DIR, C_STAR, atol=1e-8)

    def test_scaling_the_direction(self, triangle):
        ray = ShockRay(C_BASE, 2.0 * Q_DIR, 0.0, 14.0, 57)
        assert find_critical_eps(triangle, ray, 0) == pytest.approx(4.5, abs=1e-9)

    def test_zero_baseline_crosses_immediately(self, triangle):
        ray = ShockRay(np.zeros(3), Q_DIR, 0.0, 5.0, 11)
        assert find_critical_eps(triangle, ray, 0) == pytest.approx(0.0, abs=1e-10)

    def test_no_crossing_in_range(self, triangle):
        ray = ShockRay(C_BASE, Q_DIR, 0.0, 5.0, 11)
        assert find_critical_eps(triangle, ray, 0) is None

    def test_sink_index_validated(self, triangle):
        with pytest.raises(InputError):
            find_critical_eps(triangle, demo_ray(), 3)

    def test_mixed_direction_needs_scan(self):
        # feeder 0 drains with eps while the sink's own inflow grows, so the
        # sink sum dips through zero and back: both range endpoints are
        # negative and only the grid scan exposes the first crossing
        P = np.zeros((3, 3))
        P[0, 1] = 1.0
        P[1, 2] = P[2, 1] = 1.0
        net = Network(P, np.array([1.0, 2.0, 2.0]))
        ray = ShockRay(
            [2.0, -0.6, -0.6], [1.0, -0.2, -0.2], 0.0, 2.5, 26,
            allow_mixed_direction=True,
        )
        eps = find_critical_eps(net, ray, 0)
        # sink sum: (-1.2 + 0.4 eps) + clamp(2 - eps, 0, 1); first root at 0.5
        assert eps == pytest.approx(0.5, abs=1e-9)

    def test_transient_feed_moves_the_root(self):
        # one deficient feeder in front of a stochastic 2-cycle: the feeder
        # passes through min(c_f, w_f) as long as its inflow stays positive
        P = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        net = Network(P, np.array([1.0, 2.0, 2.0]))
        ray = ShockRay(np.array([2.0, 1.0, 1.0]), np.array([0.0, 0.5, 0.5]), 0.0, 10.0, 11)
        eps = find_critical_eps(net, ray, 0)
        # sink sum: 1 (feeder at capacity) + 2 - eps = 0
        assert eps == pytest.approx(3.0, abs=1e-9)


class TestSweep:
    def test_demo_sweep_structure(self, triangle):
        records, crossings = sweep(triangle, demo_ray())
        assert [r.eps for r in records] == sorted(r.eps for r in records)
        first = records[0]
        assert np.allclose(first.x_min, triangle.w)
        assert first.loss_min == 0.0 and first.loss_max == 0.0
        assert first.defaults == () and first.unique

        assert len(crossings) == 1
        cr = crossings[0]
        assert cr.eps_star == pytest.approx(9.0, abs=1e-9)
        assert np.allclose(cr.jump_vector, X_MAX_STAR - X_MIN_STAR, atol=1e-8)
        assert cr.loss_jump == pytest.approx(CONDITION_STAR, abs=1e-8)
        assert cr.sink_nodes == (0, 1, 2)

    def test_losses_ordered_and_unique_flag(self, triangle):
        records, _ = sweep(triangle, demo_ray(grid=29))
        for r in records:
            assert r.loss_min <= r.loss_max + 1e-12
            if r.unique:
                assert r.loss_min == pytest.approx(r.loss_max, abs=1e-9)

    def test_unique_flag_is_the_analysis_verdict(self):
        # the last grid point is a segment shorter than tol_class
        eps = 0.9e-9
        net = Network(np.roll(np.eye(4), 1, axis=1), np.ones(4))
        ray = ShockRay([0.0, 1.0, 0.0, 0.0], [1 - eps, eps, 0.0, 0.0], 0.0, 1.0, 2)
        records, _ = sweep(net, ray)
        assert [r.unique for r in records] == [True, False]
        assert not np.array_equal(records[-1].x_min, records[-1].x_max)

    def test_one_sided_limits_near_crossing(self, triangle):
        delta = 1e-6
        lo_side, _ = extremal_equilibria(triangle, C_BASE - (9.0 - delta) * Q_DIR)
        hi_side, _ = extremal_equilibria(triangle, C_BASE - (9.0 + delta) * Q_DIR)
        assert np.max(np.abs(lo_side.x - X_MAX_STAR)) <= 1e-3
        assert np.max(np.abs(hi_side.x - X_MIN_STAR)) <= 1e-3

    def test_jump_consistency_at_crossing(self, triangle):
        records, crossings = sweep(triangle, demo_ray())
        cr = crossings[0]
        c_star = cr.c_star
        lo, hi = extremal_equilibria(triangle, c_star)
        above = systemic_loss(triangle, C_BASE, c_star, lo)
        below = systemic_loss(triangle, C_BASE, c_star, hi)
        assert above - below == pytest.approx(cr.loss_jump, abs=1e-8)
        # the jump is aligned with the sink's stationary direction
        jump = cr.jump_vector
        assert np.allclose(jump / jump.sum(), PI_TRIANGLE, atol=1e-9)

    def test_no_crossing_for_out_connected_network(self):
        net = Network([[0.0, 0.5], [0.4, 0.0]], [1.0, 1.0])
        ray = ShockRay([1.0, 1.0], [0.5, 0.5], 0.0, 6.0, 13)
        _, crossings = sweep(net, ray)
        assert crossings == []

    def test_crossing_behind_a_saturating_feeder(self):
        # two feeders into a 2-cycle; feeder 0 saturates, then drains as eps
        # grows, so the sink's inflow sum is piecewise linear in eps:
        # g(eps) = 1.5 - 0.5 eps + clamp(2 - eps, 0, 1), with root eps* = 3
        P = np.zeros((4, 4))
        P[0, 2] = P[1, 3] = 1.0
        P[2, 3] = P[3, 2] = 1.0
        net = Network(P, np.array([1.0, 1.0, 2.0, 2.0]))
        ray = ShockRay([2.0, 0.5, 0.5, 0.5], [1.0, 0.0, 0.25, 0.25], 0.0, 5.0, 26)
        records, crossings = sweep(net, ray)
        assert len(crossings) == 1
        cr = crossings[0]
        assert cr.eps_star == pytest.approx(3.0, abs=1e-9)
        assert cr.sink_nodes == (2, 3)
        # hand-derived segment at c*: base (-0.25, 0), direction (0.5, 0.5),
        # alpha in [0.5, 4]
        assert np.allclose(cr.jump_vector, [0.0, 0.0, 1.75, 1.75], atol=1e-8)
        assert cr.loss_jump == pytest.approx(3.5, abs=1e-8)
        # one-sided limits: the unique equilibrium just off the manifold sits
        # next to the matching segment endpoint (piecewise-linear in eps)
        for s, expected_sink in ((-1e-3, [1.75, 2.0]), (1e-3, [0.0, 0.25])):
            lo_s, hi_s = extremal_equilibria(net, ray.c_at(3.0 + s))
            assert np.max(np.abs(hi_s.x - lo_s.x)) <= 1e-9  # unique off the manifold
            assert np.allclose(lo_s.x[2:], expected_sink, atol=5e-3)

    def test_two_sinks_two_crossings(self):
        # disjoint 2-cycles whose inflow sums hit zero at eps = 2 and eps = 6
        P = np.zeros((4, 4))
        P[0, 1] = P[1, 0] = 1.0
        P[2, 3] = P[3, 2] = 1.0
        net = Network(P, np.array([1.0, 1.0, 2.0, 2.0]))
        ray = ShockRay([2.0, 2.0, 3.0, 3.0], [1.0, 1.0, 0.5, 0.5], 0.0, 8.0, 17)
        _, crossings = sweep(net, ray)
        assert [cr.sink_index for cr in crossings] == [0, 1]
        assert crossings[0].eps_star == pytest.approx(2.0, abs=1e-9)
        assert crossings[1].eps_star == pytest.approx(6.0, abs=1e-9)
        # each jump lives on its own sink
        assert crossings[0].loss_jump == pytest.approx(2.0, abs=1e-8)
        assert np.allclose(crossings[0].jump_vector[2:], 0.0, atol=1e-9)
        assert crossings[1].loss_jump == pytest.approx(4.0, abs=1e-8)
        assert np.allclose(crossings[1].jump_vector[:2], 0.0, atol=1e-9)

    def test_csv_shape_and_determinism(self, triangle):
        records, _ = sweep(triangle, demo_ray(grid=15))
        text = sweep_to_csv(records, 3)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "eps,unique,loss_min,loss_max,n_defaults,"
            "x_min_1,x_min_2,x_min_3,x_max_1,x_max_2,x_max_3"
        )
        assert len(lines) == 16
        records2, _ = sweep(triangle, demo_ray(grid=15))
        assert sweep_to_csv(records2, 3) == text

    def test_default_thresholds_along_demo_ray(self, triangle):
        # first default: node 1 (0-based) leaves saturation at 4.15/0.59
        records, _ = sweep(triangle, ShockRay(C_BASE, Q_DIR, 6.9, 7.2, 31))
        threshold = 4.15 / 0.59
        for r in records:
            if r.eps < threshold - 1e-6:
                assert r.defaults == ()
            elif r.eps > threshold + 1e-6:
                assert r.defaults == (1,)
