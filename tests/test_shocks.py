from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import saturnet.shocks
import saturnet.solver
from saturnet import (
    InputError,
    Network,
    NonConvergenceError,
    NotCriticalError,
    ShockRay,
    SinkKind,
    SolveOptions,
    extremal_equilibria,
    find_critical_eps,
    load_input,
    loss_jump,
    max_jump_norm,
    sweep,
    sweep_to_csv,
    systemic_loss,
)
from saturnet._fmt import csv_lines, fmt_float
from saturnet._tol import ROUND_REL, flow_tolerance, scale
from saturnet.decomposition import block_structure
from saturnet.shocks import EPS_BISECT_TOL, SweepRecord, _chunks, _flow_entries, _loss

from conftest import (
    C_BASE, C_STAR, CONDITION_STAR, PI_TRIANGLE, Q_DIR, TRIANGLE_P, TRIANGLE_W, X_MAX_STAR, X_MIN_STAR,
    core_feeding_sets, large_blocks, random_irreducible_stochastic, random_network,
)
from oracles import bisect_crossing


REPO = Path(__file__).resolve().parents[1]


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
        for not_an_integer in (2.5, 5.0, np.float64(5.0), np.nan, True):
            with pytest.raises(InputError, match="^grid must be an integer$"):
                ShockRay([1.0, 2.0], [1.0, 1.0], 0.0, 1.0, not_an_integer)
        assert ShockRay([1.0, 2.0], [1.0, 1.0], 0.0, 1.0, np.int64(5)).grid == 5
        for c0, q, message in (
            (["a"] * 3, [1.0] * 3, "^c0 is not a numeric vector"),
            ([1.0, 2.0], ["a", "b"], "^q is not a numeric vector"),
            ([[1.0, 2.0]], [1.0, 1.0], "^c0 must be one-dimensional"),
            ([1.0, 2.0], [1.0, 1.0, 1.0], "^q has length 3, expected 2$"),
            ([1.0, np.nan], [1.0, 1.0], "^c0 contains non-finite entries$"),
            ([1.0, 2.0], [1.0, np.inf], "^q contains non-finite entries$"),
        ):
            with pytest.raises(InputError, match=message):
                ShockRay(c0, q, 0.0, 1.0, 5)
        for lo, hi in (("0", 1.0), (0.0, None), (False, 1.0)):
            with pytest.raises(InputError, match="^eps_(lo|hi) must be a number$"):
                ShockRay([1.0, 2.0], [1.0, 1.0], lo, hi, 5)
        for lo, hi in ((0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan), (np.nan, 1.0)):
            with pytest.raises(InputError, match="eps_lo and eps_hi must be finite"):
                ShockRay([1.0, 2.0], [1.0, 1.0], lo, hi, 5)
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
        assert loss_jump(triangle, C_STAR) == float((hi.x - lo.x).sum())

    def test_equals_every_crossing_jump(self):
        # the README sweep and the golden seeded ray: loss_jump at each
        # crossing's c_star is the crossing's own loss_jump, bit for bit
        baseline, _ = load_input(REPO / "demos" / "triangle_baseline.json")
        ray_file = REPO / "tests" / "golden" / "seeded_ray.json"
        seeded, flow = load_input(ray_file)
        q = json.loads(ray_file.read_text(encoding="utf-8"))["q"]
        rays = [
            (baseline, ShockRay(C_BASE, Q_DIR, 0.0, 14.0, 1401)),
            (seeded, ShockRay(flow.c, q, 0.0, 10.0, 101)),
        ]
        for net, ray in rays:
            _, crossings = sweep(net, ray)
            assert crossings
            for cr in crossings:
                assert loss_jump(net, cr.c_star) == cr.loss_jump


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
        for not_a_number in ("2", None, True):
            with pytest.raises(InputError, match="^norm exponent p must be a number$"):
                max_jump_norm(triangle, not_a_number)

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


def mixed_direction_case():
    """A feeder that drains with eps into a 2-cycle whose own inflow grows.

    The sink sum, (-1.2 + 0.4 eps) + clamp(2 - eps, 0, 1), dips through
    zero and back: both range endpoints are negative and only the grid scan
    exposes the first crossing, at 0.5.
    """
    P = np.zeros((3, 3))
    P[0, 1] = 1.0
    P[1, 2] = P[2, 1] = 1.0
    net = Network(P, np.array([1.0, 2.0, 2.0]))
    ray = ShockRay([2.0, -0.6, -0.6], [1.0, -0.2, -0.2], 0.0, 2.5, 26, allow_mixed_direction=True)
    return net, ray


def mixed_kink_case():
    """A feeder that fills with eps into a 2-cycle whose own flow drains.

    The sink sum, -0.05 - 0.1 eps + clamp(eps - 1, 0, 1), is negative at
    both range ends; the grid scan brackets the crossing at 7/6 in [0, 2],
    where the feeder leaves 0 at eps = 1 and saturates at eps = 2.
    """
    P = np.zeros((3, 3))
    P[0, 1] = 1.0
    P[1, 2] = P[2, 1] = 1.0
    net = Network(P, np.array([1.0, 2.0, 2.0]))
    ray = ShockRay([-1.0, -0.025, -0.025], [-1.0, 0.05, 0.05], 0.0, 12.0, 7, allow_mixed_direction=True)
    return net, ray


def seeded_ray():
    """The golden 39-node core-periphery ray: a transient core feeding sets of sizes 1 to 4."""
    ray_file = REPO / "tests" / "golden" / "seeded_ray.json"
    net, flow = load_input(ray_file)
    return net, ShockRay(flow.c, json.loads(ray_file.read_text(encoding="utf-8"))["q"], 0.0, 10.0, 101)


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

    def test_ray_dimension_must_match_the_network(self, triangle):
        ray = ShockRay([1.0, 2.0], [0.5, 0.5], 0.0, 1.0, 5)
        with pytest.raises(InputError, match="^ray dimension does not match the network$"):
            find_critical_eps(triangle, ray, 0)
        with pytest.raises(InputError, match="^ray dimension does not match the network$"):
            sweep(triangle, ray)

    def test_sink_index_must_be_an_integer(self, triangle):
        for not_an_integer in (0.5, 0.0, np.float64(0.0), True):
            with pytest.raises(InputError, match="^sink_index must be an integer$"):
                find_critical_eps(triangle, demo_ray(), not_an_integer)
        assert find_critical_eps(triangle, demo_ray(), np.int64(0)) == find_critical_eps(triangle, demo_ray(), 0)

    def test_mixed_direction_needs_scan(self):
        net, ray = mixed_direction_case()
        assert find_critical_eps(net, ray, 0) == pytest.approx(0.5, abs=1e-9)

    def test_mixed_direction_bracket_across_saturation_changes(self):
        # the scan's ends at eps = 0 and 2 have the feeder at 0 and at w
        net, ray = mixed_kink_case()
        eps = find_critical_eps(net, ray, 0)
        assert eps == 1.1666666666569654  # as before the bisection read the affine pieces
        assert eps == pytest.approx(7.0 / 6.0, abs=EPS_BISECT_TOL)
        assert find_critical_eps(*mixed_direction_case(), 0) == 0.49999999995343386

    def test_transient_feed_moves_the_root(self):
        # one deficient feeder in front of a stochastic 2-cycle: the feeder
        # passes through min(c_f, w_f) as long as its inflow stays positive
        P = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        net = Network(P, np.array([1.0, 2.0, 2.0]))
        ray = ShockRay(np.array([2.0, 1.0, 1.0]), np.array([0.0, 0.5, 0.5]), 0.0, 10.0, 11)
        eps = find_critical_eps(net, ray, 0)
        # sink sum: 1 (feeder at capacity) + 2 - eps = 0
        assert eps == pytest.approx(3.0, abs=1e-9)


def spy_on_hunts(monkeypatch):
    """The number of flows of every transient hunt the bisection runs, in call order."""
    calls, hunt = [], saturnet.shocks._transient_states

    def recording(net, st, c, opts, at=None):
        calls.append(len(c))
        return hunt(net, st, c, opts, at)

    monkeypatch.setattr(saturnet.shocks, "_transient_states", recording)
    return calls


def bisection_steps(ray, lo=None, hi=None) -> int:
    """Steps of a bisection of [lo, hi] (the ray's range by default) down to EPS_BISECT_TOL."""
    width, steps = (ray.eps_hi if hi is None else hi) - (ray.eps_lo if lo is None else lo), 0
    while width > EPS_BISECT_TOL:
        width, steps = 0.5 * width, steps + 1
    return steps


def oracle_root(net, ray, l):
    atol = flow_tolerance(ROUND_REL, scale(net.w), np.abs(ray.c0) + np.abs(ray.q))
    nodes = block_structure(net).decomposition.sinks[l].nodes
    return bisect_crossing(net, ray.c0, ray.q, ray.eps_lo, ray.eps_hi, nodes, atol, EPS_BISECT_TOL)


def assert_agree(root, expected):
    assert (root is None) == (expected is None)
    if root is not None:
        assert abs(root - expected) <= EPS_BISECT_TOL


def random_ray(rng):
    """A ``random_network`` that sends part of each node's flow into a random stochastic set, and a ray.

    w, c0 and q are scaled by 10^U(-3, 6); q is nonnegative.
    """
    base, block = random_network(rng), random_irreducible_stochastic(rng)
    n, k = base.n, len(block)
    P = np.zeros((n + k, n + k))
    P[:n, :n], P[n:, n:] = base.P, block
    share = rng.uniform(0.1, 0.6, n) * (rng.random(n) < 0.6)
    P[:n, n:] = (share * base.P.sum(axis=1))[:, None] * rng.dirichlet(np.ones(k), n)
    P[:n, :n] *= (1.0 - share)[:, None]
    lam = 10.0 ** rng.uniform(-3.0, 6.0)
    w = np.concatenate([base.w, rng.uniform(0.5, 5.0, k)])
    q = rng.uniform(0.0, 1.0, n + k) * (rng.random(n + k) < 0.7)
    q[rng.integers(n + k)] += 0.1
    return Network(P, lam * w), ShockRay(lam * rng.uniform(-1.0, 3.0, n + k), lam * q, 0.0, 5.0, 6)


class TestAffineBisection:
    """The bisection reads the inflow sum off its bracket ends where the transient pattern holds."""

    def test_readme_ray_agrees_with_the_oracle(self, triangle):
        ray = demo_ray()
        assert_agree(find_critical_eps(triangle, ray, 0), oracle_root(triangle, ray, 0))

    def test_core_periphery_ray_agrees_with_the_oracle(self):
        net, ray = seeded_ray()
        sinks = block_structure(net).decomposition.sinks
        roots = [(l, find_critical_eps(net, ray, l)) for l, s in enumerate(sinks) if not s.out_connected]
        assert sum(e is not None and 0.0 < e < ray.eps_hi for _, e in roots) >= 4
        for l, e in roots:
            assert_agree(e, oracle_root(net, ray, l))

    def test_most_steps_run_no_hunt(self, monkeypatch):
        net, ray = seeded_ray()
        calls = spy_on_hunts(monkeypatch)
        bisected = 0
        for l, s in enumerate(block_structure(net).decomposition.sinks):
            if s.out_connected:
                continue
            calls.clear()
            e = find_critical_eps(net, ray, l)
            assert calls[0] == 2  # the range ends, one stack
            if e is not None and 0.0 < e < ray.eps_hi:
                assert len(calls) - 1 < bisection_steps(ray) / 2
                bisected += 1
        assert bisected >= 4

    def test_mixed_direction_scan_bracket_hunts_few_steps(self, monkeypatch):
        net, ray = mixed_kink_case()
        calls = spy_on_hunts(monkeypatch)
        find_critical_eps(net, ray, 0)
        assert calls[:2] == [2, ray.grid]  # the range ends, then the scan
        assert 0 < len(calls) - 2 < bisection_steps(ray, 0.0, 2.0) / 2

    def test_random_rays_agree_with_the_oracle_and_the_sweep(self):
        rng = np.random.default_rng(1414)
        found = crossed = 0
        for _ in range(200):
            net, ray = random_ray(rng)
            sinks = block_structure(net).decomposition.sinks
            _, crossings = sweep(net, ray)
            for cr in crossings:
                assert cr.eps_star == find_critical_eps(net, ray, cr.sink_index)
            for l, s in enumerate(sinks):
                if not s.out_connected:
                    e = find_critical_eps(net, ray, l)
                    assert_agree(e, oracle_root(net, ray, l))
                    found += e is not None
            crossed += len(crossings)
        assert found >= 100 and crossed >= 50


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

    @pytest.mark.parametrize("lam", [1e-10, 1e9])
    def test_scaled_readme_sweep(self, triangle, lam):
        # scaling w, c0 and q by lam scales every answer and moves no verdict
        records, crossings = sweep(triangle, demo_ray(grid=1401))
        net = Network(TRIANGLE_P, lam * TRIANGLE_W)
        records_s, crossings_s = sweep(net, ShockRay(lam * C_BASE, lam * Q_DIR, 0.0, 14.0, 1401))
        assert [(r.unique, len(r.defaults)) for r in records_s] == [
            (r.unique, len(r.defaults)) for r in records
        ]
        assert max(len(r.defaults) for r in records) == 3
        assert [cr.eps_star for cr in crossings_s] == [cr.eps_star for cr in crossings] != []
        for cr_s, cr in zip(crossings_s, crossings):
            np.testing.assert_allclose(cr_s.jump_vector, lam * cr.jump_vector, rtol=1e-12, atol=0)
            assert cr_s.loss_jump == pytest.approx(lam * cr.loss_jump, rel=1e-12)

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

    def test_small_node_default_beside_a_large_one(self):
        # node 1's capacity is far below 1e-9 of node 0's; paying 0 of it is
        # still a default, judged against its own capacity
        net = Network(np.zeros((2, 2)), [1e10, 1.0])
        records, _ = sweep(net, ShockRay([5e9, -1.0], [1.0, 0.0], 0.0, 1.0, 3))
        for r in records:
            assert r.x_min[1] == 0.0
            assert r.defaults == (0, 1)

    def test_default_thresholds_along_demo_ray(self, triangle):
        # first default: node 1 (0-based) leaves saturation at 4.15/0.59
        records, _ = sweep(triangle, ShockRay(C_BASE, Q_DIR, 6.9, 7.2, 31))
        threshold = 4.15 / 0.59
        for r in records:
            if r.eps < threshold - 1e-6:
                assert r.defaults == ()
            elif r.eps > threshold + 1e-6:
                assert r.defaults == (1,)


def core_rays(seed, count):
    """Core-and-sets networks, each with a shock ray that drains the core and the sets.

    Every base case is followed by a copy with w, c0 and q scaled per node
    by 10^U(-3, 6).
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        net, c, _ = core_feeding_sets(rng, (1, 2, 3), 4, core=int(rng.integers(1, 6)))
        q = rng.uniform(0.0, 0.5, net.n) * (rng.random(net.n) < 0.8)
        q[0] += 0.1
        ray = ShockRay(c, q, 0.0, 3.0, 31)
        yield net, ray
        s = 10.0 ** rng.uniform(-3.0, 6.0, net.n)
        yield Network(net.P, s * net.w), ShockRay(s * c, s * q, 0.0, 3.0, 31)


def assert_each_point_as_alone(net, ray, records, crossings):
    """Every record and crossing bit for bit as the single-flow calls give it."""
    assert [r.eps for r in records] == np.linspace(ray.eps_lo, ray.eps_hi, ray.grid).tolist()
    for r in records:
        c = ray.c_at(r.eps)
        lo, hi = extremal_equilibria(net, c)
        assert r.x_min.tobytes() == lo.x.tobytes() and r.x_max.tobytes() == hi.x.tobytes()
        assert r.loss_min == _loss(ray.c0, c, net.w, hi.x) and r.loss_max == _loss(ray.c0, c, net.w, lo.x)
    for cr in crossings:
        assert cr.eps_star == find_critical_eps(net, ray, cr.sink_index)
        assert cr.c_star.tobytes() == ray.c_at(cr.eps_star).tobytes()
        lo, hi = extremal_equilibria(net, cr.c_star)
        assert cr.jump_vector.tobytes() == (hi.x - lo.x).tobytes()
        assert cr.loss_jump == loss_jump(net, cr.c_star)


def record_bits(r):
    """A record's fields as bytes and exact floats, so -0.0 and 0.0 differ."""
    return (
        r.eps.hex(), r.x_min.tobytes(), r.x_max.tobytes(), r.loss_min.hex(), r.loss_max.hex(), r.defaults, r.unique
    )


class TestStackedSweep:
    """A sweep solves its grid and its bisections as stacks of flows; nothing may move a bit."""

    def test_each_point_as_if_alone(self):
        crossed = 0
        for net, ray in core_rays(909, 4):
            records, crossings = sweep(net, ray)
            assert_each_point_as_alone(net, ray, records, crossings)
            crossed += len(crossings)
        assert crossed >= 8

    def test_mixed_direction_sweep(self):
        net, ray = mixed_direction_case()
        records, crossings = sweep(net, ray)
        assert_each_point_as_alone(net, ray, records, crossings)
        assert [cr.eps_star for cr in crossings] == [find_critical_eps(net, ray, 0)]

    def test_records_read_from_the_table(self):
        # the table builds a record when it is read: an index, a slice and full
        # iteration read the same bits, each as the single-flow calls give it,
        # and a list of the records writes the CSV the table writes
        tol = SolveOptions().tol_class
        for net, ray in [*core_rays(909, 2), mixed_direction_case()]:
            records, crossings = sweep(net, ray)
            assert len(records) == ray.grid
            by_index = [records[i] for i in range(ray.grid)]
            assert_each_point_as_alone(net, ray, by_index, crossings)
            assert_each_point_as_alone(net, ray, records[:], [])
            assert list(map(record_bits, records)) == list(map(record_bits, by_index))
            assert list(map(record_bits, records[-2::-3])) == list(map(record_bits, by_index[-2::-3]))
            assert record_bits(records[-1]) == record_bits(by_index[-1])
            for r in by_index:
                lo, hi = extremal_equilibria(net, ray.c_at(r.eps))
                assert r.defaults == tuple(np.flatnonzero(lo.x < net.w - tol * net.w).tolist())
                assert r.unique == (lo.x == hi.x).all() and not r.x_min.flags.writeable
            assert sweep_to_csv(list(records), net.n) == sweep_to_csv(records, net.n)

    def test_chunks_of_one_point_give_the_same_sweep(self, monkeypatch):
        net, ray = next(core_rays(911, 1))
        records, crossings = sweep(net, ray)
        monkeypatch.setattr(saturnet.shocks, "STACK_ENTRIES", 1)
        alone, alone_crossings = sweep(net, ray)
        assert sweep_to_csv(alone, net.n) == sweep_to_csv(records, net.n)
        assert [cr.eps_star for cr in alone_crossings] == [cr.eps_star for cr in crossings]

    def test_edge_list_blocks_stack_many_points(self, monkeypatch):
        # the 700-node transient part is hunted on its edge list, so a point
        # counts its edges and ROW_ENTRIES per node, not 700², and the grid
        # goes in a few chunks, with the bytes it gets one point at a time
        net, c = large_blocks(np.random.default_rng(3), 700, 3)
        st = block_structure(net)
        ray = ShockRay(c, np.abs(c) + 0.5, 0.0, 4.0, 41)
        assert -1 in st.edges and len(_chunks(41, _flow_entries(st))) < 41
        records, crossings = sweep(net, ray)
        monkeypatch.setattr(saturnet.shocks, "STACK_ENTRIES", 1)
        alone, alone_crossings = sweep(net, ray)
        assert sweep_to_csv(alone, net.n) == sweep_to_csv(records, net.n)
        assert crossings and [json.dumps(cr.to_json_dict()) for cr in alone_crossings] == [
            json.dumps(cr.to_json_dict()) for cr in crossings
        ]

    def test_chunks_hold_the_entry_bound(self, monkeypatch):
        # 300 one-node sets: each (point, set) row costs 1 + ROW_ENTRIES
        # entries, so the 200 points go in chunks of 52
        n = 300
        net = Network(np.eye(n), np.ones(n))
        rng = np.random.default_rng(913)
        ray = ShockRay(rng.uniform(0.5, 2.0, n), rng.uniform(0.1, 1.0, n), 0.0, 1.0, 200)
        hunt, rows = saturnet.solver.hunt_unique, []

        def recording(Q, w, c, opts, from_top, label):
            rows.append(len(c))
            return hunt(Q, w, c, opts, from_top, label)

        monkeypatch.setattr(saturnet.solver, "hunt_unique", recording)
        records, _ = sweep(net, ray)
        assert rows[:4] == [52 * n, 52 * n, 52 * n, 44 * n]  # the grid; then the stacked crossings
        assert max(rows) * (1 + saturnet.shocks.ROW_ENTRIES) <= saturnet.shocks.STACK_ENTRIES
        for r in records[::20]:
            lo, hi = extremal_equilibria(net, ray.c_at(r.eps))
            assert r.x_min.tobytes() == lo.x.tobytes() and r.x_max.tobytes() == hi.x.tobytes()

    def test_error_names_the_block_and_the_eps(self):
        # set 0 (nodes 0, 1) saturates at once; set 1 (nodes 2, 3) creeps
        # where its own flow nears (0.5, -0.2), at eps = 1
        P = np.zeros((4, 4))
        P[0, 1] = P[1, 0] = 1.0
        P[2, 3] = P[3, 2] = 0.999
        net = Network(P, np.ones(4))
        ray = ShockRay([2.0, 2.0, 3.0, 3.0], [0.0, 0.0, 2.5, 3.2], 0.0, 1.5, 7)
        opts = SolveOptions(max_iter=2)
        fails = []
        for eps in np.linspace(0.0, 1.5, 7).tolist():
            try:
                extremal_equilibria(net, ray.c_at(eps), opts)
            except NonConvergenceError:
                fails.append(eps)
        assert fails and fails[0] > 0.0
        with pytest.raises(NonConvergenceError) as err:
            sweep(net, ray, opts)
        e = err.value
        assert (e.block, e.kind, e.nodes) == (1, SinkKind.OUT_CONNECTED, (2, 3))
        assert e.at == f"eps = {fmt_float(fails[0])}" == "eps = 0.75"
        assert str(e) == (
            f"trapping set 1 (out_connected; nodes 2, 3) at eps = {fmt_float(fails[0])}: "
            "no convergence within 2 iterations"
        )

    def test_error_names_the_first_point_over_every_size_group(self):
        # set 0 (node 0, the one-node group) fails only at eps = 1; set 1
        # (nodes 1, 2, the two-node group) already fails at eps = 0
        net = Network([[0.5, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], np.ones(3))
        ray = ShockRay((-1.0, 0.5, -0.2), (-6.0, 1.5, 0.8), 0.0, 1.0, 2, allow_mixed_direction=True)
        opts = SolveOptions(max_iter=1)
        with pytest.raises(NonConvergenceError) as alone:
            extremal_equilibria(net, ray.c_at(0.0), opts)
        assert alone.value.block == 1
        with pytest.raises(NonConvergenceError) as err:
            sweep(net, ray, opts)
        assert (err.value.block, err.value.at) == (1, "eps = 0")
        assert str(err.value) == (
            "trapping set 1 (stochastic_nonzero_sum; nodes 1, 2) at eps = 0: "
            "no convergence within 1 iterations"
        )


def with_ray(ray, **changes) -> ShockRay:
    fields = dict(c0=ray.c0, q=ray.q, eps_lo=ray.eps_lo, eps_hi=ray.eps_hi, grid=ray.grid)
    return ShockRay(**{**fields, **changes}, allow_mixed_direction=ray.allow_mixed_direction)


def grid_of(ray) -> np.ndarray:
    return np.linspace(ray.eps_lo, ray.eps_hi, ray.grid)


def assert_crossings_are_the_roots(net, ray):
    """``sweep``'s crossings, each bit for bit the root ``find_critical_eps`` gives its set; returns their eps."""
    _, crossings = sweep(net, ray)
    for cr in crossings:
        assert cr.eps_star == find_critical_eps(net, ray, cr.sink_index)
    return [cr.eps_star for cr in crossings]


class TestGridReuse:
    """The bisection reads the sums and patterns of shock sizes a sweep's grid already solved."""

    # 1401 and 201 points put the first halvings of [0, 14] on the grid; 1400 and 200 only the ends
    @pytest.mark.parametrize("grid", [1401, 201, 1400, 200])
    def test_readme_ray_roots_on_any_grid(self, triangle, grid):
        roots = assert_crossings_are_the_roots(triangle, demo_ray(grid=grid))
        assert roots == assert_crossings_are_the_roots(triangle, demo_ray())
        assert len(roots) == 1 and roots[0] == pytest.approx(9.0, abs=1e-9)

    def test_seeded_ray_roots_on_any_grid(self):
        net, ray = seeded_ray()
        roots = [assert_crossings_are_the_roots(net, with_ray(ray, grid=grid)) for grid in (101, 201, 100, 2)]
        assert len(roots[0]) >= 3 and all(r == roots[0] for r in roots)

    def test_negative_zero_range_end(self, triangle):
        # linspace starts at 0.0, so eps_lo = -0.0 has no grid point's bits,
        # and the -0.0 in c0 gets another sign there than at the grid's first flow
        net, ray = seeded_ray()
        c0 = ray.c0.copy()
        c0[np.flatnonzero(ray.q)[0]] = -0.0
        roots = [assert_crossings_are_the_roots(net, with_ray(ray, c0=c0, eps_lo=-0.0, grid=g)) for g in (101, 100)]
        assert roots[0] and roots[0] == roots[1]
        rays = [with_ray(demo_ray(grid=g), c0=[5.0, -0.0, 2.0], eps_lo=-0.0) for g in (1401, 8)]
        readme = [assert_crossings_are_the_roots(triangle, ray) for ray in rays]
        assert readme[0] and readme[0] == readme[1]

    @pytest.mark.parametrize("case", [mixed_direction_case, mixed_kink_case])
    @pytest.mark.parametrize("grid", [7, 8, 13, 26, 49])
    def test_mixed_direction_roots(self, case, grid):
        net, ray = case()
        assert_crossings_are_the_roots(net, with_ray(ray, grid=grid))

    def test_mixed_direction_core_rays(self):
        rng, crossed = np.random.default_rng(917), 0
        for net, ray in core_rays(919, 3):
            q = ray.q * rng.choice([-1.0, 1.0], net.n, p=[0.3, 0.7])
            for grid in (31, 32):
                ray = ShockRay(ray.c0, q, 0.0, 3.0, grid, allow_mixed_direction=True)
                crossed += len(assert_crossings_are_the_roots(net, ray))
        assert crossed >= 4

    def test_grid_sums_are_the_hunts(self):
        # what the grid's analysis holds, the stochastic sets' inflow sums and
        # the transient patterns, is what a hunt at the same shock size gives
        cases = [seeded_ray(), *core_rays(921, 2)]
        net, c = large_blocks(np.random.default_rng(5), 600, 3, stochastic=True)
        cases.append((net, ShockRay(c, np.abs(c) + 0.5, 0.0, 4.0, 21)))
        assert -1 in block_structure(net).edges  # the transient part is listed
        for net, ray in cases:
            st, eps = block_structure(net), grid_of(ray)
            found = saturnet.solver._analyze(net, ray.c0 - eps[:, None] * ray.q, SolveOptions())
            for g, v in zip(st.groups, found.groups):
                sets = g.sets[g.stochastic]
                rows = np.broadcast_to(sets, (ray.grid, sets.size))
                sums, patterns = saturnet.shocks._inflow_sums(net, st, ray, eps, rows, SolveOptions())
                assert sums.tobytes() == v.total.reshape(ray.grid, -1)[:, g.stochastic].tobytes()
                w_T = net.w[st.transient]
                assert np.array_equal(patterns, np.hstack([found.transient == 0.0, found.transient == w_T]))
            assert any(g.stochastic.any() for g in st.groups)

    @pytest.mark.parametrize("case, grid", [("readme", 1401), ("seeded", 101), ("seeded", 201)])
    def test_no_grid_point_is_hunted(self, monkeypatch, triangle, case, grid):
        net, ray = (triangle, demo_ray()) if case == "readme" else seeded_ray()
        ray = with_ray(ray, grid=grid)
        flows, hunt = [], saturnet.shocks._transient_states

        def recording(net, st, c, opts, at=None):
            flows.extend(c)
            return hunt(net, st, c, opts, at)

        monkeypatch.setattr(saturnet.shocks, "_transient_states", recording)
        sweep(net, ray)
        # a hunted flow with the bits of a grid point's flow re-derives that point
        on_grid = {(ray.c0 - e * ray.q).tobytes() for e in grid_of(ray).tolist()}
        assert sum(c.tobytes() in on_grid for c in flows) == 0
        assert (len(flows) == 0) == (case == "readme")  # the seeded ray still hunts between grid points


def generic_sweep_csv(records, n):
    """The sweep table written cell by cell through ``_fmt.csv_lines``."""
    header = ["eps", "unique", "loss_min", "loss_max", "n_defaults"]
    header += [f"x_{side}_{i + 1}" for side in ("min", "max") for i in range(n)]
    rows = [
        [r.eps, r.unique, r.loss_min, r.loss_max, len(r.defaults), *r.x_min, *r.x_max] for r in records
    ]
    return csv_lines(header, rows)


class TestSweepCsv:
    def test_row_format_equals_the_generic_cells(self):
        x = np.array([-0.0, 5e-324, 1e16, -1e-300])
        records = [
            SweepRecord(-0.0, x, x[::-1].copy(), 1e16, -1e-300, (0, 3), True),
            SweepRecord(5e-324, x + 1.0, x, 0.1 + 0.2, 2.0 / 3.0, (), False),
        ]
        text = sweep_to_csv(records, 4)
        assert text == generic_sweep_csv(records, 4)
        assert text.split("\n")[1].startswith("0,true,1e+16,-1e-300,2,0,4.94065645841e-324,1e+16,-1e-300,")

    def test_repeated_values_equal_the_generic_cells(self):
        # each distinct value is formatted once and shared: equal values in
        # different columns, -0.0 beside 0.0, x_max equal to x_min, a row
        # repeated, a value that differs from another only in its 17th digit
        w = np.array([2.0, 0.1 + 0.2, 0.3, 2.0])
        x = np.array([-0.0, 0.3, 0.1 + 0.2, 2.0])
        records = [
            SweepRecord(0.0, x, x.copy(), 0.0, -0.0, (0,), True),
            SweepRecord(0.3, x, w, 2.0, 0.3, (0,), False),
            SweepRecord(0.3, x, w, 2.0, 0.3, (0,), False),
            SweepRecord(2.0, np.zeros(4), -np.zeros(4), 0.1 + 0.2, 0.1 + 0.2, (0, 1, 2, 3), True),
        ]
        for chosen in (records, records[1:2], []):
            assert sweep_to_csv(chosen, 4) == generic_sweep_csv(chosen, 4)
        assert sweep_to_csv([], 4).count("\n") == 1
        rows = sweep_to_csv(records, 4).split("\n")
        assert rows[1] == "0,true,0,0,1,0,0.3,0.3,2,0,0.3,0.3,2"
        assert rows[2] == rows[3]

    def test_x_max_equal_to_x_min_on_a_row_not_flagged_unique(self):
        # the x_max half repeats x_min wherever the arrays are equal, whatever the flag says
        x = np.array([0.1 + 0.2, 2.0 / 3.0, 5.0])
        records = [
            SweepRecord(0.0, x, x.copy(), 1.0, 2.0, (), False),
            SweepRecord(0.5, x, x + 1.0, 1.0, 2.0, (), True),
        ]
        rows = sweep_to_csv(records, 3).split("\n")
        assert sweep_to_csv(records, 3) == generic_sweep_csv(records, 3)
        assert rows[1] == "0,false,1,2,0,0.3,0.666666666667,5,0.3,0.666666666667,5"
        assert rows[2].startswith("0.5,true,1,2,0,0.3,0.666666666667,5,1.3,1.66666666667,6")

    def test_negative_zero_across_the_halves(self):
        # -0.0 == 0.0: the first row's halves are equal and share x_min's
        # text, the second's differ in their last cell; every zero prints as 0
        records = [
            SweepRecord(-0.0, np.array([-0.0, 0.0, 1.5]), np.array([0.0, -0.0, 1.5]), -0.0, 0.0, (0,), True),
            SweepRecord(0.0, np.array([0.0, -0.0, 1.5]), np.array([-0.0, 0.0, 2.5]), 0.0, -0.0, (1,), False),
        ]
        assert sweep_to_csv(records, 3) == generic_sweep_csv(records, 3)
        assert sweep_to_csv(records, 3).split("\n")[1:3] == [
            "0,true,0,0,1,0,0,1.5,0,0,1.5",
            "0,false,0,0,1,0,0,1.5,0,0,2.5",
        ]

    def test_non_finite_value_is_refused(self):
        x = np.array([0.5, np.nan])
        record = SweepRecord(0.0, np.zeros(2), x, 0.0, 0.0, (), False)
        with pytest.raises(InputError, match="cannot serialize non-finite value nan"):
            sweep_to_csv([record], 2)

    @pytest.mark.parametrize("first, later", [(np.inf, np.nan), (np.nan, -np.inf), (-np.inf, np.inf)])
    def test_first_non_finite_cell_in_row_order_is_named(self, first, later):
        x = np.array([0.5, 1.0])
        records = [
            SweepRecord(0.0, x, x, 0.0, 0.0, (), True),
            SweepRecord(1.0, x, np.array([0.5, first]), 0.0, 0.0, (), False),
            SweepRecord(later, x, x, later, 0.0, (), True),
        ]
        with pytest.raises(InputError) as expected:
            fmt_float(first)
        with pytest.raises(InputError) as got:
            sweep_to_csv(records, 2)
        assert str(got.value) == str(expected.value)
