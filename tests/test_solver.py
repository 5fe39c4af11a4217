from __future__ import annotations

import numpy as np
import pytest

from saturnet import (
    InputError,
    Network,
    NonConvergenceError,
    PartitionInconsistencyError,
    SinkKind,
    SolveOptions,
    classify,
    extremal_equilibria,
    fixed_point_map,
    fixed_point_residual,
    iterate,
    maximal_equilibrium,
    minimal_equilibrium,
    node_partition,
    refine,
)

from conftest import C_BASE, C_STAR, TRIANGLE_P, TRIANGLE_W, X_MAX_STAR, X_MIN_STAR, random_network
from oracles import brute_maximal, brute_minimal


class TestSolveOptions:
    def test_defaults(self):
        opts = SolveOptions()
        assert opts.tol_fp == 1e-12
        assert opts.tol_class == 1e-9
        assert opts.max_iter == 10**6

    def test_invariants(self):
        with pytest.raises(InputError):
            SolveOptions(tol_fp=0.0)
        with pytest.raises(InputError):
            SolveOptions(max_iter=0)
        with pytest.raises(InputError):
            SolveOptions(tol_fp=1e-6, tol_class=1e-9)


class TestIterate:
    def test_equilibrium_is_fixed(self, triangle):
        out = iterate(triangle, C_STAR, X_MIN_STAR, SolveOptions(max_iter=1))
        assert np.allclose(out.x, X_MIN_STAR, atol=1e-12)

    def test_zero_flow_from_zero_stays_zero(self, triangle):
        out = iterate(triangle, np.zeros(3), np.zeros(3))
        assert np.array_equal(out.x, np.zeros(3))

    def test_zero_flow_from_top(self, triangle):
        out = iterate(triangle, np.zeros(3), triangle.w)
        assert np.allclose(out.x, [0.6, 1.85, 2.0], atol=1e-10)

    def test_outside_box_rejected(self, triangle):
        with pytest.raises(InputError):
            iterate(triangle, np.zeros(3), triangle.w + 1.0)

    def test_budget_exhaustion_carries_last_iterate(self, triangle):
        with pytest.raises(NonConvergenceError) as err:
            iterate(triangle, C_STAR, np.zeros(3), SolveOptions(max_iter=3))
        assert err.value.last_iterate is not None
        assert err.value.last_iterate.shape == (3,)

    def test_monotone_from_below_and_above(self, triangle):
        x = np.zeros(3)
        for _ in range(30):
            xn = fixed_point_map(triangle, C_STAR, x)
            assert np.all(xn >= x - 1e-15)
            x = xn
        x = triangle.w.copy()
        for _ in range(30):
            xn = fixed_point_map(triangle, C_STAR, x)
            assert np.all(xn <= x + 1e-15)
            x = xn


class TestExtremes:
    def test_nonpositive_flow_gives_zero_minimum(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            net = random_network(rng)
            c = -rng.uniform(0, 3, net.n)
            assert np.array_equal(minimal_equilibrium(net, c).x, np.zeros(net.n))

    def test_demo_minimal_at_critical_flow(self, triangle):
        lo = minimal_equilibrium(triangle, C_STAR)
        assert np.allclose(lo.x, X_MIN_STAR, atol=1e-10)
        assert lo.residual <= 1e-12

    def test_demo_maximal_at_critical_flow(self, triangle):
        hi = maximal_equilibrium(triangle, C_STAR)
        assert np.allclose(hi.x, X_MAX_STAR, atol=1e-10)

    def test_saturating_flow_pins_everything(self, triangle):
        lo, hi = extremal_equilibria(triangle, C_BASE)
        assert np.allclose(lo.x, triangle.w, atol=1e-12)
        assert np.allclose(hi.x, triangle.w, atol=1e-12)

    def test_flow_at_capacity_saturates(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            net = random_network(rng)
            c = net.w + rng.uniform(0, 1, net.n)
            lo, hi = extremal_equilibria(net, c)
            assert np.allclose(lo.x, net.w, atol=1e-12)
            assert np.allclose(hi.x, net.w, atol=1e-12)

    def test_two_cycle_segment_endpoints(self, two_cycle):
        lo, hi = extremal_equilibria(two_cycle, np.zeros(2))
        assert np.array_equal(lo.x, [0.0, 0.0])
        assert np.allclose(hi.x, [1.0, 1.0], atol=1e-14)

    def test_against_plain_iteration(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            net = random_network(rng, n_max=6)
            c = rng.uniform(-3, 3, net.n)
            lo, hi = extremal_equilibria(net, c)
            assert np.allclose(lo.x, brute_minimal(net.P, net.w, c), atol=1e-8)
            assert np.allclose(hi.x, brute_maximal(net.P, net.w, c), atol=1e-8)

    def test_order_and_residual_contract(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            net = random_network(rng)
            c = rng.uniform(-4, 4, net.n)
            lo, hi = extremal_equilibria(net, c)
            assert np.all(lo.x <= hi.x + 1e-12)
            assert np.all(lo.x >= -1e-15) and np.all(lo.x <= net.w + 1e-15)
            assert fixed_point_residual(net, c, lo.x) <= 1e-12
            assert fixed_point_residual(net, c, hi.x) <= 1e-12

    def test_monotone_in_flow(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            net = random_network(rng)
            c = rng.uniform(-3, 3, net.n)
            c2 = c + rng.uniform(0, 2, net.n)
            lo1, hi1 = extremal_equilibria(net, c)
            lo2, hi2 = extremal_equilibria(net, c2)
            assert np.all(lo1.x <= lo2.x + 1e-9)
            assert np.all(hi1.x <= hi2.x + 1e-9)

    def test_self_loop_only_node(self):
        net = Network([[1.0]], [2.0])
        lo, hi = extremal_equilibria(net, [0.0])
        assert lo.x[0] == 0.0
        assert np.isclose(hi.x[0], 2.0)

    def test_dense_self_loops_with_small_drive(self):
        net = Network([[0.5, 0.5], [0.5, 0.5]], [1.0, 1.0])
        lo, hi = extremal_equilibria(net, [1e-7, 1e-7])
        assert np.allclose(lo.x, [1.0, 1.0], atol=1e-10)
        assert np.allclose(hi.x, [1.0, 1.0], atol=1e-10)

    def test_zero_capacity_nodes(self):
        net = Network([[0.0, 1.0], [1.0, 0.0]], [0.0, 3.0])
        lo, hi = extremal_equilibria(net, [0.5, 0.5])
        assert lo.x[0] == 0.0 and hi.x[0] == 0.0
        # node 1 receives only the exogenous drive
        assert np.isclose(hi.x[1], 0.5)

    def test_transient_feeding_two_sinks(self):
        # node 0 splits into two 2-cycles; the first sees a zero-sum inflow
        # (segment), the second a positive sum (unique, saturated)
        P = np.zeros((5, 5))
        P[0, 1] = P[0, 3] = 0.5
        P[1, 2] = P[2, 1] = 1.0
        P[3, 4] = P[4, 3] = 1.0
        net = Network(P, np.array([2.0, 1.0, 1.0, 3.0, 3.0]))
        c = np.array([1.0, -0.25, -0.25, 0.5, 0.5])
        lo, hi = extremal_equilibria(net, c)
        assert np.allclose(lo.x, [1.0, 0.25, 0.0, 3.0, 3.0], atol=1e-12)
        assert np.allclose(hi.x, [1.0, 1.0, 0.75, 3.0, 3.0], atol=1e-12)
        assert np.allclose(lo.x, brute_minimal(net.P, net.w, c), atol=1e-9)
        assert np.allclose(hi.x, brute_maximal(net.P, net.w, c), atol=1e-9)

    def test_self_loops_against_plain_iteration(self):
        # the solvers must handle routing mass returned to the sender
        rng = np.random.default_rng(47)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            P = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
            s = P.sum(axis=1)
            pos = s > 0
            P[pos] = P[pos] / s[pos, None] * rng.uniform(0.2, 1.0, pos.sum())[:, None]
            net = Network(P, rng.uniform(0.0, 4.0, n))
            c = rng.uniform(-3, 3, n)
            lo, hi = extremal_equilibria(net, c)
            assert np.allclose(lo.x, brute_minimal(net.P, net.w, c), atol=1e-8)
            assert np.allclose(hi.x, brute_maximal(net.P, net.w, c), atol=1e-8)


def strongly_connected_routing(rng, n, row_sums) -> np.ndarray:
    """Sparse random routing with a covering cycle and the given row sums."""
    P = rng.random((n, n)) * (rng.random((n, n)) < min(1.0, 4.0 / n))
    np.fill_diagonal(P, 0.0)
    order = rng.permutation(n)
    for i in range(n):
        P[order[i], order[(i + 1) % n]] += rng.uniform(0.3, 1.0)
    return P / P.sum(axis=1)[:, None] * row_sums[:, None]


def hunt_cases(kind, seed, count):
    """Seeded (net, c) pairs, n up to 50, whose one trapping set is hunted.

    ``out_connected``: row sums in [0.3, 0.95]. ``near_stochastic``: row sums
    around 0.999 and a small flow, where plain iteration creeps.
    ``nonzero_sum``: stochastic, with an inflow sum of alternating sign.
    """
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(2, 51))
        w = rng.uniform(0.5, 5.0, n)
        if kind == "out_connected":
            P = strongly_connected_routing(rng, n, rng.uniform(0.3, 0.95, n))
            c = rng.uniform(-3.0, 3.0, n)
        elif kind == "near_stochastic":
            P = strongly_connected_routing(rng, n, rng.uniform(0.998, 0.9995, n))
            c = rng.uniform(-1.0, 1.0, n) * w * 10.0 ** rng.uniform(-4.0, -2.0)
        else:
            P = strongly_connected_routing(rng, n, np.ones(n))
            c = rng.uniform(-1.0, 1.0, n)
            c += (-1.0) ** case * rng.uniform(0.05, 1.0) / n - c.mean()
        yield Network(P, w), c


# near-stochastic pair whose saturation pattern is misjudged at first
SLOW_PAIR = (Network([[0.0, 0.999], [0.999, 0.0]], [1.0, 1.0]), np.array([0.5, -0.2]))

# the all-interior pattern's solution leaves the box by less than tol_class
DEAD_BAND_PAIR = (Network([[0.0, 0.5], [0.5, 0.0]], [1.0, 1.0]), np.array([0.75 + 5e-10, -2.5e-10]))


class TestPatternHunt:
    @pytest.mark.parametrize("kind", ["out_connected", "near_stochastic", "nonzero_sum"])
    def test_against_plain_iteration(self, kind):
        for net, c in hunt_cases(kind, 71, 8):
            if kind == "nonzero_sum":
                assert classify(net, c)[1][0].kind is SinkKind.NONZERO_SUM
            lo, hi = extremal_equilibria(net, c)
            assert np.allclose(lo.x, brute_minimal(net.P, net.w, c), atol=1e-8)
            assert np.allclose(hi.x, brute_maximal(net.P, net.w, c), atol=1e-8)

    def test_no_pattern_solved_twice(self, monkeypatch):
        # an equal (matrix, right-hand side) pair means the same pinned node
        # sets are being solved again within one call
        solve = np.linalg.solve
        systems = set()

        def recording(A, b):
            key = (A.tobytes(), np.asarray(b).tobytes())
            assert key not in systems
            systems.add(key)
            return solve(A, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        total = 0
        for net, c in [*hunt_cases("near_stochastic", 73, 12), SLOW_PAIR, DEAD_BAND_PAIR]:
            systems.clear()
            lo, _ = extremal_equilibria(net, c)
            assert lo.residual <= 1e-12
            total += len(systems)
        assert total > 14


class TestScale:
    @pytest.mark.parametrize("s", [1e6, 1e9])
    def test_scaled_critical_triangle(self, s):
        # a segment sink: residuals grow with the scale, not the answer
        lo, hi = extremal_equilibria(Network(TRIANGLE_P, TRIANGLE_W), C_STAR)
        net = Network(TRIANGLE_P, s * TRIANGLE_W)
        lo_s, hi_s = extremal_equilibria(net, s * C_STAR)
        np.testing.assert_allclose(lo_s.x, s * lo.x, rtol=1e-12, atol=1e-12 * s)
        np.testing.assert_allclose(hi_s.x, s * hi.x, rtol=1e-12, atol=1e-12 * s)
        for x in (lo_s, hi_s):
            np.testing.assert_allclose(refine(net, s * C_STAR, x).x, x.x, rtol=1e-12, atol=1e-12 * s)

    @pytest.mark.parametrize("s", [1e6, 1e9])
    @pytest.mark.parametrize("kind", ["near_stochastic", "nonzero_sum"])
    def test_scaled_hunts(self, kind, s):
        # an exact pattern solve is off by an ulp of s here, far above an
        # absolute 1e-12, and the map from it cycles at that ulp
        for net, c in hunt_cases(kind, 5, 10):
            lo, _ = extremal_equilibria(net, c)
            lo_s, hi_s = extremal_equilibria(Network(net.P, s * net.w), s * c)
            assert np.array_equal(lo_s.x, hi_s.x)
            np.testing.assert_allclose(lo_s.x, s * lo.x, rtol=0, atol=1e-12 * s * np.max(net.w))


    def test_huge_flow_does_not_loosen_gates(self):
        # node 2 is clamped to 0 exactly, so its |c| adds no rounding and
        # must not widen the gates; a gate of 0.5 would accept the first
        # map step (0.3, 0.2, 0) from 0
        P = np.full((3, 3), 0.45)
        np.fill_diagonal(P, 0.0)
        net = Network(P, np.ones(3))
        c = np.array([0.3, 0.2, -1e12])
        x1 = 0.39 / 0.7975
        exact = np.array([x1, 0.45 * x1 + 0.2, 0.0])
        for x in extremal_equilibria(net, c):
            np.testing.assert_allclose(x.x, exact, rtol=0, atol=1e-12)
            assert x.residual <= 1e-12
        np.testing.assert_allclose(refine(net, c, np.full(3, 0.4)).x, exact, rtol=0, atol=1e-12)


class TestNodePartition:
    def test_all_surplus_at_baseline(self, triangle):
        part = node_partition(triangle, C_BASE, triangle.w)
        assert part.surplus == (0, 1, 2)
        assert part.exposed == () and part.deficit == ()

    def test_all_exposed_on_segment(self, triangle):
        part = node_partition(triangle, C_STAR, X_MIN_STAR)
        assert part.exposed == (0, 1, 2)

    def test_all_deficit_when_flow_very_negative(self, triangle):
        c = np.full(3, -100.0)
        part = node_partition(triangle, c, np.zeros(3))
        assert part.deficit == (0, 1, 2)

    def test_rejects_non_equilibrium(self, triangle):
        with pytest.raises(InputError):
            node_partition(triangle, C_STAR, triangle.w * 0.5)

    def test_invariant_across_extremes(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            net = random_network(rng)
            c = rng.uniform(-3, 3, net.n)
            lo, hi = extremal_equilibria(net, c)
            assert node_partition(net, c, lo) == node_partition(net, c, hi)


class TestRefine:
    def test_exact_equilibrium_passes_through(self, triangle):
        out = refine(triangle, C_STAR, X_MIN_STAR)
        assert np.allclose(out.x, X_MIN_STAR, atol=1e-12)

    def test_polishes_loose_iterate(self, triangle):
        rough = iterate(triangle, C_STAR, np.zeros(3), SolveOptions(tol_fp=1e-6, tol_class=1e-5))
        assert rough.residual > 1e-12
        polished = refine(triangle, C_STAR, rough)
        assert polished.residual <= 1e-12
        assert np.allclose(polished.x, X_MIN_STAR, atol=1e-6)

    def test_all_saturated_shortcut(self, triangle):
        out = refine(triangle, C_BASE, triangle.w)
        assert np.array_equal(out.x, triangle.w)

    def test_projects_onto_segment(self, two_cycle):
        # midway point of the two-cycle segment, slightly off the line
        out = refine(two_cycle, np.zeros(2), np.array([0.51, 0.49]))
        assert np.isclose(out.x[0], out.x[1])
        assert np.isclose(out.x.mean(), 0.5)
        assert out.residual <= 1e-14

    def test_far_point_raises_inconsistency(self, two_cycle):
        with pytest.raises(PartitionInconsistencyError):
            refine(two_cycle, np.array([0.4, -0.9]), np.array([1.0, 1.0]))

    def test_solves_blockwise(self, monkeypatch):
        # a 4-node transient core feeding three leaky 2-node trapping sets,
        # every node exposed: no solve may span more than one block
        P = np.zeros((10, 10))
        P[:4, :4] = 0.15
        P[:4, 4:] = 0.05
        np.fill_diagonal(P, 0.0)
        for a in (4, 6, 8):
            P[a, a + 1] = P[a + 1, a] = 0.6
        net = Network(P, np.full(10, 10.0))
        c = np.ones(10)
        lo, _ = extremal_equilibria(net, c)
        assert node_partition(net, c, lo).exposed == tuple(range(10))
        solve = np.linalg.solve
        sizes = []

        def recording(A, b):
            sizes.append(len(b))
            return solve(A, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        out = refine(net, c, lo.x + 1e-10)
        assert sizes == [4, 2, 2, 2]
        np.testing.assert_allclose(out.x, lo.x, rtol=0, atol=1e-12)

    def test_random_refinement_agrees_with_solver(self):
        rng = np.random.default_rng(61)
        loose = SolveOptions(tol_fp=1e-7, tol_class=1e-6)
        for _ in range(60):
            net = random_network(rng, n_max=6)
            c = rng.uniform(-3, 3, net.n)
            try:
                rough = iterate(net, c, np.zeros(net.n), loose)
                polished = refine(net, c, rough)
            except PartitionInconsistencyError:
                continue  # legitimately signals the iterate was too rough
            assert polished.residual <= 1e-12
            lo = minimal_equilibrium(net, c)
            assert np.allclose(polished.x, lo.x, atol=1e-5)
