from __future__ import annotations

import numpy as np
import pytest

from saturnet import (
    InputError,
    Network,
    NonConvergenceError,
    PartitionInconsistencyError,
    ShockRay,
    SinkKind,
    SolveOptions,
    classify,
    extremal_equilibria,
    fixed_point_map,
    fixed_point_residual,
    iterate,
    maximal_equilibrium,
    max_jump_norm,
    minimal_equilibrium,
    nash_payments,
    node_partition,
    refine,
    stationary_distribution,
    sweep,
    systemic_loss,
)
import saturnet._hunt
from saturnet._hunt import hunt_unique, solve_patterns
from saturnet.decomposition import block_structure

from conftest import (
    C_BASE, C_STAR, TRIANGLE_P, TRIANGLE_W, X_MAX_STAR, X_MIN_STAR, core_feeding_sets, hunt_case,
    hunt_cases, random_network, shifted_second_set,
)
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


# every function that takes a point x (or x0) of the triangle, called on x
POINT_TAKERS = {
    "fixed_point_map": lambda net, x: fixed_point_map(net, C_STAR, x),
    "fixed_point_residual": lambda net, x: fixed_point_residual(net, C_STAR, x),
    "node_partition": lambda net, x: node_partition(net, C_STAR, x),
    "nash_payments": lambda net, x: nash_payments(net, C_STAR, x),
    "refine": lambda net, x: refine(net, C_STAR, x),
    "systemic_loss": lambda net, x: systemic_loss(net, C_STAR, C_STAR, x),
    "iterate": lambda net, x: iterate(net, C_STAR, x),
}


@pytest.mark.parametrize("call", POINT_TAKERS.values(), ids=POINT_TAKERS.keys())
@pytest.mark.parametrize("point", [[np.nan, 0.0, 0.0], [0.0, 0.0]], ids=["nan", "short"])
def test_point_must_be_finite_and_of_length_n(triangle, call, point):
    with pytest.raises(InputError, match="non-finite|length 2, expected 3"):
        call(triangle, np.array(point))


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


class TestSingularRows:
    """A stacked pattern solve with a singular member, which no workload reaches."""

    def test_singular_row_is_flagged_and_the_rest_solved(self):
        # row 0 is an exactly stochastic 2-cycle with every node free
        Q = np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.5], [0.5, 0.0]]])
        w = np.ones((2, 2))
        c = np.array([[0.1, -0.1], [0.3, 0.1]])
        pattern = np.zeros((2, 2), dtype=np.int8)
        x, ok = solve_patterns(Q, w, c, pattern)
        assert ok.tolist() == [False, True]
        alone, alone_ok = solve_patterns(Q[1:], w[1:], c[1:], pattern[1:])
        assert alone_ok.tolist() == [True]
        assert x[1].tobytes() == alone[0].tobytes()

    def test_hunt_keeps_the_iterate_of_a_singular_row(self, monkeypatch):
        # row 0 (self-loops 0.1) is made singular at every solve: its map
        # carries on alone while row 1 solves its pattern
        Q = np.array([[[0.1, 0.8], [0.8, 0.1]], [[0.0, 0.5], [0.5, 0.0]]])
        w = np.ones((2, 2))
        c = np.array([[0.05, 0.02], [0.3, 0.1]])
        solve, nan_rows = saturnet._hunt.solve_stack, []

        def singular_row_0(A, b):
            v = solve(A, b)
            hit = A[:, 0, 0] == 0.9
            nan_rows.append(int(np.count_nonzero(hit)))
            v[hit] = np.nan
            return v

        monkeypatch.setattr(saturnet._hunt, "solve_stack", singular_row_0)
        opts, bottom = SolveOptions(), np.zeros(2, dtype=bool)
        x = hunt_unique(Q, w, c, opts, bottom, None)
        assert sum(nan_rows) > 0
        for r in range(2):
            alone = hunt_unique(Q[r : r + 1], w[r : r + 1], c[r : r + 1], opts, bottom[:1], None)
            assert x[r].tobytes() == alone[0].tobytes()
        exact = [np.linalg.solve(np.eye(2) - q.T, b) for q, b in zip(Q, c)]
        np.testing.assert_allclose(x, exact, rtol=0, atol=1e-11)


class TestSharedBlock:
    """One block hunted at many flows: a one-row Q that every row shares."""

    @pytest.mark.parametrize("kind", ["out_connected", "near_stochastic", "nonzero_sum"])
    def test_every_flow_as_if_alone(self, kind):
        rng = np.random.default_rng(83)
        opts = SolveOptions()
        for net, c in hunt_cases(kind, 79, 4):
            flows = c + rng.uniform(-1.0, 1.0, (6, net.n)) * np.abs(c).max()
            w = np.broadcast_to(net.w, flows.shape)
            from_top = flows.sum(axis=1) > 0 if kind == "nonzero_sum" else np.zeros(6, dtype=bool)
            x = hunt_unique(net.P[None], w, flows, opts, from_top, None)
            for r in range(6):
                one = slice(r, r + 1)
                alone = hunt_unique(net.P[None], w[one], flows[one], opts, from_top[one], None)
                assert x[r].tobytes() == alone[0].tobytes()

    def test_singular_flow_keeps_its_iterate(self, monkeypatch):
        # flow 0's all-free system is made singular at every solve (its
        # right-hand side is its own flow, whose first entry marks it); its
        # map carries on alone while the other flows solve their patterns
        Q = np.array([[[0.1, 0.8], [0.8, 0.1]]])
        flows = np.array([[0.05, 0.02], [0.03, 0.01], [0.3, 0.1]])
        w = np.ones((3, 2))
        solve, nan_rows = saturnet._hunt.solve_stack, []

        def singular_flow_0(A, b):
            v = solve(A, b)
            hit = b[:, 0] == 0.05
            nan_rows.append(int(np.count_nonzero(hit)))
            v[hit] = np.nan
            return v

        monkeypatch.setattr(saturnet._hunt, "solve_stack", singular_flow_0)
        opts, bottom = SolveOptions(), np.zeros(3, dtype=bool)
        x = hunt_unique(Q, w, flows, opts, bottom, None)
        assert sum(nan_rows) > 0
        for r in range(3):
            alone = hunt_unique(Q, w[r : r + 1], flows[r : r + 1], opts, bottom[:1], None)
            assert x[r].tobytes() == alone[0].tobytes()
        exact = np.clip(np.linalg.solve(np.eye(2) - Q[0].T, flows.T).T, 0.0, 1.0)
        np.testing.assert_allclose(x, exact, rtol=0, atol=1e-11)

    def test_budget_names_the_first_unsettled_flow(self):
        # flow 0 saturates in two steps; flows 1 and 2 creep
        Q = SLOW_PAIR[0].P[None]
        flows = np.array([[2.0, 2.0], SLOW_PAIR[1], SLOW_PAIR[1] + 0.01])
        w = np.ones((3, 2))

        def label(i):
            return {"block": None, "kind": "transient", "nodes": (0, 1), "at": f"flow {i}"}

        with pytest.raises(NonConvergenceError) as err:
            hunt_unique(Q, w, flows, SolveOptions(max_iter=2), np.zeros(3, dtype=bool), label)
        assert err.value.at == "flow 1"
        assert str(err.value) == (
            "the transient part (nodes 0, 1) at flow 1: no convergence within 2 iterations"
        )
        assert err.value.last_iterate.shape == (2,)
        settled = hunt_unique(Q, w[:1], flows[:1], SolveOptions(max_iter=2), np.zeros(1, dtype=bool), label)
        np.testing.assert_array_equal(settled, [[1.0, 1.0]])

    def test_shared_block_is_not_copied(self, monkeypatch):
        # a set that spans the network is hunted at every grid point through
        # views of P: no stacked copy of it is made
        net, c = hunt_case(np.random.default_rng(89), "out_connected")
        shapes = []
        matvec = saturnet._hunt.transposed_matvec

        def recording(Q, x):
            shapes.append((Q.shape, np.shares_memory(Q, net.P)))
            return matvec(Q, x)

        monkeypatch.setattr(saturnet._hunt, "transposed_matvec", recording)
        ray = ShockRay(c, np.ones(net.n), 0.0, 1.0, 5)
        records, _ = sweep(net, ray)
        assert shapes and all(shape == (1, net.n, net.n) and shared for shape, shared in shapes)
        for r in records:
            lo, hi = extremal_equilibria(net, ray.c_at(r.eps))
            assert r.x_min.tobytes() == lo.x.tobytes() and r.x_max.tobytes() == hi.x.tobytes()


def slow_second_set():
    """Two 2-node sets: set 0 saturates at once, set 1 (nodes 2, 3) creeps."""
    P = np.zeros((4, 4))
    P[0, 1] = P[1, 0] = 1.0
    P[2, 3] = P[3, 2] = 0.999
    return Network(P, np.ones(4)), np.array([2.0, 2.0, 0.5, -0.2])


def slow_transient():
    """A creeping transient pair (nodes 0, 1) draining into a self-loop."""
    P = np.zeros((3, 3))
    P[0, 1], P[1, 0], P[1, 2], P[2, 2] = 0.999, 0.0005, 0.4985, 1.0
    return Network(P, np.ones(3)), np.array([0.5, -0.2, 0.0])


class TestBlockErrors:
    def test_unsettled_set_is_named(self):
        net, c = slow_second_set()
        with pytest.raises(NonConvergenceError) as err:
            extremal_equilibria(net, c, SolveOptions(max_iter=1))
        e = err.value
        assert (e.block, e.kind, e.nodes) == (1, SinkKind.OUT_CONNECTED, (2, 3))
        assert str(e).startswith("trapping set 1 (out_connected; nodes 2, 3): ")
        assert e.last_iterate.shape == (2,) and e.iterations == 1
        lo, _ = extremal_equilibria(net, c)
        np.testing.assert_allclose(lo.x, [1.0, 1.0, 1.0, 0.799], atol=1e-9)

    def test_unsettled_transient_part_is_named(self):
        net, c = slow_transient()
        with pytest.raises(NonConvergenceError) as err:
            extremal_equilibria(net, c, SolveOptions(max_iter=1))
        e = err.value
        assert (e.block, e.kind, e.nodes) == (None, "transient", (0, 1))
        assert str(e).startswith("the transient part (nodes 0, 1): ")

    def test_refine_names_the_inconsistent_set(self):
        # set 0 is refined exactly; set 1 is a 2-cycle whose input is far off
        P = np.zeros((4, 4))
        P[0, 1] = P[1, 0] = 0.5
        P[2, 3] = P[3, 2] = 1.0
        net = Network(P, np.ones(4))
        with pytest.raises(PartitionInconsistencyError) as err:
            refine(net, [0.1, 0.1, 0.4, -0.9], [0.2, 0.2, 1.0, 1.0])
        e = err.value
        assert (e.block, e.kind, e.nodes) == (1, SinkKind.NONZERO_SUM, (2, 3))
        assert str(e).startswith("trapping set 1 (stochastic_nonzero_sum; nodes 2, 3): ")
        assert e.residual > 0.1 and e.candidate.shape == (4,)

    def test_refine_names_the_lowest_faulty_set(self):
        # set 0 (a 2-cycle) and set 1 (a one-node self-loop) are both wholly
        # exposed with a nonzero inflow sum; set 1's size group comes first
        P = np.zeros((3, 3))
        P[0, 1] = P[1, 0] = P[2, 2] = 1.0
        net = Network(P, np.ones(3))
        with pytest.raises(PartitionInconsistencyError) as err:
            refine(net, [0.1, 0.0, 0.2], [0.5, 0.5, 0.5])
        e = err.value
        assert (e.block, e.kind, e.nodes) == (0, SinkKind.NONZERO_SUM, (0, 1))
        assert str(e).startswith("trapping set 0 (stochastic_nonzero_sum; nodes 0, 1): whole stochastic")
        assert "sum 0.1 is nonzero" in str(e)

    def test_assembled_residual_names_the_worst_set(self, monkeypatch):
        net, c = shifted_second_set(monkeypatch)
        with pytest.raises(NonConvergenceError) as err:
            extremal_equilibria(net, c)
        e = err.value
        assert (e.block, e.kind, e.nodes) == (1, SinkKind.NONZERO_SUM, (2, 3))
        assert str(e).startswith(
            "trapping set 1 (stochastic_nonzero_sum; nodes 2, 3): assembled equilibrium has residual "
        )

    def test_long_node_lists_are_shortened(self):
        P = np.full((12, 12), 0.0908)
        np.fill_diagonal(P, 0.0)
        net = Network(P, np.ones(12))
        with pytest.raises(NonConvergenceError) as err:
            extremal_equilibria(net, np.full(12, 0.01), SolveOptions(max_iter=1))
        assert err.value.nodes == tuple(range(12))
        assert "nodes 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ... (12 nodes)" in str(err.value)


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


    def test_small_scale_triangle(self):
        # an inflow sum of 1.3 s is far from zero at any scale s, so the
        # one equilibrium is hunted and not read off a line
        s = 1e-10
        net = Network(TRIANGLE_P, s * TRIANGLE_W)
        c = s * np.array([1.0, 0.5, -0.2])
        _, analyses, unique = classify(net, c)
        assert unique and analyses[0].kind is SinkKind.NONZERO_SUM
        for x in extremal_equilibria(net, c):
            np.testing.assert_allclose(x.x, s * np.array([1.6, 3.0, 2.0]), rtol=1e-12, atol=0)

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

    def test_dead_band_is_per_node(self):
        # node 1's inflow -1 is far outside its own box [0, 1], though within
        # 1e-9 of node 0's capacity
        net = Network(np.zeros((2, 2)), [1e10, 1.0])
        c = np.array([5e9, -1.0])
        lo, _ = extremal_equilibria(net, c)
        part = node_partition(net, c, lo)
        assert part.exposed == (0,) and part.deficit == (1,)

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

    def test_node_saturated_through_its_self_loop(self):
        # node 0 receives 0.75 * x_1 + 0.2 = 1.9 < w_0 from outside and
        # reaches 2.9 only through its own routed return 0.5 * x_0
        net = Network([[0.5, 0.5], [0.75, 0.25]], [2.0, 3.0])
        c = np.array([0.2, 0.7])
        exact = np.array([2.0, 1.7 / 0.75])
        lo, hi = extremal_equilibria(net, c)
        np.testing.assert_allclose(lo.x, exact, rtol=0, atol=1e-12)
        for x in (lo.x, hi.x, exact + 1e-10):
            out = refine(net, c, x)
            np.testing.assert_allclose(out.x, exact, rtol=0, atol=1e-12)
            assert out.residual <= 1e-12

    def test_dead_band_is_per_node(self):
        # node 1 (inflow -0.4) is deficit; a band of tol_class * max w would
        # call it exposed next to node 0's capacity of 1e10
        P = np.zeros((3, 3))
        P[1, 2] = P[2, 1] = 0.5
        c = np.array([0.0, -0.5, 0.2])
        for w_0 in (1.0, 1e10):
            net = Network(P, [w_0, 1.0, 1.0])
            out = refine(net, c, [0.0, 0.0, 0.2])
            assert np.array_equal(out.x, [0.0, 0.0, 0.2]) and out.residual == 0.0
            assert np.array_equal(out.x, minimal_equilibrium(net, c).x)

    def test_node_on_a_bound_is_pinned_inside_its_dead_band(self):
        # node 0's inflow 0.5 * 0.5 - 0.251 = -1e-3 lies inside its dead-band
        # of 1e-9 * 1e7; it sits at 0, so it stays pinned there
        net = Network([[0.0, 0.5], [0.5, 0.0]], [1e7, 1.0])
        c = np.array([-0.251, 0.5])
        lo = minimal_equilibrium(net, c)
        assert np.array_equal(lo.x, [0.0, 0.5])
        out = refine(net, c, lo)
        assert np.array_equal(out.x, [0.0, 0.5]) and out.residual == 0.0

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
            # one size per system; a batched A holds len(A) systems
            sizes.extend([A.shape[-1]] * (len(A) if A.ndim == 3 else 1))
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


class TestStackedLayer:
    def test_each_set_as_if_alone(self):
        # a set's extremes do not depend on the other sets stacked with it:
        # bit for bit, they are those of the set alone at its effective inflow
        rng = np.random.default_rng(606)
        for _ in range(5):
            net, c, kinds = core_feeding_sets(rng, range(1, 7), 8)
            dec, analyses, _ = classify(net, c)
            assert [a.kind for a in analyses] == kinds
            lo, hi = extremal_equilibria(net, c)
            for a in analyses:
                S = list(a.nodes)
                alone = Network(net.P[np.ix_(S, S)], net.w[S])
                lo_1, hi_1 = extremal_equilibria(alone, a.inflow)
                assert np.array_equal(lo.x[S], lo_1.x) and np.array_equal(hi.x[S], hi_1.x)
            np.testing.assert_allclose(lo.x, brute_minimal(net.P, net.w, c), rtol=0, atol=1e-8)
            np.testing.assert_allclose(hi.x, brute_maximal(net.P, net.w, c), rtol=0, atol=1e-8)

    def test_solve_count_does_not_grow_with_the_number_of_sets(self, monkeypatch):
        # ten disjoint copies of a core with 30 two-node and 30 three-node
        # sets: ten times the sets, one transient part, the same solves (the
        # structures, with their stationary solves, are built beforehand)
        net, c, _ = core_feeding_sets(np.random.default_rng(77), (2, 3), 30)
        copies = 10
        big = Network(np.kron(np.eye(copies), net.P), np.tile(net.w, copies))
        sets = [len(block_structure(x).decomposition.sinks) for x in (net, big)]
        assert sets == [60, 600]
        solve = np.linalg.solve
        calls = []

        def counting(A, b):
            calls.append(np.shape(b))
            return solve(A, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        counts = []
        for network, flow in ((net, c), (big, np.tile(c, copies))):
            calls.clear()
            extremal_equilibria(network, flow)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_readers_of_sets_out_of_size_order(self):
        # sizes 3, 1, 2, 1, 3, 2 in decomposition order, each in the four
        # kinds: the size groups hold the sets in another order than the
        # decomposition, and the exposed segment sets make refine project
        sizes = (3, 1, 2, 1, 3, 2)
        net, c, kinds = core_feeding_sets(np.random.default_rng(707), sizes, 4)
        dec, analyses, _ = classify(net, c)
        assert [len(s.nodes) for s in dec.sinks] == [k for k in sizes for _ in range(4)]
        assert [a.kind for a in analyses] == kinds
        lo, hi = extremal_equilibria(net, c)
        exposed = set(node_partition(net, c, lo).exposed)
        assert any(a.kind is SinkKind.ZERO_SUM_SEGMENT and exposed >= set(a.nodes) for a in analyses)
        for x in (lo, hi):  # unchanged up to the projection's rounding
            np.testing.assert_allclose(refine(net, c, x).x, x.x, rtol=0, atol=1e-15 * net.w.max())
        terms = []
        for sink in dec.sinks:
            if not sink.out_connected:
                S = list(sink.nodes)
                pi = stationary_distribution(net.P[np.ix_(S, S)])
                terms.append((float(np.min(net.w[S] / pi)), pi))
        for p in (1.0, 2.0, 3.5):
            expected = float(sum(m**p * float(np.sum(pi**p)) for m, pi in terms) ** (1.0 / p))
            assert max_jump_norm(net, p) == expected
        assert max_jump_norm(net, np.inf) == max(m * float(np.max(pi)) for m, pi in terms)
