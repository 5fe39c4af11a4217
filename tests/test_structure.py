from __future__ import annotations

import dataclasses
import pickle
from collections import Counter

import numpy as np
import pytest

from saturnet import (
    FixedComponent,
    InputError,
    LiabilityData,
    Network,
    SegmentComponent,
    ShockRay,
    SinkAnalysis,
    SinkComponent,
    SinkKind,
    classify,
    decompose,
    decomposition,
    equilibrium_set,
    extremal_equilibria,
    fixed_point_residual,
    from_liabilities,
    nash_payments,
    particular_solution,
    solver,
    stationary_distribution,
    structure,
    sweep,
)
from saturnet._linear import SPARSE_MIN, EdgeBlock
from saturnet.decomposition import network_block

from conftest import (
    C_STAR,
    CONDITION_STAR,
    PI_TRIANGLE,
    TRIANGLE_P,
    X_MAX_STAR,
    X_MIN_STAR,
    core_feeding_sets,
    large_blocks,
    random_irreducible_stochastic,
    zero_sum_flow,
)
from oracles import line_lattice_intersection


class TestStationaryDistribution:
    def test_two_cycle_is_uniform(self):
        pi = stationary_distribution([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(pi, [0.5, 0.5])

    def test_demo_matrix(self):
        pi = stationary_distribution(TRIANGLE_P)
        assert np.allclose(pi, PI_TRIANGLE, atol=1e-12)

    def test_single_absorbing_node(self):
        assert np.array_equal(stationary_distribution([[1.0]]), [1.0])

    def test_rejects_non_stochastic(self):
        with pytest.raises(InputError):
            stationary_distribution([[0.0, 0.5], [1.0, 0.0]])

    def test_rejects_reducible(self):
        with pytest.raises(InputError):
            stationary_distribution([[1.0, 0.0], [0.5, 0.5]])

    def test_rejects_a_non_square_block(self):
        with pytest.raises(InputError, match=r"^block must be square, got shape \(2, 3\)$"):
            stationary_distribution(np.ones((2, 3)))

    def test_rejects_negative_entries(self):
        with pytest.raises(InputError, match="^block has negative entries$"):
            stationary_distribution([[-0.5, 1.5], [1.0, 0.0]])

    def test_matches_eigen_route_random(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            P = random_irreducible_stochastic(rng)
            pi = stationary_distribution(P)
            assert np.all(pi > 0)
            assert np.isclose(pi.sum(), 1.0)
            assert np.max(np.abs(P.T @ pi - pi)) <= 1e-12


class TestParticularSolution:
    def test_zero_inflow_gives_zero(self):
        out = particular_solution(TRIANGLE_P, np.zeros(3))
        assert np.array_equal(out, np.zeros(3))

    def test_demo_critical_flow(self):
        out = particular_solution(TRIANGLE_P, C_STAR)
        assert np.allclose(out, [4.37, -0.0325, 0.0], atol=1e-12)

    def test_demo_second_flow(self):
        out = particular_solution(TRIANGLE_P, [-1.0, 1.0, 0.0])
        assert np.allclose(out, [-1.0, 0.25, 0.0], atol=1e-12)

    def test_rejects_nonzero_sum(self):
        with pytest.raises(InputError):
            particular_solution(TRIANGLE_P, [1.0, 1.0, 0.0])

    def test_rejects_an_inflow_of_another_length(self):
        with pytest.raises(InputError, match=r"^inflow has shape \(3,\), expected \(2,\)$"):
            particular_solution([[0.0, 1.0], [1.0, 0.0]], [1.0, -1.0, 0.0])

    def test_solves_the_linear_system_random(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            P = random_irreducible_stochastic(rng)
            c = zero_sum_flow(rng, P.shape[0])
            nu = particular_solution(P, c)
            assert np.max(np.abs(nu - (P.T @ nu + c))) <= 1e-10


class TestClassify:
    def test_zero_sum_unique_flow(self, triangle):
        _, analyses, unique = classify(triangle, [-2.0, 2.0, 0.0])
        assert unique
        assert analyses[0].kind is SinkKind.ZERO_SUM_UNIQUE
        assert analyses[0].condition_value < 0

    def test_segment_flow(self, triangle):
        _, analyses, unique = classify(triangle, C_STAR)
        assert not unique
        a = analyses[0]
        assert a.kind is SinkKind.ZERO_SUM_SEGMENT
        assert a.condition_value == pytest.approx(CONDITION_STAR, abs=1e-9)
        lo, hi = a.alpha_range
        assert hi - lo == pytest.approx(a.condition_value, abs=1e-12)

    def test_nonzero_sum_flow(self, triangle):
        _, analyses, unique = classify(triangle, [1.0, 1.0, 0.0])
        assert unique
        assert analyses[0].kind is SinkKind.NONZERO_SUM

    def test_out_connected_sink(self):
        net = Network(np.zeros((2, 2)), np.ones(2))
        _, analyses, unique = classify(net, [0.5, -0.5])
        assert unique
        assert all(a.kind is SinkKind.OUT_CONNECTED for a in analyses)

    def test_condition_value_shift_invariance(self, triangle):
        # condition_value must not depend on which particular solution is used
        _, analyses, _ = classify(triangle, C_STAR)
        a = analyses[0]
        rng = np.random.default_rng(77)
        w = triangle.w
        for _ in range(25):
            shift = rng.uniform(-5, 5)
            moved = a.base + shift * a.stationary
            cv = np.min(moved / a.stationary) + np.min((w - moved) / a.stationary)
            assert cv == pytest.approx(a.condition_value, abs=1e-9)

    def test_condition_value_scaling_flips_nothing(self, triangle):
        # rescaling the direction rescales the value but never its sign
        _, analyses, _ = classify(triangle, C_STAR)
        a = analyses[0]
        w = triangle.w
        for s in (0.1, 2.225, 10.0):
            pi_s = a.stationary * s
            cv = np.min(a.base / pi_s) + np.min((w - a.base) / pi_s)
            assert cv == pytest.approx(a.condition_value / s, rel=1e-9)
            assert np.sign(cv) == np.sign(a.condition_value)


class TestEquilibriumSet:
    def test_two_cycle_segment(self, two_cycle):
        eq_set = equilibrium_set(two_cycle, np.zeros(2))
        assert not eq_set.is_unique
        (comp,) = eq_set.components
        assert isinstance(comp, SegmentComponent)
        assert np.array_equal(eq_set.x_min(), [0.0, 0.0])
        assert np.allclose(eq_set.x_max(), [1.0, 1.0])
        mid = comp.at(0.5 * (comp.alpha_min + comp.alpha_max))
        assert np.allclose(mid, [0.5, 0.5])

    def test_alpha_beyond_the_segment_is_rejected(self, two_cycle):
        eq_set = equilibrium_set(two_cycle, np.zeros(2))
        (comp,) = eq_set.components
        assert comp.alpha_max == 2.0
        message = r"^alpha 3\.0 outside \[-0\.0, 2\.0\]$"
        with pytest.raises(InputError, match=message):
            comp.at(comp.alpha_max + 1)
        with pytest.raises(InputError, match=message):
            eq_set.sample({0: comp.alpha_max + 1})

    def test_demo_critical_flow_endpoints(self, triangle):
        eq_set = equilibrium_set(triangle, C_STAR)
        assert np.allclose(eq_set.x_min(), X_MIN_STAR, atol=1e-10)
        assert np.allclose(eq_set.x_max(), X_MAX_STAR, atol=1e-10)

    def test_demo_zero_flow(self, triangle):
        eq_set = equilibrium_set(triangle, np.zeros(3))
        (comp,) = eq_set.components
        assert np.array_equal(eq_set.x_min(), np.zeros(3))
        assert np.allclose(eq_set.x_max(), [0.6, 1.85, 2.0])
        assert comp.alpha_max == pytest.approx(4.45, abs=1e-12)

    def test_unique_flow_gives_point(self, triangle):
        eq_set = equilibrium_set(triangle, [1.0, 1.0, 0.0])
        assert eq_set.is_unique
        assert np.allclose(eq_set.x_min(), eq_set.x_max())

    def test_interior_samples_are_equilibria(self, triangle):
        eq_set = equilibrium_set(triangle, C_STAR)
        (comp,) = eq_set.components
        for t in np.linspace(0.0, 1.0, 10):
            alpha = comp.alpha_min + t * (comp.alpha_max - comp.alpha_min)
            x = eq_set.sample({0: alpha})
            assert fixed_point_residual(triangle, C_STAR, x) <= 1e-12

    def test_distance_measure(self, triangle):
        eq_set = equilibrium_set(triangle, C_STAR)
        assert eq_set.distance_sup(X_MIN_STAR) <= 1e-10
        mid = 0.5 * (X_MIN_STAR + X_MAX_STAR)
        assert eq_set.distance_sup(mid) <= 1e-10
        assert eq_set.distance_sup(np.zeros(3)) > 0.01

    def test_endpoints_match_solver_random(self):
        # the set's ends are the solver's extremes bit for bit, segments too,
        # and lie in the box [0, w]
        rng = np.random.default_rng(83)
        cases = []
        for _ in range(100):
            P = random_irreducible_stochastic(rng)
            n = P.shape[0]
            net = Network(P, rng.uniform(0.5, 4.0, n))
            cases.append((net, zero_sum_flow(rng, n)))
        # segments shorter than the zero-sum tolerance, which count as one point
        t = 1.0 - 1e-10
        cases.append((Network([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]), np.array([t, -t])))
        cases.append((Network(TRIANGLE_P, [5e-10, 3e-10, 2e-10]), np.array([1.0, 0.5, -0.2]) * 1e-10))
        # a core feeding sets of every kind and of sizes 1 to 4, at unit
        # scale and scaled far up or down
        rng = np.random.default_rng(211)
        for _ in range(10):
            net, c, _ = core_feeding_sets(rng, rng.permutation(4) + 1, 4)
            s = 10.0 ** rng.uniform(-3.0, 6.0)
            cases += [(net, c), (Network(net.P, s * net.w), s * c)]
        for net, c in cases:
            eq_set = equilibrium_set(net, c)
            lo, hi = extremal_equilibria(net, c)
            _, _, unique = classify(net, c)
            assert eq_set.is_unique == unique
            if unique:
                assert np.array_equal(lo.x, hi.x)
            for x, end in ((eq_set.x_min(), lo.x), (eq_set.x_max(), hi.x)):
                assert np.array_equal(x, end)
                assert np.all((0.0 <= x) & (x <= net.w))

    def test_distance_sup_is_the_sup_norm_distance(self):
        # stationary vector (0.2, 0.8): the member (0.2, 0.8) at alpha 1 is
        # 0.8 from (1, 0); the Euclidean projection's member is 0.941 away
        net = Network([[0.0, 1.0], [0.25, 0.75]], [10.0, 10.0])
        assert equilibrium_set(net, [0.0, 0.0]).distance_sup([1.0, 0.0]) == pytest.approx(0.8, abs=1e-15)

    def test_distance_sup_matches_an_alpha_scan_random(self):
        # no member of a dense alpha scan is nearer, and the nearest one is
        # no farther than one scan step can move a member
        rng = np.random.default_rng(97)
        done = 0
        while done < 40:
            P = random_irreducible_stochastic(rng, 6)
            n = P.shape[0]
            eq_set = equilibrium_set(Network(P, rng.uniform(0.5, 4.0, n)), zero_sum_flow(rng, n))
            if eq_set.is_unique:
                continue
            comp = eq_set.components[0]
            alphas = np.linspace(comp.alpha_min, comp.alpha_max, 20001)
            members = np.clip(comp.base + alphas[:, None] * comp.direction, 0.0, comp.w)
            for x in rng.uniform(-1.0, 5.0, (5, n)):
                scan = np.abs(members - x).max(axis=1).min()
                step = (alphas[1] - alphas[0]) * comp.direction.max()
                assert scan - step - 1e-12 <= eq_set.distance_sup(x) <= scan + 1e-12
            done += 1

    def test_distance_sup_checks_the_point(self, triangle):
        for c in (C_STAR, [1.0, 1.0, 0.0]):  # a segment set and a unique one
            eq_set = equilibrium_set(triangle, c)
            with pytest.raises(InputError, match="x contains non-finite entries"):
                eq_set.distance_sup([np.nan, 0.0, 0.0])
            with pytest.raises(InputError, match="x has length 2, expected 3"):
                eq_set.distance_sup([0.0, 0.0])

    def test_distance_sup_takes_an_equilibrium_vector(self, triangle):
        lo, hi = extremal_equilibria(triangle, C_STAR)
        eq_set = equilibrium_set(triangle, C_STAR)
        assert eq_set.distance_sup(lo) <= 1e-12
        assert eq_set.distance_sup(hi) <= 1e-12

    def test_sample_names_a_missing_alpha(self, triangle):
        eq_set = equilibrium_set(triangle, C_STAR)
        with pytest.raises(InputError, match="alphas has no value for segment component 0"):
            eq_set.sample({})

    def test_matches_geometric_oracle_random(self):
        rng = np.random.default_rng(89)
        done = 0
        while done < 100:
            P = random_irreducible_stochastic(rng)
            n = P.shape[0]
            w = rng.uniform(0.5, 4.0, n)
            c = zero_sum_flow(rng, n)
            oracle = line_lattice_intersection(P, w, c)
            # regenerate near-degenerate segments: both routes then sit on a
            # knife edge and the verdicts may legitimately differ
            if oracle is not None and oracle[2] < 1e-6:
                continue
            net = Network(P, w)
            eq_set = equilibrium_set(net, c)
            has_segment = any(isinstance(cp, SegmentComponent) for cp in eq_set.components)
            if oracle is None:
                assert not has_segment
            else:
                assert has_segment
                assert np.allclose(eq_set.x_min(), oracle[0], atol=1e-8)
                assert np.allclose(eq_set.x_max(), oracle[1], atol=1e-8)
            done += 1


def _same_fields(got, want) -> None:
    """``got`` is a ``type(want)``, or a subclass, whose fields equal want's (arrays bit for bit)."""
    assert isinstance(got, type(want))
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


class TestPerSetRows:
    """classify, equilibrium_set and decompose keep the sets as columns and build a set's object only when it is read."""

    @staticmethod
    def _reference(net, c):
        """Each set's SinkAnalysis, component and SinkComponent, built row by row from the solver's verdict arrays."""
        found, (x, _) = solver._solve(net, c, solver.DEFAULT_OPTIONS)
        st = found.structure
        analyses, components, sinks = ([None] * len(st.place) for _ in range(3))
        for g, v in zip(st.groups, found.groups):
            for r, l in enumerate(g.sets.tolist()):
                nodes, kind = tuple(g.nodes[r].tolist()), list(SinkKind)[v.kind[0, r]]
                zero = kind in (SinkKind.ZERO_SUM_UNIQUE, SinkKind.ZERO_SUM_SEGMENT)
                line = (float(v.lo[0, r]), float(v.hi[0, r])) if kind is SinkKind.ZERO_SUM_SEGMENT else None
                analyses[l] = SinkAnalysis(
                    l, nodes, kind, v.inflow[0, r], None if kind is SinkKind.OUT_CONNECTED else g.stationary[r],
                    v.base[0, r] if zero else None, float(v.condition[0, r]) if zero else None, line,
                )
                if line:
                    components[l] = SegmentComponent(nodes, v.base[0, r], g.stationary[r], *line, g.w[r])
                else:
                    components[l] = FixedComponent(nodes, x[0, 0][g.nodes[r]])
                sinks[l] = SinkComponent(nodes, not bool(g.stochastic[r]))
        return analyses, components, sinks

    @staticmethod
    def _count_builds(monkeypatch) -> Counter:
        """Count every SinkAnalysis, FixedComponent, SegmentComponent and SinkComponent the package builds."""
        built = Counter()
        for module, cls in (
            (solver, SinkAnalysis), (structure, FixedComponent),
            (structure, SegmentComponent), (decomposition, SinkComponent),
        ):
            class Counted(cls):
                def __init__(self, *args, _name=cls.__name__, **kwargs):
                    built[_name] += 1
                    super().__init__(*args, **kwargs)

            monkeypatch.setattr(module, cls.__name__, Counted)
        return built

    def test_items_are_built_only_when_read(self, monkeypatch):
        net, c, kinds = core_feeding_sets(np.random.default_rng(11), (1, 2, 3, 4), 4)
        want = self._reference(net, c)
        lo, hi = extremal_equilibria(net, c)
        built = self._count_builds(monkeypatch)

        # verdicts, extremes and lengths read the arrays only
        dec, analyses, unique = classify(net, c)
        eq_set = equilibrium_set(net, c)
        fresh = decompose(Network(net.P, net.w))
        assert not unique and not eq_set.is_unique
        assert len(analyses) == len(eq_set.components) == len(dec.sinks) == len(fresh.sinks) == len(kinds)
        assert np.array_equal(eq_set.x_min(), lo.x) and np.array_equal(eq_set.x_max(), hi.x)
        assert built == Counter()

        # a sweep reads the stochastic sets off the size groups and builds one SinkComponent per crossing
        _, crossings = sweep(net, ShockRay(c, np.full(net.n, 0.5), 0.0, 2.0, 5))
        assert built == Counter({"SinkComponent": len(crossings)})
        built.clear()

        # every item, by iteration, index, negative index and slice, equals the row-by-row reference
        reads, parts = 0, (slice(1, 5), slice(None, None, -3), slice(-4, None), slice(9, 2))
        for rows, reference in zip((analyses, eq_set.components, dec.sinks, fresh.sinks), (*want, want[2])):
            for got, ref in zip(list(rows), reference, strict=True):
                _same_fields(got, ref)
            for i in (0, 5, -1, -len(reference)):
                _same_fields(rows[i], reference[i])
            for part in parts:
                got = rows[part]
                assert isinstance(got, tuple) and len(got) == len(reference[part])
                for a, b in zip(got, reference[part]):
                    _same_fields(a, b)
            with pytest.raises(IndexError):
                rows[len(reference)]
            with pytest.raises(IndexError):
                rows[-len(reference) - 1]
            reads += len(reference) + 4 + sum(len(reference[part]) for part in parts)
        assert built["SinkAnalysis"] == built["FixedComponent"] + built["SegmentComponent"] == reads // 4
        assert built["SinkComponent"] == reads // 2
        assert built["SegmentComponent"] > 0

    def test_results_compare_hash_and_pickle_as_values(self):
        net, c, _ = core_feeding_sets(np.random.default_rng(12), (1, 2), 4)
        dec, again = decompose(net), decompose(Network(net.P, net.w))
        assert dec == again and hash(dec) == hash(again)
        assert dec.sinks == again.sinks and dec.sinks != tuple(again.sinks)
        assert repr(dec.sinks) == f"Rows{tuple(again.sinks)!r}"
        other = decompose(Network(net.P[:-2, :-2], net.w[:-2]))
        assert dec != other and dec.transient == other.transient
        # each result survives a pickle round trip with every item intact
        for rows in (dec.sinks, classify(net, c)[1], equilibrium_set(net, c).components):
            copy = pickle.loads(pickle.dumps(rows))
            assert len(copy) == len(rows)
            for a, b in zip(copy, rows):
                _same_fields(a, b)

    def test_pickles_hold_no_part_of_P(self):
        """On a listed network, a pickled result grows with the number of sets, not with n**2."""
        sizes = []
        for big in (600, 1200):
            net, c = large_blocks(np.random.default_rng(13), 8, big, small=big // 12, stochastic=True)
            assert net.n >= SPARSE_MIN and isinstance(network_block(net), EdgeBlock)
            results = (decompose(net).sinks, classify(net, c)[1], equilibrium_set(net, c).components)
            sizes.append([len(pickle.dumps(rows)) for rows in results])
            assert max(sizes[-1]) < net.P.nbytes / 20
        assert all(big < 2.5 * small for small, big in zip(*sizes))


class TestNashPayments:
    def test_zero_equilibrium(self, triangle):
        X, res = nash_payments(triangle, [-1.0, -1.0, -1.0], np.zeros(3))
        assert np.array_equal(X, np.zeros((3, 3)))
        assert res == 0.0

    def test_demo_top_equilibrium(self, triangle):
        X, res = nash_payments(triangle, np.zeros(3), [0.6, 1.85, 2.0])
        expected = np.array([[0.0, 0.45, 0.15], [0.0, 0.0, 1.85], [0.6, 1.4, 0.0]])
        assert np.allclose(X, expected, atol=1e-12)
        assert res <= 1e-12

    def test_full_payment_recovers_liabilities(self):
        W = np.array([[0.0, 4.0], [4.0, 0.0]])
        data = LiabilityData(W, [9.0, 9.0], [0.0, 0.0], [1.0, 0.0])
        net, flow = from_liabilities(data)
        X, _ = nash_payments(net, flow.c, net.w)
        assert np.allclose(X, W)

    def test_rejects_non_equilibrium(self, triangle):
        with pytest.raises(InputError):
            nash_payments(triangle, C_STAR, triangle.w)
