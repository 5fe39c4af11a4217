from __future__ import annotations

import numpy as np
import pytest

from saturnet import InputError, equilibrium_set, simulate

from conftest import C_STAR, X_MAX_STAR, X_MIN_STAR, random_network

TOL_DYN = 1e-8


class TestSimulate:
    def test_rest_point_stays_put(self, triangle):
        traj = simulate(triangle, C_STAR, X_MIN_STAR, t_end=1.0, dt=0.01)
        assert traj.residual <= 1e-12
        assert np.max(np.abs(traj.states - X_MIN_STAR)) <= 1e-12

    def test_settles_at_minimal_from_below(self, triangle):
        traj = simulate(triangle, C_STAR, np.zeros(3), t_end=200.0, dt=0.01, stop_tol=1e-12)
        assert traj.residual <= TOL_DYN
        assert np.max(np.abs(traj.terminal - X_MIN_STAR)) <= TOL_DYN

    def test_settles_at_maximal_from_above(self, triangle):
        traj = simulate(triangle, C_STAR, triangle.w, t_end=200.0, dt=0.01, stop_tol=1e-12)
        assert np.max(np.abs(traj.terminal - X_MAX_STAR)) <= TOL_DYN

    def test_forward_invariance(self):
        rng = np.random.default_rng(111)
        for _ in range(25):
            net = random_network(rng, n_max=6)
            c = rng.uniform(-3, 3, net.n)
            x0 = rng.uniform(0, 1, net.n) * net.w
            traj = simulate(net, c, x0, t_end=30.0, dt=0.02)
            assert np.all(traj.states >= -TOL_DYN)
            assert np.all(traj.states <= net.w + TOL_DYN)

    def test_ordered_starts_stay_ordered(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            net = random_network(rng, n_max=6)
            c = rng.uniform(-2, 2, net.n)
            a = rng.uniform(0, 1, net.n) * net.w
            b = a + rng.uniform(0, 1, net.n) * (net.w - a)
            ta = simulate(net, c, a, t_end=20.0, dt=0.02)
            tb = simulate(net, c, b, t_end=20.0, dt=0.02)
            assert ta.states.shape == tb.states.shape
            assert np.all(ta.states <= tb.states + 1e-9)

    def test_terminal_lands_on_the_equilibrium_set(self):
        rng = np.random.default_rng(115)
        for _ in range(20):
            net = random_network(rng, n_max=6)
            c = rng.uniform(-2, 2, net.n)
            x0 = rng.uniform(0, 1, net.n) * net.w
            traj = simulate(net, c, x0, t_end=300.0, dt=0.02, stop_tol=1e-11)
            assert traj.residual <= 1e-6
            assert equilibrium_set(net, c).distance_sup(traj.terminal) <= 1e-4

    def test_sampling_and_early_stop(self, triangle):
        traj = simulate(triangle, C_STAR, np.zeros(3), t_end=50.0, dt=0.01,
                        sample_every=10, stop_tol=1e-10)
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] < 50.0  # stopped early
        assert np.array_equal(traj.states[-1], traj.terminal)

    def test_early_stop_between_samples_reports_the_stopping_state(self, triangle):
        c = np.array([1.0, 0.5, -0.2])
        every_step = simulate(triangle, c, np.zeros(3), stop_tol=1e-6)
        sparse = simulate(triangle, c, np.zeros(3), sample_every=1000, stop_tol=1e-6)
        assert every_step.times[-1] < 200.0  # the run did stop early
        assert sparse.times[-1] == every_step.times[-1]
        assert np.array_equal(sparse.terminal, every_step.terminal)
        assert np.array_equal(sparse.states[-1], sparse.terminal)
        assert sparse.residual <= 1e-6
        assert np.all(np.diff(sparse.times) > 0)

    def test_csv_format(self, triangle):
        traj = simulate(triangle, C_STAR, np.zeros(3), t_end=0.05, dt=0.01)
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "t,x_1,x_2,x_3"
        assert len(lines) == len(traj.times) + 1

    def test_input_validation(self, triangle):
        with pytest.raises(InputError):
            simulate(triangle, C_STAR, np.zeros(3), dt=0.0)
        with pytest.raises(InputError):
            simulate(triangle, C_STAR, np.zeros(3), t_end=0.001, dt=0.01)
        with pytest.raises(InputError):
            simulate(triangle, C_STAR, np.zeros(2))
        with pytest.raises(InputError):
            simulate(triangle, C_STAR, [np.nan, 0.0, 0.0])
        with pytest.raises(InputError, match="^x0 is not a numeric vector"):
            simulate(triangle, C_STAR, ["a", "b", "c"])
        with pytest.raises(InputError, match="^x0 must be one-dimensional"):
            simulate(triangle, C_STAR, np.zeros((1, 3)))
        for t_end, dt in (("5", 0.01), (1.0, None), (1.0, "0.01")):
            with pytest.raises(InputError, match="^(t_end|dt) must be a number$"):
                simulate(triangle, C_STAR, np.zeros(3), t_end=t_end, dt=dt)
        for t_end, dt in ((np.nan, 0.01), (np.inf, 0.01), (1.0, np.nan), (np.inf, np.inf), (1.0, -np.inf)):
            with pytest.raises(InputError, match="^t_end and dt must be finite$"):
                simulate(triangle, C_STAR, np.zeros(3), t_end=t_end, dt=dt)
        with pytest.raises(InputError, match="^t_end / dt must be finite$"):
            simulate(triangle, C_STAR, np.zeros(3), t_end=np.float64(1e308), dt=np.float64(1e-10))
        for not_an_integer in (2.5, 2.0, True):
            with pytest.raises(InputError, match="^sample_every must be an integer$"):
                simulate(triangle, C_STAR, np.zeros(3), t_end=0.05, dt=0.01, sample_every=not_an_integer)
        with pytest.raises(InputError, match="^sample_every must be at least 1$"):
            simulate(triangle, C_STAR, np.zeros(3), t_end=0.05, dt=0.01, sample_every=0)
        assert len(simulate(triangle, C_STAR, np.zeros(3), t_end=0.05, dt=0.01, sample_every=np.int64(2)).times) == 4

    def test_stop_tol_is_checked_before_the_run(self, triangle):
        # a non-number raised a bare TypeError at the first step, and a NaN or
        # negative tolerance could never end the run early
        for not_a_number in ("x", "1e-9", True, [1e-9]):
            with pytest.raises(InputError, match="^stop_tol must be a number$"):
                simulate(triangle, C_STAR, np.zeros(3), t_end=0.05, dt=0.01, stop_tol=not_a_number)
        for below_zero in (np.nan, np.float64(np.nan), -1e-9, -np.inf, np.int64(-1)):
            with pytest.raises(InputError, match="^stop_tol must be nonnegative$"):
                simulate(triangle, C_STAR, np.zeros(3), t_end=0.05, dt=0.01, stop_tol=below_zero)
        # zero runs the whole horizon from a point that is not at rest; infinity stops at once
        assert len(simulate(triangle, C_STAR, np.zeros(3), t_end=0.05, dt=0.01, stop_tol=np.int64(0)).times) == 6
        assert simulate(triangle, C_STAR, np.zeros(3), t_end=0.05, dt=0.01, stop_tol=np.inf).times.tolist() == [0.0]
