import itertools
import math

import numpy as np
import pytest

from lidarmot.assignment import solve_assignment
from lidarmot.detection import Detection
from lidarmot.geometry import PointXY, Pose2D
from lidarmot.tracking import (
    C_DEL,
    GATE_DISTANCE,
    INITIAL_VELOCITY_STD,
    Tracker,
    TrackerConfig,
    TrackStatus,
    _cv_model,
    _distances,
    _predict_stacked,
    _update_stacked,
)


def random_psd(rng, scale=1.0):
    a = rng.normal(0, scale, (4, 4))
    return a @ a.T + 1e-6 * np.eye(4)


def det(x, y, t=0.0, conf=1.0, frame="lidar"):
    return Detection(PointXY(x, y, frame=frame), conf, t)


def predict(mean, cov, dt, accel_std):
    """One track's CV predict, as a row of the stacked kernel the tracker runs."""
    means, covs = _predict_stacked(
        np.array([mean], dtype=float), np.array([cov], dtype=float), *_cv_model(dt, accel_std)
    )
    return means[0], covs[0]


def update(mean, cov, z, meas_std):
    """One track's position update, as a row of the stacked kernel."""
    means, covs = _update_stacked(
        np.array([mean], dtype=float), np.array([cov], dtype=float),
        np.array([z], dtype=float), meas_std,
    )
    return means[0], covs[0]


class TestKalmanPredict:
    def test_cv_propagation_at_scan_period(self):
        mean, _ = predict([0, 0, 1, 0], np.eye(4), 0.05, 2.0)
        np.testing.assert_allclose(mean, [0.05, 0, 1, 0])

    def test_zero_dt_is_identity(self):
        cov = random_psd(np.random.default_rng(0))
        mean, after = predict([1, 2, 3, 4], cov, 0.0, 2.0)
        np.testing.assert_allclose(mean, [1, 2, 3, 4])
        np.testing.assert_allclose(after, cov)

    def test_process_noise_only_adds_uncertainty(self):
        # Additivity of the PSD noise term: propagation with noise dominates
        # noise-free propagation, in trace and in the Loewner order.
        rng = np.random.default_rng(1)
        for _ in range(500):
            cov = random_psd(rng)
            mean = rng.normal(0, 1, 4)
            dt = rng.uniform(0.001, 0.5)
            _, noisy = predict(mean, cov, dt, 2.0)
            _, quiet = predict(mean, cov, dt, 0.0)
            diff = noisy - quiet
            assert np.trace(diff) >= -1e-12
            assert np.linalg.eigvalsh(diff).min() >= -1e-9

    def test_trace_grows_for_uncorrelated_states(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            cov = np.diag(rng.uniform(0.01, 4.0, 4))
            dt = rng.uniform(0.001, 0.5)
            _, after = predict(rng.normal(0, 1, 4), cov, dt, 2.0)
            assert np.trace(after) >= np.trace(cov) - 1e-12


class TestKalmanUpdate:
    def test_diffuse_prior_snaps_to_measurement(self):
        mean, _ = update(np.zeros(4), np.diag([1e6, 1e6, 1e6, 1e6]), (3.0, 4.0), 0.1)
        assert mean[0] == pytest.approx(3.0, abs=1e-6)
        assert mean[1] == pytest.approx(4.0, abs=1e-6)

    def test_zero_innovation_keeps_position(self):
        prior = random_psd(np.random.default_rng(2))
        mean, _ = update([2.0, -1.0, 0.3, 0.1], prior, (2.0, -1.0), 0.1)
        assert mean[0] == pytest.approx(2.0, abs=1e-9)
        assert mean[1] == pytest.approx(-1.0, abs=1e-9)

    def test_velocity_decays_under_stationary_measurements(self):
        # Steady-state check against direct recursive computation: feeding a
        # fixed point must drive the velocity estimate to zero.
        mean, cov = [0, 0, 1.0, -0.5], np.diag([0.01, 0.01, 2.25, 2.25])
        for _ in range(50):
            mean, cov = predict(mean, cov, 0.05, 2.0)
            mean, cov = update(mean, cov, (1.0, 1.0), 0.1)
        assert math.hypot(*mean[2:]) < 0.01

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            mean, cov = rng.normal(0, 2, 4), random_psd(rng)
            for _ in range(20):
                mean, cov = predict(mean, cov, rng.uniform(0.01, 0.2), 2.0)
                mean, cov = update(mean, cov, rng.normal(0, 3, 2), 0.1)
                assert np.allclose(cov, cov.T, atol=1e-9)
                assert np.linalg.eigvalsh(cov).min() >= -1e-9


class TestCostMatrix:
    def test_three_four_five(self):
        cost = _distances(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert cost[0, 0] == pytest.approx(5.0)

    def test_empty_tracks(self):
        cost = _distances(np.empty((0, 2)), np.array([[1.0, 1.0]]))
        assert cost.shape == (0, 1)
        result = solve_assignment(cost, 1.0)
        assert result.matches == [] and result.unmatched_detections == [0]

    def test_symmetry_for_coincident_sets(self):
        pts = np.array([[0.0, 0.0], [2.0, 1.0]])
        a = _distances(pts, pts)
        np.testing.assert_allclose(a, a.T)


def brute_force_min(cost):
    n = cost.shape[0]
    return min(
        sum(cost[i, p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


class TestSolveAssignment:
    def test_beats_greedy_diagonal(self):
        result = solve_assignment(np.array([[1.0, 2.0], [2.0, 4.0]]), 10.0)
        pairs = {(t, d) for t, d, _ in result.matches}
        assert pairs == {(0, 1), (1, 0)}
        assert sum(d for _, _, d in result.matches) == pytest.approx(4.0)

    def test_gate_demotion(self):
        result = solve_assignment(np.array([[10.0]]), 1.0)
        assert result.matches == []
        assert result.unmatched_tracks == [0]
        assert result.unmatched_detections == [0]

    def test_matches_brute_force_on_small_matrices(self):
        rng = np.random.default_rng(4)
        for n in range(2, 6):
            for _ in range(30):
                cost = rng.uniform(0, 10, (n, n))
                result = solve_assignment(cost, np.inf)
                total = sum(d for _, _, d in result.matches)
                assert total == pytest.approx(brute_force_min(cost))

    def test_gate_soundness_random(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            cost = rng.uniform(0, 3, (rng.integers(1, 6), rng.integers(1, 6)))
            gate = rng.uniform(0.5, 2.5)
            result = solve_assignment(cost, gate)
            assert all(d <= gate for _, _, d in result.matches)
            seen_t = [t for t, _, _ in result.matches] + result.unmatched_tracks
            seen_d = [d for _, d, _ in result.matches] + result.unmatched_detections
            assert sorted(seen_t) == list(range(cost.shape[0]))
            assert sorted(seen_d) == list(range(cost.shape[1]))


def lifecycle(tracker, frames):
    """``tracker.tracks`` after each frame, one detection list per frame, at
    0.05 s steps from t = 0 and the identity pose."""
    pose = Pose2D(0, 0, 0)
    for k, points in enumerate(frames):
        tracker.update([det(x, y, 0.05 * k) for x, y in points], pose, 0.05 * k)
        yield tracker.tracks


class TestLifecycle:
    def test_initiation_on_tenth_consecutive_match(self):
        tracker = Tracker(TrackerConfig(c_init=10))
        for k, tracks in enumerate(lifecycle(tracker, [[(0, 0)]] * 10), start=1):
            expected = TrackStatus.INITIATED if k >= 10 else TrackStatus.CANDIDATE
            assert tracks[0].status is expected

    def test_termination_strictly_over_c_del(self):
        # Born, then matched once: initiated with two hits at c_init=2.
        tracker = Tracker(TrackerConfig(c_init=2))
        frames = [[(0, 0)]] * 2 + [[]] * (C_DEL + 1)
        history = list(lifecycle(tracker, frames))
        assert history[1][0].status is TrackStatus.INITIATED
        for k, tracks in enumerate(history[2:], start=1):
            if k <= C_DEL:
                assert tracks and tracks[0].miss_streak == k
            else:
                assert tracks == []

    def test_alternating_never_initiates_fast(self):
        # Oracle: hand-simulated counter recurrence. Alternating match/miss
        # from spawn can never reach c_init=5 within nine updates.
        tracker = Tracker(TrackerConfig(c_init=5))
        frames = [[(0, 0)]] + [[(0, 0)] if k % 2 == 1 else [] for k in range(1, 10)]
        history = lifecycle(tracker, frames)
        next(history)
        hit = 1
        for k, tracks in enumerate(history, start=1):
            matched = k % 2 == 1
            hit = min(5, hit + 1) if matched else max(0, hit - 1)
            assert tracks[0].hit_counter == hit
            assert tracks[0].status is TrackStatus.CANDIDATE

    def test_new_candidate_starts_at_rest_with_one_hit(self):
        cfg = TrackerConfig()
        (tracks,) = lifecycle(Tracker(cfg), [[(2, 3)]])
        t = tracks[0]
        assert t.hit_counter == 1 and t.status is TrackStatus.CANDIDATE
        np.testing.assert_allclose(t.mean, [2, 3, 0, 0])
        assert t.covariance[2, 2] == pytest.approx(INITIAL_VELOCITY_STD**2)


class TestTracker:
    def test_walking_person_initiates_and_converges(self):
        cfg = TrackerConfig(c_init=5)
        tracker = Tracker(cfg)
        pose = Pose2D(0, 0, 0)
        first_initiated = None
        for k in range(1, 41):
            t = 0.05 * k
            x = 1.0 * t  # person walking at (1, 0) m/s
            out = tracker.update([det(x, 0.0, t)], pose, t)
            if out and first_initiated is None:
                first_initiated = t
        assert first_initiated == pytest.approx(0.25)
        (track,) = tracker.update([det(2.05, 0.0, 2.05)], pose, 2.05)
        vx, vy = track.velocity
        assert abs(vx - 1.0) < 0.1 and abs(vy) < 0.1

    def test_detection_exactly_at_the_gate_matches(self):
        # The candidate rests at the origin; a detection exactly the gate
        # distance away still belongs to it.
        tracker = Tracker(TrackerConfig())
        pose = Pose2D(0, 0, 0)
        tracker.update([det(0.0, 0.0, 0.0)], pose, 0.0)
        tracker.update([det(GATE_DISTANCE, 0.0, 0.05)], pose, 0.05)
        (track,) = tracker.tracks
        assert (track.id, track.hit_counter) == (1, 2)

    def test_rotating_robot_keeps_static_person_still(self):
        # Person fixed in the odometry frame by construction; detections are
        # generated in the rotating sensor frame.
        cfg = TrackerConfig(c_init=2)
        tracker = Tracker(cfg)
        person = np.array([2.0, 1.0])
        speeds = []
        for k in range(80):
            t = 0.05 * k
            theta = 1.5 * t
            pose = Pose2D(0.0, 0.0, theta, t)
            c, s = math.cos(-theta), math.sin(-theta)
            local = (
                c * person[0] - s * person[1],
                s * person[0] + c * person[1],
            )
            out = tracker.update([det(local[0], local[1], t)], pose, t)
            if out and t > 1.0:
                speeds.append(math.hypot(*out[0].velocity))
        assert speeds and max(speeds) < 0.05

    def test_all_tracks_terminate_without_detections(self):
        cfg = TrackerConfig(c_init=2)
        tracker = Tracker(cfg)
        pose = Pose2D(0, 0, 0)
        for k in range(3):
            out = tracker.update([det(1, 1, 0.05 * k)], pose, 0.05 * k)
        assert out
        for k in range(3, 3 + 17):
            out = tracker.update([], pose, 0.05 * k)
        assert out == []

    def test_time_regression_rejected_and_state_intact(self):
        tracker = Tracker(TrackerConfig())
        pose = Pose2D(0, 0, 0)
        tracker.update([det(1, 1, 1.0)], pose, 1.0)
        before = [(t.id, t.hit_counter) for t in tracker.tracks]
        with pytest.raises(ValueError):
            tracker.update([det(1, 1, 0.5)], pose, 0.5)
        assert [(t.id, t.hit_counter) for t in tracker.tracks] == before

    @pytest.mark.parametrize("stamp", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected_and_state_intact(self, stamp):
        # A NaN used to reach the solver as NaN distances, and then stood as
        # the last time, so no later time counted as a regression.
        with pytest.raises(ValueError, match=f"^timestamp {stamp!r} is not finite$"):
            Tracker(TrackerConfig()).update([det(1, 1)], Pose2D(0, 0, 0), stamp)
        tracker = Tracker(TrackerConfig())
        pose = Pose2D(0, 0, 0)
        tracker.update([det(1, 1, 1.0)], pose, 1.0)
        before = [(t.id, t.hit_counter, t.mean.tobytes()) for t in tracker.tracks]
        with pytest.raises(ValueError, match="is not finite"):
            tracker.update([det(1, 1, 1.05)], pose, stamp)
        assert [(t.id, t.hit_counter, t.mean.tobytes()) for t in tracker.tracks] == before
        with pytest.raises(ValueError, match="time regression"):
            tracker.update([det(1, 1, 0.5)], pose, 0.5)

    def test_ids_strictly_increase_and_never_return(self):
        cfg = TrackerConfig(c_init=1)
        tracker = Tracker(cfg)
        pose = Pose2D(0, 0, 0)
        seen = []
        t = 0.0
        for burst in range(5):
            for _ in range(3):
                out = tracker.update([det(burst, 0.0, t)], pose, t)
                t += 0.05
            seen.extend(o.id for o in out)
            for _ in range(C_DEL + 1):  # starve until termination
                tracker.update([], pose, t)
                t += 0.05
        assert seen == sorted(seen)

    def test_separated_cv_agents_keep_identities(self):
        # Three well-separated constant-velocity walkers, perfect
        # detections, 30 seconds: exactly three tracks, zero id switches.
        cfg = TrackerConfig(c_init=5)
        tracker = Tracker(cfg)
        pose = Pose2D(0, 0, 0)
        starts = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        vels = np.array([[0.3, 0.1], [-0.2, 0.2], [0.1, -0.3]])
        identity = {}
        switches = 0
        for k in range(600):
            t = 0.05 * (k + 1)
            positions = starts + vels * t
            dets = [det(x, y, t) for x, y in positions]
            out = tracker.update(dets, pose, t)
            for i, (x, y) in enumerate(positions):
                near = [
                    tr.id
                    for tr in out
                    if math.hypot(tr.position.x - x, tr.position.y - y) < 0.5
                ]
                if near:
                    if i in identity and identity[i] != near[0]:
                        switches += 1
                    identity[i] = near[0]
        assert len({tid for tid in identity.values()}) == 3
        assert switches == 0
        assert len(tracker.update([det(*p, 30.0) for p in starts + vels * 30.0],
                                  pose, 30.0)) == 3
