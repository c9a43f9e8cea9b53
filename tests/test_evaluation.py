import dataclasses
import math

import numpy as np
import pytest

from lidarmot.evaluation import (
    GroundTruthFrame,
    HypothesisFrame,
    MotAccumulator,
    MotReport,
    evaluate_sequence,
    filter_by_fov_frame,
    match_frame,
    mota,
    motp,
)
from lidarmot.geometry import FieldOfView, PointXY, Pose2D

FOV = FieldOfView(-0.75 * math.pi, 0.75 * math.pi, 30.0)


def gt_frame(t, persons, pose=None):
    if pose is None:
        pose = Pose2D(0, 0, 0, t)
    return GroundTruthFrame(
        timestamp=t,
        persons=tuple((pid, PointXY(x, y, frame="odom")) for pid, x, y in persons),
        robot_pose=pose,
    )


def hyp_frame(t, tracks):
    return HypothesisFrame(
        timestamp=t,
        tracks=tuple((tid, PointXY(x, y, frame="odom")) for tid, x, y in tracks),
    )


class TestMatchFrame:
    def test_match_inside_threshold(self):
        counts, corr = match_frame(
            gt_frame(0, [(1, 0, 0)]), hyp_frame(0, [(7, 0.5, 0)]), 0.75
        )
        assert counts.matches == 1
        assert counts.misses == 0 and counts.false_positives == 0
        assert counts.distance_sum == pytest.approx(0.5)
        assert corr == {1: 7}

    def test_miss_and_fp_outside_threshold(self):
        counts, _ = match_frame(
            gt_frame(0, [(1, 0, 0)]), hyp_frame(0, [(7, 0.8, 0)]), 0.75
        )
        assert counts.matches == 0
        assert counts.misses == 1 and counts.false_positives == 1

    def test_persistence_beats_nearest(self):
        # Person bound to track 7; track 9 is nearer but 7 still within
        # threshold, so the correspondence persists and no switch counts.
        prev = {1: 7}
        counts, corr = match_frame(
            gt_frame(1, [(1, 0, 0)]),
            hyp_frame(1, [(7, 0.5, 0), (9, 0.1, 0)]),
            0.75,
            prev,
        )
        assert corr == {1: 7}
        assert counts.id_switches == 0
        assert counts.false_positives == 1  # track 9 unmatched

    def test_switch_when_old_track_out_of_range(self):
        prev = {1: 7}
        counts, corr = match_frame(
            gt_frame(1, [(1, 0, 0)]),
            hyp_frame(1, [(7, 2.0, 0), (9, 0.1, 0)]),
            0.75,
            prev,
        )
        assert corr == {1: 9}
        assert counts.id_switches == 1

    def test_binding_dropped_when_person_absent(self):
        # Person leaves the frame: the binding dies with it, so the next
        # match is fresh rather than a switch.
        _, corr = match_frame(gt_frame(0, [(1, 0, 0)]), hyp_frame(0, [(7, 0, 0)]), 0.75)
        _, corr = match_frame(gt_frame(1, []), hyp_frame(1, []), 0.75, corr)
        assert corr == {}
        counts, corr = match_frame(
            gt_frame(2, [(1, 0, 0)]), hyp_frame(2, [(9, 0, 0)]), 0.75, corr
        )
        assert counts.id_switches == 0
        assert corr == {1: 9}

    def test_binding_survives_a_miss_while_present(self):
        _, corr = match_frame(gt_frame(0, [(1, 0, 0)]), hyp_frame(0, [(7, 0, 0)]), 0.75)
        counts, corr = match_frame(gt_frame(1, [(1, 0, 0)]), hyp_frame(1, []), 0.75, corr)
        assert counts.misses == 1
        assert corr == {1: 7}

    def test_minimum_total_distance_assignment(self):
        counts, corr = match_frame(
            gt_frame(0, [(1, 0, 0), (2, 1, 0)]),
            hyp_frame(0, [(10, 0.4, 0), (11, 0.6, 0)]),
            0.75,
        )
        # Greedy would bind person 1 to track 11 (0.6 < ...); optimum is
        # 1->10 (0.4) and 2->11 (0.4), total 0.8.
        assert corr == {1: 10, 2: 11}
        assert counts.distance_sum == pytest.approx(0.8)

    def test_conservation_property(self):
        rng = np.random.default_rng(0)
        corr = {}
        for _ in range(1000):
            persons = [
                (i, *rng.uniform(-5, 5, 2)) for i in range(rng.integers(0, 6))
            ]
            tracks = [
                (i, *rng.uniform(-5, 5, 2)) for i in range(rng.integers(0, 6))
            ]
            counts, corr = match_frame(
                gt_frame(0, persons), hyp_frame(0, tracks), 0.75, corr
            )
            assert counts.matches + counts.misses == counts.g
            assert counts.false_positives == len(tracks) - counts.matches
            assert counts.matches >= counts.id_switches >= 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        persons = [(i, *rng.uniform(-3, 3, 2)) for i in range(5)]
        tracks = [(i, *rng.uniform(-3, 3, 2)) for i in range(5)]
        a, corr_a = match_frame(gt_frame(0, persons), hyp_frame(0, tracks), 0.75)
        rng.shuffle(persons)
        rng.shuffle(tracks)
        b, corr_b = match_frame(gt_frame(0, persons), hyp_frame(0, tracks), 0.75)
        assert corr_a == corr_b
        assert a.distance_sum == pytest.approx(b.distance_sum)


class TestScores:
    def test_reference_row_arithmetic(self):
        # Stationary-robot row: 1 - 440/7845 = 94.39%, reported 94.40%.
        value = mota(9, 424, 7, 7845)
        assert value == pytest.approx(0.9439, abs=5e-5)
        assert abs(value * 100 - 94.40) <= 0.1

    def test_perfect_is_one(self):
        assert mota(0, 0, 0, 100) == 1.0

    def test_not_floored_at_zero(self):
        assert mota(0, 0, 200, 100) == pytest.approx(-1.0)

    def test_undefined_without_ground_truth(self):
        with pytest.raises(ValueError):
            mota(0, 0, 0, 0)

    def test_motp_single_match(self):
        assert motp(0.13, 1) == pytest.approx(0.13)

    def test_motp_mean(self):
        assert motp(0.1 + 0.3, 2) == pytest.approx(0.2)

    def test_motp_zero_distance(self):
        assert motp(0.0, 5) == 0.0

    def test_motp_undefined_without_matches(self):
        with pytest.raises(ValueError):
            motp(0.0, 0)

    def test_mota_monotone_in_errors(self):
        base = mota(5, 50, 5, 1000)
        assert mota(5, 60, 5, 1000) < base
        assert mota(6, 50, 5, 1000) < base
        assert mota(5, 50, 15, 1000) < base


class TestFovFilter:
    def test_behind_removed_ahead_retained(self):
        gt = gt_frame(0, [(1, 2.0, 0.0), (2, -1.0, 0.0)])
        hyp = hyp_frame(0, [(7, 2.0, 0.1), (8, -1.0, 0.1)])
        gtf, hypf = filter_by_fov_frame(gt, hyp, FOV)
        assert [pid for pid, _ in gtf.persons] == [1]
        assert [tid for tid, _ in hypf.tracks] == [7]

    def test_empty_frames(self):
        gtf, hypf = filter_by_fov_frame(gt_frame(0, []), hyp_frame(0, []), FOV)
        assert gtf.persons == () and hypf.tracks == ()

    def test_robot_pose_is_applied(self):
        # Robot turned around: what was ahead is now in the blind wedge.
        pose = Pose2D(0, 0, math.pi)
        gt = GroundTruthFrame(0, ((1, PointXY(2.0, 0.0, frame="odom")),), pose)
        gtf, _ = filter_by_fov_frame(gt, hyp_frame(0, []), FOV)
        assert gtf.persons == ()

    def test_soundness_random(self):
        from lidarmot.geometry import in_fov, invert_pose, transform_to_frame

        rng = np.random.default_rng(2)
        for _ in range(1000):
            pose = Pose2D(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
            persons = [(i, *rng.uniform(-6, 6, 2)) for i in range(3)]
            gt = gt_frame(0, persons, pose)
            gtf, _ = filter_by_fov_frame(gt, hyp_frame(0, []), FOV)
            kept = {pid for pid, _ in gtf.persons}
            inv = invert_pose(pose)
            for pid, p in gt.persons:
                local = transform_to_frame(p, inv, "lidar")
                assert (pid in kept) == in_fov(local, FOV)


class TestEvaluateSequence:
    def _constant_gt(self, n=10, persons=((1, 1.0, 0.5), (2, 2.0, -0.5))):
        return [gt_frame(k * 0.01, persons) for k in range(n * 5)]

    def test_perfect_hypotheses(self):
        gt = self._constant_gt()
        hyp = [hyp_frame(k * 0.05, [(1, 1.0, 0.5), (2, 2.0, -0.5)]) for k in range(10)]
        report = evaluate_sequence(gt, hyp, FOV)
        assert report.mota == 1.0
        assert report.motp == 0.0

    def test_uniform_offset(self):
        gt = self._constant_gt()
        hyp = [hyp_frame(k * 0.05, [(1, 1.2, 0.5), (2, 2.2, -0.5)]) for k in range(10)]
        report = evaluate_sequence(gt, hyp, FOV)
        assert report.mota == 1.0
        assert report.motp == pytest.approx(0.2)

    def test_dropping_alternate_frames_halves_mota(self):
        # Hand count on a 10-frame toy: 5 frames with both matched, 5 with
        # both missed -> misses = 10 of g = 20, MOTA = 0.5.
        gt = self._constant_gt()
        hyp = []
        for k in range(10):
            tracks = [(1, 1.0, 0.5), (2, 2.0, -0.5)] if k % 2 == 0 else []
            hyp.append(hyp_frame(k * 0.05, tracks))
        report = evaluate_sequence(gt, hyp, FOV)
        assert report.total_g == 20
        assert report.total_misses == 10
        assert report.mota == pytest.approx(0.5)

    def test_empty_hypothesis_sequence_refused(self):
        # Scoring needs hypothesis times; the ground truth's own 100 Hz clock
        # would weigh a run that saw nothing five times as heavily.
        with pytest.raises(ValueError, match="^no hypothesis frames to score$"):
            evaluate_sequence(self._constant_gt(n=4), [], FOV)

    def test_empty_frames_count_misses_at_scan_times(self):
        # One empty frame per 20 Hz scan: 4 frames of 2 visible persons.
        gt = self._constant_gt(n=4)
        report = evaluate_sequence(gt, [hyp_frame(k * 0.05, []) for k in range(4)], FOV)
        assert len(report.frames) == 4
        assert report.total_g == report.total_misses == 8
        assert report.total_matches == 0

    def test_interpolates_between_gt_frames(self):
        gt = [gt_frame(0.0, [(1, 0.0, 1.0)]), gt_frame(1.0, [(1, 2.0, 1.0)])]
        hyp = [hyp_frame(0.5, [(7, 1.0, 1.0)])]
        report = evaluate_sequence(gt, hyp, FOV)
        assert report.total_matches == 1
        assert report.motp == pytest.approx(0.0, abs=1e-12)

    def test_person_present_on_one_side_of_bracket(self):
        # Person 2 only exists in the later frame: it is taken as-is for
        # frames within the time tolerance (0.02 s) of that frame and dropped
        # for frames in the middle of the bracket.
        gt = [
            gt_frame(0.0, [(1, 0.0, 1.0)]),
            gt_frame(0.1, [(1, 1.0, 1.0), (2, 5.0, 5.0)]),
        ]
        report = evaluate_sequence(gt, [hyp_frame(0.05, []), hyp_frame(0.095, [])], FOV)
        assert [f.g for f in report.frames] == [1, 2]

    def test_out_of_range_hypothesis_frames_skipped(self):
        gt = self._constant_gt(n=2)
        hyp = [hyp_frame(99.0, [(1, 1.0, 0.5)])]
        report = evaluate_sequence(gt, hyp, FOV)
        assert report.skipped_frames == 1
        assert report.frames == []

    @pytest.mark.parametrize("times, later, earlier", [
        ((0.0, 0.1, 0.05, 0.15), "0.05", "0.1"),  # regressing
        ((0.0, 0.05, 0.05, 0.1), "0.05", "0.05"),  # one instant twice
        ((99.0, 98.0), "98.0", "99.0"),  # both out of range
    ])
    def test_hypothesis_times_must_strictly_increase(self, times, later, earlier):
        # Switches are judged against the previous frame, so an unordered
        # sequence would score a different run.
        gt = self._constant_gt()
        hyp = [hyp_frame(t, [(1, 1.0, 0.5)]) for t in times]
        with pytest.raises(ValueError, match=rf"t={later} follows the one at t={earlier}$"):
            evaluate_sequence(gt, hyp, FOV)

    @pytest.mark.parametrize("times, later, earlier", [
        ((0.0, 0.01, 0.005, 0.02), "0.005", "0.01"),
        ((0.0, 0.01, 0.01, -1.0), "-1.0", "0.01"),  # equal times pass
    ])
    def test_ground_truth_times_must_not_decrease(self, times, later, earlier):
        # Each hypothesis frame bisects the ground-truth times.
        gt = [gt_frame(t, [(1, 1.0, 0.5)]) for t in times]
        with pytest.raises(ValueError, match=rf"t={later} follows the one at t={earlier}$"):
            evaluate_sequence(gt, [hyp_frame(0.0, [(1, 1.0, 0.5)])], FOV)

    def test_streamed_ground_truth_order_checked_as_it_is_read(self):
        # A producer whose clock goes back is refused, with the message a
        # whole list gets, by the first update that reads past the bad pair,
        # before the run ends.
        scorer = MotAccumulator(FOV, [gt_frame(t, [(1, 1.0, 0.5)])
                                      for t in (0.0, 0.01, 0.005, 0.02, 0.03)])
        scorer.update(hyp_frame(0.0, []))
        with pytest.raises(ValueError, match=r"t=0.005 follows the one at t=0.01$"):
            scorer.update(hyp_frame(0.015, []))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        gt = [
            gt_frame(k * 0.01, [(i, *rng.uniform(-3, 3, 2)) for i in range(3)])
            for k in range(50)
        ]
        hyp = [
            hyp_frame(k * 0.05, [(i, *rng.uniform(-3, 3, 2)) for i in range(3)])
            for k in range(10)
        ]
        a = evaluate_sequence(gt, hyp, FOV)
        b = evaluate_sequence(gt, hyp, FOV)
        assert [dataclasses.astuple(f) for f in a.frames] == [
            dataclasses.astuple(f) for f in b.frames
        ]

    def test_report_valid_column(self):
        report = MotReport()
        _, corr = None, {}
        gt = self._constant_gt(n=3)
        hyp = [hyp_frame(k * 0.05, [(k, 1.0, 0.5), (99, 2.0, -0.5)]) for k in range(3)]
        report = evaluate_sequence(gt, hyp, FOV)
        # person 1 rebinds every frame (track id changes) -> 2 switches
        assert report.total_id_switches == 2
        assert report.valid == report.total_matches - 2
