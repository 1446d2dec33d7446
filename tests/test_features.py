import math
import re

import numpy as np
import pytest

from gazescreen.core import FeatureMode
from gazescreen.errors import (
    ConfigError,
    GazeScreenError,
    InsufficientData,
    NoAoiInWindow,
    NonFiniteFeature,
)
from gazescreen.features import (
    VideoTable,
    Window,
    extract,
    extract_batch,
    extract_stack,
    feature_delay,
    feature_rmse_aoi,
    feature_std_diff,
    feature_std_gaze,
    feature_std_manhattan,
    frame_range,
    full_window,
)
from gazescreen.pipeline import extract_features, load_dataset

from .conftest import (
    Box,
    aoi_index,
    frozen_stack,
    random_aligned,
    random_aoi,
    row_stack,
    seeded_video,
    stack_traces,
)
from . import oracles


def trace_from_points(points, fps=10.0, pid="p", vid="v", gaps=()):
    """A one-row stack from a list of (x, y) or None (absent frame)."""
    n = len(points)
    present = np.array([p is not None for p in points])
    x = np.array([p[0] if p else np.nan for p in points], dtype=float)
    y = np.array([p[1] if p else np.nan for p in points], dtype=float)
    gap = np.zeros(n, dtype=bool)
    gap[1:] = ~present[:-1]
    for g in gaps:
        gap[g] = True
    return frozen_stack(vid, fps, [pid], present, x, y, gap)


def box_track(centers, half=0.1, oid="o"):
    """One box per entry; centers may contain None for unannotated frames."""
    boxes = []
    for f, c in enumerate(centers):
        if c is None:
            continue
        boxes.append(Box(oid, f, c[0] - half, c[1] - half, c[0] + half, c[1] + half))
    return boxes


class TestF1:
    def test_constant_points(self):
        at = trace_from_points([(0.4, 0.4)] * 5)
        assert feature_std_gaze(at, full_window(at)) == 0.0

    def test_three_point_example(self):
        at = trace_from_points([(0.0, 0.0), (0.3, 0.4), (0.6, 0.8)])
        got = feature_std_gaze(at, full_window(at))
        assert got == pytest.approx(math.sqrt(0.06 + 0.32 / 3), rel=1e-9)
        assert got == pytest.approx(0.40825, abs=1e-5)

    def test_single_frame_insufficient(self):
        at = trace_from_points([(0.5, 0.5), None, None])
        with pytest.raises(InsufficientData):
            feature_std_gaze(at, full_window(at))


class TestF2:
    def test_uniform_motion_is_zero(self):
        pts = [(0.1 + 0.02 * k, 0.2 + 0.01 * k) for k in range(10)]
        at = trace_from_points(pts)
        assert feature_std_diff(at, full_window(at)) == pytest.approx(0.0, abs=1e-15)

    def test_four_displacement_example(self):
        xs = [0.0, 0.05, 0.10, 0.15, 0.30]
        at = trace_from_points([(x, 0.5) for x in xs])
        got = feature_std_diff(at, full_window(at))
        expected = oracles._pop_std([0.05, 0.05, 0.05, 0.15])
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0433, abs=1e-4)

    def test_gap_splits_into_singletons(self):
        at = trace_from_points([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3), (0.4, 0.4)],
                               gaps=(1, 2, 3))
        with pytest.raises(InsufficientData):
            feature_std_diff(at, full_window(at))

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            at = random_aligned(rng, n_frames=15)
            w = full_window(at)
            try:
                base = feature_std_diff(at, w)
            except InsufficientData:
                continue
            shifted = frozen_stack(at.video_id, at.fps, at.participant_ids, at.present,
                                   at.x + 0.123, at.y - 0.05, at.gap)
            assert feature_std_diff(shifted, w) == pytest.approx(base, abs=1e-12)


class TestF3F4:
    def test_gaze_pinned_to_center(self):
        centers = [(0.5, 0.5), (0.6, 0.4), (0.3, 0.7)]
        at = trace_from_points(centers)
        aoi = aoi_index(box_track(centers), at.n_frames)
        w = full_window(at)
        assert feature_std_manhattan(at, aoi, w) == pytest.approx(0.0, abs=1e-15)
        assert feature_rmse_aoi(at, aoi, w) == pytest.approx(0.0, abs=1e-15)

    def test_nearest_object_wins(self):
        at = trace_from_points([(0.5, 0.5), (0.5, 0.5)])
        boxes = []
        for f in range(2):
            boxes.append(Box("near", f, 0.5, 0.5, 0.7, 0.7))  # center (0.6, 0.6)
            boxes.append(Box("far", f, 0.2, 0.2, 0.4, 0.4))  # center (0.3, 0.3)
        aoi = aoi_index(boxes, at.n_frames)
        # per-frame Manhattan distance = min(0.4, 0.2) = 0.2 on both frames
        assert feature_std_manhattan(at, aoi, full_window(at)) == pytest.approx(0.0, abs=1e-15)
        d = math.hypot(0.1, 0.1)
        assert feature_rmse_aoi(at, aoi, full_window(at)) == pytest.approx(d, rel=1e-12)

    def test_rmse_two_frame_example(self):
        at = trace_from_points([(0.5, 0.5), (0.5, 0.5)])
        aoi = aoi_index(box_track([(0.5, 0.8), (0.5, 0.9)], half=0.1), at.n_frames)  # 0.3, 0.4
        got = feature_rmse_aoi(at, aoi, full_window(at))
        assert got == pytest.approx(math.sqrt((0.09 + 0.16) / 2), rel=1e-12)
        assert got == pytest.approx(0.35355, abs=1e-5)

    def test_empty_track(self):
        at = trace_from_points([(0.5, 0.5), (0.5, 0.5)])
        aoi = aoi_index([], at.n_frames)
        with pytest.raises(NoAoiInWindow):
            feature_std_manhattan(at, aoi, full_window(at))
        with pytest.raises(NoAoiInWindow):
            feature_rmse_aoi(at, aoi, full_window(at))


class TestF5:
    def test_immediate_look_is_zero(self):
        centers = [(0.5, 0.5)] * 4
        at = trace_from_points(centers)
        aoi = aoi_index(box_track(centers), at.n_frames)
        assert feature_delay(at, aoi, full_window(at)) == 0.0

    def test_late_first_hit(self):
        fps = 30.0
        n = 150
        pts = [(0.1, 0.1)] * n
        for f in range(105, n):
            pts[f] = (0.5, 0.5)
        at = trace_from_points(pts, fps=fps)
        centers = [None] * n
        for f in range(60, n):
            centers[f] = (0.5, 0.5)
        aoi = aoi_index(box_track(centers), at.n_frames)
        # occurrence enters at frame 60, first hit at frame 105
        assert feature_delay(at, aoi, full_window(at)) == pytest.approx(45 / fps)
        assert feature_delay(at, aoi, full_window(at)) == pytest.approx(1.5)

    def test_censoring(self):
        pts = [(0.1, 0.1)] * 10
        at = trace_from_points(pts)
        centers = [None, (0.7, 0.7), (0.7, 0.7), None, None, (0.8, 0.8), None, None, None, None]
        aoi = aoi_index(box_track(centers), at.n_frames)
        # spans: frames 1-2 (0.2 s) and frame 5 (0.1 s), never looked at
        got = feature_delay(at, aoi, full_window(at))
        assert got == pytest.approx((0.2 + 0.1) / 2, rel=1e-12)

    def test_censoring_bound_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            at = random_aligned(rng, n_frames=18, fps=6.0)
            aoi = aoi_index(random_aoi(rng, n_frames=18), at.n_frames)
            w = full_window(at)
            try:
                f5 = feature_delay(at, aoi, w)
            except NoAoiInWindow:
                continue
            occs = [(max(enter, 0), min(exit_, 17)) for _, enter, exit_ in aoi.occurrences.tolist()]
            mean_dur = np.mean([(x - e + 1) / at.fps for e, x in occs])
            assert 0.0 <= f5 <= mean_dur + 1e-12


class TestAoiIndex:
    def test_occurrences_match_oracle(self):
        def check(boxes, n_frames):
            shown = [b for b in boxes if b.frame_index < n_frames]  # the oracle skips the rest
            aoi = aoi_index(shown, n_frames)
            occ = aoi.occurrences
            assert occ.shape == (len(occ), 3) and occ.dtype.kind == "i"
            assert not occ.flags.writeable
            got = [(aoi.object_ids[k], enter, exit_) for k, enter, exit_ in occ.tolist()]
            assert got == oracles.oracle_occurrences(boxes, n_frames)

        rng = np.random.default_rng(21)
        for p_ann in (0.0, 0.3, 0.7, 1.0):
            for _ in range(20):
                check(random_aoi(rng, n_frames=24, n_objects=3, p_ann=p_ann),
                      int(rng.integers(1, 25)))
        # ids that sort one way as strings and the other as numbers, entering
        # on one frame; spans that touch the first and the last frame
        box = (0.2, 0.2, 0.4, 0.4)
        spans = {"obj10": [(0, 3), (7, 9)], "obj2": [(0, 1), (5, 9)], "obj1": [(5, 5)]}
        boxes = [Box(oid, f, *box) for oid, runs in spans.items()
                 for enter, exit_ in runs for f in range(enter, exit_ + 1)]
        check(boxes, 10)
        assert oracles.oracle_occurrences(boxes, 10) == [
            ("obj10", 0, 3), ("obj2", 0, 1), ("obj1", 5, 5), ("obj2", 5, 9), ("obj10", 7, 9)]

    def test_frame_count_must_match_trace(self):
        at = trace_from_points([(0.5, 0.5)] * 4)
        aoi = aoi_index(box_track([(0.5, 0.5)] * 4), at.n_frames + 1)
        with pytest.raises(ValueError):
            extract(at, aoi, full_window(at), FeatureMode.WITH_AOI)
        with pytest.raises(ValueError):
            feature_delay(at, aoi, full_window(at))


class TestScaleSymmetries:
    def scaled(self, at, aoi, s):
        at2 = frozen_stack(at.video_id, at.fps, at.participant_ids, at.present,
                           at.x * s, at.y * s, at.gap)
        boxes = [
            Box(b.object_id, b.frame_index, b.x_min * s, b.y_min * s,
                b.x_max * s, b.y_max * s)
            for b in aoi
        ]
        return at2, boxes

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 50:
            at = random_aligned(rng, n_frames=16, fps=8.0)
            aoi = random_aoi(rng, n_frames=16)
            s = float(rng.uniform(0.2, 1.0))
            w = full_window(at)
            idx = aoi_index(aoi, at.n_frames)
            try:
                f1 = feature_std_gaze(at, w)
                f2 = feature_std_diff(at, w)
                f3 = feature_std_manhattan(at, idx, w)
                f4 = feature_rmse_aoi(at, idx, w)
                f5 = feature_delay(at, idx, w)
            except (InsufficientData, NoAoiInWindow):
                continue
            at2, aoi2 = self.scaled(at, aoi, s)
            aoi2 = aoi_index(aoi2, at2.n_frames)
            assert feature_std_gaze(at2, w) == pytest.approx(f1 * s, abs=1e-12)
            assert feature_std_diff(at2, w) == pytest.approx(f2 * s, abs=1e-12)
            assert feature_std_manhattan(at2, aoi2, w) == pytest.approx(f3 * s, abs=1e-12)
            assert feature_rmse_aoi(at2, aoi2, w) == pytest.approx(f4 * s, abs=1e-12)
            assert feature_delay(at2, aoi2, w) == pytest.approx(f5, abs=1e-12)
            checked += 1


class TestWindows:
    def test_window_restricts_frames(self):
        pts = [(0.1 * k, 0.5) for k in range(10)]  # fps 10 -> 1 s
        at = trace_from_points(pts)
        w = Window(0.25, 0.3)  # frames 3, 4, 5
        got = feature_std_gaze(at, w)
        expected = oracles.oracle_f1(at, w)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_definedness_monotone_in_window(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            at = random_aligned(rng, n_frames=20, fps=10.0, p_present=0.5)
            aoi = aoi_index(random_aoi(rng, n_frames=20, p_ann=0.4), at.n_frames)
            w_small = Window(0.5, 0.8)
            w_big = Window(0.0, 2.0)
            for fn in (
                lambda w: feature_std_gaze(at, w),
                lambda w: feature_std_diff(at, w),
                lambda w: feature_std_manhattan(at, aoi, w),
                lambda w: feature_rmse_aoi(at, aoi, w),
                lambda w: feature_delay(at, aoi, w),
            ):
                try:
                    fn(w_small)
                except (InsufficientData, NoAoiInWindow):
                    continue
                fn(w_big)  # must not raise

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            Window(-1.0, 2.0)
        with pytest.raises(ConfigError):
            Window(0.0, 0.0)


class TestOracleEquivalence:
    def test_randomized_micro_instances(self):
        rng = np.random.default_rng(123)
        n_checked = 0
        for _ in range(100):
            n = int(rng.integers(6, 21))
            fps = float(rng.choice([5.0, 10.0, 30.0]))
            at = random_aligned(rng, n_frames=n, fps=fps)
            aoi = random_aoi(rng, n_frames=n, n_objects=int(rng.integers(1, 3)))
            start = float(rng.uniform(0, n / fps * 0.3))
            dur = float(rng.uniform(n / fps * 0.3, n / fps - start))
            w = Window(start, dur)
            idx = aoi_index(aoi, at.n_frames)
            pairs = [
                (lambda: feature_std_gaze(at, w), lambda: oracles.oracle_f1(at, w)),
                (lambda: feature_std_diff(at, w), lambda: oracles.oracle_f2(at, w)),
                (lambda: feature_std_manhattan(at, idx, w), lambda: oracles.oracle_f3(at, aoi, w)),
                (lambda: feature_rmse_aoi(at, idx, w), lambda: oracles.oracle_f4(at, aoi, w)),
                (lambda: feature_delay(at, idx, w), lambda: oracles.oracle_f5(at, aoi, w)),
            ]
            for impl, oracle in pairs:
                expected = oracle()
                try:
                    got = impl()
                except (InsufficientData, NoAoiInWindow):
                    assert expected is None
                    continue
                assert expected is not None
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
                n_checked += 1
        assert n_checked > 200  # the instances exercised real computations


class TestExtractConcat:
    def test_no_aoi_shape(self):
        at = trace_from_points([(0.1 * k, 0.3) for k in range(8)])
        row = extract(at, None, full_window(at), FeatureMode.NO_AOI)
        assert row.shape == (2,) and row.dtype == np.float64

    def test_with_aoi_matches_oracle(self):
        rng = np.random.default_rng(55)
        at = random_aligned(rng, n_frames=20, fps=10.0)
        aoi = random_aoi(rng, n_frames=20)
        w = full_window(at)
        row = extract(at, aoi_index(aoi, at.n_frames), w, FeatureMode.WITH_AOI)
        expected = [
            oracles.oracle_f1(at, w), oracles.oracle_f2(at, w),
            oracles.oracle_f3(at, aoi, w), oracles.oracle_f4(at, aoi, w),
            oracles.oracle_f5(at, aoi, w),
        ]
        assert row.tolist() == pytest.approx(expected, rel=1e-9)

    def test_with_aoi_empty_track(self):
        at = trace_from_points([(0.1 * k, 0.3) for k in range(8)])
        with pytest.raises(NoAoiInWindow):
            extract(at, aoi_index([], at.n_frames), full_window(at),
                    FeatureMode.WITH_AOI)

    def test_concat_order_and_shape(self, small_cohort, small_cohort_manifest):
        order = list(reversed(small_cohort.video_order))
        dataset = load_dataset(small_cohort_manifest, video_ids=order, aoi=False)
        assert dataset.video_order == tuple(order)
        X = extract_features(dataset, FeatureMode.NO_AOI)
        assert X.shape == (len(small_cohort.participants), 2 * len(order))
        for row, p in zip(X, small_cohort.participants):
            pid = p.participant_id
            for k, vid in enumerate(dataset.video_order):
                stack = small_cohort.stacks[vid]
                at = row_stack(stack, stack.row[pid])
                expected = extract(at, None, full_window(at), FeatureMode.NO_AOI)
                assert row[2 * k: 2 * k + 2].tolist() == expected.tolist()


class TestWindowErrors:
    @pytest.mark.parametrize("start, duration", [
        (-1.0, 2.0), (0.0, 0.0), (0.0, -1.0), (math.nan, 1.0), (0.0, math.nan),
        (math.inf, 1.0), (0.0, math.inf),
    ])
    def test_bad_window_is_config_error(self, start, duration):
        with pytest.raises(ConfigError) as info:
            Window(start, duration)
        assert isinstance(info.value, GazeScreenError)
        assert not isinstance(info.value, ValueError)


def batch_vs_extract(stack, rows, aoi, w, mode):
    """Compare ``extract_batch`` with ``extract`` on every row of one
    window: F5, which both read from one index, bit for bit. Returns the
    per-row verdicts and the worst relative error."""
    values, usable = extract_batch(VideoTable(stack, aoi, mode), w)
    assert values.shape == (len(rows), mode.n_features)
    worst = 0.0
    for i, at in enumerate(rows):
        assert at.participant_ids == stack.participant_ids[i:i + 1]
        try:
            expected = extract(at, aoi, w, mode)
        except GazeScreenError:
            assert not usable[i], (at.participant_ids, w)
            assert np.isnan(values[i]).all()
            continue
        assert usable[i], (at.participant_ids, w)
        if mode is FeatureMode.WITH_AOI:
            assert values[i, 4].tobytes() == expected[4].tobytes(), (at.participant_ids, w)
        for got, want in zip(values[i], expected):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return usable, worst


class TestExtractBatch:
    """``extract_batch`` against ``extract``, the definition."""

    MODES = [FeatureMode.WITH_AOI, FeatureMode.NO_AOI]

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_extract_on_cohort_windows(self, small_cohort, mode):
        rng = np.random.default_rng(606)
        durations = (0.04, 0.1, 0.25, 0.5, 0.9, 1.5, 3.0, 6.0, 12.0)
        n_redraw = worst = 0
        for _ in range(300):
            vid = small_cohort.video_order[int(rng.integers(len(small_cohort.video_order)))]
            stack = small_cohort.stacks[vid]
            rows = [row_stack(stack, i) for i in range(len(stack.participant_ids))]
            duration = float(rng.choice(durations))
            meta = small_cohort.manifest.video_meta(vid)
            w = Window(float(rng.uniform(0.0, meta.duration_s - duration)), duration)
            usable, err = batch_vs_extract(stack, rows, small_cohort.aoi[vid], w, mode)
            n_redraw += not usable.all()
            worst = max(worst, err)
        assert worst <= 1e-9
        assert n_redraw >= 10  # sub-second windows that the protocol redraws

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_extract_on_random_stacks(self, mode):
        rng = np.random.default_rng(707)
        n_windows = n_redraw = n_mixed = worst = 0
        for _ in range(50):
            n = int(rng.integers(4, 41))
            fps = float(rng.choice([5.0, 10.0, 30.0]))
            p_present = float(rng.uniform(0.2, 1.0))
            traces = [random_aligned(rng, n_frames=n, fps=fps, p_present=p_present,
                                     pid=f"p{k:02d}") for k in rng.permutation(6)]
            stack, rows = stack_traces(traces)
            track = random_aoi(rng, n_frames=n, n_objects=int(rng.integers(1, 4)),
                               p_ann=float(rng.uniform(0.05, 0.8)))
            aoi = aoi_index(track, n)
            for _ in range(6):
                duration = float(rng.uniform(0.5, n)) / fps
                w = Window(float(rng.uniform(0.0, n / fps - duration)), duration)
                usable, err = batch_vs_extract(stack, rows, aoi, w, mode)
                n_windows += 1
                n_redraw += not usable.all()
                n_mixed += 0 < usable.sum() < len(usable)
                worst = max(worst, err)
        assert n_windows == 300
        assert worst <= 1e-9
        assert n_redraw >= 30 and n_mixed >= 10

    def test_stack_rows_are_sorted_read_only_views(self):
        rng = np.random.default_rng(3)
        traces = [random_aligned(rng, pid=pid) for pid in ("b", "c", "a")]
        stack, rows = stack_traces(traces)
        assert stack.participant_ids == ("a", "b", "c")
        originals = {t.participant_ids: t for t in traces}
        for i, at in enumerate(rows):
            original = originals[at.participant_ids]
            for name in ("present", "x", "y", "gap"):
                assert not getattr(stack, name).flags.writeable
                assert not getattr(at, name).flags.writeable
                np.testing.assert_array_equal(getattr(stack, name)[i], getattr(original, name)[0])
                np.testing.assert_array_equal(getattr(at, name), getattr(original, name))

    # One hand-built trace per validity rule: the rejecting row next to a
    # row that passes, so each verdict is per row and not per window.
    GOOD = [(0.1 * k, 0.2 + 0.03 * k) for k in range(10)]
    CENTERS = [(0.5, 0.5)] * 10

    def verdicts(self, bad_points, w, centers=CENTERS, gaps=(), mode=FeatureMode.WITH_AOI):
        traces = [
            trace_from_points(self.GOOD, pid="good"),
            trace_from_points(bad_points, pid="bad", gaps=gaps),
        ]
        stack, rows = stack_traces(traces)
        aoi = aoi_index(box_track(centers), stack.n_frames)
        usable, _ = batch_vs_extract(stack, rows, aoi, w, mode)
        return dict(zip(stack.participant_ids, usable.tolist()))

    def test_f1_needs_two_present_frames(self):
        bad = [None] * 10
        bad[4] = (0.5, 0.5)
        assert self.verdicts(bad, Window(0.0, 1.0)) == {"good": True, "bad": False}

    def test_f2_needs_two_frames(self):
        # one frame in the window: every row is rejected
        assert self.verdicts(self.GOOD, Window(0.3, 0.1)) == {"good": False, "bad": False}

    def test_f2_needs_two_eligible_pairs(self):
        alternating = [p if k % 2 == 0 else None for k, p in enumerate(self.GOOD)]
        assert self.verdicts(alternating, Window(0.0, 1.0)) == {"good": True, "bad": False}
        # present throughout, but gap flags leave one eligible pair
        got = self.verdicts(self.GOOD, Window(0.0, 0.4), gaps=(2, 3))
        assert got == {"good": True, "bad": False}

    def test_f3_f4_need_an_annotated_frame(self):
        centers = [(0.5, 0.5)] * 3 + [None] * 7
        got = self.verdicts(self.GOOD, Window(0.5, 0.5), centers=centers)
        assert got == {"good": False, "bad": False}
        got = self.verdicts(self.GOOD, Window(0.5, 0.5), centers=centers,
                            mode=FeatureMode.NO_AOI)
        assert got == {"good": True, "bad": True}

    def test_f3_f4_need_two_present_annotated_frames(self):
        centers = [None] * 5 + [(0.5, 0.5)] * 5
        bad = self.GOOD[:6] + [None] * 4  # frame 5 is the only present annotated one
        assert self.verdicts(bad, Window(0.0, 1.0), centers=centers) == {
            "good": True, "bad": False}

    def test_f5_needs_an_overlapping_occurrence(self):
        # an occurrence overlaps exactly when a frame is annotated, so the
        # only way to lose F5 is a window without annotation
        centers = [None] * 6 + [(0.5, 0.5)] * 4
        assert self.verdicts(self.GOOD, Window(0.0, 0.6), centers=centers) == {
            "good": False, "bad": False}
        assert self.verdicts(self.GOOD, Window(0.0, 0.8), centers=centers) == {
            "good": True, "bad": True}

    def test_f5_counts_gaze_on_the_box_edge_as_inside(self):
        # box [0.4, 0.6] x [0.4, 0.6]; each row first touches one edge at frame k + 1
        edges = [(0.4, 0.5), (0.6, 0.5), (0.5, 0.4), (0.5, 0.6)]
        traces = []
        for k, edge in enumerate(edges):
            points = [(0.9, 0.9)] * 10
            points[k + 1] = edge
            traces.append(trace_from_points(points, pid=f"p{k}"))
        stack, rows = stack_traces(traces)
        aoi = aoi_index(box_track(self.CENTERS), stack.n_frames)
        w = Window(0.0, 1.0)
        batch_vs_extract(stack, rows, aoi, w, FeatureMode.WITH_AOI)
        values, _ = extract_batch(VideoTable(stack, aoi, FeatureMode.WITH_AOI), w)
        assert values[:, 4].tolist() == pytest.approx([0.1, 0.2, 0.3, 0.4], abs=1e-12)

    def test_no_aoi_track_raises_like_extract(self):
        stack, rows = stack_traces([trace_from_points(self.GOOD)])
        w = Window(0.0, 1.0)
        with pytest.raises(NoAoiInWindow):
            extract(rows[0], None, w, FeatureMode.WITH_AOI)
        with pytest.raises(NoAoiInWindow):
            VideoTable(stack, None, FeatureMode.WITH_AOI)

    def test_non_finite_row_raises(self):
        huge = [(1e200 * k, 0.5) for k in range(10)]  # variance overflows
        stack, rows = stack_traces([trace_from_points(self.GOOD, pid="a"),
                                    trace_from_points(huge, pid="b")])
        w = Window(0.0, 1.0)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteFeature, match="b/v"):
            extract(rows[1], None, w, FeatureMode.NO_AOI)
        with pytest.raises(NonFiniteFeature, match="b/v"):
            extract_batch(VideoTable(stack, None, FeatureMode.NO_AOI), w)


def result_or_error(fn, *args):
    """``fn(*args)``, or the exception it raises."""
    try:
        return fn(*args)
    except Exception as e:
        return e


def table_vs_oracle(table, stack, aoi, w, mode):
    """``extract_batch`` on ``table`` (or the error that building it
    raised) against ``oracles.oracle_extract_batch`` on one window: the
    bytes of the values and of the usable mask, or the type and message of
    the error. Returns the usable mask, or None after an error."""
    want = result_or_error(oracles.oracle_extract_batch, stack, aoi, w, mode)
    got = table if isinstance(table, Exception) else result_or_error(extract_batch, table, w)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want)), w
        return None
    assert not isinstance(got, Exception), (w, got)
    assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes(), w
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes(), w
    return got[1]


class TestVideoTable:
    """``extract_batch`` on a ``VideoTable`` against
    ``oracles.oracle_extract_batch``, the per-window code it replaced."""

    MODES = [FeatureMode.WITH_AOI, FeatureMode.NO_AOI]

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_the_oracle_on_cohort_windows(self, small_cohort, mode):
        rng = np.random.default_rng(2727)
        tables = {vid: VideoTable(small_cohort.stacks[vid], small_cohort.aoi[vid], mode)
                  for vid in small_cohort.video_order}
        durations = (0.01, 0.04, 0.07, 0.1, 0.25, 0.5, 1.5, 3.0, 6.0, 12.0)
        counts = dict.fromkeys(("short", "clip end", "no occurrence", "redraw", "usable"), 0)
        for i in range(320):
            vid = small_cohort.video_order[i % len(small_cohort.video_order)]
            stack, aoi = small_cohort.stacks[vid], small_cohort.aoi[vid]
            meta = small_cohort.manifest.video_meta(vid)
            duration = float(rng.choice(durations))
            if i % 8 == 3:  # a window that ends at the clip's end
                w = Window(meta.duration_s - duration, duration)
            elif i % 8 == 5:  # a window of >= 4 frames in a gap between occurrences
                free = ~aoi.any_ann
                starts = np.flatnonzero(free[:-3] & free[1:-2] & free[2:-1] & free[3:])
                f = int(rng.choice(starts))
                w = Window(f / stack.fps, 4 / stack.fps)
            else:
                w = Window(float(rng.uniform(0.0, meta.duration_s - duration)), duration)
            usable = table_vs_oracle(tables[vid], stack, aoi, w, mode)
            lo, hi = frame_range(w, stack.fps, stack.n_frames)
            occ = aoi.occurrences
            counts["short"] += hi - lo < 2
            counts["clip end"] += hi == stack.n_frames
            counts["no occurrence"] += not ((occ[:, 1] < hi) & (occ[:, 2] >= lo)).any()
            counts["redraw"] += not usable.all()
            counts["usable"] += bool(usable.all())
        assert min(counts.values()) >= 20, counts

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_the_oracle_on_random_stacks(self, mode):
        rng = np.random.default_rng(2728)
        seen = {"objects": set(), "errors": set()}
        n_windows = 0
        for trial in range(90):
            n = int(rng.integers(4, 41))
            fps = float(rng.choice([5.0, 10.0, 30.0]))
            p_present = float(rng.uniform(0.2, 1.0))
            traces = [random_aligned(rng, n_frames=n, fps=fps, p_present=p_present,
                                     pid=f"p{k:02d}") for k in rng.permutation(5)]
            if trial % 6 == 1:  # a row whose F1 and F2 overflow
                traces.append(trace_from_points([(1e200 * k, 0.5) for k in range(n)], fps=fps,
                                                pid="p99", vid="v0"))
            stack, _ = stack_traces(traces)
            track = random_aoi(rng, n_frames=n, n_objects=1 + trial % 3,
                               p_ann=float(rng.uniform(0.05, 0.8)))
            aoi = {9: None, 10: aoi_index(track, n + 1)}.get(trial % 11, aoi_index(track, n))
            seen["objects"].add(aoi and len(aoi.object_ids))
            table = result_or_error(VideoTable, stack, aoi, mode)
            for _ in range(6):
                duration = float(rng.uniform(0.5, n)) / fps
                w = Window(float(rng.uniform(0.0, n / fps - duration)), duration)
                with np.errstate(over="ignore", invalid="ignore"):
                    usable = table_vs_oracle(table, stack, aoi, w, mode)
                if usable is None:
                    seen["errors"].add(type(table if isinstance(table, Exception) else
                                            result_or_error(extract_batch, table, w)).__name__)
                n_windows += 1
        assert {1, 2, 3} <= seen["objects"]
        want_errors = {"NonFiniteFeature"}
        if mode is FeatureMode.WITH_AOI:
            want_errors |= {"NoAoiTrack", "ValueError"}
        assert seen["errors"] == want_errors
        assert n_windows == 540


def value_or_error(fn, *args):
    try:
        return fn(*args)
    except GazeScreenError as e:
        return e


def reason(error) -> str:
    """The message of a feature error without its window, video or pair."""
    return re.split(r" (?:in |for )?(?:Window\(|video |p\d)", str(error))[0]


def assert_same_result(got, want, what):
    """``got`` is ``want``'s feature row bit for bit, or an error of its
    type and message."""
    if isinstance(want, GazeScreenError):
        assert type(got) is type(want), (what, got, want)
        assert str(got) == str(want), what
    else:
        assert isinstance(got, np.ndarray), (what, got)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), what
        assert got.tobytes() == want.tobytes(), what


# each single-feature function with its pre-stack-pass oracle, and whether
# it reads the AOI track
FEATURES = [
    (feature_std_gaze, oracles.oracle_feature_std_gaze, False),
    (feature_std_diff, oracles.oracle_feature_std_diff, False),
    (feature_std_manhattan, oracles.oracle_feature_std_manhattan, True),
    (feature_rmse_aoi, oracles.oracle_feature_rmse_aoi, True),
    (feature_delay, oracles.oracle_feature_delay, True),
]


class TestExtractStack:
    """``extract_stack`` against ``oracles.oracle_extract``, the per-trace
    engine it replaced, on every row of seeded stacks."""

    MODES = [FeatureMode.WITH_AOI, FeatureMode.NO_AOI]

    def test_rows_match_the_oracle_on_random_windows(self):
        rng = np.random.default_rng(808)
        reasons = set()
        for trial in range(250):
            pids = [f"p{i}" for i in range(int(rng.integers(1, 6)))]
            stack, rows, aoi = seeded_video(rng, pids, "v")
            length = stack.n_frames / stack.fps
            start = float(rng.uniform(0.0, length))
            windows = [full_window(stack), Window(start, float(rng.uniform(0.01, length)))]
            for w in windows:
                with np.errstate(all="ignore"):
                    for mode in self.MODES:
                        got = extract_stack(stack, aoi, w, mode)
                        assert len(got) == len(rows)
                        for at, row in zip(rows, got):
                            want = value_or_error(oracles.oracle_extract, at, aoi, w, mode)
                            assert_same_result(row, want, (trial, at.participant_ids, w, mode))
                            assert_same_result(value_or_error(extract, at, aoi, w, mode), want,
                                               (trial, at.participant_ids, w, mode))
                            if isinstance(want, GazeScreenError):
                                reasons.add(reason(want))
                    for feature, oracle, reads_aoi in FEATURES:
                        args = (aoi, w) if reads_aoi else (w,)
                        for at in rows:
                            want = value_or_error(oracle, at, *args)
                            got = value_or_error(feature, at, *args)
                            if isinstance(want, GazeScreenError):
                                reasons.add(reason(want))
                                assert (type(got), str(got)) == (type(want), str(want)), trial
                            elif math.isfinite(want):
                                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                            else:  # the one-feature pass rejects a value extract rejects
                                assert isinstance(got, NonFiniteFeature), trial
        assert reasons == {
            "F1 needs >= 2 present frames", "F2 needs >= 2 frames",
            "F2 needs >= 2 eligible consecutive pairs", "no AOI track", "no annotated frame",
            "F3 needs >= 2 present+annotated frames",
            "no frame both present and annotated", "no AOI occurrence overlaps",
            "non-finite feature",
        }, reasons

    def test_one_row_functions_name_the_row_count_of_any_other_stack(self):
        rng = np.random.default_rng(4)
        two, _ = stack_traces([random_aligned(rng, pid=pid) for pid in ("a", "b")])
        empty = frozen_stack("v0", 10.0, [], *(np.empty((0, 20)),) * 4)
        aoi = aoi_index(random_aoi(rng), 20)
        w = full_window(two)
        for stack, n in ((two, 2), (empty, 0)):
            with pytest.raises(ValueError, match=f"one-row stack, got {n} rows"):
                extract(stack, aoi, w, FeatureMode.WITH_AOI)
            for feature, _, reads_aoi in FEATURES:
                with pytest.raises(ValueError, match=f"one-row stack, got {n} rows"):
                    feature(stack, *((aoi, w) if reads_aoi else (w,)))

    def test_rows_do_not_depend_on_the_other_rows(self, small_cohort):
        for vid, stack in small_cohort.stacks.items():
            aoi = small_cohort.aoi[vid]
            w = full_window(stack)
            for mode in self.MODES:
                whole = extract_stack(stack, aoi, w, mode)
                for i, row in enumerate(whole):
                    alone = row_stack(stack, i)
                    assert row.tobytes() == extract(alone, aoi, w, mode).tobytes()

