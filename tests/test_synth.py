import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from gazescreen import synth
from gazescreen.core import FeatureMode, Group, VideoMeta
from gazescreen.experiments import CvConfig, run_classification_cv
from gazescreen.features import extract, full_window
from gazescreen.pipeline import extract_features, load_dataset
from gazescreen.synth import (
    CARS_HISTOGRAM,
    DEFAULT_ASD_PARAMS,
    DEFAULT_CONTROL_PARAMS,
    DEFAULT_VIDEOS,
    CohortSpec,
    build_participants,
    generate_aoi_path,
    generate_cohort,
    generate_trace_rows,
    write_gaze_log,
)

from .conftest import align_alone, aoi_index, gaze_trace, index_boxes
from .oracles import oracle_trace_rows, oracle_write_gaze_log

META = DEFAULT_VIDEOS[0]


def simulate(params, rng_seed=1, meta=META, aoi=None):
    if aoi is None:
        aoi = generate_aoi_path(meta, np.random.default_rng(0))
    rows = generate_trace_rows(
        params, meta, aoi, np.random.default_rng(rng_seed), 60.0
    )
    trace = gaze_trace(
        [(r[0] * 1000, r[1] * 1000, r[2], r[3], bool(r[4])) for r in rows.tolist()],
        video_id=meta.video_id,
    )
    return align_alone(trace, meta)[0], aoi, rows


def tree_digest(root):
    """sha256 over every file under ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


class TestAoiPath:
    def test_invariants(self):
        for seed in range(10):
            aoi = generate_aoi_path(META, np.random.default_rng(seed))
            assert aoi.n_frames == META.n_frames
            boxes = index_boxes(aoi)
            for b in boxes:
                assert 0.0 <= b.x_min < b.x_max <= 1.0
                assert 0.0 <= b.y_min < b.y_max <= 1.0
            occs = aoi.occurrences
            assert 2 <= len(occs) <= 4
            covered = len({b.frame_index for b in boxes})
            assert 0.6 <= covered / META.n_frames <= 0.9
            # occurrences are separated by at least one unannotated frame
            assert (occs[1:, 1] > occs[:-1, 2] + 1).all()

    def test_frame_floor(self):
        # from 5 frames on every seed lays out 2-4 separate occurrences over
        # >= 60% of frames; at 4, four spans can fill the video as one
        five, four = (VideoMeta("v", float(n), 1.0, 100, 100) for n in (5, 4))
        for seed in range(200):
            aoi = generate_aoi_path(five, np.random.default_rng(seed))
            assert 2 <= len(aoi.occurrences) <= 4 and aoi.ann.sum() >= 3
        assert any(len(generate_aoi_path(four, np.random.default_rng(seed)).occurrences) == 1
                   for seed in range(200))
        CohortSpec(videos=(five,))
        with pytest.raises(ValueError, match="video 'v' has 4 frames, fewer than the 5 its AOI"):
            CohortSpec(videos=(four,))

    def test_deterministic(self):
        a1 = generate_aoi_path(META, np.random.default_rng(3))
        a2 = generate_aoi_path(META, np.random.default_rng(3))
        assert index_boxes(a1) == index_boxes(a2)


class TestTraceRows:
    def test_basic_shape(self):
        _, _, rows = simulate(DEFAULT_CONTROL_PARAMS)
        # look-away pauses stall video time, so the session can only be
        # longer than the nominal duration x rate count
        assert len(rows) >= round(META.duration_s * 60)
        wall = np.array([r[0] for r in rows])
        video = np.array([r[1] for r in rows])
        assert np.all(np.diff(wall) > 0)
        assert np.all(np.diff(video) >= 0)
        for r in rows:
            if r[4]:
                assert 0.0 <= r[2] <= 1.0 and 0.0 <= r[3] <= 1.0

    def test_offscreen_runs_freeze_video(self):
        params = dataclasses.replace(DEFAULT_CONTROL_PARAMS, offscreen_rate_hz=0.5)
        _, _, rows = simulate(params)
        valid = np.array([r[4] for r in rows], dtype=bool)
        video = np.array([r[1] for r in rows])
        assert not valid.all()
        # video time stalls only while the gaze is off screen
        stalled = np.diff(video) == 0.0
        assert stalled.any()
        assert (~valid[:-1][stalled]).all()

    def test_no_offscreen_keeps_video_running(self):
        params = dataclasses.replace(DEFAULT_CONTROL_PARAMS, offscreen_rate_hz=0.0)
        _, _, rows = simulate(params)
        video = np.array([r[1] for r in rows])
        assert np.all(np.diff(video) > 0)

    def test_attending_shrinks_aoi_features(self):
        pinned = dataclasses.replace(
            DEFAULT_CONTROL_PARAMS,
            p_attend=1.0,
            latency_mean_s=0.0,
            latency_sd_s=0.0,
            jitter_sd=0.0,
            offscreen_rate_hz=0.0,
        )
        averse = dataclasses.replace(pinned, p_attend=0.0)
        at_p, aoi, _ = simulate(pinned)
        at_a, _, _ = simulate(averse, aoi=aoi)
        fv_p = extract(at_p, aoi, full_window(at_p), FeatureMode.WITH_AOI)
        fv_a = extract(at_a, aoi, full_window(at_a), FeatureMode.WITH_AOI)
        # f4 (aoi distance) and f5 (first-look delay) respond to attention
        assert fv_p[3] < fv_a[3] / 2
        assert fv_p[4] < fv_a[4] / 2
        assert fv_p[4] < 0.5


def _oracle_cases():
    """(params, meta, sample_rate_hz) for the per-sample oracle comparison:
    both default groups, CARS-coupled ASD viewers, look-away rates 0 and
    0.5 (and 3 Hz on every clip, so a look-away meets the clip's end and
    the frozen samples carry the wall clock far past the video time), zero
    jitter, p_attend 0 and 1, saccades of one sample (duration 0) and of
    0.5 s, fixation means of 0.01 s and 10 s (every duration clamped low or
    high), and clips of 1-3 s that cut the last fixation or look-away
    short."""
    variants = [
        DEFAULT_CONTROL_PARAMS,
        DEFAULT_ASD_PARAMS,
        DEFAULT_ASD_PARAMS.for_cars(30),
        DEFAULT_ASD_PARAMS.for_cars(34),
        DEFAULT_ASD_PARAMS.for_cars(39),
        dataclasses.replace(DEFAULT_CONTROL_PARAMS, offscreen_rate_hz=0.0),
        dataclasses.replace(DEFAULT_ASD_PARAMS, offscreen_rate_hz=0.5),
        dataclasses.replace(DEFAULT_CONTROL_PARAMS, jitter_sd=0.0),
        dataclasses.replace(DEFAULT_CONTROL_PARAMS, p_attend=0.0),
        dataclasses.replace(
            DEFAULT_CONTROL_PARAMS, p_attend=1.0, latency_mean_s=0.0, latency_sd_s=0.0
        ),
        dataclasses.replace(DEFAULT_CONTROL_PARAMS, saccade_dur_s=0.0),
        dataclasses.replace(DEFAULT_ASD_PARAMS, saccade_dur_s=0.5),
        dataclasses.replace(DEFAULT_CONTROL_PARAMS, fix_dur_aoi_mean_s=0.01, fix_dur_bg_mean_s=0.01),
        dataclasses.replace(DEFAULT_ASD_PARAMS, fix_dur_aoi_mean_s=10.0, fix_dur_bg_mean_s=10.0),
    ]
    # at 64 Hz the summed sample steps hit the 500 ms video-freeze edge exactly
    rates = (30.0, 60.0, 64.0, 120.0, 250.0)
    long_clip = VideoMeta("long", 8.0, 30.0, 1920, 1080)
    short_clips = (
        VideoMeta("short_a", 1.0, 30.0, 640, 480),
        VideoMeta("short_b", 2.3, 25.0, 1280, 720),
        VideoMeta("short_c", 3.1, 24.0, 1920, 1080),
    )
    cases = []
    for i, params in enumerate(variants):
        for j, rate in enumerate(rates):
            cases.append((params, long_clip, rate))
            short = short_clips[(i + j) % len(short_clips)]
            cases.append((params, short, rate))
            # look away often, so some look-away runs into the clip's end
            cases.append((dataclasses.replace(params, offscreen_rate_hz=3.0), short, rate))
            cases.append((dataclasses.replace(params, offscreen_rate_hz=3.0), long_clip, rate))
    return cases


def _assert_matches_oracle(params, meta, rate, track_seed, seed):
    track = generate_aoi_path(meta, np.random.default_rng(track_seed))
    rng_new = np.random.default_rng(seed)
    rng_old = np.random.default_rng(seed)
    rows = generate_trace_rows(params, meta, track, rng_new, rate)
    expected = np.array(oracle_trace_rows(params, meta, index_boxes(track), rng_old, rate),
                        dtype=float)
    assert rows.shape == expected.shape, (seed, params, meta, rate)
    assert rows.tobytes() == expected.tobytes(), (seed, params, meta, rate)
    # every RNG draw happened, in the same order
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    return rows


class TestTraceRowsOracle:
    def test_matches_per_sample_loop_bit_for_bit(self):
        cases = _oracle_cases()
        assert len(cases) >= 60
        ends_invalid = ends_valid = 0
        for seed, (params, meta, rate) in enumerate(cases):
            rows = _assert_matches_oracle(params, meta, rate, 1000 + seed, seed)
            ends_invalid += rows[-1, 4] == 0.0
            ends_valid += rows[-1, 4] == 1.0
        # the clip's end cut both a look-away run and a fixation short
        assert ends_invalid > 0 and ends_valid > 0

    @pytest.mark.parametrize("seed", [99, 292, 317])
    def test_look_away_meets_the_end_as_the_video_freezes(self, seed):
        # at these seeds a look-away starts exactly as many samples before
        # the clip's end as the video keeps running into a look-away
        params = dataclasses.replace(DEFAULT_CONTROL_PARAMS, offscreen_rate_hz=3.0)
        meta = VideoMeta("short", 1.0, 30.0, 640, 480)
        rows = _assert_matches_oracle(params, meta, 60.0, seed, seed)
        assert rows[-1, 4] == 0.0

    def test_rejects_multi_object_index(self):
        boxes = index_boxes(generate_aoi_path(META, np.random.default_rng(0)))
        second = [b._replace(object_id="object_1") for b in boxes[:5]]
        with pytest.raises(ValueError, match="one AOI object"):
            generate_trace_rows(
                DEFAULT_CONTROL_PARAMS, META, aoi_index(boxes + second, META.n_frames),
                np.random.default_rng(0), 60.0,
            )


def _tricky_values(decimals, rng):
    """Numbers a fixed-point formatter at ``decimals`` places can get
    wrong: exact ties, values within one ulp of a tie, signed zeros and
    small negatives, and values up to 2**53 ticks."""
    unit = 10.0**decimals
    ties = np.concatenate((np.arange(-4000, 4000) / 16, np.arange(-4000, 4000) / 32))
    halves = (rng.integers(-10**9, 10**9, 3000) + 0.5) / unit
    near_ties = np.concatenate((halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf)))
    small = np.array([0.0, -0.0, 5e-324, -5e-324, -1e-300, -0.001, -0.004, -0.005, -0.0049999,
                      -0.006, -0.5 / unit, 0.5 / unit, -1.5 / unit, 1.5 / unit, -2.5 / unit])
    edge = [np.nextafter(2.0**53 / unit, 0.0)]
    for _ in range(8):
        edge.append(np.nextafter(edge[-1], 0.0))
    edge += [2.0**52 / unit, np.nextafter(2.0**52 / unit, np.inf), 2.0**51 / unit + 0.5 / unit]
    edge = np.array(edge)
    return np.concatenate((ties, near_ties, small, edge, -edge))


def _gaze_log_bytes(writer, path, rows, video_id="car_pursuit"):
    writer(path, "asd_000", video_id, rows)
    return path.read_bytes()


class TestGazeLogWriter:
    def _rows(self, rng):
        cols = [_tricky_values(d, rng) for d in (3, 3, 2, 2)]
        n = max(map(len, cols))
        flags = rng.integers(0, 2, n).astype(float)
        return np.column_stack([rng.permutation(np.resize(c, n)) for c in cols] + [flags])

    def test_matches_percent_format(self, tmp_path):
        rows = self._rows(np.random.default_rng(5))
        # every row is regular, so every number goes through the array path
        assert (np.abs(rows[:, :4] * (1e3, 1e3, 1e2, 1e2)) < 2.0**53).all()
        new = _gaze_log_bytes(write_gaze_log, tmp_path / "new.csv", rows)
        old = _gaze_log_bytes(oracle_write_gaze_log, tmp_path / "old.csv", rows)
        assert new == old

    def test_irregular_row_raises_before_writing(self, tmp_path):
        # not finite, 2**53 ticks or more, or a flag other than 0 or 1
        cases = [(0, np.nan), (1, np.inf), (2, -np.inf), (3, 1e300), (3, 2.0**53 / 100),
                 (0, -9.1e12), (4, 2.0), (4, 0.5), (4, -1.0), (4, np.nan)]
        path = tmp_path / "log.csv"
        for column, value in cases:
            rows = self._rows(np.random.default_rng(6))
            at = len(rows) // 2
            rows[at, column] = value
            rows[at + 1 :, 0] = np.nan  # a later irregular row is not the one named
            with pytest.raises(ValueError, match=rf"row {at} \["):
                write_gaze_log(path, "asd_000", "car_pursuit", rows)
            assert not path.exists()

    def test_empty_log_and_odd_ids(self, tmp_path):
        for rows in (np.empty((0, 5)), np.array([[0.0, -0.0, -0.001, 1920.0, 1.0]])):
            for video_id in ("50%_s", "caf\u00e9_\u00fcber", "a,b"):
                new = _gaze_log_bytes(write_gaze_log, tmp_path / "new.csv", rows, video_id)
                old = _gaze_log_bytes(oracle_write_gaze_log, tmp_path / "old.csv", rows, video_id)
                assert new == old

    @pytest.mark.parametrize("rate", [30.0, 64.0, 250.0])
    def test_cohort_tree_matches_percent_writer(self, tmp_path, monkeypatch, rate):
        videos = (
            VideoMeta("50%_caf\u00e9", 2.0, 30.0, 1, 1),
            VideoMeta("wide", 1.5, 24.0, 10**9, 10**9),
        )
        spec = CohortSpec(n_asd=2, n_control=1, videos=videos, sample_rate_hz=rate, seed=4)
        new = generate_cohort(spec, tmp_path / "new")
        monkeypatch.setattr(synth, "write_gaze_log", oracle_write_gaze_log)
        old = generate_cohort(spec, tmp_path / "old")
        assert tree_digest(Path(new).parent) == tree_digest(Path(old).parent)


class TestCars:
    def test_histogram_exact_at_study_size(self):
        parts = build_participants(CohortSpec(seed=5))
        scores = [p.cars for p in parts if p.group is Group.ASD]
        counts = {s: scores.count(s) for s in set(scores)}
        expected = {k: v for k, v in CARS_HISTOGRAM.items() if v > 0}
        assert counts == expected
        assert all(p.cars is None for p in parts if p.group is Group.CONTROL)

    def test_small_cohort_stays_in_support(self):
        parts = build_participants(CohortSpec(n_asd=10, n_control=5, seed=6))
        support = {k for k, v in CARS_HISTOGRAM.items() if v > 0}
        for p in parts:
            if p.group is Group.ASD:
                assert p.cars in support


class TestCohortGeneration:
    def test_file_layout(self, tmp_path):
        spec = CohortSpec(n_asd=3, n_control=3, seed=7)
        manifest = generate_cohort(spec, tmp_path / "c")
        root = Path(manifest).parent
        assert len(list((root / "logs").glob("*.csv"))) == 6 * len(DEFAULT_VIDEOS)
        assert len(list((root / "aoi").glob("*.csv"))) == len(DEFAULT_VIDEOS)
        assert (root / "generator_config.yaml").exists()

    def test_byte_identical_given_seed(self, tmp_path):
        spec = CohortSpec(n_asd=2, n_control=2, seed=8)
        m1 = generate_cohort(spec, tmp_path / "a")
        m2 = generate_cohort(spec, tmp_path / "b")
        r1, r2 = Path(m1).parent, Path(m2).parent
        files1 = sorted(p.relative_to(r1) for p in r1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(r2) for p in r2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (r1 / rel).read_bytes() == (r2 / rel).read_bytes()

    def test_golden_tree_digest(self, tmp_path):
        # recorded from the sample-by-sample generator: same seed, same bytes
        manifest = generate_cohort(CohortSpec(n_asd=3, n_control=3, seed=11), tmp_path / "g")
        assert tree_digest(Path(manifest).parent) == (
            "bea378c1db671170518d25c76f0a4aeaa164da739ea2ba61c2f2e55475ef5fc1"
        )

    def test_duplicate_video_id_rejected(self):
        # the files of a video are named by its id, so load_dataset would reject the tree
        video = DEFAULT_VIDEOS[0]
        with pytest.raises(ValueError, match=f"duplicate video id '{video.video_id}'"):
            CohortSpec(n_asd=1, n_control=1, videos=(video, video))

    def test_loads_without_errors(self, small_cohort):
        ds = small_cohort
        assert len(ds.aligned) == 12 * len(DEFAULT_VIDEOS)
        assert ds.quality_warnings == []

    def test_parameter_neutrality(self, tmp_path):
        spec = CohortSpec(
            n_asd=9, n_control=9, seed=9, asd_params=DEFAULT_CONTROL_PARAMS
        )
        ds = load_dataset(generate_cohort(spec, tmp_path / "n"))
        report = run_classification_cv(
            ds.participants, extract_features(ds, FeatureMode.WITH_AOI),
            CvConfig(seed=1, repetitions=20),
        )
        assert 0.30 <= report.mean_accuracy <= 0.70


class TestGroupSeparation:
    def test_aoi_features_directionally_sound(self, default_cohort, default_features):
        X = default_features[FeatureMode.WITH_AOI]
        n_videos = len(default_cohort.manifest.video_order)

        def mean_feature(group, offset):
            vals = [
                np.mean([row[k * 5 + offset] for k in range(n_videos)])
                for row, p in zip(X, default_cohort.participants)
                if p.group is group
            ]
            return float(np.mean(vals))

        for offset in (3, 4):  # aoi distance, first-look delay
            assert mean_feature(Group.ASD, offset) > mean_feature(Group.CONTROL, offset)
