import dataclasses
from pathlib import Path

import numpy as np
import pytest

from gazescreen.core import FeatureMode, Group
from gazescreen.experiments import CvConfig, run_classification_cv
from gazescreen.features import AoiIndex, extract, full_window
from gazescreen.ingest import align
from gazescreen.pipeline import extract_features, load_dataset
from gazescreen.synth import (
    CARS_HISTOGRAM,
    DEFAULT_CONTROL_PARAMS,
    DEFAULT_VIDEOS,
    CohortSpec,
    build_participants,
    generate_aoi_path,
    generate_cohort,
    generate_trace_rows,
)

from .conftest import gaze_trace

META = DEFAULT_VIDEOS[0]


def simulate(params, rng_seed=1, meta=META, aoi=None):
    if aoi is None:
        aoi = generate_aoi_path(meta, np.random.default_rng(0))
    rows = generate_trace_rows(params, meta, aoi, np.random.default_rng(rng_seed), 60.0)
    trace = gaze_trace(
        [(r[0] * 1000, r[1] * 1000, r[2], r[3], bool(r[4])) for r in rows],
        video_id=meta.video_id,
    )
    return align(trace, meta), aoi, rows


class TestAoiPath:
    def test_invariants(self):
        for seed in range(10):
            aoi = generate_aoi_path(META, np.random.default_rng(seed))
            assert aoi.video_id == META.video_id
            for b in aoi.boxes:
                assert 0.0 <= b.x_min < b.x_max <= 1.0
                assert 0.0 <= b.y_min < b.y_max <= 1.0
                assert 0 <= b.frame_index < META.n_frames
            occs = AoiIndex(aoi, META.n_frames).occurrences
            assert 2 <= len(occs) <= 4
            covered = len({b.frame_index for b in aoi.boxes})
            assert 0.6 <= covered / META.n_frames <= 0.9
            # occurrences are separated by at least one unannotated frame
            for a, b in zip(occs, occs[1:]):
                assert b.enter_frame > a.exit_frame + 1

    def test_deterministic(self):
        a1 = generate_aoi_path(META, np.random.default_rng(3))
        a2 = generate_aoi_path(META, np.random.default_rng(3))
        assert a1 == a2


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
        idx = AoiIndex(aoi, META.n_frames)
        fv_p = extract(at_p, idx, full_window(at_p), FeatureMode.WITH_AOI)
        fv_a = extract(at_a, idx, full_window(at_a), FeatureMode.WITH_AOI)
        # f4 (aoi distance) and f5 (first-look delay) respond to attention
        assert fv_p.values[3] < fv_a.values[3] / 2
        assert fv_p.values[4] < fv_a.values[4] / 2
        assert fv_p.values[4] < 0.5


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

    def test_loads_without_errors(self, small_cohort):
        ds = small_cohort
        assert len(ds.aligned) == 12 * len(DEFAULT_VIDEOS)
        assert ds.quality_warnings == []

    def test_parameter_neutrality(self, tmp_path):
        spec = CohortSpec(
            n_asd=9, n_control=9, seed=9, asd_params=DEFAULT_CONTROL_PARAMS
        )
        ds = load_dataset(generate_cohort(spec, tmp_path / "n"))
        features = extract_features(ds, FeatureMode.WITH_AOI)
        groups = {p.participant_id: p.group for p in ds.manifest.participants}
        report = run_classification_cv(
            features, groups, CvConfig(seed=1, repetitions=20)
        )
        assert 0.30 <= report.mean_accuracy <= 0.70


class TestGroupSeparation:
    def test_aoi_features_directionally_sound(self, default_cohort, default_features):
        features = default_features[FeatureMode.WITH_AOI]
        groups = {p.participant_id: p.group for p in default_cohort.manifest.participants}
        n_videos = len(default_cohort.manifest.video_order)

        def mean_feature(group, offset):
            vals = [
                np.mean([features[p].values[k * 5 + offset] for k in range(n_videos)])
                for p in features
                if groups[p] is group
            ]
            return float(np.mean(vals))

        for offset in (3, 4):  # aoi distance, first-look delay
            assert mean_feature(Group.ASD, offset) > mean_feature(Group.CONTROL, offset)
