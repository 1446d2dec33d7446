import pytest

from gazescreen.core import AoiTrack, FeatureMode
from gazescreen.experiments import CvConfig, run_duration_simulation
from gazescreen.features import AoiIndex, Window
from gazescreen.pipeline import extract_features, load_dataset


def test_dataset_holds_one_index_per_video(small_cohort):
    assert set(small_cohort.aoi) == set(small_cohort.video_order)
    for vid, idx in small_cohort.aoi.items():
        assert isinstance(idx, AoiIndex)
        assert idx.n_frames == small_cohort.manifest.video_meta(vid).n_frames


def test_duration_simulation_never_hashes_a_track(small_cohort, monkeypatch):
    def refuse(self):
        raise AssertionError("an AoiTrack was hashed")

    monkeypatch.setattr(AoiTrack, "__hash__", refuse)
    report = run_duration_simulation(
        small_cohort, [3.0, 6.0], CvConfig(seed=3, repetitions=2)
    )
    assert [r["n_runs"] for r in report.rows] == [2, 2]


def test_second_load_gives_equal_features_and_new_indexes(small_cohort_manifest):
    first = load_dataset(small_cohort_manifest)
    second = load_dataset(small_cohort_manifest)
    for vid in first.video_order:
        assert first.aoi[vid] is not second.aoi[vid]
    windows = {vid: Window(2.0, 5.0) for vid in first.video_order}
    for w in (None, windows):
        assert extract_features(first, FeatureMode.WITH_AOI, windows=w) == extract_features(
            second, FeatureMode.WITH_AOI, windows=w
        )


def test_index_is_read_only(small_cohort):
    idx = next(iter(small_cohort.aoi.values()))
    with pytest.raises(ValueError):
        idx.cx[0, 0] = 0.5
