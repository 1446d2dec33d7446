import dataclasses

import numpy as np
import pytest
import yaml

from gazescreen import experiments, pipeline
from gazescreen.core import FeatureMode
from gazescreen.errors import ConfigError, InsufficientData, MissingVideo, NonFiniteFeature
from gazescreen.experiments import CvConfig, cv_plan, run_duration_simulation, severity_plan
from gazescreen.features import Window, extract, extract_batch, full_window
from gazescreen.ingest import AoiIndex, load_manifest
from gazescreen.pipeline import collect_extraction_failures, extract_features, load_dataset


def test_dataset_holds_one_index_per_video(small_cohort):
    assert set(small_cohort.aoi) == set(small_cohort.video_order)
    for vid, idx in small_cohort.aoi.items():
        assert isinstance(idx, AoiIndex)
        assert idx.n_frames == small_cohort.manifest.video_meta(vid).n_frames


def test_second_load_gives_equal_features_and_new_indexes(small_cohort_manifest):
    first = load_dataset(small_cohort_manifest)
    second = load_dataset(small_cohort_manifest)
    for vid in first.video_order:
        assert first.aoi[vid] is not second.aoi[vid]
    rows = extract_features(first, FeatureMode.WITH_AOI)
    again = extract_features(second, FeatureMode.WITH_AOI)
    assert rows.shape == again.shape
    assert rows.tobytes() == again.tobytes()
    w = Window(2.0, 5.0)
    for vid in first.video_order:
        got = extract_batch(first.stacks[vid], first.aoi[vid], w, FeatureMode.WITH_AOI)
        want = extract_batch(second.stacks[vid], second.aoi[vid], w, FeatureMode.WITH_AOI)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_index_is_read_only(small_cohort):
    idx = next(iter(small_cohort.aoi.values()))
    with pytest.raises(ValueError):
        idx.cx[0, 0] = 0.5


def test_traces_are_read_only_rows_of_their_video_stack(small_cohort):
    pids = sorted(p.participant_id for p in small_cohort.manifest.participants)
    assert set(small_cohort.stacks) == set(small_cohort.video_order)
    for vid, stack in small_cohort.stacks.items():
        assert stack.participant_ids == tuple(pids)
        assert stack.n_frames == small_cohort.manifest.video_meta(vid).n_frames
        for i, pid in enumerate(pids):
            at = small_cohort.aligned[(pid, vid)]
            for name in ("present", "x", "y", "gap"):
                column = getattr(at, name)
                assert column.base is getattr(stack, name)
                assert np.array_equal(column, getattr(stack, name)[i], equal_nan=True)
                with pytest.raises(ValueError):
                    column[0] = column[1]
        with pytest.raises(ValueError):
            stack.x[0, 0] = 0.5


@pytest.mark.parametrize("mode", [FeatureMode.WITH_AOI, FeatureMode.NO_AOI])
def test_each_video_is_a_column_block_of_the_matrix(small_cohort, small_cohort_manifest,
                                                    mode):
    pids = sorted(p.participant_id for p in small_cohort.manifest.participants)
    assert [p.participant_id for p in small_cohort.participants] == pids
    X = extract_features(small_cohort, mode)
    width = mode.n_features
    assert X.shape == (len(pids), width * len(small_cohort.video_order))
    for k, vid in enumerate(small_cohort.video_order):
        assert small_cohort.stacks[vid].participant_ids == tuple(pids)
        block = extract_features(load_dataset(small_cohort_manifest, video_ids=[vid]), mode)
        assert block.shape == (len(pids), width)
        assert X[:, k * width:(k + 1) * width].tobytes() == block.tobytes()
        for r, pid in enumerate(pids):
            at = small_cohort.aligned[(pid, vid)]
            want = extract(at, small_cohort.aoi[vid], full_window(at), mode)
            assert block[r].tobytes() == want.tobytes()


def test_rows_follow_sorted_ids_whatever_the_manifest_order(
    small_cohort, small_cohort_manifest, tmp_path
):
    data = yaml.safe_load(small_cohort_manifest.read_text(encoding="utf-8"))
    data["participants"].reverse()
    base = small_cohort_manifest.parent
    for per_video in data["gaze_logs"].values():
        for vid, rel in per_video.items():
            per_video[vid] = str(base / rel)
    for vid, rel in data["aoi_tracks"].items():
        data["aoi_tracks"][vid] = str(base / rel)
    path = tmp_path / "manifest.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    reversed_ds = load_dataset(path)
    pids = [p.participant_id for p in reversed_ds.manifest.participants]
    assert pids == [p.participant_id for p in small_cohort.manifest.participants][::-1]
    assert reversed_ds.participants == small_cohort.participants
    for vid, stack in reversed_ds.stacks.items():
        assert stack.participant_ids == small_cohort.stacks[vid].participant_ids
    for mode in (FeatureMode.WITH_AOI, FeatureMode.NO_AOI):
        assert (extract_features(reversed_ds, mode).tobytes()
                == extract_features(small_cohort, mode).tobytes())
    # failures are still listed in manifest order
    first = reversed_ds.video_order[0]
    broken = broken_cohort(reversed_ds, (pids[0], first), (pids[1], first))
    failures, _ = collect_extraction_failures(broken, FeatureMode.NO_AOI)
    assert [(pid, vid, type(e)) for pid, vid, e in failures] == [
        (pids[0], first, MissingVideo), (pids[1], first, InsufficientData)]


def record_parsed_paths(monkeypatch):
    """The list of the gaze logs and AOI tracks that the pipeline parses
    from now on."""
    parsed = []
    for name in ("parse_gaze_log", "parse_aoi_track"):
        def recording(path, *args, _parse=getattr(pipeline, name), **kwargs):
            parsed.append(path)
            return _parse(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, name, recording)
    return parsed


@pytest.mark.parametrize("plan, options", [
    (severity_plan, {}),  # severity
    (cv_plan, {"video_selection": "dialog"}),  # evaluate --video dialog
    (cv_plan, {"mode": FeatureMode.NO_AOI}),  # evaluate --mode noaoi
    (severity_plan, {"video_selection": "dialog", "mode": FeatureMode.NO_AOI}),
], ids=["severity", "evaluate-video-dialog", "evaluate-noaoi", "severity-video-dialog-noaoi"])
def test_selected_load_parses_only_the_selected_files(small_cohort, monkeypatch, plan, options):
    manifest = small_cohort.manifest
    selection = plan(manifest, CvConfig(seed=0, **options))
    parsed = record_parsed_paths(monkeypatch)
    dataset = load_dataset(**selection)

    chosen, videos, aoi = selection["participants"], selection["video_ids"], selection["aoi"]
    pids = [p.participant_id for p in chosen]
    expected = [manifest.aoi_paths[vid] for vid in videos if aoi]
    expected += [path for (pid, vid), path in manifest.gaze_log_paths.items()
                 if pid in pids and vid in videos]
    assert parsed == expected  # each once, AOI tracks first, as a full load would
    assert dataset.participants == tuple(p for p in small_cohort.participants if p in chosen)
    assert dataset.manifest_order == tuple(chosen)
    assert dataset.video_order == tuple(videos)
    assert sorted(dataset.aoi) == (sorted(videos) if aoi else [])
    assert sorted(dataset.stacks) == sorted(videos)

    # every selected row is the full load's, bit for bit
    rows = [small_cohort.participants.index(p) for p in dataset.participants]
    for vid, stack in dataset.stacks.items():
        full = small_cohort.stacks[vid]
        assert stack.participant_ids == tuple(full.participant_ids[r] for r in rows)
        for name in ("present", "x", "y", "gap"):
            assert getattr(stack, name).tobytes() == getattr(full, name)[rows].tobytes()
    mode = FeatureMode.WITH_AOI if aoi else FeatureMode.NO_AOI
    width = mode.n_features
    cols = [k * width + j for k, vid in enumerate(small_cohort.video_order) if vid in videos
            for j in range(width)]
    want = extract_features(small_cohort, mode)[np.ix_(rows, cols)]
    assert extract_features(dataset, mode).tobytes() == want.tobytes()


def test_non_finite_window_feature_fails_without_redraw(small_cohort, monkeypatch):
    calls = []

    def overflowing(*args):
        calls.append(args)
        raise NonFiniteFeature("non-finite feature")

    monkeypatch.setattr(experiments, "extract_batch", overflowing)
    with pytest.raises(NonFiniteFeature):
        run_duration_simulation(small_cohort, [3.0], CvConfig(seed=3, repetitions=1))
    assert len(calls) == 1


def broken_cohort(dataset, missing, unusable):
    """``dataset`` without the gaze log of the pair ``missing``, and with
    the trace of the pair ``unusable`` present on alternate frames only, so
    that F2 has no consecutive pair on its full window."""
    aligned = dict(dataset.aligned)
    del aligned[missing]
    at = aligned[unusable]
    present = at.present & (np.arange(at.n_frames) % 2 == 0)
    aligned[unusable] = dataclasses.replace(at, present=present)
    return dataclasses.replace(dataset, aligned=aligned)


@pytest.mark.parametrize("mode", [FeatureMode.WITH_AOI, FeatureMode.NO_AOI])
@pytest.mark.parametrize("missing_first", [True, False])
def test_extract_features_raises_the_first_listed_failure(small_cohort, mode, missing_first):
    pids = [p.participant_id for p in small_cohort.manifest.participants]
    first, second = small_cohort.video_order[:2]
    # participant then video order: (pids[1], second) comes before (pids[2], first)
    expected = [((pids[1], second), MissingVideo), ((pids[2], first), InsufficientData)]
    if not missing_first:
        expected = [(expected[0][0], InsufficientData), (expected[1][0], MissingVideo)]
    by_error = {error: pair for pair, error in expected}
    dataset = broken_cohort(small_cohort, by_error[MissingVideo], by_error[InsufficientData])
    failures, vectors = collect_extraction_failures(dataset, mode)
    assert [((pid, vid), type(e)) for pid, vid, e in failures] == expected
    assert len(vectors) == len(pids) * len(small_cohort.video_order) - 2
    with pytest.raises(type(failures[0][2])) as exc:
        extract_features(dataset, mode)
    assert str(exc.value) == str(failures[0][2])


@pytest.mark.parametrize("load", [
    cv_plan,
    severity_plan,
    lambda manifest, config: load_dataset(manifest, video_ids=[config.video_selection]),
], ids=["cv_plan", "severity_plan", "load_dataset"])
def test_undeclared_video_is_a_config_error(small_cohort_manifest, monkeypatch, load):
    manifest = load_manifest(small_cohort_manifest)
    parsed = record_parsed_paths(monkeypatch)
    with pytest.raises(ConfigError, match="unknown video id 'ghost'"):
        load(manifest, CvConfig(seed=0, video_selection="ghost"))
    assert parsed == []
