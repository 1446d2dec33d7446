import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import gazescreen
from gazescreen import experiments, features, pipeline
from gazescreen.cli import EXIT_CONFIG, EXIT_IO, EXIT_PIPELINE, main

from .conftest import cut_log


# the participants of the 6 + 6 test cohort, in manifest order
SMALL_COHORT_IDS = [f"asd_{i:03d}" for i in range(6)] + [f"ctl_{i:03d}" for i in range(6)]


def record_stack_passes(monkeypatch) -> list:
    """Record (video id, participant ids) of every ``extract_stack`` pass
    that ``pipeline`` makes."""
    calls = []
    real = pipeline.extract_stack

    def counting(stack, *args):
        calls.append((stack.video_id, stack.participant_ids))
        return real(stack, *args)

    monkeypatch.setattr(pipeline, "extract_stack", counting)
    return calls


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def fresh_env():
    """The environment for a fresh interpreter that imports this checkout's
    gazescreen."""
    env = dict(os.environ)
    src = str(Path(gazescreen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def copy_cohort(manifest, dst):
    shutil.copytree(Path(manifest).parent, dst)
    return dst / "manifest.yaml"


def edit_manifest(manifest, tmp_path, edit):
    """Copy the cohort of ``manifest`` and apply ``edit`` to the copy's
    parsed manifest; returns the copy's manifest path."""
    manifest = copy_cohort(manifest, tmp_path / "broken")
    data = yaml.safe_load(manifest.read_text(encoding="utf-8"))
    edit(data)
    manifest.write_text(yaml.safe_dump(data), encoding="utf-8")
    return manifest


def dir_bytes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


def record_parsed_files(monkeypatch):
    """The list of the gaze logs and AOI tracks that the pipeline parses
    from now on, by file name."""
    opened = []
    for name in ("parse_gaze_log", "parse_aoi_track"):
        def recording(path, *args, _parse=getattr(pipeline, name), **kwargs):
            opened.append(Path(path).name)
            return _parse(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, name, recording)
    return opened


# the files that corrupt_cohort breaks: a control viewer's log of one video,
# and the AOI track of another
CORRUPT_LOG = "ctl_000__car_pursuit.csv"
CORRUPT_AOI = "ball_game.csv"


def corrupt_cohort(manifest, dst, log=False, aoi=False):
    """A copy of the cohort of ``manifest`` at ``dst`` with a bad number on
    line 3 of ``CORRUPT_LOG`` (if ``log``) and of ``CORRUPT_AOI`` (if
    ``aoi``); returns the copy's manifest path."""
    copy = copy_cohort(manifest, dst)
    victims = [dst / "logs" / CORRUPT_LOG] * log + [dst / "aoi" / CORRUPT_AOI] * aoi
    for victim in victims:
        lines = victim.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        fields[3] = "oops"
        lines[2] = ",".join(fields)
        victim.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return copy


class TestSynth:
    def test_deterministic_output(self, runner, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text("n_asd: 2\nn_control: 2\n", encoding="utf-8")
        for d in ("a", "b"):
            r = run(runner, "synth", "--spec", spec, "--seed", 3, "--out", tmp_path / d)
            assert r.exit_code == 0, r.output
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")
        assert (tmp_path / "a" / "manifest.yaml").exists()

    def test_seed_is_mandatory(self, runner, tmp_path):
        r = run(runner, "synth", "--out", tmp_path / "x")
        assert r.exit_code == EXIT_CONFIG

    def test_bad_spec_file(self, runner, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text("n_asd: 0\n", encoding="utf-8")
        r = run(runner, "synth", "--spec", spec, "--seed", 1, "--out", tmp_path / "x")
        assert r.exit_code == EXIT_CONFIG

    def test_undecodable_spec_exits_config(self, runner, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_bytes(b"n_asd: 2\n# caf\xe9\nn_control: 2\n")
        r = run(runner, "synth", "--spec", spec, "--seed", 1, "--out", tmp_path / "x")
        assert r.exit_code == EXIT_CONFIG, r.output
        assert f"{spec}: not UTF-8 text" in r.output
        assert "Traceback" not in r.output
        assert isinstance(r.exception, SystemExit)

    @pytest.mark.parametrize("params", [
        "control_params: {jitter_sd: -0.1}",
        "control_params: {fix_dur_bg_mean_s: nan}",
        "asd_params: {latency_sd_s: .nan}",
        "asd_params: {saccade_dur_s: .inf}",
        "asd_params: {p_attend: true}",
        "asd_params: {severity_coupling: {bogus: 0.1}}",
        "videos: [{id: clip}]",
        "sample_rate_hz: .nan",
        "sample_rate_hz: .inf",
        "n_asd: 1.5",
        "videos: [{id: clip, duration_s: .inf, fps: 30, width_px: 640, height_px: 480}]",
        "videos: [{id: clip, duration_s: 5, fps: 30, width_px: 1920.9, height_px: 480}]",
        # a YAML boolean is not a pixel count
        "videos: [{id: clip, duration_s: 5, fps: 30, width_px: true, height_px: true}]",
        "videos: []",
        "asd_params: {severity_coupling: null}",
        "asd_params: {severity_coupling: [1]}",
        # a finite duration and rate whose product, the frame count, overflows
        "videos: [{id: clip, duration_s: 1.0e+200, fps: 1.0e+200, width_px: 640, height_px: 480}]",
        # two videos of one id would write to the same files
        "videos: [{id: c, duration_s: 2, fps: 30, width_px: 64, height_px: 48},"
        " {id: c, duration_s: 3, fps: 30, width_px: 64, height_px: 48}]",
        pytest.param(
            f"videos: [{{id: c, duration_s: 2, fps: 30, width_px: 1{'0' * 400}, height_px: 48}}]",
            id="pixel size too large for a float",
        ),
    ])
    def test_bad_spec_value_exits_config(self, runner, tmp_path, params):
        spec = tmp_path / "spec.yaml"
        spec.write_text(f"n_asd: 2\nn_control: 2\n{params}\n", encoding="utf-8")
        r = run(runner, "synth", "--spec", spec, "--seed", 1, "--out", tmp_path / "x")
        assert r.exit_code == EXIT_CONFIG, r.output
        assert "bad cohort spec" in r.output
        assert "Traceback" not in r.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("params, message", [
        ("asd_params: null", "asd_params must be a mapping, got None"),
        ("asd_params: [0.5]", "asd_params must be a mapping, got [0.5]"),
        ("control_params: null", "control_params must be a mapping, got None"),
        ("control_params: 3", "control_params must be a mapping, got 3"),
        ("videos: null", "videos must be a list, got None"),
        ("videos: {id: c}", "videos must be a list, got {'id': 'c'}"),
        ("videos: [{id: c, duration_s: 2, fps: 30, width_px: 64, height_px: 48},"
         " {id: c, duration_s: 3, fps: 30, width_px: 64, height_px: 48}]",
         "duplicate video id 'c'"),
        # a video too short for the AOI generator to lay out its occurrences
        ("videos: [{id: v, duration_s: 0.05, fps: 30, width_px: 100, height_px: 100}]",
         "video 'v' has 1 frames, fewer than the 5 its AOI path needs"),
    ])
    def test_bad_spec_section_names_its_key(self, runner, tmp_path, params, message):
        spec = tmp_path / "spec.yaml"
        spec.write_text(f"n_asd: 2\nn_control: 2\n{params}\n", encoding="utf-8")
        r = run(runner, "synth", "--spec", spec, "--seed", 1, "--out", tmp_path / "x")
        assert r.exit_code == EXIT_CONFIG, r.output
        assert f"{spec}: bad cohort spec: {message}" in r.output
        assert not (tmp_path / "x").exists()


class TestFeatures:
    @pytest.mark.parametrize("kind, exit_code", [
        ("logs", EXIT_PIPELINE), ("aoi", EXIT_PIPELINE), ("manifest", EXIT_CONFIG),
    ])
    def test_undecodable_byte_exits_cleanly(
        self, runner, small_cohort_manifest, tmp_path, kind, exit_code
    ):
        manifest = copy_cohort(small_cohort_manifest, tmp_path / "broken")
        if kind == "manifest":
            victim = manifest
        else:
            victim = sorted((tmp_path / "broken" / kind).glob("*.csv"))[0]
        lines = victim.read_bytes().split(b"\n")
        lines[3] = lines[3][:4] + b"\xff" + lines[3][4:]
        victim.write_bytes(b"\n".join(lines))
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == exit_code, r.output
        if kind == "manifest":
            assert f"{victim}: not UTF-8 text" in r.output
        else:
            assert f"{victim.name}:4: invalid UTF-8 byte 0xff" in r.output
        assert "Traceback" not in r.output
        assert isinstance(r.exception, SystemExit)

    @pytest.mark.parametrize("kind", ["logs", "aoi"])
    def test_unreadable_csv_exits_pipeline(self, runner, small_cohort_manifest, tmp_path, kind):
        # a stray quote on line 3 opens a field that runs past csv's size limit
        manifest = copy_cohort(small_cohort_manifest, tmp_path / "broken")
        victim = sorted((tmp_path / "broken" / kind).glob("*.csv"))[0]
        header, *rows = victim.read_text(encoding="utf-8").splitlines()
        rows *= csv.field_size_limit() // len("\n".join(rows)) + 1
        rows[1] = '"' + rows[1]
        victim.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert f"{victim.name}:3: unreadable CSV: field larger than field limit" in r.output
        assert "Traceback" not in r.output
        assert isinstance(r.exception, SystemExit)

    @pytest.mark.parametrize("section", ["participants", "videos"])
    def test_non_ascii_manifest_id_exits_pipeline(
        self, runner, small_cohort_manifest, tmp_path, section
    ):
        # the logs are ASCII; the id the manifest files one under is not
        renamed = {}

        def rename(data):
            old = data[section][0]["id"]
            renamed[old] = data[section][0]["id"] = old + "\u00e9"
            if section == "participants":
                data["gaze_logs"][old + "\u00e9"] = data["gaze_logs"].pop(old)
            else:
                for per_video in data["gaze_logs"].values():
                    per_video[old + "\u00e9"] = per_video.pop(old)
                data["aoi_tracks"][old + "\u00e9"] = data["aoi_tracks"].pop(old)

        manifest = edit_manifest(small_cohort_manifest, tmp_path, rename)
        r = run(runner, "features", "--manifest", manifest, "--mode", "noaoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        [(old, new)] = renamed.items()
        what = "participant" if section == "participants" else "video"
        assert f":2: {what} id {old!r} does not match {new!r}" in r.output
        assert "Traceback" not in r.output

    def test_with_aoi_row_count(self, runner, small_cohort_manifest, tmp_path):
        r = run(runner, "features", "--manifest", small_cohort_manifest,
                "--mode", "aoi", "--out", tmp_path)
        assert r.exit_code == 0, r.output
        lines = (tmp_path / "features.csv").read_text().splitlines()
        assert len(lines) == 1 + 12 * 4  # header + participants x videos
        assert lines[0].startswith("participant_id,video_id,mode,")
        assert all(line.count(",") == 9 for line in lines)

    def test_no_aoi_leaves_aoi_columns_empty(self, runner, small_cohort_manifest, tmp_path):
        r = run(runner, "features", "--manifest", small_cohort_manifest,
                "--mode", "noaoi", "--out", tmp_path)
        assert r.exit_code == 0, r.output
        lines = (tmp_path / "features.csv").read_text().splitlines()
        assert lines[1].endswith(",,,")

    def test_corrupt_log_exits_pipeline(self, runner, small_cohort_manifest, tmp_path):
        src = Path(small_cohort_manifest).parent
        dst = tmp_path / "broken"
        shutil.copytree(src, dst)
        victim = sorted((dst / "logs").glob("*.csv"))[0]
        victim.write_text(victim.read_text().replace(",", ";", 3), encoding="utf-8")
        r = run(runner, "features", "--manifest", dst / "manifest.yaml",
                "--mode", "aoi", "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE

    def test_log_with_too_few_frames_exits_pipeline(self, runner, small_cohort_manifest,
                                                    tmp_path):
        manifest = copy_cohort(small_cohort_manifest, tmp_path / "broken")
        cut_log(tmp_path / "broken" / "logs" / CORRUPT_LOG, 0.05)
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert "ctl_000/car_pursuit: only " in r.stderr
        assert "received a valid sample" in r.stderr
        assert "Traceback" not in r.output

    def test_low_coverage_log_keeps_every_other_row(self, runner, small_cohort_manifest,
                                                    tmp_path):
        r = run(runner, "features", "--manifest", small_cohort_manifest, "--mode", "aoi",
                "--out", tmp_path / "full")
        assert r.exit_code == 0, r.output
        manifest = copy_cohort(small_cohort_manifest, tmp_path / "cut")
        cut_log(tmp_path / "cut" / "logs" / CORRUPT_LOG, 0.35)
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == 0, r.output
        full = (tmp_path / "full" / "features.csv").read_text().splitlines()
        cut = (tmp_path / "out" / "features.csv").read_text().splitlines()
        assert len(cut) == len(full)
        changed = [a for a, b in zip(cut, full) if a != b]
        assert [line.split(",")[:2] for line in changed] == [["ctl_000", "car_pursuit"]]

    def test_negative_timestamp_exits_pipeline(self, runner, small_cohort_manifest, tmp_path):
        manifest = copy_cohort(small_cohort_manifest, tmp_path / "broken")
        victim = sorted((tmp_path / "broken" / "logs").glob("*.csv"))[0]
        header, first, *rest = victim.read_text(encoding="utf-8").splitlines()
        fields = first.split(",")
        fields[2] = "-5.000"
        victim.write_text("\n".join([header, ",".join(fields), *rest]) + "\n", encoding="utf-8")
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert f"{victim.name}:2: negative wall_ts_ms" in r.output
        assert "Traceback" not in r.output

    def test_duplicate_aoi_box_exits_pipeline(self, runner, small_cohort_manifest, tmp_path):
        manifest = copy_cohort(small_cohort_manifest, tmp_path / "broken")
        victim = sorted((tmp_path / "broken" / "aoi").glob("*.csv"))[0]
        lines = victim.read_text(encoding="utf-8").splitlines()
        victim.write_text("\n".join([*lines, lines[1]]) + "\n", encoding="utf-8")
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert f"{victim.name}:{len(lines) + 1}: duplicate box" in r.output
        assert "Traceback" not in r.output

    def test_participant_id_change_exits_pipeline(self, runner, small_cohort_manifest, tmp_path):
        manifest = copy_cohort(small_cohort_manifest, tmp_path / "broken")
        victim = sorted((tmp_path / "broken" / "logs").glob("*.csv"))[0]
        lines = victim.read_text(encoding="utf-8").splitlines()
        pid = lines[1].split(",")[0]
        lines[5] = "intruder" + lines[5][len(pid):]
        victim.write_text("\n".join(lines) + "\n", encoding="utf-8")
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert f"{victim.name}:6: participant id 'intruder' does not match {pid!r}" in r.output
        assert "Traceback" not in r.output

    def test_log_of_another_participant_exits_pipeline(
        self, runner, small_cohort_manifest, tmp_path
    ):
        # every row agrees, but the log is filed under another participant
        manifest = copy_cohort(small_cohort_manifest, tmp_path / "broken")
        victim = sorted((tmp_path / "broken" / "logs").glob("*.csv"))[0]
        header, *rows = victim.read_text(encoding="utf-8").splitlines()
        pid = rows[0].split(",")[0]
        rows = ["stranger" + row[len(pid):] for row in rows]
        victim.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert f"{victim.name}:2: participant id 'stranger' does not match {pid!r}" in r.output
        assert "Traceback" not in r.output

    def test_extracts_each_pair_once(self, runner, small_cohort_manifest, tmp_path, monkeypatch):
        calls = record_stack_passes(monkeypatch)
        r = run(runner, "features", "--manifest", small_cohort_manifest,
                "--mode", "aoi", "--out", tmp_path)
        assert r.exit_code == 0, r.output
        videos = [vid for vid, _ in calls]
        assert len(set(videos)) == len(videos) == 4  # one pass per video
        pairs = [(pid, vid) for vid, pids in calls for pid in pids]
        assert sorted(pairs) == sorted((pid, vid) for pid in SMALL_COHORT_IDS for vid in videos)

    def test_lists_every_broken_pair(self, runner, small_cohort_manifest, tmp_path):
        def edit(data):
            data["gaze_logs"]["asd_000"].pop("car_pursuit")
            data["aoi_tracks"].pop("dialog")

        manifest = edit_manifest(small_cohort_manifest, tmp_path, edit)
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        failed = [line for line in r.output.splitlines() if line.startswith("failed: ")]
        assert failed[0] == (
            "failed: asd_000/car_pursuit: participant asd_000 lacks video car_pursuit"
        )
        assert failed[1:] == [f"failed: {pid}/dialog: no AOI track for video 'dialog'"
                              for pid in SMALL_COHORT_IDS]
        assert "Traceback" not in r.output
        assert not (tmp_path / "out" / "features.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("duration_s", ".nan"), ("duration_s", ".inf"), ("fps", ".nan"), ("fps", ".inf"),
    ])
    def test_non_finite_video_meta_exits_config(
        self, runner, small_cohort_manifest, tmp_path, field, value
    ):
        manifest = edit_manifest(
            small_cohort_manifest, tmp_path,
            lambda data: data["videos"][0].update({field: yaml.safe_load(value)}),
        )
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_CONFIG, r.output
        assert "duration_s and fps must be finite and positive" in r.output
        assert "Traceback" not in r.output

    def test_overflowing_frame_count_exits_config(self, runner, small_cohort_manifest, tmp_path):
        manifest = edit_manifest(
            small_cohort_manifest, tmp_path,
            lambda data: data["videos"][0].update({"duration_s": 1e200, "fps": 1e200}),
        )
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_CONFIG, r.output
        assert "duration_s * fps, the frame count, must be finite" in r.output
        assert "Traceback" not in r.output

    def test_non_finite_feature_exits_pipeline(
        self, runner, small_cohort_manifest, tmp_path, monkeypatch
    ):
        # F5 of every row of a trace or stack is infinite
        monkeypatch.setattr(features, "_first_look_delay",
                            lambda look, *args: np.full(look.shape[1], math.inf))
        r = run(runner, "features", "--manifest", small_cohort_manifest, "--mode", "aoi",
                "--out", tmp_path)
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert "failed: asd_000/car_pursuit: non-finite feature for asd_000/car_pursuit" in r.output
        assert "Traceback" not in r.output
        assert not (tmp_path / "features.csv").exists()

    @pytest.mark.parametrize("section, what", [("videos", "video"), ("participants", "participant")])
    def test_duplicate_manifest_id_exits_config(
        self, runner, small_cohort_manifest, tmp_path, section, what
    ):
        manifest = copy_cohort(small_cohort_manifest, tmp_path / "broken")
        data = yaml.safe_load(manifest.read_text(encoding="utf-8"))
        data[section].append(dict(data[section][0]))
        manifest.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_CONFIG, r.output
        assert f"duplicate {what} id {data[section][0]['id']!r}" in r.output
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(gaze_logs=None), "gaze_logs must be a mapping, got None"),
        (lambda d: d.update(gaze_logs=["x"]), "gaze_logs must be a mapping, got ['x']"),
        (lambda d: d.update(aoi_tracks=None), "aoi_tracks must be a mapping, got None"),
        (lambda d: d.update(aoi_tracks=["x"]), "aoi_tracks must be a mapping, got ['x']"),
        (lambda d: d.update(videos=None), "videos must be a list, got None"),
        (lambda d: d.update(participants=None), "participants must be a list, got None"),
        (lambda d: d["gaze_logs"].update(asd_000=None), "gaze_logs of 'asd_000' must be a mapping"),
        (lambda d: d["gaze_logs"]["asd_000"].update(dialog=5),
         "gaze log asd_000/dialog must be a file path, got 5"),
        (lambda d: d["gaze_logs"]["asd_000"].update(dialog=None),
         "gaze log asd_000/dialog must be a file path, got None"),
        (lambda d: d["aoi_tracks"].update(dialog=5), "AOI track of dialog must be a file path"),
        (lambda d: d["participants"][0].update(cars=33.7), "cars must be a whole number, got 33.7"),
        (lambda d: d["videos"][0].update(width_px=1920.9),
         "width_px must be a whole number, got 1920.9"),
        (lambda d: d["videos"][0].update(width_px=True), "width_px must be a whole number, got True"),
        (lambda d: d["participants"][0].update(cars=True), "cars must be a whole number, got True"),
        (lambda d: d["videos"][0].update(duration_s=10**400), "int too large to convert to float"),
        (lambda d: d["videos"][0].update(width_px=10**400),
         "pixel dimensions must convert to finite floats"),
        (lambda d: d["videos"][0].update(height_px=10**400),
         "pixel dimensions must convert to finite floats"),
    ])
    def test_bad_manifest_shape_exits_config(
        self, runner, small_cohort_manifest, tmp_path, edit, message
    ):
        manifest = edit_manifest(small_cohort_manifest, tmp_path, edit)
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_CONFIG, r.output
        assert f"error: {manifest}: " in r.output
        assert message in r.output
        assert "Traceback" not in r.output
        assert isinstance(r.exception, SystemExit)

    def test_missing_manifest_exits_io(self, runner, tmp_path):
        r = run(runner, "features", "--manifest", tmp_path / "nope.yaml",
                "--mode", "aoi", "--out", tmp_path / "out")
        assert r.exit_code == EXIT_IO


class TestEvaluate:
    def test_outputs_and_determinism(self, runner, small_cohort_manifest, tmp_path):
        results = []
        for d in ("a", "b"):
            r = run(runner, "evaluate", "--manifest", small_cohort_manifest,
                    "--mode", "aoi", "--seed", 5, "--reps", 2,
                    "--out", tmp_path / d)
            assert r.exit_code == 0, r.output
            results.append(dir_bytes(tmp_path / d))
        assert results[0] == results[1]
        lines = (tmp_path / "a" / "cv_folds.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + reps x folds
        assert (tmp_path / "a" / "report.json").exists()

    # sha256 of report.json from `evaluate --reps 20 --seed 11` on the 6 + 6
    # test cohort, recorded before the SMO loop was rewritten
    GOLDEN_REPORT_SHA256 = {
        "aoi": "53e6903d336025d4aa8a05470cbd6e7e2a6e44610eb5b77b79023e29f93a4e2e",
        "noaoi": "8ada7f873b89ee4913bb4af00f5cff505e72a6308873903a13eebcf7e69e1e2d",
    }

    @pytest.mark.parametrize("mode", ["aoi", "noaoi"])
    def test_golden_report(self, runner, small_cohort_manifest, tmp_path, monkeypatch, mode):
        # a relative manifest path, because the report echoes it
        monkeypatch.chdir(Path(small_cohort_manifest).parent)
        r = run(runner, "evaluate", "--manifest", "manifest.yaml", "--mode", mode,
                "--reps", 20, "--seed", 11, "--out", tmp_path)
        assert r.exit_code == 0, r.output
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_REPORT_SHA256[mode]

    # sha256 of report.json from `evaluate --reps 20 --seed 11 --svm-c 2
    # --gamma 0.5 --coef0 1` on the 6 + 6 test cohort, recorded while every
    # fold still built its own kernel. With coef0 != 0 the kernel of a zero
    # padding row is not 0, so a stacked kernel must zero its padding.
    GOLDEN_COEF0_REPORT_SHA256 = {
        "aoi": "423100b1ddd35eba7bc131a4e651303f27df6b3ee40645e0e4314df7f2f0d3ce",
        "noaoi": "8df3ccd3c193124c651fd35cd470f8f5eeffa305ab4e8d3187d89d024e4e159f",
    }

    @pytest.mark.parametrize("mode", ["aoi", "noaoi"])
    def test_golden_report_coef0(self, runner, small_cohort_manifest, tmp_path, monkeypatch,
                                 mode):
        monkeypatch.chdir(Path(small_cohort_manifest).parent)
        r = run(runner, "evaluate", "--manifest", "manifest.yaml", "--mode", mode,
                "--reps", 20, "--seed", 11, "--svm-c", 2, "--gamma", 0.5, "--coef0", 1,
                "--out", tmp_path)
        assert r.exit_code == 0, r.output
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_COEF0_REPORT_SHA256[mode]

    def test_jobs_do_not_change_bytes(self, runner, small_cohort_manifest, tmp_path):
        for d, jobs in (("a", 1), ("b", 3)):
            r = run(runner, "evaluate", "--manifest", small_cohort_manifest,
                    "--mode", "noaoi", "--seed", 6, "--reps", 4,
                    "--jobs", jobs, "--out", tmp_path / d)
            assert r.exit_code == 0, r.output
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_one_video_extracts_it_once_per_participant(
        self, runner, small_cohort_manifest, tmp_path, monkeypatch
    ):
        calls = record_stack_passes(monkeypatch)
        r = run(runner, "evaluate", "--manifest", small_cohort_manifest, "--mode", "aoi",
                "--video", "dialog", "--seed", 1, "--reps", 1, "--out", tmp_path)
        assert r.exit_code == 0, r.output
        assert calls == [("dialog", tuple(SMALL_COHORT_IDS))]

    def test_overflowing_kernel_exits_pipeline(self, runner, small_cohort_manifest, tmp_path):
        # a finite gamma whose cubic kernel overflows would train on inf
        r = run(runner, "evaluate", "--manifest", small_cohort_manifest, "--mode", "aoi",
                "--seed", 1, "--reps", 1, "--gamma", "1e300", "--out", tmp_path)
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert "kernel matrix is not finite" in r.output
        assert "Traceback" not in r.output
        assert not (tmp_path / "report.json").exists()

    def test_unknown_video_exits_config(self, runner, small_cohort_manifest, tmp_path,
                                        monkeypatch):
        opened = record_parsed_files(monkeypatch)
        r = run(runner, "evaluate", "--manifest", small_cohort_manifest,
                "--mode", "aoi", "--video", "ghost", "--seed", 1,
                "--reps", 1, "--out", tmp_path)
        assert r.exit_code == EXIT_CONFIG
        assert "unknown video id 'ghost'" in r.output
        assert opened == []  # checked before any file is parsed

    def test_bad_svm_c_exits_config_before_reading_the_manifest(self, runner, tmp_path):
        r = run(runner, "evaluate", "--manifest", tmp_path / "nope.yaml", "--seed", 1,
                "--svm-c", 0, "--out", tmp_path / "out")
        assert r.exit_code == EXIT_CONFIG, r.output
        assert "C must be finite" in r.output
        assert not (tmp_path / "out").exists()

    def test_unwritable_out_exits_io(self, runner, small_cohort_manifest, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        r = run(runner, "evaluate", "--manifest", small_cohort_manifest,
                "--mode", "aoi", "--seed", 1, "--reps", 1,
                "--out", blocker / "sub")
        assert r.exit_code == EXIT_IO


class TestDurationCurve:
    # sha256 of report.json from `duration-curve --durations 1.5,3,6,12
    # --reps 5 --seed 11` on the 6 + 6 test cohort, recorded before window
    # features were computed in one batch per video; it must not move.
    GOLDEN_REPORT_SHA256 = {
        "aoi": "3c11a1d8cf24945d8b006a2f8647c454cfde45c96b995fb1bd44219016ed7e2d",
        "noaoi": "cea9c82460c6697585c6a0c9dc064075001697cc52227ea7949b9647fd071530",
    }

    @pytest.mark.parametrize("mode", ["aoi", "noaoi"])
    def test_golden_report(self, runner, small_cohort_manifest, tmp_path, monkeypatch, mode):
        # a relative manifest path, because the report echoes it
        monkeypatch.chdir(Path(small_cohort_manifest).parent)
        r = run(runner, "duration-curve", "--manifest", "manifest.yaml", "--mode", mode,
                "--durations", "1.5,3,6,12", "--reps", 5, "--seed", 11, "--out", tmp_path)
        assert r.exit_code == 0, r.output
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_REPORT_SHA256[mode]

    @pytest.mark.parametrize("mode", ["aoi", "noaoi"])
    def test_missing_gaze_log_fails_before_any_draw(
        self, runner, small_cohort_manifest, tmp_path, monkeypatch, mode
    ):
        manifest = edit_manifest(
            small_cohort_manifest, tmp_path,
            lambda data: data["gaze_logs"]["asd_000"].pop("car_pursuit"),
        )
        draws, tables = [], []
        monkeypatch.setattr(experiments, "extract_batch", lambda *a: draws.append(a))
        monkeypatch.setattr(experiments, "VideoTable", lambda *a: tables.append(a))
        r = run(runner, "duration-curve", "--manifest", manifest, "--mode", mode,
                "--durations", "3", "--seed", 2, "--reps", 1, "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert "participant asd_000 lacks video car_pursuit" in r.output
        assert "Traceback" not in r.output
        assert not draws
        assert not tables

    def test_video_without_aoi_track_fails_before_any_draw(
        self, runner, small_cohort_manifest, tmp_path
    ):
        manifest = edit_manifest(
            small_cohort_manifest, tmp_path, lambda data: data["aoi_tracks"].pop("dialog"),
        )
        r = run(runner, "duration-curve", "--manifest", manifest, "--mode", "aoi",
                "--durations", "3", "--seed", 2, "--reps", 1, "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert "no AOI track for video 'dialog'" in r.output
        assert "Traceback" not in r.output
        assert not (tmp_path / "out" / "report.json").exists()
        # without AOI features the track is not needed
        r = run(runner, "duration-curve", "--manifest", manifest, "--mode", "noaoi",
                "--durations", "3", "--seed", 2, "--reps", 1, "--out", tmp_path / "out")
        assert r.exit_code == 0, r.output

    def test_short_run(self, runner, small_cohort_manifest, tmp_path):
        r = run(runner, "duration-curve", "--manifest", small_cohort_manifest,
                "--mode", "aoi", "--durations", "3,6", "--seed", 2,
                "--reps", 2, "--out", tmp_path)
        assert r.exit_code == 0, r.output
        lines = (tmp_path / "duration_curve.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "duration_s,mean_acc,std_acc,n_runs"

    def test_duration_exceeding_video_exits_config(self, runner, small_cohort_manifest, tmp_path):
        r = run(runner, "duration-curve", "--manifest", small_cohort_manifest,
                "--mode", "aoi", "--durations", "30", "--seed", 2,
                "--reps", 1, "--out", tmp_path)
        assert r.exit_code == EXIT_CONFIG

    def test_malformed_durations(self, runner, small_cohort_manifest, tmp_path):
        r = run(runner, "duration-curve", "--manifest", small_cohort_manifest,
                "--mode", "aoi", "--durations", "3,x", "--seed", 2,
                "--reps", 1, "--out", tmp_path)
        assert r.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("durations", ["0.01", "1e-300", "3,0.05"])
    def test_duration_too_short_for_f2_exits_config_before_any_draw(
        self, runner, small_cohort_manifest, tmp_path, monkeypatch, durations
    ):
        draws, tables = [], []
        monkeypatch.setattr(experiments, "extract_batch", lambda *a: draws.append(a))
        monkeypatch.setattr(experiments, "VideoTable", lambda *a: tables.append(a))
        r = run(runner, "duration-curve", "--manifest", small_cohort_manifest,
                "--mode", "noaoi", "--durations", durations, "--seed", 2,
                "--reps", 1, "--out", tmp_path)
        assert r.exit_code == EXIT_CONFIG, r.output
        assert "holds at most 2 frames of 'car_pursuit' (30 fps); F2 needs 3" in r.output
        assert "Traceback" not in r.output
        assert not draws
        assert not tables

    @pytest.mark.parametrize("durations", ["0", "-3", "nan", "inf"])
    def test_non_positive_or_non_finite_duration_exits_config(
        self, runner, small_cohort_manifest, tmp_path, durations
    ):
        r = run(runner, "duration-curve", "--manifest", small_cohort_manifest,
                "--mode", "aoi", "--durations", durations, "--seed", 2,
                "--reps", 1, "--out", tmp_path)
        assert r.exit_code == EXIT_CONFIG, r.output
        assert "Traceback" not in r.output


BAD_ARGUMENTS = [
    ("evaluate", "--reps", "0"),
    ("evaluate", "--reps", "-2"),
    ("evaluate", "--svm-c", "-1"),
    ("evaluate", "--svm-c", "0"),
    ("evaluate", "--svm-c", "nan"),
    ("evaluate", "--svm-c", "inf"),
    ("evaluate", "--svm-c", "1e-12"),
    ("evaluate", "--gamma", "nan"),
    ("evaluate", "--gamma", "0"),
    ("evaluate", "--gamma", "-0.5"),
    ("evaluate", "--gamma", "inf"),
    ("evaluate", "--coef0", "nan"),
    ("evaluate", "--coef0", "-inf"),
    ("evaluate", "--jobs", "0"),
    ("evaluate", "--jobs", "-1"),
    ("duration-curve", "--reps", "0"),
    ("duration-curve", "--svm-c", "nan"),
    ("duration-curve", "--svm-c", "1e-12"),
    ("duration-curve", "--jobs", "0"),
    # derive_rng keys its streams by 32 bits: any other seed would alias one
    *((command, "--seed", seed)
      for command in ("synth", "evaluate", "duration-curve", "severity")
      for seed in ("-1", "4294967296")),
]


def command_args(command, manifest, tmp_path):
    """Arguments, without --out, of a short run of ``command`` that
    succeeds on the cohort of ``manifest``."""
    if command == "synth":
        spec = tmp_path / "spec.yaml"
        spec.write_text("n_asd: 3\nn_control: 3\n", encoding="utf-8")
        return ["--spec", spec, "--seed", 1]
    args = ["--manifest", manifest, "--mode", "noaoi", "--seed", 1]
    if command in ("evaluate", "duration-curve"):
        args += ["--reps", 1]
    if command == "duration-curve":
        args += ["--durations", 3]
    return args


@pytest.mark.parametrize("command, flag, value", BAD_ARGUMENTS)
def test_bad_argument_exits_config(runner, small_cohort_manifest, tmp_path, command, flag, value):
    out = tmp_path / "out"
    r = run(runner, command, *command_args(command, small_cohort_manifest, tmp_path),
            flag, value, "--out", out)
    assert r.exit_code == EXIT_CONFIG, r.output
    assert "Usage:" not in r.output  # the value was rejected, not the option
    assert "Traceback" not in r.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["synth", "evaluate", "duration-curve", "severity"])
def test_largest_seed_is_accepted(runner, small_cohort_manifest, tmp_path, command):
    out = tmp_path / "out"
    r = run(runner, command, *command_args(command, small_cohort_manifest, tmp_path),
            "--seed", 2**32 - 1, "--out", out)
    assert r.exit_code == 0, r.output
    if command == "synth":
        config = yaml.safe_load((out / "generator_config.yaml").read_text(encoding="utf-8"))
    else:
        config = json.loads((out / "report.json").read_text(encoding="utf-8"))["run_config"]
    assert config["seed"] == 2**32 - 1


class TestSeverity:
    def test_runs_on_small_cohort(self, runner, small_cohort_manifest, tmp_path):
        r = run(runner, "severity", "--manifest", small_cohort_manifest,
                "--mode", "aoi", "--seed", 4, "--out", tmp_path)
        assert r.exit_code == 0, r.output
        lines = (tmp_path / "severity_loocv.csv").read_text().splitlines()
        assert lines[0] == "participant_id,true_cars,predicted_cars,abs_err"
        assert len(lines) == 1 + 6  # six scored participants

    @pytest.mark.parametrize("flag, value", [
        ("--mlp-max-epochs", "0"),
        ("--mlp-max-epochs", "-3"),
        ("--mlp-lr", "0"),
        ("--mlp-lr", "-1"),
        ("--mlp-lr", "nan"),
        ("--mlp-lr", "inf"),
    ])
    def test_bad_mlp_argument_exits_config(self, runner, small_cohort_manifest, tmp_path, flag, value):
        r = run(runner, "severity", "--manifest", small_cohort_manifest,
                "--mode", "aoi", "--seed", 4, flag, value, "--out", tmp_path)
        assert r.exit_code == EXIT_CONFIG, r.output
        assert "Traceback" not in r.output
        assert not (tmp_path / "severity_loocv.csv").exists()

    # sha256 of report.json and severity_loocv.csv from `severity --seed 11`
    # on the 6 + 6 test cohort, recorded before MLP training kept its
    # parameters in one flat vector; they must not move.
    GOLDEN_SHA256 = {
        "aoi": {
            "report.json": "a48af45b89c3a106e20fadb945a0de6b8c2997ca2f61a8a80eba6cc410167a31",
            "severity_loocv.csv": "f0070dc93f102d59ce890a388b05ff88e5d5b9ab77fd9ebd3d4f8eff9c65e08e",
        },
        "noaoi": {
            "report.json": "c3bd7074b2d73125426a5db605537a797f11520a0ba916ce4db7bf5bd1b9ba76",
            "severity_loocv.csv": "9ecefebad15bb9cfee40c4030362a037654ce25ec912cee33e9b3665dc309d93",
        },
    }

    @pytest.mark.parametrize("mode", ["aoi", "noaoi"])
    def test_golden_report(self, runner, small_cohort_manifest, tmp_path, monkeypatch, mode):
        # a relative manifest path, because the report echoes it
        monkeypatch.chdir(Path(small_cohort_manifest).parent)
        r = run(runner, "severity", "--manifest", "manifest.yaml", "--mode", mode,
                "--seed", 11, "--out", tmp_path)
        assert r.exit_code == 0, r.output
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN_SHA256[mode]}
        assert digests == self.GOLDEN_SHA256[mode]

    def test_divergence_exits_pipeline_quietly(self, small_cohort_manifest, tmp_path):
        # a fresh interpreter, so numpy's warnings reach stderr as a user sees them
        r = subprocess.run(
            [sys.executable, "-m", "gazescreen.cli", "severity", "--manifest",
             str(small_cohort_manifest), "--mode", "aoi", "--seed", "4",
             "--mlp-lr", "1e300", "--out", str(tmp_path)],
            env=fresh_env(), capture_output=True, text=True, timeout=120)
        output = r.stdout + r.stderr
        assert r.returncode == EXIT_PIPELINE, output
        assert "error: loss became" in output
        assert "RuntimeWarning" not in output
        assert "Traceback" not in output
        assert not (tmp_path / "severity_loocv.csv").exists()

    def test_too_few_scored_exits_config(self, runner, tmp_path, monkeypatch):
        spec = tmp_path / "spec.yaml"
        spec.write_text("n_asd: 1\nn_control: 3\n", encoding="utf-8")
        r = run(runner, "synth", "--spec", spec, "--seed", 1, "--out", tmp_path / "c")
        assert r.exit_code == 0, r.output
        opened = record_parsed_files(monkeypatch)
        r = run(runner, "severity", "--manifest", tmp_path / "c" / "manifest.yaml",
                "--mode", "aoi", "--seed", 1, "--out", tmp_path / "o")
        assert r.exit_code == EXIT_CONFIG
        assert "need >= 3 scored participants, have 1" in r.output
        assert not (tmp_path / "o" / "severity_loocv.csv").exists()
        assert opened == []  # the rule is checked before any log is opened


class TestSelection:
    """A command parses only the files its protocol reads, so a broken file
    outside them does not fail it; inside them every check still holds."""

    # severity's AOI features read every AOI track, so only its noaoi run
    # also gets the broken track
    @pytest.mark.parametrize("mode, broken_aoi", [("aoi", False), ("noaoi", True)])
    def test_severity_reads_no_control_log(self, runner, small_cohort_manifest, tmp_path,
                                           monkeypatch, mode, broken_aoi):
        manifest = corrupt_cohort(small_cohort_manifest, tmp_path / "broken", log=True,
                                  aoi=broken_aoi)
        monkeypatch.chdir(manifest.parent)
        opened = record_parsed_files(monkeypatch)
        r = run(runner, "severity", "--manifest", "manifest.yaml", "--mode", mode,
                "--seed", 11, "--out", tmp_path / "out")
        assert r.exit_code == 0, r.output
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in TestSeverity.GOLDEN_SHA256[mode]}
        assert digests == TestSeverity.GOLDEN_SHA256[mode]
        assert opened and not any(name.startswith("ctl_") for name in opened)

    @pytest.mark.parametrize("command, args", [
        ("evaluate", ["--reps", 2]),
        ("duration-curve", ["--durations", "3,6", "--reps", 2]),
    ])
    def test_noaoi_run_reads_no_aoi_track(self, runner, small_cohort_manifest, tmp_path,
                                          monkeypatch, command, args):
        manifest = corrupt_cohort(small_cohort_manifest, tmp_path / "broken", aoi=True)
        for cohort, out in ((Path(small_cohort_manifest).parent, "out-intact"),
                            (manifest.parent, "out-broken")):
            monkeypatch.chdir(cohort)
            r = run(runner, command, "--manifest", "manifest.yaml", "--mode", "noaoi",
                    "--seed", 5, *args, "--out", tmp_path / out)
            assert r.exit_code == 0, r.output
        assert dir_bytes(tmp_path / "out-broken") == dir_bytes(tmp_path / "out-intact")

    def test_noaoi_features_read_no_aoi_track(self, runner, small_cohort_manifest, tmp_path):
        manifest = corrupt_cohort(small_cohort_manifest, tmp_path / "broken", aoi=True)
        for cohort, out in ((Path(small_cohort_manifest).parent, "out-intact"),
                            (manifest.parent, "out-broken")):
            r = run(runner, "features", "--manifest", cohort / "manifest.yaml",
                    "--mode", "noaoi", "--out", tmp_path / out)
            assert r.exit_code == 0, r.output
        assert dir_bytes(tmp_path / "out-broken") == dir_bytes(tmp_path / "out-intact")
        r = run(runner, "features", "--manifest", manifest, "--mode", "aoi",
                "--out", tmp_path / "out-aoi")
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert f"{CORRUPT_AOI}:3: bad x_min_px: 'oops'" in r.output

    @pytest.mark.parametrize("command, args", [
        ("evaluate", ["--reps", 2]),
        ("duration-curve", ["--durations", "3,6", "--reps", 2]),
    ])
    def test_too_few_per_class_opens_no_log(self, runner, tmp_path, monkeypatch, command, args):
        spec = tmp_path / "spec.yaml"
        spec.write_text("n_asd: 2\nn_control: 3\n", encoding="utf-8")
        r = run(runner, "synth", "--spec", spec, "--seed", 1, "--out", tmp_path / "c")
        assert r.exit_code == 0, r.output
        opened = record_parsed_files(monkeypatch)
        r = run(runner, command, "--manifest", tmp_path / "c" / "manifest.yaml", "--seed", 1,
                *args, "--out", tmp_path / "o")
        assert r.exit_code == EXIT_CONFIG, r.output
        assert "error: class 1 has 2 members, need >= 3" in r.output
        assert opened == []  # the rule is checked before any log is opened

    @pytest.mark.parametrize("removed, command, args, code, message", [
        (None, "duration-curve", ["--durations", 100], EXIT_CONFIG,
         "100.0s exceeds shortest video"),
        (None, "duration-curve", ["--durations", 0.01], EXIT_CONFIG,
         "F2 needs 3"),
        ("log", "evaluate", [], EXIT_PIPELINE, "participant asd_000 lacks video car_pursuit"),
        ("log", "duration-curve", ["--durations", 3], EXIT_PIPELINE,
         "participant asd_000 lacks video car_pursuit"),
        ("log", "severity", [], EXIT_PIPELINE, "participant asd_000 lacks video car_pursuit"),
        ("aoi", "evaluate", [], EXIT_PIPELINE, "no AOI track for video 'dialog'"),
        ("aoi", "duration-curve", ["--durations", 3], EXIT_PIPELINE,
         "no AOI track for video 'dialog'"),
        ("aoi", "severity", [], EXIT_PIPELINE, "no AOI track for video 'dialog'"),
    ], ids=["too-long", "too-short", "missing-log-evaluate",
            "missing-log-duration-curve", "missing-log-severity", "missing-aoi-evaluate",
            "missing-aoi-duration-curve", "missing-aoi-severity"])
    def test_manifest_rule_opens_no_file(self, runner, small_cohort_manifest, tmp_path,
                                         monkeypatch, removed, command, args, code,
                                         message):
        # (an unknown --video is test_unknown_video_exits_config)
        manifest = small_cohort_manifest
        if removed == "log":
            manifest = edit_manifest(
                manifest, tmp_path, lambda data: data["gaze_logs"]["asd_000"].pop("car_pursuit"))
        elif removed == "aoi":
            manifest = edit_manifest(
                manifest, tmp_path, lambda data: data["aoi_tracks"].pop("dialog"))
        reps = [] if command == "severity" else ["--reps", 1]
        opened = record_parsed_files(monkeypatch)
        r = run(runner, command, "--manifest", manifest, "--seed", 1, *reps, *args,
                "--out", tmp_path / "out")
        assert r.exit_code == code, r.output
        assert message in r.output
        assert "Traceback" not in r.output
        assert opened == []  # the rule is checked before any file is opened

    def test_bad_duration_beats_a_broken_log(self, runner, small_cohort_manifest, tmp_path,
                                             monkeypatch):
        # the duration rules read only the manifest, so they fail first: exit 2, not 4
        manifest = corrupt_cohort(small_cohort_manifest, tmp_path / "broken", log=True)
        opened = record_parsed_files(monkeypatch)
        r = run(runner, "duration-curve", "--manifest", manifest, "--durations", 100,
                "--seed", 1, "--reps", 1, "--out", tmp_path / "out")
        assert r.exit_code == EXIT_CONFIG, r.output
        assert "100.0s exceeds shortest video" in r.output
        assert opened == []

    @pytest.mark.parametrize("command, args", [
        ("evaluate", ["--reps", 1]),
        ("duration-curve", ["--durations", 3, "--reps", 1]),
    ], ids=["evaluate", "duration-curve"])
    def test_missing_log_beats_a_broken_log(self, runner, small_cohort_manifest, tmp_path,
                                            command, args):
        # a log the manifest does not declare is found from the manifest, before the
        # broken log of another viewer is parsed
        manifest = corrupt_cohort(small_cohort_manifest, tmp_path / "broken", log=True)
        data = yaml.safe_load(manifest.read_text(encoding="utf-8"))
        data["gaze_logs"]["asd_005"].pop("dialog")
        manifest.write_text(yaml.safe_dump(data), encoding="utf-8")
        r = run(runner, command, "--manifest", manifest, "--seed", 1, *args,
                "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert "participant asd_005 lacks video dialog" in r.output
        assert "oops" not in r.output

    def test_aoi_run_fails_on_the_broken_aoi_track(self, runner, small_cohort_manifest,
                                                   tmp_path):
        manifest = corrupt_cohort(small_cohort_manifest, tmp_path / "broken", aoi=True)
        r = run(runner, "evaluate", "--manifest", manifest, "--mode", "aoi", "--seed", 5,
                "--reps", 1, "--out", tmp_path / "out")
        assert r.exit_code == EXIT_PIPELINE, r.output
        assert f"{CORRUPT_AOI}:3: bad x_min_px: 'oops'" in r.output

    @pytest.mark.parametrize("video, fails", [("all", True), ("car_pursuit", True),
                                              ("dialog", False)])
    def test_evaluate_reads_the_logs_of_its_videos(self, runner, small_cohort_manifest,
                                                   tmp_path, monkeypatch, video, fails):
        manifest = corrupt_cohort(small_cohort_manifest, tmp_path / "broken", log=True)

        def evaluate(cohort, out):
            monkeypatch.chdir(cohort)
            return run(runner, "evaluate", "--manifest", "manifest.yaml", "--video", video,
                       "--seed", 5, "--reps", 2, "--out", tmp_path / out)

        r = evaluate(manifest.parent, "out-broken")
        if fails:
            assert r.exit_code == EXIT_PIPELINE, r.output
            assert f"{CORRUPT_LOG}:3: bad video_ts_ms: 'oops'" in r.output
        else:
            assert r.exit_code == 0, r.output
            assert evaluate(Path(small_cohort_manifest).parent, "out-intact").exit_code == 0
            assert dir_bytes(tmp_path / "out-broken") == dir_bytes(tmp_path / "out-intact")


def test_cv_commands_share_their_options():
    def options(command):
        return {p.name: (p.opts, p.type, p.default, p.help)
                for p in main.commands[command].params}

    evaluate, curve = options("evaluate"), options("duration-curve")
    shared = evaluate.keys() & curve.keys()
    assert shared == {"manifest", "mode", "seed", "reps", "svm_c", "gamma", "coef0", "jobs", "out"}
    for name in shared:
        assert evaluate[name] == curve[name], name


def test_cli_import_loads_every_module():
    # a module that the CLI does not import is code no command can reach
    code = (
        "import pkgutil, sys, gazescreen, gazescreen.cli\n"
        "print(' '.join(m.name for m in pkgutil.iter_modules(gazescreen.__path__)\n"
        "               if 'gazescreen.' + m.name not in sys.modules))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                       text=True, timeout=60, check=True)
    assert r.stdout.split() == []


def test_synth_import_leaves_the_learning_stack_unloaded():
    code = "import sys, gazescreen.synth; print('gazescreen.learn' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                       text=True, timeout=60, check=True)
    assert r.stdout.split() == ["False"]


# runs the command named by its arguments, then prints whether numpy.ma was loaded
REPORT_MASKED_IMPORT = (
    "import sys\n"
    "from gazescreen.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "except SystemExit as e:\n"
    "    if e.code:\n"
    "        raise\n"
    "print('numpy.ma' in sys.modules)\n"
)


def test_commands_do_not_import_numpy_ma(small_cohort_manifest, tmp_path):
    # np.unique imports all of numpy.ma on numpy >= 2, a fixed cost of about
    # 16 ms per process that a short run pays in full
    r = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules, numpy.__version__)"],
        env=fresh_env(), capture_output=True, text=True, timeout=60, check=True)
    eager, version = r.stdout.split()
    if eager == "True":
        pytest.skip(f"numpy {version} imports numpy.ma with numpy itself")
    spec = tmp_path / "spec.yaml"
    spec.write_text("n_asd: 6\nn_control: 6\n", encoding="utf-8")
    cohort = ["--manifest", small_cohort_manifest, "--mode", "aoi"]
    commands = {
        "synth": ["--spec", spec, "--seed", 11],
        "features": cohort,
        "evaluate": cohort + ["--reps", 1, "--seed", 1],
        "duration-curve": cohort + ["--durations", 3, "--reps", 1, "--seed", 1],
        "severity": cohort + ["--seed", 1],
    }
    for command, args in commands.items():
        argv = [command, *map(str, args), "--out", str(tmp_path / command)]
        r = subprocess.run([sys.executable, "-c", REPORT_MASKED_IMPORT, *argv],
                           env=fresh_env(), capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, (command, r.stderr)
        assert r.stdout.splitlines()[-1] == "False", command
