import numpy as np
import pytest

from gazescreen.core import GazeSample, GazeTrace, VideoMeta
from gazescreen.errors import (
    ConfigError,
    DegenerateBox,
    EmptyLog,
    FrameOutOfRange,
    MalformedRow,
    NonMonotonicTimestamp,
    RateMismatch,
)
from gazescreen.ingest import (
    AOI_HEADER,
    GAZE_HEADER,
    align,
    load_manifest,
    parse_aoi_track,
    parse_gaze_log,
)

from . import oracles

META = VideoMeta("v", 3.0, 30.0, 1000, 1000)


def write_gaze(path, rows):
    lines = [",".join(GAZE_HEADER)]
    lines += [",".join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_aoi(path, rows):
    lines = [",".join(AOI_HEADER)]
    lines += [",".join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestParseGazeLog:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "g.csv"
        write_gaze(p, [
            ("p1", "v", 0.0, 0.0, 500, 500, 1),
            ("p1", "v", 16.7, 16.7, 510, 505, 1),
            ("p1", "v", 33.3, 33.3, 520, 510, 1),
        ])
        trace = parse_gaze_log(p, META)
        assert trace.participant_id == "p1"
        assert len(trace.samples) == 3
        assert trace.samples[0].x == 0.5

    def test_offscreen_row_kept_invalid(self, tmp_path):
        p = tmp_path / "g.csv"
        write_gaze(p, [
            ("p1", "v", 0.0, 0.0, -50, 500, 1),
            ("p1", "v", 16.7, 16.7, 510, 505, 1),
        ])
        trace = parse_gaze_log(p, META)
        assert not trace.samples[0].valid
        assert trace.samples[1].valid

    def test_tracker_invalid_flag(self, tmp_path):
        p = tmp_path / "g.csv"
        write_gaze(p, [("p1", "v", 0.0, 0.0, 500, 500, 0)])
        assert not parse_gaze_log(p, META).samples[0].valid

    def test_non_monotonic_reports_line(self, tmp_path):
        p = tmp_path / "g.csv"
        rows = [("p1", "v", 16.7 * i, 16.7 * i, 500, 500, 1) for i in range(6)]
        rows.append(("p1", "v", 10.0, 100.0, 500, 500, 1))  # line 8 in file
        write_gaze(p, rows)
        with pytest.raises(NonMonotonicTimestamp) as exc:
            parse_gaze_log(p, META)
        assert exc.value.line_no == 8

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "g.csv"
        write_gaze(p, [("p1", "v", 0.0, 0.0, "oops", 500, 1)])
        with pytest.raises(MalformedRow) as exc:
            parse_gaze_log(p, META)
        assert exc.value.line_no == 2

    def test_empty_log(self, tmp_path):
        p = tmp_path / "g.csv"
        write_gaze(p, [])
        with pytest.raises(EmptyLog):
            parse_gaze_log(p, META)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            parse_gaze_log(p, META)


class TestParseAoi:
    def test_scaling(self, tmp_path):
        p = tmp_path / "a.csv"
        write_aoi(p, [("v", 0, "obj", 100, 100, 200, 200)])
        track = parse_aoi_track(p, META)
        b = track.boxes[0]
        assert (b.x_min, b.y_min, b.x_max, b.y_max) == (0.1, 0.1, 0.2, 0.2)

    def test_empty_track_is_legal(self, tmp_path):
        p = tmp_path / "a.csv"
        write_aoi(p, [])
        assert parse_aoi_track(p, META).boxes == ()

    def test_degenerate_box(self, tmp_path):
        p = tmp_path / "a.csv"
        write_aoi(p, [("v", 0, "obj", 100, 100, 100, 200)])
        with pytest.raises(DegenerateBox):
            parse_aoi_track(p, META)

    def test_frame_out_of_range(self, tmp_path):
        p = tmp_path / "a.csv"
        write_aoi(p, [("v", 90, "obj", 100, 100, 200, 200)])  # 3 s * 30 fps = 90 frames
        with pytest.raises(FrameOutOfRange):
            parse_aoi_track(p, META)


def make_trace(valid_fn, duration_s=3.0, rate=60.0, pause=None):
    """60 Hz trace; ``valid_fn(t)`` decides validity; ``pause`` is an
    optional (start_s, dur_s) wall interval during which video time
    freezes (after the first 0.5 s)."""
    samples = []
    video = 0.0
    dt = 1.0 / rate
    wall = 0.0
    k = 0
    while video < duration_s - 1e-9:
        t = video
        valid = bool(valid_fn(t))
        samples.append(
            GazeSample(wall * 1000, video * 1000, 0.5 if valid else -0.1, 0.5, valid)
        )
        wall += dt
        video += dt
        k += 1
    return GazeTrace("p", "v", tuple(samples))


class TestAlign:
    def test_oversampled_all_valid(self):
        trace = make_trace(lambda t: True)
        at = align(trace, META)
        assert at.present.all()
        assert not at.gap.any()

    def test_one_second_offscreen_run(self):
        # valid samples everywhere except video time [1.0, 2.0)
        trace = make_trace(lambda t: not (1.0 <= t < 2.0))
        at = align(trace, META)
        # frame 30 (t=1.0) still catches the valid sample at t=59/60,
        # exactly half a frame period away; frames 31..59 are absent
        assert at.present[30]
        assert not at.present[31:60].any()
        assert at.present[60]
        # every frame following an absent frame is gap-flagged
        assert at.gap[32:61].all()
        assert not at.gap[:31].any()

    def test_empty_valid_set(self):
        trace = make_trace(lambda t: False)
        with pytest.raises(RateMismatch):
            align(trace, META)

    def test_pause_sets_gap_flag(self):
        # valid throughout, but a 2 s wall-clock stall between two samples
        samples = []
        wall = 0.0
        for k in range(180):
            video = k / 60.0
            samples.append(GazeSample(wall * 1000, video * 1000, 0.5, 0.5, True))
            wall += 1.0 / 60.0
            if k == 89:
                wall += 2.0  # pause: wall advances, video does not
        trace = GazeTrace("p", "v", tuple(samples))
        at = align(trace, META)
        assert at.present.all()
        assert at.gap.sum() == 1
        assert at.gap[45]  # frame at the sample following the stall

    def test_deterministic(self):
        trace = make_trace(lambda t: t % 0.5 < 0.4)
        a1 = align(trace, META)
        a2 = align(trace, META)
        assert np.array_equal(a1.present, a2.present)
        assert np.array_equal(a1.gap, a2.gap)
        assert np.array_equal(a1.x, a2.x, equal_nan=True)

    def test_video_id_mismatch(self):
        trace = make_trace(lambda t: True)
        with pytest.raises(ConfigError):
            align(trace, VideoMeta("other", 3.0, 30.0, 1000, 1000))

    def test_gap_flags_monotone_under_sample_removal(self):
        rng = np.random.default_rng(5)
        base = make_trace(lambda t: True)
        at_full = align(base, META)
        for _ in range(10):
            keep = rng.random(len(base.samples)) > 0.2
            samples = tuple(s for s, k in zip(base.samples, keep) if k)
            at_sub = align(GazeTrace("p", "v", samples), META)
            assert np.all(at_sub.gap | ~at_full.gap)  # gap set only grows

    def test_gap_flags_match_loop_oracle(self):
        # 60 Hz traces with invalid runs and wall-clock stalls of 0.1-2 s,
        # on both sides of the 2/fps + 0.5 s spread threshold
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(40):
            samples = []
            wall = video = 0.0
            valid = True
            while video < META.duration_s:
                if rng.random() < 0.05:
                    valid = not valid
                samples.append(GazeSample(wall * 1000, video * 1000, 0.5, 0.5, valid))
                wall += 1.0 / 60.0
                if rng.random() < 0.03:
                    wall += float(rng.uniform(0.1, 2.0))  # pause: video does not advance
                else:
                    video += 1.0 / 60.0
            try:
                at = align(GazeTrace("p", "v", tuple(samples)), META)
            except RateMismatch:
                continue
            expected = oracles.oracle_gap(at.present, at.wall_s, at.fps)
            assert at.gap.tolist() == expected
            checked += 1
        assert checked >= 20


class TestManifest:
    def test_load_and_paths(self, tmp_path):
        (tmp_path / "m.yaml").write_text(
            """
videos:
  - {id: v, duration_s: 3.0, fps: 30.0, width_px: 1000, height_px: 1000}
participants:
  - {id: p1, group: ASD, cars: 33}
  - {id: p2, group: CONTROL}
gaze_logs:
  p1: {v: logs/p1.csv}
  p2: {v: logs/p2.csv}
aoi_tracks:
  v: aoi/v.csv
""",
            encoding="utf-8",
        )
        m = load_manifest(tmp_path / "m.yaml")
        assert m.video_order == ("v",)
        assert m.gaze_log_paths[("p1", "v")] == tmp_path / "logs/p1.csv"
        assert m.aoi_paths["v"] == tmp_path / "aoi/v.csv"

    def test_unknown_participant_reference(self, tmp_path):
        (tmp_path / "m.yaml").write_text(
            """
videos:
  - {id: v, duration_s: 3.0, fps: 30.0, width_px: 1000, height_px: 1000}
participants:
  - {id: p1, group: ASD}
gaze_logs:
  ghost: {v: logs/g.csv}
""",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError):
            load_manifest(tmp_path / "m.yaml")

    def test_no_videos(self, tmp_path):
        (tmp_path / "m.yaml").write_text("participants: []\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_manifest(tmp_path / "m.yaml")
