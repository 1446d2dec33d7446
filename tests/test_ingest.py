import csv
import dataclasses
import io
import warnings

import numpy as np
import pytest
import yaml

from gazescreen import ingest
from gazescreen.core import VideoMeta
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
    TraceStack,
    align,
    load_manifest,
    parse_aoi_track,
    parse_gaze_log,
)

from . import oracles
from .conftest import align_alone, gaze_trace

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
        assert len(trace.wall_ts) == 3
        assert trace.x[0] == 0.5

    def test_offscreen_row_kept_invalid(self, tmp_path):
        p = tmp_path / "g.csv"
        write_gaze(p, [
            ("p1", "v", 0.0, 0.0, -50, 500, 1),
            ("p1", "v", 16.7, 16.7, 510, 505, 1),
        ])
        trace = parse_gaze_log(p, META)
        assert trace.valid.tolist() == [False, True]

    def test_tracker_invalid_flag(self, tmp_path):
        p = tmp_path / "g.csv"
        write_gaze(p, [("p1", "v", 0.0, 0.0, 500, 500, 0)])
        assert parse_gaze_log(p, META).valid.tolist() == [False]

    def test_non_monotonic_reports_line(self, tmp_path):
        p = tmp_path / "g.csv"
        rows = [("p1", "v", 16.7 * i, 16.7 * i, 500, 500, 1) for i in range(6)]
        rows.append(("p1", "v", 10.0, 100.0, 500, 500, 1))  # line 8 in file
        write_gaze(p, rows)
        with pytest.raises(NonMonotonicTimestamp) as exc:
            parse_gaze_log(p, META)
        assert exc.value.line_no == 8

    def test_video_ts_decrease_reports_line(self, tmp_path):
        p = tmp_path / "g.csv"
        write_gaze(p, [
            ("p1", "v", 0.0, 10.0, 500, 500, 1),
            ("p1", "v", 10.0, 5.0, 500, 500, 1),
        ])
        with pytest.raises(MalformedRow, match="video_ts_ms decreases") as exc:
            parse_gaze_log(p, META)
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("column, row", [
        ("wall_ts_ms", ("p1", "v", -5.0, 0.0, 500, 500, 1)),
        ("video_ts_ms", ("p1", "v", 0.0, -5.0, 500, 500, 1)),
    ])
    def test_negative_timestamp_reports_line(self, tmp_path, column, row):
        p = tmp_path / "g.csv"
        write_gaze(p, [row, ("p1", "v", 16.7, 16.7, 500, 500, 1)])
        with pytest.raises(MalformedRow, match=f"negative {column}") as exc:
            parse_gaze_log(p, META)
        assert exc.value.line_no == 2

    def test_blank_rows_count_towards_line_numbers(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(
            ",".join(GAZE_HEADER) + "\n\np1,v,0.0,0.0,500,500,1\n\n\np1,v,5.0,5.0,500,500,x\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow, match="valid must be 0 or 1") as exc:
            parse_gaze_log(p, META)
        assert exc.value.line_no == 6

    @pytest.mark.parametrize("parse", [parse_gaze_log, oracles.oracle_parse_gaze_log])
    def test_row_is_numbered_by_its_first_line(self, tmp_path, parse):
        # the first row's quoted flag spans lines 2-3, and line 4 is blank
        p = tmp_path / "g.csv"
        p.write_text(
            ",".join(GAZE_HEADER) + '\np1,v,0.0,0.0,500,500,"1\n"\n\np1,v,5.0,5.0,500,500,x\n',
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow, match="valid must be 0 or 1") as exc:
            parse(p, META)
        assert exc.value.line_no == 5

    def test_first_failing_row_and_rule_win(self, tmp_path):
        # line 3 fails two rules (video id first), line 4 fails an earlier one
        p = tmp_path / "g.csv"
        write_gaze(p, [
            ("p1", "v", 0.0, 0.0, 500, 500, 1),
            ("p1", "w", 0.0, 0.0, "oops", 500, 1),
            ("p1", "v", 20.0, 20.0, 500, 500),
        ])
        with pytest.raises(MalformedRow, match="video id 'w'") as exc:
            parse_gaze_log(p, META)
        assert exc.value.line_no == 3

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


def _aoi_rule_cases():
    """(file text, error, line, reason), one case per rule of an AOI track
    and named after it; each bad row follows a good one, on line 3."""
    header = ",".join(AOI_HEADER) + "\n"
    good = "v,0,obj,100,100,200,200\n"

    def after_good(row):
        return header + good + row + "\n"

    def coordinate(k, text):
        fields = ["100", "100", "200", "200"]
        fields[k] = text
        return after_good("v,1,obj," + ",".join(fields))

    coords = ["x_min_px", "y_min_px", "x_max_px", "y_max_px"]
    degenerate = "box has non-positive width or height"
    off_screen = "box extends outside the screen"
    cases = [
        ("header", "a,b\n" + good, MalformedRow, 1, f"expected header {','.join(AOI_HEADER)}"),
        ("fields", after_good("v,1,obj,100,100,200"), MalformedRow, 3,
         "expected 7 fields, got 6"),
        ("video id", after_good("w,1,obj,100,100,200,200"), MalformedRow, 3,
         "video id 'w' does not match 'v'"),
        ("bad frame", after_good("v,1.5,obj,100,100,200,200"), MalformedRow, 3,
         "bad frame_index: '1.5'"),
        ("negative frame", after_good("v,-1,obj,100,100,200,200"), FrameOutOfRange, 3,
         "frame -1 outside [0, 90)"),
        # 3 s at 30 fps: frames 0-89
        ("frame past the video", after_good("v,90,obj,100,100,200,200"), FrameOutOfRange, 3,
         "frame 90 outside [0, 90)"),
        *((f"bad {what}", coordinate(k, "abc"), MalformedRow, 3, f"bad {what}: 'abc'")
          for k, what in enumerate(coords)),
        *((f"{text} {what}", coordinate(k, text), MalformedRow, 3, f"non-finite {what}")
          for k, what in enumerate(coords) for text in ("nan", "inf")),
        ("degenerate", after_good("v,1,obj,100,100,100,200"), DegenerateBox, 3, degenerate),
        ("left of the screen", after_good("v,1,obj,-10,100,200,200"), MalformedRow, 3,
         off_screen),
        ("below the screen", after_good("v,1,obj,100,900,200,1001"), MalformedRow, 3,
         off_screen),
        ("duplicate", after_good("v,1,obj,100,100,200,200") + good, MalformedRow, 4,
         "duplicate box for frame 0, object 'obj'"),
        # a quoted object id spans lines 2-3 and line 4 is blank: the bad row is line 5
        ("first line", header + 'v,0,"obj\nA",100,100,200,200\n\nv,1,obj,100,100,100,200\n',
         DegenerateBox, 5, degenerate),
    ]
    return [pytest.param(*case, id=name) for name, *case in cases]


class TestParseAoi:
    def test_scaling(self, tmp_path):
        p = tmp_path / "a.csv"
        write_aoi(p, [("v", 0, "obj", 100, 100, 200, 200)])
        aoi = parse_aoi_track(p, META)
        assert aoi.object_ids == ("obj",) and aoi.n_frames == META.n_frames
        box = [aoi.x_min[0, 0], aoi.y_min[0, 0], aoi.x_max[0, 0], aoi.y_max[0, 0]]
        assert box == [0.1, 0.1, 0.2, 0.2]
        assert (aoi.cx[0, 0], aoi.cy[0, 0]) == ((0.1 + 0.2) / 2.0, (0.1 + 0.2) / 2.0)
        assert aoi.ann.sum() == 1

    def test_empty_track_is_legal(self, tmp_path):
        p = tmp_path / "a.csv"
        write_aoi(p, [])
        aoi = parse_aoi_track(p, META)
        assert aoi.object_ids == () and aoi.occurrences.shape == (0, 3)
        assert not aoi.occurrences.flags.writeable
        assert aoi.ann.shape == (0, META.n_frames)

    def test_degenerate_box(self, tmp_path):
        p = tmp_path / "a.csv"
        write_aoi(p, [("v", 0, "obj", 100, 100, 100, 200)])
        with pytest.raises(DegenerateBox):
            parse_aoi_track(p, META)

    def test_duplicate_box_reports_second_line(self, tmp_path):
        p = tmp_path / "a.csv"
        write_aoi(p, [
            ("v", 0, "obj", 100, 100, 200, 200),
            ("v", 1, "obj", 100, 100, 200, 200),
            ("v", 0, "obj", 150, 150, 250, 250),
        ])
        with pytest.raises(MalformedRow, match="duplicate box") as exc:
            parse_aoi_track(p, META)
        assert exc.value.line_no == 4

    def test_row_is_numbered_by_its_first_line(self, tmp_path):
        # the first row's quoted object id spans lines 2-3, and line 4 is blank
        p = tmp_path / "a.csv"
        p.write_text(
            ",".join(AOI_HEADER) + '\nv,0,"obj\nA",100,100,200,200\n\nv,1,obj,100,100,100,200\n',
            encoding="utf-8",
        )
        with pytest.raises(DegenerateBox) as exc:
            parse_aoi_track(p, META)
        assert exc.value.line_no == 5

    def test_frame_out_of_range(self, tmp_path):
        p = tmp_path / "a.csv"
        write_aoi(p, [("v", 90, "obj", 100, 100, 200, 200)])  # 3 s * 30 fps = 90 frames
        with pytest.raises(FrameOutOfRange):
            parse_aoi_track(p, META)


    @pytest.mark.parametrize("text, error, line_no, reason", _aoi_rule_cases())
    def test_every_rule_names_its_row(self, tmp_path, text, error, line_no, reason):
        p = tmp_path / "a.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(error) as exc:
            parse_aoi_track(p, META)
        assert type(exc.value) is error
        assert exc.value.line_no == line_no
        assert str(exc.value) == f"{p}:{line_no}: {reason}"


def _spell(rng, v, style=None):
    style = int(rng.integers(4)) if style is None else style
    return (f"{v:.3f}", repr(v), f" {v:.6e} ", f"{round(v)}")[style]


def random_gaze_lines(rng, n_rows, flags=("1", "1", "1", "0", " 1", "0 ")):
    """Data lines of a well-formed gaze log for META with blank lines,
    off-screen rows, tracker-invalid rows, wall-clock stalls, video-time
    freezes and several number spellings. Each file spells its time
    columns one way, so rounding keeps them in order; each flag is drawn
    from ``flags``."""
    wall_style, video_style = (int(s) for s in rng.integers(4, size=2))
    lines = []
    wall = float(rng.uniform(0.0, 50.0))
    video = 0.0
    for _ in range(n_rows):
        while rng.random() < 0.1:
            lines.append("")
        wall += float(rng.choice([16.7, 16.6667, 2.5, 900.0]))
        video += float(rng.choice([0.0, 16.7, 33.3, 1e-3]))
        x = float(rng.uniform(-150.0, 1150.0))
        y = float(rng.uniform(-150.0, 1150.0))
        flag = str(rng.choice(list(flags)))
        lines.append(",".join([
            "p7", "v", _spell(rng, wall, wall_style), _spell(rng, video, video_style),
            _spell(rng, x), _spell(rng, y), flag,
        ]))
    return lines


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def corrupt(rng, lines):
    """One corruption of a random data row; returns the new lines."""
    rows = [i for i, line in enumerate(lines) if line]
    i = int(rng.choice(rows))
    fields = lines[i].split(",")
    before = lines[max((j for j in rows if j < i), default=i)].split(",")
    # a row already cut or padded by an earlier corruption only changes width
    kind = int(rng.integers(10)) if len(fields) == len(GAZE_HEADER) else 0
    if kind == 0:
        fields = fields[:-1] if rng.random() < 0.5 else fields + ["extra"]
    elif kind == 1:
        fields[1] = "other"
    elif kind == 2:
        fields[int(rng.integers(2, 6))] = str(rng.choice(["abc", "", "1.2.3", "0x10"]))
    elif kind == 3:
        fields[int(rng.integers(2, 6))] = str(rng.choice(["nan", "inf", "-inf", "NaN"]))
    elif kind == 4:
        fields[6] = str(rng.choice(["2", "yes", "", "-1"]))
    elif kind == 5 and _number(before[2]) is not None:
        fields[2] = repr(_number(before[2]) - float(rng.choice([0.0, 1.0, 100.0])))
    elif kind == 6 and _number(before[3]) is not None:
        fields[3] = repr(_number(before[3]) - float(rng.choice([1e-3, 5.0])))
    elif kind == 7:
        fields[2] = "-5.000"
    elif kind == 8:
        fields[0] = "q9"
    else:
        fields[3] = "-0.5"
    return lines[:i] + [",".join(fields)] + lines[i + 1:]


def parse_or_error(parse, path, participant_id=None):
    try:
        return parse(path, META, participant_id), None
    except Exception as e:  # compared field by field below
        return None, e


class TestParseGazeOracle:
    def test_valid_logs_match_oracle_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(23)
        for trial in range(60):
            p = tmp_path / f"g{trial}.csv"
            lines = random_gaze_lines(rng, int(rng.integers(1, 80)))
            p.write_text("\n".join([",".join(GAZE_HEADER), *lines]) + "\n", encoding="utf-8")
            trace = parse_gaze_log(p, META)
            pid, *expected = oracles.oracle_parse_gaze_log(p, META)
            assert trace.participant_id == pid
            assert trace.video_id == META.video_id
            got = (trace.wall_ts, trace.video_ts, trace.x, trace.y, trace.valid)
            for column, want in zip(got, expected):
                want = np.array(want, dtype=column.dtype)
                assert column.shape == want.shape
                assert column.tobytes() == want.tobytes()

    def test_corrupt_logs_raise_as_oracle(self, tmp_path):
        rng = np.random.default_rng(29)
        reasons = set()
        for trial in range(300):
            p = tmp_path / f"g{trial}.csv"
            lines = random_gaze_lines(rng, int(rng.integers(1, 30)))
            for _ in range(int(rng.integers(1, 4))):
                lines = corrupt(rng, lines)
            text = "\n".join([",".join(GAZE_HEADER), *lines]) + "\n"
            p.write_text(text, encoding="utf-8")
            # the expected participant: the first row's, the manifest's, or another
            pid = [None, None, None, "p7", "q9"][trial % 5]
            # with CRLF line ends the same log gives the same columns or error
            crlf = tmp_path / f"g{trial}-crlf.csv"
            crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
            assert_parses_as_oracle(crlf, pid)
            _, want = parse_or_error(oracles.oracle_parse_gaze_log, p, pid)
            _, got = parse_or_error(parse_gaze_log, p, pid)
            if want is None:
                assert got is None
                continue
            assert type(got) is type(want)
            assert got.line_no == want.line_no
            assert str(got) == str(want)
            reasons.add(str(want).split(": ", 1)[1])
        # every rule fired at least once
        for needle in ("expected 7 fields", "video id", "participant id", "bad ", "non-finite",
                       "valid must",
                       "wall timestamp", "video_ts_ms decreases", "negative wall_ts_ms",
                       "negative video_ts_ms"):
            assert any(r.startswith(needle) for r in reasons), needle

    def test_plain_path_matches_row_rule_path_bit_for_bit(self, tmp_path, monkeypatch):
        # the oracle test's logs, plus as many whose one-byte flags keep
        # them in the plain subset
        rng = np.random.default_rng(23)
        plain = 0
        for trial in range(120):
            p = tmp_path / f"g{trial}.csv"
            flags = ("1", "1", "1", "0", " 1", "0 ") if trial % 2 else ("1", "0")
            lines = random_gaze_lines(rng, int(rng.integers(1, 80)), flags)
            p.write_text("\n".join([",".join(GAZE_HEADER), *lines]) + "\n", encoding="utf-8")
            plain += ingest._plain_columns(p.read_bytes(), META.video_id, None) is not None
            fast = parse_gaze_log(p, META)
            with monkeypatch.context() as m:
                m.setattr(ingest, "_plain_columns", lambda *args: None)
                slow = parse_gaze_log(p, META)
            assert_same_trace(fast, slow)
        assert plain >= 50

    def test_valid_lf_and_crlf_logs_never_reach_csv(self, tmp_path, monkeypatch):
        def no_csv(*args, **kwargs):
            raise AssertionError("a valid plain log reached csv.reader")

        rng = np.random.default_rng(37)
        for trial in range(40):
            lines = random_gaze_lines(rng, int(rng.integers(1, 80)), ("1", "0"))
            text = "\n".join([",".join(GAZE_HEADER), *lines]) + "\n"
            for name, ends in (("lf", "\n"), ("crlf", "\r\n")):
                p = tmp_path / f"g{trial}-{name}.csv"
                p.write_bytes(text.replace("\n", ends).encode("utf-8"))
                with monkeypatch.context() as m:
                    m.setattr(ingest.csv, "reader", no_csv)
                    parse_gaze_log(p, META)
                assert_parses_as_oracle(p)

    def test_header_and_blank_lines_only_is_empty(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(",".join(GAZE_HEADER) + "\n\n\n", encoding="utf-8")
        for parse in (parse_gaze_log, oracles.oracle_parse_gaze_log):
            with pytest.raises(EmptyLog):
                parse(p, META)


def assert_same_trace(got, want):
    assert (got.participant_id, got.video_id) == (want.participant_id, want.video_id)
    for name in ("wall_ts", "video_ts", "x", "y", "valid"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def assert_parses_as_oracle(path, participant_id=None):
    """``parse_gaze_log`` gives the oracle's columns bit for bit, or its
    error type, line and message."""
    want, want_error = parse_or_error(oracles.oracle_parse_gaze_log, path, participant_id)
    got, got_error = parse_or_error(parse_gaze_log, path, participant_id)
    if want_error is not None:
        assert type(got_error) is type(want_error)
        assert (got_error.line_no, str(got_error)) == (want_error.line_no, str(want_error))
        return
    assert got_error is None, got_error
    pid, *columns = want
    assert got.participant_id == pid
    for column, expected in zip((got.wall_ts, got.video_ts, got.x, got.y, got.valid), columns):
        assert column.tobytes() == np.array(expected, dtype=column.dtype).tobytes()


PLAIN_LOG = ",".join(GAZE_HEADER) + """
p7,v,0.000,0.000,500.00,500.00,1
p7,v,16.700,16.700,510.00,505.00,0

p7,v,33.300,33.300,520.00,510.00,1
"""


def _replace_field(line_index, field, text):
    def edit(log):
        lines = log.split("\n")
        fields = lines[line_index].split(",")
        fields[field] = text
        lines[line_index] = ",".join(fields)
        return "\n".join(lines)
    return edit


class TestPlainSubset:
    """Files just outside the plain subset parse, or fail, exactly as the
    row-by-row oracle says; only the ones inside it skip ``csv``."""

    @pytest.mark.parametrize("name, edit, plain", [
        ("as written", lambda log: log, True),
        ("no final newline", lambda log: log.rstrip("\n"), True),
        ("quoted participant ids", lambda log: log.replace("p7,", '"p7",'), False),
        ("quoted number", lambda log: log.replace("510.00,505.00", '"510.00",505.00'), False),
        ("CRLF", lambda log: log.replace("\n", "\r\n"), True),
        ("mixed LF and CRLF", lambda log: log.replace("0\n", "0\r\n"), True),
        ("lone CR", lambda log: log.replace("1\n", "1\r", 1), False),
        ("CR CR LF", lambda log: log.replace("0\n", "0\r\r\n"), False),
        ("BOM", lambda log: "\ufeff" + log, False),
        ("header with spaces", lambda log: log.replace(",", ", ", 6), False),
        ("underscore digits", _replace_field(1, 4, "1_000"), False),
        ("Arabic-Indic digits", _replace_field(2, 4, "\u0665\u0661\u0660"), False),
        ("1e999", _replace_field(2, 5, "1e999"), False),
        ("empty number field", _replace_field(1, 3, ""), False),
        ("# in a number field", _replace_field(4, 2, "40#"), False),
        ("# in the participant id", lambda log: log.replace("p7,", "p#7,"), True),
        ("6 fields balanced by 8", lambda log: log.replace(",0\n", "\n", 1).replace(
            "510.00,1", "510.00,1,1"), False),
        ("flag ' 1'", _replace_field(1, 6, " 1"), False),
        ("tab before a number", _replace_field(2, 4, "\t510.00"), False),
        ("control byte 0x1c before a number", _replace_field(2, 4, "\x1c510.00"), False),
    ])
    def test_near_miss_parses_as_oracle(self, tmp_path, name, edit, plain):
        p = tmp_path / "g.csv"
        p.write_bytes(edit(PLAIN_LOG).encode("utf-8"))
        assert (ingest._plain_columns(p.read_bytes(), META.video_id, None) is not None) is plain
        assert_parses_as_oracle(p)

    def test_corrupt_plain_logs_raise_as_oracle(self, tmp_path, monkeypatch):
        # one-byte flags keep the logs with a bad number, order or sign
        # in the plain subset up to loadtxt, so _plain_columns declines
        # them for their numbers alone, and the row loop raises
        loadtxt, read = np.loadtxt, []

        def counting_loadtxt(*args, **kwargs):
            read.append(True)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        rng = np.random.default_rng(31)
        declined = 0
        for trial in range(200):
            p = tmp_path / f"g{trial}.csv"
            lines = corrupt(rng, random_gaze_lines(rng, int(rng.integers(1, 30)), ("1", "0")))
            p.write_text("\n".join([",".join(GAZE_HEADER), *lines]) + "\n", encoding="utf-8")
            pid = [None, "p7", "q9"][trial % 3]
            read.clear()
            accepted = ingest._plain_columns(p.read_bytes(), META.video_id, pid) is not None
            declined += bool(read) and not accepted
            assert_parses_as_oracle(p, pid)
        assert declined >= 50

    def test_synth_logs_take_the_plain_path(self, small_cohort_manifest, monkeypatch):
        manifest = load_manifest(small_cohort_manifest)
        parsed = {
            key: parse_gaze_log(path, manifest.video_meta(key[1]), key[0])
            for key, path in manifest.gaze_log_paths.items()
        }
        with monkeypatch.context() as m:
            m.setattr(ingest, "_plain_columns", lambda *args: None)
            for (pid, vid), path in manifest.gaze_log_paths.items():
                slow = parse_gaze_log(path, manifest.video_meta(vid), pid)
                assert_same_trace(parsed[pid, vid], slow)

        def no_csv(*args, **kwargs):
            raise AssertionError("a synth log left the plain path")

        with monkeypatch.context() as m:
            m.setattr(ingest.csv, "reader", no_csv)
            for (pid, vid), path in manifest.gaze_log_paths.items():
                parse_gaze_log(path, manifest.video_meta(vid), pid)

    def test_reader_accepts_what_the_oracle_accepts(self):
        # seeded mutations of plain logs, one to three per log; the reader
        # must accept exactly the logs the former passes accepted, with the
        # same id, numbers and flags
        def before_numbers(rng, line, text):
            fields = line.split(",")
            for k in rng.choice([2, 3, 4, 5], size=int(rng.integers(1, 5)), replace=False):
                fields[k] = text + fields[k]
            return ",".join(fields)

        def on_random_line(rng, lines, edit):
            rows = [i for i, line in enumerate(lines) if line]
            if rows:
                i = rows[int(rng.integers(len(rows)))]
                lines[i] = edit(lines[i])
            return lines

        mutations = {
            "blank line": lambda rng, lines: lines.insert(int(rng.integers(len(lines) + 1)), "")
            or lines,
            "space after a comma": lambda rng, lines: on_random_line(
                rng, lines, lambda line: before_numbers(rng, line, " ")),
            "+ sign": lambda rng, lines: on_random_line(
                rng, lines, lambda line: before_numbers(rng, line, "+")),
            "# in the ids": lambda rng, lines: [line.replace("p7,", "p#7,") for line in lines],
            "# in one id": lambda rng, lines: on_random_line(
                rng, lines, lambda line: line.replace("p7,", "p#7,")),
            "6 fields": lambda rng, lines: on_random_line(
                rng, lines, lambda line: line.replace(line.split(",")[int(rng.integers(2, 6))] + ",",
                                                      "", 1)),
            "8 fields": lambda rng, lines: on_random_line(rng, lines, lambda line: line + ",1"),
            "two-byte flag": lambda rng, lines: on_random_line(
                rng, lines, lambda line: line + str(rng.choice(["0", "1", " "]))),
            "foreign participant id": lambda rng, lines: on_random_line(
                rng, lines, lambda line: line.replace("p7,", "q9,")),
        }
        endings = {
            "LF": lambda text: text,
            "CRLF": lambda text: text.replace("\n", "\r\n"),
            "mixed CRLF": lambda text: text.replace("0\n", "0\r\n"),
            "no final newline": lambda text: text.rstrip("\n"),
        }
        rng = np.random.default_rng(47)
        outcomes = set()  # (mutation or line ending, accepted)
        for trial in range(600):
            lines = random_gaze_lines(rng, int(rng.integers(1, 40)), ("1", "0"))
            names = [str(name) for name in
                     rng.choice(list(mutations), size=int(rng.integers(0, 4)))]
            for name in names:
                lines = mutations[name](rng, lines)
            names.append(str(rng.choice(list(endings))))
            text = "\n".join([",".join(GAZE_HEADER), *lines]) + "\n"
            data = endings[names[-1]](text).encode("ascii")
            for pid in (None, "p7"):
                want = oracles.oracle_plain_columns(data, META.video_id, pid)
                got = ingest._plain_columns(data, META.video_id, pid)
                assert (got is None) is (want is None), (trial, names, pid)
                outcomes.update((name, want is not None) for name in names)
                if want is not None:
                    assert got[0] == want[0], trial
                    for a, b in zip(got[1:], want[1:]):
                        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        # each mutation and line ending was declined, and each that a
        # plain log can have was accepted
        never_plain = {"6 fields", "8 fields", "two-byte flag"}
        assert outcomes >= {(name, accepted) for name in [*mutations, *endings]
                            for accepted in (False, True)
                            if not (accepted and name in never_plain)}

    def test_video_id_with_a_comma_is_checked_by_the_row_rules(self, tmp_path):
        # "p7,v,5," starts every line, but the rows' video id is "v"
        meta = dataclasses.replace(META, video_id="v,5")
        p = tmp_path / "g.csv"
        p.write_text(",".join(GAZE_HEADER) + "\np7,v,5,0,1,2,1\np7,v,5,1,1,2,1\n",
                     encoding="utf-8")
        with pytest.raises(MalformedRow, match="video id 'v' does not match 'v,5'") as exc:
            parse_gaze_log(p, meta)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("video_id, participant_id, reason", [
        ("v\u00e9", "p7", "video id 'v' does not match 'v\u00e9'"),
        ("v", "p\u00e9", "participant id 'p7' does not match 'p\u00e9'"),
        # numpy drops a bytes field's trailing NULs, so "p7" would match
        ("v", "p7\0", "participant id 'p7' does not match 'p7\\x00'"),
    ])
    def test_id_no_plain_line_holds_is_checked_by_the_row_rules(
        self, tmp_path, video_id, participant_id, reason
    ):
        # the log is plain; the id the manifest gives is one no plain line can hold
        p = tmp_path / "g.csv"
        p.write_bytes(PLAIN_LOG.encode("ascii"))
        assert ingest._plain_columns(p.read_bytes(), video_id, participant_id) is None
        with pytest.raises(MalformedRow) as exc:
            parse_gaze_log(p, dataclasses.replace(META, video_id=video_id), participant_id)
        assert (exc.value.line_no, exc.value.reason) == (2, reason)

    def test_long_ids_take_the_row_loop(self, tmp_path):
        # each id byte widens every row of loadtxt's array, so ids of more
        # than 64 bytes together leave the subset, with the same columns
        for pid, plain in (("p" * 63, True), ("p" * 64, False)):
            p = tmp_path / "g.csv"
            p.write_bytes(PLAIN_LOG.replace("p7,", pid + ",").encode("ascii"))
            assert (ingest._plain_columns(p.read_bytes(), META.video_id, None) is not None) is plain
            assert_parses_as_oracle(p)

    @pytest.mark.parametrize("text", ["", "\n", "\n\n\r\n"])
    def test_log_without_rows_declines_without_a_warning(self, tmp_path, text):
        p = tmp_path / "g.csv"
        p.write_bytes((",".join(GAZE_HEADER) + "\n" + text).encode("ascii"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ingest._plain_columns(p.read_bytes(), META.video_id, None) is None
            with pytest.raises(EmptyLog):
                parse_gaze_log(p, META)

    @pytest.mark.parametrize("edits, line_no, byte", [
        ([(b"510.00,505.00", b"510.00,5\xff05.00")], 3, "0xff"),  # mid-line
        ([(b"\n\np7", b"\n\xff\np7")], 4, "0xff"),  # alone on a blank line
        ([(b"\np7,v,33", b"\n\xffp7,v,33")], 5, "0xff"),  # first byte of its line
        ([(b"\n", b"\r\n"), (b"520.00", b"\xc3\x28")], 5, "0xc3"),  # CRLF line ends
    ])
    def test_undecodable_byte_reports_its_line(self, tmp_path, edits, line_no, byte):
        log = PLAIN_LOG.encode("ascii")
        for old, new in edits:
            log = log.replace(old, new)
        p = tmp_path / "g.csv"
        p.write_bytes(log)
        with pytest.raises(MalformedRow, match=f"invalid UTF-8 byte {byte}") as exc:
            parse_gaze_log(p, META)
        assert exc.value.line_no == line_no


@pytest.fixture
def plain_loadtxt(monkeypatch):
    """``np.loadtxt`` as ``_plain_columns`` calls it on PLAIN_LOG (ids "p7"
    and "v"), as a function of the file's text."""
    loadtxt, calls = np.loadtxt, []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    assert ingest._plain_columns(PLAIN_LOG.encode("ascii"), "v", "p7") is not None
    [kwargs] = calls
    header = ",".join(GAZE_HEADER) + "\n"
    return lambda text: loadtxt(io.BytesIO((header + text).encode("ascii")), **kwargs)


class TestPlainLoadtxt:
    """The ``np.loadtxt`` behaviours that ``_plain_columns`` relies on,
    asserted against numpy itself, so a numpy that differs is named."""

    @pytest.mark.parametrize("line", ["p7,v,1,2,3,4", "p7,v,1,2,3,4,1,1"])
    def test_six_or_eight_fields_raise(self, plain_loadtxt, line):
        with pytest.raises(ValueError):
            plain_loadtxt(f"p7,v,0,0,1,1,1\n{line}\n")

    def test_empty_lines_are_skipped(self, plain_loadtxt):
        rows = plain_loadtxt("\n\np7,v,0,0,1,1,1\n\n\np7,v,5,6,7,8,0\n\n")
        assert rows["flag"].tolist() == [b"1", b"0"]
        assert rows["numbers"].tolist() == [[0, 0, 1, 1], [5, 6, 7, 8]]

    @pytest.mark.parametrize("line", [" ", "   "])
    def test_whitespace_only_line_raises(self, plain_loadtxt, line):
        with pytest.raises(ValueError):
            plain_loadtxt(f"p7,v,0,0,1,1,1\n{line}\np7,v,5,6,7,8,0\n")

    def test_ids_and_flags_are_kept_verbatim_and_cut_to_width(self, plain_loadtxt):
        rows = plain_loadtxt(" p7,v ,0,0,1,1, 1\np#,#,1,1,1,1,1 \np777,vv,2,2,1,1,100\n")
        assert rows["pid"].tolist() == [b" p7", b"p#", b"p77"]
        assert rows["video"].tolist() == [b"v ", b"#", b"vv"]
        assert rows["flag"].tolist() == [b" 1", b"1 ", b"10"]

    def test_numbers_are_float_bit_for_bit(self, plain_loadtxt):
        rng = np.random.default_rng(53)
        values = np.concatenate([rng.uniform(-2000, 2000, 400), rng.standard_normal(400) * 1e-5,
                                 rng.uniform(0, 1e7, 400), 10.0 ** rng.uniform(-300, 300, 400)])
        texts = [_spell(rng, float(v)) for v in values]
        texts += [f"+{t.strip()}" for t in texts[::7] if not t.strip().startswith("-")]
        texts += ["0", "-0", "1e5", "1E-5", ".5", "5.", "0.1", "123456789012345678901234567890"]
        texts += ["1"] * (-len(texts) % 4)
        rows = plain_loadtxt("".join(f"p7,v,{','.join(texts[i:i + 4])},1\n"
                                     for i in range(0, len(texts), 4)))
        want = np.array([float(t) for t in texts])
        assert rows["numbers"].ravel().tobytes() == want.tobytes()


class TestUnreadableCsv:
    """Text that ``csv`` cannot read is a MalformedRow at the first line of
    the row it was reading, in gaze logs and AOI tracks alike."""

    @pytest.mark.parametrize("parse, header, row", [
        (parse_gaze_log, GAZE_HEADER, "p7,v,{i},{i},500.00,500.00,1"),
        (parse_aoi_track, AOI_HEADER, "v,{i},obj,100,100,200,200"),
    ])
    def test_stray_quote_over_the_field_limit(self, tmp_path, parse, header, row):
        # the quote on line 4 opens a field that runs past csv's size limit
        lines = [row.format(i=i) for i in range(6000)]
        lines[2] = '"' + lines[2]
        p = tmp_path / "f.csv"
        p.write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8")
        assert p.stat().st_size > csv.field_size_limit()
        with pytest.raises(MalformedRow, match="unreadable CSV: field larger than field limit") \
                as exc:
            parse(p, META)
        assert exc.value.line_no == 4

    @pytest.mark.parametrize("parse, text", [
        (parse_gaze_log, PLAIN_LOG.replace("510.00,505.00", "5\x0010.00,505.00")),
        (parse_aoi_track, ",".join(AOI_HEADER) + "\nv,0,obj,100,100,200,200\n"
                                                 "v,1,obj,1\x0000,100,200,200\n"),
    ])
    def test_nul_byte_is_a_malformed_row_at_its_line(self, tmp_path, parse, text):
        # csv rejects a NUL before Python 3.11 and reads it since, when the
        # number that holds it fails; a MalformedRow at its line either way
        p = tmp_path / "f.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedRow) as exc:
            parse(p, META)
        assert exc.value.line_no == 3


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
        samples.append((wall * 1000, video * 1000, 0.5 if valid else -0.1, 0.5, valid))
        wall += dt
        video += dt
        k += 1
    return gaze_trace(samples)


def aligned(trace, meta=META):
    """The row of ``trace`` aligned into a one-row stack, as 1-D columns."""
    return oracles.row_of(align_alone(trace, meta)[0])


class TestAlign:
    def test_oversampled_all_valid(self):
        trace = make_trace(lambda t: True)
        at = aligned(trace)
        assert at.present.all()
        assert not at.gap.any()

    def test_one_second_offscreen_run(self):
        # valid samples everywhere except video time [1.0, 2.0)
        trace = make_trace(lambda t: not (1.0 <= t < 2.0))
        at = aligned(trace)
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
            align_alone(trace, META)

    def test_pause_sets_gap_flag(self):
        # valid throughout, but a 2 s wall-clock stall between two samples
        samples = []
        wall = 0.0
        for k in range(180):
            video = k / 60.0
            samples.append((wall * 1000, video * 1000, 0.5, 0.5, True))
            wall += 1.0 / 60.0
            if k == 89:
                wall += 2.0  # pause: wall advances, video does not
        at = aligned(gaze_trace(samples))
        assert at.present.all()
        assert at.gap.sum() == 1
        assert at.gap[45]  # frame at the sample following the stall

    def test_deterministic(self):
        trace = make_trace(lambda t: t % 0.5 < 0.4)
        a1 = aligned(trace)
        a2 = aligned(trace)
        assert np.array_equal(a1.present, a2.present)
        assert np.array_equal(a1.gap, a2.gap)
        assert np.array_equal(a1.x, a2.x, equal_nan=True)

    def test_video_id_mismatch(self):
        trace = make_trace(lambda t: True)
        with pytest.raises(ConfigError):
            align_alone(trace, VideoMeta("other", 3.0, 30.0, 1000, 1000))

    def test_aligns_into_its_stack_row(self):
        # two traces aligned into rows of one stack give the bytes of each
        # aligned alone, and each returns its row's valid fraction
        traces = [dataclasses.replace(make_trace(keep), participant_id=pid)
                  for pid, keep in (("a", lambda t: t % 0.5 < 0.4), ("b", lambda t: True))]
        stack = TraceStack(META.video_id, META.fps, ["b", "a"], META.n_frames)
        for trace in traces:
            fraction = align(trace, META, stack)
            alone, alone_fraction = align_alone(trace, META)
            i = stack.row[trace.participant_id]
            for name in TraceStack._COLUMNS:
                assert getattr(stack, name)[i].tobytes() == getattr(alone, name)[0].tobytes()
            assert fraction == alone_fraction == stack.present[i].mean()
        assert 0.5 < stack.present[stack.row["a"]].mean() < 1.0
        other = TraceStack(META.video_id, META.fps + 1, ["a"], META.n_frames)
        with pytest.raises(ValueError, match="does not fit"):
            align(traces[0], META, other)

    def test_gap_flags_monotone_under_sample_removal(self):
        rng = np.random.default_rng(5)
        base = make_trace(lambda t: True)
        at_full = aligned(base)
        for _ in range(10):
            keep = rng.random(len(base.wall_ts)) > 0.2
            sub = dataclasses.replace(
                base,
                wall_ts=base.wall_ts[keep],
                video_ts=base.video_ts[keep],
                x=base.x[keep],
                y=base.y[keep],
                valid=base.valid[keep],
            )
            at_sub = aligned(sub)
            assert np.all(at_sub.gap | ~at_full.gap)  # gap set only grows

    def test_gap_flags_match_loop_oracle(self):
        # 60 Hz traces with invalid runs and wall-clock stalls of 0.1-2 s, on
        # both sides of the 2/fps + 0.5 s spread threshold; during half of
        # the stalls video time stands still, so it repeats
        rng = np.random.default_rng(17)
        max_spread = 2.0 / META.fps + 0.5
        checked = 0
        seen = set()
        for _ in range(60):
            samples = []
            wall = video = 0.0
            valid = True
            while video < META.duration_s:
                if rng.random() < 0.05:
                    valid = not valid
                samples.append((wall * 1000, video * 1000, rng.random(), rng.random(), valid))
                wall += 1.0 / 60.0
                if rng.random() < 0.03:
                    stall = float(rng.uniform(0.1, 2.0))
                    wall += stall
                    seen.add("long stall" if stall > max_spread else "short stall")
                    if rng.random() < 0.5:
                        continue  # paused: video time does not advance
                video += 1.0 / 60.0
            trace = gaze_trace(samples)
            present, x, y, gap, fraction = oracles.oracle_align(trace, META)
            if fraction < ingest.MIN_VALID_FRAME_FRACTION:
                with pytest.raises(RateMismatch):
                    align_alone(trace, META)
                continue
            stack, got_fraction = align_alone(trace, META)
            assert stack.present[0].tolist() == present
            assert stack.x[0].tobytes() == np.array(x).tobytes()
            assert stack.y[0].tobytes() == np.array(y).tobytes()
            assert stack.gap[0].tolist() == gap
            assert got_fraction == fraction
            video_s = trace.video_ts[trace.valid]
            if (np.diff(video_s) == 0).any():
                seen.add("repeated video time")
            if any(g and p for g, p in zip(gap[1:], present)):
                seen.add("gap after a present frame")
            checked += 1
        assert checked >= 40
        assert seen == {"long stall", "short stall", "repeated video time",
                        "gap after a present frame"}


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

    def test_libyaml_and_python_loaders_agree(self, small_cohort_manifest, monkeypatch):
        fast = load_manifest(small_cohort_manifest)
        monkeypatch.setattr(ingest, "YAML_LOADER", yaml.SafeLoader)
        assert load_manifest(small_cohort_manifest) == fast

    def test_no_videos(self, tmp_path):
        (tmp_path / "m.yaml").write_text("participants: []\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_manifest(tmp_path / "m.yaml")
