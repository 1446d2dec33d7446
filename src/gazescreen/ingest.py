"""Parsing of gaze logs, AOI annotations and the dataset manifest, plus
frame alignment.

File formats (all UTF-8 CSV with a header row):

  gaze log:  participant_id,video_id,wall_ts_ms,video_ts_ms,x_px,y_px,valid
  AOI track: video_id,frame_index,object_id,x_min_px,y_min_px,x_max_px,y_max_px

A gaze log is parsed straight into numpy columns (``GazeTrace``) by one
of two readers. ``_plain_columns`` only accepts or declines: it reads a
file in the plain subset (the exact header, printable ASCII lines ended
by LF or CRLF, no quotes, 7 fields on every non-blank line, one
participant and one video id, 0/1 flags) with one structured
``np.loadtxt`` call, and accepts it if its numbers pass every rule on
numbers. Any other file is read by ``csv`` and goes to ``_row_columns``,
a row loop that gives the same columns bit for bit or raises: it is the
one place that raises a gaze-row error, and it names the first row that
fails a rule, with its ``path:line``, and the first rule that row fails.
A byte that is not UTF-8 is a ``MalformedRow`` at its line.
A ``TraceStack`` holds every aligned trace of one video as the rows of
(participants x frames) arrays, and ``align`` maps a log's columns onto
video frames, straight into its row; a single trace is a one-row stack.

An AOI track is read row by row; ``parse_aoi_track`` is the one place that
checks its rules, and it returns the track as an ``AoiIndex``: per-object,
per-frame arrays of the normalized boxes, and its occurrences as the rows
of one integer array. The AOI track and the gaze reader share one ``csv``
reader, ``_csv_rows``, which checks the header, skips blank rows and
numbers each row by its first file line; text ``csv`` cannot read is a
``MalformedRow`` at the row it was reading.

The manifest is a YAML tree; see ``load_manifest`` for the schema. A
cohort spec's videos are read by the same ``parse_video``.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .core import Group, Participant, VideoMeta, normalize_coordinates
from .errors import (
    ConfigError,
    DegenerateBox,
    EmptyLog,
    FrameOutOfRange,
    MalformedRow,
    NonMonotonicTimestamp,
    RateMismatch,
)

GAZE_HEADER = ["participant_id", "video_id", "wall_ts_ms", "video_ts_ms", "x_px", "y_px", "valid"]
AOI_HEADER = ["video_id", "frame_index", "object_id", "x_min_px", "y_min_px", "x_max_px", "y_max_px"]

# Hard floor on the fraction of frames that must receive a valid sample;
# below this the meta or the log is wrong. Traces between MIN and WARN are
# usable but flagged in reports.
MIN_VALID_FRAME_FRACTION = 0.10
WARN_VALID_FRAME_FRACTION = 0.50


@dataclass(frozen=True)
class DatasetManifest:
    """Declares videos (in feature-concatenation order), participants and
    the files holding their data. All paths are resolved relative to the
    manifest's directory."""

    videos: tuple[VideoMeta, ...]
    participants: tuple[Participant, ...]
    gaze_log_paths: dict  # (participant_id, video_id) -> Path
    aoi_paths: dict  # video_id -> Path

    @property
    def video_order(self) -> tuple[str, ...]:
        return tuple(v.video_id for v in self.videos)

    def video_meta(self, video_id: str) -> VideoMeta:
        for v in self.videos:
            if v.video_id == video_id:
                return v
        raise ConfigError(f"unknown video id {video_id!r}")


@dataclass(frozen=True)
class GazeTrace:
    """One participant's gaze log for one video, as columns in file order.

    Timestamps are in milliseconds and coordinates normalized. ``valid`` is
    False where the tracker flagged the row or the gaze fell off screen.
    ``parse_gaze_log`` guarantees non-negative timestamps, strictly
    increasing ``wall_ts`` and non-decreasing ``video_ts``.
    """

    participant_id: str
    video_id: str
    wall_ts: np.ndarray  # float (n_samples,)
    video_ts: np.ndarray  # float (n_samples,)
    x: np.ndarray  # float (n_samples,)
    y: np.ndarray  # float (n_samples,)
    valid: np.ndarray  # bool (n_samples,)


class TraceStack:
    """Every aligned trace of one video, one row per participant in
    ``participant_ids`` order: (participants x n_frames) ``present``,
    ``x``, ``y`` and ``gap`` arrays, and the video's ``frame_times`` (s).
    ``align`` writes a trace into its row; ``freeze`` makes the arrays
    read-only once every row is in."""

    _COLUMNS = ("present", "x", "y", "gap")

    def __init__(self, video_id: str, fps: float, participant_ids, n_frames: int):
        self.video_id = video_id
        self.fps = fps
        self.participant_ids = tuple(participant_ids)
        self.row = {pid: i for i, pid in enumerate(self.participant_ids)}
        shape = (len(self.participant_ids), n_frames)
        self.present = np.zeros(shape, dtype=bool)
        self.x = np.full(shape, np.nan)
        self.y = np.full(shape, np.nan)
        self.gap = np.zeros(shape, dtype=bool)
        self.frame_times = np.arange(n_frames) / fps

    @property
    def n_frames(self) -> int:
        return self.present.shape[1]

    def freeze(self) -> None:
        for name in self._COLUMNS:
            getattr(self, name).flags.writeable = False


class AoiIndex:
    """One video's AOI track as per-frame, per-object arrays, built from
    columns with one entry per box: object id, frame in [0, n_frames) and
    the normalized box, at most one per (frame, object). Row k of every
    per-object array is ``object_ids[k]``, in sorted id order. Row i of the
    (n, 3) integer ``occurrences`` is a maximal span of frames where one
    object is annotated: object row, enter frame, exit frame (inclusive),
    by enter frame, then object id. All is computed here, and read-only."""

    def __init__(self, object_id, frame, x_min, y_min, x_max, y_max, n_frames: int):
        self.n_frames = n_frames
        self.object_ids = tuple(sorted(set(object_id)))
        row = {oid: k for k, oid in enumerate(self.object_ids)}
        k = np.fromiter(map(row.__getitem__, object_id), dtype=np.intp, count=len(object_id))
        f = np.asarray(frame, dtype=np.intp)
        shape = (len(self.object_ids), n_frames)
        self.ann = np.zeros(shape, dtype=bool)
        self.ann[k, f] = True

        def per_frame(values):
            out = np.full(shape, np.nan)
            out[k, f] = values
            return out

        self.x_min, self.y_min = per_frame(x_min), per_frame(y_min)
        self.x_max, self.y_max = per_frame(x_max), per_frame(y_max)
        self.cx = (self.x_min + self.x_max) / 2.0
        self.cy = (self.y_min + self.y_max) / 2.0
        self.any_ann = self.ann.any(axis=0)
        # an object's edges alternate enter, exit + 1; a stable sort keeps id order
        obj, edge = np.nonzero(np.diff(self.ann, axis=1, prepend=False, append=False))
        occ = np.column_stack((obj[0::2], edge[0::2], edge[1::2] - 1))
        self.occurrences = occ[np.argsort(occ[:, 1], kind="stable")]
        for a in (self.ann, self.cx, self.cy, self.x_min, self.x_max,
                  self.y_min, self.y_max, self.any_ann, self.occurrences):
            a.flags.writeable = False


def _parse_float(row_val: str, path, line_no, what) -> float:
    try:
        v = float(row_val)
    except (TypeError, ValueError):
        raise MalformedRow(path, line_no, f"bad {what}: {row_val!r}") from None
    if not math.isfinite(v):
        raise MalformedRow(path, line_no, f"non-finite {what}")
    return v


def _decode(path, data: bytes) -> str:
    """``data`` as UTF-8 text; an undecodable byte is a MalformedRow at the
    line that holds it."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = len(data[: e.start + 1].splitlines())
        raise MalformedRow(path, line_no, f"invalid UTF-8 byte 0x{data[e.start]:02x}") from None


_PLAIN_HEADER = (",".join(GAZE_HEADER) + "\n").encode()


def _plain_columns(data: bytes, video_id: str, participant_id: Optional[str]):
    """The (participant id, numbers, flags) of a gaze log in the plain
    subset, read by one ``np.loadtxt`` call; None for any other file.
    ``numbers`` is (4, n_rows): wall, video, x_px, y_px; ``flags`` is the
    tracker's valid flag of each row.

    Plain: the exact header line; printable ASCII lines ended by LF or
    CRLF (read as LF, which keeps the line count), with no ``"``; at least
    one data row; 7 fields on every non-blank line: the participant id (the
    given one, else the first row's) and the video id, at most 64 bytes
    together, four numbers that pass the rules on numbers (all finite, wall
    time strictly increasing, video time non-decreasing, both non-negative)
    and a 0/1 flag. ``loadtxt`` checks the field count, skips blank lines
    and keeps ids and flags verbatim, in bytes fields one byte wider than
    the text they must equal. Its numbers are ``float``'s bit for bit: both
    convert with ``PyOS_string_to_double``, and in this subset ``loadtxt``
    accepts no text that ``float`` rejects. Such a file passes every row
    rule of ``_row_columns``.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not (data.startswith(_PLAIN_HEADER) and data.isascii()) or b'"' in data:
        return None
    if np.count_nonzero(np.frombuffer(data, dtype=np.uint8) < ord(" ")) != data.count(b"\n"):
        return None  # a control byte
    if len(data.rstrip(b"\n")) < len(_PLAIN_HEADER):
        return None  # no data row, which loadtxt would warn of
    pid = participant_id
    if pid is None:
        end = data.find(b",", len(_PLAIN_HEADER))
        pid = data[data.rfind(b"\n", 0, end) + 1: end].decode("ascii")
    ids = pid + video_id  # a NUL would match numpy's padding; each id byte widens every row
    if "\0" in ids or len(ids) > 64:
        return None
    dtype = [("pid", f"S{len(pid) + 1}"), ("video", f"S{len(video_id) + 1}"),
             ("numbers", float, (4,)), ("flag", "S2")]
    try:
        rows = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",", skiprows=1,
                          comments=None, ndmin=1)
    except ValueError:
        return None
    tracker_valid = rows["flag"] == b"1"
    if not ((rows["pid"] == pid.encode()).all() and (rows["video"] == video_id.encode()).all()
            and (tracker_valid | (rows["flag"] == b"0")).all()):
        return None
    numbers = rows["numbers"].T.copy()
    wall, video = numbers[0], numbers[1]
    if not (np.isfinite(numbers).all() and (wall[1:] > wall[:-1]).all()
            and (video[1:] >= video[:-1]).all() and numbers[:2].min() >= 0):
        return None
    return pid, numbers, tracker_valid


def _csv_rows(path, data: bytes, header: list[str]) -> tuple[list, list]:
    """The non-blank rows after the header of a CSV file, and the first
    file line of each (a quoted field may span lines). A header other than
    ``header`` is a MalformedRow at line 1, a byte that is not UTF-8 one at
    its line, and text ``csv`` cannot read (a field over its size limit, or
    a NUL on Python 3.10) one at the first line of the row it was reading."""
    reader = csv.reader(io.StringIO(_decode(path, data), newline=""))
    rows, lines = [], []
    line_end = 0
    try:
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise MalformedRow(path, 1, f"expected header {','.join(header)}")
        line_end = reader.line_num
        for row in reader:
            if row:
                rows.append(row)
                lines.append(line_end + 1)
            line_end = reader.line_num
    except csv.Error as e:
        raise MalformedRow(path, line_end + 1, f"unreadable CSV: {e}") from None
    return rows, lines


def _row_columns(path, rows: list, lines: list, video_id: str, participant_id: Optional[str]):
    """The (participant id, numbers, flags) of a gaze log's csv ``rows``,
    as ``_plain_columns`` gives them, if every row passes every rule. Else
    the error of the first row that fails a rule, for the first rule it
    fails, at its first file line (``lines``). The rules, in order: field
    count, video id, participant id (``participant_id`` if given, else the
    first row's), the four numbers (each parsable, then finite), a 0/1
    valid flag, strictly increasing wall time, non-decreasing video time,
    non-negative wall and video time. This is the only code that raises a
    gaze-row error."""
    pid = rows[0][0] if participant_id is None else participant_id
    numbers, flags = [], []
    prev_wall = prev_video = -math.inf
    for row, line_no in zip(rows, lines):
        if len(row) != len(GAZE_HEADER):
            raise MalformedRow(path, line_no, f"expected {len(GAZE_HEADER)} fields, got {len(row)}")
        row_pid, vid, *texts, flag = row
        if vid != video_id:
            raise MalformedRow(path, line_no, f"video id {vid!r} does not match {video_id!r}")
        if row_pid != pid:
            raise MalformedRow(path, line_no, f"participant id {row_pid!r} does not match {pid!r}")
        values = [_parse_float(text, path, line_no, what)
                  for text, what in zip(texts, GAZE_HEADER[2:6])]
        if flag.strip() not in ("0", "1"):
            raise MalformedRow(path, line_no, f"valid must be 0 or 1, got {flag!r}")
        wall, video = values[:2]
        if wall <= prev_wall:
            raise NonMonotonicTimestamp(path, line_no)
        if video < prev_video:
            raise MalformedRow(path, line_no, "video_ts_ms decreases")
        if wall < 0:
            raise MalformedRow(path, line_no, "negative wall_ts_ms")
        if video < 0:
            raise MalformedRow(path, line_no, "negative video_ts_ms")
        prev_wall, prev_video = wall, video
        numbers.append(values)
        flags.append(flag.strip() == "1")
    return pid, np.array(numbers).T.copy(), np.array(flags)


def parse_gaze_log(path, meta: VideoMeta, participant_id: Optional[str] = None) -> GazeTrace:
    """Parse one gaze CSV into a columnar GazeTrace with normalized
    coordinates.

    Rows flagged invalid by the tracker, or whose coordinates fall off
    screen, are kept with valid=False. Blank rows are skipped but still
    count towards line numbers, and a row whose quoted field spans lines is
    numbered by its first line. Each row must pass the rules that
    ``_row_columns`` lists, in its order; the error names the first
    failing row and the first rule it fails.

    A file in the plain subset whose rows pass every rule is read by
    ``_plain_columns`` with one ``np.loadtxt`` call, which only accepts or
    declines. Any other file goes through ``csv`` to ``_row_columns``,
    which reads its rows or raises the first row's error; text ``csv``
    cannot read is a MalformedRow at the first line of its row.
    """
    path = Path(path)
    data = path.read_bytes()
    columns = _plain_columns(data, meta.video_id, participant_id)
    if columns is None:
        rows, lines = _csv_rows(path, data, GAZE_HEADER)
        if not rows:
            raise EmptyLog(path)
        columns = _row_columns(path, rows, lines, meta.video_id, participant_id)
    pid, (wall, video, x_px, y_px), tracker_valid = columns
    x, y, on_screen = normalize_coordinates(x_px, y_px, meta)
    return GazeTrace(
        participant_id=pid,
        video_id=meta.video_id,
        wall_ts=wall,
        video_ts=video,
        x=x,
        y=y,
        valid=tracker_valid & on_screen,
    )


def parse_aoi_track(path, meta: VideoMeta) -> AoiIndex:
    """Parse one AOI CSV into the video's AoiIndex, normalizing boxes to
    [0,1]^2. An empty file is a legal track with zero boxes.

    Each row must pass, in this order: field count, video id, an integer
    frame in [0, n_frames), four finite coordinates, positive width and
    height, a box on the screen, and no earlier box for its (frame,
    object). The error names the row's first file line; these are the
    only checks an AOI track gets."""
    path = Path(path)
    columns = ([], [], [], [], [], [])  # object id, frame, x_min, y_min, x_max, y_max
    seen = set()  # (frame_index, object_id)
    n_frames = meta.n_frames
    for row, line_no in zip(*_csv_rows(path, path.read_bytes(), AOI_HEADER)):
        if len(row) != len(AOI_HEADER):
            raise MalformedRow(path, line_no, f"expected {len(AOI_HEADER)} fields, got {len(row)}")
        vid, frame_raw, object_id, x0_raw, y0_raw, x1_raw, y1_raw = row
        if vid != meta.video_id:
            raise MalformedRow(path, line_no, f"video id {vid!r} does not match {meta.video_id!r}")
        try:
            frame_index = int(frame_raw)
        except ValueError:
            raise MalformedRow(path, line_no, f"bad frame_index: {frame_raw!r}") from None
        if not (0 <= frame_index < n_frames):
            raise FrameOutOfRange(path, line_no, frame_index, n_frames)
        x0 = _parse_float(x0_raw, path, line_no, "x_min_px") / meta.width_px
        y0 = _parse_float(y0_raw, path, line_no, "y_min_px") / meta.height_px
        x1 = _parse_float(x1_raw, path, line_no, "x_max_px") / meta.width_px
        y1 = _parse_float(y1_raw, path, line_no, "y_max_px") / meta.height_px
        if x0 >= x1 or y0 >= y1:
            raise DegenerateBox(path, line_no)
        if not (0.0 <= x0 and x1 <= 1.0 and 0.0 <= y0 and y1 <= 1.0):
            raise MalformedRow(path, line_no, "box extends outside the screen")
        if (frame_index, object_id) in seen:
            raise MalformedRow(
                path, line_no, f"duplicate box for frame {frame_index}, object {object_id!r}"
            )
        seen.add((frame_index, object_id))
        for column, value in zip(columns, (object_id, frame_index, x0, y0, x1, y1)):
            column.append(value)
    return AoiIndex(*columns, n_frames)


def align(trace: GazeTrace, meta: VideoMeta, stack: TraceStack) -> float:
    """Assign valid samples to video frames, writing the trace's row of
    ``stack`` (a ``TraceStack`` of ``meta``'s video), and return the
    fraction of frames that received a sample.

    Frame f (video time f/fps) receives the valid sample whose video_ts is
    nearest within half a frame period, the earlier sample on a tie (video
    time repeats while playback is paused); frames with no such sample are
    absent. A frame is gap-flagged when its predecessor is absent or when
    the wall-clock spread between the two chosen samples exceeds
    2/fps + 0.5 s, which captures pause events (playback halted after the
    gaze left the screen for 500 ms).
    """
    if trace.video_id != meta.video_id:
        raise ConfigError(f"trace video {trace.video_id!r} does not match meta {meta.video_id!r}")
    fps = meta.fps
    n_frames = meta.n_frames
    if (stack.video_id, stack.fps, stack.n_frames) != (meta.video_id, fps, n_frames):
        raise ValueError(f"the stack of {stack.video_id!r} does not fit video {meta.video_id!r}")
    i = stack.row[trace.participant_id]
    present, x, y, gap = (getattr(stack, name)[i] for name in TraceStack._COLUMNS)
    wall_s = np.full(n_frames, np.nan)  # wall time of each frame's chosen sample

    valid = np.flatnonzero(trace.valid)
    if len(valid):
        video_s = trace.video_ts[valid] / 1000.0
        half_period = 1.0 / (2.0 * fps)
        t_f = stack.frame_times
        # nearest sample by video time; ties resolve to the earlier sample,
        # so idx_lo is the first of the samples at the time just before t_f
        idx = np.searchsorted(video_s, t_f)  # in [0, len(valid)]
        idx_lo = np.searchsorted(video_s, video_s[np.maximum(idx - 1, 0)])
        idx_hi = np.minimum(idx, len(valid) - 1)
        d_lo = np.abs(video_s[idx_lo] - t_f)
        d_hi = np.abs(video_s[idx_hi] - t_f)
        hit = np.minimum(d_lo, d_hi) <= half_period
        best = valid[np.where(d_lo <= d_hi, idx_lo, idx_hi)[hit]]
        present[hit] = True
        x[hit] = trace.x[best]
        y[hit] = trace.y[best]
        wall_s[hit] = trace.wall_ts[best] / 1000.0

    fraction = float(present.mean()) if n_frames else 0.0
    if fraction < MIN_VALID_FRAME_FRACTION:
        raise RateMismatch(trace.participant_id, trace.video_id, fraction)

    max_spread = 2.0 / fps + 0.5
    with np.errstate(invalid="ignore"):  # wall_s is NaN on absent frames
        gap[1:] = ~present[:-1] | (present[1:] & (wall_s[1:] - wall_s[:-1] > max_spread))
    return fraction


def _unique_ids(what: str, ids: list[str]) -> set[str]:
    """The set of ``ids``; a repeated id is a ValueError naming it."""
    seen = set()
    for i in ids:
        if i in seen:
            raise ValueError(f"duplicate {what} id {i!r}")
        seen.add(i)
    return seen


# libyaml's parser and emitter where PyYAML was built with them; they build
# the same objects and write the same text
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_yaml(path):
    """The YAML document in ``path``. Text that is not UTF-8 and invalid
    YAML are a ConfigError; an unreadable file raises OSError."""
    try:
        return yaml.load(Path(path).read_text(encoding="utf-8"), Loader=YAML_LOADER)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from e


def _whole(value, what: str) -> int:
    """``value`` as an int; a boolean (YAML ``true`` is not 1) or a number
    with a fractional part is a ValueError, not converted."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def parse_video(entry) -> VideoMeta:
    """One ``videos`` entry of a manifest or a cohort spec: id,
    duration_s, fps, width_px and height_px. A missing key or a bad value
    is a ValueError that names the entry."""
    try:
        return VideoMeta(
            video_id=str(entry["id"]),
            duration_s=float(entry["duration_s"]),
            fps=float(entry["fps"]),
            width_px=_whole(entry["width_px"], "width_px"),
            height_px=_whole(entry["height_px"], "height_px"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"bad video entry {entry!r}: {e}") from e


def _checked(path, value, kind: type, what: str):
    """``value``, which must be a ``kind``: list or dict for a manifest
    section, str for a file path."""
    if not isinstance(value, kind):
        name = {list: "a list", dict: "a mapping", str: "a file path"}[kind]
        raise ConfigError(f"{path}: {what} must be {name}, got {value!r}")
    return value


def load_manifest(path) -> DatasetManifest:
    """Load the dataset manifest.

    Schema::

        videos:                     # list, order defines concatenation order
          - id: car_pursuit
            duration_s: 24.0
            fps: 30.0
            width_px: 1920
            height_px: 1080
        participants:
          - id: asd_000
            group: ASD              # ASD | CONTROL
            cars: 33                # optional, ASD only
        gaze_logs:
          asd_000:
            car_pursuit: logs/asd_000__car_pursuit.csv
        aoi_tracks:
          car_pursuit: aoi/car_pursuit.csv
    """
    path = Path(path)
    data = load_yaml(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: manifest must be a mapping")
    base = path.parent

    videos = []
    for entry in _checked(path, data.get("videos", []), list, "videos"):
        try:
            videos.append(parse_video(entry))
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from e
    if not videos:
        raise ConfigError(f"{path}: manifest declares no videos")

    participants = []
    for entry in _checked(path, data.get("participants", []), list, "participants"):
        try:
            group = Group(str(entry["group"]))
            cars = entry.get("cars")
            participants.append(
                Participant(
                    participant_id=str(entry["id"]),
                    group=group,
                    cars=None if cars is None else _whole(cars, "cars"),
                )
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{path}: bad participant entry {entry!r}: {e}") from e
    if not participants:
        raise ConfigError(f"{path}: manifest declares no participants")

    try:
        video_ids = _unique_ids("video", [v.video_id for v in videos])
        participant_ids = _unique_ids("participant", [p.participant_id for p in participants])
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e

    gaze_log_paths = {}
    for pid, per_video in _checked(path, data.get("gaze_logs", {}), dict, "gaze_logs").items():
        if pid not in participant_ids:
            raise ConfigError(f"{path}: gaze_logs references unknown participant {pid!r}")
        for vid, rel in _checked(path, per_video, dict, f"gaze_logs of {pid!r}").items():
            if vid not in video_ids:
                raise ConfigError(f"{path}: gaze_logs references unknown video {vid!r}")
            gaze_log_paths[(pid, vid)] = base / _checked(path, rel, str, f"gaze log {pid}/{vid}")

    aoi_paths = {}
    for vid, rel in _checked(path, data.get("aoi_tracks", {}), dict, "aoi_tracks").items():
        if vid not in video_ids:
            raise ConfigError(f"{path}: aoi_tracks references unknown video {vid!r}")
        aoi_paths[vid] = base / _checked(path, rel, str, f"AOI track of {vid}")

    return DatasetManifest(
        videos=tuple(videos),
        participants=tuple(participants),
        gaze_log_paths=gaze_log_paths,
        aoi_paths=aoi_paths,
    )
