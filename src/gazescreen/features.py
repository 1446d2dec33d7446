"""The five gaze features, computed over a full video or a time window.

All statistics use population (divide-by-n) variance so results are
deterministic down to n = 2; oracle implementations must match this choice.

Feature summary (per window):
  F1  scalar dispersion of gaze points: sqrt(var(x) + var(y))
  F2  std of Euclidean displacement between consecutive frames
  F3  std of Manhattan distance from gaze to the nearest AOI center
  F4  RMS Euclidean distance from gaze to the nearest AOI center
  F5  mean first-look delay per AOI occurrence, right-censored at the
      occurrence's (window-clipped) duration

F3-F5 read an ``ingest.AoiIndex``: a video's AOI track laid out as
per-frame, per-object arrays. ``pipeline.load_dataset`` builds one per
video and keeps it on the ``Dataset``. A ``VideoTable`` holds the per-frame
columns of one video that no window changes; the duration protocol builds
one per selected video in each call, and nothing here caches between calls.

Aligned gaze is always a ``TraceStack``, and a single trace is a one-row
stack. ``extract`` is the definition of the features on a one-row stack:
it returns a float array and signals an unusable window by raising. It is
the one-row case of ``extract_stack``, which featurises every row of a
video's stack on one window in one pass: the masks, step lengths and
nearest-centre distances are computed once for all rows, and each row is
reduced on its own compressed values, so every row has ``extract``'s bits
and error. The ``feature_*`` functions run the same pass for a single
feature, with that feature's rules only.
``extract_batch`` is the duration protocol's fast path: every participant
of a video on one shared window, read as slices of the video's
``VideoTable``. F1-F4 are masked row reductions of the (participants x
window) slice, with the same two-pass population variance as ``extract``.
The same pass returns which rows ``extract`` would reject. F5 has one
definition for both engines: ``_first_look_delay`` reads a next-look index
(``_look_index``), which the table holds for the whole video and the stack
pass builds for its own window; a clipped occurrence's first look is an
integer read from it, so the two give the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FeatureMode
from .errors import ConfigError, InsufficientData, NoAoiInWindow, NoAoiTrack, NonFiniteFeature
from .ingest import AoiIndex, TraceStack


@dataclass(frozen=True)
class Window:
    """A [start_s, start_s + duration_s) slice of video time."""

    start_s: float
    duration_s: float

    def __post_init__(self):
        if not (math.isfinite(self.start_s) and self.start_s >= 0
                and math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ConfigError(
                f"need finite start_s >= 0 and duration_s > 0, got {self.start_s!r}, "
                f"{self.duration_s!r}"
            )

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


def full_window(stack: TraceStack) -> Window:
    return Window(0.0, stack.n_frames / stack.fps)


def frame_range(w: Window, fps: float, n_frames: int) -> tuple[int, int]:
    """Half-open frame index range [lo, hi) of frames whose timestamp
    f/fps falls inside the window."""
    lo = int(math.ceil(w.start_s * fps - 1e-9))
    hi = int(math.ceil(w.end_s * fps - 1e-9))
    return max(lo, 0), min(hi, n_frames)


def _pop_var(values: np.ndarray):
    """``np.var`` of a 1-D array, bit for bit: its two passes without its wrappers."""
    dev = values - np.add.reduce(values) / len(values)
    return np.add.reduce(dev * dev) / len(values)


def require_aoi(stack: TraceStack, aoi: AoiIndex | None) -> None:
    """Check that ``aoi`` indexes the video of a stack: a missing track is
    a ``NoAoiTrack``, a frame count that differs from the video's a
    ``ValueError``."""
    if aoi is None:
        raise NoAoiTrack(stack.video_id)
    if aoi.n_frames != stack.n_frames:
        raise ValueError(f"AOI index has {aoi.n_frames} frames, the stack has {stack.n_frames}")


def _look_index(present, x, y, aoi: AoiIndex, lo: int, hi: int) -> np.ndarray:
    """F5's next-look index of frames [lo, hi), given the rows' ``present``,
    ``x`` and ``y`` on those frames: entry [k, r, j] of the (objects x rows
    x (hi - lo)) array is the first frame f in [lo + j, hi) where row r's
    present gaze lies inside object k's box (edges included), else hi. The
    dtype is the smallest signed integer one that holds hi."""
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= hi)
    frames = np.arange(lo, hi, dtype=dtype)
    none = dtype(hi)
    look = np.empty((len(aoi.object_ids), *present.shape), dtype=dtype)
    for k in range(len(aoi.object_ids)):
        inside = (
            present
            & (x >= aoi.x_min[k, lo:hi])
            & (x <= aoi.x_max[k, lo:hi])
            & (y >= aoi.y_min[k, lo:hi])
            & (y <= aoi.y_max[k, lo:hi])
        )
        np.minimum.accumulate(np.where(inside, frames, none)[:, ::-1], axis=1,
                              out=look[k, :, ::-1])
    return look


def _first_look_delay(look: np.ndarray, aoi: AoiIndex, lo, hi, fps, w) -> np.ndarray:
    """F5 on frames [lo, hi) of every row, read from ``look``, a
    ``_look_index`` whose column j is frame lo + j and whose "no look" entry
    is at least hi; a window that no occurrence overlaps is a
    ``NoAoiInWindow``. The first look of an occurrence of object k clipped
    to [enter, exit] is min(L - enter, exit - enter + 1) frames, where L is
    ``look``'s entry for object k at frame enter: integer-exact, so every
    index that covers the window gives the same bits."""
    delays = []
    for k, enter, exit_ in aoi.occurrences.tolist():
        enter, exit_ = max(enter, lo), min(exit_, hi - 1)
        if enter > exit_:
            continue
        delays.append(np.minimum(look[k, :, enter - lo] - enter, exit_ - enter + 1) / fps)
    if not delays:
        raise NoAoiInWindow(f"no AOI occurrence overlaps {w}")
    return np.column_stack(delays).mean(axis=1)


def _stack_pass(stack: TraceStack, aoi: AoiIndex | None, w: Window, features) -> list:
    """The values of ``features`` (indices into F1..F5, in order) on window
    ``w`` for every row of a stack: row i's float array, or the
    ``GazeScreenError`` that rejects it (rows rejected for one reason share
    one error).

    The element-wise work runs once over all rows; each row's reductions
    are the 1-D ones of its own compressed values, so a row's bits do not
    depend on the other rows. A row is checked in this order, each feature
    only for its own rules: F1 needs >= 2 present frames; F2 >= 2 frames
    and >= 2 eligible pairs; F3-F5 an AOI track (``require_aoi``); F3-F4
    an annotated frame in the window, and >= 2 (F3) or >= 1 (F4) frames
    both present and annotated; F5 an occurrence overlapping the window.
    Last, a value that is not finite is a ``NonFiniteFeature``."""
    lo, hi = frame_range(w, stack.fps, stack.n_frames)
    present, x, y = stack.present[:, lo:hi], stack.x[:, lo:hi], stack.y[:, lo:hi]
    out = [None] * len(stack.participant_ids)
    columns = []  # per feature, its value as a function of the row

    def reject(ok, error) -> bool:
        """Give ``error`` to every row not yet rejected where ``ok`` is
        False; True while some row is left."""
        for r in np.flatnonzero(~np.broadcast_to(ok, len(out))).tolist():
            if out[r] is None:
                out[r] = error
        return None in out

    if 0 in features:
        if not reject(present.sum(axis=1) >= 2,
                      InsufficientData(f"F1 needs >= 2 present frames in {w}")):
            return out
        columns.append(lambda r: np.sqrt(_pop_var(x[r][present[r]]) + _pop_var(y[r][present[r]])))
    if 1 in features:
        eligible = present[:, :-1] & present[:, 1:] & ~stack.gap[:, lo + 1 : hi]
        if not reject(hi - lo >= 2, InsufficientData(f"F2 needs >= 2 frames in {w}")):
            return out
        if not reject(eligible.sum(axis=1) >= 2,
                      InsufficientData(f"F2 needs >= 2 eligible consecutive pairs in {w}")):
            return out
        steps = np.diff(x)
        np.hypot(steps, np.diff(y), out=steps)
        columns.append(lambda r: np.sqrt(_pop_var(steps[r][eligible[r]])))
    if max(features) >= 2:
        try:
            require_aoi(stack, aoi)
        except NoAoiTrack as e:
            reject(False, e)
            return out
    if 2 in features or 3 in features:
        annotated = aoi.any_ann[lo:hi]
        if not reject(annotated.any(), NoAoiInWindow(f"no annotated frame in {w}")):
            return out
        both = present & annotated
        n_both = both.sum(axis=1)
        if 2 in features and not reject(
                n_both >= 2, InsufficientData(f"F3 needs >= 2 present+annotated frames in {w}")):
            return out
        if not reject(n_both >= 1, NoAoiInWindow(f"no frame both present and annotated in {w}")):
            return out
        manhattan, euclidean = _nearest_center_distances(x, y, aoi, lo, hi, np.hypot)
        if 2 in features:
            columns.append(lambda r: np.sqrt(_pop_var(manhattan[r][both[r]])))
        if 3 in features:
            columns.append(lambda r: np.sqrt(np.add.reduce(euclidean[r][both[r]] ** 2) / n_both[r]))
    if 4 in features:
        try:
            delay = _first_look_delay(_look_index(present, x, y, aoi, lo, hi), aoi, lo, hi,
                                      stack.fps, w)
        except NoAoiInWindow as e:
            reject(False, e)
            return out
        columns.append(delay.__getitem__)
    for r, pid in enumerate(stack.participant_ids):
        if out[r] is None:
            row = np.array([float(value(r)) for value in columns])
            out[r] = row if np.isfinite(row).all() else NonFiniteFeature(
                f"non-finite feature for {pid}/{stack.video_id} in {w}")
    return out


def _one_row(stack: TraceStack, aoi: AoiIndex | None, w: Window, features) -> np.ndarray:
    """``_stack_pass`` on a one-row stack: its float array, or its error
    raised; a stack of any other row count is a ``ValueError``."""
    if len(stack.participant_ids) != 1:
        raise ValueError(f"expected a one-row stack, got {len(stack.participant_ids)} rows")
    (row,) = _stack_pass(stack, aoi, w, features)
    if not isinstance(row, np.ndarray):
        raise row
    return row


def feature_std_gaze(stack: TraceStack, w: Window) -> float:
    """F1: sqrt of summed per-axis population variances of gaze points."""
    return float(_one_row(stack, None, w, (0,))[0])


def feature_std_diff(stack: TraceStack, w: Window) -> float:
    """F2: population std of Euclidean displacement between consecutive
    frames. Pairs spanning a gap flag are excluded."""
    return float(_one_row(stack, None, w, (1,))[0])


def feature_std_manhattan(stack: TraceStack, aoi: AoiIndex, w: Window) -> float:
    """F3: population std of the Manhattan distance from gaze to the
    nearest annotated box center, over frames that are both present and
    annotated."""
    return float(_one_row(stack, aoi, w, (2,))[0])


def feature_rmse_aoi(stack: TraceStack, aoi: AoiIndex, w: Window) -> float:
    """F4: RMS Euclidean distance from gaze to the nearest annotated box
    center, paired frame by frame."""
    return float(_one_row(stack, aoi, w, (3,))[0])


def feature_delay(stack: TraceStack, aoi: AoiIndex, w: Window) -> float:
    """F5: mean first-look delay in seconds, averaged over all AOI
    occurrences overlapping the window.

    Each occurrence is clipped to the window (enter frame clamped to the
    window start). The delay is the time from the clipped enter frame to
    the first frame whose present gaze point lies inside that object's
    box; if the gaze never enters during the clipped span, the delay is
    right-censored at the clipped span duration.
    """
    return float(_one_row(stack, aoi, w, (4,))[0])


def extract(stack: TraceStack, aoi: AoiIndex | None, w: Window, mode: FeatureMode) -> np.ndarray:
    """The feature row of a one-row stack, a float array of
    ``mode.n_features`` values: [F1..F5] with AOI, [F1, F2] without. The
    one-row case of ``extract_stack``; the first rule the row fails
    raises."""
    return _one_row(stack, aoi, w, range(mode.n_features))


def extract_stack(stack: TraceStack, aoi: AoiIndex | None, w: Window,
                  mode: FeatureMode) -> list:
    """``extract`` on every row of a video's stack in one pass: row i's
    feature array, or the ``GazeScreenError`` that ``extract`` raises for
    ``stack.participant_ids[i]``, bit for bit."""
    return _stack_pass(stack, aoi, w, range(mode.n_features))


def _masked_var(values: np.ndarray, mask: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Per-row population variance of ``values`` over ``mask``, two-pass
    like ``np.var``; rows with n = 0 give NaN."""
    mean = np.where(mask, values, 0.0).sum(axis=1) / n
    dev = np.where(mask, values - mean[:, None], 0.0)
    return (dev * dev).sum(axis=1) / n


def _length(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Euclidean length, as ``np.hypot`` up to the last bit and several
    times faster on arrays, computed in one buffer to keep the peak memory
    down. Gaze coordinates are normalised to [0, 1], so the squares do not
    overflow; a row where they do is non-finite."""
    out = dx * dx
    out += dy * dy
    return np.sqrt(out, out=out)


def _nearest_center_distances(x, y, aoi: AoiIndex, lo, hi, length):
    """(participants x window) Manhattan and Euclidean distances from gaze
    to the nearest annotated box centre, the Euclidean one by ``length``
    (``_length`` or ``np.hypot``). A box's centre is NaN on a frame where
    it is not annotated and ``np.fmin`` skips NaN, so no mask is needed;
    a frame with no object annotated is NaN, and both callers read only
    frames both present and annotated. The minimum over objects is
    exact, so it is ``nanmin``'s."""
    manhattan = euclidean = None
    for k in range(len(aoi.object_ids)):
        dx = x - aoi.cx[k, lo:hi]
        dy = y - aoi.cy[k, lo:hi]
        m, e = np.abs(dx) + np.abs(dy), length(dx, dy)
        manhattan = m if k == 0 else np.fmin(manhattan, m, out=manhattan)
        euclidean = e if k == 0 else np.fmin(euclidean, e, out=euclidean)
    return manhattan, euclidean


class VideoTable:
    """The columns of one video's stack that no window changes, built once
    for many ``extract_batch`` windows: F2's eligible-pair mask and step
    lengths ((participants x n_frames - 1); pair f joins frames f and
    f + 1) and, with AOI features, the present-and-annotated mask and F5's
    ``_look_index`` over the whole video. With AOI features the stack's
    ``aoi`` must pass ``require_aoi``. All is read-only."""

    def __init__(self, stack: TraceStack, aoi: AoiIndex | None, mode: FeatureMode):
        if mode is FeatureMode.WITH_AOI:
            require_aoi(stack, aoi)
        self.stack, self.aoi, self.mode = stack, aoi, mode
        present = stack.present
        self.eligible = present[:, :-1] & present[:, 1:] & ~stack.gap[:, 1:]
        with np.errstate(over="ignore", invalid="ignore"):
            self.steps = _length(np.diff(stack.x), np.diff(stack.y))
        columns = [self.eligible, self.steps]
        if mode is FeatureMode.WITH_AOI:
            self.both = present & aoi.any_ann
            self.look = _look_index(present, stack.x, stack.y, aoi, 0, stack.n_frames)
            columns += [self.both, self.look]
        for a in columns:
            a.flags.writeable = False


def extract_batch(table: VideoTable, w: Window) -> tuple[np.ndarray, np.ndarray]:
    """Every row of a table's stack on one window: ``(values, usable)``,
    read from slices of the table.

    Row i of ``values`` (participants x ``mode.n_features``) is what
    ``extract`` gives for ``stack.participant_ids[i]``, up to rounding, and
    F5 bit for bit; ``usable[i]`` is False exactly where ``extract`` raises
    a ``GazeScreenError``, and such rows hold NaN. The rules: F1 needs >= 2
    present frames; F2 >= 2 frames and >= 2 eligible pairs; F3-F4 an
    annotated frame and >= 2 frames both present and annotated; F5 an
    occurrence overlapping the window. A usable row that is not finite
    raises ``NonFiniteFeature``: it is an error, not a reason to redraw.
    """
    stack, aoi, mode = table.stack, table.aoi, table.mode
    lo, hi = frame_range(w, stack.fps, stack.n_frames)
    n_rows = len(stack.participant_ids)
    values = np.full((n_rows, mode.n_features), np.nan)
    usable = np.zeros(n_rows, dtype=bool)
    if hi - lo < 2:
        return values, usable
    present = stack.present[:, lo:hi]
    x = stack.x[:, lo:hi]
    y = stack.y[:, lo:hi]
    eligible = table.eligible[:, lo : hi - 1]
    n_present = present.sum(axis=1)
    n_pairs = eligible.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        columns = [
            np.sqrt(_masked_var(x, present, n_present) + _masked_var(y, present, n_present)),
            np.sqrt(_masked_var(table.steps[:, lo : hi - 1], eligible, n_pairs)),
        ]
        usable = (n_present >= 2) & (n_pairs >= 2)
        if mode is FeatureMode.WITH_AOI:
            try:
                delay = _first_look_delay(table.look[:, :, lo:hi], aoi, lo, hi, stack.fps, w)
            except NoAoiInWindow:  # no annotated frame in the window either
                return values, np.zeros(n_rows, dtype=bool)
            both = table.both[:, lo:hi]
            n_both = both.sum(axis=1)
            manhattan, euclidean = _nearest_center_distances(x, y, aoi, lo, hi, _length)
            columns.append(np.sqrt(_masked_var(manhattan, both, n_both)))
            columns.append(np.sqrt(np.where(both, euclidean * euclidean, 0.0).sum(axis=1) / n_both))
            columns.append(delay)
            usable &= n_both >= 2
    values[usable] = np.column_stack(columns)[usable]
    bad = usable & ~np.isfinite(values).all(axis=1)
    if bad.any():
        pid = stack.participant_ids[int(np.argmax(bad))]
        raise NonFiniteFeature(f"non-finite feature for {pid}/{stack.video_id} in {w}")
    return values, usable
