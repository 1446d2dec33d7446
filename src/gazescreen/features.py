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
video and keeps it on the ``Dataset``; nothing here caches indexes between
calls.

``extract`` is the definition of the features, one trace at a time: it
returns a float array and signals an unusable window by raising. It is the
one-row case of ``extract_stack``, which featurises every row of a video's
``TraceStack`` on one window in one pass: the masks, step lengths and
nearest-centre distances are computed once for all rows, and each row is
reduced on its own compressed values, so every row has ``extract``'s bits
and error. The ``feature_*`` functions run the same pass for a single
feature, with that feature's rules only.
``extract_batch`` is the duration protocol's fast path: every participant
of a video on one shared window, read from the video's ``TraceStack``.
F1-F4 are masked row reductions of the (participants x window) slice, with
the same two-pass population variance as ``extract``. The same pass returns
which rows ``extract`` would reject. F5 has one definition for both
engines: it loops over the few occurrences, vectorised over rows, so the
two give the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FeatureMode
from .errors import ConfigError, InsufficientData, NoAoiInWindow, NoAoiTrack, NonFiniteFeature
from .ingest import AlignedTrace, AoiIndex, TraceStack


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


def full_window(video: AlignedTrace | TraceStack) -> Window:
    return Window(0.0, video.n_frames / video.fps)


def frame_range(w: Window, fps: float, n_frames: int) -> tuple[int, int]:
    """Half-open frame index range [lo, hi) of frames whose timestamp
    f/fps falls inside the window."""
    lo = int(math.ceil(w.start_s * fps - 1e-9))
    hi = int(math.ceil(w.end_s * fps - 1e-9))
    return max(lo, 0), min(hi, n_frames)


def _std_pop(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean((values - values.mean()) ** 2)))


def require_aoi(video: AlignedTrace | TraceStack, aoi: AoiIndex | None) -> None:
    """Check that ``aoi`` indexes the video of a trace or a stack: a
    missing track is a ``NoAoiTrack``, a frame count that differs from
    the video's a ``ValueError``."""
    if aoi is None:
        raise NoAoiTrack(video.video_id)
    if aoi.n_frames != video.n_frames:
        raise ValueError(
            f"AOI index has {aoi.n_frames} frames, {type(video).__name__} has {video.n_frames}"
        )


def _first_look_delay(video: AlignedTrace | TraceStack, aoi: AoiIndex, lo, hi, w) -> np.ndarray:
    """F5 on frames [lo, hi) of every row of a stack, or of a trace as one
    row; a window that no occurrence overlaps is a ``NoAoiInWindow``."""
    present, x, y = np.atleast_2d(video.present, video.x, video.y)
    delays = []
    for occ in aoi.occurrences:
        enter = max(occ.enter_frame, lo)
        exit_ = min(occ.exit_frame, hi - 1)
        if enter > exit_:
            continue
        k = aoi.row[occ.object_id]
        span = slice(enter, exit_ + 1)
        xs = x[:, span]
        ys = y[:, span]
        inside = (
            present[:, span]
            & (xs >= aoi.x_min[k, span])
            & (xs <= aoi.x_max[k, span])
            & (ys >= aoi.y_min[k, span])
            & (ys <= aoi.y_max[k, span])
        )
        first = np.where(inside.any(axis=1), inside.argmax(axis=1), exit_ - enter + 1)
        delays.append(first / video.fps)
    if not delays:
        raise NoAoiInWindow(f"no AOI occurrence overlaps {w}")
    return np.column_stack(delays).mean(axis=1)


def _stack_pass(video: AlignedTrace | TraceStack, aoi: AoiIndex | None, w: Window,
                features) -> list:
    """The values of ``features`` (indices into F1..F5, in order) on window
    ``w`` for every row of a stack, or of a trace as one row: row i's float
    array, or the ``GazeScreenError`` that rejects it (rows rejected for
    one reason share one error).

    The element-wise work runs once over all rows; each row's reductions
    are the 1-D ones of its own compressed values, so a row's bits do not
    depend on the other rows. A row is checked in this order, each feature
    only for its own rules: F1 needs >= 2 present frames; F2 >= 2 frames
    and >= 2 eligible pairs; F3-F5 an AOI track (``require_aoi``); F3-F4
    an annotated frame in the window, and >= 2 (F3) or >= 1 (F4) frames
    both present and annotated; F5 an occurrence overlapping the window.
    Last, a value that is not finite is a ``NonFiniteFeature``."""
    pids = video.participant_ids if isinstance(video, TraceStack) else (video.participant_id,)
    lo, hi = frame_range(w, video.fps, video.n_frames)
    present, x, y, gap = np.atleast_2d(video.present, video.x, video.y, video.gap)
    present, x, y = present[:, lo:hi], x[:, lo:hi], y[:, lo:hi]
    out = [None] * len(pids)
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
        columns.append(lambda r: np.sqrt(np.var(x[r][present[r]]) + np.var(y[r][present[r]])))
    if 1 in features:
        eligible = present[:, :-1] & present[:, 1:] & ~gap[:, lo + 1 : hi]
        if not reject(hi - lo >= 2, InsufficientData(f"F2 needs >= 2 frames in {w}")):
            return out
        if not reject(eligible.sum(axis=1) >= 2,
                      InsufficientData(f"F2 needs >= 2 eligible consecutive pairs in {w}")):
            return out
        steps = np.diff(x)
        np.hypot(steps, np.diff(y), out=steps)
        columns.append(lambda r: _std_pop(steps[r][eligible[r]]))
    if max(features) >= 2:
        try:
            require_aoi(video, aoi)
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
            columns.append(lambda r: _std_pop(manhattan[r][both[r]]))
        if 3 in features:
            columns.append(lambda r: np.sqrt(np.mean(euclidean[r][both[r]] ** 2)))
    if 4 in features:
        try:
            delay = _first_look_delay(video, aoi, lo, hi, w)
        except NoAoiInWindow as e:
            reject(False, e)
            return out
        columns.append(delay.__getitem__)
    for r, pid in enumerate(pids):
        if out[r] is None:
            row = np.array([float(value(r)) for value in columns])
            out[r] = row if np.isfinite(row).all() else NonFiniteFeature(
                f"non-finite feature for {pid}/{video.video_id} in {w}")
    return out


def _one_row(aligned: AlignedTrace, aoi: AoiIndex | None, w: Window, features) -> np.ndarray:
    (row,) = _stack_pass(aligned, aoi, w, features)
    if not isinstance(row, np.ndarray):
        raise row
    return row


def feature_std_gaze(aligned: AlignedTrace, w: Window) -> float:
    """F1: sqrt of summed per-axis population variances of gaze points."""
    return float(_one_row(aligned, None, w, (0,))[0])


def feature_std_diff(aligned: AlignedTrace, w: Window) -> float:
    """F2: population std of Euclidean displacement between consecutive
    frames. Pairs spanning a gap flag are excluded."""
    return float(_one_row(aligned, None, w, (1,))[0])


def feature_std_manhattan(aligned: AlignedTrace, aoi: AoiIndex, w: Window) -> float:
    """F3: population std of the Manhattan distance from gaze to the
    nearest annotated box center, over frames that are both present and
    annotated."""
    return float(_one_row(aligned, aoi, w, (2,))[0])


def feature_rmse_aoi(aligned: AlignedTrace, aoi: AoiIndex, w: Window) -> float:
    """F4: RMS Euclidean distance from gaze to the nearest annotated box
    center, paired frame by frame."""
    return float(_one_row(aligned, aoi, w, (3,))[0])


def feature_delay(aligned: AlignedTrace, aoi: AoiIndex, w: Window) -> float:
    """F5: mean first-look delay in seconds, averaged over all AOI
    occurrences overlapping the window.

    Each occurrence is clipped to the window (enter frame clamped to the
    window start). The delay is the time from the clipped enter frame to
    the first frame whose present gaze point lies inside that object's
    box; if the gaze never enters during the clipped span, the delay is
    right-censored at the clipped span duration.
    """
    return float(_one_row(aligned, aoi, w, (4,))[0])


def extract(
    aligned: AlignedTrace,
    aoi: AoiIndex | None,
    w: Window,
    mode: FeatureMode,
) -> np.ndarray:
    """Single-video feature row, a float array of ``mode.n_features``
    values: [F1..F5] with AOI, [F1, F2] without. The one-row case of
    ``extract_stack``; the first rule the trace fails raises."""
    return _one_row(aligned, aoi, w, range(mode.n_features))


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
    (``_length`` or ``np.hypot``); inf where no object is annotated. The
    minimum over objects is exact, so it is ``nanmin``'s."""
    manhattan = euclidean = np.inf
    for k in range(len(aoi.object_ids)):
        ann = aoi.ann[k, lo:hi]
        dx = x - aoi.cx[k, lo:hi]
        dy = y - aoi.cy[k, lo:hi]
        manhattan = np.minimum(manhattan, np.where(ann, np.abs(dx) + np.abs(dy), np.inf))
        euclidean = np.minimum(euclidean, np.where(ann, length(dx, dy), np.inf))
    return manhattan, euclidean


def extract_batch(
    stack: TraceStack, aoi: AoiIndex | None, w: Window, mode: FeatureMode
) -> tuple[np.ndarray, np.ndarray]:
    """Every row of a video's stack on one window: ``(values, usable)``.

    Row i of ``values`` (participants x ``mode.n_features``) is what
    ``extract`` gives for ``stack.participant_ids[i]``, up to rounding;
    ``usable[i]`` is False exactly where ``extract`` raises a
    ``GazeScreenError``, and such rows hold NaN. The rules: F1 needs >= 2
    present frames; F2 >= 2 frames and >= 2 eligible pairs; F3-F4 an
    annotated frame and >= 2 frames both present and annotated; F5 an
    occurrence overlapping the window. A usable row that is not finite
    raises ``NonFiniteFeature``: it is an error, not a reason to redraw.
    """
    if mode is FeatureMode.WITH_AOI:
        require_aoi(stack, aoi)
    lo, hi = frame_range(w, stack.fps, stack.n_frames)
    n_rows = len(stack.participant_ids)
    values = np.full((n_rows, mode.n_features), np.nan)
    usable = np.zeros(n_rows, dtype=bool)
    if hi - lo < 2:
        return values, usable
    present = stack.present[:, lo:hi]
    x = stack.x[:, lo:hi]
    y = stack.y[:, lo:hi]
    eligible = present[:, :-1] & present[:, 1:] & ~stack.gap[:, lo + 1 : hi]
    n_present = present.sum(axis=1)
    n_pairs = eligible.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        columns = [
            np.sqrt(_masked_var(x, present, n_present) + _masked_var(y, present, n_present)),
            np.sqrt(_masked_var(_length(np.diff(x), np.diff(y)), eligible, n_pairs)),
        ]
        usable = (n_present >= 2) & (n_pairs >= 2)
        if mode is FeatureMode.WITH_AOI:
            try:
                delay = _first_look_delay(stack, aoi, lo, hi, w)
            except NoAoiInWindow:  # no annotated frame in the window either
                return values, np.zeros(n_rows, dtype=bool)
            both = present & aoi.any_ann[lo:hi]
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
