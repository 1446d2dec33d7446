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
``extract`` maps the window to frames once and shares one gaze-to-centre
distance pass between F3 and F4; the ``feature_*`` functions compute a
single feature on their own.

``extract`` is the definition of the features, one trace at a time: it
returns a float array and signals an unusable window by raising.
``extract_batch`` is the duration protocol's fast path: every participant
of a video on one shared window, read from the video's ``TraceStack``.
F1-F4 are masked row reductions of the (participants x window) slice, with
the same two-pass population variance as ``extract``. The same pass returns
which rows ``extract`` would reject. F5 has one definition for both
engines: it loops over the few occurrences, vectorised over rows, and
``extract`` passes its trace as one row, so the two give the same bits.
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


def full_window(aligned: AlignedTrace) -> Window:
    return Window(0.0, aligned.n_frames / aligned.fps)


def frame_range(w: Window, fps: float, n_frames: int) -> tuple[int, int]:
    """Half-open frame index range [lo, hi) of frames whose timestamp
    f/fps falls inside the window."""
    lo = int(math.ceil(w.start_s * fps - 1e-9))
    hi = int(math.ceil(w.end_s * fps - 1e-9))
    return max(lo, 0), min(hi, n_frames)


def _std_pop(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean((values - values.mean()) ** 2)))


def _frames(aligned: AlignedTrace, w: Window) -> tuple[int, int]:
    return frame_range(w, aligned.fps, aligned.n_frames)


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


def _std_gaze(aligned, lo, hi, w) -> float:
    mask = aligned.present[lo:hi]
    if int(mask.sum()) < 2:
        raise InsufficientData(f"F1 needs >= 2 present frames in {w}")
    xs = aligned.x[lo:hi][mask]
    ys = aligned.y[lo:hi][mask]
    return float(np.sqrt(np.var(xs) + np.var(ys)))


def _std_diff(aligned, lo, hi, w) -> float:
    if hi - lo < 2:
        raise InsufficientData(f"F2 needs >= 2 frames in {w}")
    p = aligned.present[lo:hi]
    eligible = p[:-1] & p[1:] & ~aligned.gap[lo + 1 : hi]
    if int(eligible.sum()) < 2:
        raise InsufficientData(f"F2 needs >= 2 eligible consecutive pairs in {w}")
    dx = np.diff(aligned.x[lo:hi])[eligible]
    dy = np.diff(aligned.y[lo:hi])[eligible]
    return _std_pop(np.hypot(dx, dy))


def _center_distances(aligned, aoi: AoiIndex, lo, hi, w):
    """Manhattan and Euclidean distance from gaze to the nearest annotated
    box center (nearest under each metric), over frames in [lo, hi) that
    are both present and annotated."""
    if not aoi.any_ann[lo:hi].any():
        raise NoAoiInWindow(f"no annotated frame in {w}")
    both = aligned.present[lo:hi] & aoi.any_ann[lo:hi]
    cols = np.nonzero(both)[0] + lo
    if len(cols) == 0:
        return np.empty(0), np.empty(0)
    dx = aligned.x[cols] - aoi.cx[:, cols]
    dy = aligned.y[cols] - aoi.cy[:, cols]
    # min over annotated objects only; NaN rows are unannotated objects
    ann = aoi.ann[:, cols]
    manhattan = np.nanmin(np.where(ann, np.abs(dx) + np.abs(dy), np.nan), axis=0)
    euclidean = np.nanmin(np.where(ann, np.hypot(dx, dy), np.nan), axis=0)
    return manhattan, euclidean


def _std_manhattan(manhattan, w) -> float:
    if len(manhattan) < 2:
        raise InsufficientData(f"F3 needs >= 2 present+annotated frames in {w}")
    return _std_pop(manhattan)


def _rmse(euclidean, w) -> float:
    if len(euclidean) < 1:
        raise NoAoiInWindow(f"no frame both present and annotated in {w}")
    return float(np.sqrt(np.mean(euclidean**2)))


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


def feature_std_gaze(aligned: AlignedTrace, w: Window) -> float:
    """F1: sqrt of summed per-axis population variances of gaze points."""
    return _std_gaze(aligned, *_frames(aligned, w), w)


def feature_std_diff(aligned: AlignedTrace, w: Window) -> float:
    """F2: population std of Euclidean displacement between consecutive
    frames. Pairs spanning a gap flag are excluded."""
    return _std_diff(aligned, *_frames(aligned, w), w)


def feature_std_manhattan(aligned: AlignedTrace, aoi: AoiIndex, w: Window) -> float:
    """F3: population std of the Manhattan distance from gaze to the
    nearest annotated box center, over frames that are both present and
    annotated."""
    require_aoi(aligned, aoi)
    manhattan, _ = _center_distances(aligned, aoi, *_frames(aligned, w), w)
    return _std_manhattan(manhattan, w)


def feature_rmse_aoi(aligned: AlignedTrace, aoi: AoiIndex, w: Window) -> float:
    """F4: RMS Euclidean distance from gaze to the nearest annotated box
    center, paired frame by frame."""
    require_aoi(aligned, aoi)
    _, euclidean = _center_distances(aligned, aoi, *_frames(aligned, w), w)
    return _rmse(euclidean, w)


def feature_delay(aligned: AlignedTrace, aoi: AoiIndex, w: Window) -> float:
    """F5: mean first-look delay in seconds, averaged over all AOI
    occurrences overlapping the window.

    Each occurrence is clipped to the window (enter frame clamped to the
    window start). The delay is the time from the clipped enter frame to
    the first frame whose present gaze point lies inside that object's
    box; if the gaze never enters during the clipped span, the delay is
    right-censored at the clipped span duration.
    """
    require_aoi(aligned, aoi)
    return float(_first_look_delay(aligned, aoi, *_frames(aligned, w), w)[0])


def extract(
    aligned: AlignedTrace,
    aoi: AoiIndex | None,
    w: Window,
    mode: FeatureMode,
) -> np.ndarray:
    """Single-video feature row, a float array of ``mode.n_features``
    values: [F1..F5] with AOI, [F1, F2] without. A value that is not
    finite raises ``NonFiniteFeature``, as in ``extract_batch``."""
    lo, hi = _frames(aligned, w)
    values = [_std_gaze(aligned, lo, hi, w), _std_diff(aligned, lo, hi, w)]
    if mode is FeatureMode.WITH_AOI:
        require_aoi(aligned, aoi)
        manhattan, euclidean = _center_distances(aligned, aoi, lo, hi, w)
        values.append(_std_manhattan(manhattan, w))
        values.append(_rmse(euclidean, w))
        values.append(float(_first_look_delay(aligned, aoi, lo, hi, w)[0]))
    row = np.array(values)
    if not np.isfinite(row).all():
        raise NonFiniteFeature(
            f"non-finite feature for {aligned.participant_id}/{aligned.video_id} in {w}"
        )
    return row


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


def _nearest_center_distances(x, y, aoi: AoiIndex, lo, hi):
    """(participants x window) Manhattan and Euclidean distances from gaze
    to the nearest annotated box centre; inf where no object is annotated."""
    manhattan = euclidean = np.inf
    for k in range(len(aoi.object_ids)):
        ann = aoi.ann[k, lo:hi]
        dx = x - aoi.cx[k, lo:hi]
        dy = y - aoi.cy[k, lo:hi]
        manhattan = np.minimum(manhattan, np.where(ann, np.abs(dx) + np.abs(dy), np.inf))
        euclidean = np.minimum(euclidean, np.where(ann, _length(dx, dy), np.inf))
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
            manhattan, euclidean = _nearest_center_distances(x, y, aoi, lo, hi)
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
