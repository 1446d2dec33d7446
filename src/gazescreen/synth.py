"""Synthetic cohort generator.

Produces on-disk datasets (manifest + gaze logs + AOI tracks) whose
group-level differences encode the behavioral signature the features
target: ASD-parameterized participants attend to the annotated object less
often, look at it later, and hold longer background fixations. Parameter
magnitudes are invented (only the directions are grounded) and fully
overridable via a spec file.

Generation is deterministic: (spec, seed) -> byte-identical dataset.
``generate_trace_rows`` walks a session one segment at a time and builds
its rows in one array pass; ``write_gaze_log`` formats a whole log at once
with a fixed-point formatter that gives the bytes of a ``%``-format.
``tests/oracles.py`` keeps the sample-by-sample simulator and the ``%``
writer as their bit-for-bit references.
"""
from __future__ import annotations

import bisect
import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .core import Group, Participant, VideoMeta, check_seed, derive_rng
from .errors import ConfigError, IoFailure
from .ingest import (
    AOI_HEADER,
    GAZE_HEADER,
    YAML_DUMPER,
    AoiIndex,
    _checked,
    _unique_ids,
    load_yaml,
    parse_video,
)

# CARS histogram of the 35-participant reference cohort (scores 30..39).
CARS_HISTOGRAM = {30: 3, 31: 5, 32: 6, 33: 4, 34: 5, 35: 7, 36: 3, 37: 0, 38: 1, 39: 1}

AOI_BOX_HALF = 0.05  # ~0.1 x 0.1 normalized box
# generate_aoi_path needs 5 frames: from there its 2-4 spans leave a frame
# uncovered, which keeps two apart; at 4, four spans fill the video as one
MIN_VIDEO_FRAMES = 5

DEFAULT_VIDEOS = (
    VideoMeta("car_pursuit", 24.0, 30.0, 1920, 1080),
    VideoMeta("dialog", 18.0, 30.0, 1920, 1080),
    VideoMeta("case_exchange", 26.0, 30.0, 1920, 1080),
    VideoMeta("ball_game", 26.0, 30.0, 1920, 1080),
)


@dataclass(frozen=True)
class GroupParams:
    """Behavioral parameters for one group's gaze simulator."""

    p_attend: float  # probability a fixation targets the AOI
    latency_mean_s: float  # first-look latency to a new AOI occurrence
    latency_sd_s: float
    fix_dur_aoi_mean_s: float  # exponential mean fixation duration on AOI
    fix_dur_bg_mean_s: float  # ... on background
    jitter_sd: float  # within-fixation noise, normalized units
    saccade_dur_s: float
    offscreen_rate_hz: float  # look-away event rate
    # per-CARS-unit relative parameter shift: value * (1 + coeff*(cars-30))
    severity_coupling: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _NUMERIC_PARAMS:
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if not (0.0 <= self.p_attend <= 1.0):
            raise ValueError("p_attend must be in [0,1]")
        if not isinstance(self.severity_coupling, dict):
            raise ValueError(f"severity_coupling must be a mapping, got {self.severity_coupling!r}")
        for name, coeff in self.severity_coupling.items():
            if name not in _NUMERIC_PARAMS:
                raise ValueError(f"severity_coupling names unknown parameter {name!r}")
            if not (_is_real(coeff) and math.isfinite(coeff)):
                raise ValueError(f"severity_coupling[{name!r}] must be a finite number, got {coeff!r}")

    def for_cars(self, cars: int | None) -> "GroupParams":
        if cars is None or not self.severity_coupling:
            return self
        shift = cars - 30
        values = dataclasses.asdict(self)
        for name, coeff in self.severity_coupling.items():
            values[name] = max(0.0, values[name] * (1.0 + coeff * shift))
        values["p_attend"] = min(1.0, values["p_attend"])
        return GroupParams(**values)


_NUMERIC_PARAMS = tuple(
    f.name for f in dataclasses.fields(GroupParams) if f.name != "severity_coupling"
)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


DEFAULT_CONTROL_PARAMS = GroupParams(
    p_attend=0.75,
    latency_mean_s=0.4,
    latency_sd_s=0.15,
    fix_dur_aoi_mean_s=0.40,
    fix_dur_bg_mean_s=0.25,
    jitter_sd=0.010,
    saccade_dur_s=0.04,
    offscreen_rate_hz=0.02,
)

DEFAULT_ASD_PARAMS = GroupParams(
    p_attend=0.45,
    latency_mean_s=1.2,
    latency_sd_s=0.40,
    fix_dur_aoi_mean_s=0.55,
    fix_dur_bg_mean_s=0.45,
    jitter_sd=0.022,
    saccade_dur_s=0.05,
    offscreen_rate_hz=0.08,
    severity_coupling={
        "p_attend": -0.04,
        "latency_mean_s": 0.08,
        "fix_dur_bg_mean_s": 0.05,
        "offscreen_rate_hz": 0.04,
    },
)


@dataclass(frozen=True)
class CohortSpec:
    n_asd: int = 35
    n_control: int = 25
    videos: tuple = DEFAULT_VIDEOS
    sample_rate_hz: float = 60.0
    asd_params: GroupParams = DEFAULT_ASD_PARAMS
    control_params: GroupParams = DEFAULT_CONTROL_PARAMS
    seed: int = 0

    def __post_init__(self):
        for name in ("n_asd", "n_control"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and _is_real(value) and value >= 1):
                raise ValueError(f"participant counts must be integers >= 1, got {name}={value!r}")
        rate = self.sample_rate_hz
        if not (_is_real(rate) and math.isfinite(rate) and rate > 0):
            raise ValueError(f"sample rate must be finite and positive, got {rate!r}")
        if not self.videos:
            raise ValueError("a cohort needs at least one video")
        for v in self.videos:
            if v.n_frames < MIN_VIDEO_FRAMES:
                raise ValueError(f"video {v.video_id!r} has {v.n_frames} frames, fewer than the "
                                 f"{MIN_VIDEO_FRAMES} its AOI path needs")
        # the files of a video are named by its id
        _unique_ids("video", [v.video_id for v in self.videos])
        check_seed(self.seed)


def load_cohort_spec(path, seed: int) -> CohortSpec:
    """Build a CohortSpec from a YAML override file; any omitted key keeps
    its default. A section of the wrong type, a bad value and two videos of
    one id (their files would share names) are a ConfigError."""
    data = load_yaml(path) or {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: spec must be a mapping")
    kwargs = {"seed": seed}
    for key in ("n_asd", "n_control", "sample_rate_hz"):
        if key in data:
            kwargs[key] = data[key]
    where = f"{path}: bad cohort spec"
    try:
        if "videos" in data:
            kwargs["videos"] = tuple(map(parse_video, _checked(where, data["videos"], list, "videos")))
        for key, default in (("asd_params", DEFAULT_ASD_PARAMS), ("control_params", DEFAULT_CONTROL_PARAMS)):
            if key in data:
                merged = dataclasses.asdict(default)
                merged.update(_checked(where, data[key], dict, key))
                kwargs[key] = GroupParams(**merged)
        return CohortSpec(**kwargs)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def generate_aoi_path(meta: VideoMeta, rng: np.random.Generator) -> AoiIndex:
    """One object moving along a piecewise-linear path, present in 2-4
    contiguous occurrences that together cover >= 60% of frames, on a video
    of at least ``MIN_VIDEO_FRAMES`` frames."""
    n = meta.n_frames
    n_occ = int(rng.integers(2, 5))
    coverage = float(rng.uniform(0.65, 0.85))
    covered = max(n_occ, int(round(coverage * n)))
    # split covered frames into n_occ spans, uncovered into interior gaps
    cuts = np.sort(rng.choice(np.arange(1, covered), size=n_occ - 1, replace=False))
    span_lens = np.diff(np.concatenate(([0], cuts, [covered])))
    uncovered = n - covered
    n_gaps = n_occ + 1
    gap_weights = rng.dirichlet(np.ones(n_gaps))
    gap_lens = np.floor(gap_weights * uncovered).astype(int)
    # interior gaps must be >= 1 so occurrences stay maximal
    for g in range(1, n_gaps - 1):
        if gap_lens[g] == 0:
            gap_lens[g] = 1
    while gap_lens.sum() > uncovered:
        k = int(np.argmax(gap_lens))
        gap_lens[k] -= 1
    gap_lens[0] += uncovered - gap_lens.sum()

    lo, hi = AOI_BOX_HALF + 0.02, 1.0 - AOI_BOX_HALF - 0.02
    frames, cxs, cys = [], [], []
    frame = int(gap_lens[0])
    for k in range(n_occ):
        length = int(span_lens[k])
        # waypoints roughly every second, linear interpolation between them
        n_way = max(2, int(round(length / meta.fps)) + 1)
        way_x = rng.uniform(lo, hi, size=n_way)
        way_y = rng.uniform(lo, hi, size=n_way)
        t = np.linspace(0.0, n_way - 1.0, length)
        cxs.append(np.interp(t, np.arange(n_way), way_x))
        cys.append(np.interp(t, np.arange(n_way), way_y))
        frames.append(np.arange(frame, frame + length))
        frame += length + int(gap_lens[k + 1])
    frames = np.concatenate(frames)
    cx, cy = np.concatenate(cxs), np.concatenate(cys)
    return AoiIndex(
        ["object_0"] * len(frames), frames,
        np.round(cx - AOI_BOX_HALF, 6), np.round(cy - AOI_BOX_HALF, 6),
        np.round(cx + AOI_BOX_HALF, 6), np.round(cy + AOI_BOX_HALF, 6), n,
    )


FIX_DUR_MIN_S = 0.08  # fixation durations are clamped to this range
FIX_DUR_MAX_S = 2.0
LOOK_AWAY_RUN_S = 0.5  # the video keeps running this long into a look-away

# kinds of the segments a session is made of; an attended fixation follows
# the object while it is shown
_LOOK_AWAY, _SACCADE, _FIXATION, _ATTENDED = 0, 1, 2, 3


def _clock(n: int, dt: float) -> np.ndarray:
    """``n`` sums of ``dt``: entry j is 0.0 with ``dt`` added j times, in
    order (``np.cumsum`` adds in order), as repeated ``+= dt`` gives."""
    return np.cumsum(np.concatenate(([0.0], np.full(n - 1, dt))))


def generate_trace_rows(
    params: GroupParams,
    meta: VideoMeta,
    aoi: AoiIndex,
    rng: np.random.Generator,
    sample_rate_hz: float,
) -> np.ndarray:
    """Simulate one viewing session.

    Returns an (n_samples, 5) array of rows (wall_s, video_s, x, y, valid)
    in normalized coordinates, ``valid`` being 1.0 or 0.0. Alternates
    fixations and saccades; look-away runs produce invalid samples, and the
    video pauses once the gaze has been off screen for more than 500 ms
    (video time freezes until the gaze returns). The simulated viewer
    follows the single object of ``aoi``.

    Two passes. A scalar pass walks the session one segment (look-away
    run, saccade or fixation) at a time, draws the RNG in the order of a
    sample-by-sample loop and records each segment's length, target and
    noise. One vectorised pass then builds the columns. Every time is an
    entry of one table of sums of ``dt`` taken in order: after ``i``
    samples the wall clock is entry ``i``, and the video clock is entry
    ``i`` less the frozen look-away samples so far (a frozen sample adds
    0.0, which leaves a sum unchanged, and no recorded video time is ever
    clamped at the clip's end). So the rows are bit-identical to the
    sample-by-sample loop's, which ``tests/oracles.py`` keeps as the
    reference.
    """
    if len(aoi.object_ids) != 1:
        raise ValueError(f"the simulator follows one AOI object, got {len(aoi.object_ids)}")
    dt = 1.0 / sample_rate_hz
    fps = meta.fps
    last_frame = meta.n_frames - 1
    present, cx, cy = aoi.ann[0], aoi.cx[0], aoi.cy[0]
    # video time from which each frame's occurrence can draw a look: one
    # first-look latency per occurrence (inf where no object is shown)
    ready = np.full(meta.n_frames, np.inf)
    for _, enter, exit_ in aoi.occurrences.tolist():
        latency = max(0.0, float(rng.normal(params.latency_mean_s, params.latency_sd_s)))
        ready[enter : exit_ + 1] = enter / fps + latency
    ready_at, shown, cx_at, cy_at = ready.tolist(), present.tolist(), cx.tolist(), cy.tolist()

    # clock[j]: j sample steps from 0, long enough for every video time
    # and fixation; look-aways can carry the wall clock past its end
    clock_at = _clock(int((meta.duration_s + FIX_DUR_MAX_S) * sample_rate_hz) + 8, dt)
    clock = clock_at.tolist()
    n_video = bisect.bisect_left(clock, meta.duration_s - 1e-9)  # video steps in the session
    n_running = bisect.bisect_right(clock, LOOK_AWAY_RUN_S) - 1  # look-away samples the video runs
    n_sac = max(1, int(round(params.saccade_dur_s / dt)))

    # eight numbers per segment: kind, length, video steps before it, video
    # steps it advances, start x and y, x and y step per sample
    segments = []
    noise_blocks = [np.empty((0, 2))]
    i = k = 0  # samples so far; samples that advanced the video
    px, py = 0.5, 0.5
    if params.offscreen_rate_hz > 0:
        next_off = float(rng.exponential(1.0 / params.offscreen_rate_hz))
    else:
        next_off = np.inf

    while k < n_video:
        if clock[i] >= next_off:
            # look-away run: samples invalid; video freezes after 500 ms
            n = bisect.bisect_left(clock, float(rng.uniform(0.6, 1.5)))
            if n_video - k <= n_running:
                n = min(n, n_video - k)
            runs = min(n, n_running)
            segments += (_LOOK_AWAY, n, k, runs, -0.1, -0.1, 0.0, 0.0)
            i += n
            k += runs
            if n_video + i - k >= len(clock):  # i never passes n_video + frozen samples
                clock_at = _clock(2 * (n_video + i - k), dt)
                clock = clock_at.tolist()
            next_off = clock[i] + float(rng.exponential(1.0 / params.offscreen_rate_hz))
            continue

        # choose the next fixation target
        video = clock[k]
        f = min(int(video * fps), last_frame)
        attend = video >= ready_at[f] and rng.random() < params.p_attend
        if attend:
            tx, ty = cx_at[f], cy_at[f]
            fix_dur = float(rng.exponential(params.fix_dur_aoi_mean_s))
        else:
            tx, ty = rng.uniform(0.05, 0.95, size=2).tolist()
            fix_dur = float(rng.exponential(params.fix_dur_bg_mean_s))
        fix_dur = min(max(fix_dur, FIX_DUR_MIN_S), FIX_DUR_MAX_S)

        # saccade: linear sweep from the previous position
        n = min(n_sac, n_video - k)
        segments += (_SACCADE, n, k, n, px, py, tx - px, ty - py)
        i += n
        k += n
        px, py = tx, ty

        # fixation: follow the (possibly moving) target with jitter, until
        # its duration has elapsed or the video ends
        n = min(bisect.bisect_left(clock, fix_dur), n_video - k)
        if n:
            noise = rng.normal(0.0, params.jitter_sd, size=(n, 2))
            noise_blocks.append(noise)
            segments += (_ATTENDED if attend else _FIXATION, n, k, n, tx, ty, 0.0, 0.0)
            i += n
            k += n
            # the next saccade starts where the last sample landed
            nx, ny = noise[-1].tolist()
            f = min(int(clock[k - 1] * fps), last_frame)
            if attend and shown[f]:
                tx, ty = cx_at[f], cy_at[f]
            px, py = tx + nx, ty + ny

    seg = np.array(segments).reshape(-1, 8)
    lengths = seg[:, 1].astype(np.int64)
    kind, _, video_start, runs, x, y, dx, dy = np.repeat(seg, lengths, axis=0).T
    step = np.arange(i) - np.repeat(np.cumsum(lengths) - lengths, lengths)  # sample within segment
    video = clock_at[(video_start + np.minimum(step, runs)).astype(np.int64)]

    sac = kind == _SACCADE
    frac = (step[sac] + 1) / n_sac
    x[sac] = np.clip(x[sac] + dx[sac] * frac, 0, 1)
    y[sac] = np.clip(y[sac] + dy[sac] * frac, 0, 1)
    fix = kind >= _FIXATION
    frames = np.minimum((video[fix] * fps).astype(int), last_frame)
    on = (kind[fix] == _ATTENDED) & present[frames]
    noise = np.concatenate(noise_blocks)
    x[fix] = np.clip(np.where(on, cx[frames], x[fix]) + noise[:, 0], 0, 1)
    y[fix] = np.clip(np.where(on, cy[frames], y[fix]) + noise[:, 1], 0, 1)
    return np.column_stack((clock_at[:i], video, x, y, (kind != _LOOK_AWAY).astype(float)))


def _sample_cars(n_asd: int, rng: np.random.Generator) -> list[int]:
    scores = [s for s, count in sorted(CARS_HISTOGRAM.items()) for _ in range(count)]
    if n_asd == len(scores):
        pool = scores
    else:
        probs = np.array([CARS_HISTOGRAM[s] for s in sorted(CARS_HISTOGRAM)], dtype=float)
        probs /= probs.sum()
        pool = list(rng.choice(sorted(CARS_HISTOGRAM), size=n_asd, p=probs))
    order = rng.permutation(n_asd)
    return [int(pool[i]) for i in order]


def build_participants(spec: CohortSpec) -> list[Participant]:
    rng = derive_rng(spec.seed, "cars")
    cars = _sample_cars(spec.n_asd, rng)
    out = [
        Participant(f"asd_{i:03d}", Group.ASD, cars[i]) for i in range(spec.n_asd)
    ]
    out += [Participant(f"ctl_{i:03d}", Group.CONTROL) for i in range(spec.n_control)]
    return out


# a gaze log line is its two ids, then "%.3f,%.3f,%.2f,%.2f,%d" of the row
_LOG_DECIMALS = (3, 3, 2, 2)
_LOG_UNITS = np.array([10**d for d in _LOG_DECIMALS], dtype=np.int64)[:, None]  # ticks per unit
_LOG_TICKS = _LOG_UNITS.astype(float)
# _DIGITS[:, i] holds the three digits of i
_DIGITS = np.frombuffer("".join(f"{i:03d}" for i in range(1000)).encode(), np.uint8)
_DIGITS = _DIGITS.reshape(1000, 3).T.copy()
_DROP = 0xFF  # marks a byte to leave out; it is never part of UTF-8 text


def _rounded_ticks(values: np.ndarray, ticks: np.ndarray) -> np.ndarray:
    """``|round(v * 10**d)|`` of each number as int64, rounded half to
    even on the exact product, as ``%`` rounds; ``values`` and ``ticks``
    (the float64 products, finite and below 2**53 in magnitude) are (4, n)."""
    q = np.rint(ticks)
    # the float product rounds to the integer the exact one rounds to unless
    # it lies within a few ulps of a half-integer; those few are rounded
    # exactly, from the value's integer ratio
    near_half = 0.5 - np.abs(ticks - q) <= 4 * np.spacing(np.abs(ticks))
    for c, i in np.argwhere(near_half).tolist():
        num, den = float(values[c, i]).as_integer_ratio()
        whole, rem = divmod(num * 10 ** _LOG_DECIMALS[c], den)
        q[c, i] = whole + (2 * rem > den or (2 * rem == den and whole % 2))
    return np.abs(q).astype(np.int64)


def write_gaze_log(path, participant_id: str, video_id: str, rows: np.ndarray) -> None:
    """Write one gaze log. ``rows`` is (n, 5): wall_ts_ms, video_ts_ms,
    x_px, y_px and the valid flag.

    Each line is ``f"{participant_id},{video_id},"`` and then
    ``"%.3f,%.3f,%.2f,%.2f,%d" % row``, byte for byte, made for the whole
    file at once. Each number is rounded to its ticks (thousandths or
    hundredths) as ``%`` rounds, half to even on its exact binary value.
    Its digits come from a table of three-digit groups, written into one
    byte buffer that holds every line at the widest layout; the left
    padding is then dropped with one mask. A row with a number that is not
    finite or has 2**53 ticks or more, or a flag other than 0 or 1, is a
    ``ValueError`` naming the first such row, raised before the file is
    opened. ``tests/oracles.py`` keeps the ``%`` writer as the reference.
    """
    cols = np.ascontiguousarray(rows.T)
    ticks = cols[:4] * _LOG_TICKS
    regular = (np.abs(ticks) < 2.0**53).all(axis=0) & ((cols[4] == 0.0) | (cols[4] == 1.0))
    if not regular.all():
        r = int(np.argmin(regular))
        raise ValueError(f"{path}: row {r} {rows[r].tolist()}: non-finite, too large or bad flag")
    whole, frac = np.divmod(_rounded_ticks(cols[:4], ticks), _LOG_UNITS)
    # a line with each number at its widest
    template = bytearray(f"{participant_id},{video_id},".encode())
    fields = []
    for top, decimals in zip(whole.max(axis=1, initial=0).tolist(), _LOG_DECIMALS):
        n_whole = -(-len(str(top)) // 3) * 3  # whole digits, in groups of three
        fields.append((len(template), n_whole, decimals))
        template += b"-" + b"0" * n_whole + b"." + b"0" * decimals + b","
    template += b"0\n"
    # line[j] is byte j of every line, so each write below is contiguous
    line = np.empty((len(template), cols.shape[1]), np.uint8)
    line[:] = np.frombuffer(bytes(template), np.uint8)[:, None]
    for c, (col, n_whole, decimals) in enumerate(fields):
        line[col] = np.where(np.signbit(cols[c]), ord("-"), _DROP)  # as %, -0.0 has a sign
        rest = whole[c]
        for at in range(col + n_whole - 2, col, -3):  # three digits at a time, from the right
            rest, group = np.divmod(rest, 1000)
            line[at : at + 3] = _DIGITS.take(group, axis=1)
        # drop the whole part's left padding; its units digit stays
        places = 10 ** np.arange(n_whole - 1, 0, -1)
        np.putmask(line[col + 1 : col + n_whole], whole[c] < places[:, None], _DROP)
        at = col + n_whole + 2
        line[at : at + decimals] = _DIGITS[3 - decimals :].take(frac[c], axis=1)
    line[-2] = np.where(cols[4] == 1.0, ord("1"), ord("0"))
    flat = line.T.ravel()
    with open(path, "wb") as fh:
        fh.write((",".join(GAZE_HEADER) + "\n").encode() + flat[flat != _DROP].tobytes())


def generate_cohort(spec: CohortSpec, out_dir) -> Path:
    """Write a complete dataset (manifest + logs + AOI tracks + resolved
    generator config) under ``out_dir``. Returns the manifest path."""
    out = Path(out_dir)
    try:
        (out / "logs").mkdir(parents=True, exist_ok=True)
        (out / "aoi").mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoFailure(f"cannot create output directory {out}: {e}") from e

    participants = build_participants(spec)
    indexes = {
        meta.video_id: generate_aoi_path(meta, derive_rng(spec.seed, "aoi", meta.video_id))
        for meta in spec.videos
    }

    manifest = {
        "videos": [
            {
                "id": m.video_id,
                "duration_s": m.duration_s,
                "fps": m.fps,
                "width_px": m.width_px,
                "height_px": m.height_px,
            }
            for m in spec.videos
        ],
        "participants": [],
        "gaze_logs": {},
        "aoi_tracks": {},
    }

    try:
        for meta in spec.videos:
            rel = f"aoi/{meta.video_id}.csv"
            manifest["aoi_tracks"][meta.video_id] = rel
            with (out / rel).open("w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(AOI_HEADER) + "\n")
                aoi = indexes[meta.video_id]
                for f, k in np.argwhere(aoi.ann.T).tolist():  # (frame, object) order
                    fh.write(
                        f"{meta.video_id},{f},{aoi.object_ids[k]},"
                        f"{aoi.x_min[k, f] * meta.width_px:.3f},"
                        f"{aoi.y_min[k, f] * meta.height_px:.3f},"
                        f"{aoi.x_max[k, f] * meta.width_px:.3f},"
                        f"{aoi.y_max[k, f] * meta.height_px:.3f}\n"
                    )

        for p in participants:
            entry = {"id": p.participant_id, "group": p.group.value}
            if p.cars is not None:
                entry["cars"] = p.cars
            manifest["participants"].append(entry)
            base_params = spec.asd_params if p.group is Group.ASD else spec.control_params
            params = base_params.for_cars(p.cars)
            manifest["gaze_logs"][p.participant_id] = {}
            for meta in spec.videos:
                rel = f"logs/{p.participant_id}__{meta.video_id}.csv"
                manifest["gaze_logs"][p.participant_id][meta.video_id] = rel
                rng = derive_rng(spec.seed, "trace", p.participant_id, meta.video_id)
                rows = generate_trace_rows(params, meta, indexes[meta.video_id], rng, spec.sample_rate_hz)
                scaled = rows * (1000.0, 1000.0, meta.width_px, meta.height_px, 1.0)
                write_gaze_log(out / rel, p.participant_id, meta.video_id, scaled)

        manifest_path = out / "manifest.yaml"
        manifest_path.write_text(
            yaml.dump(manifest, Dumper=YAML_DUMPER, sort_keys=False), encoding="utf-8"
        )
        config = {
            "seed": spec.seed,
            "n_asd": spec.n_asd,
            "n_control": spec.n_control,
            "sample_rate_hz": spec.sample_rate_hz,
            "asd_params": dataclasses.asdict(spec.asd_params),
            "control_params": dataclasses.asdict(spec.control_params),
        }
        (out / "generator_config.yaml").write_text(
            yaml.dump(config, Dumper=YAML_DUMPER, sort_keys=False), encoding="utf-8"
        )
    except OSError as e:
        raise IoFailure(f"failed writing dataset under {out}: {e}") from e
    return manifest_path
