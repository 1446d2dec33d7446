"""Synthetic cohort generator.

Produces on-disk datasets (manifest + gaze logs + AOI tracks) whose
group-level differences encode the behavioral signature the features
target: ASD-parameterized participants attend to the annotated object less
often, look at it later, and hold longer background fixations. Parameter
magnitudes are invented (only the directions are grounded) and fully
overridable via a spec file.

Generation is deterministic: (spec, seed) -> byte-identical dataset.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .core import Group, Participant, VideoMeta
from .errors import ConfigError, IoFailure
from .experiments import derive_rng
from .ingest import AoiIndex, load_yaml, parse_video

# CARS histogram of the 35-participant reference cohort (scores 30..39).
CARS_HISTOGRAM = {30: 3, 31: 5, 32: 6, 33: 4, 34: 5, 35: 7, 36: 3, 37: 0, 38: 1, 39: 1}

AOI_BOX_HALF = 0.05  # ~0.1 x 0.1 normalized box

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


def load_cohort_spec(path, seed: int) -> CohortSpec:
    """Build a CohortSpec from a YAML override file; any omitted key keeps
    its default."""
    data = load_yaml(path) or {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: spec must be a mapping")
    kwargs = {"seed": seed}
    for key in ("n_asd", "n_control", "sample_rate_hz"):
        if key in data:
            kwargs[key] = data[key]
    try:
        if "videos" in data:
            kwargs["videos"] = tuple(map(parse_video, data["videos"]))
        for key, default in (("asd_params", DEFAULT_ASD_PARAMS), ("control_params", DEFAULT_CONTROL_PARAMS)):
            if key in data:
                merged = dataclasses.asdict(default)
                merged.update(data[key])
                kwargs[key] = GroupParams(**merged)
        return CohortSpec(**kwargs)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{path}: bad cohort spec: {e}") from e


def generate_aoi_path(meta: VideoMeta, rng: np.random.Generator) -> AoiIndex:
    """One object moving along a piecewise-linear path, present in 2-4
    contiguous occurrences that together cover >= 60% of frames."""
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
        shown = max(0, min(length, n - frame))  # the last span may run past the video
        cxs.append(np.interp(t, np.arange(n_way), way_x)[:shown])
        cys.append(np.interp(t, np.arange(n_way), way_y)[:shown])
        frames.append(np.arange(frame, frame + shown))
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

    Each fixation is one array step. Time advances by repeated ``+ dt``
    (``np.cumsum`` adds in order) and the RNG is drawn in the order of a
    sample-by-sample loop, so the rows are bit-identical to that loop's
    (``tests/oracles.py`` keeps it as the reference).
    """
    if len(aoi.object_ids) != 1:
        raise ValueError(f"the simulator follows one AOI object, got {len(aoi.object_ids)}")
    dt = 1.0 / sample_rate_hz
    end = meta.duration_s - 1e-9
    last_frame = meta.n_frames - 1
    present, cx, cy = aoi.ann[0], aoi.cx[0], aoi.cy[0]
    # video time from which each frame's occurrence can draw a look: one
    # first-look latency per occurrence (inf where no object is shown)
    ready = np.full(meta.n_frames, np.inf)
    for occ in aoi.occurrences:
        latency = max(0.0, float(rng.normal(params.latency_mean_s, params.latency_sd_s)))
        ready[occ.enter_frame : occ.exit_frame + 1] = occ.enter_frame / meta.fps + latency
    ready_at = ready.tolist()
    # elapsed[j]: time into a fixation after j samples
    elapsed = np.concatenate(([0.0], np.cumsum(np.full(int(FIX_DUR_MAX_S * sample_rate_hz) + 3, dt))))
    n_sac = max(1, int(round(params.saccade_dur_s / dt)))

    wall_col, video_col, x_col, y_col, valid_col = cols = ([], [], [], [], [])
    wall = 0.0
    video = 0.0
    px, py = 0.5, 0.5
    if params.offscreen_rate_hz > 0:
        next_off = float(rng.exponential(1.0 / params.offscreen_rate_hz))
    else:
        next_off = np.inf

    while video < end:
        if wall >= next_off:
            # look-away run: samples invalid; video freezes after 500 ms
            off_dur = float(rng.uniform(0.6, 1.5))
            off_s = 0.0
            while off_s < off_dur and video < end:
                for col, v in zip(cols, (wall, video, -0.1, -0.1, 0.0)):
                    col.append(v)
                wall += dt
                off_s += dt
                if off_s <= 0.5:
                    video = min(video + dt, meta.duration_s)
            next_off = wall + float(rng.exponential(1.0 / params.offscreen_rate_hz))
            continue

        # choose the next fixation target
        f = min(int(video * meta.fps), last_frame)
        attend = video >= ready_at[f] and rng.random() < params.p_attend
        if attend:
            tx, ty = float(cx[f]), float(cy[f])
            fix_dur = float(rng.exponential(params.fix_dur_aoi_mean_s))
        else:
            tx, ty = rng.uniform(0.05, 0.95, size=2).tolist()
            fix_dur = float(rng.exponential(params.fix_dur_bg_mean_s))
        fix_dur = min(max(fix_dur, FIX_DUR_MIN_S), FIX_DUR_MAX_S)

        # saccade: linear sweep from the previous position
        for k in range(1, n_sac + 1):
            if video >= end:
                break
            frac = k / n_sac
            for col, v in zip(cols, (wall, video, px + (tx - px) * frac, py + (ty - py) * frac, 1.0)):
                col.append(v)
            wall += dt
            video = min(video + dt, meta.duration_s)
        px, py = tx, ty

        # fixation: follow the (possibly moving) target with jitter, until
        # its duration has elapsed or the video ends
        n_fix = int(np.searchsorted(elapsed, fix_dur))
        times = np.empty((2, n_fix + 1))
        times[:, 0] = wall, video
        times[:, 1:] = dt
        np.cumsum(times, axis=1, out=times)
        n = min(n_fix, int(np.searchsorted(times[1], end)))
        if n:
            noise = rng.normal(0.0, params.jitter_sd, size=(n, 2))
            if attend:
                frames = np.minimum((times[1, :n] * meta.fps).astype(int), last_frame)
                on = present[frames]
                xs = np.where(on, cx[frames], tx) + noise[:, 0]
                ys = np.where(on, cy[frames], ty) + noise[:, 1]
            else:
                xs = tx + noise[:, 0]
                ys = ty + noise[:, 1]
            wall_col += times[0, :n].tolist()
            video_col += times[1, :n].tolist()
            x_col += xs.tolist()
            y_col += ys.tolist()
            valid_col += [1.0] * n
            px, py = x_col[-1], y_col[-1]
        wall = float(times[0, n])
        video = min(float(times[1, n]), meta.duration_s)

    rows = np.array(cols).T
    valid = rows[:, 4] == 1.0
    rows[valid, 2:4] = np.clip(rows[valid, 2:4], 0, 1)
    return rows


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
                fh.write("video_id,frame_index,object_id,x_min_px,y_min_px,x_max_px,y_max_px\n")
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
                # one %-format for the whole log gives the same strings as
                # an f-string per row
                fmt = f"{p.participant_id},{meta.video_id},".replace("%", "%%") + "%.3f,%.3f,%.2f,%.2f,%d\n"
                with (out / rel).open("w", encoding="utf-8", newline="\n") as fh:
                    fh.write("participant_id,video_id,wall_ts_ms,video_ts_ms,x_px,y_px,valid\n")
                    fh.write((fmt * len(rows)) % tuple(scaled.ravel().tolist()))

        manifest_path = out / "manifest.yaml"
        manifest_path.write_text(
            yaml.safe_dump(manifest, sort_keys=False), encoding="utf-8"
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
            yaml.safe_dump(config, sort_keys=False), encoding="utf-8"
        )
    except OSError as e:
        raise IoFailure(f"failed writing dataset under {out}: {e}") from e
    return manifest_path
