import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

ACCEPTANCE_RESULTS = []


def record_acceptance(number, description, ok, detail=""):
    """One pass/fail line per acceptance criterion, echoed at session end."""
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_RESULTS.append(f"[{verdict}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)

from gazescreen.ingest import AlignedTrace, AoiIndex, GazeTrace, TraceStack
from gazescreen.pipeline import load_dataset
from gazescreen.synth import CohortSpec, generate_cohort


def gaze_trace(samples, participant_id="p", video_id="v"):
    """A columnar GazeTrace from (wall_ms, video_ms, x, y, valid) tuples."""
    wall, video, x, y, valid = zip(*samples) if samples else ((),) * 5
    return GazeTrace(
        participant_id=participant_id,
        video_id=video_id,
        wall_ts=np.array(wall, dtype=float),
        video_ts=np.array(video, dtype=float),
        x=np.array(x, dtype=float),
        y=np.array(y, dtype=float),
        valid=np.array(valid, dtype=bool),
    )


def random_aligned(rng, n_frames=20, fps=10.0, p_present=0.85, pid="p0", vid="v0"):
    """A random small AlignedTrace for oracle comparisons."""
    present = rng.random(n_frames) < p_present
    if present.sum() < 3:
        present[:3] = True
    x = np.where(present, rng.random(n_frames), np.nan)
    y = np.where(present, rng.random(n_frames), np.nan)
    gap = np.zeros(n_frames, dtype=bool)
    gap[1:] = ~present[:-1]
    extra = rng.random(n_frames) < 0.1
    gap[1:] |= extra[1:]
    wall = np.where(present, np.arange(n_frames) / fps, np.nan)
    return AlignedTrace(
        participant_id=pid,
        video_id=vid,
        fps=fps,
        present=present,
        x=x,
        y=y,
        gap=gap,
        wall_s=wall,
    )


def stack_traces(traces):
    """A frozen TraceStack of one video's traces, and the traces re-read
    from their stack rows, in row (sorted id) order."""
    first = traces[0]
    traces = sorted(traces, key=lambda t: t.participant_id)
    stack = TraceStack(first.video_id, first.fps, [t.participant_id for t in traces],
                       first.n_frames)
    for i, t in enumerate(traces):
        for name in TraceStack._COLUMNS:
            getattr(stack, name)[i] = getattr(t, name)
    stack.freeze()
    rows = [dataclasses.replace(t, **{name: getattr(stack, name)[i] for name in TraceStack._COLUMNS})
            for i, t in enumerate(traces)]
    return stack, rows


def seeded_trace(rng, pid, vid, n_frames, fps):
    """A random trace of one of five shapes: as ``random_aligned`` draws
    it, present on alternate frames only, with at most one present frame,
    with a run of gap flags, or with coordinates so large that its
    variances overflow."""
    at = random_aligned(rng, n_frames=n_frames, fps=fps,
                        p_present=float(rng.choice([0.3, 0.8, 1.0])), pid=pid, vid=vid)
    present, gap, scale = at.present.copy(), at.gap.copy(), 1.0
    kind = int(rng.integers(5))
    if kind == 1:
        present &= np.arange(n_frames) % 2 == 0
    elif kind == 2:
        present[1:] = False
    elif kind == 3:
        start, stop = sorted(rng.integers(0, n_frames + 1, size=2).tolist())
        gap[start:stop] = True
    elif kind == 4:
        scale = 1e300
    x = np.where(present, at.x * scale, np.nan)
    y = np.where(present, at.y, np.nan)
    return dataclasses.replace(at, present=present, x=x, y=y, gap=gap)


def seeded_video(rng, pids, vid):
    """A frozen TraceStack of ``seeded_trace``s of ``pids`` (1-29 frames),
    the traces re-read from its rows, and an AOI index of the video: none,
    one with no box, or 1-3 objects annotated on a random share of frames,
    so that each object's track has holes."""
    n_frames = int(rng.integers(1, 30))
    fps = float(rng.choice([4.0, 10.0]))
    stack, rows = stack_traces([seeded_trace(rng, pid, vid, n_frames, fps) for pid in pids])
    track = int(rng.integers(4))
    if track == 0:
        return stack, rows, None
    boxes = [] if track == 1 else random_aoi(rng, n_frames, int(rng.integers(1, 4)),
                                             float(rng.choice([0.1, 0.4, 0.9])))
    return stack, rows, aoi_index(boxes, n_frames)


class Box(NamedTuple):
    """One annotated box in normalized coordinates, as the oracles read it."""

    object_id: str
    frame_index: int
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)


def aoi_index(boxes, n_frames):
    """The AoiIndex of ``boxes``, a sequence of ``Box``."""
    columns = list(zip(*boxes)) or [()] * len(Box._fields)
    return AoiIndex(*columns, n_frames)


def index_boxes(aoi):
    """The boxes of an AoiIndex in (frame, object) order."""
    return [
        Box(aoi.object_ids[k], f, aoi.x_min[k, f], aoi.y_min[k, f], aoi.x_max[k, f],
            aoi.y_max[k, f])
        for f, k in np.argwhere(aoi.ann.T).tolist()
    ]


def random_aoi(rng, n_frames=20, n_objects=2, p_ann=0.7):
    """Random boxes for ``n_objects`` objects, each annotated on a frame
    with probability ``p_ann``."""
    boxes = []
    for k in range(n_objects):
        for f in range(n_frames):
            if rng.random() < p_ann:
                cx = rng.uniform(0.15, 0.85)
                cy = rng.uniform(0.15, 0.85)
                half = rng.uniform(0.05, 0.12)
                boxes.append(Box(f"obj{k}", f, cx - half, cy - half, cx + half, cy + half))
    return boxes


@pytest.fixture(scope="session")
def small_cohort_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort_small")
    spec = CohortSpec(n_asd=6, n_control=6, seed=11)
    return generate_cohort(spec, out)


@pytest.fixture(scope="session")
def small_cohort(small_cohort_manifest):
    return load_dataset(small_cohort_manifest)


@pytest.fixture(scope="session")
def default_cohort(tmp_path_factory):
    """The full 35 + 25 default cohort; generated once per session."""
    out = tmp_path_factory.mktemp("cohort_default")
    spec = CohortSpec(seed=2024)
    manifest = generate_cohort(spec, out)
    return load_dataset(manifest)


@pytest.fixture(scope="session")
def default_features(default_cohort):
    """Full-video feature matrices for the default cohort, both modes."""
    from gazescreen.core import FeatureMode
    from gazescreen.pipeline import extract_features

    return {
        FeatureMode.WITH_AOI: extract_features(default_cohort, FeatureMode.WITH_AOI),
        FeatureMode.NO_AOI: extract_features(default_cohort, FeatureMode.NO_AOI),
    }
