"""Domain types shared by every module.

All geometry lives in normalized [0,1]^2 screen coordinates so features are
resolution independent. Types are immutable after construction and safe to
share across workers.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional


class Group(enum.Enum):
    ASD = "ASD"
    CONTROL = "CONTROL"


class FeatureMode(enum.Enum):
    WITH_AOI = "WITH_AOI"
    NO_AOI = "NO_AOI"

    @property
    def n_features(self) -> int:
        return 5 if self is FeatureMode.WITH_AOI else 2


CARS_MIN = 15
CARS_MAX = 60


@dataclass(frozen=True)
class VideoMeta:
    video_id: str
    duration_s: float
    fps: float
    width_px: int
    height_px: int

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.duration_s, self.fps)):
            raise ValueError("duration_s and fps must be finite and positive")
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("pixel dimensions must be positive")

    @property
    def n_frames(self) -> int:
        return int(math.floor(self.duration_s * self.fps))


@dataclass(frozen=True)
class AoiBox:
    """Axis-aligned box for one annotated object in one frame, normalized."""

    object_id: str
    frame_index: int
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be >= 0")
        if not (0.0 <= self.x_min < self.x_max <= 1.0):
            raise ValueError("need 0 <= x_min < x_max <= 1")
        if not (0.0 <= self.y_min < self.y_max <= 1.0):
            raise ValueError("need 0 <= y_min < y_max <= 1")

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)


@dataclass(frozen=True)
class AoiTrack:
    """All annotated boxes for one video, canonically sorted."""

    video_id: str
    boxes: tuple[AoiBox, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.boxes, key=lambda b: (b.frame_index, b.object_id)))
        seen = set()
        for b in ordered:
            key = (b.frame_index, b.object_id)
            if key in seen:
                raise ValueError(f"duplicate box for frame {b.frame_index}, object {b.object_id}")
            seen.add(key)
        object.__setattr__(self, "boxes", ordered)

    @property
    def object_ids(self) -> tuple[str, ...]:
        return tuple(sorted({b.object_id for b in self.boxes}))


@dataclass(frozen=True)
class Participant:
    participant_id: str
    group: Group
    cars: Optional[int] = None

    def __post_init__(self):
        if self.group is Group.CONTROL and self.cars is not None:
            raise ValueError("control participants carry no CARS score")
        if self.cars is not None and not (CARS_MIN <= self.cars <= CARS_MAX):
            raise ValueError(f"CARS must be in [{CARS_MIN}, {CARS_MAX}]")


@dataclass(frozen=True)
class FeatureVector:
    """Per-participant feature values, possibly concatenated across videos."""

    participant_id: str
    video_ids: tuple[str, ...]
    mode: FeatureMode
    values: tuple[float, ...]
    windows: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "video_ids", tuple(self.video_ids))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.windows is not None:
            object.__setattr__(
                self, "windows", tuple((float(a), float(b)) for a, b in self.windows)
            )
            if len(self.windows) != len(self.video_ids):
                raise ValueError("one window per contributing video")
        expected = self.mode.n_features * len(self.video_ids)
        if len(self.values) != expected:
            raise ValueError(f"expected {expected} values, got {len(self.values)}")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("feature values must be finite")


def normalize_coordinates(raw_x, raw_y, meta: VideoMeta):
    """Map pixel coordinates into [0,1]^2.

    Works elementwise on floats or numpy arrays alike. Returns
    (x, y, on_screen). Off-screen samples are flagged, not rejected.
    """
    x = raw_x / meta.width_px
    y = raw_y / meta.height_px
    on_screen = (0.0 <= x) & (x <= 1.0) & (0.0 <= y) & (y <= 1.0)
    return x, y, on_screen
