"""Domain types shared by every module: groups, feature modes, video
metadata and participants, and the seeded RNG streams.

All geometry lives in normalized [0,1]^2 screen coordinates so features are
resolution independent. AOI tracks live in ``ingest.AoiIndex`` and feature
rows are plain float arrays. Types are immutable after construction.
"""
from __future__ import annotations

import enum
import math
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError


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

# Every video holds a float64 value per frame for each viewer and each AOI
# object; at 2**24 frames (155 hours at 30 fps) one such row is 128 MiB. A
# larger count is a mistyped duration_s or fps, which numpy would refuse
# or run out of memory on with a traceback, so it is a config error.
MAX_VIDEO_FRAMES = 2**24


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
        if not math.isfinite(self.duration_s * self.fps):
            raise ValueError("duration_s * fps, the frame count, must be finite")
        if self.n_frames > MAX_VIDEO_FRAMES:
            raise ValueError(f"video {self.video_id!r} has {self.n_frames} frames, more than "
                             f"the {MAX_VIDEO_FRAMES} a video may have")
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("pixel dimensions must be positive")
        try:  # coordinates are divided by the sizes as floats
            float(self.width_px), float(self.height_px)
        except OverflowError:
            raise ValueError("pixel dimensions must convert to finite floats") from None

    @property
    def n_frames(self) -> int:
        return int(math.floor(self.duration_s * self.fps))


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


def normalize_coordinates(raw_x, raw_y, meta: VideoMeta):
    """Map pixel coordinates into [0,1]^2.

    Works elementwise on floats or numpy arrays alike. Returns
    (x, y, on_screen). Off-screen samples are flagged, not rejected.
    """
    x = raw_x / meta.width_px
    y = raw_y / meta.height_px
    on_screen = (0.0 <= x) & (x <= 1.0) & (0.0 <= y) & (y <= 1.0)
    return x, y, on_screen


def check_seed(seed: int) -> None:
    """Raise ``ConfigError`` unless ``seed`` lies in [0, 2**32): ``derive_rng``
    keys its streams by 32 bits, so any other seed would give the streams
    of one of these."""
    if not 0 <= seed < 2**32:
        raise ConfigError(f"seed must be in [0, 2**32), got {seed}")


def derive_rng(root_seed: int, *tags) -> np.random.Generator:
    """Deterministic sub-stream keyed by the root seed (see ``check_seed``)
    and tags."""
    parts = [int(root_seed) & 0xFFFFFFFF]
    for t in tags:
        if isinstance(t, str):
            parts.append(zlib.crc32(t.encode("utf-8")))
        else:
            parts.append(int(t) & 0xFFFFFFFF)
    return np.random.default_rng(parts)
