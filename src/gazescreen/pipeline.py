"""Manifest-to-features plumbing shared by the CLI and the experiment
harness."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMode
from .errors import GazeScreenError, MissingVideo
from .features import extract, full_window
from .ingest import (
    WARN_VALID_FRAME_FRACTION,
    DatasetManifest,
    TraceStack,
    align,
    load_manifest,
    parse_aoi_track,
    parse_gaze_log,
)


@dataclass
class Dataset:
    """Everything parsed and frame-aligned, ready for feature extraction.

    ``participants`` (the manifest's, sorted by id) is the row order of
    every feature matrix, and of every ``TraceStack`` once
    ``experiments._check_structure`` has passed. ``manifest.participants``
    keeps manifest order, for ``features.csv`` and the order of failures."""

    manifest: DatasetManifest
    participants: tuple  # Participant, sorted by id
    aligned: dict  # (participant_id, video_id) -> AlignedTrace, columns are stack rows
    aoi: dict  # video_id -> AoiIndex, built once here and shared by every window
    stacks: dict  # video_id -> TraceStack of every participant with a log of it
    quality_warnings: list = field(default_factory=list)

    @property
    def video_order(self):
        return self.manifest.video_order


def load_dataset(manifest_path) -> Dataset:
    """Parse and align every declared file, stack each video's traces and
    index its AOI track. Each ``AlignedTrace`` reads its columns from its
    row of the video's read-only ``TraceStack``. Raises on the first hard
    failure, including a gaze-log row whose participant id is not the log's
    manifest key; low-coverage traces (below the soft threshold) are
    recorded as warnings."""
    manifest = load_manifest(manifest_path)
    participants = tuple(sorted(manifest.participants, key=lambda p: p.participant_id))
    aoi = {vid: parse_aoi_track(path, manifest.video_meta(vid))
           for vid, path in manifest.aoi_paths.items()}
    stacks = {}
    for vid in manifest.video_order:
        meta = manifest.video_meta(vid)
        pids = [p.participant_id for p in participants
                if (p.participant_id, vid) in manifest.gaze_log_paths]
        stacks[vid] = TraceStack(vid, meta.fps, pids, meta.n_frames)
    aligned = {}
    warnings = []
    for (pid, vid), path in manifest.gaze_log_paths.items():
        meta = manifest.video_meta(vid)
        trace = parse_gaze_log(path, meta, participant_id=pid)
        at = align(trace, meta)
        if at.valid_fraction < WARN_VALID_FRAME_FRACTION:
            warnings.append(
                f"{pid}/{vid}: only {at.valid_fraction:.1%} of frames have gaze"
            )
        aligned[(pid, vid)] = stacks[vid].adopt(at)
    for stack in stacks.values():
        stack.freeze()
    return Dataset(manifest=manifest, participants=participants, aligned=aligned, aoi=aoi,
                   stacks=stacks, quality_warnings=warnings)


def extract_features(dataset: Dataset, mode: FeatureMode,
                     video_ids: list | None = None) -> np.ndarray:
    """The full-video feature matrix: row r is ``dataset.participants[r]``,
    and each video contributes ``mode.n_features`` columns, one block per
    video in ``video_ids`` order.

    ``video_ids`` restricts and orders the contributing videos (default:
    manifest order). Raises the first failure that
    ``collect_extraction_failures`` lists.
    """
    failures, rows = collect_extraction_failures(dataset, mode, video_ids)
    if failures:
        raise failures[0][2]
    order = list(video_ids) if video_ids is not None else list(dataset.video_order)
    return np.array([
        np.concatenate([rows[(p.participant_id, vid)] for vid in order])
        for p in dataset.participants
    ])


def collect_extraction_failures(
    dataset: Dataset, mode: FeatureMode, video_ids: list | None = None
) -> tuple[list[tuple[str, str, GazeScreenError]], dict]:
    """Extract every (participant, video) on its full window, in
    participant then video order, collecting every failure instead of
    stopping at the first. ``video_ids`` is as for ``extract_features``.

    Returns ``(failures, rows)``: ``failures`` holds
    (participant_id, video_id, error) triples, with ``MissingVideo`` for a
    pair without a gaze log, and ``rows`` maps each pair that succeeded to
    its feature row from ``extract``. A video id that the manifest does not
    declare is a ``ConfigError``, raised before any extraction.
    """
    order = list(video_ids) if video_ids is not None else list(dataset.video_order)
    for vid in order:
        dataset.manifest.video_meta(vid)  # raises ConfigError for an undeclared id
    failures = []
    rows = {}
    for p in dataset.manifest.participants:
        for vid in order:
            key = (p.participant_id, vid)
            if key not in dataset.aligned:
                failures.append((*key, MissingVideo(*key)))
                continue
            at = dataset.aligned[key]
            try:
                rows[key] = extract(at, dataset.aoi.get(vid), full_window(at), mode)
            except GazeScreenError as e:
                failures.append((*key, e))
    return failures, rows
