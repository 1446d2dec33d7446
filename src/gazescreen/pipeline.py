"""Manifest-to-features plumbing shared by the CLI and the experiment
harness."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMode
from .errors import GazeScreenError, MissingVideo
from .features import extract_stack, full_window
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
    """Every file a protocol reads, parsed and frame-aligned, ready for
    feature extraction.

    ``participants`` (the selected ones, sorted by id) is the row order of
    every feature matrix, and of every ``TraceStack`` when each of them has
    a gaze log of each video, as a plan of ``experiments`` checks before
    the load. ``manifest_order`` keeps the manifest's order, for
    ``features.csv`` and the order of failures. ``video_order`` is the
    selected videos, in the selection's order; ``aoi`` is empty when no AOI
    track was read."""

    manifest: DatasetManifest
    participants: tuple  # Participant, the selected ones, sorted by id
    video_order: tuple  # video id, the selected ones, in the selection's order
    aligned: dict  # (participant_id, video_id) -> AlignedTrace, columns are stack rows
    aoi: dict  # video_id -> AoiIndex, built once here and shared by every window
    stacks: dict  # video_id -> TraceStack of every participant with a log of it
    quality_warnings: list = field(default_factory=list)

    @property
    def manifest_order(self) -> tuple:
        """``participants`` in the order the manifest lists them."""
        selected = set(self.participants)
        return tuple(p for p in self.manifest.participants if p in selected)


def load_dataset(manifest, participants=None, video_ids=None, aoi: bool = True) -> Dataset:
    """Parse and align the files of ``manifest`` (a ``DatasetManifest`` or
    its path, which is loaded and checked whole) that the selection names,
    stack each video's traces and index its AOI track. With no selection
    every declared file is read; a plan of ``experiments`` gives each
    protocol's arguments.

    ``participants`` (default: every one) are the manifest's participants
    whose gaze logs are read. ``video_ids`` (default: ``video_order``) are
    the videos read, in ``Dataset.video_order``; an undeclared id is a
    ConfigError, raised before any file is opened. ``aoi=False`` parses no
    AOI track. A file outside the selection is never opened. Each file
    inside it gets every check, and the first failure among those files is
    the one a full load raises first: AOI tracks in manifest order, then
    gaze logs in manifest order. That includes a gaze-log row whose
    participant id is not the log's manifest key. Each log is aligned
    straight into its row of the video's ``TraceStack`` (read-only once
    loaded), and its ``AlignedTrace`` reads its columns from that row;
    low-coverage traces (below the soft threshold) are recorded as
    warnings."""
    if not isinstance(manifest, DatasetManifest):
        manifest = load_manifest(manifest)
    metas = {vid: manifest.video_meta(vid)
             for vid in (manifest.video_order if video_ids is None else video_ids)}
    chosen = manifest.participants if participants is None else participants
    participants = tuple(sorted(chosen, key=lambda p: p.participant_id))
    pids = {p.participant_id for p in participants}
    tracks = {vid: parse_aoi_track(path, metas[vid])
              for vid, path in manifest.aoi_paths.items() if aoi and vid in metas}
    stacks = {}
    for vid, meta in metas.items():
        rows = [p.participant_id for p in participants
                if (p.participant_id, vid) in manifest.gaze_log_paths]
        stacks[vid] = TraceStack(vid, meta.fps, rows, meta.n_frames)
    aligned = {}
    warnings = []
    for (pid, vid), path in manifest.gaze_log_paths.items():
        if pid not in pids or vid not in stacks:
            continue
        meta = metas[vid]
        trace = parse_gaze_log(path, meta, participant_id=pid)
        at = align(trace, meta, stacks[vid])
        if at.valid_fraction < WARN_VALID_FRAME_FRACTION:
            warnings.append(
                f"{pid}/{vid}: only {at.valid_fraction:.1%} of frames have gaze"
            )
        aligned[(pid, vid)] = at
    for stack in stacks.values():
        stack.freeze()
    return Dataset(manifest=manifest, participants=participants, video_order=tuple(metas),
                   aligned=aligned, aoi=tracks, stacks=stacks, quality_warnings=warnings)


def extract_features(dataset: Dataset, mode: FeatureMode) -> np.ndarray:
    """The full-video feature matrix: row r is ``dataset.participants[r]``,
    and each video contributes ``mode.n_features`` columns, one block per
    video in ``dataset.video_order``. Raises the first failure that
    ``collect_extraction_failures`` lists.
    """
    failures, rows = collect_extraction_failures(dataset, mode)
    if failures:
        raise failures[0][2]
    return np.array([
        np.concatenate([rows[(p.participant_id, vid)] for vid in dataset.video_order])
        for p in dataset.participants
    ])


def collect_extraction_failures(
    dataset: Dataset, mode: FeatureMode
) -> tuple[list[tuple[str, str, GazeScreenError]], dict]:
    """Extract every (participant, video) on its full window, in
    participant (``dataset.manifest_order``) then video order, collecting
    every failure instead of stopping at the first.

    Returns ``(failures, rows)``: ``failures`` holds
    (participant_id, video_id, error) triples, with ``MissingVideo`` for a
    pair without a gaze log, and ``rows`` maps each pair that succeeded to
    its feature row. Each video's stack is featurised in one
    ``extract_stack`` pass, which gives ``extract``'s row or error for
    every pair.
    """
    results = {}
    for vid in dataset.video_order:
        stack = dataset.stacks[vid]
        rows = extract_stack(stack, dataset.aoi.get(vid), full_window(stack), mode)
        results.update(((pid, vid), row) for pid, row in zip(stack.participant_ids, rows))
    failures = []
    rows = {}
    for p in dataset.manifest_order:
        for vid in dataset.video_order:
            key = (p.participant_id, vid)
            if key not in dataset.aligned:
                failures.append((*key, MissingVideo(*key)))
            elif isinstance(results[key], GazeScreenError):
                failures.append((*key, results[key]))
            else:
                rows[key] = results[key]
    return failures, rows
