"""Experiment protocols: repeated stratified k-fold classification,
the random-window duration simulation, and leave-one-out severity
regression, and the plans (``cv_plan``, ``severity_plan``) that check
their manifest-only rules and select their files before any is opened.

Every protocol is deterministic given its config seed: per-repetition RNGs
are derived from (root seed, tags), so no draw depends on another
repetition's. A CV protocol draws every repetition's folds first, as a
(folds x participants) stack of test masks; it standardises them into
(folds x participants x d) stacks, trains all their SVMs in one lockstep
``svm_train_stacks`` call and counts their scores as boolean reductions
over those masks. ``CvConfig.jobs`` (``--jobs``) is validated and has no
effect.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMode, Group, check_seed, derive_rng
from .errors import (
    AoiNeverInAnyWindow,
    ConfigError,
    DurationTooLong,
    DurationTooShort,
    MissingVideo,
    NoAoiTrack,
    TooFewParticipants,
    TooFewPerClass,
)
from .features import Window, extract_batch
from .learn import (
    LABEL_ASD,
    LABEL_CONTROL,
    SMO_STACK_BYTES,
    MlpConfig,
    Standardizer,
    check_svm_params,
    mlp_predict,
    mlp_train_folds,
    svm_train_stacks,
)
from .pipeline import Dataset

# Accuracies and MAE reported by the original 60-participant human study.
# They are NOT reproducible from synthetic cohorts and are carried in
# reports purely for comparison.
HUMAN_STUDY_REFERENCE = {
    "with_aoi_per_video_accuracy": [0.9141, 0.9344, 0.9434, 0.9193],
    "with_aoi_concatenated_accuracy": 0.983,
    "no_aoi_per_video_accuracy": [0.9116, 0.9174, 0.8679, 0.9091],
    "no_aoi_concatenated_accuracy": 0.933,
    "with_aoi_15s_accuracy": 0.9575,
    "no_aoi_15s_accuracy": 0.925,
    "severity_mae": 2.03,
    "severity_mae_std": 1.37,
}


# The paper's protocol: 3-fold CV, and the SMO stopping gap and pass cap of
# every fit.
FOLDS = 3
SVM_TOL = 1e-3
SVM_MAX_PASSES = 1000


@dataclass
class CvConfig:
    seed: int
    repetitions: int = 100
    mode: FeatureMode = FeatureMode.WITH_AOI
    video_selection: str = "all"  # a video id, or "all" for concatenation
    C: float = 1.0
    gamma: float | None = None  # None -> scale heuristic on the training fold
    coef0: float = 0.0
    jobs: int = 1  # checked, no effect: every fold is trained in one call

    def __post_init__(self):
        check_seed(self.seed)
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        check_svm_params(self.C, self.gamma, self.coef0)
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "folds": FOLDS,
            "repetitions": self.repetitions,
            "mode": self.mode.value,
            "video_selection": self.video_selection,
            "C": self.C,
            "gamma": self.gamma,
            "coef0": self.coef0,
            "svm_tol": SVM_TOL,
        }


class _Report:
    """A protocol's result. ``to_dict`` is the body of its ``report.json``:
    its ``KIND`` and every field, not copied (``dataclasses.asdict`` would
    deep-copy every fold row, about 9 ms for ``evaluate``'s 300)."""

    KIND = ""

    def to_dict(self) -> dict:
        return {"kind": self.KIND, **vars(self)}


@dataclass
class ClassificationReport(_Report):
    KIND = "classification_cv"

    config: dict
    fold_rows: list  # dicts: rep, fold, accuracy, n_test, tp, tn, fp, fn
    mean_accuracy: float
    std_accuracy: float
    sensitivity: float
    specificity: float
    reference: dict = field(default_factory=lambda: dict(HUMAN_STUDY_REFERENCE))

    def to_dict(self) -> dict:
        return {**super().to_dict(), "n_fold_runs": len(self.fold_rows)}


@dataclass
class DurationReport(_Report):
    KIND = "duration_simulation"

    config: dict
    rows: list  # dicts: duration_s, mean_acc, std_acc, n_runs
    reference: dict = field(default_factory=lambda: dict(HUMAN_STUDY_REFERENCE))


@dataclass
class SeverityReport(_Report):
    KIND = "severity_loocv"

    config: dict
    rows: list  # dicts: participant_id, true_cars, predicted_cars, abs_err
    mae: float
    std_abs_err: float
    reference: dict = field(default_factory=lambda: dict(HUMAN_STUDY_REFERENCE))


def _class_members(labels, folds: int):
    """Yield the positions of each class in ``labels``, classes in
    ascending order. Reaching a class with fewer than ``folds`` members
    raises TooFewPerClass.

    Classes come from ``sorted(set(...))`` rather than ``np.unique``,
    which on numpy >= 2 imports all of ``numpy.ma`` on its first call (a
    fixed cost of about 15 ms per process).
    """
    labels = np.asarray(labels)
    for cls in sorted(set(labels.tolist())):
        members = np.nonzero(labels == cls)[0]
        if len(members) < folds:
            raise TooFewPerClass(f"class {cls} has {len(members)} members, need >= {folds}")
        yield members


def stratified_folds(labels: list[int], folds: int, rng: np.random.Generator) -> np.ndarray:
    """Deal each class round-robin into folds after a seeded shuffle.

    Returns a fold index per position in ``labels``. Fold class counts
    deviate from exact proportionality by at most one per class. Classes
    are dealt in ascending order, each with one ``rng.permutation`` draw.
    """
    return _deal(_class_members(labels, folds), len(labels), folds, rng)


def _deal(classes, n: int, folds: int, rng: np.random.Generator) -> np.ndarray:
    """The fold of each of ``n`` positions, dealt as ``stratified_folds``
    deals them, from each class's positions as ``_class_members`` yields
    them."""
    assignment = np.full(n, -1, dtype=int)
    start = 0  # rotate the deal between classes so leftovers spread out
    for members in classes:
        members = members[rng.permutation(len(members))]
        assignment[members] = (start + np.arange(len(members))) % folds
        start = (start + len(members)) % folds
    return assignment


def _labels(groups) -> np.ndarray:
    """The SVM label of each group, in row order."""
    return np.array([LABEL_ASD if g is Group.ASD else LABEL_CONTROL for g in groups])


def _rows(participants, X) -> np.ndarray:
    """``X`` as a float matrix, checked to hold one row per participant."""
    if len(participants) != len(X):
        raise ValueError(f"{len(participants)} participants but {len(X)} feature rows")
    return np.asarray(X, dtype=float)


def _draw_folds(config: CvConfig, y, draws) -> tuple:
    """``config.repetitions`` repetitions of stratified k-fold CV for each
    (tag, draw_X) of ``draws``. Repetition r of a tag draws from
    ``derive_rng(config.seed, *tag, r)`` its matrix ``draw_X(rng)``, its
    folds, then one SVM seed per fold. Returns the matrices, the (folds x
    participants) test masks (fold k of matrix i in row i * FOLDS + k) and
    the seeds. The classes' positions are found once, for every draw."""
    Xs, tests, seeds = [], [], []
    classes = list(_class_members(y, FOLDS))
    for tag, draw_X in draws:
        for rep in range(config.repetitions):
            rng = derive_rng(config.seed, *tag, rep)
            Xs.append(draw_X(rng))
            assignment = _deal(classes, len(y), FOLDS, rng)
            for fold in range(FOLDS):
                tests.append(assignment == fold)
                seeds.append(int(rng.integers(2**31)))
    return Xs, np.array(tests, dtype=bool).reshape(len(seeds), len(y)), seeds


def _score_folds(config: CvConfig, y, Xs, test, seeds) -> list:
    """One row per fold (rep, fold, accuracy, n_test, tp, tn, fp, fn) of
    ``_draw_folds``' folds, all trained by one ``svm_train_stacks`` call.
    Each fold's rows, training rows first and then test rows (each in row
    order), are standardised by one masked fit over its training rows into
    (folds x participants x d) stacks of an eighth of ``SMO_STACK_BYTES``
    each: small blocks reuse freed memory, where one block for all folds
    would take fresh pages (about 1 MB more peak RSS on ``evaluate``). The
    counts are boolean reductions over (folds x participants) masks."""
    if not seeds:
        return []
    order = np.argsort(test, axis=1, kind="stable")
    sizes = len(y) - test.sum(axis=1)
    head = np.arange(len(y)) < sizes[:, None]  # the training rows, now first
    y = y[order]  # each fold's labels in its row order
    step = max(1, SMO_STACK_BYTES // 8 // max(1, 8 * test.shape[1] * Xs[0].shape[1]))
    slices = [slice(start, start + step) for start in range(0, len(seeds), step)]
    Zs = []
    for k in slices:
        X = np.stack([Xs[f // FOLDS] for f in range(len(seeds))[k]])
        X = np.take_along_axis(X, order[k, :, None], axis=1)
        Zs.append(Standardizer().fit(X, head[k]).transform(X))
    n_max = int(sizes.max())
    models = iter(svm_train_stacks(
        [(Z[:, :n_max], y[k, :n_max], sizes[k]) for Z, k in zip(Zs, slices)],
        config.C, config.gamma, config.coef0, SVM_TOL, SVM_MAX_PASSES, seeds,
    ))
    flagged = np.zeros_like(test)
    for Z, k in zip(Zs, slices):
        for z, f in zip(Z, range(len(seeds))[k]):
            # a decision value of exactly 0 is CONTROL, as in svm_predict
            flagged[f, sizes[f]:] = next(models).decision_value(z[sizes[f]:]) > 0
    asd = y == LABEL_ASD
    counts = zip(*(m.sum(axis=1).tolist() for m in (
        flagged & asd, ~head & ~flagged & ~asd, flagged & ~asd, ~head & ~flagged & asd)))
    rows = []
    for f, (tp, tn, fp, fn) in enumerate(counts):
        n_test = tp + tn + fp + fn
        rows.append({"rep": f // FOLDS % config.repetitions, "fold": f % FOLDS,
                     "accuracy": (tp + tn) / n_test,
                     "n_test": n_test, "tp": tp, "tn": tn, "fp": fp, "fn": fn})
    return rows


def _summarize(fold_rows) -> dict:
    """The accuracy, its spread, sensitivity and specificity over the folds."""
    accs = np.array([r["accuracy"] for r in fold_rows])
    tp = sum(r["tp"] for r in fold_rows)
    fn = sum(r["fn"] for r in fold_rows)
    tn = sum(r["tn"] for r in fold_rows)
    fp = sum(r["fp"] for r in fold_rows)
    return {
        "mean_accuracy": float(accs.mean()),
        "std_accuracy": float(accs.std()),
        "sensitivity": tp / (tp + fn) if tp + fn else float("nan"),
        "specificity": tn / (tn + fp) if tn + fp else float("nan"),
    }


def run_classification_cv(participants, X: np.ndarray, config: CvConfig) -> ClassificationReport:
    """Repeated stratified k-fold CV of the SVM screening classifier.

    Row r of the float matrix ``X`` (already matching
    config.video_selection) holds the features of ``participants[r]``,
    whose ``group`` is its label.
    """
    X = _rows(participants, X)
    y = _labels([p.group for p in participants])
    fold_rows = _score_folds(config, y, *_draw_folds(config, y, [(("cv",), lambda rng: X)]))
    return ClassificationReport(config=config.to_dict(), fold_rows=fold_rows,
                                **_summarize(fold_rows))


def _draw_windows(dataset: Dataset, duration: float, mode: FeatureMode, rng, video_ids):
    """One shared window per video, redrawn (up to 100 times) until every
    participant's features are usable on it. Returns the feature matrix in
    ``dataset.participants`` order, videos concatenated in ``video_ids`` order;
    each video's block is one ``extract_batch`` over its stack."""
    for _attempt in range(100):
        windows = []  # every start is drawn before any video is checked
        for vid in video_ids:
            meta = dataset.manifest.video_meta(vid)
            windows.append(Window(float(rng.uniform(0.0, meta.duration_s - duration)), duration))
        blocks = []
        for vid, w in zip(video_ids, windows):
            values, usable = extract_batch(dataset.stacks[vid], dataset.aoi.get(vid), w, mode)
            if not usable.all():
                break
            blocks.append(values)
        else:
            return np.hstack(blocks)
    raise AoiNeverInAnyWindow(
        f"no usable window of {duration}s found in 100 attempts"
    )


def run_duration_simulation(
    dataset: Dataset, durations: list[float], config: CvConfig
) -> DurationReport:
    """Accuracy as a function of observation time, on random shared
    windows (one window per video per repetition). ``dataset`` holds at
    least the load of ``cv_plan(dataset.manifest, config, durations)``,
    whose rules are checked first."""
    video_ids = cv_plan(dataset.manifest, config, durations)["video_ids"]
    y = _labels([p.group for p in dataset.participants])

    # every duration's folds are drawn first, then trained together
    fold_rows = _score_folds(config, y, *_draw_folds(config, y, [
        (("duration", d_idx),
         lambda rng, d=d: _draw_windows(dataset, d, config.mode, rng, video_ids))
        for d_idx, d in enumerate(durations)
    ]))
    per_duration = FOLDS * config.repetitions
    curve = []
    for d_idx, d in enumerate(durations):
        s = _summarize(fold_rows[d_idx * per_duration : (d_idx + 1) * per_duration])
        curve.append({"duration_s": d, "mean_acc": s["mean_accuracy"],
                      "std_acc": s["std_accuracy"], "n_runs": config.repetitions})
    cfg = config.to_dict()
    cfg["durations"] = list(durations)
    return DurationReport(config=cfg, rows=curve)


def _plan(manifest, config: CvConfig, participants, durations=()) -> dict:
    """The arguments of ``pipeline.load_dataset``: ``manifest`` and the
    selection of ``participants``' logs of ``config.video_selection``
    (every video for "all") and, with AOI features, those videos' AOI
    tracks. Checked first, from the manifest alone: the video is
    declared; each duration makes a valid window, no longer than the
    shortest video and holding 3 frames of each; with AOI features, each
    video declares an AOI track; each participant (in the given order) has
    a declared log of each video."""
    video = config.video_selection
    metas = manifest.videos if video == "all" else (manifest.video_meta(video),)
    min_duration = min(m.duration_s for m in metas)
    for d in durations:
        Window(0.0, d)  # a duration must make a valid window
        if d > min_duration:
            raise DurationTooLong(f"{d}s exceeds shortest video ({min_duration}s)")
        # A window shorter than 2 frame periods (d * fps < 2) holds at most 2
        # frames wherever it starts, and F2 needs 3. The margin, frame_range's
        # tolerance, is wider than the rounding of the window's ends, so
        # frame_range also counts at most 2 frames in a rejected window.
        for m in metas:
            if d * m.fps <= 2 - 1e-9:
                raise DurationTooShort(
                    f"a {d}s window holds at most 2 frames of {m.video_id!r} "
                    f"({m.fps:g} fps); F2 needs 3")
    video_ids = tuple(m.video_id for m in metas)
    aoi = config.mode is FeatureMode.WITH_AOI
    for vid in video_ids:
        if aoi and vid not in manifest.aoi_paths:
            raise NoAoiTrack(vid)
    for p in participants:
        for vid in video_ids:
            if (p.participant_id, vid) not in manifest.gaze_log_paths:
                raise MissingVideo(p.participant_id, vid)
    return {"manifest": manifest, "participants": tuple(participants),
            "video_ids": video_ids, "aoi": aoi}


def cv_plan(manifest, config: CvConfig, durations=()) -> dict:
    """The load of ``evaluate`` and, with its ``durations``, of
    ``duration-curve``: every participant, checked as ``_plan`` checks,
    after each group is checked to have ``FOLDS`` members (the
    ``TooFewPerClass`` of ``stratified_folds``), before any file is
    opened."""
    list(_class_members(_labels([p.group for p in manifest.participants]), FOLDS))
    return _plan(manifest, config, manifest.participants, durations)


def severity_plan(manifest, config: CvConfig) -> dict:
    """The load of ``severity``: the ``scored_participants``, checked as
    ``_plan`` checks, before any file is opened."""
    return _plan(manifest, config, scored_participants(manifest.participants))


def scored_participants(participants) -> list:
    """The participants with a CARS score, in the given order: the ones the
    severity protocol regresses over, and the ones ``severity_plan``
    loads. Fewer than 3 is ``TooFewParticipants``."""
    scored = [p for p in participants if p.cars is not None]
    if len(scored) < 3:
        raise TooFewParticipants(f"need >= 3 scored participants, have {len(scored)}")
    return scored


def run_severity_loocv(
    participants, X: np.ndarray, config: CvConfig, mlp_config: MlpConfig | None = None
) -> SeverityReport:
    """Leave-one-out CARS regression over the rows of ``X`` whose
    participant (``participants[r]`` for row r) has a ``cars`` score.

    Fold i holds out the i-th scored participant and draws its MLP seed
    from ``derive_rng(config.seed, "loocv", i)``. Every fold has the same
    shape, so all are trained at once by ``mlp_train_folds``."""
    X = _rows(participants, X)
    scored = scored_participants(participants)
    X = X[[p.cars is not None for p in participants]]
    y = np.array([p.cars for p in scored], dtype=float)
    n = len(scored)
    # fold i: its training rows first, in row order, then row i
    order = np.argsort(np.eye(n, dtype=bool), axis=1, kind="stable")
    X = X[order]
    Z = Standardizer().fit(X, np.arange(n) < n - 1).transform(X)
    # center the targets around the training mean; the regressor starts
    # from a near-zero output, so raw CARS magnitudes would dominate the
    # error budget before the optimizer ever sees the features
    train_y = y[order[:, :-1]]
    centers = [float(fold_y.mean()) for fold_y in train_y]
    seeds = [int(derive_rng(config.seed, "loocv", i).integers(2**31)) for i in range(n)]
    models = mlp_train_folds(Z[:, :-1], train_y - np.array(centers)[:, None], mlp_config, seeds)
    rows = []
    for p, model, y_center, true, z in zip(scored, models, centers, y.tolist(), Z[:, -1]):
        pred = y_center + mlp_predict(model, z)
        rows.append({"participant_id": p.participant_id, "true_cars": true,
                     "predicted_cars": pred, "abs_err": abs(pred - true)})
    errs = np.array([r["abs_err"] for r in rows])
    return SeverityReport(
        config=config.to_dict(),
        rows=rows,
        mae=float(errs.mean()),
        std_abs_err=float(errs.std()),
    )
