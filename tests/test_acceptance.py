"""Acceptance suite: one test and one printed pass/fail line per criterion.

Criteria that need the full default synthetic cohort share the session
fixtures from conftest so the cohort is generated only once.
"""
import dataclasses
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from gazescreen.cli import main as cli_main
from gazescreen.core import FeatureMode, Group, Participant, VideoMeta
from gazescreen.errors import (
    DegenerateBox,
    InsufficientData,
    MalformedRow,
    MissingVideo,
    NoAoiInWindow,
    NonMonotonicTimestamp,
    RateMismatch,
)
from gazescreen.experiments import (
    CvConfig,
    derive_rng,
    run_classification_cv,
    run_duration_simulation,
    run_severity_loocv,
)
from gazescreen.features import (
    Window,
    feature_delay,
    feature_rmse_aoi,
    feature_std_diff,
    feature_std_gaze,
    feature_std_manhattan,
    full_window,
)
from gazescreen.ingest import parse_aoi_track, parse_gaze_log
from gazescreen.learn import (
    MlpConfig,
    _kernel_matrix,
    gamma_scale,
    mlp_loss_and_grads,
    mlp_train,
    svm_predict,
    svm_train,
)
from gazescreen.pipeline import extract_features, load_dataset
from gazescreen.synth import DEFAULT_ASD_PARAMS, CohortSpec, generate_cohort

from . import oracles
from .conftest import (
    Box,
    aoi_index,
    align_alone,
    frozen_stack,
    random_aligned,
    random_aoi,
    record_acceptance,
)


def all_features(at, aoi, w):
    """(implementation, oracle) value pairs; None where undefined."""
    idx = aoi_index(aoi, at.n_frames)
    out = []
    for impl, oracle in (
        (lambda: feature_std_gaze(at, w), lambda: oracles.oracle_f1(at, w)),
        (lambda: feature_std_diff(at, w), lambda: oracles.oracle_f2(at, w)),
        (lambda: feature_std_manhattan(at, idx, w), lambda: oracles.oracle_f3(at, aoi, w)),
        (lambda: feature_rmse_aoi(at, idx, w), lambda: oracles.oracle_f4(at, aoi, w)),
        (lambda: feature_delay(at, idx, w), lambda: oracles.oracle_f5(at, aoi, w)),
    ):
        try:
            got = impl()
        except (InsufficientData, NoAoiInWindow):
            got = None
        out.append((got, oracle()))
    return out


def test_criterion_1_feature_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    checked = 0
    for _ in range(100):
        n = int(rng.integers(6, 21))
        fps = float(rng.choice([5.0, 10.0, 30.0]))
        at = random_aligned(rng, n_frames=n, fps=fps)
        aoi = random_aoi(rng, n_frames=n, n_objects=int(rng.integers(1, 3)))
        start = float(rng.uniform(0, n / fps * 0.3))
        dur = float(rng.uniform(n / fps * 0.3, n / fps - start))
        for got, expected in all_features(at, aoi, Window(start, dur)):
            assert (got is None) == (expected is None)
            if got is not None:
                rel = abs(got - expected) / max(1e-12, abs(expected))
                worst = max(worst, rel)
                checked += 1
    elapsed = time.perf_counter() - t0
    record_acceptance(
        1, "feature oracle equivalence, 100 micro-instances at 1e-9 relative",
        worst <= 1e-9 and elapsed < 10.0 and checked > 200,
        f"worst rel err {worst:.2e}, {checked} values, {elapsed:.1f}s",
    )


def test_criterion_2_feature_symmetry_suite():
    rng = np.random.default_rng(1002)
    worst = 0.0
    checked = 0
    while checked < 50:
        at = random_aligned(rng, n_frames=16, fps=8.0)
        aoi = random_aoi(rng, n_frames=16)
        idx = aoi_index(aoi, at.n_frames)
        w = full_window(at)
        s = float(rng.uniform(0.2, 0.95))
        try:
            base = [
                feature_std_gaze(at, w),
                feature_std_diff(at, w),
                feature_std_manhattan(at, idx, w),
                feature_rmse_aoi(at, idx, w),
                feature_delay(at, idx, w),
            ]
        except (InsufficientData, NoAoiInWindow):
            continue
        shifted = frozen_stack(at.video_id, at.fps, at.participant_ids, at.present,
                               at.x + 0.37, at.y - 0.21, at.gap)
        worst = max(worst, abs(feature_std_diff(shifted, w) - base[1]))
        scaled = frozen_stack(at.video_id, at.fps, at.participant_ids, at.present,
                              at.x * s, at.y * s, at.gap)
        scaled_aoi = [
            Box(b.object_id, b.frame_index, b.x_min * s, b.y_min * s,
                b.x_max * s, b.y_max * s)
            for b in aoi
        ]
        scaled_idx = aoi_index(scaled_aoi, at.n_frames)
        got = [
            feature_std_gaze(scaled, w),
            feature_std_diff(scaled, w),
            feature_std_manhattan(scaled, scaled_idx, w),
            feature_rmse_aoi(scaled, scaled_idx, w),
            feature_delay(scaled, scaled_idx, w),
        ]
        for k in range(4):
            worst = max(worst, abs(got[k] - base[k] * s))
        worst = max(worst, abs(got[4] - base[4]))
        checked += 1
    record_acceptance(
        2, "F2 translation invariance, F1-F4 scale equivariance, F5 scale "
           "invariance at 1e-12 on 50 instances",
        worst <= 1e-12,
        f"worst abs deviation {worst:.2e}",
    )


def test_criterion_3_svm_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    ok = True
    details = []

    # (a) dual feasibility + KKT at tol 1e-3 on every run
    for trial in range(10):
        sep = float(rng.uniform(0.3, 2.0))
        X = np.vstack([
            rng.uniform(-1, 1, (10, 2)) + sep,
            rng.uniform(-1, 1, (10, 2)) - sep,
        ])
        y = np.concatenate([np.ones(10), -np.ones(10)])
        model = svm_train(X, y, C=1.0, seed=trial)
        ok &= model.converged
        alpha = np.abs(model.dual_coef)
        ok &= bool(np.all(alpha >= 0) and np.all(alpha <= 1.0 + 1e-9))
        ok &= abs(float(model.dual_coef.sum())) <= 1e-6
        for sv, coef in zip(model.support_vectors, model.dual_coef):
            margin = np.sign(coef) * model.decision_value(sv)
            a = abs(coef)
            if a < 1e-9:
                ok &= margin >= 1.0 - 1e-3
            elif a > 1.0 - 1e-9:
                ok &= margin <= 1.0 + 1e-3
            else:
                ok &= abs(margin - 1.0) <= 1e-3
    details.append("kkt ok" if ok else "kkt violated")

    # (b) dual objective vs projected-gradient QP oracle, 20-point problems
    worst_gap = 0.0
    for trial in range(5):
        X = np.vstack([
            rng.uniform(-1.5, 1.5, (10, 2)) + 0.8,
            rng.uniform(-1.5, 1.5, (10, 2)) - 0.8,
        ])
        y = np.concatenate([np.ones(10), -np.ones(10)])
        gamma = gamma_scale(X)
        model = svm_train(X, y, C=1.0, gamma=gamma, coef0=0.0, seed=trial)
        K = _kernel_matrix(model.support_vectors, model.support_vectors, gamma, 0.0)
        w_model = float(np.abs(model.dual_coef).sum()
                        - 0.5 * model.dual_coef @ K @ model.dual_coef)
        K_full = _kernel_matrix(X, X, gamma, 0.0)
        a_oracle = oracles.projected_gradient_qp(K_full, y, C=1.0)
        w_oracle = oracles.dual_objective(K_full, y, a_oracle)
        worst_gap = max(worst_gap, abs(w_model - w_oracle) / max(1.0, abs(w_oracle)))
    ok &= worst_gap <= 1e-4
    details.append(f"qp gap {worst_gap:.2e}")

    # (c) separable blobs
    X = np.vstack([
        rng.uniform(-0.5, 0.5, (10, 2)) + 2.0,
        rng.uniform(-0.5, 0.5, (10, 2)) - 2.0,
    ])
    y = np.concatenate([np.ones(10), -np.ones(10)])
    model = svm_train(X, y, seed=0)
    acc = np.mean([svm_predict(model, x)[0] == yi for x, yi in zip(X, y)])
    ok &= acc == 1.0
    details.append(f"blob acc {acc:.0%}")

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    record_acceptance(
        3, "SVM KKT/dual-objective/separable-blob correctness",
        bool(ok), ", ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_4_mlp_gradient_check():
    rng = np.random.default_rng(1004)
    X = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    model = mlp_train(X, y, MlpConfig(hidden=10, max_epochs=30), seed=0)
    _, grads = mlp_loss_and_grads(model, X, y)
    params = [model.W1, model.b1, model.W2, model.b2]
    h = 1e-6
    worst = 0.0
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for k in range(flat_p.size):
            orig = flat_p[k]
            flat_p[k] = orig + h
            lp, _ = mlp_loss_and_grads(model, X, y)
            flat_p[k] = orig - h
            lm, _ = mlp_loss_and_grads(model, X, y)
            flat_p[k] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(flat_g[k] - fd) / max(1.0, abs(fd)))
    record_acceptance(
        4, "MLP analytic gradients match central differences (h=1e-6) at 1e-4",
        worst <= 1e-4, f"worst rel err {worst:.2e}",
    )


def test_criterion_5_synthetic_end_to_end(default_cohort, default_features):
    t0 = time.perf_counter()
    means = {}
    for mode in (FeatureMode.WITH_AOI, FeatureMode.NO_AOI):
        report = run_classification_cv(
            default_cohort.participants, default_features[mode],
            CvConfig(seed=20240, repetitions=100, mode=mode, jobs=4),
        )
        means[mode] = report.mean_accuracy
    elapsed = time.perf_counter() - t0
    ok = (
        means[FeatureMode.WITH_AOI] >= 0.90
        and means[FeatureMode.NO_AOI] >= 0.80
        and means[FeatureMode.WITH_AOI] >= means[FeatureMode.NO_AOI]
        and elapsed < 300.0
    )
    record_acceptance(
        5, "3-fold x100 CV accuracy >= 0.90 WITH_AOI, >= 0.80 NO_AOI, ordered",
        ok,
        f"with_aoi {means[FeatureMode.WITH_AOI]:.4f}, "
        f"no_aoi {means[FeatureMode.NO_AOI]:.4f}, {elapsed:.0f}s",
    )


def test_criterion_6_permuted_label_null(default_cohort, default_features):
    participants = default_cohort.participants  # sorted by id
    rng = derive_rng(20241, "null-permutation")
    permuted = [
        Participant(p.participant_id, g)
        for p, g in zip(participants, rng.permutation([p.group for p in participants]))
    ]
    report = run_classification_cv(
        permuted, default_features[FeatureMode.WITH_AOI],
        CvConfig(seed=20241, repetitions=100, jobs=4),
    )
    ok = 0.40 <= report.mean_accuracy <= 0.70
    record_acceptance(
        6, "permuted-label null accuracy in [0.40, 0.70] over 100 repetitions",
        ok, f"mean accuracy {report.mean_accuracy:.4f}",
    )


def test_criterion_7_duration_curve_shape(default_cohort, default_features):
    ok = True
    details = []
    for mode in (FeatureMode.WITH_AOI, FeatureMode.NO_AOI):
        full = run_classification_cv(
            default_cohort.participants, default_features[mode],
            CvConfig(seed=20242, repetitions=100, mode=mode, jobs=4),
        ).mean_accuracy
        sim = run_duration_simulation(
            default_cohort, [3.0, 15.0, 18.0],
            CvConfig(seed=20242, repetitions=100, mode=mode, jobs=4),
        )
        acc = {r["duration_s"]: r["mean_acc"] for r in sim.rows}
        ok &= acc[15.0] >= acc[3.0]
        ok &= abs(acc[18.0] - full) <= 0.10
        details.append(
            f"{mode.value}: 3s {acc[3.0]:.3f}, 15s {acc[15.0]:.3f}, "
            f"18s {acc[18.0]:.3f}, full {full:.3f}"
        )
    record_acceptance(
        7, "acc(15s) >= acc(3s) and acc(18s) within 10 points of full video, "
           "both modes",
        bool(ok), "; ".join(details),
    )


def test_criterion_8_severity_loocv(tmp_path, default_cohort, default_features):
    coupled = run_severity_loocv(
        default_cohort.participants, default_features[FeatureMode.WITH_AOI],
        CvConfig(seed=20243),
    )

    null_params = dataclasses.replace(DEFAULT_ASD_PARAMS, severity_coupling={})
    ds = load_dataset(generate_cohort(
        CohortSpec(seed=2024, asd_params=null_params), tmp_path / "null"
    ))
    null_rep = run_severity_loocv(
        ds.participants, extract_features(ds, FeatureMode.WITH_AOI), CvConfig(seed=20243)
    )
    y = np.array([p.cars for p in ds.manifest.participants if p.group is Group.ASD],
                 dtype=float)
    # the MAE of the in-sample best constant: the best of a 0.5-step grid of
    # constants, fit to the cohort's own CARS scores, which no LOOCV fold sees
    best_const = min(float(np.abs(y - c).mean()) for c in np.arange(15.0, 60.5, 0.5))
    ok = coupled.mae <= 3.0 and abs(null_rep.mae - best_const) <= 1.0
    record_acceptance(
        8, "severity LOOCV MAE <= 3.0; null-coupling MAE within 1.0 of the MAE of the "
           "in-sample best constant (0.5-step grid over the cohort's own CARS scores, "
           "a value no LOOCV fold sees)",
        ok,
        f"coupled MAE {coupled.mae:.3f}, null MAE {null_rep.mae:.3f}, "
        f"in-sample best-constant MAE {best_const:.3f}",
    )


def test_criterion_9_cli_determinism(tmp_path, small_cohort_manifest):
    runner = CliRunner()

    def invoke(*args):
        r = runner.invoke(cli_main, [str(a) for a in args])
        assert r.exit_code == 0, r.output
        return r

    def tree(root):
        root = Path(root)
        return {str(p.relative_to(root)): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    spec = tmp_path / "spec.yaml"
    spec.write_text("n_asd: 3\nn_control: 3\n", encoding="utf-8")
    m = str(small_cohort_manifest)
    commands = {
        "synth": ["synth", "--spec", spec, "--seed", 5],
        "features": ["features", "--manifest", m, "--mode", "aoi"],
        "evaluate": ["evaluate", "--manifest", m, "--mode", "aoi",
                     "--seed", 5, "--reps", 3],
        "duration-curve": ["duration-curve", "--manifest", m, "--mode", "aoi",
                           "--durations", "3,6", "--seed", 5, "--reps", 2],
        "severity": ["severity", "--manifest", m, "--mode", "aoi", "--seed", 5],
    }
    ok = True
    failed = []
    for name, args in commands.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        invoke(*args, "--out", a)
        invoke(*args, "--out", b)
        if tree(a) != tree(b):
            ok = False
            failed.append(name)
    # parallel workers must not change a single byte
    invoke("evaluate", "--manifest", m, "--mode", "aoi", "--seed", 5,
           "--reps", 3, "--jobs", 4, "--out", tmp_path / "evaluate_jobs")
    if tree(tmp_path / "evaluate_a") != tree(tmp_path / "evaluate_jobs"):
        ok = False
        failed.append("evaluate --jobs 4")
    record_acceptance(
        9, "every CLI command byte-identical on re-run, including --jobs > 1",
        ok, "all commands" if ok else f"differs: {', '.join(failed)}",
    )


def test_criterion_10_ingest_error_taxonomy(tmp_path, small_cohort_manifest):
    meta = VideoMeta("v", 3.0, 30.0, 1000, 1000)
    gaze_header = "participant_id,video_id,wall_ts_ms,video_ts_ms,x_px,y_px,valid\n"
    aoi_header = "video_id,frame_index,object_id,x_min_px,y_min_px,x_max_px,y_max_px\n"
    hits = {}

    p = tmp_path / "malformed.csv"
    p.write_text(gaze_header + "p1,v,0.0,0.0,not_a_number,500,1\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as exc:
        parse_gaze_log(p, meta)
    hits["MalformedRow"] = exc.value.line_no == 2

    p = tmp_path / "backwards.csv"
    p.write_text(
        gaze_header + "p1,v,0.0,0.0,500,500,1\np1,v,33.0,33.0,500,500,1\n"
        + "p1,v,16.0,50.0,500,500,1\n",
        encoding="utf-8",
    )
    with pytest.raises(NonMonotonicTimestamp) as exc:
        parse_gaze_log(p, meta)
    hits["NonMonotonicTimestamp"] = exc.value.line_no == 4

    p = tmp_path / "degenerate.csv"
    p.write_text(aoi_header + "v,0,obj,100,100,100,200\n", encoding="utf-8")
    with pytest.raises(DegenerateBox):
        parse_aoi_track(p, meta)
    hits["DegenerateBox"] = True

    p = tmp_path / "sparse.csv"
    rows = [f"p1,v,{i * 500.0},{i * 500.0},500,500,1" for i in range(4)]
    p.write_text(gaze_header + "\n".join(rows) + "\n", encoding="utf-8")
    trace = parse_gaze_log(p, meta)
    with pytest.raises(RateMismatch) as exc:
        align_alone(trace, meta)
    hits["RateMismatch"] = exc.value.fraction < 0.10

    manifest = yaml.safe_load(small_cohort_manifest.read_text(encoding="utf-8"))
    logs = manifest["gaze_logs"]
    pid = next(iter(logs))
    vid = next(iter(logs[pid]))
    del logs[pid][vid]
    for per_video in logs.values():  # the files stay where the cohort wrote them
        for v, rel in per_video.items():
            per_video[v] = str(small_cohort_manifest.parent / rel)
    for v, rel in manifest["aoi_tracks"].items():
        manifest["aoi_tracks"][v] = str(small_cohort_manifest.parent / rel)
    p = tmp_path / "manifest.yaml"
    p.write_text(yaml.safe_dump(manifest), encoding="utf-8")
    with pytest.raises(MissingVideo) as exc:
        extract_features(load_dataset(p), FeatureMode.NO_AOI)
    hits["MissingVideo"] = (exc.value.participant_id, exc.value.video_id) == (pid, vid)

    ok = all(hits.values())
    record_acceptance(
        10, "ingest error taxonomy exercised with line/identifier context",
        ok, ", ".join(k for k, v in hits.items() if v),
    )
