"""Independent oracles for the test suite.

Everything here is deliberately naive: plain Python loops over frames, a
slow projected-gradient ascent for the SVM dual, the SMO and MLP
training loops and the stratified fold deal as they were before their
rewrites, and the gaze log writer as one ``%``-format. These must never share code with the
implementations they check. The AOI oracles take a sequence of boxes,
each with the fields of ``conftest.Box``.
"""
from __future__ import annotations

import csv
import io
import math
import warnings
from collections import Counter
from pathlib import Path
from typing import Optional

import numpy as np

from gazescreen.core import FeatureMode
from gazescreen.errors import (
    DivergenceDetected,
    EmptyLog,
    GazeScreenError,
    InsufficientData,
    MalformedRow,
    MissingVideo,
    NoAoiInWindow,
    NoAoiTrack,
    NonFiniteFeature,
    NonMonotonicTimestamp,
    SingleClass,
    TooFewPerClass,
)
from gazescreen.features import full_window


def frames_in_window(start_s, duration_s, fps, n_frames):
    out = []
    for f in range(n_frames):
        t = f / fps
        if start_s - 1e-9 <= t < start_s + duration_s - 1e-9:
            out.append(f)
    return out


def _pop_std(values):
    m = sum(values) / len(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def oracle_f1(aligned, w):
    frames = frames_in_window(w.start_s, w.duration_s, aligned.fps, aligned.n_frames)
    pts = [(aligned.x[f], aligned.y[f]) for f in frames if aligned.present[f]]
    if len(pts) < 2:
        return None
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    var_x = sum((p[0] - mx) ** 2 for p in pts) / len(pts)
    var_y = sum((p[1] - my) ** 2 for p in pts) / len(pts)
    return math.sqrt(var_x + var_y)


def oracle_f2(aligned, w):
    frames = frames_in_window(w.start_s, w.duration_s, aligned.fps, aligned.n_frames)
    mags = []
    for f in frames:
        if f + 1 not in frames:
            continue
        if aligned.present[f] and aligned.present[f + 1] and not aligned.gap[f + 1]:
            dx = aligned.x[f + 1] - aligned.x[f]
            dy = aligned.y[f + 1] - aligned.y[f]
            mags.append(math.hypot(dx, dy))
    if len(mags) < 2:
        return None
    return _pop_std(mags)


def _boxes_by_frame(boxes):
    by_frame = {}
    for b in boxes:
        by_frame.setdefault(b.frame_index, []).append(b)
    return by_frame


def oracle_f3(aligned, boxes, w):
    frames = frames_in_window(w.start_s, w.duration_s, aligned.fps, aligned.n_frames)
    by_frame = _boxes_by_frame(boxes)
    dists = []
    for f in frames:
        if not aligned.present[f] or f not in by_frame:
            continue
        ds = []
        for b in by_frame[f]:
            cx = (b.x_min + b.x_max) / 2
            cy = (b.y_min + b.y_max) / 2
            ds.append(abs(aligned.x[f] - cx) + abs(aligned.y[f] - cy))
        dists.append(min(ds))
    if len(dists) < 2:
        return None
    return _pop_std(dists)


def oracle_f4(aligned, boxes, w):
    frames = frames_in_window(w.start_s, w.duration_s, aligned.fps, aligned.n_frames)
    by_frame = _boxes_by_frame(boxes)
    sq = []
    for f in frames:
        if not aligned.present[f] or f not in by_frame:
            continue
        ds = []
        for b in by_frame[f]:
            cx = (b.x_min + b.x_max) / 2
            cy = (b.y_min + b.y_max) / 2
            ds.append(math.hypot(aligned.x[f] - cx, aligned.y[f] - cy))
        sq.append(min(ds) ** 2)
    if not sq:
        return None
    return math.sqrt(sum(sq) / len(sq))


def oracle_occurrences(boxes, n_frames):
    """(object_id, enter, exit) triples by scanning frame by frame."""
    by_obj = {}
    for b in boxes:
        if b.frame_index < n_frames:
            by_obj.setdefault(b.object_id, set()).add(b.frame_index)
    occs = []
    for oid, frames in by_obj.items():
        for f in sorted(frames):
            if f - 1 not in frames:
                end = f
                while end + 1 in frames:
                    end += 1
                occs.append((oid, f, end))
    return sorted(occs, key=lambda o: (o[1], o[0]))


def oracle_f5(aligned, boxes, w):
    frames = frames_in_window(w.start_s, w.duration_s, aligned.fps, aligned.n_frames)
    if not frames:
        return None
    lo, hi = frames[0], frames[-1]
    by_frame_obj = {}
    for b in boxes:
        by_frame_obj[(b.frame_index, b.object_id)] = b
    delays = []
    for oid, enter, exit_ in oracle_occurrences(boxes, aligned.n_frames):
        e = max(enter, lo)
        x = min(exit_, hi)
        if e > x:
            continue
        delay = None
        for f in range(e, x + 1):
            b = by_frame_obj.get((f, oid))
            if b is None or not aligned.present[f]:
                continue
            if b.x_min <= aligned.x[f] <= b.x_max and b.y_min <= aligned.y[f] <= b.y_max:
                delay = (f - e) / aligned.fps
                break
        if delay is None:
            delay = (x - e + 1) / aligned.fps
        delays.append(delay)
    if not delays:
        return None
    return sum(delays) / len(delays)


def oracle_gap(present, wall_s, fps):
    """Gap flags of ``ingest.align``, frame by frame: a frame begins a gap
    when its predecessor is absent, or when both are present and their
    wall-clock times are more than 2/fps + 0.5 s apart."""
    max_spread = 2.0 / fps + 0.5
    gap = [False] * len(present)
    for f in range(1, len(present)):
        if not present[f - 1]:
            gap[f] = True
        elif present[f] and (wall_s[f] - wall_s[f - 1]) > max_spread:
            gap[f] = True
    return gap


def oracle_parse_gaze_log(path, meta, participant_id=None):
    """``ingest.parse_gaze_log`` as a row-by-row loop: returns
    (participant_id, wall_ts, video_ts, x, y, valid) as lists, or raises
    the error for the first bad row, checking each row's rules in order.
    Every row's participant id must be ``participant_id``, or the first
    row's when it is None. An error names the first file line of its row."""
    header_names = ["participant_id", "video_id", "wall_ts_ms", "video_ts_ms",
                    "x_px", "y_px", "valid"]
    cols = ([], [], [], [], [])
    seen_rows = False
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != header_names:
            raise MalformedRow(path, 1, f"expected header {','.join(header_names)}")
        prev_wall = prev_video = -math.inf
        line_end = reader.line_num
        for row in reader:
            line_no, line_end = line_end + 1, reader.line_num
            if not row:
                continue
            if len(row) != 7:
                raise MalformedRow(path, line_no, f"expected 7 fields, got {len(row)}")
            pid, vid, *numbers, flag = row
            if participant_id is None:
                participant_id = pid
            seen_rows = True
            if vid != meta.video_id:
                raise MalformedRow(path, line_no, f"video id {vid!r} does not match {meta.video_id!r}")
            if pid != participant_id:
                raise MalformedRow(
                    path, line_no, f"participant id {pid!r} does not match {participant_id!r}")
            values = []
            for what, text in zip(header_names[2:6], numbers):
                try:
                    v = float(text)
                except ValueError:
                    raise MalformedRow(path, line_no, f"bad {what}: {text!r}") from None
                if not math.isfinite(v):
                    raise MalformedRow(path, line_no, f"non-finite {what}")
                values.append(v)
            wall, video, x_px, y_px = values
            if flag.strip() not in ("0", "1"):
                raise MalformedRow(path, line_no, f"valid must be 0 or 1, got {flag!r}")
            if wall <= prev_wall:
                raise NonMonotonicTimestamp(path, line_no)
            if video < prev_video:
                raise MalformedRow(path, line_no, "video_ts_ms decreases")
            if wall < 0:
                raise MalformedRow(path, line_no, "negative wall_ts_ms")
            if video < 0:
                raise MalformedRow(path, line_no, "negative video_ts_ms")
            prev_wall, prev_video = wall, video
            x = x_px / meta.width_px
            y = y_px / meta.height_px
            on_screen = 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
            for col, v in zip(cols, (wall, video, x, y, flag.strip() == "1" and on_screen)):
                col.append(v)
    if not seen_rows:
        raise EmptyLog(path)
    return (participant_id, *cols)


def oracle_trace_rows(params, meta, boxes, rng, sample_rate_hz):
    """``synth.generate_trace_rows`` as a sample-by-sample loop, with its
    own per-frame AOI lookup built from the boxes.
    Returns a list of (wall_s, video_s, x, y, valid) tuples; the RNG is
    drawn in the generator's order, so the rows and the final RNG state
    must match bit for bit."""
    dt = 1.0 / sample_rate_hz
    n = meta.n_frames
    present = np.zeros(n, dtype=bool)
    cx = np.zeros(n)
    cy = np.zeros(n)
    occ_start = np.full(n, -1, dtype=int)  # enter frame of the covering occurrence
    for b in boxes:
        present[b.frame_index] = True
        cx[b.frame_index], cy[b.frame_index] = b.center
    start = -1
    for f in range(n):
        if present[f]:
            if start < 0:
                start = f
            occ_start[f] = start
        else:
            start = -1
    # one first-look latency per occurrence
    latencies = {}
    for f in range(meta.n_frames):
        s = occ_start[f]
        if s >= 0 and s not in latencies:
            latencies[s] = max(0.0, float(rng.normal(params.latency_mean_s, params.latency_sd_s)))

    rows = []
    wall = 0.0
    video = 0.0
    pos = np.array([0.5, 0.5])
    if params.offscreen_rate_hz > 0:
        next_off = float(rng.exponential(1.0 / params.offscreen_rate_hz))
    else:
        next_off = np.inf

    def frame_at(v):
        return min(int(v * meta.fps), meta.n_frames - 1)

    while video < meta.duration_s - 1e-9:
        if wall >= next_off:
            # look-away run: samples invalid; video freezes after 500 ms
            off_dur = float(rng.uniform(0.6, 1.5))
            elapsed = 0.0
            while elapsed < off_dur and video < meta.duration_s - 1e-9:
                rows.append((wall, video, -0.1, -0.1, 0))
                wall += dt
                elapsed += dt
                if elapsed <= 0.5:
                    video = min(video + dt, meta.duration_s)
            next_off = wall + float(rng.exponential(1.0 / params.offscreen_rate_hz))
            continue

        # choose the next fixation target
        f = frame_at(video)
        attend = False
        if present[f]:
            enter = occ_start[f]
            if video >= enter / meta.fps + latencies[enter]:
                attend = rng.random() < params.p_attend
        if attend:
            target = np.array([cx[f], cy[f]])
            fix_dur = float(rng.exponential(params.fix_dur_aoi_mean_s))
        else:
            target = rng.uniform(0.05, 0.95, size=2)
            fix_dur = float(rng.exponential(params.fix_dur_bg_mean_s))
        fix_dur = min(max(fix_dur, 0.08), 2.0)

        # saccade: linear sweep from the previous position
        n_sac = max(1, int(round(params.saccade_dur_s / dt)))
        for k in range(1, n_sac + 1):
            if video >= meta.duration_s - 1e-9:
                break
            p = pos + (target - pos) * (k / n_sac)
            rows.append((wall, video, float(np.clip(p[0], 0, 1)), float(np.clip(p[1], 0, 1)), 1))
            wall += dt
            video = min(video + dt, meta.duration_s)
        pos = target

        # fixation: follow the (possibly moving) target with jitter
        elapsed = 0.0
        while elapsed < fix_dur and video < meta.duration_s - 1e-9:
            f = frame_at(video)
            if attend and present[f]:
                center = np.array([cx[f], cy[f]])
            else:
                center = target
            p = center + rng.normal(0.0, params.jitter_sd, size=2)
            rows.append((wall, video, float(np.clip(p[0], 0, 1)), float(np.clip(p[1], 0, 1)), 1))
            wall += dt
            video = min(video + dt, meta.duration_s)
            elapsed += dt
            pos = p
    return rows


def oracle_write_gaze_log(path, participant_id, video_id, rows):
    """``synth.write_gaze_log`` as one ``%``-format for the whole log,
    which gives the same strings as an f-string per row."""
    fmt = f"{participant_id},{video_id},".replace("%", "%%") + "%.3f,%.3f,%.2f,%.2f,%d\n"
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("participant_id,video_id,wall_ts_ms,video_ts_ms,x_px,y_px,valid\n")
        fh.write((fmt * len(rows)) % tuple(rows.ravel().tolist()))


def oracle_stratified_folds(labels, folds, rng):
    """``experiments.stratified_folds`` as it was before its rewrite: the
    classes from ``np.unique`` and one Python assignment per member."""
    labels = np.asarray(labels)
    assignment = np.full(len(labels), -1, dtype=int)
    start = 0
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        if len(members) < folds:
            raise TooFewPerClass(
                f"class {cls} has {len(members)} members, need >= {folds}"
            )
        members = members[rng.permutation(len(members))]
        for k, idx in enumerate(members):
            assignment[idx] = (start + k) % folds
        start = (start + len(members)) % folds
    return assignment


def oracle_cv_fold_rows(config, y, tag, draw_X):
    """The CV protocol of ``experiments`` as the per-fold loop it was
    before its folds were stacked: for each repetition r, draw
    ``draw_X(rng)`` and the folds from ``derive_rng(config.seed, *tag, r)``,
    then for each fold one ``Standardizer`` fitted on its training rows,
    one ``svm_train`` call with the next seed, and the decision values of
    its test rows. Returns (rows, models): the fold rows (rep, fold,
    accuracy, n_test, tp, tn, fp, fn) and the trained models, in fold
    order."""
    from gazescreen.core import derive_rng
    from gazescreen.experiments import FOLDS, SVM_MAX_PASSES, SVM_TOL
    from gazescreen.learn import LABEL_ASD, Standardizer, svm_train

    rows, models = [], []
    for rep in range(config.repetitions):
        rng = derive_rng(config.seed, *tag, rep)
        X = draw_X(rng)
        assignment = oracle_stratified_folds(y, FOLDS, rng)
        for fold in range(FOLDS):
            test = assignment == fold
            scaler = Standardizer().fit(X[~test])
            model = svm_train(scaler.transform(X[~test]), y[~test], C=config.C,
                              gamma=config.gamma, coef0=config.coef0, tol=SVM_TOL,
                              max_passes=SVM_MAX_PASSES, seed=int(rng.integers(2**31)))
            flagged = model.decision_value(scaler.transform(X[test])) > 0
            asd = y[test] == LABEL_ASD
            tp, fn = int(np.sum(flagged & asd)), int(np.sum(~flagged & asd))
            tn, fp = int(np.sum(~flagged & ~asd)), int(np.sum(flagged & ~asd))
            rows.append({"rep": rep, "fold": fold, "accuracy": (tp + tn) / int(test.sum()),
                         "n_test": int(test.sum()), "tp": tp, "tn": tn, "fp": fp, "fn": fn})
            models.append(model)
    return rows, models


def projected_gradient_qp(K, y, C, steps=20000, lr=None):
    """Slow projected-gradient ascent on the SVM dual.

    Maximizes sum(a) - 0.5 a'Qa with Q = yy' * K, subject to 0 <= a <= C
    and y'a = 0 (enforced by projecting the gradient onto the equality
    constraint and re-clipping).
    """
    n = len(y)
    Q = np.outer(y, y) * K
    if lr is None:
        lr = 1.0 / (np.abs(Q).sum(axis=1).max() + 1.0)
    a = np.zeros(n)
    for _ in range(steps):
        grad = 1.0 - Q @ a
        # project gradient direction onto y'd = 0
        d = grad - y * (y @ grad) / n
        a_new = np.clip(a + lr * d, 0.0, C)
        # restore equality feasibility by a small correction along y
        drift = float(y @ a_new)
        for _fix in range(50):
            if abs(drift) < 1e-12:
                break
            free = (a_new > 1e-12) & (a_new < C - 1e-12)
            adj = free if free.any() else np.ones(n, dtype=bool)
            a_new[adj] -= y[adj] * drift / adj.sum()
            a_new = np.clip(a_new, 0.0, C)
            drift = float(y @ a_new)
        a = a_new
    return a


def dual_objective(K, y, a):
    ay = a * y
    return float(a.sum() - 0.5 * ay @ K @ ay)


def oracle_svm_train(X, y, C=1.0, gamma=None, coef0=0.0, tol=1e-3,
                     max_passes=1000, seed=0, branches=None):
    """``learn.svm_train`` as it was before its incremental-mask rewrite:
    every iteration rebuilds the up/low masks with numpy and the pair
    arithmetic reads numpy scalars. The kernel and the default gamma are
    inlined here.

    Returns (support_vectors, dual_coef, bias, converged,
    final_kkt_violation) and warns exactly as ``svm_train`` does.
    ``branches``, a Counter if given, counts the steps taken by each route
    of the solver ("pair", "partner", "sweep", "flat"), the fallback
    sweeps entered ("sweep_entered"), the fits that stopped with no pair
    able to move ("stalled") and the fits that did not converge
    ("nonconverged").
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("training matrix contains non-finite values")
    if len(np.unique(y)) < 2:
        raise SingleClass("need at least one example of each class")
    if gamma is None:
        mean_var = float(X.var(axis=0).mean())
        gamma = 1.0 if mean_var <= 0 else 1.0 / (X.shape[1] * mean_var)
    if branches is None:
        branches = Counter()
    n = len(y)
    rng = np.random.default_rng(seed)
    K = (gamma * (X @ X.T) + coef0) ** 3
    alpha = np.zeros(n)
    G = -y.astype(float)  # bias-free errors: sum_j a_j y_j K_ij - y_i

    def up_low_masks():
        up = ((y > 0) & (alpha < C - 1e-12)) | ((y < 0) & (alpha > 1e-12))
        low = ((y < 0) & (alpha < C - 1e-12)) | ((y > 0) & (alpha > 1e-12))
        return up, low

    def kkt_gap():
        up, low = up_low_masks()
        m = float((-G[up]).max()) if up.any() else -np.inf
        M = float((-G[low]).min()) if low.any() else np.inf
        bias = (m + M) / 2.0 if np.isfinite(m) and np.isfinite(M) else 0.0
        return m - M, bias

    def delta_objective(i, j, aj_new):
        d_aj = aj_new - alpha[j]
        d_ai = -y[i] * y[j] * d_aj
        gi = G[i] + y[i]
        gj = G[j] + y[j]
        return (
            d_ai + d_aj
            - y[i] * d_ai * gi
            - y[j] * d_aj * gj
            - 0.5 * (d_ai**2 * K[i, i] + d_aj**2 * K[j, j])
            - d_ai * d_aj * y[i] * y[j] * K[i, j]
        )

    def take_step(i, j):
        if i == j:
            return False
        if y[i] != y[j]:
            L = max(0.0, alpha[j] - alpha[i])
            H = min(C, C + alpha[j] - alpha[i])
        else:
            L = max(0.0, alpha[i] + alpha[j] - C)
            H = min(C, alpha[i] + alpha[j])
        if H - L < 1e-12:
            return False
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta > 1e-12:
            aj_new = alpha[j] + y[j] * (G[i] - G[j]) / eta
            aj_new = min(max(aj_new, L), H)
        else:
            dW_L = delta_objective(i, j, L)
            dW_H = delta_objective(i, j, H)
            if dW_L > dW_H and dW_L > 1e-12:
                aj_new = L
            elif dW_H >= dW_L and dW_H > 1e-12:
                aj_new = H
            else:
                return False
        d_aj = aj_new - alpha[j]
        if abs(d_aj) < 1e-12:
            return False
        if eta <= 1e-12:
            branches["flat"] += 1
        d_ai = -y[i] * y[j] * d_aj
        G[:] += y[i] * d_ai * K[:, i] + y[j] * d_aj * K[:, j]
        alpha[i] += d_ai
        alpha[j] = aj_new
        return True

    def try_violator(i, partners):
        order = partners[np.argsort(-np.abs(G[i] - G[partners]))]
        for j in order[: min(len(order), 8)]:
            if take_step(i, int(j)):
                branches["partner"] += 1
                return True
        branches["sweep_entered"] += 1
        for j in rng.permutation(n):
            if take_step(i, int(j)):
                branches["sweep"] += 1
                return True
        return False

    max_iter = max_passes * n
    it = 0
    while it < max_iter:
        gap, _ = kkt_gap()
        if gap <= tol:
            break
        up, low = up_low_masks()
        up_idx = np.nonzero(up)[0]
        low_idx = np.nonzero(low)[0]
        i_up = int(up_idx[np.argmax(-G[up_idx])])
        i_low = int(low_idx[np.argmin(-G[low_idx])])
        if take_step(i_up, i_low):
            branches["pair"] += 1
        elif not (try_violator(i_up, low_idx) or try_violator(i_low, up_idx)):
            branches["stalled"] += 1
            break
        it += 1

    gap, b = kkt_gap()
    worst = max(0.0, gap)
    converged = gap <= tol
    if not converged:
        branches["nonconverged"] += 1
        warnings.warn(
            f"SMO did not reach tol={tol}: max KKT violation {worst:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    sv = alpha > 1e-12
    return X[sv].copy(), (alpha * y)[sv].copy(), b, converged, worst


def oracle_mlp_train(X, y, cfg, seed=0, branches=None):
    """``learn.mlp_train`` as it was before its flat-vector rewrite: one
    Adam update per parameter array, and the full loss and gradients at
    every epoch-end check. The loss and gradients and the Glorot draws are
    inlined here; ``cfg`` is a ``learn.MlpConfig``.

    Returns (W1, b1, W2, b2) and raises ``DivergenceDetected`` exactly as
    ``mlp_train`` does. ``branches``, a Counter if given, counts the fits
    with several minibatches per epoch ("minibatches") or one
    ("one_batch"), those that stopped by patience ("patience") or at the
    epoch cap ("max_epochs"), and those that diverged on a minibatch
    ("diverged_step") or at an epoch-end check ("diverged_epoch"), and
    the epochs begun ("epochs"), the epoch that stops the fit included.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if branches is None:
        branches = Counter()
    n, d = X.shape
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out, shape):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    W1 = glorot(d, cfg.hidden, (d, cfg.hidden))
    b1 = np.zeros(cfg.hidden)
    W2 = glorot(cfg.hidden, 1, (cfg.hidden, 1))
    b2 = np.zeros(1)

    def loss_and_grads(X, y):
        n = len(y)
        h = np.maximum(X @ W1 + b1, 0.0)
        pred = (h @ W2 + b2)[:, 0]
        resid = pred - y
        l2 = cfg.l2
        loss = 0.5 * float(np.mean(resid**2))
        loss += l2 / (2.0 * n) * (float(np.sum(W1**2)) + float(np.sum(W2**2)))
        d_out = (resid / n)[:, None]
        gW2 = h.T @ d_out + (l2 / n) * W2
        gb2 = d_out.sum(axis=0)
        d_h = d_out @ W2.T
        d_h[h <= 0.0] = 0.0
        gW1 = X.T @ d_h + (l2 / n) * W1
        gb1 = d_h.sum(axis=0)
        return loss, (gW1, gb1, gW2, gb2)

    params = [W1, b1, W2, b2]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0
    batch = min(cfg.batch_size, n)
    branches["minibatches" if batch < n else "one_batch"] += 1
    best_loss = np.inf
    stall = 0
    for _epoch in range(cfg.max_epochs):
        branches["epochs"] += 1
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss, grads = loss_and_grads(X[idx], y[idx])
            if not np.isfinite(loss):
                branches["diverged_step"] += 1
                raise DivergenceDetected(f"loss became {loss}")
            t += 1
            for k, (p, g) in enumerate(zip(params, grads)):
                m[k] = cfg.beta1 * m[k] + (1 - cfg.beta1) * g
                v[k] = cfg.beta2 * v[k] + (1 - cfg.beta2) * g * g
                m_hat = m[k] / (1 - cfg.beta1**t)
                v_hat = v[k] / (1 - cfg.beta2**t)
                p -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        epoch_loss, _ = loss_and_grads(X, y)
        if not np.isfinite(epoch_loss):
            branches["diverged_epoch"] += 1
            raise DivergenceDetected(f"loss became {epoch_loss}")
        if best_loss - epoch_loss > cfg.early_stop_tol:
            best_loss = epoch_loss
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                branches["patience"] += 1
                break
    else:
        branches["max_epochs"] += 1
    return W1, b1, W2, b2


# ``features.extract`` and its helpers, and the per-pair loop of
# ``pipeline.collect_extraction_failures``, as they were before the stack
# pass, which must give the same row bytes and the same errors.


def _old_frame_range(w: Window, fps: float, n_frames: int) -> tuple[int, int]:
    """Half-open frame index range [lo, hi) of frames whose timestamp
    f/fps falls inside the window."""
    lo = int(math.ceil(w.start_s * fps - 1e-9))
    hi = int(math.ceil(w.end_s * fps - 1e-9))
    return max(lo, 0), min(hi, n_frames)


def _old_std_pop(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean((values - values.mean()) ** 2)))


def _old_frames(aligned: AlignedTrace, w: Window) -> tuple[int, int]:
    return _old_frame_range(w, aligned.fps, aligned.n_frames)


def _old_require_aoi(video: AlignedTrace | TraceStack, aoi: AoiIndex | None) -> None:
    """Check that ``aoi`` indexes the video of a trace or a stack: a
    missing track is a ``NoAoiTrack``, a frame count that differs from
    the video's a ``ValueError``."""
    if aoi is None:
        raise NoAoiTrack(video.video_id)
    if aoi.n_frames != video.n_frames:
        raise ValueError(
            f"AOI index has {aoi.n_frames} frames, {type(video).__name__} has {video.n_frames}"
        )


def _old_std_gaze(aligned, lo, hi, w) -> float:
    mask = aligned.present[lo:hi]
    if int(mask.sum()) < 2:
        raise InsufficientData(f"F1 needs >= 2 present frames in {w}")
    xs = aligned.x[lo:hi][mask]
    ys = aligned.y[lo:hi][mask]
    return float(np.sqrt(np.var(xs) + np.var(ys)))


def _old_std_diff(aligned, lo, hi, w) -> float:
    if hi - lo < 2:
        raise InsufficientData(f"F2 needs >= 2 frames in {w}")
    p = aligned.present[lo:hi]
    eligible = p[:-1] & p[1:] & ~aligned.gap[lo + 1 : hi]
    if int(eligible.sum()) < 2:
        raise InsufficientData(f"F2 needs >= 2 eligible consecutive pairs in {w}")
    dx = np.diff(aligned.x[lo:hi])[eligible]
    dy = np.diff(aligned.y[lo:hi])[eligible]
    return _old_std_pop(np.hypot(dx, dy))


def _old_center_distances(aligned, aoi: AoiIndex, lo, hi, w):
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


def _old_std_manhattan(manhattan, w) -> float:
    if len(manhattan) < 2:
        raise InsufficientData(f"F3 needs >= 2 present+annotated frames in {w}")
    return _old_std_pop(manhattan)


def _old_rmse(euclidean, w) -> float:
    if len(euclidean) < 1:
        raise NoAoiInWindow(f"no frame both present and annotated in {w}")
    return float(np.sqrt(np.mean(euclidean**2)))


def _old_first_look_delay(video: AlignedTrace | TraceStack, aoi: AoiIndex, lo, hi, w) -> np.ndarray:
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


def oracle_feature_std_gaze(aligned: AlignedTrace, w: Window) -> float:
    """F1: sqrt of summed per-axis population variances of gaze points."""
    return _old_std_gaze(aligned, *_old_frames(aligned, w), w)


def oracle_feature_std_diff(aligned: AlignedTrace, w: Window) -> float:
    """F2: population std of Euclidean displacement between consecutive
    frames. Pairs spanning a gap flag are excluded."""
    return _old_std_diff(aligned, *_old_frames(aligned, w), w)


def oracle_feature_std_manhattan(aligned: AlignedTrace, aoi: AoiIndex, w: Window) -> float:
    """F3: population std of the Manhattan distance from gaze to the
    nearest annotated box center, over frames that are both present and
    annotated."""
    _old_require_aoi(aligned, aoi)
    manhattan, _ = _old_center_distances(aligned, aoi, *_old_frames(aligned, w), w)
    return _old_std_manhattan(manhattan, w)


def oracle_feature_rmse_aoi(aligned: AlignedTrace, aoi: AoiIndex, w: Window) -> float:
    """F4: RMS Euclidean distance from gaze to the nearest annotated box
    center, paired frame by frame."""
    _old_require_aoi(aligned, aoi)
    _, euclidean = _old_center_distances(aligned, aoi, *_old_frames(aligned, w), w)
    return _old_rmse(euclidean, w)


def oracle_feature_delay(aligned: AlignedTrace, aoi: AoiIndex, w: Window) -> float:
    """F5: mean first-look delay in seconds, averaged over all AOI
    occurrences overlapping the window.

    Each occurrence is clipped to the window (enter frame clamped to the
    window start). The delay is the time from the clipped enter frame to
    the first frame whose present gaze point lies inside that object's
    box; if the gaze never enters during the clipped span, the delay is
    right-censored at the clipped span duration.
    """
    _old_require_aoi(aligned, aoi)
    return float(_old_first_look_delay(aligned, aoi, *_old_frames(aligned, w), w)[0])


def oracle_extract(
    aligned: AlignedTrace,
    aoi: AoiIndex | None,
    w: Window,
    mode: FeatureMode,
) -> np.ndarray:
    """``features.extract`` as it was before the stack pass: one trace's
    feature row, [F1..F5] with AOI, [F1, F2] without, from the helpers
    above, each reducing the trace's compressed values; the first rule
    that fails raises."""
    lo, hi = _old_frames(aligned, w)
    values = [_old_std_gaze(aligned, lo, hi, w), _old_std_diff(aligned, lo, hi, w)]
    if mode is FeatureMode.WITH_AOI:
        _old_require_aoi(aligned, aoi)
        manhattan, euclidean = _old_center_distances(aligned, aoi, lo, hi, w)
        values.append(_old_std_manhattan(manhattan, w))
        values.append(_old_rmse(euclidean, w))
        values.append(float(_old_first_look_delay(aligned, aoi, lo, hi, w)[0]))
    row = np.array(values)
    if not np.isfinite(row).all():
        raise NonFiniteFeature(
            f"non-finite feature for {aligned.participant_id}/{aligned.video_id} in {w}"
        )
    return row


def oracle_extraction_failures(
    dataset: Dataset, mode: FeatureMode
) -> tuple[list[tuple[str, str, GazeScreenError]], dict]:
    """``pipeline.collect_extraction_failures`` as it was before the stack
    pass, with ``oracle_extract`` in place of ``extract``: extract every
    (participant, video) on its full window, one pair at a time, in
    participant (``dataset.manifest_order``) then video order, collecting
    every failure instead of stopping at the first.

    Returns ``(failures, rows)``: ``failures`` holds
    (participant_id, video_id, error) triples, with ``MissingVideo`` for a
    pair without a gaze log, and ``rows`` maps each pair that succeeded to
    its feature row from ``extract``.
    """
    failures = []
    rows = {}
    for p in dataset.manifest_order:
        for vid in dataset.video_order:
            key = (p.participant_id, vid)
            if key not in dataset.aligned:
                failures.append((*key, MissingVideo(*key)))
                continue
            at = dataset.aligned[key]
            try:
                rows[key] = oracle_extract(at, dataset.aoi.get(vid), full_window(at), mode)
            except GazeScreenError as e:
                failures.append((*key, e))
    return failures, rows


_OLD_PLAIN_HEADER = b"participant_id,video_id,wall_ts_ms,video_ts_ms,x_px,y_px,valid\n"


def oracle_plain_columns(data: bytes, video_id: str, participant_id: Optional[str]):
    """``ingest._plain_columns`` as it was before its one separator pass,
    with separate newline, control-byte and comma passes and a
    ``searchsorted``: the (participant id, numbers, flags) of a gaze log
    in the plain subset, read by numpy's C parser; None for any other
    file. ``numbers`` is (4, n_rows): wall, video, x_px, y_px; ``flags``
    is the tracker's valid flag of each row.

    Plain: the exact header line; printable ASCII lines ended by LF or
    CRLF, with no ``"``; at least one data row; every non-blank line has 7
    fields (6 commas) and starts with ``<participant id>,<video id>,``
    (the given id, else the first row's); a one-byte 0/1 flag; four
    numbers that ``np.loadtxt`` reads and that pass the rules on numbers
    (all finite, wall time strictly increasing, video time non-decreasing,
    both non-negative). Each CRLF is read as LF, which keeps the line
    count; any other CR leaves the subset. ``loadtxt`` and ``float`` both
    convert with ``PyOS_string_to_double``, and in this subset ``loadtxt``
    accepts no text that ``float`` rejects, so the values are
    ``_row_columns``' bit for bit. Such a file passes every row rule.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not (data.startswith(_OLD_PLAIN_HEADER) and data.isascii()) or b'"' in data:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    if np.count_nonzero(buf < ord(" ")) != len(newlines):
        return None
    # line i after the header spans [starts[i], ends[i]); a final newline
    # leaves an empty one, and a line's commas are those before the next start
    starts = newlines + 1
    ends = np.append(newlines[1:], len(data))
    commas = np.flatnonzero(buf == ord(","))
    first = np.searchsorted(commas, starts)
    rows = np.flatnonzero(ends > starts)
    if not len(rows) or np.any(np.diff(first, append=len(commas))[rows] != 6):
        return None
    starts, ends, first = starts[rows], ends[rows], first[rows]
    pid = participant_id
    if pid is None:
        pid = data[starts[0]: commas[first[0]]].decode("ascii")
    prefix = f"{pid},{video_id},"
    if not prefix.isascii() or prefix.count(",") != 2:
        return None
    if data.count(b"\n" + prefix.encode("ascii")) != len(rows):
        return None
    flags = buf[ends - 1]
    tracker_valid = flags == ord("1")
    one_byte_flag = np.array_equal(commas[first + 5], ends - 2)
    if not (one_byte_flag and (tracker_valid | (flags == ord("0"))).all()):
        return None
    try:
        numbers = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, usecols=(2, 3, 4, 5),
                             dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    if numbers.shape != (len(rows), 4):  # a blank line loadtxt kept would misalign the flags
        return None
    numbers = numbers.T.copy()
    wall, video = numbers[0], numbers[1]
    if not (np.isfinite(numbers).all() and (wall[1:] > wall[:-1]).all()
            and (video[1:] >= video[:-1]).all() and numbers[:2].min() >= 0):
        return None
    return pid, numbers, tracker_valid
