"""Learners implemented from first principles.

- Standardizer: per-dimension z-scoring fitted on training data only; one
  masked fit standardises every fold of a (F, n, d) stack.
- SvmModel: soft-margin SVM with a third-degree polynomial kernel, trained
  by sequential minimal optimization (SMO) on the dual. Training runs F
  problems of any sizes (the folds of a cross-validation) in lockstep: their
  rows come as stacks, checked and turned into kernels per stack; their
  kernels, labels, alphas and error caches are (F, n_max[, n_max]) stacks,
  zero-padded, and each iteration moves every fold whose working pair takes
  the plain step by one elementwise pass; a fold that needs another route
  takes the scalar SMO step on its own rows, and a fold left alone
  finishes in a scalar loop. One model is the case F = 1.
- MlpModel: one-hidden-layer (width 100, ReLU) regressor trained with
  adaptive-moment SGD on mean squared error plus an L2 penalty. A trained
  model's W1, b1, W2 and b2 are views of one flat parameter vector.
  Training runs F same-shape problems (the folds of a cross-validation) in
  lockstep: their flat vectors, gradients and Adam moments are (F, size)
  arrays, each updated whole, and one model is the case F = 1.

Everything is deterministic given a seed.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DivergenceDetected,
    NonFiniteFeature,
    SingleClass,
)

LABEL_ASD = 1
LABEL_CONTROL = -1

# degree of the SVM's polynomial kernel, defined once in _kernel_matrix
KERNEL_DEGREE = 3

# an SMO alpha within this of 0 or of C is at that bound; so C must exceed
# it, or no alpha can ever move off 0
ALPHA_TOL = 1e-12

# the lockstep SMO solves its folds in chunks whose (folds x n_max x n_max)
# float64 kernel stack fits in this many bytes (a chunk holds one fold at
# least)
SMO_STACK_BYTES = 1 << 20


@dataclass
class Standardizer:
    mean: np.ndarray = None
    std: np.ndarray = None

    def fit(self, X: np.ndarray, rows=None) -> "Standardizer":
        """Fit each column of ``X`` (n, d); or fit fold f of a stack (F, n,
        d) on the rows that the bool mask rows[f] selects, as (F, 1, d)
        statistics: bit for bit those of fitting them alone if they come first."""
        X = np.asarray(X, dtype=float)
        where = True if rows is None else np.broadcast_to(rows, X.shape[:-1])[..., None]
        self.mean = X.mean(axis=-2, keepdims=rows is not None, where=where)
        self.std = X.std(axis=-2, keepdims=rows is not None, where=where)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        flat = self.std <= 1e-12
        Z = X - self.mean
        Z /= np.where(flat, 1.0, self.std)
        np.copyto(Z, 0.0, where=flat)  # zero-variance dimensions carry no information
        return Z


def _kernel_matrix(A: np.ndarray, B: np.ndarray, gamma, coef0: float) -> np.ndarray:
    """The cubic kernel between the rows of ``A`` (a matrix, or one row)
    and the rows of ``B``; or, for stacks (F, n, d), of each fold, with a
    gamma per fold as an (F, 1, 1) array."""
    return (gamma * (A @ B.swapaxes(-1, -2)) + coef0) ** KERNEL_DEGREE


def gamma_scale(X: np.ndarray):
    """Default kernel scale: 1 / (d * mean per-dimension variance) of the
    rows of ``X`` (n, d), a float; or of each matrix of a stack (F, n, d),
    an (F,) array."""
    X = np.asarray(X, dtype=float)
    mean_var = X.var(axis=-2).mean(axis=-1)
    with np.errstate(divide="ignore"):
        gamma = np.where(mean_var <= 0, 1.0, 1.0 / (X.shape[-1] * mean_var))
    return gamma if gamma.ndim else float(gamma)


@dataclass
class SvmModel:
    support_vectors: np.ndarray  # (n_sv, d), standardized rows
    dual_coef: np.ndarray  # (n_sv,), alpha_i * y_i
    bias: float
    gamma: float
    coef0: float
    C: float = 1.0
    converged: bool = True
    final_kkt_violation: float = 0.0

    @property
    def dim(self) -> int:
        return self.support_vectors.shape[1]

    def decision_value(self, x: np.ndarray):
        """Decision value of one row (a float), or of every row of a matrix
        (an array), from one kernel product."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {x.shape[-1]}")
        k = _kernel_matrix(x, self.support_vectors, self.gamma, self.coef0)
        f = k @ self.dual_coef + self.bias
        return float(f) if x.ndim == 1 else f


def svm_predict(model: SvmModel, x: np.ndarray) -> tuple[int, float]:
    """Label and decision value; a decision value of exactly 0 breaks to
    CONTROL (no evidence, no flag)."""
    f = model.decision_value(x)
    return (LABEL_ASD if f > 0 else LABEL_CONTROL), f


def check_svm_params(C: float, gamma: float | None, coef0: float) -> None:
    """Raise ``ConfigError`` unless C is finite and above ``ALPHA_TOL``,
    gamma is None (the scale heuristic) or finite and positive, and coef0
    is finite."""
    if not (math.isfinite(C) and C > ALPHA_TOL):
        raise ConfigError(
            f"C must be finite and > {ALPHA_TOL:g}, the SMO's alpha tolerance, got {C}"
        )
    if gamma is not None and not (math.isfinite(gamma) and gamma > 0):
        raise ConfigError(f"gamma must be finite and > 0, got {gamma}")
    if not math.isfinite(coef0):
        raise ConfigError(f"coef0 must be finite, got {coef0}")


def svm_train(
    X: np.ndarray,
    y: np.ndarray,
    C: float = 1.0,
    gamma: float | None = None,
    coef0: float = 0.0,
    tol: float = 1e-3,
    max_passes: int = 1000,
    seed: int = 0,
) -> SvmModel:
    """Solve the soft-margin dual by SMO: the one-fold case of
    ``svm_train_stacks``."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    return svm_train_stacks([(X[None], y[None], [len(y)])], C, gamma, coef0, tol, max_passes,
                            [seed])[0]


def svm_train_stacks(stacks, C, gamma, coef0, tol, max_passes, seeds) -> list[SvmModel]:
    """Solve F soft-margin duals by SMO in lockstep; returns the F models in
    fold order. ``stacks`` holds the folds, in order, in stacks (X, Y,
    sizes): fold r of a stack trains on the first sizes[r] rows of X[r]
    (n, d) and Y[r] (n,) with the next seed. The working pair is the
    maximal violating pair, then the partner list, then a seeded sweep. A
    fold stops at gap ``tol``, when no pair can move, or after
    ``max_passes`` sweeps of its own n; folds that did not converge warn
    in fold order. Each fold's numbers are those of solving it alone.

    Consecutive stacks are solved together while their (folds x n x n)
    float64 kernel stack, zero-padded, fits in ``SMO_STACK_BYTES``. Each
    stack's kernel scales (``gamma_scale`` if gamma is None) and kernels
    are built once per fold size, and it is checked once: a fold's rows
    must be finite, its labels ``LABEL_ASD`` or ``LABEL_CONTROL`` (else
    ValueError, NaN included; checked by masks, as ``np.unique`` imports
    ``numpy.ma``) and of both classes (else ``SingleClass``), and its
    kernel finite. The first failing fold's first failing rule is raised,
    as a per-fold loop would raise it.
    """
    check_svm_params(C, gamma, coef0)
    stacks = [(np.asarray(X, dtype=float), np.asarray(Y, dtype=float), np.asarray(n, dtype=int))
              for X, Y, n in stacks]
    seeds = list(seeds)
    if sum(len(X) for X, _, _ in stacks) != len(seeds) or any(
            X.ndim != 3 or Y.shape != X.shape[:2] or n.shape != X.shape[:1] for X, Y, n in stacks):
        raise ValueError("need stacks of X (F, n, d), Y (F, n) and F sizes, and one seed per fold")
    models = []
    first = 0
    while first < len(stacks):
        last, count, n_max = first + 1, len(stacks[first][0]), stacks[first][0].shape[1]
        while last < len(stacks):
            n = max(n_max, stacks[last][0].shape[1])
            if (count + len(stacks[last][0])) * n * n * 8 > SMO_STACK_BYTES:
                break
            last, count, n_max = last + 1, count + len(stacks[last][0]), n
        models += _svm_solve(stacks[first:last], n_max, C, gamma, coef0, tol, max_passes,
                             seeds[len(models) : len(models) + count])
        first = last
    return models


def _svm_solve(stacks, n_max, C, gamma, coef0, tol, max_passes, seeds) -> list[SvmModel]:
    """Build, check and solve the folds of ``stacks`` in one kernel stack
    (F, n_max, n_max); see ``svm_train_stacks``."""
    sizes = np.concatenate([n for _, _, n in stacks])
    K = np.zeros((len(sizes), n_max, n_max))
    Y = np.zeros((len(sizes), n_max))  # a padding label, 0, never moves
    gammas = np.full(len(sizes), np.nan if gamma is None else float(gamma))
    start = 0
    for X, Ys, ns in stacks:
        k = slice(start, start + len(X))
        rows = np.arange(X.shape[1]) < ns[:, None]
        Y[k, : X.shape[1]] = np.where(rows, Ys, 0.0)
        # one product per fold size: a product of padded rows need not give
        # a fold's own bits (an empty fold is SingleClass below)
        for n in sorted(set(ns.tolist()) - {0}):
            same = start + (ns == n).nonzero()[0]
            Xn = X[same - start, :n]  # one array for both operands: numpy then calls syrk
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                if gamma is None:
                    gammas[same] = gamma_scale(Xn)
                K[same, :n, :n] = _kernel_matrix(Xn, Xn, gammas[same, None, None], coef0)
        is_asd, is_control = Y[k] == LABEL_ASD, Y[k] == LABEL_CONTROL
        pad = np.arange(n_max) >= ns[:, None]
        # each rule's failing folds, in the order a fold's checks run
        failing = np.stack([
            ~(np.isfinite(X).all(axis=2) | ~rows).all(axis=1),
            ~(is_asd | is_control | pad).all(axis=1),
            (is_asd | pad).all(axis=1) | (is_control | pad).all(axis=1),
            ~np.isfinite(K[k]).all(axis=(1, 2)),
        ])
        if failing.any():
            f = failing.any(axis=0).argmax()
            raise (NonFiniteFeature("training matrix contains non-finite values"),
                   ValueError(f"labels must be LABEL_ASD ({LABEL_ASD}) or "
                              f"LABEL_CONTROL ({LABEL_CONTROL})"),
                   SingleClass("need at least one example of each class"),
                   NonFiniteFeature(f"kernel matrix is not finite at "
                                    f"gamma={gammas.item(start + f)!r}, coef0={coef0!r}"),
                   )[failing[:, f].argmax()]
        start = k.stop
    solved = _smo_lockstep(K, Y, sizes.tolist(), C, tol, max_passes, seeds)
    del K  # the models keep their support vectors only
    models = []
    fold_rows = (X[r] for X, _, _ in stacks for r in range(len(X)))
    for f, (X, (alpha, m, M, gap)) in enumerate(zip(fold_rows, solved)):
        b = (m + M) / 2.0 if math.isfinite(m) and math.isfinite(M) else 0.0
        worst = max(0.0, gap)
        converged = gap <= tol
        if not converged:
            warnings.warn(f"SMO did not reach tol={tol}: max KKT violation {worst:.3e}",
                          RuntimeWarning, stacklevel=3)
        sv = alpha > ALPHA_TOL
        models.append(SvmModel(
            support_vectors=X[: len(alpha)][sv], dual_coef=(alpha * Y[f, : len(alpha)])[sv],
            bias=b, gamma=gammas.item(f), coef0=coef0, C=C, converged=converged,
            final_kkt_violation=worst,
        ))
    return models


def _smo_masks(y, alpha, at_most: float):
    """The ``up`` and ``low`` masks of labels ``y`` at ``alpha`` (arrays or
    scalars): the directions in which each alpha may still move under the
    box and equality constraints. A padding label, 0, is in neither."""
    up = ((y > 0) & (alpha < at_most)) | ((y < 0) & (alpha > ALPHA_TOL))
    low = ((y < 0) & (alpha < at_most)) | ((y > 0) & (alpha > ALPHA_TOL))
    return up, low


def _smo_lockstep(K, Y, sizes, C: float, tol: float, max_passes: int, seeds):
    """The one SMO loop. Solves the problems of the kernel stack ``K`` (F,
    n_max, n_max) and the label stack ``Y`` (F, n_max), problem f in the
    first sizes[f] rows and columns and padded with zeros, and returns
    (alpha, m, M, gap) per problem: its alphas, the last extremes of the
    bias-free optimality conditions and their gap m - M.

    The alphas and error caches G_i = sum_j alpha_j y_j K_ij - y_i are
    stacked the same way. A padding label, 0, is never in ``up`` or
    ``low``, and a padding kernel entry, 0, leaves G unchanged, so padding
    never moves. Each iteration finds, for every fold still running, the
    first-index argmin of G over ``up`` and argmax over ``low``, which give
    the gap and the maximal violating pair together. While two folds or
    more run, every fold whose pair takes the plain step is moved by
    ``_plain_steps``, one elementwise pass over them. Any other fold runs
    ``_smo_row`` on its own rows, and a fold left running alone finishes in
    its own scalar loop: alone, Python floats are several times faster
    than the stack's fixed numpy cost."""
    n_folds = len(sizes)
    sizes = np.array(sizes)
    alpha = np.zeros(Y.shape)
    G = -Y  # bias-free errors; a padding entry stays -0.0 and is never read
    at_most = C - ALPHA_TOL
    up, low = _smo_masks(Y, alpha, at_most)
    max_iter = max_passes * sizes
    it = np.zeros(n_folds, dtype=int)
    running = np.ones(n_folds, dtype=bool)
    by_row = {}  # fold -> its _smo_row (iterate, finish), made on first use
    solved = [None] * n_folds
    r = np.arange(n_folds)

    def row(f):
        n = sizes[f]
        return by_row.get(f) or by_row.setdefault(f, _smo_row(
            K[f, :n, :n], Y[f, :n], alpha[f, :n], G[f, :n], up[f, :n], low[f, :n], C, tol,
            seeds[f]))

    while running.sum() > 1:
        # gap m - M of the bias-free optimality conditions, <= 0 at the
        # exact optimum: m = max(-G[up]) at i, M = min(-G[low]) at j. A fold
        # that has stopped is computed with the others and then ignored.
        G_up = np.where(up, G, np.inf)
        G_low = np.where(low, G, -np.inf)
        i = G_up.argmin(axis=1)
        j = G_low.argmax(axis=1)
        m = -G_up[r, i]
        M = -G_low[r, j]
        gap = m - M
        stop = running & ((it >= max_iter) | (gap <= tol))
        if stop.any():
            for f in stop.nonzero()[0].tolist():
                solved[f] = (alpha[f, : sizes[f]], m.item(f), M.item(f), gap.item(f))
            running &= ~stop
            if running.sum() < 2:
                break
        plain = _plain_steps(K, Y, alpha, G, up, low, it, i, j, running & np.isfinite(gap), C)
        for f in (running & ~plain).nonzero()[0].tolist():
            iterate, _finish = row(f)
            if iterate(i.item(f), j.item(f)):
                it[f] += 1
            else:  # no violating pair can move; stationary point
                solved[f] = (alpha[f, : sizes[f]], m.item(f), M.item(f), gap.item(f))
                running[f] = False
    for f in running.nonzero()[0].tolist():
        _iterate, finish = row(f)
        solved[f] = (alpha[f, : sizes[f]], *finish(it.item(f), max_iter.item(f)))
    return solved


def _plain_steps(K, Y, alpha, G, up, low, it, i, j, candidates, C: float):
    """Take the plain SMO step on pair (i[f], j[f]) of every candidate fold
    f whose pair allows it: positive eta, a non-empty [L, H] and a move of
    at least 1e-12. Updates the stacks ``alpha``, ``G``, ``up`` and ``low``
    and the step counts ``it`` of those folds in place, by the operations
    of ``_smo_row``'s ``take_step`` in its order (``np.where`` in place of
    Python's ``max`` and ``min``, which it matches, signed zeros included),
    and returns their mask."""
    r = np.arange(len(Y))
    ai, aj, yi, yj = alpha[r, i], alpha[r, j], Y[r, i], Y[r, j]
    with np.errstate(all="ignore"):  # a fold that takes another route may divide by 0
        pair = yi != yj
        L = np.where(pair, aj - ai, ai + aj - C)
        L = np.where(L > 0.0, L, 0.0)  # max(0.0, L)
        H = np.where(pair, C + aj - ai, ai + aj)
        H = np.where(H < C, H, C)  # min(C, H)
        eta = K[r, i, i] + K[r, j, j] - 2.0 * K[r, i, j]
        aj_new = aj + yj * (G[r, i] - G[r, j]) / eta
        aj_new = np.where(L > aj_new, L, aj_new)  # max(aj_new, L)
        aj_new = np.where(H < aj_new, H, aj_new)  # min(aj_new, H)
        d_aj = aj_new - aj
        plain = (
            candidates & (i != j) & ~(H - L < 1e-12) & (eta > 1e-12)
            & ~(np.abs(d_aj) < 1e-12)
        )
    p = plain.nonzero()[0]
    i, j, yi, yj, d_aj = i[p], j[p], yi[p], yj[p], d_aj[p]
    d_ai = -yi * yj * d_aj
    G[p] += (yi * d_ai)[:, None] * K[p, :, i] + (yj * d_aj)[:, None] * K[p, :, j]
    # alpha, up and low at (p, i) and then (p, j); i != j on every row
    pp, ij = np.concatenate((p, p)), np.concatenate((i, j))
    new = np.concatenate((ai[p] + d_ai, aj_new[p]))
    alpha[pp, ij] = new
    up[pp, ij], low[pp, ij] = _smo_masks(np.concatenate((yi, yj)), new, C - ALPHA_TOL)
    it[p] += 1
    return plain


def _smo_row(K, y, alpha, G, up, low, C: float, tol: float, seed: int):
    """One fold's SMO iteration with every route of the solver, on views of
    its rows of the lockstep stacks: the maximal violating pair, by the
    flat or concave branch if eta <= 1e-12, then the partner list, then
    the seeded sweep, whose generator, ``default_rng(seed)``, is made on
    its first use, since most fits never sweep. The pair arithmetic runs on
    Python floats. Returns ``iterate(i, j)``, called with the maximal
    violating pair that the lockstep loop found, False when no violating
    pair can move, and ``finish(it, max_iter)``, which runs the fold alone
    from step ``it`` to its stop and returns its (m, M, gap)."""
    n = len(y)
    labels = y.tolist()
    at_most = C - ALPHA_TOL
    rng = None  # the fallback sweep's generator, made on its first use

    def delta_objective(i, j, aj_new):
        yi, yj = labels[i], labels[j]
        d_aj = aj_new - alpha.item(j)
        d_ai = -yi * yj * d_aj
        gi = G.item(i) + yi
        gj = G.item(j) + yj
        return (
            d_ai + d_aj
            - yi * d_ai * gi
            - yj * d_aj * gj
            - 0.5 * (d_ai**2 * K.item(i, i) + d_aj**2 * K.item(j, j))
            - d_ai * d_aj * yi * yj * K.item(i, j)
        )

    def take_step(i, j):
        if i == j:
            return False
        ai, aj, yi, yj = alpha.item(i), alpha.item(j), labels[i], labels[j]
        if yi != yj:
            L = max(0.0, aj - ai)
            H = min(C, C + aj - ai)
        else:
            L = max(0.0, ai + aj - C)
            H = min(C, ai + aj)
        if H - L < 1e-12:
            return False
        eta = K.item(i, i) + K.item(j, j) - 2.0 * K.item(i, j)
        if eta > 1e-12:
            aj_new = aj + yj * (G.item(i) - G.item(j)) / eta
            aj_new = min(max(aj_new, L), H)
        else:
            # flat or concave direction: the dual is maximized at a bound
            dW_L = delta_objective(i, j, L)
            dW_H = delta_objective(i, j, H)
            if dW_L > dW_H and dW_L > 1e-12:
                aj_new = L
            elif dW_H >= dW_L and dW_H > 1e-12:
                aj_new = H
            else:
                return False
        d_aj = aj_new - aj
        if abs(d_aj) < 1e-12:
            return False
        d_ai = -yi * yj * d_aj
        G[:] += yi * d_ai * K[:, i] + yj * d_aj * K[:, j]
        alpha[i] = ai + d_ai
        alpha[j] = aj_new
        for k in (i, j):
            up[k], low[k] = _smo_masks(labels[k], alpha.item(k), at_most)
        return True

    def try_violator(i, partners):
        # prefer the largest error difference, then a seeded-random sweep
        nonlocal rng
        order = partners[np.argsort(-np.abs(G[i] - G[partners]))]
        for j in order[:8].tolist():
            if take_step(i, j):
                return True
        if rng is None:
            rng = np.random.default_rng(seed)
        for j in rng.permutation(n).tolist():
            if take_step(i, j):
                return True
        return False

    def iterate(i, j):
        # a step that fails changes nothing, so each partner list is made
        # only when the routes before it have failed
        return (take_step(i, j) or try_violator(i, low.nonzero()[0])
                or try_violator(j, up.nonzero()[0]))

    def finish(it, max_iter):
        # the lockstep loop's gap, pair and stop rules on this fold's rows
        while True:
            up_idx, low_idx = up.nonzero()[0], low.nonzero()[0]
            i = up_idx[G[up_idx].argmin()].item() if up_idx.size else 0
            j = low_idx[G[low_idx].argmax()].item() if low_idx.size else 0
            m = -G.item(i) if up_idx.size else -math.inf
            M = -G.item(j) if low_idx.size else math.inf
            gap = m - M
            if it >= max_iter or gap <= tol or not iterate(i, j):
                return m, M, gap
            it += 1

    return iterate, finish


@dataclass
class MlpConfig:
    hidden: int = 100
    l2: float = 1e-4
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 200
    batch_size: int = 200
    early_stop_tol: float = 1e-4
    patience: int = 10

    def __post_init__(self):
        for name in ("hidden", "max_epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        for name in ("l2", "early_stop_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ConfigError(f"{name} must be in [0, 1), got {value}")


@dataclass
class MlpModel:
    W1: np.ndarray  # (d, hidden)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (hidden, 1)
    b2: np.ndarray  # (1,)
    config: MlpConfig = field(default_factory=MlpConfig)

    @property
    def dim(self) -> int:
        return self.W1.shape[0]


def _mlp_size(d: int, hidden: int) -> int:
    return d * hidden + 2 * hidden + 1


def _mlp_views(flat: np.ndarray, d: int, hidden: int):
    """W1 (d, hidden), b1 (hidden,), W2 (hidden, 1) and b2 (1,) as views of
    one flat vector of ``_mlp_size(d, hidden)`` values, in that order. A
    stack of flat vectors, (F, size), gives views with the same leading
    fold axis: W1 (F, d, hidden), b1 (F, hidden), W2 (F, hidden, 1) and b2
    (F, 1)."""
    i1 = d * hidden
    i2 = i1 + hidden
    i3 = i2 + hidden
    lead = flat.shape[:-1]
    return (
        flat[..., :i1].reshape(*lead, d, hidden),
        flat[..., i1:i2],
        flat[..., i2:i3].reshape(*lead, hidden, 1),
        flat[..., i3:],
    )


def _one_fold(model: MlpModel):
    """The model's W1, b1, W2 and b2 as a stack of one fold (views)."""
    return model.W1[None], model.b1[None], model.W2[None], model.b2[None]


# The forward and backward pass below is the only one: it runs F models at
# once, each on its own inputs. ``params`` is (W1, b1, W2, b2) with a
# leading fold axis, as ``_mlp_views`` gives them for a stack; X is
# (F, n, d) and y (F, n). Stacked ``matmul`` makes one BLAS call per fold
# slice, with that slice's strides, and the reductions run along one
# fold's axes, so every fold's numbers are those of a pass on it alone.


def _mlp_forward(params, X: np.ndarray, h=None) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations (F, n, hidden) and outputs (F, n). The
    activations are written into ``h`` if it is given, a new array if not."""
    W1, b1, W2, b2 = params
    h = np.matmul(X, W1, out=h)
    h += b1[:, None]
    np.maximum(h, 0.0, out=h)
    out = h @ W2 + b2[:, None]
    return h, out[..., 0]


def _mlp_losses(params, X: np.ndarray, y: np.ndarray, l2: float, h=None):
    """Half-MSE plus L2/(2n) penalty on the weight matrices, one loss per
    fold (an (F,) array); also returns the hidden activations (in ``h``, if
    given) and the residuals."""
    W1, _, W2, _ = params
    n = y.shape[-1]
    h, pred = _mlp_forward(params, X, h)
    resid = pred - y
    add = np.add.reduce
    loss = 0.5 * (add(resid**2, axis=-1) / n)
    loss += l2 / (2.0 * n) * (add(W1**2, axis=(-2, -1)) + add(W2**2, axis=(-2, -1)))
    return loss, h, resid


def _mlp_losses_and_grads(params, X: np.ndarray, y: np.ndarray, l2: float, out: np.ndarray,
                          h=None, d_h=None):
    """The losses of ``_mlp_losses``, with analytic gradients written into
    ``out``, a (F, size) buffer laid out as ``_mlp_views`` reads it. ``h``
    and ``d_h``, if given, are (F, n, hidden) buffers for the hidden
    activations and their gradient."""
    W1, _, W2, _ = params
    n = y.shape[-1]
    loss, h, resid = _mlp_losses(params, X, y, l2, h)
    gW1, gb1, gW2, gb2 = _mlp_views(out, X.shape[-1], h.shape[-1])
    d_out = (resid / n)[..., None]  # (F, n, 1)
    np.matmul(h.swapaxes(-1, -2), d_out, out=gW2)
    gW2 += (l2 / n) * W2
    np.add.reduce(d_out, axis=-2, out=gb2)
    d_h = np.matmul(d_out, W2.swapaxes(-1, -2), out=d_h)
    d_h[h <= 0.0] = 0.0
    np.matmul(X.swapaxes(-1, -2), d_h, out=gW1)
    gW1 += (l2 / n) * W1
    np.add.reduce(d_h, axis=-2, out=gb1)
    return loss


def mlp_predict(model: MlpModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.dim:
        raise DimensionMismatch(f"expected dim {model.dim}, got {x.shape[-1]}")
    _, out = _mlp_forward(_one_fold(model), x.reshape(1, 1, -1))
    return float(out[0, 0])


def mlp_loss_and_grads(model: MlpModel, X: np.ndarray, y: np.ndarray, out=None):
    """The model's loss (half-MSE plus L2/(2n) penalty on the weight
    matrices) with analytic gradients for every parameter, from the pass
    that training runs. The gradients are written into views of ``out``, a
    flat float64 buffer laid out as ``_mlp_views`` reads it (a new one if
    None), and returned as (gW1, gb1, gW2, gb2)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if out is None:
        out = np.empty(_mlp_size(*model.W1.shape))
    loss = _mlp_losses_and_grads(_one_fold(model), X[None], y[None], model.config.l2, out[None])
    return float(loss[0]), _mlp_views(out, *model.W1.shape)


def _glorot_uniform(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def mlp_train(
    X: np.ndarray,
    y: np.ndarray,
    config: MlpConfig | None = None,
    seed: int = 0,
) -> MlpModel:
    """Train the regressor with adaptive-moment SGD and early stopping: the
    one-fold case of ``mlp_train_folds``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return mlp_train_folds(X[None], y[None], config, [seed])[0]


def mlp_train_folds(
    Xs: np.ndarray, ys: np.ndarray, config: MlpConfig | None, seeds
) -> list[MlpModel]:
    """Train F same-shape regressors in lockstep, fold f on Xs[f] (n, d)
    and ys[f] (n,) from seeds[f]; returns the F models in fold order.

    Each fold is trained as if alone. Its own generator draws its Glorot
    W1 and W2, then one minibatch permutation per epoch; it keeps its own
    best loss and stall count, and it stops by patience on its own. The
    parameters of all folds still training are one (F, size) array, each
    row laid out as ``_mlp_views`` reads it, and so are the gradients and
    both Adam moments. Each step is one forward/backward pass over the
    stack and one Adam update of in-place ufuncs over it (element for
    element the same arithmetic as one update per array of one model). The
    epoch-end early-stop check computes the loss only. A fold that stops
    is copied out and leaves the stack at the epoch end; the folds still
    training move up in place, so training holds 5 x F x size floats. The
    hidden activations and their gradient have buffers of their own,
    allocated once per training, and each pass writes its folds' rows.

    Overflow is not warned about. A fold whose step or epoch loss is not
    finite is recorded and leaves the stack at the epoch end, and so does
    every fold after it (fold order decides which error is raised). After
    the loop, the lowest-index such fold's ``DivergenceDetected`` is raised,
    as training the folds one after another would raise it.
    """
    Xs = np.asarray(Xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    seeds = list(seeds)
    if Xs.ndim != 3 or ys.shape != Xs.shape[:2] or len(seeds) != len(Xs):
        raise ValueError("need Xs of shape (F, n, d), ys of shape (F, n) and F seeds")
    if not (np.all(np.isfinite(Xs)) and np.all(np.isfinite(ys))):
        raise NonFiniteFeature("training data contains non-finite values")
    n_folds, n, d = Xs.shape
    if n < 2:
        raise ValueError("need at least 2 examples")
    cfg = config or MlpConfig()
    hidden, l2 = cfg.hidden, cfg.l2
    rngs = [np.random.default_rng(s) for s in seeds]
    # theta, m and v of every fold; the folds still training are the first
    # len(folds) rows, and folds[r] is the fold of row r
    state = np.zeros((3, n_folds, _mlp_size(d, hidden)))
    W1, _, W2, _ = _mlp_views(state[0], d, hidden)
    for f, rng in enumerate(rngs):
        W1[f] = _glorot_uniform(rng, d, hidden, (d, hidden))
        W2[f] = _glorot_uniform(rng, hidden, 1, (hidden, 1))
    buffers = np.empty_like(state[:2])
    # the hidden activations of a step or of the epoch-end check, and their
    # gradient, for every fold; each pass writes the rows it uses
    batch = min(cfg.batch_size, n)
    h = np.empty((n_folds, n, hidden))
    d_h = np.empty((n_folds, batch, hidden))
    folds = np.arange(n_folds)
    best_loss = np.full(n_folds, np.inf)
    stall = np.zeros(n_folds, dtype=int)
    trained = [None] * n_folds
    diverged = {}  # fold -> its first loss that was not finite
    beta1, beta2, lr, eps = cfg.beta1, cfg.beta2, cfg.lr, cfg.eps
    t = 0

    def record_divergence(loss):
        if not np.isfinite(loss).all():
            for f, value in zip(folds.tolist(), loss.tolist()):
                if not math.isfinite(value):
                    diverged.setdefault(f, value)

    with np.errstate(over="ignore", invalid="ignore"):  # reported as divergence
        for _epoch in range(cfg.max_epochs):
            theta, m, v = state[:, : len(folds)]
            grad, tmp = buffers[:, : len(folds)]
            params = _mlp_views(theta, d, hidden)
            fold_rows = folds[:, None]
            order = np.stack([rng.permutation(n) for rng in rngs])
            for start in range(0, n, batch):
                idx = order[:, start : start + batch]
                rows = (slice(len(folds)), slice(idx.shape[1]))
                loss = _mlp_losses_and_grads(params, Xs[fold_rows, idx], ys[fold_rows, idx], l2,
                                             grad, h[rows], d_h[rows])
                record_divergence(loss)
                t += 1
                # m = beta1*m + (1-beta1)*g; v = beta2*v + (1-beta2)*g*g
                m *= beta1
                np.multiply(grad, 1 - beta1, out=tmp)
                m += tmp
                v *= beta2
                np.multiply(grad, 1 - beta2, out=tmp)
                tmp *= grad
                v += tmp
                # theta -= lr * m_hat / (sqrt(v_hat) + eps), the step in grad
                np.divide(v, 1 - beta2**t, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += eps
                np.divide(m, 1 - beta1**t, out=grad)
                grad *= lr
                grad /= tmp
                theta -= grad
            epoch_loss, _, _ = _mlp_losses(params, Xs[folds], ys[folds], l2, h[: len(folds)])
            record_divergence(epoch_loss)
            improved = best_loss - epoch_loss > cfg.early_stop_tol
            best_loss = np.where(improved, epoch_loss, best_loss)
            stall = np.where(improved, 0, stall + 1)
            leave = stall >= cfg.patience
            if diverged:
                leave |= folds >= min(diverged)
            if leave.any():
                for r in np.flatnonzero(leave).tolist():
                    trained[folds[r]] = theta[r].copy()
                stay = np.flatnonzero(~leave)
                for a in state:  # move the rows still training to the front
                    a[: len(stay)] = a[stay]
                best_loss, stall, folds = best_loss[stay], stall[stay], folds[stay]
                rngs = [rngs[r] for r in stay.tolist()]
                if not len(folds):
                    break
    if diverged:
        raise DivergenceDetected(f"loss became {diverged[min(diverged)]}")
    for r, f in enumerate(folds.tolist()):
        trained[f] = state[0, r].copy()
    models = []
    for row in trained:
        W1, b1, W2, b2 = _mlp_views(row, d, hidden)
        models.append(MlpModel(W1=W1, b1=b1, W2=W2, b2=b2, config=cfg))
    return models
