"""Learners implemented from first principles.

- Standardizer: per-dimension z-scoring fitted on training data only.
- SvmModel: soft-margin SVM with a third-degree polynomial kernel, trained
  by sequential minimal optimization (SMO) on the dual.
- MlpModel: one-hidden-layer (width 100, ReLU) regressor trained with
  adaptive-moment SGD on mean squared error plus an L2 penalty. A trained
  model's W1, b1, W2 and b2 are views of one flat parameter vector, and
  training updates that vector, its gradient and its Adam moments whole.

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


@dataclass
class Standardizer:
    mean: np.ndarray = None
    std: np.ndarray = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=float)
        self.mean = X.mean(axis=0)
        self.std = X.std(axis=0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        std = np.where(self.std > 1e-12, self.std, 1.0)
        Z = (X - self.mean) / std
        # zero-variance dimensions carry no information; map them to 0
        Z[..., self.std <= 1e-12] = 0.0
        return Z


def _kernel_matrix(A: np.ndarray, B: np.ndarray, gamma: float, coef0: float) -> np.ndarray:
    """The cubic kernel between the rows of ``A`` (a matrix, or one row)
    and the rows of ``B``."""
    return (gamma * (A @ B.T) + coef0) ** KERNEL_DEGREE


def gamma_scale(X: np.ndarray) -> float:
    """Default kernel scale: 1 / (d * mean per-dimension variance)."""
    X = np.asarray(X, dtype=float)
    mean_var = float(X.var(axis=0).mean())
    if mean_var <= 0:
        return 1.0
    return 1.0 / (X.shape[1] * mean_var)


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


def svm_dual_objective(K: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ K @ ay)


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
    """Solve the soft-margin dual by SMO.

    Working pair: the maximal violator of the bias-free optimality gap,
    paired with the partner maximizing the error difference (the classic
    maximal-violating-pair rule), with a seeded-random fallback sweep when
    that partner makes no progress. Terminates when the gap drops below
    ``tol`` or after ``max_passes`` sweeps (then warns and returns the
    model anyway).

    The error cache G_i = sum_j alpha_j y_j K_ij - y_i is a numpy vector.
    The ``up``/``low`` masks (the directions in which each alpha may still
    move under the box and equality constraints) are boolean arrays kept
    up to date for the two alphas a step moves, so each iteration makes one
    ``nonzero`` pass per mask, which gives the gap, the bias midpoint and
    the maximal violating pair together. The pair arithmetic runs on
    Python floats.

    Every label must be ``LABEL_ASD`` or ``LABEL_CONTROL``; any other
    value, NaN included, is a ValueError, and labels of one class only are
    ``SingleClass``. The labels are checked with two boolean masks, not
    ``np.unique``, which on numpy >= 2 imports all of ``numpy.ma`` on its
    first call.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("training matrix contains non-finite values")
    is_asd = y == LABEL_ASD
    is_control = y == LABEL_CONTROL
    if not np.all(is_asd | is_control):
        raise ValueError(
            f"labels must be LABEL_ASD ({LABEL_ASD}) or LABEL_CONTROL ({LABEL_CONTROL})"
        )
    if is_asd.all() or is_control.all():
        raise SingleClass("need at least one example of each class")
    if gamma is None:
        gamma = gamma_scale(X)
    n = len(y)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        K = _kernel_matrix(X, X, gamma, coef0)
    if not np.all(np.isfinite(K)):
        raise NonFiniteFeature(f"kernel matrix is not finite at gamma={gamma!r}, coef0={coef0!r}")
    K_rows = K.tolist()
    K_cols = np.ascontiguousarray(K.T)  # K_cols[i] is K[:, i]
    labels = y.tolist()
    alpha = [0.0] * n
    G = -y.astype(float)  # bias-free errors: sum_j a_j y_j K_ij - y_i
    at_most = C - 1e-12
    up = np.zeros(n, dtype=bool)
    low = np.zeros(n, dtype=bool)

    def set_masks(k):
        yk, ak = labels[k], alpha[k]
        up[k] = (yk > 0 and ak < at_most) or (yk < 0 and ak > 1e-12)
        low[k] = (yk < 0 and ak < at_most) or (yk > 0 and ak > 1e-12)

    for k in range(n):
        set_masks(k)

    def delta_objective(i, j, aj_new):
        yi, yj = labels[i], labels[j]
        d_aj = aj_new - alpha[j]
        d_ai = -yi * yj * d_aj
        gi = G.item(i) + yi
        gj = G.item(j) + yj
        return (
            d_ai + d_aj
            - yi * d_ai * gi
            - yj * d_aj * gj
            - 0.5 * (d_ai**2 * K_rows[i][i] + d_aj**2 * K_rows[j][j])
            - d_ai * d_aj * yi * yj * K_rows[i][j]
        )

    def take_step(i, j):
        if i == j:
            return False
        ai, aj, yi, yj = alpha[i], alpha[j], labels[i], labels[j]
        if yi != yj:
            L = max(0.0, aj - ai)
            H = min(C, C + aj - ai)
        else:
            L = max(0.0, ai + aj - C)
            H = min(C, ai + aj)
        if H - L < 1e-12:
            return False
        eta = K_rows[i][i] + K_rows[j][j] - 2.0 * K_rows[i][j]
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
        G[:] += yi * d_ai * K_cols[i] + yj * d_aj * K_cols[j]
        alpha[i] = ai + d_ai
        alpha[j] = aj_new
        set_masks(i)
        set_masks(j)
        return True

    def try_violator(i, partners):
        # prefer the largest error difference, then a seeded-random sweep
        order = partners[np.argsort(-np.abs(G[i] - G[partners]))]
        for j in order[:8].tolist():
            if take_step(i, j):
                return True
        for j in rng.permutation(n).tolist():
            if take_step(i, j):
                return True
        return False

    max_iter = max_passes * n
    it = 0
    while True:
        # gap m - M of the bias-free optimality conditions, <= 0 at the
        # exact optimum: m = max(-G[up]) at i_up, M = min(-G[low]) at i_low
        up_idx = up.nonzero()[0]
        low_idx = low.nonzero()[0]
        m, M = -math.inf, math.inf
        if up_idx.size:
            i_up = int(up_idx[G[up_idx].argmin()])
            m = -G.item(i_up)
        if low_idx.size:
            i_low = int(low_idx[G[low_idx].argmax()])
            M = -G.item(i_low)
        gap = m - M
        if it >= max_iter or gap <= tol:
            break
        if not (
            take_step(i_up, i_low)
            or try_violator(i_up, low_idx)
            or try_violator(i_low, up_idx)
        ):
            break  # no violating pair can move; stationary point
        it += 1

    b = (m + M) / 2.0 if math.isfinite(m) and math.isfinite(M) else 0.0
    worst = max(0.0, gap)
    converged = gap <= tol
    if not converged:
        warnings.warn(
            f"SMO did not reach tol={tol}: max KKT violation {worst:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    alpha = np.array(alpha)
    sv = alpha > 1e-12
    return SvmModel(
        support_vectors=X[sv].copy(),
        dual_coef=(alpha * y)[sv].copy(),
        bias=b,
        gamma=gamma,
        coef0=coef0,
        C=C,
        converged=converged,
        final_kkt_violation=worst,
    )


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
    one flat vector of ``_mlp_size(d, hidden)`` values, in that order."""
    i1 = d * hidden
    i2 = i1 + hidden
    i3 = i2 + hidden
    return flat[:i1].reshape(d, hidden), flat[i1:i2], flat[i2:i3].reshape(hidden, 1), flat[i3:]


def mlp_forward(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h = np.maximum(X @ model.W1 + model.b1, 0.0)
    out = h @ model.W2 + model.b2
    return h, out[:, 0]


def mlp_predict(model: MlpModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.dim:
        raise DimensionMismatch(f"expected dim {model.dim}, got {x.shape[-1]}")
    _, out = mlp_forward(model, x.reshape(1, -1))
    return float(out[0])


def _mlp_loss(model: MlpModel, X: np.ndarray, y: np.ndarray):
    """Half-MSE plus L2/(2n) penalty on the weight matrices; returns the
    loss, the hidden activations and the residuals."""
    n = len(y)
    h, pred = mlp_forward(model, X)
    resid = pred - y
    add = np.add.reduce
    loss = 0.5 * float(add(resid**2) / n)
    loss += model.config.l2 / (2.0 * n) * (
        float(add(model.W1**2, axis=None)) + float(add(model.W2**2, axis=None)))
    return loss, h, resid


def mlp_loss_and_grads(model: MlpModel, X: np.ndarray, y: np.ndarray, out=None):
    """The loss of ``_mlp_loss`` with analytic gradients for every
    parameter. The gradients are written into views of ``out``, a flat
    float64 buffer laid out as ``_mlp_views`` reads it (a new one if None),
    and returned as (gW1, gb1, gW2, gb2)."""
    n = len(y)
    loss, h, resid = _mlp_loss(model, X, y)
    if out is None:
        out = np.empty(_mlp_size(*model.W1.shape))
    gW1, gb1, gW2, gb2 = _mlp_views(out, *model.W1.shape)
    l2 = model.config.l2
    d_out = (resid / n)[:, None]  # (n, 1)
    np.matmul(h.T, d_out, out=gW2)
    gW2 += (l2 / n) * model.W2
    np.add.reduce(d_out, axis=0, out=gb2)
    d_h = d_out @ model.W2.T
    d_h[h <= 0.0] = 0.0
    np.matmul(X.T, d_h, out=gW1)
    gW1 += (l2 / n) * model.W1
    np.add.reduce(d_h, axis=0, out=gb1)
    return loss, (gW1, gb1, gW2, gb2)


def _glorot_uniform(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def mlp_train(
    X: np.ndarray,
    y: np.ndarray,
    config: MlpConfig | None = None,
    seed: int = 0,
) -> MlpModel:
    """Train the regressor with adaptive-moment SGD and early stopping.

    All parameters live in one flat float64 vector, of which the model's
    W1, b1, W2 and b2 are views; the gradients and both Adam moments are
    flat vectors of the same layout, so each step is one Adam update of
    in-place ufuncs over the whole vector (element for element the same
    arithmetic as one update per array). The epoch-end early-stop check
    computes the loss only. Overflow is not warned about: a loss that is
    not finite raises ``DivergenceDetected``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NonFiniteFeature("training data contains non-finite values")
    if len(y) < 2:
        raise ValueError("need at least 2 examples")
    cfg = config or MlpConfig()
    n, d = X.shape
    rng = np.random.default_rng(seed)
    theta = np.zeros(_mlp_size(d, cfg.hidden))
    W1, b1, W2, b2 = _mlp_views(theta, d, cfg.hidden)
    W1[...] = _glorot_uniform(rng, d, cfg.hidden, (d, cfg.hidden))
    W2[...] = _glorot_uniform(rng, cfg.hidden, 1, (cfg.hidden, 1))
    model = MlpModel(W1=W1, b1=b1, W2=W2, b2=b2, config=cfg)
    grad = np.empty_like(theta)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    tmp = np.empty_like(theta)
    step = np.empty_like(theta)
    beta1, beta2, lr, eps = cfg.beta1, cfg.beta2, cfg.lr, cfg.eps
    t = 0
    batch = min(cfg.batch_size, n)
    best_loss = np.inf
    stall = 0
    with np.errstate(over="ignore", invalid="ignore"):  # reported as divergence
        for _epoch in range(cfg.max_epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                loss, _ = mlp_loss_and_grads(model, X[idx], y[idx], out=grad)
                if not np.isfinite(loss):
                    raise DivergenceDetected(f"loss became {loss}")
                t += 1
                # m = beta1*m + (1-beta1)*g; v = beta2*v + (1-beta2)*g*g
                m *= beta1
                np.multiply(grad, 1 - beta1, out=tmp)
                m += tmp
                v *= beta2
                np.multiply(grad, 1 - beta2, out=tmp)
                tmp *= grad
                v += tmp
                # theta -= lr * m_hat / (sqrt(v_hat) + eps)
                np.divide(v, 1 - beta2**t, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += eps
                np.divide(m, 1 - beta1**t, out=step)
                step *= lr
                step /= tmp
                theta -= step
            epoch_loss, _, _ = _mlp_loss(model, X, y)
            if not np.isfinite(epoch_loss):
                raise DivergenceDetected(f"loss became {epoch_loss}")
            if best_loss - epoch_loss > cfg.early_stop_tol:
                best_loss = epoch_loss
                stall = 0
            else:
                stall += 1
                if stall >= cfg.patience:
                    break
    return model
