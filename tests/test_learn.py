import warnings
from collections import Counter

import numpy as np
import pytest

from gazescreen import learn
from gazescreen.errors import (
    ConfigError,
    DimensionMismatch,
    DivergenceDetected,
    NonFiniteFeature,
    SingleClass,
)
from gazescreen.learn import (
    LABEL_ASD,
    LABEL_CONTROL,
    MlpConfig,
    Standardizer,
    _kernel_matrix,
    gamma_scale,
    mlp_loss_and_grads,
    mlp_predict,
    mlp_train,
    mlp_train_folds,
    svm_dual_objective,
    svm_predict,
    svm_train,
    svm_train_stacks,
)

from . import oracles


def blobs(rng, n_per_class=10, center=2.0, radius=0.5, d=2):
    a = rng.uniform(-radius, radius, (n_per_class, d)) + center
    b = rng.uniform(-radius, radius, (n_per_class, d)) - center
    X = np.vstack([a, b])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return X, y


def full_alpha(model, X):
    """Recover the per-example alpha vector by matching support vector rows."""
    alpha = np.zeros(len(X))
    for sv, coef in zip(model.support_vectors, model.dual_coef):
        idx = np.flatnonzero(np.all(np.isclose(X, sv, atol=1e-12), axis=1))
        assert len(idx) == 1
        alpha[idx[0]] = abs(coef)
    return alpha


def model_objective(model):
    """Dual objective computed from the support set alone (alpha=0 elsewhere)."""
    K = _kernel_matrix(model.support_vectors, model.support_vectors,
                       model.gamma, model.coef0)
    return float(np.abs(model.dual_coef).sum()
                 - 0.5 * model.dual_coef @ K @ model.dual_coef)


class TestKernel:
    def test_worked_example(self):
        got = _kernel_matrix(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), 0.5, 1.0)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx((0.5 * 11 + 1) ** 3)
        assert got[0, 0] == pytest.approx(274.625)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A, B = rng.normal(size=(2, 5, 4))
            assert _kernel_matrix(A, B, 0.7, 0.2) == pytest.approx(
                _kernel_matrix(B, A, 0.7, 0.2).T, rel=1e-12)

    def test_dimension_mismatch(self):
        X, y = blobs(np.random.default_rng(0))
        model = svm_train(X, y, seed=0)
        for x in (np.zeros(3), np.zeros((4, 3))):
            with pytest.raises(DimensionMismatch):
                model.decision_value(x)

    def test_gamma_scale(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0]])  # per-dim variances 1, 0
        assert gamma_scale(X) == pytest.approx(1.0 / (2 * 0.5))
        assert gamma_scale(np.ones((5, 3))) == 1.0  # degenerate fallback


class TestStandardizer:
    def test_train_statistics(self):
        rng = np.random.default_rng(1)
        X = rng.normal(3.0, 2.0, (50, 4))
        Z = Standardizer().fit(X).transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        X = np.column_stack([np.arange(5.0), np.full(5, 7.0)])
        s = Standardizer().fit(X)
        Z = s.transform(X + np.array([0.0, 100.0]))
        assert np.all(Z[:, 1] == 0.0)


class TestSvm:
    def test_separable_blobs_perfect(self):
        rng = np.random.default_rng(2)
        X, y = blobs(rng)
        model = svm_train(X, y, seed=0)
        assert model.converged
        preds = [svm_predict(model, x)[0] for x in X]
        assert np.array_equal(preds, y)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            svm_train(np.random.default_rng(0).normal(size=(6, 2)), np.ones(6))

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_label_outside_the_two_classes_rejected(self, bad):
        X, y = blobs(np.random.default_rng(0))
        y[3] = bad
        with pytest.raises(ValueError, match="labels must be LABEL_ASD"):
            svm_train(X, y)

    @pytest.mark.parametrize("params", [
        {"C": 0.0}, {"C": 1e-12}, {"C": np.nan}, {"C": np.inf},
        {"gamma": 0.0}, {"gamma": np.nan}, {"coef0": np.inf},
    ])
    def test_bad_hyperparameter_rejected(self, params):
        # C at or below the alpha tolerance would give an all-zero model
        # marked converged
        X, y = blobs(np.random.default_rng(0))
        with pytest.raises(ConfigError):
            svm_train(X, y, **params)

    def test_overflowing_kernel_rejected(self):
        X, y = blobs(np.random.default_rng(0))
        with pytest.raises(NonFiniteFeature, match="kernel matrix is not finite"):
            svm_train(X, y, gamma=1e300)

    def test_contradictory_duplicate_hits_box(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, -1.0, 1.0])
        model = svm_train(X, y, C=1.0, gamma=1.0, coef0=1.0, seed=0)
        # the contradictory pair is pinned at the box bound C, with opposite
        # signs, so their kernel contributions cancel
        at_origin = np.all(model.support_vectors == 0.0, axis=1)
        coefs = sorted(model.dual_coef[at_origin])
        assert coefs == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            X, y = blobs(rng, center=float(rng.uniform(0.3, 2.0)), radius=1.0)
            model = svm_train(X, y, C=1.0, seed=trial)
            a = full_alpha(model, X)
            tol = 1e-3
            for i in range(len(y)):
                margin = y[i] * model.decision_value(X[i])
                if a[i] < 1e-9:
                    assert margin >= 1.0 - tol
                elif a[i] > 1.0 - 1e-9:
                    assert margin <= 1.0 + tol
                else:
                    assert abs(margin - 1.0) <= tol

    def test_dual_objective_matches_qp_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(3):
            X, y = blobs(rng, n_per_class=10, center=0.8, radius=1.2)
            gamma = gamma_scale(X)
            model = svm_train(X, y, C=1.0, gamma=gamma, coef0=0.0, seed=trial)
            K = _kernel_matrix(X, X, gamma, 0.0)
            a_oracle = oracles.projected_gradient_qp(K, y, C=1.0)
            w_oracle = oracles.dual_objective(K, y, a_oracle)
            w_model = svm_dual_objective(K, y, full_alpha(model, X))
            assert w_model == pytest.approx(model_objective(model), rel=1e-9)
            assert abs(w_model - w_oracle) <= 1e-4 * max(1.0, abs(w_oracle))
            assert w_model >= w_oracle - 1e-6  # SMO should not undershoot

    def test_label_swap_antisymmetry(self):
        rng = np.random.default_rng(5)
        X, y = blobs(rng, center=1.0, radius=1.0)
        m1 = svm_train(X, y, seed=0, tol=1e-8)
        m2 = svm_train(X, -y, seed=0, tol=1e-8)
        for x in X:
            assert m1.decision_value(x) == pytest.approx(
                -m2.decision_value(x), abs=1e-5)

    def test_permutation_invariant_objective(self):
        rng = np.random.default_rng(6)
        X, y = blobs(rng, center=0.9, radius=1.1)
        gamma = gamma_scale(X)
        K = _kernel_matrix(X, X, gamma, 0.0)
        m1 = svm_train(X, y, gamma=gamma, seed=0, tol=1e-8)
        perm = rng.permutation(len(y))
        m2 = svm_train(X[perm], y[perm], gamma=gamma, seed=1, tol=1e-8)
        w1 = svm_dual_objective(K, y, full_alpha(m1, X))
        w2 = svm_dual_objective(K[np.ix_(perm, perm)], y[perm],
                                full_alpha(m2, X[perm]))
        assert w1 == pytest.approx(w2, abs=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        X, y = blobs(rng, center=0.7, radius=1.0)
        m1 = svm_train(X, y, seed=42)
        m2 = svm_train(X, y, seed=42)
        assert np.array_equal(m1.support_vectors, m2.support_vectors)
        assert np.array_equal(m1.dual_coef, m2.dual_coef)
        assert m1.bias == m2.bias

    def test_zero_decision_breaks_to_control(self):
        rng = np.random.default_rng(8)
        X, y = blobs(rng)
        model = svm_train(X, y, seed=0)
        model.bias -= model.decision_value(X[0])
        label, f = svm_predict(model, X[0])
        assert f == 0.0
        assert label == LABEL_CONTROL
        assert LABEL_ASD == 1


    @pytest.mark.parametrize("d", [2, 5, 20])
    def test_matrix_decision_values_match_rows(self, d):
        rng = np.random.default_rng(d)
        X, y = blobs(rng, n_per_class=15, center=0.6, radius=1.0, d=d)
        model = svm_train(X, y, seed=1)
        Xte = rng.normal(size=(40, d))
        got = model.decision_value(Xte)
        assert got.shape == (40,)
        rows = [model.decision_value(x) for x in Xte]
        assert all(isinstance(f, float) for f in rows)
        np.testing.assert_allclose(got, rows, rtol=1e-12, atol=1e-12)
        assert [svm_predict(model, x)[0] for x in Xte] == [
            LABEL_ASD if f > 0 else LABEL_CONTROL for f in got]
        with pytest.raises(DimensionMismatch):
            model.decision_value(Xte[:, :-1])


def oracle_problem(rng, kind):
    """One seeded SVM problem: (X, y, svm_train keyword arguments).

    kind 0 is a plain noisy linear split; 1 copies rows, some with the
    opposite label, so pairs with a flat direction (eta = 0) occur; 2
    scales the features by 30 under gamma = 1, so the kernel is ~1e12 and
    steps are too small to move, which sends the solver to its partner
    list, its seeded sweep and a stall; 3 caps the solver at 0 or 1 pass
    with a tight tol, so the fit does not converge. Kinds 1 and 2 are
    capped at a few passes to keep the slow oracle's run short."""
    n = int(rng.integers(3, 61))
    d = int(rng.integers(2, 21))
    X = rng.normal(size=(n, d))
    y = np.where(X @ rng.normal(size=d) + rng.normal(0.0, 0.5, n) > 0, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    kwargs = {
        "C": float(rng.choice([0.1, 1.0, 10.0])),
        "coef0": float(rng.choice([0.0, 1.0])),
        "gamma": None if rng.random() < 0.5 else float(rng.uniform(0.02, 1.0)),
        "seed": int(rng.integers(2**31)),
    }
    if kind == 1:
        k = n // 2
        X[k : 2 * k] = X[:k]
        y[k : 2 * k] = np.where(rng.random(k) < 0.5, y[:k], -y[:k])
        y[:2] = (1.0, -1.0)
        kwargs["max_passes"] = 10
    elif kind == 2:
        X *= 30.0
        kwargs["gamma"] = 1.0
        kwargs["max_passes"] = 3
    elif kind == 3:
        kwargs["max_passes"] = int(rng.integers(0, 2))
        kwargs["tol"] = 1e-8
    return X, y, kwargs


class TestSvmOracle:
    def test_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(31)
        branches = Counter()
        for trial in range(320):
            X, y, kwargs = oracle_problem(rng, trial % 4)
            with warnings.catch_warnings(record=True) as want_warnings:
                warnings.simplefilter("always")
                sv, dual_coef, bias, converged, worst = oracles.oracle_svm_train(
                    X, y, branches=branches, **kwargs)
            with warnings.catch_warnings(record=True) as got_warnings:
                warnings.simplefilter("always")
                model = svm_train(X, y, **kwargs)
            assert model.support_vectors.tobytes() == sv.tobytes(), trial
            assert model.dual_coef.tobytes() == dual_coef.tobytes(), trial
            assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes(), trial
            assert model.converged == converged, trial
            assert model.final_kkt_violation == worst, trial
            assert [(w.category, str(w.message)) for w in got_warnings] == [
                (w.category, str(w.message)) for w in want_warnings], trial
        # every route of the solver was taken at least once
        for route in ("pair", "partner", "sweep_entered", "sweep", "flat", "stalled",
                      "nonconverged"):
            assert branches[route] > 0, route


def svm_stack(rng, first_kind, n_folds):
    """``n_folds`` seeded SVM problems of mixed kinds and sizes that share
    one setting: (Xs, ys, settings, seeds). The settings (C, gamma, coef0,
    tol and max_passes) are those of the first problem, of kind
    ``first_kind``; the others' kinds are drawn, so a stack mixes kinds
    0-3 under them. With kind 2 first, gamma = 1 makes every kind-2 fold
    of the stack stall as it does alone. The passes are capped at 10, as
    for kinds 1 and 2 alone, to keep the slow oracle's run short."""
    kinds = [first_kind] + rng.integers(0, 4, size=n_folds - 1).tolist()
    problems = [oracle_problem(rng, kind) for kind in kinds]
    settings = {"tol": 1e-3, **problems[0][2]}
    settings["max_passes"] = min(settings.get("max_passes", 10), 10)
    del settings["seed"]
    return ([X for X, _, _ in problems], [y for _, y, _ in problems], settings,
            [kwargs["seed"] for _, _, kwargs in problems])


def one_fold_stacks(Xs, ys):
    """Each problem of ``Xs`` and ``ys`` as its own stack of one fold."""
    return [(np.asarray(X, dtype=float)[None], np.asarray(y, dtype=float)[None], [len(y)])
            for X, y in zip(Xs, ys)]


def train_stack(Xs, ys, settings, seeds):
    """svm_train_stacks on the problems, one fold per stack: (models,
    warnings as (category, text))."""
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        models = svm_train_stacks(one_fold_stacks(Xs, ys), settings["C"], settings["gamma"],
                                  settings["coef0"], settings["tol"], settings["max_passes"],
                                  seeds)
    return models, [(w.category, str(w.message)) for w in got]


def model_bytes(model):
    return (model.support_vectors.tobytes(), model.dual_coef.tobytes(),
            np.float64(model.bias).tobytes(), model.gamma, model.converged,
            model.final_kkt_violation)


class TestSvmLockstep:
    def test_matches_oracle_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(32)
        branches = Counter()  # routes taken by folds of stacks of 3 or 7
        plain_steps = learn._plain_steps

        def count_plain_steps(*args):
            plain = plain_steps(*args)
            branches["lockstep_pass"] += int(plain.sum())
            return plain

        monkeypatch.setattr(learn, "_plain_steps", count_plain_steps)
        for trial in range(48):
            n_folds = (1, 3, 7)[trial % 3]
            Xs, ys, settings, seeds = svm_stack(rng, trial % 4, n_folds)
            # the per-fold loop, one oracle fit after another
            fold_branches = Counter()
            with warnings.catch_warnings(record=True) as want_warnings:
                warnings.simplefilter("always")
                want = [oracles.oracle_svm_train(X, y, seed=seed, branches=fold_branches,
                                                 **settings)
                        for X, y, seed in zip(Xs, ys, seeds)]
            models, got_warnings = train_stack(Xs, ys, settings, seeds)
            assert len(models) == n_folds, trial
            for f, (model, (sv, dual_coef, bias, converged, worst)) in enumerate(zip(models, want)):
                assert model.support_vectors.tobytes() == sv.tobytes(), (trial, f)
                assert model.dual_coef.tobytes() == dual_coef.tobytes(), (trial, f)
                assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes(), (trial, f)
                assert model.converged == converged, (trial, f)
                assert model.final_kkt_violation == worst, (trial, f)
            # the folds that did not converge warn in fold order
            assert got_warnings == [(w.category, str(w.message)) for w in want_warnings], trial
            if n_folds > 1:
                branches += fold_branches
                branches["padded"] += len({len(y) for y in ys}) > 1
                # converged and non-converged folds stopped in one stack
                branches["mixed_outcome"] += len({m.converged for m in models}) > 1
        # "lockstep_pass": steps taken by the elementwise pass over the stack
        for route in ("pair", "partner", "sweep_entered", "sweep", "flat", "stalled",
                      "nonconverged", "padded", "mixed_outcome", "lockstep_pass"):
            assert branches[route] > 0, route

    def test_chunks_give_the_same_bytes(self, monkeypatch):
        rng = np.random.default_rng(33)
        stacks = [svm_stack(rng, trial % 4, 7) for trial in range(8)]
        whole = [train_stack(*stack) for stack in stacks]
        # one fold per chunk, then a few folds per chunk
        for budget in (1, 3 * 30 * 30 * 8):
            monkeypatch.setattr(learn, "SMO_STACK_BYTES", budget)
            for stack, (models, messages) in zip(stacks, whole):
                chunked, chunked_messages = train_stack(*stack)
                assert [model_bytes(m) for m in chunked] == [model_bytes(m) for m in models]
                assert chunked_messages == messages

    def test_first_bad_fold_raises(self):
        rng = np.random.default_rng(34)
        X, y = blobs(rng)
        bad_X = X.copy()
        bad_X[0, 0] = np.nan
        one_class = np.ones_like(y)
        settings = {"C": 1.0, "gamma": None, "coef0": 0.0, "tol": 1e-3, "max_passes": 1000}
        with pytest.raises(SingleClass):
            train_stack([X, X, X], [y, one_class, y], settings, [0, 1, 2])
        with pytest.raises(SingleClass):
            train_stack([X, X, bad_X], [y, one_class, y], settings, [0, 1, 2])
        with pytest.raises(NonFiniteFeature):
            train_stack([X, bad_X, X], [y, one_class, y], settings, [0, 1, 2])

    def test_rejects_mismatched_lengths(self):
        X, y = blobs(np.random.default_rng(35))
        [(Xs, ys, sizes)] = one_fold_stacks([X], [y])
        for stacks, seeds in (
            (one_fold_stacks([X, X], [y, y]), [0]),  # a seed short
            ([(Xs, ys[:, :-1], sizes)], [0]),  # a label short
            ([(Xs, ys, [len(y), len(y)])], [0]),  # a size too many
            ([(X, y, sizes)], [0]),  # not a stack
        ):
            with pytest.raises(ValueError, match="need stacks of X"):
                svm_train_stacks(stacks, 1.0, None, 0.0, 1e-3, 1000, seeds)

    def test_no_folds(self):
        assert svm_train_stacks([], 1.0, None, 0.0, 1e-3, 1000, []) == []


def test_kernel_stack_padding_is_zero(monkeypatch):
    # with coef0 != 0 the kernel of a zero row is coef0**3, so the padding
    # of a shorter fold must be zeroed, not computed
    stacks = []
    lockstep = learn._smo_lockstep

    def record(K, Y, sizes, *args):
        stacks.append((K.copy(), list(sizes)))
        return lockstep(K, Y, sizes, *args)

    monkeypatch.setattr(learn, "_smo_lockstep", record)
    rng = np.random.default_rng(36)
    Xs, ys = zip(*(blobs(rng, n_per_class=k) for k in (3, 5, 4)))
    svm_train_stacks(one_fold_stacks(Xs, ys), 1.0, None, 1.0, 1e-3, 1000, [0, 1, 2])
    [(K, sizes)] = stacks
    assert sizes == [6, 10, 8]
    for f, n in enumerate(sizes):
        assert not K[f, n:].any() and not K[f, :, n:].any(), f
        assert np.all(K[f, :n, :n] != 0.0), f


class TestMlp:
    cfg = MlpConfig(hidden=20)

    def test_constant_target(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 3))
        y = np.full(30, 4.0)
        model = mlp_train(X, y, MlpConfig(lr=1e-2, max_epochs=1000), seed=0)
        preds = np.array([mlp_predict(model, x) for x in X])
        assert np.max(np.abs(preds - 4.0)) < 0.2

    def test_linear_target(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, (120, 2))
        y = 2.0 * X[:, 0] + 3.0
        model = mlp_train(X, y, MlpConfig(max_epochs=1000), seed=0)
        preds = np.array([mlp_predict(model, x) for x in X])
        assert np.sqrt(np.mean((preds - y) ** 2)) < 0.1

    def test_gradient_check(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        cfg = MlpConfig(hidden=7)
        model = mlp_train(X, y, cfg, seed=0)  # gradients at a trained point
        loss, grads = mlp_loss_and_grads(model, X, y)
        params = [model.W1, model.b1, model.W2, model.b2]
        h = 1e-6
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
                assert abs(flat_g[k] - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        m1 = mlp_train(X, y, self.cfg, seed=5)
        m2 = mlp_train(X, y, self.cfg, seed=5)
        assert np.array_equal(m1.W1, m2.W1)
        assert np.array_equal(m1.W2, m2.W2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(10, 2)) * 1e150
        y = rng.normal(size=10) * 1e150
        with pytest.raises(DivergenceDetected):
            mlp_train(X, y, MlpConfig(hidden=5, lr=1e100), seed=0)


def noisy_linear(rng, n, d):
    X = rng.normal(size=(n, d))
    return X, X @ rng.normal(size=d) + rng.normal(0.0, 0.3, n)


def mlp_problem(rng, kind):
    """One seeded MLP problem: (X, y, MlpConfig, seed).

    kind 0 is a noisy linear target with random width (1, 5 or 100), L2
    weight (0 included), minibatch size (3 and 16 split most problems into
    several minibatches, 200 never does), epoch cap and learning rate;
    kind 1 sets lr = 1e300, so a step overflows the parameters and a later
    loss is not finite; kind 2 scales the inputs to 1e150, so the first
    loss already overflows."""
    n = int(rng.integers(2, 41))
    d = int(rng.integers(1, 26))
    X, y = noisy_linear(rng, n, d)
    kwargs = {
        "hidden": int(rng.choice([1, 5, 100])),
        "l2": float(rng.choice([0.0, 1e-4, 0.1])),
        "batch_size": int(rng.choice([3, 16, 200])),
        "max_epochs": int(rng.choice([1, 20, 60])),
        "lr": float(rng.choice([1e-3, 1e-2])),
        "patience": int(rng.choice([3, 10])),
    }
    if kind == 1:
        kwargs["lr"] = 1e300
    elif kind == 2:
        X *= 1e150
    return X, y, MlpConfig(**kwargs), int(rng.integers(2**31))


def mlp_stack(rng, kind, n_folds):
    """``n_folds`` seeded MLP problems of one shape and one config:
    (Xs, ys, MlpConfig, seeds). The first is ``mlp_problem(rng, kind)``
    with kind 2 read as kind 0; with kind 2 every fold after it has its
    inputs scaled to 1e200 with probability 0.5, so most of those folds
    diverge at their first loss while the others train."""
    X, y, cfg, seed = mlp_problem(rng, 0 if kind == 2 else kind)
    Xs, ys, seeds = [X], [y], [seed]
    for _ in range(n_folds - 1):
        X, y = noisy_linear(rng, *X.shape)
        if kind == 2 and rng.random() < 0.5:
            X *= 1e200
        Xs.append(X)
        ys.append(y)
        seeds.append(int(rng.integers(2**31)))
    return np.array(Xs), np.array(ys), cfg, seeds


def oracle_folds(Xs, ys, cfg, seeds, branches):
    """The per-fold loop: ``oracles.oracle_mlp_train`` on each fold in
    turn, up to the first fold that diverges. Returns the (W1, b1, W2, b2)
    of every fold, or that fold's ``DivergenceDetected`` message, and the
    epochs each fold run began. Every fit's routes are added to
    ``branches``."""
    fits, epochs = [], []
    for X, y, seed in zip(Xs, ys, seeds):
        fit = Counter()
        try:
            with np.errstate(all="ignore"):
                fits.append(oracles.oracle_mlp_train(X, y, cfg, seed, branches=fit))
        except DivergenceDetected as e:
            fits = str(e)
        branches.update(fit)
        epochs.append(fit["epochs"])
        if isinstance(fits, str):
            break
    return fits, epochs


def lockstep_or_message(Xs, ys, cfg, seeds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # divergence is raised, not warned
        try:
            return mlp_train_folds(Xs, ys, cfg, seeds)
        except DivergenceDetected as e:
            return str(e)


class TestMlpOracle:
    def test_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(41)
        branches = Counter()
        configs = []
        for trial in range(120):
            X, y, cfg, seed = mlp_problem(rng, (0, 0, 0, 0, 1, 2)[trial % 6])
            configs.append(cfg)
            try:
                with np.errstate(all="ignore"):
                    want = oracles.oracle_mlp_train(X, y, cfg, seed, branches=branches)
            except DivergenceDetected as e:
                want = str(e)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # divergence is raised, not warned
                try:
                    model = mlp_train(X, y, cfg, seed)
                    got = (model.W1, model.b1, model.W2, model.b2)
                except DivergenceDetected as e:
                    got = str(e)
            if isinstance(want, str) or isinstance(got, str):
                assert got == want, trial
                continue
            for g, w in zip(got, want):
                assert g.shape == w.shape, trial
                assert g.tobytes() == w.tobytes(), trial
        # every route of the training loop was taken at least once
        for route in ("minibatches", "one_batch", "patience", "max_epochs",
                      "diverged_step", "diverged_epoch"):
            assert branches[route] > 0, route
        assert any(c.l2 == 0.0 for c in configs)
        assert any(c.hidden == 1 for c in configs)

    def test_lockstep_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(44)
        branches = Counter()
        for trial in range(60):
            n_folds = (1, 3, 6)[trial % 3]
            Xs, ys, cfg, seeds = mlp_stack(rng, (0, 0, 1, 2)[trial % 4], n_folds)
            want, epochs = oracle_folds(Xs, ys, cfg, seeds, branches)
            got = lockstep_or_message(Xs, ys, cfg, seeds)
            if isinstance(want, str) or isinstance(got, str):
                assert got == want, trial
                # a fold before the one that diverged trained to its end
                branches["trained_then_diverged"] += len(epochs) > 1
                continue
            # the folds of this stack stopped at different epochs
            branches["staggered"] += len(set(epochs)) > 1
            assert len(got) == n_folds, trial
            for model, fit in zip(got, want):
                for g, w in zip((model.W1, model.b1, model.W2, model.b2), fit):
                    assert g.shape == w.shape, trial
                    assert g.tobytes() == w.tobytes(), trial
        for route in ("minibatches", "one_batch", "patience", "max_epochs",
                      "diverged_step", "diverged_epoch", "staggered",
                      "trained_then_diverged"):
            assert branches[route] > 0, route

    @pytest.mark.parametrize("diverging", [False, True])
    def test_hidden_buffers_are_allocated_once(self, monkeypatch, diverging):
        # folds that stop at different epochs on 11 rows in minibatches of
        # 4, the last one short; with ``diverging``, fold 2's inputs
        # overflow. Every pass of the training writes its activations and
        # their gradient into slices of the same two buffers, and the
        # models, or the error, are those of the per-fold oracle.
        rng = np.random.default_rng(52)
        cfg = MlpConfig(hidden=7, batch_size=4, max_epochs=200, patience=2, lr=5e-2, early_stop_tol=1e-3)
        Xs, ys = (np.array(a) for a in zip(*(noisy_linear(rng, 11, 3) for _ in range(5))))
        if diverging:
            Xs[2] *= 1e200
        seeds = [int(s) for s in rng.integers(2**31, size=5)]
        buffers = {"h": set(), "d_h": set()}
        real_losses, real_grads = learn._mlp_losses, learn._mlp_losses_and_grads

        def losses(params, X, y, l2, h=None):
            buffers["h"].add(id(h.base))
            return real_losses(params, X, y, l2, h)

        def grads(params, X, y, l2, out, h=None, d_h=None):
            buffers["d_h"].add(id(d_h.base))
            return real_grads(params, X, y, l2, out, h, d_h)

        monkeypatch.setattr(learn, "_mlp_losses", losses)
        monkeypatch.setattr(learn, "_mlp_losses_and_grads", grads)
        got = lockstep_or_message(Xs, ys, cfg, seeds)
        assert [len(ids) for ids in buffers.values()] == [1, 1]
        want, epochs = oracle_folds(Xs, ys, cfg, seeds, Counter())
        if diverging:
            assert isinstance(want, str) and len(epochs) == 3  # folds 0 and 1 trained
            assert got == want
            return
        assert len(set(epochs)) > 1  # the folds stopped at different epochs
        for model, fit in zip(got, want):
            for g, w in zip((model.W1, model.b1, model.W2, model.b2), fit):
                assert g.tobytes() == w.tobytes()

    def test_lowest_fold_divergence_is_raised(self):
        # fold 0 trains; fold 1 diverges late (inputs near 1e307 push the
        # loss over the float range, at epoch 13 on numpy 2.4); fold 2's inputs
        # overflow at once, so its first loss is nan
        cfg = MlpConfig(hidden=2, lr=1e-2, max_epochs=100, patience=100)
        x = np.linspace(0.5, 2.0, 8)[:, None]
        Xs = np.array([x, x * 1e307, np.full_like(x, 1.7e308)])
        ys = np.repeat(-x.T, 3, axis=0)
        seeds = [0, 20, 82]
        alone = [oracle_folds(Xs[f:f + 1], ys[f:f + 1], cfg, seeds[f:f + 1], Counter())
                 for f in range(3)]
        (fit0, _), (fit1, [epochs1]), (fit2, [epochs2]) = alone
        assert not isinstance(fit0, str)
        assert (fit1, fit2) == ("loss became inf", "loss became nan")
        assert epochs2 == 1 < epochs1
        assert oracle_folds(Xs, ys, cfg, seeds, Counter())[0] == "loss became inf"
        assert lockstep_or_message(Xs, ys, cfg, seeds) == "loss became inf"
        assert lockstep_or_message(Xs[[0, 2]], ys[[0, 2]], cfg, seeds[::2]) == "loss became nan"

    @pytest.mark.parametrize("shape_X, shape_y, n_seeds", [
        ((2, 5, 3), (2, 5), 1),  # one seed for two folds
        ((2, 5, 3), (2, 4), 2),  # targets of another length
        ((5, 3), (5,), 1),  # no fold axis
    ])
    def test_lockstep_rejects_mismatched_shapes(self, shape_X, shape_y, n_seeds):
        with pytest.raises(ValueError, match="need Xs of shape"):
            mlp_train_folds(np.zeros(shape_X), np.zeros(shape_y), None, range(n_seeds))

    def test_parameters_are_views_of_one_vector(self):
        rng = np.random.default_rng(42)
        model = mlp_train(rng.normal(size=(6, 3)), rng.normal(size=6), MlpConfig(hidden=4), seed=0)
        params = (model.W1, model.b1, model.W2, model.b2)
        assert [p.shape for p in params] == [(3, 4), (4,), (4, 1), (1,)]
        base = model.W1.base
        assert base is not None and base.size == 3 * 4 + 4 + 4 + 1
        assert all(np.shares_memory(p, base) for p in params)

    def test_gradients_fill_the_given_buffer(self):
        rng = np.random.default_rng(43)
        X, y = rng.normal(size=(7, 3)), rng.normal(size=7)
        model = mlp_train(X, y, MlpConfig(hidden=4, max_epochs=5), seed=0)
        loss, grads = mlp_loss_and_grads(model, X, y)
        buf = np.full(3 * 4 + 4 + 4 + 1, np.nan)
        loss_buf, grads_buf = mlp_loss_and_grads(model, X, y, out=buf)
        assert loss_buf == loss
        assert np.array_equal(np.concatenate([g.ravel() for g in grads]), buf)
        assert all(np.shares_memory(g, buf) for g in grads_buf)


@pytest.mark.parametrize("field, value", [
    ("hidden", 0),
    ("max_epochs", 0),
    ("max_epochs", -3),
    ("batch_size", 0),
    ("patience", 0),
    ("lr", 0.0),
    ("lr", -1.0),
    ("lr", float("nan")),
    ("lr", float("inf")),
    ("eps", 0.0),
    ("eps", float("inf")),
    ("l2", -1e-4),
    ("l2", float("nan")),
    ("early_stop_tol", -1.0),
    ("early_stop_tol", float("inf")),
    ("beta1", 1.0),
    ("beta1", -0.1),
    ("beta2", float("nan")),
    ("beta2", 1.5),
])
def test_mlp_config_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        MlpConfig(**{field: value})
