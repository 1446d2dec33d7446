import shutil

import numpy as np
import pytest

from gazescreen import experiments
from gazescreen.core import FeatureMode, Group, Participant
from gazescreen.errors import (
    AoiNeverInAnyWindow,
    ConfigError,
    DurationTooLong,
    DurationTooShort,
    TooFewParticipants,
    TooFewPerClass,
)
from gazescreen.experiments import (
    CvConfig,
    derive_rng,
    run_classification_cv,
    run_duration_simulation,
    run_severity_loocv,
    stratified_folds,
)
from gazescreen.features import VideoTable, Window, extract_batch, frame_range
from gazescreen.learn import LABEL_ASD, MlpConfig, Standardizer, SvmModel, svm_train
from gazescreen.pipeline import extract_features, load_dataset
from gazescreen.synth import CohortSpec, generate_cohort

from . import oracles


def fake_cohort(rng, n_asd=10, n_control=10, sep=10.0, noise=1.0):
    """Participants + their feature matrix, with tunable class separation."""
    participants = []
    rows = []
    for k in range(n_asd):
        participants.append(Participant(f"a{k:02d}", Group.ASD))
        rows.append(rng.normal(sep, noise, 2))
    for k in range(n_control):
        participants.append(Participant(f"c{k:02d}", Group.CONTROL))
        rows.append(rng.normal(-sep, noise, 2))
    return participants, np.array(rows)


class TestDeriveRng:
    def test_same_tags_same_stream(self):
        a = derive_rng(7, "cv", 3).random(5)
        b = derive_rng(7, "cv", 3).random(5)
        assert np.array_equal(a, b)

    def test_different_tags_differ(self):
        a = derive_rng(7, "cv", 3).random(5)
        b = derive_rng(7, "cv", 4).random(5)
        c = derive_rng(7, "duration", 3).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("make", [lambda seed: CvConfig(seed=seed),
                                      lambda seed: CohortSpec(seed=seed)],
                             ids=["CvConfig", "CohortSpec"])
    def test_seeds_that_would_alias_are_rejected(self, make):
        # the streams are keyed by 32 bits of the seed
        for seed in (7, 2**32 - 5):
            assert np.array_equal(derive_rng(seed, "cv").random(3),
                                  derive_rng(seed + 2**32, "cv").random(3))
        for seed in (-1, -5, 2**32, 2**32 + 7, 10**23):
            with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*32\)"):
                make(seed)
        for seed in (0, 2**32 - 1):
            assert make(seed).seed == seed


class TestStratifiedFolds:
    def test_study_sized_cohort(self):
        labels = [1] * 35 + [-1] * 25
        folds = stratified_folds(labels, 3, np.random.default_rng(0))
        labels = np.array(labels)
        for f in range(3):
            assert (folds == f).sum() == 20
            n_asd = ((folds == f) & (labels == 1)).sum()
            n_ctl = ((folds == f) & (labels == -1)).sum()
            assert n_asd in (11, 12)
            assert n_ctl in (8, 9)

    def test_balanced_small_cohort(self):
        labels = [1] * 6 + [-1] * 6
        folds = stratified_folds(labels, 3, np.random.default_rng(1))
        labels = np.array(labels)
        for f in range(3):
            assert ((folds == f) & (labels == 1)).sum() == 2
            assert ((folds == f) & (labels == -1)).sum() == 2

    def test_partition_is_valid(self):
        rng = np.random.default_rng(2)
        labels = [1] * 9 + [-1] * 7
        folds = stratified_folds(labels, 3, rng)
        assert set(folds) == {0, 1, 2}
        assert len(folds) == 16

    def test_too_few_per_class(self):
        with pytest.raises(TooFewPerClass):
            stratified_folds([1, 1, -1, -1], 3, np.random.default_rng(0))
        # the CLI maps every ConfigError to exit code 2
        with pytest.raises(ConfigError):
            stratified_folds([1, 1, -1, -1], 3, np.random.default_rng(0))

    def test_shuffle_depends_on_rng(self):
        labels = [1] * 12 + [-1] * 12
        f1 = stratified_folds(labels, 3, np.random.default_rng(0))
        f2 = stratified_folds(labels, 3, np.random.default_rng(1))
        assert not np.array_equal(f1, f2)

    def test_matches_oracle_bit_for_bit(self):
        # same assignment bytes, same error and the same draws from the rng
        rng = np.random.default_rng(43)
        raised = 0
        trials = 300
        for trial in range(trials):
            values = rng.choice([-3, -1, 0, 1, 2, 7], size=int(rng.integers(2, 4)), replace=False)
            sizes = rng.integers(1, 41, size=len(values))
            labels = rng.permutation(np.repeat(values, sizes))
            folds = int(rng.integers(2, 6))
            want_rng, got_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            try:
                want = oracles.oracle_stratified_folds(labels, folds, want_rng)
            except TooFewPerClass as e:
                raised += 1
                with pytest.raises(TooFewPerClass) as got:
                    stratified_folds(labels, folds, got_rng)
                assert str(got.value) == str(e), trial
            else:
                got = stratified_folds(labels, folds, got_rng)
                assert got.dtype == want.dtype, trial
                assert got.tobytes() == want.tobytes(), trial
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, trial
        assert 0 < raised < trials  # both outcomes were compared


class TestClassificationCv:
    def test_zero_decision_value_counts_as_control(self, monkeypatch):
        rng = np.random.default_rng(5)
        participants, X = fake_cohort(rng, n_asd=6, n_control=4)
        silent = SvmModel(support_vectors=np.zeros((1, 2)), dual_coef=np.zeros(1),
                          bias=0.0, gamma=1.0, coef0=0.0)
        monkeypatch.setattr(experiments, "svm_train_stacks",
                            lambda stacks, *a: [silent] * sum(len(X) for X, _, _ in stacks))
        report = run_classification_cv(participants, X, CvConfig(seed=1, repetitions=2))
        for row in report.fold_rows:
            assert row["tp"] == row["fp"] == 0
        assert sum(r["fn"] for r in report.fold_rows) == 2 * 6
        assert sum(r["tn"] for r in report.fold_rows) == 2 * 4

    def test_separable_cohort_is_perfect(self):
        rng = np.random.default_rng(3)
        participants, X = fake_cohort(rng)
        report = run_classification_cv(participants, X, CvConfig(seed=1, repetitions=10))
        assert report.mean_accuracy == 1.0
        assert report.sensitivity == 1.0
        assert report.specificity == 1.0
        assert len(report.fold_rows) == 30

    def test_permuted_labels_near_chance(self):
        rng = np.random.default_rng(4)
        participants, X = fake_cohort(rng, n_asd=12, n_control=12)
        perm = rng.permutation([p.group for p in participants])
        shuffled = [Participant(p.participant_id, g) for p, g in zip(participants, perm)]
        report = run_classification_cv(shuffled, X, CvConfig(seed=2, repetitions=30))
        assert 0.30 <= report.mean_accuracy <= 0.70

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        participants, X = fake_cohort(rng, sep=1.0, noise=1.5)
        r1 = run_classification_cv(participants, X, CvConfig(seed=9, repetitions=5))
        r2 = run_classification_cv(participants, X, CvConfig(seed=9, repetitions=5))
        assert r1.fold_rows == r2.fold_rows
        r3 = run_classification_cv(participants, X, CvConfig(seed=10, repetitions=5))
        assert r1.fold_rows != r3.fold_rows

    def test_jobs_do_not_change_results(self):
        rng = np.random.default_rng(6)
        participants, X = fake_cohort(rng, sep=1.0, noise=1.5)
        r1 = run_classification_cv(participants, X, CvConfig(seed=3, repetitions=8, jobs=1))
        r4 = run_classification_cv(participants, X, CvConfig(seed=3, repetitions=8, jobs=4))
        assert r1.fold_rows == r4.fold_rows
        assert r1.mean_accuracy == r4.mean_accuracy

    def test_summary_consistent_with_rows(self):
        rng = np.random.default_rng(7)
        participants, X = fake_cohort(rng, sep=0.5, noise=1.0)
        report = run_classification_cv(participants, X, CvConfig(seed=4, repetitions=6))
        accs = [r["accuracy"] for r in report.fold_rows]
        assert report.mean_accuracy == pytest.approx(np.mean(accs))
        assert report.std_accuracy == pytest.approx(np.std(accs))
        for r in report.fold_rows:
            assert r["tp"] + r["tn"] + r["fp"] + r["fn"] == r["n_test"]
            assert r["accuracy"] == pytest.approx((r["tp"] + r["tn"]) / r["n_test"])

    def test_row_count_must_match_participants(self):
        rng = np.random.default_rng(8)
        participants, X = fake_cohort(rng, n_asd=4, n_control=4)
        for protocol in (run_classification_cv, run_severity_loocv):
            with pytest.raises(ValueError, match="8 participants but 7 feature rows"):
                protocol(participants, X[1:], CvConfig(seed=0, repetitions=1))
            with pytest.raises(ValueError, match="7 participants but 8 feature rows"):
                protocol(participants[1:], X, CvConfig(seed=0, repetitions=1))


class TestSeverityLoocv:
    def test_predictive_features_beat_constant(self):
        rng = np.random.default_rng(9)
        participants = []
        rows = []
        for k in range(12):
            score = float(rng.integers(30, 40))
            participants.append(Participant(f"a{k:02d}", Group.ASD, score))
            rows.append((score / 10.0 + rng.normal(0, 0.05), rng.normal()))
        report = run_severity_loocv(participants, np.array(rows), CvConfig(seed=5))
        y = np.array([p.cars for p in participants])
        constant_mae = np.abs(y - np.median(y)).mean()
        assert report.mae < constant_mae
        assert len(report.rows) == 12

    def test_unscored_participants_excluded(self):
        rng = np.random.default_rng(10)
        participants = [Participant("a0", Group.ASD, 31.0), Participant("a1", Group.ASD, 34.0),
                        Participant("a2", Group.ASD, 38.0), Participant("c0", Group.CONTROL)]
        X = np.array([rng.random(2) for _ in participants])
        report = run_severity_loocv(participants, X, CvConfig(seed=6))
        assert [r["participant_id"] for r in report.rows] == ["a0", "a1", "a2"]

    def test_too_few_scored(self):
        participants = [Participant("a0", Group.ASD, 31.0), Participant("a1", Group.ASD, 34.0)]
        X = np.array([[0.1, 0.2]] * len(participants))
        with pytest.raises(TooFewParticipants):
            run_severity_loocv(participants, X, CvConfig(seed=0))
        with pytest.raises(ConfigError, match="need >= 3 scored participants, have 2"):
            run_severity_loocv(participants, X, CvConfig(seed=0))

    @pytest.mark.parametrize("mode", [FeatureMode.WITH_AOI, FeatureMode.NO_AOI])
    def test_matches_per_fold_oracle_bit_for_bit(self, small_cohort, mode):
        features = extract_features(small_cohort, mode)
        cars = {p.participant_id: p.cars for p in small_cohort.manifest.participants
                if p.cars is not None}
        report = run_severity_loocv(small_cohort.participants, features,
                                    CvConfig(seed=7, mode=mode))
        # the per-fold loop, one fit after another, with the oracle trainer
        pids = sorted(cars)
        index = {p.participant_id: r for r, p in enumerate(small_cohort.participants)}
        X = features[[index[p] for p in pids]]
        y = np.array([cars[p] for p in pids], dtype=float)
        assert [r["participant_id"] for r in report.rows] == pids
        for i, row in enumerate(report.rows):
            train = np.arange(len(pids)) != i
            scaler = Standardizer().fit(X[train])
            y_center = float(y[train].mean())
            seed = int(derive_rng(7, "loocv", i).integers(2**31))
            W1, b1, W2, b2 = oracles.oracle_mlp_train(
                scaler.transform(X[train]), y[train] - y_center, MlpConfig(), seed)
            z = scaler.transform(X[i]).reshape(1, -1)
            pred = y_center + float((np.maximum(z @ W1 + b1, 0.0) @ W2 + b2)[0, 0])
            assert np.float64(row["predicted_cars"]).tobytes() == np.float64(pred).tobytes(), i


@pytest.mark.parametrize("C", [1e-12, 5e-13])
def test_c_at_or_below_the_alpha_tolerance_rejected(C):
    # no alpha could leave 0, so every fold would be an all-zero model
    with pytest.raises(ConfigError, match="alpha tolerance"):
        CvConfig(seed=0, C=C)
    CvConfig(seed=0, C=1e-11)


class TestDurationSimulation:
    # (duration_s, mean_acc, std_acc) on the 6 + 6 cohort (seed 11), root
    # seed 13, 3 repetitions, recorded before the AOI index moved onto the
    # Dataset; the refactor must reproduce them bit for bit.
    GOLDEN = {
        FeatureMode.WITH_AOI: [
            (3.0, 0.8888888888888888, 0.17123372230469378),
            (6.0, 0.8333333333333334, 0.16666666666666666),
            (12.0, 0.8611111111111112, 0.17123372230469378),
        ],
        FeatureMode.NO_AOI: [
            (3.0, 0.7222222222222222, 0.18425693279752223),
            (6.0, 0.5833333333333334, 0.2041241452319315),
            (12.0, 0.6944444444444444, 0.15713484026367724),
        ],
    }

    def test_duration_longer_than_a_video_is_a_config_error(self, small_cohort):
        too_long = 1.0 + min(small_cohort.manifest.video_meta(v).duration_s
                             for v in small_cohort.video_order)
        with pytest.raises(ConfigError, match="exceeds shortest video") as exc:
            run_duration_simulation(small_cohort, [too_long], CvConfig(seed=0, repetitions=1))
        assert isinstance(exc.value, DurationTooLong)

    def test_shortest_duration_is_just_under_two_frame_periods(self, small_cohort, monkeypatch):
        config = CvConfig(seed=1, repetitions=1, mode=FeatureMode.NO_AOI)

        class Drawn(Exception):
            pass

        def drawn(*args):
            raise Drawn

        tables = []

        def table(*args):
            tables.append(args)
            return VideoTable(*args)

        def rejected(d):
            tables.clear()
            try:
                run_duration_simulation(small_cohort, [d], config)
            except DurationTooShort:
                assert not tables  # the plan rejects the run before any table is built
                return True
            except Drawn:  # accepted: the protocol started drawing windows
                assert len(tables) == len(small_cohort.video_order)
                return False

        # the largest rejected and the smallest accepted duration, by
        # bisection over floats: one frame period is rejected, three accepted
        fps = {small_cohort.manifest.video_meta(v).fps for v in small_cohort.video_order}
        assert fps == {30.0}
        lo, hi = 1 / 30, 3 / 30
        with monkeypatch.context() as m:
            m.setattr(experiments, "extract_batch", drawn)
            m.setattr(experiments, "VideoTable", table)
            assert rejected(lo) and not rejected(hi)
            while lo < (mid := lo + (hi - lo) / 2) < hi:
                lo, hi = (mid, hi) if rejected(mid) else (lo, mid)
        assert hi == np.nextafter(lo, 1.0)
        assert 2 - 2e-9 < lo * 30 < hi * 30 < 2  # just under 2 frame periods

        # brute force: no start of the largest rejected duration gives a
        # window of 3 frames, neither at or next to a frame's time (where
        # frame_range rounds) nor at a start the protocol would draw
        rng = np.random.default_rng(0)
        for vid in small_cohort.video_order:
            stack = small_cohort.stacks[vid]
            table = VideoTable(stack, None, config.mode)
            latest = small_cohort.manifest.video_meta(vid).duration_s - lo
            starts = set(rng.uniform(0.0, latest, 2000).tolist())
            for k in range(stack.n_frames):
                for base in (k / 30, (k + 1e-9) / 30):
                    starts.update(np.nextafter(base, np.array([0.0, 1e9])).tolist())
                    starts.add(base)
                starts.update(((k + j * 1e-10) / 30 for j in range(-20, 21)))
            counts = {}
            for s in starts:
                if 0.0 <= s < latest:
                    first, end = frame_range(Window(s, lo), stack.fps, stack.n_frames)
                    counts[s] = end - first
            assert max(counts.values()) == 2
            for s in sorted(counts)[::50]:
                assert not extract_batch(table, Window(s, lo))[1].any()

        # the smallest accepted duration runs; a window this short is still
        # never usable, so every draw fails, as it did before the check
        with pytest.raises(AoiNeverInAnyWindow):
            run_duration_simulation(small_cohort, [hi], config)

    @pytest.mark.parametrize("mode", [FeatureMode.WITH_AOI, FeatureMode.NO_AOI])
    def test_same_seed_same_rows(self, small_cohort, mode):
        report = run_duration_simulation(
            small_cohort, [3.0, 6.0, 12.0], CvConfig(seed=13, repetitions=3, mode=mode)
        )
        got = [(r["duration_s"], r["mean_acc"], r["std_acc"]) for r in report.rows]
        assert got == self.GOLDEN[mode]

    def test_two_object_tracks_give_the_oracle_report(self, two_object_cohort, monkeypatch):
        assert {len(idx.object_ids) for idx in two_object_cohort.aoi.values()} == {2}
        config = CvConfig(seed=17, repetitions=3)
        durations = [1.5, 3.0, 9.0]
        engines = {
            "table": extract_batch,
            "oracle": lambda table, w: oracles.oracle_extract_batch(
                table.stack, table.aoi, w, table.mode),
        }
        reports, draws = {}, {}
        for name, engine in engines.items():
            draws[name] = []

            def recorded(table, w, engine=engine, out=draws[name]):
                values, usable = engine(table, w)
                out.append((values.tobytes(), usable.tobytes()))
                return values, usable

            monkeypatch.setattr(experiments, "extract_batch", recorded)
            reports[name] = run_duration_simulation(two_object_cohort, durations, config).to_dict()
        assert reports["table"] == reports["oracle"]
        assert draws["table"] == draws["oracle"]  # every window's values and mask


@pytest.fixture(scope="module")
def two_object_cohort(small_cohort_manifest, tmp_path_factory):
    """The 6 + 6 cohort with a second AOI object on every video: the left
    half of each box, annotated in alternate 1.5-s blocks of frames."""
    root = tmp_path_factory.mktemp("cohort_two_objects")
    shutil.copytree(small_cohort_manifest.parent, root, dirs_exist_ok=True)
    for path in (root / "aoi").glob("*.csv"):
        lines = path.read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            vid, frame, _, x_min, y_min, x_max, y_max = line.split(",")
            if int(frame) // 45 % 2 == 0:
                half = f"{(float(x_min) + float(x_max)) / 2:.3f}"
                lines.append(",".join((vid, frame, "object_1", x_min, y_min, half, y_max)))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_dataset(root / "manifest.yaml")


@pytest.fixture(scope="module")
def uneven_cohort(tmp_path_factory):
    """A 4 + 3 cohort. Its three CV folds hold 3, 2 and 2 viewers, so the
    training sets of one repetition differ in size and the lockstep SMO
    pads the shorter ones."""
    out = tmp_path_factory.mktemp("cohort_uneven")
    return load_dataset(generate_cohort(CohortSpec(n_asd=4, n_control=3, seed=5), out))


def per_fold_rows(config, y, tag, draw_X, train_sizes):
    """The CV fold rows as one ``svm_train`` call per fold gives them, in
    the protocol's draw order; adds each training set's size to
    ``train_sizes``."""
    rows, _models = oracles.oracle_cv_fold_rows(config, y, tag, draw_X)
    train_sizes.update(len(y) - row["n_test"] for row in rows)
    return rows


class TestLockstepProtocols:
    """Both CV protocols train every fold in one lockstep call; their fold
    rows must be those of training the folds one after another."""

    @pytest.mark.parametrize("mode", [FeatureMode.WITH_AOI, FeatureMode.NO_AOI])
    def test_classification_cv_matches_per_fold_loop(self, uneven_cohort, mode):
        X = extract_features(uneven_cohort, mode)
        config = CvConfig(seed=21, repetitions=6, mode=mode, C=2.0, coef0=1.0)
        report = run_classification_cv(uneven_cohort.participants, X, config)
        y = experiments._labels([p.group for p in uneven_cohort.participants])
        train_sizes = set()
        assert report.fold_rows == per_fold_rows(config, y, ("cv",), lambda rng: X, train_sizes)
        assert train_sizes == {4, 5}  # the folds were padded

    @pytest.mark.parametrize("mode", [FeatureMode.WITH_AOI, FeatureMode.NO_AOI])
    def test_duration_simulation_matches_per_fold_loop(self, uneven_cohort, mode, monkeypatch):
        # the fold rows of each duration, as the protocol summarises them
        summarized = []
        summarize = experiments._summarize
        monkeypatch.setattr(experiments, "_summarize",
                            lambda rows: summarized.append(rows) or summarize(rows))
        durations = [3.0, 6.0, 9.0]
        config = CvConfig(seed=22, repetitions=4, mode=mode)
        run_duration_simulation(uneven_cohort, durations, config)
        y = experiments._labels([p.group for p in uneven_cohort.participants])
        tables = {vid: VideoTable(uneven_cohort.stacks[vid], uneven_cohort.aoi[vid], mode)
                  for vid in uneven_cohort.video_order}
        train_sizes = set()
        want = [
            per_fold_rows(
                config, y, ("duration", d_idx),
                lambda rng, d=d: experiments._draw_windows(uneven_cohort, d, rng, tables),
                train_sizes,
            )
            for d_idx, d in enumerate(durations)
        ]
        assert summarized == want
        assert train_sizes == {4, 5}


def model_bytes(model):
    return (model.support_vectors.tobytes(), model.dual_coef.tobytes(),
            np.float64(model.bias).tobytes(), np.float64(model.gamma).tobytes(),
            model.converged, model.final_kkt_violation)


class TestCvOracle:
    """The stacked CV folds against ``oracles.oracle_cv_fold_rows``, one
    ``Standardizer`` and one ``svm_train`` per fold: every fold row and
    every trained model, byte for byte."""

    @staticmethod
    def trained_models(monkeypatch):
        """The models of every ``svm_train_stacks`` call the protocol makes."""
        models = []
        train = experiments.svm_train_stacks

        def record(*args):
            got = train(*args)
            models.extend(got)
            return got

        monkeypatch.setattr(experiments, "svm_train_stacks", record)
        return models

    # (n_asd, n_control, d, C, gamma, coef0, a zero-variance column)
    CASES = [
        (4, 3, 3, 1.0, None, 0.0, True),
        (4, 3, 1, 2.0, 0.5, 1.0, False),
        (6, 5, 5, 0.5, None, 1.0, True),
        (9, 4, 8, 10.0, 0.2, 0.0, False),
        (7, 7, 20, 1.0, None, 1.0, True),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_classification_cv(self, monkeypatch, case):
        n_asd, n_control, d, C, gamma, coef0, flat = case
        rng = np.random.default_rng(100 * n_asd + d)
        participants = ([Participant(f"a{k}", Group.ASD) for k in range(n_asd)]
                        + [Participant(f"c{k}", Group.CONTROL) for k in range(n_control)])
        X = rng.normal(size=(len(participants), d)) * rng.uniform(0.1, 10.0, d)
        X += rng.normal(0.0, 5.0, d)
        if flat:
            X[:, -1] = 2.5
        config = CvConfig(seed=d, repetitions=6, C=C, gamma=gamma, coef0=coef0)
        models = self.trained_models(monkeypatch)
        report = run_classification_cv(participants, X, config)
        y = experiments._labels([p.group for p in participants])
        rows, want = oracles.oracle_cv_fold_rows(config, y, ("cv",), lambda rng: X)
        assert report.fold_rows == rows
        assert [model_bytes(m) for m in models] == [model_bytes(m) for m in want]
        if (n_asd, n_control) == (4, 3):
            assert {len(y) - row["n_test"] for row in rows} == {4, 5}  # padded folds

    @pytest.mark.parametrize("mode, gamma", [(FeatureMode.WITH_AOI, None),
                                             (FeatureMode.NO_AOI, 0.5)])
    def test_duration_simulation(self, uneven_cohort, monkeypatch, mode, gamma):
        # every repetition draws its own windows, so its own feature matrix
        durations = [3.0, 9.0]
        config = CvConfig(seed=24, repetitions=3, mode=mode, C=2.0, gamma=gamma, coef0=1.0)
        models = self.trained_models(monkeypatch)
        report = run_duration_simulation(uneven_cohort, durations, config)
        y = experiments._labels([p.group for p in uneven_cohort.participants])
        tables = {vid: VideoTable(uneven_cohort.stacks[vid], uneven_cohort.aoi[vid], mode)
                  for vid in uneven_cohort.video_order}
        want = []
        for d_idx, d in enumerate(durations):
            rows, fold_models = oracles.oracle_cv_fold_rows(
                config, y, ("duration", d_idx),
                lambda rng, d=d: experiments._draw_windows(uneven_cohort, d, rng, tables),
            )
            summary = experiments._summarize(rows)
            assert report.rows[d_idx]["mean_acc"] == summary["mean_accuracy"]
            assert report.rows[d_idx]["std_acc"] == summary["std_accuracy"]
            want += fold_models
        assert [model_bytes(m) for m in models] == [model_bytes(m) for m in want]
