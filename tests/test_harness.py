import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest

from oracles import (predict_proba_rows_reference, train_softmax_reference,
                     train_softmax_rows_reference)
from targetsel import harness, kernel
from targetsel.baselines import random_select
from targetsel.datastore import ProbabilityMatrix
from targetsel.errors import ConfigurationError, DivergenceError
from targetsel.harness import (
    METHODS,
    ExperimentConfig,
    KernelCache,
    LabeledSplit,
    ToyModel,
    config_from_dict,
    gradient_embeddings,
    predict_proba,
    run_experiment,
    select_indices,
    synthetic_generate,
    train_softmax,
)

SMALL = ExperimentConfig(
    num_classes=4, feature_dim=8, rare_train_count=2, common_train_count=12,
    lake_size=40, target_set_size=4, budget=8, test_per_class=6,
    class_separation=3.0, pair_separation=1.0, max_epochs=150, seeds=(0, 1),
)


class TestSyntheticGenerate:
    def test_determinism(self):
        a = synthetic_generate(SMALL, 3)
        b = synthetic_generate(SMALL, 3)
        assert a.target_classes == b.target_classes
        np.testing.assert_array_equal(a.train.x, b.train.x)
        np.testing.assert_array_equal(a.lake.y, b.lake.y)

    def test_rare_classes_underrepresented(self):
        data = synthetic_generate(SMALL, 0)
        counts = np.bincount(data.train.y, minlength=4)
        for cls in range(4):
            expected = 2 if cls in data.target_classes else 12
            assert counts[cls] == expected

    def test_zero_rare_count_excludes_target_classes(self):
        cfg = dataclasses.replace(SMALL, rare_train_count=0)
        data = synthetic_generate(cfg, 1)
        assert not np.isin(data.train.y, data.target_classes).any()

    def test_target_split_only_target_classes(self):
        data = synthetic_generate(SMALL, 5)
        assert set(np.unique(data.target.y)) <= set(data.target_classes)
        assert len(data.target.y) == 4

    def test_lake_is_balanced(self):
        data = synthetic_generate(SMALL, 2)
        assert np.bincount(data.lake.y, minlength=4).tolist() == [10, 10, 10, 10]

    def test_pinned_target_classes(self):
        cfg = dataclasses.replace(SMALL, target_classes=(0, 3))
        assert synthetic_generate(cfg, 9).target_classes == (0, 3)

    def test_high_separation_is_perfectly_learnable(self):
        cfg = dataclasses.replace(SMALL, class_separation=50.0, pair_separation=20.0)
        data = synthetic_generate(cfg, 0)
        model = train_softmax(data.train, cfg)
        pred = predict_proba(model, data.test.x).argmax(axis=1)
        assert (pred == data.test.y).mean() == 1.0


class TestTrainSoftmax:
    def test_separable_blobs_reach_full_accuracy(self):
        x = np.vstack([np.full((5, 2), -4.0), np.full((5, 2), 4.0)])
        y = np.array([0] * 5 + [1] * 5)
        cfg = dataclasses.replace(SMALL, num_classes=2, feature_dim=2)
        model = train_softmax(LabeledSplit(x, y), cfg)
        pred = predict_proba(model, x).argmax(axis=1)
        assert (pred == y).mean() == 1.0

    def test_single_example(self):
        cfg = dataclasses.replace(SMALL, num_classes=2, feature_dim=2)
        model = train_softmax(LabeledSplit(np.array([[1.0, 2.0]]), np.array([1])), cfg)
        assert predict_proba(model, np.array([[1.0, 2.0]])).argmax() == 1

    def test_zero_epochs_gives_uniform_predictions(self):
        cfg = dataclasses.replace(SMALL, num_classes=2, feature_dim=2, max_epochs=0)
        model = train_softmax(LabeledSplit(np.array([[1.0, 2.0]]), np.array([1])), cfg)
        np.testing.assert_allclose(predict_proba(model, np.array([[3.0, 4.0]])), [[0.5, 0.5]])

    def test_divergence_raises(self):
        cfg = dataclasses.replace(SMALL, num_classes=2, feature_dim=2,
                                  learn_rate=float("inf"), max_epochs=3)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DivergenceError):
            train_softmax(LabeledSplit(x, np.array([0, 1])), cfg)

    def test_divergence_raises_no_runtime_warning(self):
        # at learn_rate 1e308 the logits' product overflows, then inf - inf is nan
        cfg = dataclasses.replace(SMALL, learn_rate=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                train_softmax(synthetic_generate(cfg, 0).train, cfg)

    def test_determinism(self):
        data = synthetic_generate(SMALL, 4)
        a = train_softmax(data.train, SMALL)
        b = train_softmax(data.train, SMALL)
        np.testing.assert_array_equal(a.weights, b.weights)


def _trained(train, split, cfg):
    """The trained weights, or the message of the DivergenceError raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return train(split, cfg).weights
    except DivergenceError as exc:
        return str(exc)


def _base_and_augmented(cfg, seed):
    """A protocol seed's data, and its train split alone and with `budget` random lake rows."""
    data = synthetic_generate(cfg, seed)
    chosen = random_select(len(data.lake.y), cfg.budget, seed).selected
    return data, (data.train, LabeledSplit(np.vstack([data.train.x, data.lake.x[chosen]]),
                                           np.concatenate([data.train.y, data.lake.y[chosen]])))


class TestTrainSoftmaxMatchesReference:
    """train_softmax runs each epoch in place on one buffer; the loop it
    replaced, in the same class-row layout and with the same operands, is the
    reference, bit for bit, down to the epoch that diverges."""

    def assert_same(self, split, cfg):
        ours = _trained(train_softmax, split, cfg)
        ref = _trained(train_softmax_reference, split, cfg)
        if isinstance(ref, str):
            assert ours == ref
        else:
            assert isinstance(ours, np.ndarray) and np.array_equal(ours, ref)
        return ref

    @pytest.mark.parametrize("seed", range(4))
    def test_protocol_seed_base_and_augmented(self, seed):
        cfg = ExperimentConfig()
        for split in _base_and_augmented(cfg, seed)[1]:
            self.assert_same(split, cfg)

    @pytest.mark.parametrize("classes", [2, 3])
    def test_few_classes(self, classes):
        cfg = dataclasses.replace(SMALL, num_classes=classes)
        for seed in range(3):
            self.assert_same(synthetic_generate(cfg, seed).train, cfg)

    @pytest.mark.parametrize("max_epochs", [0, 1, 150])
    def test_single_example(self, max_epochs):
        cfg = dataclasses.replace(SMALL, num_classes=2, feature_dim=2, max_epochs=max_epochs)
        self.assert_same(LabeledSplit(np.array([[1.0, 2.0]]), np.array([1])), cfg)

    def test_early_stop_at_the_threshold(self):
        # rows 0 and 3 coincide with different labels, so accuracy peaks at
        # exactly 3/4: a threshold of 0.75 stops after one epoch, the next
        # float above it never stops
        x = np.array([[-4.0, -4.0], [4.0, 4.0], [4.0, 4.0], [-4.0, -4.0]])
        split = LabeledSplit(x, np.array([0, 1, 1, 1]))
        cfg = dataclasses.replace(SMALL, num_classes=2, feature_dim=2, max_epochs=50)
        one_epoch = self.assert_same(split, dataclasses.replace(cfg, max_epochs=1))
        stopped = self.assert_same(split, dataclasses.replace(cfg, train_acc_threshold=0.75))
        ran = self.assert_same(split, dataclasses.replace(
            cfg, train_acc_threshold=float(np.nextafter(0.75, 1.0))))
        assert np.array_equal(stopped, one_epoch) and not np.array_equal(stopped, ran)

    @pytest.mark.parametrize("learn_rate, scale, fine_epochs, first", [
        (float("inf"), 1.0, 0, "weights"),  # the first step makes the weights non-finite
        (1000.0, 1e153, 3, "training loss"),  # the logits overflow in the fourth epoch
    ])
    def test_divergence_at_the_same_epoch(self, learn_rate, scale, fine_epochs, first):
        # three copies of one row, labelled 0, 1, 1: no step can fit them, and
        # a threshold above 1 never stops training early
        split = LabeledSplit(np.tile([scale, 0.0], (3, 1)), np.array([0, 1, 1]))
        cfg = dataclasses.replace(SMALL, num_classes=2, feature_dim=2, learn_rate=learn_rate,
                                  train_acc_threshold=2.0)
        outcomes = [self.assert_same(split, dataclasses.replace(cfg, max_epochs=m))
                    for m in range(fine_epochs + 4)]
        diverged = [isinstance(o, str) for o in outcomes]
        assert diverged == [False] * (fine_epochs + 1) + [True] * 3
        assert outcomes[fine_epochs + 1] == f"{first} diverged; reduce learn_rate"
        assert outcomes[-1] == "training loss diverged; reduce learn_rate"


class TestTrainSoftmaxMatchesRowLayout:
    """train_softmax computes its logits with one row per class (C x n) and a
    softmax down each column; the loop with one row per example (n x C), a
    softmax along rows, sums in another order. On the protocol its weights
    differ by round-off only and every prediction is the same."""

    @pytest.mark.parametrize("seed", range(4))
    def test_protocol_seed_base_and_augmented(self, seed):
        cfg = ExperimentConfig()
        data, splits = _base_and_augmented(cfg, seed)
        for split in splits:
            ours = train_softmax(split, cfg)
            rows = train_softmax_rows_reference(split, cfg)
            assert np.abs(ours.weights - rows.weights).max() <= 1e-13 * np.abs(rows.weights).max()
            for x in (data.test.x, data.lake.x):
                np.testing.assert_array_equal(
                    predict_proba(ours, x).argmax(axis=1),
                    predict_proba_rows_reference(rows, x).argmax(axis=1))


class TestGradientEmbeddings:
    def test_correct_prediction_gives_zero_embedding(self):
        # weights that make class 1 a near-certain prediction for this input
        w = np.array([[-50.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        emb = gradient_embeddings(ToyModel(w), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(emb.values, 0.0, atol=1e-12)

    def test_outer_product_layout(self):
        model = ToyModel(np.zeros((2, 3)))
        # zero weights -> p = [0.5, 0.5]; with true label 0 the residual is
        # [-0.5, 0.5], crossed with [x; 1] = [1, 2, 1]
        emb = gradient_embeddings(model, np.array([[1.0, 2.0]]), labels=np.array([0]))
        np.testing.assert_allclose(emb.values, [[-0.5, -1.0, -0.5, 0.5, 1.0, 0.5]])
        r, xb = emb.factors
        np.testing.assert_array_equal(r, [[-0.5, 0.5]])
        np.testing.assert_array_equal(xb, [[1.0, 2.0, 1.0]])

    def test_identical_inputs_identical_embeddings(self):
        rng = np.random.default_rng(0)
        model = ToyModel(rng.standard_normal((3, 4)))
        x = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        emb = gradient_embeddings(model, x).values
        np.testing.assert_array_equal(emb[0], emb[1])

    def test_dim_mismatch(self):
        with pytest.raises(ConfigurationError):
            gradient_embeddings(ToyModel(np.zeros((2, 3))), np.zeros((1, 5)))

    @pytest.fixture(scope="class")
    def protocol_seed_0(self):
        """The base model and the 15 target rows of default protocol seed 0 (10 classes)."""
        cfg = ExperimentConfig()
        data = synthetic_generate(cfg, 0)
        return train_softmax(data.train, cfg), data.target

    @pytest.mark.parametrize("labels,got", [
        (lambda y: y[:3], "int64 and shape (3,)"),
        (lambda y: np.concatenate([y, y[:2]]), "int64 and shape (17,)"),
        (lambda y: np.where(np.arange(15) == 4, -1, y), "int64 and shape (15,)"),
        (lambda y: np.where(np.arange(15) == 4, 10, y), "int64 and shape (15,)"),
        (lambda y: y.astype(np.float64), "float64 and shape (15,)"),
        (lambda y: y[:, None], "int64 and shape (15, 1)"),
    ], ids=["3-labels", "17-labels", "minus-one", "ten", "float", "2-d"])
    def test_bad_labels_rejected(self, protocol_seed_0, labels, got):
        base, target = protocol_seed_0
        with pytest.raises(ConfigurationError) as err:
            gradient_embeddings(base, target.x, labels(target.y))
        assert str(err.value) == ("labels must be 15 integers in [0, 10), one per row of x; "
                                  f"got dtype {got}")

    def test_labels_as_list_or_narrow_ints(self, protocol_seed_0):
        base, target = protocol_seed_0
        expected = gradient_embeddings(base, target.x, target.y).factors
        for labels in (target.y.tolist(), target.y.astype(np.uint8)):
            got = gradient_embeddings(base, target.x, labels).factors
            assert all(f.tobytes() == g.tobytes() for f, g in zip(got, expected))


class TestEmbeddingValuesStayUnbuilt:
    """Kernels and BADGE read the gradient embeddings' factors, so no selection
    and no experiment builds their dense values."""

    def test_select_indices_every_method(self):
        data = synthetic_generate(SMALL, 0)
        base = train_softmax(data.train, SMALL)
        probs = ProbabilityMatrix(predict_proba(base, data.lake.x))
        for method in METHODS:
            lake = gradient_embeddings(base, data.lake.x)
            target = gradient_embeddings(base, data.target.x, data.target.y)
            select_indices(method, SMALL, lake, target, probs, 0)
            assert "values" not in vars(lake) and "values" not in vars(target), method

    def test_run_experiment(self, monkeypatch):
        made = []

        def recording(*args):
            made.append(gradient_embeddings(*args))
            return made[-1]

        monkeypatch.setattr(harness, "gradient_embeddings", recording)
        run_experiment(SMALL, list(METHODS))
        assert len(made) == 2 * len(SMALL.seeds)
        assert not any("values" in vars(m) for m in made)


class TestPoolKernelRows:
    """The kinds that read few pool-kernel rows read them from the factors (kernel.KernelRows)
    at the protocol's small budgets, so no n x n pool kernel is built for them."""

    @pytest.fixture
    def embeddings(self):
        data = synthetic_generate(SMALL, 0)
        base = train_softmax(data.train, SMALL)
        return (gradient_embeddings(base, data.lake.x),
                gradient_embeddings(base, data.target.x, data.target.y))

    @pytest.mark.parametrize("method", ["logdetmi", "gcmi_div", "logdet", "dsum"])
    def test_no_square_pool_kernel_is_built(self, embeddings, method, monkeypatch):
        shapes, build = [], harness.build_kernel
        monkeypatch.setattr(harness, "build_kernel",
                            lambda *args: shapes.append(build(*args).shape) or build(*args))
        kernels = KernelCache(*embeddings)
        select_indices(method, SMALL, *embeddings, None, 0, kernels)
        assert (SMALL.lake_size, SMALL.lake_size) not in shapes and "uu" not in kernels._built

    @pytest.mark.parametrize("method", ["logdetmi", "gcmi_div", "logdet", "dsum"])
    def test_rows_die_with_their_selection(self, embeddings, method, monkeypatch):
        # no reference cycle keeps the rows alive until the cyclic collector runs
        made, rows = [], harness.KernelRows
        monkeypatch.setattr(harness, "KernelRows", lambda *args: made.append(rows(*args)) or made[-1])
        kernels = KernelCache(*embeddings)
        gc.disable()
        try:
            select_indices(method, SMALL, *embeddings, None, 0, kernels)
            made = [weakref.ref(r) for r in made]
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("method,computed",
                             [("dsum", 12), ("gcmi_div", 12), ("logdet", 12), ("logdetmi", 12)])
    def test_selection_computes_each_committed_row_once(self, embeddings, method, computed,
                                                        monkeypatch):
        # each commit reads its row once, the last one too, logdetmi's for both of its
        # kernels' columns: the log-det kinds fold in a commit when it is made
        cfg = dataclasses.replace(SMALL, budget=12)
        served, row = [], kernel.KernelRows.row
        monkeypatch.setattr(kernel.KernelRows, "row",
                            lambda self, j: served.append(row(self, j)) or served[-1])
        result = select_indices(method, cfg, *embeddings, None, 0, KernelCache(*embeddings))
        assert len(result.selected) == 12
        assert len(served) == computed  # calls
        assert len({id(r) for r in served}) == computed  # served keeps every row alive

    def test_rows_ignore_a_built_pool_kernel(self, embeddings):
        # what a selection reads does not depend on what the shared cache already holds
        fresh = select_indices("logdet", SMALL, *embeddings, None, 0, KernelCache(*embeddings))
        shared = KernelCache(*embeddings)
        select_indices("fl1mi", SMALL, *embeddings, None, 0, shared)
        after = select_indices("logdet", SMALL, *embeddings, None, 0, shared)
        assert "uu" in shared._built
        assert (after.selected, after.gains) == (fresh.selected, fresh.gains)


class TestRunExperiment:
    def test_shape_contract(self):
        report = run_experiment(SMALL, ["fl2mi", "random"])
        assert report.methods == ["fl2mi", "random"]
        for method in report.methods:
            assert len(report.entries[method]) == 2
            assert set(report.aggregates[method]) == {
                "median_target_gain", "mean_target_gain",
                "median_overall_gain", "mean_overall_gain",
            }

    def test_budget_zero_null_effect(self):
        cfg = dataclasses.replace(SMALL, budget=0, seeds=(0,))
        report = run_experiment(cfg, ["random", "fl2mi"])
        for method in report.methods:
            entry = report.entries[method][0]
            assert entry["target_gain"] == 0.0
            assert entry["overall_gain"] == 0.0
            assert entry["selected_target_class_count"] == 0

    def test_gain_arithmetic_and_ranges(self):
        report = run_experiment(SMALL, ["random"])
        for e in report.entries["random"]:
            assert 0.0 <= e["base_target_accuracy"] <= 1.0
            assert 0.0 <= e["base_overall_accuracy"] <= 1.0
            assert -1.0 <= e["target_gain"] <= 1.0

    def test_determinism(self):
        a = run_experiment(SMALL, ["fl2mi", "us"]).to_dict()
        b = run_experiment(SMALL, ["fl2mi", "us"]).to_dict()
        assert a == b

    def test_base_model_weak_on_rare_classes(self):
        from targetsel.harness import _accuracies

        cfg = ExperimentConfig()
        for seed in cfg.seeds:
            data = synthetic_generate(cfg, seed)
            model = train_softmax(data.train, cfg)
            target_acc, overall_acc = _accuracies(model, data.test, data.target_classes)
            assert target_acc < overall_acc


class TestConfigFromDict:
    def test_round_trip_fields(self):
        cfg = config_from_dict({"num_classes": 4, "feature_dim": 8, "seeds": [1, 2]})
        assert cfg.num_classes == 4 and cfg.seeds == (1, 2)

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            config_from_dict({"nope": 1})

    def test_negative_ridge(self):
        with pytest.raises(ConfigurationError, match="ridge"):
            config_from_dict({"ridge": -1.0})

    def test_odd_classes_need_an_even_feature_dim(self):
        # class means fill columns up to 2 * ((num_classes + 1) // 2) - 1
        with pytest.raises(ConfigurationError, match="feature_dim"):
            config_from_dict({"num_classes": 3, "feature_dim": 3})
        data = synthetic_generate(config_from_dict({"num_classes": 3, "feature_dim": 4}), 0)
        assert data.lake.x.shape == (2000, 4)

    def test_invalid_target_budget_relation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(budget=5, target_set_size=5)
