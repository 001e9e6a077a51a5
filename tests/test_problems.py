"""Tests for synthetic datasets, baselines, and problem definitions."""

import numpy as np
import pytest

from repro.nn import Trainer
from repro.problems import (combo_problem, get_problem, make_combo_data,
                            make_nt3_data, make_uno_data, nt3_problem,
                            one_hot, uno_problem)


class TestDatasets:
    def test_combo_shapes(self):
        ds = make_combo_data(n_train=100, n_val=30, cell_dim=10, drug_dim=12)
        assert ds.x_train["cell_expression"].shape == (100, 10)
        assert ds.x_train["drug1_descriptors"].shape == (100, 12)
        assert ds.x_val["drug2_descriptors"].shape == (30, 12)
        assert ds.y_train.shape == (100, 1)
        assert len(ds.y_train) == 100 and len(ds.y_val) == 30

    def test_combo_deterministic(self):
        a = make_combo_data(n_train=50, n_val=10, seed=3)
        b = make_combo_data(n_train=50, n_val=10, seed=3)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_combo_seed_changes_data(self):
        a = make_combo_data(n_train=50, n_val=10, seed=3)
        b = make_combo_data(n_train=50, n_val=10, seed=4)
        assert not np.array_equal(a.y_train, b.y_train)

    def test_combo_target_standardized(self):
        ds = make_combo_data(n_train=400, n_val=100)
        y = np.concatenate([ds.y_train, ds.y_val])
        assert abs(y.mean()) < 1e-9
        assert abs(y.std() - 1.0) < 1e-9

    def test_uno_shapes(self):
        ds = make_uno_data(n_train=80, n_val=20, rna_dim=10, desc_dim=14,
                           fp_dim=6)
        assert ds.x_train["dose"].shape == (80, 1)
        assert ds.x_train["drug_fingerprints"].shape == (80, 6)
        assert set(ds.x_train["drug_fingerprints"].ravel()) <= {0.0, 1.0}

    def test_uno_dose_matters(self):
        # shuffling the dose column must hurt an oracle trained on it;
        # cheap proxy: dose correlates with the target
        ds = make_uno_data(n_train=2000, n_val=10, seed=1)
        corr = np.corrcoef(ds.x_train["dose"][:, 0],
                           ds.y_train[:, 0])[0, 1]
        assert abs(corr) > 0.1

    def test_nt3_shapes_and_onehot(self):
        ds = make_nt3_data(n_train=60, n_val=20, length=80)
        assert ds.x_train["rnaseq_expression"].shape == (60, 80, 1)
        assert ds.y_train.shape == (60, 2)
        np.testing.assert_array_equal(ds.y_train.sum(axis=1), 1.0)

    def test_nt3_min_length(self):
        with pytest.raises(ValueError):
            make_nt3_data(length=50)

    def test_nt3_classes_separable(self, small_nt3):
        # the baseline CNN reaches high accuracy quickly
        p = small_nt3
        tr = Trainer(loss=p.loss, metric=p.metric, batch_size=20, epochs=6)
        model = p.build_baseline(np.random.default_rng(0))
        hist = tr.fit(model, p.dataset.x_train, p.dataset.y_train,
                      p.dataset.x_val, p.dataset.y_val)
        assert hist.val_metric > 0.8

    def test_one_hot(self):
        np.testing.assert_array_equal(
            one_hot(np.array([0, 2, 1]), 3),
            [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_mismatched_rows_rejected(self):
        from repro.problems.datasets import Dataset
        with pytest.raises(ValueError):
            Dataset({"a": np.zeros((5, 2)), "b": np.zeros((4, 2))},
                    np.zeros((5, 1)), {"a": np.zeros((1, 2)),
                                       "b": np.zeros((1, 2))},
                    np.zeros((1, 1)))


class TestBaselineParameterCounts:
    """Table 1's manually-designed-network parameter counts."""

    def test_combo_paper_exact(self, small_combo):
        assert small_combo.baseline_params(paper_scale=True) == 13_772_001

    def test_uno_paper_exact(self, small_uno):
        assert small_uno.baseline_params(paper_scale=True) == 19_274_001

    def test_nt3_paper_documented_value(self, small_nt3):
        # the §2.3 topology at d=60,483 with valid padding; the paper's
        # Table 1 value (96,777,878) is inconsistent with its own §2.3
        # description — see EXPERIMENTS.md
        assert small_nt3.baseline_params(paper_scale=True) == 154_922_918

    def test_working_scale_counts_positive(self, small_combo, small_uno,
                                           small_nt3):
        for p in (small_combo, small_uno, small_nt3):
            assert 0 < p.baseline_params() < 10_000_000


class TestProblems:
    def test_get_problem(self):
        assert get_problem("combo", n_train=64, n_val=16).name == "combo"
        with pytest.raises(ValueError):
            get_problem("cifar")

    def test_combo_baseline_trains(self, small_combo):
        p = small_combo
        tr = Trainer(loss=p.loss, metric=p.metric, batch_size=32, epochs=20)
        model = p.build_baseline(np.random.default_rng(0))
        hist = tr.fit(model, p.dataset.x_train, p.dataset.y_train,
                      p.dataset.x_val, p.dataset.y_val)
        assert hist.val_metric > 0.4

    def test_uno_baseline_trains(self, small_uno):
        p = small_uno
        tr = Trainer(loss=p.loss, metric=p.metric, batch_size=32, epochs=15)
        model = p.build_baseline(np.random.default_rng(0))
        hist = tr.fit(model, p.dataset.x_train, p.dataset.y_train,
                      p.dataset.x_val, p.dataset.y_val)
        assert hist.val_metric > 0.25

    def test_build_model_from_space(self, small_combo, rng):
        arch = small_combo.space.random_architecture(rng)
        m = small_combo.build_model(arch.choices, rng)
        x = {k: v[:4] for k, v in small_combo.dataset.x_train.items()}
        assert m.forward(x).shape == (4, 1)

    def test_count_params_matches_model(self, small_combo, rng):
        arch = small_combo.space.random_architecture(rng)
        m = small_combo.build_model(arch.choices, rng)
        assert small_combo.count_params(arch.choices) == m.num_params

    def test_problem_validates_inputs_cover_space(self):
        from repro.problems.base import Problem
        from repro.problems.datasets import make_combo_data
        from repro.nas.spaces import uno_small
        from repro.problems.combo import combo_baseline, combo_head
        with pytest.raises(ValueError):
            Problem(name="bad", dataset=make_combo_data(32, 8),
                    space=uno_small(0.02), baseline=combo_baseline(10),
                    head_ops=combo_head(), loss="mse", metric="r2",
                    batch_size=32)

    def test_batch_sizes_match_paper(self, small_combo, small_uno,
                                     small_nt3):
        assert small_combo.batch_size == 256
        assert small_uno.batch_size == 32
        assert small_nt3.batch_size == 20

    def test_metrics_match_paper(self, small_combo, small_uno, small_nt3):
        assert small_combo.metric == "r2"
        assert small_uno.metric == "r2"
        assert small_nt3.metric == "accuracy"
