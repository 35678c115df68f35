import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagedml.data import (
    DataFormatError,
    FeatureSet,
    SplitSpec,
    load_dataset,
    project,
    save_csv,
    split,
    split_indices,
)
from stagedml.rng import Rng

from conftest import make_numeric_dataset, random_dataset


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_numeric(self, tmp_path):
        path = write(tmp_path, "t.csv", "x1,x2,y\n1,2,a\n3,4,b\n5,6,a\n7,8,b\n")
        d = load_dataset(path, label_column="y")
        assert d.n_rows == 4 and d.n_columns == 2
        assert d.class_names == ["a", "b"]
        assert list(d.labels) == [0, 1, 0, 1]

    def test_one_hot_three_levels(self, tmp_path):
        path = write(tmp_path, "t.csv", "c,y\nred,0\ngreen,1\nblue,0\nred,1\n")
        d = load_dataset(path, label_column="y")
        assert d.n_columns == 3
        assert d.feature_names == ["c=red", "c=green", "c=blue"]
        assert all(o.source == "c" and o.kind == "onehot" for o in d.source_columns)
        assert np.array_equal(d.instances[0], [1.0, 0.0, 0.0])
        assert np.array_equal(d.instances[2], [0.0, 0.0, 1.0])

    def test_mean_imputation(self, tmp_path):
        # oracle: mean of observed {1.0, 3.0} = 2.0
        path = write(tmp_path, "t.csv", "x,y\n1.0,a\n3.0,b\n,a\n1.0,b\n")
        d = load_dataset(path, label_column="y")
        observed_mean = (1.0 + 3.0 + 1.0) / 3
        assert d.instances[2, 0] == pytest.approx(observed_mean)

    def test_question_mark_missing_and_mode(self, tmp_path):
        path = write(tmp_path, "t.csv", "c,y\nu,0\nu,1\n?,0\nv,1\n")
        d = load_dataset(path, label_column="y")
        # mode of {u, u, v} is u; the missing row one-hot encodes as u
        u_col = d.feature_names.index("c=u")
        assert d.instances[2, u_col] == 1.0

    def test_high_cardinality_goes_ordinal(self, tmp_path):
        lines = ["c,y"] + [f"v{i},{i % 2}" for i in range(40)]
        path = write(tmp_path, "t.csv", "\n".join(lines) + "\n")
        d = load_dataset(path, label_column="y")
        assert d.n_columns == 1
        assert d.source_columns[0].kind == "ordinal"
        assert d.instances[7, 0] == 7.0  # first-appearance codes

    def test_label_by_index(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b\n1,x\n2,y\n")
        d = load_dataset(path, label_column=1)
        assert d.class_names == ["x", "y"]

    def test_errors(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "absent.csv", label_column="y")
        path = write(tmp_path, "ragged.csv", "a,b\n1\n")
        with pytest.raises(DataFormatError):
            load_dataset(path, label_column="a")
        path = write(tmp_path, "nolabel.csv", "a,b\n1,2\n")
        with pytest.raises(DataFormatError):
            load_dataset(path, label_column="y")
        path = write(tmp_path, "empty.csv", "a,b\n")
        with pytest.raises(DataFormatError):
            load_dataset(path, label_column="a")

    def test_no_nan_after_ingestion(self, tmp_path):
        path = write(tmp_path, "t.csv", "x,c,y\n1.5,?,a\n,u,b\n2.5,v,a\n")
        d = load_dataset(path, label_column="y")
        assert np.all(np.isfinite(d.instances))

    def test_roundtrip_via_csv(self, tmp_path):
        path = write(tmp_path, "t.csv", "x1,c,y\n1.25,u,a\n2.5,v,b\n3.75,u,a\n-1,w,b\n")
        d = load_dataset(path, label_column="y")
        out = tmp_path / "echo.csv"
        save_csv(d, out)
        d2 = load_dataset(out, label_column=d.label_name)
        assert d.equals(d2)


class TestLoadArff:
    def test_numeric_and_nominal(self, tmp_path):
        text = (
            "% comment\n"
            "@relation toy\n"
            "@attribute width numeric\n"
            "@attribute color {red, green}\n"
            "@attribute class {yes, no}\n"
            "@data\n"
            "1.5, red, yes\n"
            "2.5, green, no\n"
            "?, red, yes\n"
        )
        d = load_dataset(write(tmp_path, "t.arff", text), label_column="class")
        assert d.class_names == ["yes", "no"]
        assert d.feature_names == ["width", "color=red", "color=green"]
        assert d.instances[2, 0] == pytest.approx(2.0)  # imputed mean of {1.5, 2.5}

    def test_rejects_date_and_string(self, tmp_path):
        text = "@relation t\n@attribute when date\n@data\n"
        with pytest.raises(DataFormatError):
            load_dataset(write(tmp_path, "t.arff", text), label_column=0)
        text = "@relation t\n@attribute s string\n@data\n"
        with pytest.raises(DataFormatError):
            load_dataset(write(tmp_path, "s.arff", text), label_column=0)

    def test_format_inferred_from_suffix(self, tmp_path):
        text = "@relation t\n@attribute a numeric\n@attribute class {x,y}\n@data\n1,x\n2,y\n"
        d = load_dataset(write(tmp_path, "t.arff", text), label_column="class")
        assert d.n_columns == 1


class TestSplit:
    def test_sizes_and_disjointness(self):
        d = make_numeric_dataset(np.arange(20.0), [0, 1] * 10)
        train, test = split(d, SplitSpec(train_fraction=0.7, seed=3))
        assert train.n_rows == 14 and test.n_rows == 6
        union = sorted(list(train.instances[:, 0]) + list(test.instances[:, 0]))
        assert union == list(np.arange(20.0))

    def test_ten_rows_example(self):
        d = make_numeric_dataset(np.arange(10.0), [0, 1] * 5)
        train, test = split(d, SplitSpec(train_fraction=0.7, seed=0))
        assert train.n_rows == 7 and test.n_rows == 3

    def test_same_seed_identical(self):
        d = make_numeric_dataset(np.arange(30.0), [0, 1, 2] * 10)
        a = split_indices(d.labels, SplitSpec(0.7, seed=42))
        b = split_indices(d.labels, SplitSpec(0.7, seed=42))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = split_indices(d.labels, SplitSpec(0.7, seed=43))
        assert not np.array_equal(a[0], c[0])

    def test_balanced_binary_stratification(self):
        # counting oracle: 100 rows, 50/50, fraction 0.7 -> 35 per class
        y = np.array([0] * 50 + [1] * 50)
        d = make_numeric_dataset(np.arange(100.0), y)
        train, _ = split(d, SplitSpec(0.7, seed=9))
        assert int((train.labels == 0).sum()) == 35
        assert int((train.labels == 1).sum()) == 35

    def test_stratified_within_one_example(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            d = random_dataset(rng)
            frac = float(rng.uniform(0.3, 0.9))
            train, _ = split(d, SplitSpec(frac, seed=int(rng.integers(0, 2**32))))
            for c in range(len(d.class_names)):
                total_c = int((d.labels == c).sum())
                got = int((train.labels == c).sum())
                assert abs(got - frac * total_c) <= 1.0

    def test_singleton_class_goes_to_train(self):
        d = make_numeric_dataset(np.arange(5.0), [0, 0, 0, 0, 1])
        train, test = split(d, SplitSpec(0.7, seed=1))
        assert 4.0 in train.instances[:, 0] and train.n_rows + test.n_rows == 5
        # 20/20/1 rows over three classes: 14 + 14 + 1 train rows
        y = np.array([0] * 20 + [1] * 20 + [2])
        train_rows, test_rows = split_indices(y, SplitSpec(0.7, seed=3))
        assert 40 in train_rows and np.bincount(y[train_rows]).tolist() == [14, 14, 1]
        assert np.bincount(y[test_rows], minlength=3).tolist() == [6, 6, 0]

    def test_classes_of_two_rows_or_more_split_as_before(self):
        # pinned before singleton classes were allowed
        y = np.array([2, 0, 1, 0, 3, 1, 0, 2, 0, 1, 3, 0, 1, 0, 2, 1, 0])
        pinned = [
            (0.7, 5, [0, 1, 2, 3, 4, 5, 8, 9, 12, 13, 14, 16]),
            (0.5, 11, [1, 4, 5, 7, 9, 11, 13, 15, 16]),
            (0.8, 2**40, [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16]),
        ]
        for fraction, seed, train in pinned:
            assert split_indices(y, SplitSpec(fraction, seed=seed))[0].tolist() == train

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=6),
        frac=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**63),
        order_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stratified_split_properties(self, sizes, frac, seed, order_seed):
        """Over label distributions with singleton classes among them: the
        parts are disjoint and cover every row, each class puts within one
        row of its share into train, and a class of one row goes to train."""
        y = np.random.default_rng(order_seed).permutation(np.repeat(np.arange(len(sizes)), sizes))
        train, test = split_indices(y, SplitSpec(frac, seed=seed))
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(y.size))
        for c, size in enumerate(sizes):
            got = int((y[train] == c).sum())
            assert abs(got - frac * size) <= 1.0
            assert size > 1 or got == 1

    @pytest.mark.parametrize("n, fraction, seed", [(2, 0.5, 0), (6, 0.7, 1), (30, 0.7, 5), (25, 0.33, 2**40)])
    def test_single_class_split_is_a_shuffle_cut_at_train_size(self, n, fraction, seed):
        # one class is one stratum: Rng(seed) shuffles all rows, and the
        # first round-half-up(fraction * n) of them are the train rows
        d = make_numeric_dataset(np.arange(float(n)), [0] * n, class_names=["only"])
        rows = list(range(n))
        Rng(seed).shuffle(rows)
        cut = int(np.floor(fraction * n + 0.5))
        train_rows, test_rows = split_indices(d.labels, SplitSpec(fraction, seed=seed))
        assert train_rows.tolist() == sorted(rows[:cut])
        assert test_rows.tolist() == sorted(rows[cut:])
        train, test = split(d, SplitSpec(fraction, seed=seed))
        assert train.instances[:, 0].tolist() == sorted(rows[:cut]) and test.n_rows == n - cut

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=60),
        frac=st.floats(min_value=0.1, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**63),
    )
    def test_split_then_merge_recovers_rows(self, n, frac, seed):
        labels = np.array([i % 2 for i in range(n)])
        d = make_numeric_dataset(np.arange(float(n)), labels)
        train, test = split(d, SplitSpec(frac, seed))
        merged = sorted(list(train.instances[:, 0]) + list(test.instances[:, 0]))
        assert merged == list(np.arange(float(n)))


class TestFeatureSetAndProject:
    def test_feature_set_normalizes(self):
        fs = FeatureSet([3, 1, 1, 2])
        assert fs.indices == (1, 2, 3)

    def test_empty_feature_set_is_an_error(self):
        with pytest.raises(ValueError):
            FeatureSet([])

    def test_project_identity(self):
        d = make_numeric_dataset(np.arange(12.0).reshape(4, 3), [0, 1, 0, 1])
        assert project(d, FeatureSet([0, 1, 2])).equals(d)

    def test_project_single_column(self):
        d = make_numeric_dataset(np.arange(12.0).reshape(4, 3), [0, 1, 0, 1])
        p = project(d, FeatureSet([0]))
        assert p.n_columns == 1
        assert np.array_equal(p.instances[:, 0], d.instances[:, 0])

    def test_project_out_of_range(self):
        d = make_numeric_dataset(np.arange(12.0).reshape(4, 3), [0, 1, 0, 1])
        with pytest.raises(ValueError):
            project(d, FeatureSet([5]))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_project_composition(self, data):
        d = make_numeric_dataset(np.arange(24.0).reshape(4, 6), [0, 1, 0, 1])
        f1 = sorted(data.draw(st.sets(st.integers(0, 5), min_size=1, max_size=6)))
        f2_rel = sorted(data.draw(st.sets(st.integers(0, len(f1) - 1), min_size=1)))
        inner = project(project(d, FeatureSet(f1)), FeatureSet(f2_rel))
        composed = project(d, FeatureSet([f1[i] for i in f2_rel]))
        assert inner.equals(composed)

    def test_rows_and_labels_untouched(self):
        d = make_numeric_dataset(np.arange(12.0).reshape(4, 3), [0, 1, 1, 0])
        p = project(d, FeatureSet([2, 0]))
        assert np.array_equal(p.labels, d.labels)
        assert p.feature_names == ["x0", "x2"]  # column order follows sorted F


def test_dataset_is_immutable():
    d = make_numeric_dataset(np.arange(4.0), [0, 1, 0, 1])
    with pytest.raises(ValueError):
        d.instances[0] = 9.0
    with pytest.raises(ValueError):
        d.labels[0] = 1
