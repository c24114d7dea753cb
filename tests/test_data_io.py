import gzip

import numpy as np
import pytest

from dasvrda import (
    SyntheticSpec,
    generate_synthetic,
    load_libsvm,
    normalize_rows,
    save_libsvm,
)
from dasvrda import data_io
from dasvrda.problem import dataset_summary


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# svmlight/libsvm parsing.


def test_load_single_example(tmp_path):
    data = load_libsvm(write(tmp_path, "1 3:2.5\n"))
    assert data.n == 1 and data.d == 3
    assert data.labels.tolist() == [1.0]
    assert data.features.toarray().tolist() == [[0.0, 0.0, 2.5]]


def test_load_multiple_examples_and_blank_lines(tmp_path):
    text = "-1 1:1 2:-2\n\n0.5 2:4\n"
    data = load_libsvm(write(tmp_path, text))
    assert data.n == 2 and data.d == 2
    assert data.labels.tolist() == [-1.0, 0.5]
    assert data.features.toarray().tolist() == [[1.0, -2.0], [0.0, 4.0]]


def test_load_row_with_no_features(tmp_path):
    data = load_libsvm(write(tmp_path, "1 2:1\n-1\n"))
    assert data.n == 2
    assert data.features.toarray()[1].tolist() == [0.0, 0.0]


def test_binary_label_mapping(tmp_path):
    data = load_libsvm(write(tmp_path, "0 1:1\n1 1:2\n"), binary_labels=True)
    assert data.labels.tolist() == [-1.0, 1.0]
    data = load_libsvm(write(tmp_path, "-1 1:1\n1 1:2\n"), binary_labels=True)
    assert data.labels.tolist() == [-1.0, 1.0]
    with pytest.raises(ValueError, match="not binary"):
        load_libsvm(write(tmp_path, "2 1:1\n"), binary_labels=True)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x 1:1\n", "line 1: bad label"),
        ("1 1:one\n", "line 1: bad feature"),
        ("1 0:2\n", "line 1: index 0 is not positive"),
        ("1 2:1 2:3\n", "line 1: index 2 not increasing"),
        ("1 3:1 2:3\n", "line 1: index 2 not increasing"),
        ("1 1:nan\n", "line 1: non-finite value"),
        ("1 1:1\n1 oops\n", "line 2: bad feature"),
    ],
)
def test_malformed_lines_are_reported(tmp_path, text, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_libsvm(write(tmp_path, text))


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ValueError, match="no examples"):
        load_libsvm(write(tmp_path, "\n\n"))


def test_dim_override(tmp_path):
    path = write(tmp_path, "1 2:1\n")
    assert load_libsvm(path, dim=6).d == 6
    with pytest.raises(ValueError, match="below the largest feature index"):
        load_libsvm(path, dim=1)


def test_gzip_round_trip(tmp_path):
    path = tmp_path / "data.txt.gz"
    with gzip.open(path, "wt") as handle:
        handle.write("1 1:0.25 3:-4\n-1 2:8\n")
    data = load_libsvm(str(path))
    assert data.n == 2 and data.d == 3
    assert data.features.toarray().tolist() == [[0.25, 0.0, -4.0], [0.0, 8.0, 0.0]]


def test_save_load_round_trip_is_exact(tmp_path):
    spec = SyntheticSpec(kind="lasso", n=25, d=12, density=0.4, seed=3)
    data, _ = generate_synthetic(spec)
    path = str(tmp_path / "round.txt")
    save_libsvm(data, path)
    back = load_libsvm(path, dim=data.d)
    assert np.array_equal(back.labels, data.labels)
    assert (back.features != data.features).nnz == 0
    assert np.array_equal(back.features.data, data.features.data)


# ---------------------------------------------------------------------------
# Row normalization.


def test_normalize_rows_unit_norm(tmp_path):
    data = load_libsvm(write(tmp_path, "1 1:3 2:4\n-1 1:5\n1\n"))
    normed = normalize_rows(data)
    dense = normed.features.toarray()
    assert np.allclose(np.linalg.norm(dense[0]), 1.0)
    assert np.allclose(np.linalg.norm(dense[1]), 1.0)
    assert np.allclose(dense[2], 0.0)
    assert np.allclose(dense[0], [0.6, 0.8])
    assert np.array_equal(normed.labels, data.labels)


# ---------------------------------------------------------------------------
# Synthetic generators.


def test_synthetic_spec_validation():
    with pytest.raises(ValueError, match="unknown synthetic kind"):
        SyntheticSpec(kind="poisson", n=5, d=5)
    with pytest.raises(ValueError, match="density"):
        SyntheticSpec(kind="lasso", n=5, d=5, density=0.0)
    with pytest.raises(ValueError, match="sparsity"):
        SyntheticSpec(kind="lasso", n=5, d=5, sparsity=6)
    with pytest.raises(ValueError, match="noise"):
        SyntheticSpec(kind="lasso", n=5, d=5, noise=-1.0)
    with pytest.raises(ValueError, match="n >= 1"):
        SyntheticSpec(kind="lasso", n=0, d=5)


def test_synthetic_spec_rejects_a_draw_beyond_physical_memory(monkeypatch):
    with pytest.raises(ValueError, match="8000000000000000000 bytes"):
        SyntheticSpec(kind="ridge-logistic", n=10**9, d=10**9)
    monkeypatch.setattr(data_io, "physical_memory", lambda: 8 * 5 * 5)
    SyntheticSpec(kind="lasso", n=5, d=5, sparsity=2)
    with pytest.raises(ValueError, match="240 bytes, more than the 200 bytes"):
        SyntheticSpec(kind="lasso", n=5, d=6, sparsity=2)
    monkeypatch.setattr(data_io, "physical_memory", lambda: None)
    SyntheticSpec(kind="lasso", n=10**9, d=10**9)


def test_synthetic_is_deterministic_per_seed():
    spec = SyntheticSpec(kind="lasso", n=30, d=15, density=0.5, seed=7)
    a, xa = generate_synthetic(spec)
    b, xb = generate_synthetic(spec)
    assert np.array_equal(xa, xb)
    assert (a.features != b.features).nnz == 0
    assert np.array_equal(a.labels, b.labels)
    c, _ = generate_synthetic(SyntheticSpec(kind="lasso", n=30, d=15,
                                            density=0.5, seed=8))
    assert not np.array_equal(a.labels, c.labels)


def test_synthetic_density_within_three_sigma():
    spec = SyntheticSpec(kind="lasso", n=200, d=100, density=0.1, seed=0)
    data, _ = generate_synthetic(spec)
    cells = spec.n * spec.d
    expect = spec.density * cells
    sigma = np.sqrt(cells * spec.density * (1 - spec.density))
    assert abs(data.features.nnz - expect) <= 3 * sigma


def test_synthetic_ground_truth_sparsity():
    spec = SyntheticSpec(kind="lasso", n=20, d=50, sparsity=7, seed=1)
    _, x_true = generate_synthetic(spec)
    assert int(np.count_nonzero(x_true)) == 7


def test_synthetic_dense_by_default():
    data, _ = generate_synthetic(SyntheticSpec(kind="lasso", n=10, d=6, seed=0,
                                               sparsity=3))
    assert dataset_summary(data)["density"] == 1.0


def test_ridge_logistic_labels_are_signs_and_track_margin():
    spec = SyntheticSpec(kind="ridge-logistic", n=4000, d=10, noise=0.01,
                         sparsity=10, seed=2)
    data, x_true = generate_synthetic(spec)
    assert set(np.unique(data.labels)) <= {-1.0, 1.0}
    # With tiny label noise the sign of the true margin predicts the label
    # almost surely.
    margin = data.features @ x_true
    strong = np.abs(margin) > 0.5
    agree = np.mean(np.sign(margin[strong]) == data.labels[strong])
    assert agree > 0.99
