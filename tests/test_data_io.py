import gzip
import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dasvrda import (
    SyntheticSpec,
    generate_synthetic,
    load_libsvm,
    normalize_rows,
    save_libsvm,
)
from dasvrda import ElasticNet, Logistic, Squared, data_io, make_problem
from dasvrda.reference import problem_fingerprint


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
        ("nan 1:1\n", "data.txt: line 1: non-finite label 'nan'"),
        ("1 1:1\ninf 1:1\n", "data.txt: line 2: non-finite label 'inf'"),
        ("1 1:1\n1 oops\n", "line 2: bad feature"),
        ("1 1:1 3000000000:2\n", "line 1: index 3000000000 is above"),
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


@pytest.mark.parametrize("spec", [
    SyntheticSpec(kind="lasso", n=400, d=5, density=0.1, sparsity=2, seed=1),
    SyntheticSpec(kind="ridge-logistic", n=500, d=60, density=0.05, seed=3),
    SyntheticSpec(kind="lasso", n=300, d=40, seed=2),
])
def test_normalize_rows_matches_the_diagonal_product(spec):
    """Bitwise the same as scaling by a diagonal matrix built from
    ``multiply(...).sum(axis=1)``, empty rows (left as they are) included."""
    data, _ = generate_synthetic(spec)
    feats = data.features
    norms = np.sqrt(np.asarray(feats.multiply(feats).sum(axis=1)).ravel())
    scale = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 1.0)
    expect = sp.diags(scale) @ feats
    expect.sort_indices()
    got = normalize_rows(data).features
    assert spec.density == 1.0 or (np.diff(feats.indptr) == 0).sum() > 0
    for name in ("indptr", "indices", "data"):
        a, b = getattr(expect, name), getattr(got, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


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
    assert data.features.nnz == 10 * 6


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


def data_digest(data, x_true) -> str:
    """SHA-256 of the CSR arrays, labels and ground truth, each tagged with
    its name, dtype and shape."""
    h = hashlib.sha256()
    feats = data.features
    for name, arr in (("indptr", feats.indptr), ("indices", feats.indices),
                      ("data", feats.data), ("labels", data.labels),
                      ("x_true", x_true)):
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


#: Digests of seeded draws as the generator made them when it still went
#: through a dense array (density 1) or COO triplets (density < 1): building
#: the CSR arrays directly must not move a bit, index dtypes included.
PINNED_DIGESTS = [
    (dict(kind="lasso", n=200, d=30, seed=0),
     "19a072b1808e43426e1a58cd4e0bf8dc1268a36815da6c807dd579308083a611"),
    (dict(kind="ridge-logistic", n=150, d=40, density=0.3, seed=1),
     "abaa857cf78c7648f693071027c5f47b915b8f2b3e139bf5cdb6e48c893befb0"),
    (dict(kind="lasso", n=37, d=11, density=0.3, sparsity=4, seed=5),
     "df7f77065b0d88acf74fe614f1ce0eae07cb2a42a12105bd13047701236f9bb6"),
    # n = 1
    (dict(kind="lasso", n=1, d=7, sparsity=3, seed=2),
     "3e717f6d4e2aa00985985f7d43be6a807bfc326704e1d811a72f6da1cf1500c8"),
    # d = 1, below and at density 1
    (dict(kind="ridge-logistic", n=9, d=1, density=0.5, sparsity=1, seed=3),
     "d44c09a0ac1848e22efe9910aedb4c93e1299e0e69bd9a59df2e307bdaee5b72"),
    (dict(kind="ridge-logistic", n=6, d=1, sparsity=1, seed=4),
     "9effaf2022d683fb2b8ac0bf25654beea20d8048dbe5623e7e46fe1b160a432a"),
    # no stored entry at all
    (dict(kind="lasso", n=3, d=4, density=1e-6, sparsity=2, seed=0),
     "f07d62d520d40aa5a1a871225bf03cb35a59baaf9e43586aaef9ee5fef351a26"),
    # the last three rows empty
    (dict(kind="ridge-logistic", n=12, d=4, density=0.15, sparsity=2, seed=0),
     "5759f6f07569779542667e50f3794b41afcf476b2a75953d52b45b479bcb2bea"),
    # the acceptance-10 problem
    (dict(kind="ridge-logistic", n=5000, d=500, density=0.02, sparsity=10,
          seed=3),
     "43db0490bf0491404123c1d1ca26acd79e0ed65c3403bf2612e99e9a4ef651cc"),
]


@pytest.mark.parametrize("kw,digest", PINNED_DIGESTS,
                         ids=[str(i) for i in range(len(PINNED_DIGESTS))])
def test_synthetic_draws_are_pinned(kw, digest):
    data, x_true = generate_synthetic(SyntheticSpec(**kw))
    assert data_digest(data, x_true) == digest


@pytest.mark.parametrize("kw,loss,fingerprint", [
    (dict(kind="lasso", n=200, d=30, seed=0), Squared(),
     "94a8c87d44abc4c15c3f47b70404cd2f319b8baeba9c939d6d6de3127ca4de10"),
    (dict(kind="ridge-logistic", n=150, d=40, density=0.3, seed=1), Logistic(),
     "c76cab00a06402306b9ca3c3a735c7f2eeb72d3f5317c2f14f68358f56909696"),
])
def test_synthetic_problem_fingerprint_is_pinned(kw, loss, fingerprint):
    """Cached references are keyed on this hash of the raw bytes."""
    data, _ = generate_synthetic(SyntheticSpec(**kw))
    problem = make_problem(data, loss, ElasticNet(1e-3, 1e-4))
    assert problem_fingerprint(problem) == fingerprint


@pytest.mark.parametrize("density", [1.0, 0.3])
def test_synthetic_matrix_is_canonical_with_int32_indices(density):
    data, _ = generate_synthetic(SyntheticSpec(kind="lasso", n=50, d=20,
                                               density=density, seed=4))
    feats = data.features
    assert feats.indices.dtype == np.int32 and feats.indptr.dtype == np.int32
    assert feats.has_canonical_format


def test_synthetic_dense_draw_peaks_near_two_copies():
    """A fully stored draw is the CSR values array, and the matrix
    ``make_dataset`` keeps is one copy of it: no dense-to-CSR detour."""
    spec = SyntheticSpec(kind="lasso", n=2000, d=500, seed=0)
    tracemalloc.start()
    try:
        data, _ = generate_synthetic(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    feats = data.features
    stored = feats.data.nbytes + feats.indices.nbytes + feats.indptr.nbytes
    assert peak <= 2.25 * stored
