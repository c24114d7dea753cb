"""Dataset input/output: svmlight/libsvm text files and seeded synthetic
problem generators.

:func:`load_libsvm` parses a file in one call of the compiled library's
svmlight parser (``svmlight.c``, built on first use by
:mod:`~dasvrda.stage_loop`, so a run's first use may be this load), after
one compiled pass that counts the file's line ends and colons to size its
arrays.  The parser converts a number of at most 19 significant digits
and a small exponent by one exact x87 extended-precision operation, and
every other number, and any result on a tie between two doubles, by
``strtod``: both give the correctly rounded double that ``float()`` gives.
Its per-token Python loop runs wherever the parser cannot: no library,
:data:`~dasvrda.stage_loop.COMPILED` off, or a line outside the parser's
grammar.  The loop gives the same arrays, raises every error the loader
reports, and is the parser's test oracle.
"""

from __future__ import annotations

import gzip
import math
import os
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from . import stage_loop
from .problem import Dataset, make_dataset, row_norms_sq

#: Largest feature index an svmlight file may use: columns are stored as
#: int32.
_MAX_INDEX = 2**31 - 1


def _open(path: str, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def load_libsvm(
    path: str,
    *,
    dim: Optional[int] = None,
    binary_labels: bool = False,
) -> Dataset:
    """Parse an svmlight/libsvm text file (optionally gzip-compressed).

    Each line is ``label index:value ...`` with 1-based, strictly
    increasing indices; blank lines are skipped.  The feature count is the
    largest index seen unless ``dim`` overrides it (useful to align
    train/test splits).  With ``binary_labels`` the common {0,1} encoding
    is mapped to {-1,+1} and anything else is rejected.

    The compiled parser (``svmlight.c``) reads the file in one call where
    it can; a file it stops on, and every file where the library is not
    loaded, goes through the per-token loop, with the same arrays.  The
    path taken is noted for the run's ``loop`` header
    (:func:`~dasvrda.stage_loop.note`).

    Malformed input raises ``ValueError`` naming the offending line.
    """
    parsed = _parse_compiled(path)
    if parsed is None:
        parsed = _parse_lines(path)
    return _assemble(path, *parsed, dim=dim, binary_labels=binary_labels)


def _parse_compiled(path: str):
    """The file's labels, ``indptr``, ``indices``, ``data`` and largest
    index from the compiled parser, or None where the loop must parse it:
    no library, a read that fails (the loop reports it), or a line outside
    the parser's grammar."""
    kernels = stage_loop.library()
    if isinstance(kernels, str):
        stage_loop.note(kernels)
        return None
    try:
        with _open(path, "rb") as handle:
            raw = handle.read()
    except (OSError, EOFError, zlib.error) as exc:
        stage_loop.note(f"python loader: {type(exc).__name__} reading the file")
        return None
    # A row takes a line and an entry a colon: capacities the kernel cannot
    # pass.
    counts = np.zeros(3, dtype=np.int64)
    ptr = stage_loop.pointer
    kernels.dasvrda_svmlight_count(raw, len(raw), ptr(counts))
    lines, entries = int(counts[0]) + 1, int(counts[1])
    labels, data = np.empty(lines), np.empty(entries)
    indptr = np.empty(lines + 1, dtype=np.int32)
    indices = np.empty(entries, dtype=np.int32)
    stop = kernels.dasvrda_svmlight(raw, len(raw), lines, entries, ptr(labels),
                                    ptr(indptr), ptr(indices), ptr(data), ptr(counts))
    if stop:
        stage_loop.note(f"python loader: line {stop} outside the compiled grammar")
        return None
    stage_loop.note(kernels)
    rows, nnz, max_index = counts.tolist()
    return labels[:rows], indptr[:rows + 1], indices[:nnz], data[:nnz], max_index


def _parse_lines(path: str):
    """What :func:`_parse_compiled` returns, from the per-token loop,
    which raises on a malformed line."""
    data: list[float] = []
    indices: list[int] = []
    indptr: list[int] = [0]
    labels: list[float] = []
    max_index = 0
    with _open(path, "rt") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: bad label {tokens[0]!r}"
                ) from None
            if not math.isfinite(label):
                raise ValueError(
                    f"{path}: line {lineno}: non-finite label {tokens[0]!r}")
            prev_index = 0
            for token in tokens[1:]:
                try:
                    index_text, value_text = token.split(":", 1)
                    index = int(index_text)
                    value = float(value_text)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: bad feature {token!r}"
                    ) from None
                if index < 1:
                    raise ValueError(
                        f"{path}: line {lineno}: index {index} is not positive"
                    )
                if index <= prev_index:
                    raise ValueError(
                        f"{path}: line {lineno}: index {index} not increasing "
                        f"(previous {prev_index})"
                    )
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: line {lineno}: non-finite value {value_text!r}"
                    )
                prev_index = index
                indices.append(index - 1)
                data.append(value)
            if prev_index > _MAX_INDEX:  # the line's largest index
                raise ValueError(
                    f"{path}: line {lineno}: index {prev_index} is above the "
                    f"largest supported index {_MAX_INDEX}"
                )
            max_index = max(max_index, prev_index)
            labels.append(label)
            indptr.append(len(indices))
    return (np.asarray(labels, dtype=np.float64), np.asarray(indptr, dtype=np.int32),
            np.asarray(indices, dtype=np.int32), np.asarray(data, dtype=np.float64),
            max_index)


def _assemble(path, labels, indptr, indices, data, max_index, *, dim, binary_labels):
    """The dataset of parsed rows, after the checks on the whole file."""
    if not labels.size:
        raise ValueError(f"{path}: no examples")
    d = max_index if dim is None else dim
    if d < max_index:
        raise ValueError(
            f"{path}: dim={dim} is below the largest feature index {max_index}"
        )
    y = labels
    if binary_labels:
        zero_one = np.isin(y, (0.0, 1.0))
        pm_one = np.isin(y, (-1.0, 1.0))
        if zero_one.all():
            y = np.where(y == 0.0, -1.0, 1.0)
        elif not pm_one.all():
            bad = y[~(zero_one | pm_one)][0]
            raise ValueError(
                f"{path}: label {bad} is not binary ({{0,1}} or {{-1,+1}})"
            )
    mat = sp.csr_matrix((data, indices, indptr), shape=(labels.size, d))
    return make_dataset(mat, y)


def save_libsvm(dataset: Dataset, path: str) -> None:
    """Write a dataset back out in svmlight/libsvm format (1-based indices,
    round-trip-exact float formatting)."""
    feats = dataset.features
    with open(path, "w") as handle:
        for i in range(dataset.n):
            start, stop = feats.indptr[i], feats.indptr[i + 1]
            fields = [repr(float(dataset.labels[i]))]
            fields.extend(
                f"{int(j) + 1}:{float(v)!r}"
                for j, v in zip(feats.indices[start:stop], feats.data[start:stop])
            )
            handle.write(" ".join(fields) + "\n")


def normalize_rows(dataset: Dataset) -> Dataset:
    """Scale every nonzero row to unit Euclidean norm."""
    feats = dataset.features
    norms = np.sqrt(row_norms_sq(feats))
    scale = 1.0 / np.where(norms > 0, norms, 1.0)
    values = feats.data * np.repeat(scale, np.diff(feats.indptr))
    return make_dataset(
        sp.csr_matrix((values, feats.indices, feats.indptr), shape=feats.shape),
        dataset.labels,
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded synthetic problem.

    ``kind`` is ``"lasso"`` (Gaussian design, sparse ground truth, Gaussian
    label noise) or ``"ridge-logistic"`` (same design, labels flipped by
    logistic noise around the ground-truth margin).  ``density`` is the
    per-entry Bernoulli probability of a nonzero feature and ``sparsity``
    the number of nonzero ground-truth coefficients.

    Only density 1 keeps an ``n x d`` array as data: its standard-normal
    draw becomes the values array of the CSR matrix.  Below density 1 the
    data are the stored entries alone, but the Bernoulli mask still comes
    from one ``n x d`` float64 uniform draw that lives while the mask is
    made.  Either way a size whose ``n x d`` float64 draw exceeds the
    machine's physical memory is rejected here, before anything is
    allocated.
    """

    kind: str
    n: int
    d: int
    density: float = 1.0
    noise: float = 0.1
    sparsity: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("lasso", "ridge-logistic"):
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if self.noise < 0:
            raise ValueError(f"noise level must be nonnegative, got {self.noise}")
        if self.seed < 0:
            raise ValueError(f"synthetic seed must be nonnegative, got {self.seed}")
        if not 0 <= self.sparsity <= self.d:
            raise ValueError(
                f"sparsity must be in [0, d], got {self.sparsity} with d={self.d}"
            )
        need, have = 8 * self.n * self.d, physical_memory()
        if have is not None and need > have:
            raise ValueError(
                f"synthetic n={self.n}, d={self.d} draws an n x d float64 "
                f"array of {need} bytes, more than the {have} bytes of "
                f"physical memory"
            )


def physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Materialize a :class:`SyntheticSpec`; returns the dataset and the
    ground-truth coefficient vector.

    Both densities fill the three CSR arrays directly (values, column
    indices, row lengths) and build the matrix from them once, with no
    dense or COO intermediate.  At density 1 the values array is a view of
    the ``n x d`` draw itself; an exact zero it might hold stays stored
    until :func:`make_dataset` drops it, so the result is the one a
    dense-to-CSR conversion gives.
    """
    n, d = spec.n, spec.d
    rng = np.random.default_rng(spec.seed)
    if spec.density >= 1.0:
        values = rng.standard_normal((n, d)).ravel()
        cols = np.tile(np.arange(d, dtype=np.int32), n)
        counts = np.full(n, d)
    else:
        mask = rng.random((n, d)) < spec.density
        counts = mask.sum(axis=1)
        flat = np.flatnonzero(mask)
        cols = np.remainder(flat, d, out=flat).astype(np.int32)
        values = rng.standard_normal(cols.size)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    mat = sp.csr_matrix((values, cols, indptr), shape=(n, d))
    x_true = np.zeros(d)
    support = rng.choice(d, size=spec.sparsity, replace=False)
    x_true[support] = rng.standard_normal(spec.sparsity)
    # scipy's CSR product in row order (not BLAS on a dense view), so the
    # labels keep their bits.
    clean = mat @ x_true
    if spec.kind == "lasso":
        labels = clean + spec.noise * rng.standard_normal(n)
    else:
        flip = rng.random(n)
        prob_pos = expit(clean / max(spec.noise, 1e-12))
        labels = np.where(flip < prob_pos, 1.0, -1.0)
    return make_dataset(mat, labels), x_true
