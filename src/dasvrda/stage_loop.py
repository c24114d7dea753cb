"""The compiled library of the inner stages, and the dense stages' steps
on one of two paths with the same bits.

:func:`run_stage` runs all ``m`` steps of
:func:`~dasvrda.solvers.one_stage_accsvrda`,
:func:`~dasvrda.solvers.one_stage_dasvrg` or
:func:`~dasvrda.baselines.one_stage_svrg` once the stage function has made
its anchor and drawn its batches.  Then

* the compiled loop (``stage_loop.c``) runs every step in one call,
  reading each step's rows straight from the problem's CSR arrays with
  the arithmetic of the csr form of :class:`~dasvrda.problem.Rows`;
* the numpy skeleton (:func:`_skeleton`) gathers the stage's labels,
  weights and anchor terms once and runs the same steps with numpy calls,
  in-place buffers and :func:`~dasvrda.problem.take_rows`.  It runs
  wherever the loop cannot: a batch of the BLAS dense form
  (:func:`~dasvrda.problem.dense_view`), an ``on_iterate`` hook, no C
  compiler, a failed build, or :data:`COMPILED` off.  It is also the
  loop's test oracle.

The lazy engine's :class:`~dasvrda.lazy.LazyStage` takes the library's
lazy kernel (``lazy_stage.c``) the same way, through :func:`kernels`, and
:func:`~dasvrda.data_io.load_libsvm` its svmlight parser (``svmlight.c``),
through :func:`library`.

Both stage kernels take the problem's facts as one :class:`Handle`, which
the first stage that takes a kernel builds and checks; each stage then
checks only its own rows and vectors (:func:`handle`).

The library is compiled on first use, never at import: the load of an
svmlight file, or else the first stage.  The system ``cc`` builds every C
source of the package (:func:`sources`) with :data:`CFLAGS` into
``$XDG_CACHE_HOME/dasvrda`` (default ``~/.cache/dasvrda``), under a name
keyed by the hash of the sources and the flags, and ``ctypes`` loads it.
The build writes a name of its own and renames it into place, so two
processes may build at once, and then removes the other versions' builds
but the newest, so that two checkouts run in turn (a change and its
parent) each keep theirs.
Any failure leaves the Python paths to run, and :func:`noting` collects
the path each stage and load took and why, which the trace header reports
as ``loop``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import re
import signal
import subprocess
import tempfile
from typing import Callable, Optional, Union

import numpy as np

# ``prox_elastic_net`` is looked up on its module at each call, so that a
# wrapper installed there (the per-layer tracer, ``perfbench/tracer.py``)
# sees every prox of the skeleton.
from . import problem as problem_module
from .losses import Logistic, SmoothedHinge, Squared
from .problem import Problem, dense_view, take_rows
from .sampling import SamplingScheme, StageAnchor, batch_gradient

#: Stage kinds, numbered as in ``stage_loop.c``.
ACC, DASVRG, SVRG = 0, 1, 2
#: The compiled kernels' number of each loss, as in ``kernels.h``.
LOSSES = {Squared: 0, Logistic: 1, SmoothedHinge: 2}

#: The directory of the library's C sources.
HERE = os.path.dirname(os.path.abspath(__file__))
#: The C compiler that builds the library.
CC = "cc"
#: No fused multiply-adds and no fast-math: the kernels keep numpy's bits.
#: -O3 vectorises the elementwise loops, not a reduction, so the bits are
#: -O2's.
CFLAGS = ("-O3", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
#: Seconds the build may take before it is killed.
BUILD_TIMEOUT = 120.0
#: Whether stages and svmlight loads may take the compiled kernels; off,
#: every stage runs numpy and every load the Python loop.
COMPILED = True

_INT = (np.dtype(np.int32), np.dtype(np.int64))
#: The name of a build of the library in :func:`cache_dir`.
_BUILD_NAME = re.compile(r"kernels-[0-9a-f]{16}\.so")


def theta_inner(k: int) -> float:
    """Inner momentum weight: ``(k+1)/2`` for ``k >= 0``, zero for ``k = -1``."""
    if k < 0:
        return 0.0
    return (k + 1) / 2.0


def theta_pair(k: int) -> float:
    """Product of consecutive inner weights, ``theta_k * theta_{k-1}``.

    Equals ``k (k+1) / 4`` for ``k >= 1`` and zero otherwise; computed
    directly from ``k`` so lazy updates can evaluate it for arbitrary gaps
    without accumulating rounding error.
    """
    if k < 1:
        return 0.0
    return k * (k + 1) / 4.0


# ---------------------------------------------------------------------------
# Building and loading the compiled library.


class Handle(ctypes.Structure):
    """``struct problem`` of ``kernels.h``; :func:`handle` keeps its sources
    on it as ``arrays``."""

    _fields_ = ([(f, ctypes.c_void_p) for f in ("indptr", "indices", "data", "labels")]
                + [(f, ctypes.c_int64) for f in ("n", "d", "row_max")]
                + [(f, ctypes.c_int) for f in ("wide", "loss")]
                + [(f, ctypes.c_double) for f in ("nu", "l1", "l2")])


def sources() -> list[str]:
    """The library's C sources and headers, by file name in :data:`HERE`."""
    return sorted(f for f in os.listdir(HERE) if f.endswith((".c", ".h")))


def cache_dir() -> str:
    """Where built libraries are kept: ``$XDG_CACHE_HOME/dasvrda``, by
    default ``~/.cache/dasvrda``."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(root, "dasvrda")


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """``lib``, its kernels' argument and result types declared."""
    i64, dbl, ptr, int_ = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_int
    problem = ctypes.POINTER(Handle)
    dense, lazy = lib.dasvrda_dense_stage, lib.dasvrda_lazy_stage
    dense.argtypes = [problem, int_, i64, i64] + [ptr] * 4 + [dbl] + [ptr] * 8
    dense.restype = None
    lazy.argtypes = ([problem, i64, i64] + [ptr] * 5 + [dbl] + [ptr] * 7 + [i64]
                     + [ptr] * 2)
    lazy.restype = i64
    lib.dasvrda_svmlight.argtypes = [ptr] + [i64] * 3 + [ptr] * 5
    lib.dasvrda_svmlight.restype = i64
    lib.dasvrda_svmlight_count.argtypes = [ptr, i64, ptr]
    lib.dasvrda_svmlight_count.restype = None
    return lib


def _build() -> Union[ctypes.CDLL, str]:
    """The loaded library, built first if the cache lacks it, or why not."""
    names = sources()
    key = hashlib.sha256(" ".join(CFLAGS).encode())
    for name in names:
        with open(os.path.join(HERE, name), "rb") as handle:
            key.update(name.encode() + b"\0" + handle.read())
    directory = cache_dir()
    lib = os.path.join(directory, f"kernels-{key.hexdigest()[:16]}.so")
    if not os.path.isfile(lib):
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(fd)
        except OSError:
            return "numpy: cache directory not writable"
        try:
            why = _compile([os.path.join(HERE, f) for f in names if f.endswith(".c")],
                           tmp)
            if why is None:
                os.replace(tmp, lib)
                _prune(directory, os.path.basename(lib))
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        if why is not None:
            return why
    try:
        return _declare(ctypes.CDLL(lib))
    except (OSError, AttributeError):
        return "numpy: cannot load the compiled library"


def _prune(directory: str, keep: str) -> None:
    """Remove from ``directory`` every build of the library but ``keep`` and
    the newest other one: the names :func:`_build` writes, and no other."""
    with contextlib.suppress(OSError):
        stale = sorted((os.stat(path).st_mtime_ns, path) for path in (
            os.path.join(directory, name) for name in os.listdir(directory)
            if name != keep and _BUILD_NAME.fullmatch(name)))
        for _, path in stale[:-1]:
            with contextlib.suppress(OSError):
                os.remove(path)


def _compile(paths: list[str], out: str) -> Optional[str]:
    """Compile the C files ``paths`` into the shared library ``out``; why
    not, if it fails.  The compiler runs in a session of its own, which a
    timeout kills whole, and is always waited for."""
    cmd = [CC, *CFLAGS, "-o", out, *paths, "-lm"]
    try:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
    except OSError:
        return "numpy: no C compiler"
    with proc:
        try:
            proc.wait(timeout=BUILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "numpy: C build timed out"
    return None if proc.returncode == 0 else "numpy: C build failed"


#: The loaded library, or why it is not loaded; None until first needed.
_loaded: Union[ctypes.CDLL, str, None] = None


def _library() -> Union[ctypes.CDLL, str]:
    global _loaded
    if _loaded is None:
        _loaded = _build()
    return _loaded


#: Why nothing runs compiled while :data:`COMPILED` is off.
_OFF = "numpy: compiled loop off"


def library() -> Union[ctypes.CDLL, str]:
    """The compiled kernels, built first if need be, or why not."""
    return _library() if COMPILED else _OFF


# ---------------------------------------------------------------------------
# Paths.


#: The paths noted by the innermost :func:`noting` block, if any.
_notes: Optional[set] = None


@contextlib.contextmanager
def noting():
    """Collect, in the set it yields, the path that each stage or svmlight
    load run inside the block takes: ``compiled``, ``numpy: <why>``, or
    for a load ``python loader: <why>``.  An enclosing block gets them
    too."""
    global _notes
    outer, _notes = _notes, set()
    try:
        yield _notes
    finally:
        if outer is not None:
            outer |= _notes
        _notes = outer


def note(path: Union[ctypes.CDLL, str]) -> None:
    """Note a stage's or a load's path, the library it runs or why not, in
    the innermost :func:`noting` block."""
    if _notes is not None:
        _notes.add(path if isinstance(path, str) else "compiled")


def kernels(problem: Problem) -> Union[ctypes.CDLL, str]:
    """The compiled kernels, if a stage on ``problem`` may run them, or
    why not."""
    mat = problem.data.features
    if not COMPILED:
        return _OFF
    if type(problem.loss) not in LOSSES:
        return f"numpy: no compiled {type(problem.loss).__name__} loss"
    if mat.indptr.dtype != mat.indices.dtype or mat.indices.dtype not in _INT:
        return "numpy: index types not both int32 or int64"
    return library()


def handle(problem: Problem, idx: np.ndarray, *groups) -> Handle:
    """``problem``'s :class:`Handle`, kept as ``problem.handle``, after
    checking a stage's contiguous int64 rows ``idx`` and its other arrays,
    each group ``(length, dtype, arrays)`` of which must :func:`_fits`.  On
    first use, and when an array, the loss or the elastic net was reassigned
    (compared by identity), it checks what the kernels read unchecked and
    builds the handle, making the arrays read-only so that no in-place
    write can leave it stale."""
    mat, labels = problem.data.features, problem.data.labels
    arrays = (mat.indptr, mat.indices, mat.data, labels, problem.loss, problem.reg)
    kept = problem.handle
    if (kept is None or (kept.n, kept.d) != mat.shape
            or any(a is not b for a, b in zip(kept.arrays, arrays))):
        (n, d), nnz = mat.shape, mat.nnz
        indptr, indices, data, _, loss, reg = arrays
        if not (_fits(indptr, n + 1, indices.dtype) and indices.dtype in _INT
                and _fits(indices, nnz, indices.dtype) and _fits(data, nnz, np.float64)
                and indptr[0] == 0 and indptr[-1] == nnz
                and np.all(indptr[1:] >= indptr[:-1])):
            raise ValueError("the design matrix's CSR arrays are malformed")
        if nnz and not (indices.min() >= 0 and indices.max() < d):
            raise ValueError(f"a stored column is out of range for d={d}")
        if not _fits(labels, n, np.float64):
            raise ValueError(f"the labels are not {n} contiguous float64s")
        for a in arrays[:4]:
            a.flags.writeable = False
        kept = problem.handle = Handle(
            *map(pointer, arrays[:4]), n, d, int(np.diff(indptr).max()),
            int(indices.dtype == np.int64), LOSSES[type(loss)],
            loss.nu if isinstance(loss, SmoothedHinge) else 0.0, reg.l1, reg.l2)
        kept.arrays = arrays
    if not (idx.dtype == np.int64 and idx.flags.c_contiguous and idx.min() >= 0
            and idx.max() < kept.n):
        raise ValueError(f"the batch rows are not contiguous int64s below n={kept.n}")
    if not all(_fits(a, length, dtype) for length, dtype, arrays in groups
               for a in arrays):
        raise ValueError("a stage array has the wrong shape, type or layout")
    return kept


def _fits(a: Optional[np.ndarray], length: int, dtype) -> bool:
    """Whether ``a`` is None (NULL) or a contiguous ``length``-vector of ``dtype``."""
    return a is None or (a.shape == (length,) and a.dtype == dtype
                         and a.flags.c_contiguous)


def pointer(a: Optional[np.ndarray]) -> Optional[int]:
    """The address of ``a``'s data, or None for NULL."""
    return None if a is None else a.ctypes.data


# ---------------------------------------------------------------------------
# The stage.


def run_stage(
    kind: int,
    problem: Problem,
    anchor: StageAnchor,
    scheme: SamplingScheme,
    idx: np.ndarray,
    start: np.ndarray,
    eta: float,
    on_iterate: Optional[Callable[[int, dict], None]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Steps ``1..m`` of a stage of ``kind`` on the batches ``idx`` (``m x
    b``, from :func:`~dasvrda.sampling.draw_batch`), from ``start``, at the
    gradient anchor ``anchor``.  Returns ``(x, z)``: the last primal and
    dual points, or for :data:`SVRG` the last iterate and the sum of all
    of them.  A negative ``eta`` raises on both paths."""
    if eta < 0:
        raise ValueError(f"step size must be nonnegative, got eta={eta}")
    x = np.array(start, dtype=np.float64)
    z = np.zeros_like(x) if kind == SVRG else x.copy()
    z0 = x.copy() if kind == ACC else None
    g_bar = np.zeros_like(x) if kind == ACC else None
    args = (kind, problem, anchor, scheme.weights, idx, eta, x, z, z0, g_bar)
    path = ("numpy: on_iterate hook" if on_iterate is not None
            else "numpy: BLAS dense form"
            if dense_view(problem.data.features, idx.shape[1]) is not None
            else kernels(problem))
    note(path)
    if isinstance(path, str):
        _skeleton(*args, on_iterate)
    else:
        _compiled(path.dasvrda_dense_stage, *args)
    return x, z


def _skeleton(kind, problem, anchor, weights, idx, eta, x, z, z0, g_bar, on_iterate):
    """The steps in numpy, each operation of the compiled loop in its
    order, updating ``x``, ``z`` and ``g_bar`` in place."""
    m, b = idx.shape
    lab = problem.data.labels[idx]
    w = None if weights is None else weights[idx]
    dxb = anchor.derivs[idx]
    if w is not None:
        dxb *= w
    dxb /= b
    y, tmp = np.empty_like(x), np.empty_like(x)
    for k in range(1, m + 1):
        inv = 1.0 / theta_inner(k)
        keep = 1.0 - inv
        point = x
        if kind != SVRG:
            np.multiply(x, keep, out=y)
            y += np.multiply(z, inv, out=tmp)
            point = y
        rows = take_rows(problem.data.features, idx[k - 1])
        g = batch_gradient(problem.loss, anchor.grad, rows, point, lab[k - 1],
                           None if w is None else w[k - 1], dxb[k - 1])
        if kind == ACC:
            g_bar *= keep
            g_bar += np.multiply(g, inv, out=tmp)
            step = eta * theta_pair(k)
            np.subtract(z0, np.multiply(g_bar, step, out=tmp), out=tmp)
        elif kind == DASVRG:
            step = eta * theta_inner(k - 1)
            np.subtract(z, np.multiply(g, step, out=tmp), out=tmp)
        else:
            step = eta
            np.subtract(x, np.multiply(g, step, out=tmp), out=tmp)
        if on_iterate is None:
            g = None   # freed before the prox's temporaries
        if kind == SVRG:
            x[...] = problem_module.prox_elastic_net(tmp, step, problem.reg)
            z += x
        else:
            z[...] = problem_module.prox_elastic_net(tmp, step, problem.reg)
            x *= keep
            x += np.multiply(z, inv, out=tmp)
        if on_iterate is not None:
            info = {"x": x.copy(), "g": g}
            if kind != SVRG:
                info.update(z=z.copy(), y=y.copy())
            if kind == ACC:
                info["g_bar"] = g_bar.copy()
            on_iterate(k, info)


def _compiled(fn, kind, problem, anchor, weights, idx, eta, x, z, z0, g_bar):
    """The steps in one call of the compiled loop ``fn``, after checking the
    stage's rows and vectors (:func:`handle`)."""
    (m, b), d = idx.shape, problem.d
    kept = handle(problem, idx, (d, np.float64, (x, z, z0, g_bar, anchor.grad)),
                  (problem.n, np.float64, (anchor.derivs, weights)))
    y, by, bx, t = np.empty(d), np.empty(d), np.empty(d), np.empty(b)
    ptr = pointer
    # Every array stays referenced by a local name until the call returns.
    fn(kept, kind, m, b, ptr(idx), ptr(weights), ptr(anchor.derivs), ptr(anchor.grad),
       eta, ptr(x), ptr(z), ptr(z0), ptr(g_bar), ptr(y), ptr(by), ptr(bx), ptr(t))
