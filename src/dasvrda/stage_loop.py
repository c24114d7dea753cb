"""The inner steps of the dense stages, on one of two paths with the same
bits.

:func:`run_stage` runs all ``m`` steps of
:func:`~dasvrda.solvers.one_stage_accsvrda`,
:func:`~dasvrda.solvers.one_stage_dasvrg` or
:func:`~dasvrda.baselines.one_stage_svrg` once the stage function has made
its anchor and drawn its batches.  The stage's labels, importance weights
and anchor terms ``w * anchor.derivs / b`` are gathered once; then

* the compiled loop (``stage_loop.c``) runs every step in one call,
  reading each step's rows straight from the design matrix's CSR arrays
  with the arithmetic of the csr form of :class:`~dasvrda.problem.Rows`;
* the numpy skeleton (:func:`_skeleton`) runs the same steps with numpy
  calls, in-place buffers and :func:`~dasvrda.problem.take_rows`.  It runs
  wherever the loop cannot: a batch of the BLAS dense form
  (:func:`~dasvrda.problem.dense_view`), an ``on_iterate`` hook, no C
  compiler, a failed build, or :data:`COMPILED` off.  It is also the
  loop's test oracle.

The loop is compiled on first use, never at import: the system ``cc``
builds ``stage_loop.c`` with :data:`CFLAGS` into
``$XDG_CACHE_HOME/dasvrda`` (default ``~/.cache/dasvrda``), under a name
keyed by the hash of the source and the flags, and ``ctypes`` loads it.
The build writes a name of its own and renames it into place, so two
processes may build at once.  Any failure leaves the skeleton to run, and
:func:`noting` collects the path each stage took and why, which the trace
header reports as ``loop``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
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
#: The compiled loop's number of each loss.
LOSSES = {Squared: 0, Logistic: 1, SmoothedHinge: 2}

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "stage_loop.c")
#: The C compiler that builds the loop.
CC = "cc"
#: No fused multiply-adds and no fast-math: the loop keeps numpy's bits.
CFLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
#: Seconds the build may take before it is killed.
BUILD_TIMEOUT = 120.0
#: Whether stages may take the compiled loop; off, every stage runs the
#: skeleton.
COMPILED = True

_INT = (np.dtype(np.int32), np.dtype(np.int64))


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
# Building and loading the compiled loop.


def cache_dir() -> str:
    """Where built loops are kept: ``$XDG_CACHE_HOME/dasvrda``, by default
    ``~/.cache/dasvrda``."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(root, "dasvrda")


def _declare(lib: ctypes.CDLL) -> Callable:
    fn = lib.dasvrda_dense_stage
    i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fn.argtypes = ([ctypes.c_int, ctypes.c_int, dbl, i64, i64, i64, ctypes.c_int]
                   + [ptr] * 8 + [dbl] * 3 + [ptr] * 8)
    fn.restype = None
    return fn


def _build() -> Union[Callable, str]:
    """The loaded loop, built first if the cache lacks it, or why not."""
    with open(SOURCE, "rb") as handle:
        source = handle.read()
    key = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()[:16]
    directory = cache_dir()
    lib = os.path.join(directory, f"stage_loop-{key}.so")
    if not os.path.isfile(lib):
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(fd)
        except OSError:
            return "numpy: cache directory not writable"
        try:
            why = _compile(source, tmp)
            if why is None:
                os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        if why is not None:
            return why
    try:
        return _declare(ctypes.CDLL(lib))
    except (OSError, AttributeError):
        return "numpy: cannot load the compiled loop"


def _compile(source: bytes, out: str) -> Optional[str]:
    """Compile ``source`` into the shared library ``out``; why not, if it
    fails.  The compiler runs in a session of its own, which a timeout
    kills whole, and is always waited for."""
    cmd = [CC, *CFLAGS, "-o", out, "-x", "c", "-", "-lm"]
    try:
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
    except OSError:
        return "numpy: no C compiler"
    with proc:
        try:
            proc.communicate(source, timeout=BUILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "numpy: C build timed out"
    return None if proc.returncode == 0 else "numpy: C build failed"


#: The loaded loop, or why it is not loaded; None until first needed.
_loaded: Union[Callable, str, None] = None


def _loop() -> Union[Callable, str]:
    global _loaded
    if _loaded is None:
        _loaded = _build()
    return _loaded


# ---------------------------------------------------------------------------
# Paths.


#: The paths noted by the innermost :func:`noting` block, if any.
_notes: Optional[set] = None


@contextlib.contextmanager
def noting():
    """Collect, in the set it yields, the path that each stage run inside
    the block takes: ``compiled``, or ``numpy: <why>``.  An enclosing block
    gets them too."""
    global _notes
    outer, _notes = _notes, set()
    try:
        yield _notes
    finally:
        if outer is not None:
            outer |= _notes
        _notes = outer


def _path(problem: Problem, b: int, on_iterate) -> Union[Callable, str]:
    """The compiled loop, if a stage of batch ``b`` can take it, or the
    skeleton's reason."""
    mat = problem.data.features
    if on_iterate is not None:
        return "numpy: on_iterate hook"
    if dense_view(mat, b) is not None:
        return "numpy: BLAS dense form"
    if not COMPILED:
        return "numpy: compiled loop off"
    if type(problem.loss) not in LOSSES:
        return f"numpy: no compiled {type(problem.loss).__name__} loss"
    if mat.indptr.dtype != mat.indices.dtype or mat.indices.dtype not in _INT:
        return "numpy: index types not both int32 or int64"
    return _loop()


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
    m, b = idx.shape
    lab = problem.data.labels[idx]
    w = None if scheme.weights is None else scheme.weights[idx]
    dxb = anchor.derivs[idx]
    if w is not None:
        dxb *= w
    dxb /= b
    x = np.array(start, dtype=np.float64)
    z = np.zeros_like(x) if kind == SVRG else x.copy()
    z0 = x.copy() if kind == ACC else None
    g_bar = np.zeros_like(x) if kind == ACC else None
    loop = _path(problem, b, on_iterate)
    if _notes is not None:
        _notes.add(loop if isinstance(loop, str) else "compiled")
    if isinstance(loop, str):
        _skeleton(kind, problem, anchor, idx, lab, w, dxb, eta, x, z, z0, g_bar,
                  on_iterate)
    else:
        _compiled(loop, kind, problem, anchor, idx, lab, w, dxb, eta, x, z, z0, g_bar)
    return x, z


def _skeleton(kind, problem, anchor, idx, lab, w, dxb, eta, x, z, z0, g_bar,
              on_iterate):
    """The steps in numpy, each operation of the compiled loop in its
    order, updating ``x``, ``z`` and ``g_bar`` in place."""
    y, tmp = np.empty_like(x), np.empty_like(x)
    for k in range(1, lab.shape[0] + 1):
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


def _compiled(fn, kind, problem, anchor, idx, lab, w, dxb, eta, x, z, z0, g_bar):
    """The steps in one call of the compiled loop ``fn``, after checking
    every array it reads or writes."""
    mat = problem.data.features
    (n, d), (m, b) = mat.shape, idx.shape
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    if not (indptr.shape == (n + 1,) and indices.shape == data.shape == (mat.nnz,)
            and data.dtype == np.float64 and indptr[0] == 0
            and indptr[-1] == mat.nnz and np.all(indptr[1:] >= indptr[:-1])):
        raise ValueError("the design matrix's CSR arrays are malformed")
    if mat.nnz and not (indices.min() >= 0 and indices.max() < d):
        raise ValueError(f"a stored column is out of range for d={d}")
    if idx.dtype != np.int64 or not (idx.min() >= 0 and idx.max() < n):
        raise ValueError(f"a batch row is not an int64 below n={n}")
    vectors = [x, z, anchor.grad] + [v for v in (z0, g_bar) if v is not None]
    tables = [idx, lab, dxb] + ([] if w is None else [w])
    if (any(v.shape != (d,) for v in vectors) or any(t.shape != (m, b) for t in tables)
            or any(a.dtype != np.float64 for a in vectors + tables[1:])
            or not all(a.flags.c_contiguous for a in vectors + tables
                       + [indptr, indices, data])):
        raise ValueError("a stage array has the wrong shape, type or layout")
    y, by, bx, t = np.empty(d), np.empty(d), np.empty(d), np.empty(b)
    loss = problem.loss
    nu = loss.nu if isinstance(loss, SmoothedHinge) else 0.0

    def ptr(a: Optional[np.ndarray]) -> Optional[int]:
        return None if a is None else a.ctypes.data

    # Every array stays referenced by a local name until the call returns.
    fn(kind, LOSSES[type(loss)], nu, m, b, d, int(indices.dtype == np.int64),
       ptr(indptr), ptr(indices), ptr(data), ptr(idx), ptr(lab), ptr(w), ptr(dxb),
       ptr(anchor.grad), eta, problem.reg.l1, problem.reg.l2, ptr(x), ptr(z),
       ptr(z0), ptr(g_bar), ptr(y), ptr(by), ptr(bx), ptr(t))
