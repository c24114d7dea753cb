"""The stages' two paths: the compiled dense loop against its oracle, the
numpy skeleton, and the compiled lazy stage against its oracle, the numpy
``LazyStage``, bit for bit; numpy wherever the library cannot run; and the
build's failures."""

import ast
import itertools
import os
import shutil
import subprocess
import sys
import time
import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from dasvrda import lazy as lazy_module
from dasvrda import (
    ElasticNet,
    IidUniform,
    LazyStage,
    Logistic,
    RunConfig,
    SmoothedHinge,
    Squared,
    SyntheticSpec,
    generate_synthetic,
    make_anchor,
    make_dataset,
    make_problem,
    lazy_one_stage_accsvrda,
    make_rng,
    one_stage_accsvrda,
    one_stage_dasvrg,
    one_stage_svrg,
    run_experiment,
    save_libsvm,
    smoothness_weighted,
    stage_loop,
)
from test_acceptance import _sparse_logistic_instance

STAGES = {"acc": one_stage_accsvrda, "dasvrg": one_stage_dasvrg, "svrg": one_stage_svrg}
STAGE_KINDS = (stage_loop.ACC, stage_loop.DASVRG, stage_loop.SVRG)
LOSSES = {"squared": Squared(), "logistic": Logistic(), "hinge": SmoothedHinge(0.5)}
REGS = {"l1l2": (1e-2, 1e-2), "l1": (1e-2, 0.0), "l2": (0.0, 1e-2), "none": (0.0, 0.0)}


def sparse_problem(loss, l1=1e-2, l2=1e-2, wide=False, seed=0, n=60, d=30, scale=1.0,
                   density=0.2):
    """A sparse problem with an empty row, its indices int32 or int64."""
    rng = np.random.default_rng(seed)
    mat = np.where(rng.random((n, d)) < density, scale * rng.standard_normal((n, d)),
                   0.0)
    mat[7] = 0.0
    if loss.classification:
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    else:
        labels = rng.standard_normal(n)
    data = make_dataset(sp.csr_matrix(mat), labels)
    if wide:
        feats = data.features
        feats.indices = feats.indices.astype(np.int64)
        feats.indptr = feats.indptr.astype(np.int64)
    return make_problem(data, loss, ElasticNet(l1, l2))


def stage(kind, problem, scheme, eta, compiled, m=40, b=4, seed=0):
    """One stage of ``kind`` from a fixed start and anchor, on one path;
    the stage's output and the path it took."""
    rng = np.random.default_rng(100 + seed)
    start = 0.3 * rng.standard_normal(problem.d)
    anchor = 0.3 * rng.standard_normal(problem.d)
    args = (eta, m, b, scheme, make_rng(seed))
    old = stage_loop.COMPILED
    stage_loop.COMPILED = compiled
    try:
        with stage_loop.noting() as paths:
            if kind == "svrg":
                out = (one_stage_svrg(problem, anchor, *args),)
            else:
                out = STAGES[kind](problem, start, anchor, *args)
    finally:
        stage_loop.COMPILED = old
    return out, paths


def bits(arrays):
    return [a.tobytes() for a in arrays]


def check_paths_agree(kind, loss, weighted, reg, wide):
    """One stage on each path, from the same draws: the same bits."""
    problem = sparse_problem(LOSSES[loss], *REGS[reg], wide=wide)
    scheme = smoothness_weighted(problem) if weighted else IidUniform(problem.n)
    eta = 0.5 / problem.max_smoothness
    fast, fast_paths = stage(kind, problem, scheme, eta, True)
    slow, slow_paths = stage(kind, problem, scheme, eta, False)
    assert fast_paths == {"compiled"}
    assert slow_paths == {"numpy: compiled loop off"}
    assert bits(fast) == bits(slow)
    assert all(np.isfinite(a).all() for a in fast)


@pytest.mark.parametrize("wide", [False, True], ids=["int32", "int64"])
@pytest.mark.parametrize("reg", REGS)
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("kind", STAGES)
def test_loop_matches_the_skeleton_bit_for_bit(compiled_loop, kind, loss, weighted,
                                               reg, wide):
    check_paths_agree(kind, loss, weighted, reg, wide)


def edge_problems():
    """Matrices at the loop's edges, with labels and batches ``(m x b)``
    that take the last row: one column, no stored entry, and one step of
    one row."""
    rng = np.random.default_rng(5)
    n = 12
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    one = np.where(rng.random((n, 1)) < 0.5, rng.standard_normal((n, 1)), 0.0)
    one[n - 1] = 2.0
    yield one, labels, np.array([[n - 1, 0, n - 1], [3, n - 1, 3]])
    yield sp.csr_matrix((n, 4)), labels, np.array([[0, n - 1], [5, 5]])
    yield rng.standard_normal((n, 3)), labels, np.array([[n - 1]])


def edge_datasets():
    """Each edge problem's data with int32 and with int64 indices, and its
    batches."""
    for (mat, labels, idx), wide in itertools.product(edge_problems(), (False, True)):
        data = make_dataset(mat, labels)
        if wide:
            data.features.indices = data.features.indices.astype(np.int64)
            data.features.indptr = data.features.indptr.astype(np.int64)
        yield data, idx


def check_edges():
    """Both paths on every edge problem, stage kind, loss and index width,
    with and without weights: the same bits."""
    for data, idx in edge_datasets():
        mat = data.features
        for loss, kind in itertools.product(LOSSES.values(), STAGE_KINDS):
            problem = make_problem(data, loss, ElasticNet(1e-2, 1e-2))
            for scheme in (IidUniform(problem.n), smoothness_weighted(problem)):
                outs = []
                for compiled in (True, False):
                    with stage_loop.noting() as paths:
                        outs.append(run_stage_on(kind, problem, scheme, idx, compiled))
                    assert paths == ({"compiled"} if compiled
                                     else {"numpy: compiled loop off"})
                assert bits(outs[0]) == bits(outs[1]), (mat.shape, mat.indices.dtype,
                                                        loss, kind)


def run_stage_on(kind, problem, scheme, idx, compiled):
    """:func:`stage_loop.run_stage` on the batches ``idx``, on one path."""
    rng = np.random.default_rng(6)
    anchor = make_anchor(problem, 0.3 * rng.standard_normal(problem.d))
    start = 0.3 * rng.standard_normal(problem.d)
    old = stage_loop.COMPILED
    stage_loop.COMPILED = compiled
    try:
        return stage_loop.run_stage(kind, problem, anchor, scheme, idx, start,
                                    0.5 / problem.max_smoothness)
    finally:
        stage_loop.COMPILED = old


def test_loop_matches_the_skeleton_at_the_edges(compiled_loop):
    check_edges()


# ---------------------------------------------------------------------------
# The lazy stage's two paths.


def finish_lazy(problem, scheme, start, compiled, m=40, b=4, idx=None, eta=None,
                edit=None):
    """A :class:`LazyStage` from ``start`` at a fixed anchor, finished on one
    path, on the batches ``idx`` if given, at the step ``eta`` (default 0.5
    over the largest smoothness), after ``edit(stage)`` if given: its output
    and last-touch state, its ``touched`` and the paths it took."""
    anchor = 0.3 * np.random.default_rng(7).standard_normal(problem.d)
    if idx is not None:
        m, b = idx.shape
    if eta is None:
        eta = 0.5 / problem.max_smoothness
    old = stage_loop.COMPILED
    stage_loop.COMPILED = compiled
    try:
        with stage_loop.noting() as paths:
            run = LazyStage(problem, start, anchor, eta, m, b, scheme, make_rng(0))
            if idx is not None:
                run.idx = idx
            if edit is not None:
                edit(run)
            out = run.finish()
    finally:
        stage_loop.COMPILED = old
    assert run.k == m
    return (*out, run.x_last, run.z_last, run.g_sum, run.k_last), run.touched, paths


def same_bits(got, expect):
    """Equal arrays, bit for bit where they are not NaN."""
    for a, e in zip(got, expect):
        nan = np.isnan(a) if a.dtype.kind == "f" else np.zeros(a.shape, bool)
        assert np.array_equal(nan, np.isnan(e) if e.dtype.kind == "f" else nan)
        assert a[~nan].tobytes() == e[~nan].tobytes()


def check_lazy_paths_agree(problem, scheme, start, **kwargs):
    """A lazy stage on each path: the same bits and ``touched``."""
    fast, fast_touched, fast_paths = finish_lazy(problem, scheme, start, True, **kwargs)
    slow, slow_touched, slow_paths = finish_lazy(problem, scheme, start, False, **kwargs)
    assert fast_paths == {"compiled"}
    assert slow_paths == {"numpy: compiled loop off"}
    same_bits(fast, slow)
    assert fast_touched == slow_touched


def check_lazy_case(loss, weighted, reg, wide, nan):
    """One case of the lazy matrix, on columns that most steps miss, so
    that steps catch them up after a skip; ``nan`` starts from a NaN
    coordinate."""
    problem = sparse_problem(LOSSES[loss], *REGS[reg], wide=wide, d=300, density=0.02)
    scheme = smoothness_weighted(problem) if weighted else IidUniform(problem.n)
    start = np.random.default_rng(8).standard_normal(problem.d)
    if nan:
        start[problem.data.features.indices[0]] = np.nan
    check_lazy_paths_agree(problem, scheme, start)


@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
@pytest.mark.parametrize("wide", [False, True], ids=["int32", "int64"])
@pytest.mark.parametrize("reg", REGS)
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("loss", LOSSES)
def test_lazy_kernel_matches_the_lazy_stage_bit_for_bit(compiled_loop, loss, weighted,
                                                        reg, wide, nan):
    check_lazy_case(loss, weighted, reg, wide, nan)


def check_lazy_edges():
    """Both lazy paths on every edge problem, loss and index width, with
    and without weights, from a finite and from a NaN start."""
    for data, idx in edge_datasets():
        for loss in LOSSES.values():
            problem = make_problem(data, loss, ElasticNet(1e-2, 1e-2))
            start = 0.3 * np.random.default_rng(9).standard_normal(problem.d)
            nan_start = start.copy()
            nan_start[0] = np.nan
            for scheme in (IidUniform(problem.n), smoothness_weighted(problem)):
                check_lazy_paths_agree(problem, scheme, start, idx=idx)
                check_lazy_paths_agree(problem, scheme, nan_start, idx=idx)


def test_lazy_kernel_matches_the_lazy_stage_at_the_edges(compiled_loop):
    check_lazy_edges()


def check_lazy_signed_zero_start():
    """Both lazy paths from a start of -0.0 that a strong threshold holds at
    zero across skipped steps: x comes out +0.0, the sign of the
    catch-ups' zero total."""
    for wide, weighted in itertools.product((False, True), (False, True)):
        problem = sparse_problem(Logistic(), 5.0, 1e-2, wide=wide, d=300, density=0.02)
        scheme = smoothness_weighted(problem) if weighted else IidUniform(problem.n)
        check_lazy_paths_agree(problem, scheme, np.full(problem.d, -0.0))
        (x, *_), _, _ = finish_lazy(problem, scheme, np.full(problem.d, -0.0), True)
        assert np.all(x == 0.0) and not np.signbit(x).any()


def test_lazy_paths_agree_from_a_signed_zero_start(compiled_loop):
    check_lazy_signed_zero_start()


def shortcut_catch_ups(run):
    """``run()``, and how many coordinates the numpy catch-ups it made
    caught up in the case that the compiled catch-up takes as a shortcut:
    never touched, a zero start and gradient sum, and an anchor gradient
    within the l1 threshold."""
    count, general = 0, lazy_module.catch_up

    def counting(x_last, z_last, z0, g_sum, tg, k_last, target, tables, eta, reg):
        nonlocal count
        count += np.count_nonzero((k_last < target) & (k_last == 0) & (z0 == 0.0)
                                  & (g_sum == 0.0) & (np.abs(tg) <= reg.l1))
        return general(x_last, z_last, z0, g_sum, tg, k_last, target, tables, eta, reg)

    lazy_module.catch_up = counting
    try:
        run()
    finally:
        lazy_module.catch_up = general
    return count


def check_lazy_shortcut():
    """Both lazy paths, with the same bits and ``touched``, where the
    compiled catch-up's shortcut serves steps and the sweep: from zero
    starts of both signs, the anchor gradient of some columns at +-0.0, at
    exactly +-l1 and just past it, at l1 = 0 (the shortcut only where the
    gradient is zero), at a zero step and at a step so large that the run
    search's a * a overflows; and with a nonzero gradient sum put on some
    columns before the stage, so that the shortcut's test fails on it
    alone.  The numpy catch-up, which takes no shortcut, is the oracle; the
    cases give it coordinates of the shortcut's kind to catch up."""
    for l1, sign, stale in itertools.product((1e-2, 0.0), (1.0, -1.0), (False, True)):
        problem = sparse_problem(Logistic(), l1, 1e-2, d=300, density=0.02)
        at_l1 = [0.0, -0.0, l1, -l1, np.nextafter(l1, 2.0), -np.nextafter(l1, 2.0)]
        cols = np.flatnonzero(np.arange(problem.d) % 17 == 0)

        def edit(run):
            run.tilde_grad[cols] = np.resize(at_l1, cols.size)
            if stale:
                run.g_sum[cols + 1] = 1e-3

        start = np.full(problem.d, sign * 0.0)
        for eta, scheme in itertools.product(
                (None, 0.0, 1e306), (IidUniform(problem.n), smoothness_weighted(problem))):
            with np.errstate(all="ignore"):   # numpy overflows at the large step
                count = shortcut_catch_ups(lambda: check_lazy_paths_agree(
                    problem, scheme, start, eta=eta, edit=edit))
            assert count > 0, (l1, sign, stale, eta)


def test_lazy_paths_agree_where_the_shortcut_fires(compiled_loop):
    check_lazy_shortcut()


def test_the_lazy_kernel_takes_only_an_unstepped_stage(compiled_loop):
    # A stage that has stepped finishes on numpy, with the bits of a whole
    # compiled run.
    problem = sparse_problem(Logistic())
    args = (problem, np.zeros(problem.d), np.ones(problem.d), 0.1, 12, 3,
            IidUniform(problem.n))
    whole = LazyStage(*args, make_rng(0))
    stepped = LazyStage(*args, make_rng(0))
    stepped.step()
    with stage_loop.noting() as paths:
        expect = whole.finish()
        got = stepped.finish()
    assert paths == {"compiled", "numpy: stage already stepped"}
    assert bits(got) == bits(expect) and stepped.touched == whole.touched


# ---------------------------------------------------------------------------
# The problem handle.


def _reassign(name, change):
    """A break of a fresh problem: its features' array ``name`` replaced by
    ``change`` of a copy."""
    def breaks(problem, idx):
        feats = problem.data.features
        setattr(feats, name, change(getattr(feats, name).copy()))
    return breaks


def _decrease(indptr):
    indptr[5] = indptr[-1]   # above indptr[6]: row 5 ends before it starts
    return indptr


def _past_d(indices):
    indices[0] = 30   # d
    return indices


def _row_n(problem, idx):
    idx[1, 2] = problem.n


#: What each rejected case breaks, and the error it raises.
REJECTIONS = {
    "decreasing-indptr": (_reassign("indptr", _decrease), "CSR arrays are malformed"),
    "column-past-d": (_reassign("indices", _past_d), "stored column is out of range"),
    "unequal-lengths": (_reassign("data", lambda data: data[:-1]),
                        "CSR arrays are malformed"),
    "float32-data": (_reassign("data", lambda data: data.astype(np.float32)),
                     "CSR arrays are malformed"),
    "row-past-n": (_row_n, "batch rows are not contiguous int64s below n=60"),
}


def rejected_run(kernel, case):
    """A stage on ``kernel`` (``"dense"`` or ``"lazy"``) whose problem or
    batch has the break ``case`` of :data:`REJECTIONS`, made after the
    anchor's full pass and the draws and before the stage's call."""
    breaks, _ = REJECTIONS[case]
    problem = sparse_problem(Logistic())
    scheme = IidUniform(problem.n)
    start = np.zeros(problem.d)
    if kernel == "lazy":
        run = LazyStage(problem, start, start, 0.1, 12, 3, scheme, make_rng(0))
        breaks(problem, run.idx)
        return run.finish
    anchor = make_anchor(problem, start)
    idx = make_rng(0).integers(problem.n, size=(12, 3))
    breaks(problem, idx)
    return lambda: stage_loop.run_stage(stage_loop.ACC, problem, anchor, scheme, idx,
                                        start, 0.1)


def check_handle_rejections():
    """Every case of :data:`REJECTIONS` raises its error on both stage
    kernels, and neither kernel is called."""
    real = stage_loop._library()
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn)
            return fn(*args)
        return call

    stage_loop._loaded = types.SimpleNamespace(
        dasvrda_dense_stage=counted(real.dasvrda_dense_stage),
        dasvrda_lazy_stage=counted(real.dasvrda_lazy_stage))
    try:
        for kernel, case in itertools.product(("dense", "lazy"), REJECTIONS):
            run = rejected_run(kernel, case)
            with stage_loop.noting() as paths, pytest.raises(
                    ValueError, match=REJECTIONS[case][1]):
                run()
            assert paths == {"compiled"}, (kernel, case)
    finally:
        stage_loop._loaded = real
    assert not calls


def test_the_handle_rejects_a_malformed_problem_before_any_call(compiled_loop):
    check_handle_rejections()


def test_a_handled_problems_arrays_are_read_only(compiled_loop):
    problem = sparse_problem(Logistic())
    feats = problem.data.features
    feats.data[0] = feats.data[0]   # writable until a stage takes a kernel
    stage("acc", problem, IidUniform(problem.n), 0.1, True)
    for array in (feats.indptr, feats.indices, feats.data, problem.data.labels):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


@pytest.mark.parametrize("kernel", ["dense", "lazy"])
def test_a_reassigned_array_gets_a_new_handle(compiled_loop, kernel):
    # Each column moves to the next, after a compiled stage and in a twin
    # that never ran one: the next stage takes a new handle, and has the
    # bits of the twin's oracle stage.
    problem, twin = sparse_problem(Logistic()), sparse_problem(Logistic())
    scheme = IidUniform(problem.n)
    eta = 0.5 / problem.max_smoothness
    start = np.random.default_rng(1).standard_normal(problem.d)

    def run(on, compiled):
        if kernel == "dense":
            return stage("acc", on, scheme, eta, compiled)[0]
        return finish_lazy(on, scheme, start, compiled)[0]

    before = run(problem, True)
    kept = problem.handle
    assert bits(run(problem, True)) == bits(before) and problem.handle is kept
    for on in (problem, twin):
        feats = on.data.features
        feats.indices = (feats.indices + 1) % on.d
    after = run(problem, True)
    assert problem.handle is not kept
    assert problem.handle.arrays[1] is problem.data.features.indices
    assert bits(after) == bits(run(twin, False)) != bits(before)


#: Flags added to :data:`stage_loop.CFLAGS` for the sanitized build.
SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")

#: Run by the sanitized child: every equality case, then the edges, the
#: handle's rejections and the parser's cases.
SANITIZED_RUN = """\
import itertools, sys
sys.path[:0] = sys.argv[1:]
import test_data_io as parser_cases
import test_stage_loop as cases
from dasvrda import stage_loop
stage_loop.CFLAGS += cases.SANITIZE
kernels = stage_loop._library()
assert not isinstance(kernels, str), kernels
for case in itertools.product(cases.STAGES, cases.LOSSES, (False, True), cases.REGS,
                              (False, True)):
    cases.check_paths_agree(*case)
cases.check_edges()
for case in itertools.product(cases.LOSSES, (False, True), cases.REGS, (False, True),
                              (False, True)):
    cases.check_lazy_case(*case)
cases.check_lazy_edges()
cases.check_lazy_signed_zero_start()
cases.check_lazy_shortcut()
cases.check_handle_rejections()
parser_cases.check_parser_cases()
print("sanitized cases passed")
"""


def runtime(name):
    """The path of the compiler's runtime library ``name``, or None."""
    try:
        found = subprocess.run([stage_loop.CC, f"-print-file-name={name}"],
                               capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    path = found.stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


def test_loop_is_clean_under_address_and_undefined_sanitizers(tmp_path):
    # The stage kernels read every row through unchecked pointers, and the
    # parser reads a file's bytes; built with both sanitizers, an
    # out-of-bounds access or undefined operation in any of the equality
    # cases aborts the child.  Python's own allocator is off there, so each
    # buffer is a heap block of its own.
    if shutil.which(stage_loop.CC) is None:
        pytest.skip(f"no C compiler {stage_loop.CC!r}")
    asan, ubsan = runtime("libasan.so"), runtime("libubsan.so")
    if asan is None or ubsan is None:
        pytest.skip("no sanitizer runtime")
    env = dict(os.environ, LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0",
               PYTHONMALLOC="malloc", XDG_CACHE_HOME=str(tmp_path))
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(stage_loop.__file__)))
    child = subprocess.run([sys.executable, "-c", SANITIZED_RUN, tests, src], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-4000:]
    assert "sanitized cases passed" in child.stdout
    built = os.listdir(tmp_path / "dasvrda")
    assert len(built) == 1 and built[0].startswith("kernels-")


def test_the_bitwise_cases_hold_signed_zeros(compiled_loop):
    # Where the soft threshold zeroes a negative coordinate, the prox
    # gives -0.0: the comparison above sees the sign of zeros.
    problem = sparse_problem(Squared(), 1e-1, 1e-2)
    (x, z), _ = stage("acc", problem, IidUniform(problem.n),
                      0.5 / problem.max_smoothness, True)
    assert np.any((z == 0) & np.signbit(z))


def test_loop_matches_the_skeleton_on_acceptance_05_instances(compiled_loop):
    for trial in range(50):
        problem = _sparse_logistic_instance(1000 + trial)
        b = (1, 4, 16)[trial % 3]
        scheme = IidUniform(problem.n) if trial % 2 else smoothness_weighted(problem)
        eta = 0.5 / problem.max_smoothness
        fast, _ = stage("acc", problem, scheme, eta, True, m=500, b=b, seed=trial)
        slow, _ = stage("acc", problem, scheme, eta, False, m=500, b=b, seed=trial)
        assert bits(fast) == bits(slow), trial


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("kind", STAGES)
def test_paths_agree_on_an_overflowing_step(compiled_loop, kind, loss, weighted):
    problem = sparse_problem(LOSSES[loss], scale=100.0)
    scheme = smoothness_weighted(problem) if weighted else IidUniform(problem.n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the loop raises no overflow warning
        fast, _ = stage(kind, problem, scheme, 1e308, True)
    with np.errstate(all="ignore"):
        slow, _ = stage(kind, problem, scheme, 1e308, False)
    finite = [[bool(np.isfinite(a).all()) for a in out] for out in (fast, slow)]
    assert finite[0] == finite[1] and not finite[0][0]


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "skeleton"])
@pytest.mark.parametrize("kind", STAGES)
def test_both_paths_reject_a_negative_step(compiled_loop, kind, compiled):
    problem = sparse_problem(Logistic())
    with pytest.raises(ValueError, match="step size must be nonnegative"):
        stage(kind, problem, IidUniform(problem.n), -0.5, compiled)


@pytest.mark.parametrize("reg", ["l1l2", "l1", "l2"])
def test_the_lazy_stage_takes_the_dense_stages_step_rule(reg):
    # A negative step raises the dense stages' error; a zero step gives the
    # dense stage's output, with no warning.
    problem = sparse_problem(Logistic(), *REGS[reg])
    rng = np.random.default_rng(1)
    start, anchor = rng.standard_normal((2, problem.d))
    scheme = IidUniform(problem.n)
    with pytest.raises(ValueError, match="step size must be nonnegative"):
        lazy_one_stage_accsvrda(problem, start, anchor, -0.5, 40, 4, scheme,
                                make_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lazy = lazy_one_stage_accsvrda(problem, start, anchor, 0.0, 40, 4, scheme,
                                       make_rng(0))
        dense = one_stage_accsvrda(problem, start, anchor, 0.0, 40, 4, scheme,
                                   make_rng(0))
    for a, b in zip(lazy, dense):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


def test_hooks_and_the_blas_form_run_the_skeleton(compiled_loop):
    problem = sparse_problem(Squared())
    scheme = IidUniform(problem.n)
    with stage_loop.noting() as paths:
        one_stage_accsvrda(problem, np.zeros(30), np.zeros(30), 0.01, 3, 2, scheme,
                           make_rng(0), on_iterate=lambda k, info: None)
    assert paths == {"numpy: on_iterate hook"}
    rng = np.random.default_rng(0)
    stored = make_problem(make_dataset(rng.standard_normal((200, 50)),
                                       rng.standard_normal(200)),
                          Squared(), ElasticNet(1e-3, 0.0))
    with stage_loop.noting() as paths:
        one_stage_svrg(stored, np.zeros(50), 0.01, 3, 130, IidUniform(200), make_rng(0))
    assert paths == {"numpy: BLAS dense form"}


# ---------------------------------------------------------------------------
# Runs, and the build's failures.


def sparse_config(**overrides):
    spec = SyntheticSpec(kind="ridge-logistic", n=120, d=40, density=0.2, seed=3)
    return RunConfig(**{**dict(algo="dasvrda-sc", loss="logistic", l1=1e-3, l2=1e-3,
                               synthetic=spec, batch=4, lazy="off", stages=3,
                               restarts=2), **overrides})


def outcome(result):
    return ([r.objective for r in result.records], result.x.tobytes(),
            result.diverged)


def unbuilt(monkeypatch, cache):
    """No loop loaded, and the cache moved to ``cache``."""
    monkeypatch.setattr(stage_loop, "_loaded", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))


def test_runs_report_their_loop(compiled_loop, monkeypatch):
    assert run_experiment(sparse_config()).header["loop"] == "compiled"
    assert run_experiment(sparse_config(lazy="on")).header["loop"] == "compiled"
    assert (run_experiment(sparse_config(algo="pg", stages=2, restarts=None))
            .header["loop"] == "none: no stage ran")
    monkeypatch.setattr(stage_loop, "COMPILED", False)
    assert (run_experiment(sparse_config(lazy="on")).header["loop"]
            == "numpy: compiled loop off")


def test_file_runs_name_a_loader_not_compiled(compiled_loop, monkeypatch, tmp_path):
    # The second file holds the same rows with a no-break space, which the
    # loop takes as a separator and the compiled parser stops on.
    data, _ = generate_synthetic(sparse_config().synthetic)
    plain, exotic = tmp_path / "plain.svm", tmp_path / "exotic.svm"
    save_libsvm(data, str(plain))
    exotic.write_text(plain.read_text().replace(" ", "\u00a0", 1), encoding="utf-8")
    runs = {}
    for path in (plain, exotic):
        runs[path] = run_experiment(sparse_config(synthetic=None, data_path=str(path)))
    assert runs[plain].header["loop"] == "compiled"
    assert runs[exotic].header["loop"] == (
        "compiled; python loader: line 1 outside the compiled grammar")
    assert outcome(runs[plain]) == outcome(runs[exotic])
    pg = run_experiment(sparse_config(synthetic=None, data_path=str(exotic), algo="pg",
                                      stages=2, restarts=None))
    assert pg.header["loop"] == (
        "none: no stage ran; python loader: line 1 outside the compiled grammar")
    monkeypatch.setattr(stage_loop, "COMPILED", False)
    off = run_experiment(sparse_config(synthetic=None, data_path=str(plain)))
    assert off.header["loop"] == "numpy: compiled loop off"
    assert outcome(off) == outcome(runs[plain])


def test_a_missing_compiler_runs_the_skeleton_with_the_same_bits(compiled_loop,
                                                                 monkeypatch, tmp_path):
    compiled = run_experiment(sparse_config(algo="svrg", restarts=None))
    unbuilt(monkeypatch, tmp_path)
    monkeypatch.setattr(stage_loop, "CC", os.path.join(os.sep, "no", "such", "cc"))
    fallback = run_experiment(sparse_config(algo="svrg", restarts=None))
    assert fallback.header["loop"] == "numpy: no C compiler"
    assert outcome(fallback) == outcome(compiled)


def test_an_unwritable_cache_runs_the_skeleton_with_the_same_bits(compiled_loop,
                                                                  monkeypatch, tmp_path):
    compiled = run_experiment(sparse_config())
    blocked = tmp_path / "file"
    blocked.write_text("")   # the cache directory would sit under a file
    unbuilt(monkeypatch, blocked)
    fallback = run_experiment(sparse_config())
    assert fallback.header["loop"] == "numpy: cache directory not writable"
    assert outcome(fallback) == outcome(compiled)


def test_a_build_builds_into_the_cache_once(compiled_loop, monkeypatch, tmp_path):
    unbuilt(monkeypatch, tmp_path)
    assert not isinstance(stage_loop._library(), str)
    built = os.listdir(tmp_path / "dasvrda")
    assert len(built) == 1 and built[0].startswith("kernels-")
    monkeypatch.setattr(stage_loop, "_loaded", None)
    monkeypatch.setattr(stage_loop, "CC", os.path.join(os.sep, "no", "such", "cc"))
    assert not isinstance(stage_loop._library(), str)   # loaded from the cache


def test_a_build_removes_the_caches_older_builds(compiled_loop, monkeypatch, tmp_path):
    # Of two other builds the older goes and the newer stays, so that two
    # checkouts run in turn each keep theirs.  Only another build's name
    # goes: not a temporary of a build under way, an older library's name,
    # or anything else.
    cache = tmp_path / "dasvrda"
    cache.mkdir()
    older, newer = "kernels-0123456789abcdef.so", "kernels-fedcba9876543210.so"
    others = ["tmpk2j4_x9q.so", "stage_loop-79a19158a36097d7.so", "notes.txt",
              "kernels-0123.so", "kernels-0123456789ABCDEF.so"]
    for name in [older, newer, *others]:
        (cache / name).write_text("")
    os.utime(cache / older, (1_000_000, 1_000_000))   # older than every other file
    unbuilt(monkeypatch, tmp_path)
    assert not isinstance(stage_loop._library(), str)
    built = sorted(set(os.listdir(cache)) - {newer, *others})
    assert len(built) == 1 and built[0] != older
    assert sorted(os.listdir(cache)) == sorted([*built, newer, *others])
    # A library loaded from the cache removes nothing.
    (cache / older).write_text("")
    monkeypatch.setattr(stage_loop, "_loaded", None)
    assert not isinstance(stage_loop._library(), str)
    assert {older, newer} <= set(os.listdir(cache))


def test_every_c_source_ships_with_the_package():
    # An installed package without one of them would fail its build and run
    # numpy.
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "pyproject.toml")) as handle:
        lines = handle.read().split("[tool.setuptools.package-data]", 1)[1].splitlines()
    listed = ast.literal_eval(next(line for line in lines if line.startswith("dasvrda"))
                              .split("=", 1)[1].strip())
    assert "stage_loop.c" in stage_loop.sources()
    assert sorted(listed) == stage_loop.sources()


def test_a_hung_compiler_is_killed(monkeypatch, tmp_path):
    unbuilt(monkeypatch, tmp_path)
    slow = tmp_path / "slow-cc"
    slow.write_text("#!/bin/sh\nsleep 60\n")
    slow.chmod(0o755)
    monkeypatch.setattr(stage_loop, "CC", str(slow))
    monkeypatch.setattr(stage_loop, "BUILD_TIMEOUT", 0.5)
    started = time.perf_counter()
    assert stage_loop._library() == "numpy: C build timed out"
    assert time.perf_counter() - started < 10
    assert os.listdir(tmp_path / "dasvrda") == []


def test_a_failed_build_runs_the_skeleton(monkeypatch, tmp_path):
    unbuilt(monkeypatch, tmp_path)
    monkeypatch.setattr(stage_loop, "CC", "false")
    assert stage_loop._library() == "numpy: C build failed"
    assert os.listdir(tmp_path / "dasvrda") == []
