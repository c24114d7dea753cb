"""The dense stages' two paths: the compiled loop against its oracle, the
numpy skeleton, bit for bit; the skeleton wherever the loop cannot run;
and the build's failures."""

import itertools
import os
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from dasvrda import (
    ElasticNet,
    IidUniform,
    Logistic,
    RunConfig,
    SmoothedHinge,
    Squared,
    SyntheticSpec,
    make_anchor,
    make_dataset,
    make_problem,
    make_rng,
    one_stage_accsvrda,
    one_stage_dasvrg,
    one_stage_svrg,
    run_experiment,
    smoothness_weighted,
    stage_loop,
)
from test_acceptance import _sparse_logistic_instance

STAGES = {"acc": one_stage_accsvrda, "dasvrg": one_stage_dasvrg, "svrg": one_stage_svrg}
STAGE_KINDS = (stage_loop.ACC, stage_loop.DASVRG, stage_loop.SVRG)
LOSSES = {"squared": Squared(), "logistic": Logistic(), "hinge": SmoothedHinge(0.5)}
REGS = {"l1l2": (1e-2, 1e-2), "l1": (1e-2, 0.0), "l2": (0.0, 1e-2), "none": (0.0, 0.0)}


def sparse_problem(loss, l1=1e-2, l2=1e-2, wide=False, seed=0, n=60, d=30, scale=1.0):
    """A sparse problem with an empty row, its indices int32 or int64."""
    rng = np.random.default_rng(seed)
    mat = np.where(rng.random((n, d)) < 0.2, scale * rng.standard_normal((n, d)), 0.0)
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


def check_edges():
    """Both paths on every edge problem, stage kind, loss and index width,
    with and without weights: the same bits."""
    for (mat, labels, idx), wide in itertools.product(edge_problems(), (False, True)):
        data = make_dataset(mat, labels)
        if wide:
            data.features.indices = data.features.indices.astype(np.int64)
            data.features.indptr = data.features.indptr.astype(np.int64)
        for loss, kind in itertools.product(LOSSES.values(), STAGE_KINDS):
            problem = make_problem(data, loss, ElasticNet(1e-2, 1e-2))
            for scheme in (IidUniform(problem.n), smoothness_weighted(problem)):
                outs = []
                for compiled in (True, False):
                    with stage_loop.noting() as paths:
                        outs.append(run_stage_on(kind, problem, scheme, idx, compiled))
                    assert paths == ({"compiled"} if compiled
                                     else {"numpy: compiled loop off"})
                assert bits(outs[0]) == bits(outs[1]), (mat.shape, loss, kind, wide)


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


#: Flags added to :data:`stage_loop.CFLAGS` for the sanitized build.
SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")

#: Run by the sanitized child: every equality case, then the edges.
SANITIZED_RUN = """\
import itertools, sys
sys.path[:0] = sys.argv[1:]
import test_stage_loop as cases
from dasvrda import stage_loop
stage_loop.CFLAGS += cases.SANITIZE
loop = stage_loop._loop()
assert not isinstance(loop, str), loop
for case in itertools.product(cases.STAGES, cases.LOSSES, (False, True), cases.REGS,
                              (False, True)):
    cases.check_paths_agree(*case)
cases.check_edges()
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
    # The loop reads every row through unchecked pointers; built with both
    # sanitizers, an out-of-bounds access or undefined operation in any of
    # the equality cases aborts the child.
    if shutil.which(stage_loop.CC) is None:
        pytest.skip(f"no C compiler {stage_loop.CC!r}")
    asan, ubsan = runtime("libasan.so"), runtime("libubsan.so")
    if asan is None or ubsan is None:
        pytest.skip("no sanitizer runtime")
    env = dict(os.environ, LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0",
               XDG_CACHE_HOME=str(tmp_path))
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(stage_loop.__file__)))
    child = subprocess.run([sys.executable, "-c", SANITIZED_RUN, tests, src], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-4000:]
    assert "sanitized cases passed" in child.stdout
    built = os.listdir(tmp_path / "dasvrda")
    assert len(built) == 1 and built[0].startswith("stage_loop-")


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


def test_runs_report_their_loop(compiled_loop):
    assert run_experiment(sparse_config()).header["loop"] == "compiled"
    assert (run_experiment(sparse_config(lazy="on")).header["loop"]
            == "none: lazy engine")
    assert (run_experiment(sparse_config(algo="pg", stages=2, restarts=None))
            .header["loop"] == "none: no dense stage ran")


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
    assert not isinstance(stage_loop._loop(), str)
    built = os.listdir(tmp_path / "dasvrda")
    assert len(built) == 1 and built[0].startswith("stage_loop-")
    monkeypatch.setattr(stage_loop, "_loaded", None)
    monkeypatch.setattr(stage_loop, "CC", os.path.join(os.sep, "no", "such", "cc"))
    assert not isinstance(stage_loop._loop(), str)   # loaded from the cache


def test_a_hung_compiler_is_killed(monkeypatch, tmp_path):
    unbuilt(monkeypatch, tmp_path)
    slow = tmp_path / "slow-cc"
    slow.write_text("#!/bin/sh\nsleep 60\n")
    slow.chmod(0o755)
    monkeypatch.setattr(stage_loop, "CC", str(slow))
    monkeypatch.setattr(stage_loop, "BUILD_TIMEOUT", 0.5)
    started = time.perf_counter()
    assert stage_loop._loop() == "numpy: C build timed out"
    assert time.perf_counter() - started < 10
    assert os.listdir(tmp_path / "dasvrda") == []


def test_a_failed_build_runs_the_skeleton(monkeypatch, tmp_path):
    unbuilt(monkeypatch, tmp_path)
    monkeypatch.setattr(stage_loop, "CC", "false")
    assert stage_loop._loop() == "numpy: C build failed"
    assert os.listdir(tmp_path / "dasvrda") == []
