import dataclasses
import gzip
import json
import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dasvrda import (
    ConfigError,
    RunConfig,
    SyntheticSpec,
    learning_rate_grid,
    make_dataset,
    read_trace,
    run_experiment,
    save_libsvm,
)
from dasvrda import harness, stage_loop
from dasvrda.cli import _build_parser, _config, main
from dasvrda.harness import (
    ALGORITHMS,
    parse_loss,
    parse_synthetic,
    resolve,
)
from dasvrda.losses import Logistic, SmoothedHinge, Squared
from dasvrda.problem import ElasticNet, make_problem
from dasvrda.sampling import make_rng
from dasvrda.lazy import lazy_one_stage_accsvrda
from dasvrda.solvers import (eta_default, gamma_star, one_stage_accsvrda,
                             run_dasvrda_warm)


def lasso_config(**overrides):
    base = dict(
        algo="dasvrda-ns",
        loss="squared",
        l1=1e-3,
        synthetic=SyntheticSpec(kind="lasso", n=60, d=20, sparsity=5, seed=0),
        stages=5,
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# Config parsing.


def test_parse_loss():
    assert isinstance(parse_loss("squared"), Squared)
    assert isinstance(parse_loss("logistic"), Logistic)
    hinge = parse_loss("smoothed-hinge:0.5")
    assert isinstance(hinge, SmoothedHinge) and hinge.nu == 0.5
    with pytest.raises(ConfigError):
        parse_loss("hinge")
    with pytest.raises(ConfigError):
        parse_loss("smoothed-hinge")
    with pytest.raises(ConfigError):
        parse_loss("smoothed-hinge:zero")
    with pytest.raises(ConfigError):
        parse_loss("smoothed-hinge:-1")


@pytest.mark.parametrize("text", ["smoothed-hinge:inf", "smoothed-hinge:nan",
                                  "smoothed-hinge:", "smoothed-hingeX:0.5"])
def test_parse_loss_rejects_a_width_or_name_it_cannot_use(text):
    with pytest.raises(ConfigError):
        parse_loss(text)


def test_parse_synthetic():
    spec = parse_synthetic("lasso:n=200,d=50,density=0.3,noise=0.2,sparsity=4,seed=9")
    assert spec == SyntheticSpec(kind="lasso", n=200, d=50, density=0.3,
                                 noise=0.2, sparsity=4, seed=9)
    assert parse_synthetic("ridge-logistic:n=10,d=25").kind == "ridge-logistic"
    with pytest.raises(ConfigError, match="sparsity"):
        parse_synthetic("ridge-logistic:n=10,d=5")  # default sparsity 10 > d
    with pytest.raises(ConfigError):
        parse_synthetic("lasso:n=10")          # missing d
    with pytest.raises(ConfigError, match="unknown synthetic parameter 'rho'"):
        parse_synthetic("lasso:n=10,d=5,rho=1")
    with pytest.raises(ConfigError):
        parse_synthetic("lasso:n=ten,d=5")
    with pytest.raises(ConfigError):
        parse_synthetic("lasso:n=10,d")
    with pytest.raises(ConfigError):
        parse_synthetic("poisson:n=10,d=5")


# ---------------------------------------------------------------------------
# Resolution defaults.


def test_resolve_defaults_for_dasvrda():
    run = resolve(lasso_config())
    n = run.problem.n
    assert run.m == n  # batch 1 -> one pass per stage
    assert run.gamma == gamma_star(run.m, 1)
    lbar = run.problem.mean_smoothness
    assert run.eta == pytest.approx(
        1.0 / ((1.0 + run.gamma * (run.m + 1)) * lbar), rel=1e-15
    )
    assert run.stages == 5 and run.restarts == 1
    assert run.header["lipschitz"] == "mean"
    assert run.header["sampling"] == "uniform"


def test_resolve_epoch_and_batch_defaults():
    assert resolve(lasso_config(batch=7)).m == 60 // 7
    assert resolve(lasso_config(algo="svrg", batch=1)).m == 120
    assert resolve(lasso_config(epoch_len=13)).m == 13
    # The warm-start header reports the loop length of its momentum phase,
    # grown from m0 = 1 over the schedule [3, 7, 13, 24, 43, 76, 133, 232].
    warm = resolve(lasso_config(algo="dasvrda-warm"))
    assert warm.m == 60 and warm.header["epoch_len"] == 349


def test_resolve_partition_switches_to_max_smoothness():
    run = resolve(lasso_config(sampling="partition", batch=6))
    assert run.header["lipschitz"] == "max"
    lmax = run.problem.max_smoothness
    assert run.eta == pytest.approx(
        1.0 / ((1.0 + run.gamma * (run.m + 1) / 6) * lmax), rel=1e-15
    )
    override = resolve(lasso_config(sampling="partition", batch=6,
                                    lipschitz="mean"))
    assert override.header["lipschitz"] == "mean"


def test_resolve_sc_stage_count_from_l2():
    run = resolve(lasso_config(algo="dasvrda-sc", l2=0.05, stages=None,
                               budget=10_000))
    from dasvrda.solvers import choose_S_for_rho

    assert run.stages == choose_S_for_rho(run.gamma, run.eta, run.m, 0.05, 0.5)
    assert run.restarts >= 10**8  # unbounded; the budget stops the run
    with pytest.raises(ConfigError, match="dasvrda-sc needs --stages"):
        resolve(lasso_config(algo="dasvrda-sc", stages=None, budget=1000))


def highd_config(tmp_path, d=100_000, k=5, **overrides):
    """An svmlight problem with n=200, ``d`` columns and ``k`` nonzeros per
    row."""
    rng = np.random.default_rng(0)
    n = 200
    cols = np.stack([np.sort(rng.choice(d, k, replace=False)) for _ in range(n)])
    feats = sp.csr_matrix(
        (rng.standard_normal(n * k), cols.ravel(), np.arange(0, n * k + 1, k)),
        shape=(n, d),
    )
    path = str(tmp_path / f"highd-{d}-{k}.svm")
    save_libsvm(make_dataset(feats, rng.standard_normal(n)), path)
    base = dict(data_path=path, synthetic=None, dim=d, batch=4, stages=1)
    base.update(overrides)
    return lasso_config(**base)


def test_resolve_lazy_rule(tmp_path):
    # Lazy iff d > 250 + 18 columns + 3.8 d / loop (harness.LAZY_STEP): a
    # lazy step's fixed cost, the columns its batch hits, its share of the
    # sweep.
    assert harness.LAZY_STEP == (250.0, 18.0, 3.8)
    assert not resolve(lasso_config()).use_lazy            # d=20, dense data
    small_sparse = SyntheticSpec(kind="lasso", n=80, d=40, density=0.1, seed=0)
    assert not resolve(lasso_config(synthetic=small_sparse)).use_lazy
    assert resolve(highd_config(tmp_path)).use_lazy        # ~20 of 100000 per step
    assert not resolve(highd_config(tmp_path, l1=0.0)).use_lazy  # no regularization
    assert not resolve(highd_config(tmp_path, lazy="off")).use_lazy
    assert not resolve(highd_config(tmp_path, algo="svrg")).use_lazy
    assert resolve(lasso_config(lazy="on")).use_lazy
    with pytest.raises(ConfigError, match="svrg cannot use the lazy stage"):
        resolve(lasso_config(algo="svrg", lazy="on", synthetic=small_sparse))
    # The fixed cost: one entry per batch and a long loop add 17.97 to it.
    tiny_step = dict(k=1, batch=1, epoch_len=10**6)
    assert not resolve(highd_config(tmp_path, d=267, **tiny_step)).use_lazy
    assert resolve(highd_config(tmp_path, d=268, **tiny_step)).use_lazy
    # The columns: d/columns just under 18 d / (d - 257.6) = 18.235 at b = 29.
    wide = dict(d=20_000, k=40, epoch_len=10_000)
    assert not resolve(highd_config(tmp_path, batch=29, **wide)).use_lazy  # 17.746
    assert resolve(highd_config(tmp_path, batch=28, **wide)).use_lazy      # 18.362
    # The sweep: 3.8 d / 3 alone is more than d; 3.8 d / 4 leaves room for
    # the rest.
    assert not resolve(highd_config(tmp_path, epoch_len=3)).use_lazy
    assert resolve(highd_config(tmp_path, epoch_len=4)).use_lazy
    # A warm start reads the momentum loop it runs, not the configured m:
    # at m = 3 the sweep alone costs 126667, at its loop of 11, 34545.
    warm = resolve(highd_config(tmp_path, algo="dasvrda-warm", epoch_len=3))
    assert warm.m == 3 and warm.header["epoch_len"] == 11 and warm.use_lazy
    assert warm.header["lazy_reason"] == (
        "auto: a lazy step costs 35155 dense coordinate updates, d=100000 -> lazy")


TIMINGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "engine_timings.json")


def test_auto_engine_rule_holds_on_committed_timings():
    # One-stage timings of both engines, from `tools/fit_engine.py engine
    # --save`: at each point the rule picks the faster engine, or one at
    # most 1.2x slower.  Times nothing.
    with open(TIMINGS) as handle:
        points = json.load(handle)
    assert len(points) == 55
    for p in points:
        lazy = harness.lazy_step_cost(p["d"], p["b"] * p["row_nnz"], p["m"]) < p["d"]
        picked = p["lazy_us"] if lazy else p["dense_us"]
        assert picked <= 1.2 * min(p["lazy_us"], p["dense_us"]), p


def test_header_records_engine_reason(tmp_path):
    cases = [
        (highd_config(tmp_path),
         "auto: a lazy step costs 8210 dense coordinate updates, d=100000 -> lazy"),
        (lasso_config(),
         "auto: a lazy step costs 479 dense coordinate updates, d=20 -> dense"),
        (highd_config(tmp_path, l1=0.0), "auto: no elastic-net term -> dense"),
        (highd_config(tmp_path, algo="apg"), "auto: apg has no lazy stage -> dense"),
        (lasso_config(lazy="off"), "off"),
        (lasso_config(lazy="on"), "on"),
    ]
    for config, reason in cases:
        header = resolve(config).header
        assert header["lazy_reason"] == reason
        assert header["lazy"] == reason.endswith(("lazy", "on"))
    # The reason is part of the trace header and repeats exactly.
    headers = []
    for name in ("a.csv", "b.csv"):
        path = str(tmp_path / name)
        run_experiment(highd_config(tmp_path, trace_path=path))
        headers.append(read_trace(path)[0])
    assert headers[0] == headers[1]
    assert headers[0]["lazy_reason"] == cases[0][1]


def test_header_names_the_form_of_the_full_pass():
    def header(**spec):
        synthetic = SyntheticSpec(kind="lasso", sparsity=5, seed=0, **spec)
        return resolve(lasso_config(synthetic=synthetic)).header["products"]

    assert header(n=60, d=20) == "csr: 1200 of 60x20 entries stored, <= 6000"
    assert header(n=200, d=50) == "dense: 10000 of 200x50 entries stored, > 6000"
    assert header(n=200, d=50) == header(n=200, d=50)
    text = header(n=400, d=50, density=0.5)
    assert text.startswith("csr: ")
    assert text.endswith(" of 400x50 entries stored, > 6000 but not all")


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        (dict(algo="sgd"), "unknown algorithm"),
        (dict(sampling="poisson"), "unknown sampling"),
        (dict(lazy="maybe"), "lazy must be"),
        (dict(l1=-1.0), "nonnegative"),
        (dict(stages=None), "budget or an explicit stage count"),
        (dict(budget=0), "budget must be positive"),
        (dict(batch=61), "batch size"),
        (dict(epoch_len=0), "epoch length"),
        (dict(eta=-0.5), "step size"),
        (dict(stages=0), "stage count"),
        (dict(restarts=2), "--restarts only applies"),
        (dict(loss="logistic"), "labels in {-1,+1}"),
        (dict(data_path="x.txt"), "exactly one of"),
        (dict(synthetic=None), "exactly one of"),
        (dict(warm_m0=3), "--warm-m0/--warm-stages only apply to dasvrda-warm"),
        (dict(algo="pg", warm_stages=2),
         "--warm-m0/--warm-stages only apply to dasvrda-warm"),
        (dict(dim=100), "--dim only applies to --data"),
        # Appended, so the cases above keep their ids.
        (dict(l1=float("nan")), "finite and nonnegative"),
        (dict(l1=float("inf")), "finite and nonnegative"),
        (dict(l2=float("nan")), "finite and nonnegative"),
        (dict(eta=float("nan")), "step size must be finite"),
        (dict(eta=float("inf")), "step size must be finite"),
        (dict(gamma=float("nan")), "momentum parameter must be finite"),
        (dict(gamma=float("inf")), "momentum parameter must be finite"),
        (dict(seed=-1), "seed must be nonnegative, got -1"),
        # Rejected before the (missing) file is read.
        (dict(synthetic=None, data_path="/no/such/file.txt", dim=-1),
         "dim must be nonnegative, got -1"),
    ],
)
def test_resolve_rejects_bad_configs(overrides, fragment):
    config = lasso_config(**overrides)
    with pytest.raises(ConfigError) as err:
        resolve(config)
    assert fragment in str(err.value)


MOMENTUM = ["dasvrda-ns", "dasvrda-sc", "dasvrda-ar-f", "dasvrda-ar-g",
            "dasvrda-warm", "dasvrg"]
#: Per group of settings that only some algorithms read: values to set,
#: and the algorithms that read them, in registry order.
SCOPED = {
    ("gamma",): (dict(gamma=4.0), MOMENTUM),
    ("epoch_len",): (dict(epoch_len=7), ["svrg", *MOMENTUM]),
    ("restarts",): (dict(restarts=2), ["dasvrda-sc"]),
    ("warm_m0", "warm_stages"): (dict(warm_m0=2, warm_stages=2), ["dasvrda-warm"]),
}


def test_scoped_settings_are_the_registry_table():
    assert [fields for fields, _ in harness.SCOPED_SETTINGS] == list(SCOPED)


@pytest.mark.parametrize("fields", list(SCOPED), ids="/".join)
@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_scoped_settings_are_accepted_exactly_by_their_readers(algo, fields):
    values, readers = SCOPED[fields]
    config = lasso_config(algo=algo, **values)
    if algo in readers:
        resolve(config)
        return
    with pytest.raises(ConfigError) as err:
        resolve(config)
    flags, _, names = str(err.value).partition(" only ")
    assert flags == "/".join("--" + f.replace("_", "-") for f in fields)
    assert names.split(" to ", 1)[1].split(", ") == readers


def test_resolve_missing_data_file():
    with pytest.raises(ConfigError):
        resolve(lasso_config(synthetic=None, data_path="/no/such/file.txt"))


# ---------------------------------------------------------------------------
# Running experiments.


def test_run_writes_trace_with_initial_row(tmp_path):
    path = str(tmp_path / "trace.csv")
    result = run_experiment(lasso_config(stages=4, trace_path=path))
    header, records = read_trace(path)
    assert len(records) == 5  # stage 0 baseline + 4 stages
    assert records[0].stage == 0 and records[0].evals == 0
    assert header["algo"] == "dasvrda-ns"
    assert header["n"] == 60 and header["d"] == 20
    assert [r.stage for r in records] == [0, 1, 2, 3, 4]
    n = header["n"]
    per_stage = n + header["epoch_len"] * header["batch"]
    assert [r.evals for r in records] == [0] + [per_stage * s for s in (1, 2, 3, 4)]
    assert all(r.gap is None for r in records)
    assert not result.diverged
    # repr-formatted floats round-trip exactly through the CSV.
    assert records[-1].objective == result.records[-1].objective


def test_run_objective_decreases(tmp_path):
    result = run_experiment(lasso_config(stages=12))
    objs = [r.objective for r in result.records]
    assert objs[-1] < 0.05 * objs[0]


def test_runs_are_deterministic_up_to_seconds(tmp_path):
    pa = str(tmp_path / "a.csv")
    pb = str(tmp_path / "b.csv")
    run_experiment(lasso_config(stages=6, seed=3, trace_path=pa))
    run_experiment(lasso_config(stages=6, seed=3, trace_path=pb))
    ha, ra = read_trace(pa)
    hb, rb = read_trace(pb)
    assert ha == hb
    for a, b in zip(ra, rb):
        assert (a.stage, a.evals, a.evals_over_n, a.objective, a.gap,
                a.restarted) == (
            b.stage, b.evals, b.evals_over_n, b.objective, b.gap, b.restarted
        )
    rc = run_experiment(lasso_config(stages=6, seed=4))
    assert rc.records[-1].objective != ra[-1].objective


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_budget_stops_runs(algo):
    budget = 5 * 120  # five dasvrda-ns stages of 60 + 60 * 1 evaluations
    stages = 2 if algo == "dasvrda-sc" else None
    result = run_experiment(lasso_config(algo=algo, stages=stages, budget=budget))
    header, last = result.header, result.records[-1]
    if header["epoch_len"] is None:
        stage_cost = header["n"]
    else:
        stage_cost = header["n"] + header["epoch_len"] * header["batch"]
    if algo == "dasvrda-ar-f":
        stage_cost += header["n"]  # the monitored objective
    assert last.evals <= budget
    assert last.stage >= 2
    assert budget - last.evals < stage_cost
    if algo == "dasvrda-ns":
        assert last.stage == 5


def test_gap_column_uses_reference(tmp_path):
    ref_path = str(tmp_path / "ref.json")
    spec = "lasso:n=60,d=20,sparsity=5,seed=0"
    assert main([
        "ref", "--synthetic", spec, "--l1", "1e-3", "--tol", "1e-13",
        "--out", ref_path,
    ]) == 0
    trace = str(tmp_path / "t.csv")
    assert main([
        "run", "--synthetic", spec, "--l1", "1e-3", "--algo", "dasvrda-ns",
        "--stages", "30", "--budget", "100000", "--seed", "1",
        "--trace", trace, "--ref", ref_path,
    ]) == 0
    _, records = read_trace(trace)
    gaps = [r.gap for r in records]
    assert all(g is not None for g in gaps)
    assert gaps[0] > 0
    assert gaps[-1] < 1e-4 * gaps[0]


def test_reference_fingerprint_mismatch_rejected(tmp_path):
    ref_path = str(tmp_path / "ref.json")
    assert main([
        "ref", "--synthetic", "lasso:n=60,d=20,seed=0", "--l1", "1e-3",
        "--out", ref_path,
    ]) == 0
    config = lasso_config(
        synthetic=SyntheticSpec(kind="lasso", n=60, d=20, sparsity=5, seed=1),
        ref_path=ref_path,
    )
    with pytest.raises(ConfigError, match="different"):
        run_experiment(config)


@pytest.mark.parametrize("changes", [dict(objective=...), dict(objective=None),
                                     dict(objective=[0.25]),
                                     dict(objective=float("nan")), dict(x=[])])
def test_cli_checks_the_reference_file(tmp_path, capsys, changes):
    # ``"x": []`` is a file that only carries the objective, and is taken.
    spec = "lasso:n=60,d=20,sparsity=5,seed=0"
    ref_path, trace = tmp_path / "ref.json", tmp_path / "t.csv"
    assert main(["ref", "--synthetic", spec, "--l1", "1e-3", "--out",
                 str(ref_path)]) == 0
    payload = dict(json.loads(ref_path.read_text()), **changes)
    ref_path.write_text(json.dumps({k: v for k, v in payload.items() if v is not ...}))
    capsys.readouterr()
    code = main(["run", "--synthetic", spec, "--l1", "1e-3", "--stages", "2",
                 "--budget", "1000", "--trace", str(trace), "--ref", str(ref_path)])
    if "x" in changes:
        assert code == 0
        _, records = read_trace(str(trace))
        assert [r.gap for r in records] == [r.objective - payload["objective"]
                                            for r in records]
    else:
        assert code == 2
        assert f"error: reference file {ref_path} " in capsys.readouterr().err
        assert not trace.exists()


def test_cli_rejects_an_infinite_smoothed_hinge_width(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code = main(["run", "--synthetic", "ridge-logistic:n=40,d=10", "--loss",
                 "smoothed-hinge:inf", "--l1", "1e-3", "--budget", "400",
                 "--trace", str(trace)])
    assert code == 2
    assert "smoothing width must be finite" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize("max_stages", ["0", "-3"])
def test_cli_ref_needs_a_stage(tmp_path, capsys, max_stages):
    out = tmp_path / "ref.json"
    code = main(["ref", "--synthetic", "lasso:n=40,d=10", "--l1", "1e-3",
                 "--max-stages", max_stages, "--out", str(out)])
    assert code == 2
    assert "max_stages must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "loop"])
def test_cli_cut_or_corrupt_gzip_data_exits_2(tmp_path, capsys, monkeypatch, compiled):
    # gzip raises EOFError for a cut stream, zlib.error for a bad deflate
    # block and BadGzipFile for a wrong checksum; none names the file.
    monkeypatch.setattr(stage_loop, "COMPILED", compiled)
    raw = gzip.compress(b"1 1:0.25 3:-4\n-1 2:8\n" * 100, mtime=0)
    block, crc = bytearray(raw), bytearray(raw)
    block[10] = 0xFF   # the first deflate block's header: an invalid type
    crc[-8] ^= 0xFF
    trace = tmp_path / "t.csv"
    for name, data, cause in (("cut", raw[:-12], "Compressed file ended"),
                              ("block", bytes(block), "invalid block type"),
                              ("crc", bytes(crc), "CRC check failed")):
        path = tmp_path / f"{name}.svm.gz"
        path.write_bytes(data)
        code = main(["run", "--data", str(path), "--l1", "1e-3", "--budget", "100",
                     "--trace", str(trace)])
        err = capsys.readouterr().err
        assert code == 2, name
        assert err.startswith(f"error: {path}: corrupt gzip stream: ") and cause in err
        assert err.count("\n") == 1 and not trace.exists()


@pytest.mark.parametrize("command", [
    ["run", "--budget", "400", "--trace"],
    ["ref", "--out"],
])
def test_cli_unwritable_output_exits_2(tmp_path, capsys, command):
    path = str(tmp_path / "missing" / "out")
    code = main([command[0], "--synthetic", "lasso:n=40,d=10", "--l1", "1e-3",
                 *command[1:], path])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_pg_and_svrg_traces_report_running_average(tmp_path):
    config = lasso_config(algo="pg", stages=8)
    result = run_experiment(config)
    # The guarantee is for the averaged point, so that is what the trace
    # monitors; the final row matches the returned point exactly.
    from dasvrda import objective as objective_of

    assert result.records[-1].objective == pytest.approx(
        objective_of(resolve(config).problem, result.x), rel=1e-15
    )
    config = lasso_config(algo="svrg", stages=4, batch=2)
    result = run_experiment(config)
    assert result.records[-1].objective == pytest.approx(
        objective_of(resolve(config).problem, result.x), rel=1e-15
    )


#: Final objectives of the runs in the test below, recorded before the
#: algorithm registry replaced the per-name dispatch; they pin every
#: runner's trajectory.  ``dasvrda-warm`` was re-recorded when its default
#: step moved from the nominal loop length ``n // batch`` to the loop
#: length its momentum phase runs (the step ``run_dasvrda_warm`` picks).
PINNED_FINAL_OBJECTIVE = {
    "pg": 2.155010826586471,
    "apg": 1.2317493463260243,
    "svrg": 0.5766919901031701,
    "dasvrda-ns": 0.14295820945630155,
    "dasvrda-sc": 0.3093577281181003,
    "dasvrda-ar-f": 0.14295820945630155,
    "dasvrda-ar-g": 0.14295820945630155,
    "dasvrda-warm": 0.015028973736926767,
    "dasvrg": 0.14291856969685895,
}


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_all_algorithms_run_and_improve(algo):
    if ALGORITHMS[algo].restarts:
        config = lasso_config(algo=algo, l2=1e-3, stages=3, seed=2, restarts=2)
    else:
        config = lasso_config(algo=algo, l2=1e-3, stages=6, seed=2)
    result = run_experiment(config)
    objs = [r.objective for r in result.records]
    assert objs[-1] < objs[0]
    assert not result.diverged
    assert objs[-1] == pytest.approx(PINNED_FINAL_OBJECTIVE[algo], rel=1e-9)


def test_warm_explicit_parameters(tmp_path):
    config = lasso_config(algo="dasvrda-warm", stages=4, warm_m0=2,
                          warm_stages=2)
    result = run_experiment(config)
    assert len(result.records) == 1 + 2 + 4  # baseline + warm-ups + momentum
    config = lasso_config(algo="dasvrda-warm", stages=4, warm_m0=2)
    result = run_experiment(config)  # warm_stages derived from m and m0
    assert result.records[-1].stage >= 4


@pytest.mark.parametrize("overrides", [{}, dict(warm_m0=2, batch=3)])
def test_warm_default_step_is_the_runners(overrides):
    """Without ``eta``, the harness and ``run_dasvrda_warm`` take the same
    step: the theory step for the loop length of the momentum phase."""
    config = lasso_config(algo="dasvrda-warm", stages=3, **overrides)
    run = resolve(config)
    prob = run.problem
    m0, n_warm = run.warm
    assert run.eta == eta_default(run.gamma, run.header["epoch_len"],
                                  config.batch, prob.mean_smoothness)
    x = run_dasvrda_warm(prob, np.zeros(prob.d), run.gamma, m0, config.batch,
                         n_warm, run.stages, run.scheme, make_rng(config.seed))
    np.testing.assert_array_equal(run_experiment(config).x, x)


def test_function_restart_sweeps_the_data_once_per_stage(monkeypatch, full_products):
    """dasvrda-ar-f evaluates ``A @ x`` at each stage output for the
    restart test, the trace and the next anchor; the three share one
    product, as do the three uses of ``x0``."""
    n, d = 200, 50   # 10000 entries: full products on BLAS or scipy
    stages = 4
    for form in ("dense", "csr"):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((n, d))
        if form == "csr":
            mat[7, 3] = 0.0
        data = make_dataset(mat, rng.standard_normal(n))
        problem = make_problem(data, Squared(), ElasticNet(1e-3, 0.0))
        monkeypatch.setattr(harness, "load_problem", lambda config: problem)
        result = run_experiment(lasso_config(algo="dasvrda-ar-f", batch=4,
                                             stages=stages, lazy="off"))
        assert result.header["products"].startswith(form)
        assert len(result.records) == 1 + stages
        assert full_products == [form] * (1 + stages)
        full_products.clear()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_is_flagged(tmp_path):
    path = str(tmp_path / "div.csv")
    config = lasso_config(algo="pg", stages=200, eta=1e6, trace_path=path)
    result = run_experiment(config)
    assert result.diverged
    header, records = read_trace(path)
    assert not np.isfinite(records[-1].objective)
    assert len(records) >= 2


def test_dasvrg_differs_from_accelerated_sibling():
    a = run_experiment(lasso_config(algo="dasvrda-ns", stages=3, seed=5))
    b = run_experiment(lasso_config(algo="dasvrg", stages=3, seed=5))
    assert not np.array_equal(a.x, b.x)


# ---------------------------------------------------------------------------
# Sweep helpers.


def test_learning_rate_grid():
    grid = learning_rate_grid()
    assert len(grid) == 15
    assert grid == sorted(grid)
    assert 1.0 in grid and 0.01 in grid and 500.0 in grid
    scaled = learning_rate_grid(2.0)
    assert scaled[0] == pytest.approx(0.02)


# ---------------------------------------------------------------------------
# CLI behavior.


def test_cli_config_error_exit_code(tmp_path, capsys):
    code = main([
        "run", "--synthetic", "lasso:n=10", "--budget", "100",
        "--trace", str(tmp_path / "t.csv"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main([
        "run", "--synthetic", "lasso:n=40,d=20", "--dim", "100",
        "--budget", "100", "--trace", str(tmp_path / "t.csv"),
    ])
    assert code == 2
    assert "--dim only applies to --data" in capsys.readouterr().err
    # NaN and infinite parameters are configuration errors too.
    for flag, value in (("--l1", "nan"), ("--l1", "inf"), ("--l2", "nan"),
                        ("--eta", "nan"), ("--eta", "inf"), ("--gamma", "nan")):
        trace = tmp_path / "nan.csv"
        code = main([
            "run", "--synthetic", "lasso:n=40,d=20", flag, value,
            "--budget", "400", "--trace", str(trace),
        ])
        assert code == 2, flag
        assert "must be finite" in capsys.readouterr().err
        assert not trace.exists()
    code = main([
        "ref", "--synthetic", "lasso:n=40,d=20", "--l1", "1e-3", "--tol", "nan",
        "--out", str(tmp_path / "ref.json"),
    ])
    assert code == 2
    assert "tolerance must be finite" in capsys.readouterr().err
    assert not (tmp_path / "ref.json").exists()


def test_cli_rejects_a_synthetic_draw_beyond_physical_memory(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code = main([
        "run", "--synthetic", "lasso:n=1000000,d=1000000", "--l1", "1e-3",
        "--budget", "100", "--trace", str(trace),
    ])
    assert code == 2
    assert "8000000000000 bytes" in capsys.readouterr().err
    assert not trace.exists()


def test_cli_rejects_a_dim_beyond_physical_memory(tmp_path, capsys):
    # 2**40 coordinates: one float64 vector alone is 8 TiB.  The check runs
    # after the two-line file is read and before any d-vector exists.
    data = tmp_path / "two.svm"
    data.write_text("1 1:1\n-1 2:1\n")
    trace = tmp_path / "t.csv"
    code = main([
        "run", "--data", str(data), "--dim", "1099511627776", "--l1", "1e-3",
        "--budget", "100", "--trace", str(trace),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "d=1099511627776" in err and "physical memory" in err
    assert not trace.exists()


def test_cli_rejects_a_negative_dim_and_runs_dim_zero(tmp_path, capsys):
    # A file without features: d = 0 runs, and a negative dim names the
    # setting rather than the file's largest index.
    data = tmp_path / "bare.svm"
    data.write_text("1\n-1\n2\n")
    trace = tmp_path / "t.csv"
    args = ["run", "--data", str(data), "--l1", "1e-3", "--budget", "12",
            "--trace", str(trace), "--dim"]
    assert main(args + ["-1"]) == 2
    assert "dim must be nonnegative, got -1" in capsys.readouterr().err
    assert not trace.exists()
    assert main(args + ["0"]) == 0
    assert trace.exists()


def test_d_check_runs_before_the_synthetic_draw(monkeypatch):
    monkeypatch.setattr(harness, "physical_memory",
                        lambda: 8 * harness.D_VECTORS * 20 - 1)
    monkeypatch.setattr(harness, "generate_synthetic",
                        lambda spec: pytest.fail("drew a rejected problem"))
    with pytest.raises(ConfigError, match="d=20 needs"):
        resolve(lasso_config())


def check_wide_run_peak(tmp_path, monkeypatch, compiled, lazy):
    """A run at d = 200000 with 20 nonzeros per row, on one engine and
    path, peaks below the ``D_VECTORS`` the d check counts."""
    d, n = 200_000, 200
    rng = np.random.default_rng(0)
    with open(tmp_path / "wide.svm", "w") as handle:
        for _ in range(n):
            cols = np.sort(rng.choice(d, 20, replace=False)) + 1
            fields = " ".join(f"{c}:{float(v)!r}"
                              for c, v in zip(cols, rng.standard_normal(20)))
            handle.write(f"{rng.choice((-1, 1))} {fields}\n")
    monkeypatch.setattr(stage_loop, "COMPILED", compiled)
    config = RunConfig(algo="dasvrda-sc", loss="logistic", l1=1e-4, l2=1e-4,
                       data_path=str(tmp_path / "wide.svm"), dim=d, batch=8,
                       lazy=lazy, budget=12 * n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(result.records) > 3
    assert (result.header["loop"] == "compiled") == (
        compiled and not isinstance(stage_loop._library(), str))
    assert peak < 8 * harness.D_VECTORS * d


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "skeleton"])
def test_a_dense_run_peaks_below_d_vectors(tmp_path, monkeypatch, compiled):
    # dasvrda-sc peaks highest of the algorithms.
    check_wide_run_peak(tmp_path, monkeypatch, compiled, "off")


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_a_lazy_run_peaks_below_d_vectors(tmp_path, monkeypatch, compiled):
    check_wide_run_peak(tmp_path, monkeypatch, compiled, "on")


def test_cli_rejects_an_epoch_length_beyond_physical_memory(tmp_path, capsys):
    # 10**12 steps of one draw: the stage's draws alone are 8 TB.
    trace = tmp_path / "t.csv"
    code = main([
        "run", "--synthetic", "lasso:n=100,d=10", "--l1", "1e-3",
        "--epoch-len", "1000000000000", "--budget", "1000000000000000",
        "--trace", str(trace),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "epoch length 1000000000000" in err and "physical memory" in err
    assert not trace.exists()


@pytest.mark.parametrize("algo", ["dasvrda-ns", "dasvrda-warm", "svrg"])
def test_epoch_length_check_covers_the_longest_stage_loop(monkeypatch, algo):
    # Both above the d check's 24 vectors of d = 20.
    config = lasso_config(algo=algo, batch=3, epoch_len=400)
    loop = resolve(config).header["epoch_len"]
    assert loop == 400 or algo == "dasvrda-warm" and loop > 400
    need = harness.DRAW_BYTES * loop * (3 + 1)
    monkeypatch.setattr(harness, "physical_memory", lambda: need)
    resolve(config)
    monkeypatch.setattr(harness, "physical_memory", lambda: need - 1)
    with pytest.raises(ConfigError, match=f"epoch length 400 runs stages of {loop} "):
        resolve(config)
    # pg and apg draw no batches.
    with pytest.raises(ConfigError, match="--epoch-len only applies to svrg, "):
        resolve(lasso_config(algo="pg", epoch_len=10**12))


@pytest.mark.parametrize("sampling", ["uniform", "weighted"])
@pytest.mark.parametrize("engine", ["compiled", "skeleton", "lazy-compiled",
                                    "lazy-numpy"])
def test_epoch_length_check_covers_a_stage_peak(monkeypatch, engine, sampling):
    # At d = 20 the draws dominate a stage's tracemalloc peak; the check
    # must count at least that many bytes.
    m, b = 2000, 20
    config = lasso_config(batch=b, epoch_len=m, sampling=sampling)
    run = resolve(config)
    lazy = engine.startswith("lazy")
    stage = lazy_one_stage_accsvrda if lazy else one_stage_accsvrda
    x = np.zeros(run.problem.d)
    monkeypatch.setattr(stage_loop, "COMPILED",
                        engine in ("compiled", "lazy-compiled"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stage(run.problem, x, x, run.eta, m, b, run.scheme, make_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak > 8 * m * b   # the draws alone
    monkeypatch.setattr(harness, "physical_memory", lambda: peak - 1)
    with pytest.raises(ConfigError, match="physical memory"):
        resolve(config)


@pytest.mark.parametrize("option,message", [
    (["--algo", "pg", "--gamma", "0.5"], "--gamma only applies to dasvrda-ns, "),
    (["--algo", "svrg", "--gamma", "4"], "--gamma only applies to dasvrda-ns, "),
    (["--algo", "apg", "--epoch-len", "7"], "--epoch-len only applies to svrg, "),
])
def test_cli_rejects_a_setting_the_algorithm_does_not_read(tmp_path, capsys,
                                                           option, message):
    trace = tmp_path / "t.csv"
    code = main(["run", "--synthetic", "lasso:n=100,d=10,sparsity=5", "--l1",
                 "1e-3", *option, "--budget", "1000", "--trace", str(trace)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cli_start_objective_not_finite_is_a_diverged_run(tmp_path, capsys):
    # The squared loss overflows at x = 0 on a label of 1e200.
    data = tmp_path / "huge.svm"
    data.write_text("1e200 1:1\n-1 2:1\n")
    trace = tmp_path / "t.csv"
    code = main([
        "run", "--data", str(data), "--l1", "1e-3", "--stages", "2",
        "--budget", "100", "--trace", str(trace),
    ])
    assert code == 0
    assert "diverged: 0 stages" in capsys.readouterr().out
    _, records = read_trace(str(trace))
    assert [r.stage for r in records] == [0]
    assert records[0].objective == np.inf


def test_cli_bad_batch_exit_code(tmp_path, capsys):
    code = main([
        "run", "--synthetic", "lasso:n=10,d=5,sparsity=3", "--batch", "11",
        "--budget", "100", "--trace", str(tmp_path / "t.csv"),
    ])
    assert code == 2
    assert "batch size" in capsys.readouterr().err
    code = main([
        "run", "--synthetic", "lasso:n=10,d=5,sparsity=3", "--algo", "apg",
        "--lazy", "on", "--budget", "100", "--trace", str(tmp_path / "t.csv"),
    ])
    assert code == 2
    assert "apg cannot use the lazy stage" in capsys.readouterr().err


def test_cli_algo_choices_are_the_registry():
    run = _build_parser()._subparsers._group_actions[0].choices["run"]
    algo = next(action for action in run._actions if action.dest == "algo")
    assert list(algo.choices) == list(ALGORITHMS)


def _subparser(name):
    return _build_parser()._subparsers._group_actions[0].choices[name]


@pytest.mark.parametrize("extra,message", [
    (["--seed", "-1"], "error: seed must be nonnegative, got -1"),
    (["--synthetic", "lasso:n=40,d=10,seed=-1"],
     "error: synthetic seed must be nonnegative, got -1"),
])
def test_cli_names_the_setting_of_a_negative_seed(tmp_path, capsys, extra, message):
    args = ["run", "--synthetic", "lasso:n=40,d=10,seed=1", "--budget", "100",
            "--trace", str(tmp_path / "t.csv"), *extra]
    assert main(args) == 2
    assert capsys.readouterr().err.strip() == message


def test_cli_run_options_are_run_config_fields():
    # Each dest of `erm run` is the field of the same name ...
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    dests = {action.dest for action in _subparser("run")._actions} - {"help"}
    # ... and every field has its option.
    assert dests == fields


def test_cli_config_of_a_minimal_run_takes_run_config_defaults():
    spec = "lasso:n=40,d=10,seed=1"
    args = _build_parser().parse_args(
        ["run", "--synthetic", spec, "--budget", "5", "--trace", "t"])
    assert _config(args) == RunConfig(synthetic=parse_synthetic(spec), budget=5,
                                      trace_path="t")


@pytest.mark.parametrize("source", [["--synthetic", "lasso:n=40,d=10,seed=1"],
                                    ["--data", "train.svm", "--dim", "7"]])
def test_cli_ref_data_options_build_the_run_data_fields(source):
    data = source + ["--normalize", "l2-rows", "--loss", "logistic",
                     "--l1", "1e-3", "--l2", "1e-2"]
    parser = _build_parser()
    ref = _config(parser.parse_args(["ref", *data, "--out", "r.json"]))
    run = _config(parser.parse_args(["run", *data, "--budget", "5",
                                     "--trace", "t"]))
    assert ref == dataclasses.replace(run, budget=None, trace_path=None)
    assert ref.normalize is True and ref.loss == "logistic"
    assert (ref.l1, ref.l2) == (1e-3, 1e-2)
    if source[0] == "--data":
        assert (ref.data_path, ref.dim, ref.synthetic) == ("train.svm", 7, None)
    else:
        assert ref.synthetic == parse_synthetic(source[1])


def test_cli_derived_restart_interval_at_tiny_l2(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    argv = ["run", "--synthetic", "lasso:n=100,d=10", "--l1", "1e-3",
            "--algo", "dasvrda-sc", "--budget", "1000", "--trace", str(trace)]
    assert main([*argv, "--l2", "1e-100"]) == 0
    header, _ = read_trace(str(trace))
    assert header["stages"] > 10**40
    trace.unlink()
    # Infinite contraction factor at every stage count.
    assert main([*argv, "--l2", "1e-310"]) == 2
    assert "no stage count per restart" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize("option", [["--warm-stages", "2000"],
                                    ["--warm-m0", str(10**400)]])
def test_cli_rejects_a_warm_up_beyond_the_float_range(tmp_path, capsys, option):
    trace = tmp_path / "t.csv"
    code = main(["run", "--synthetic", "lasso:n=100,d=10", "--l1", "1e-3",
                 "--algo", "dasvrda-warm", *option, "--budget", "1000",
                 "--trace", str(trace)])
    assert code == 2
    assert "does not fit a float" in capsys.readouterr().err
    assert not trace.exists()


def test_cli_run_success(tmp_path, capsys):
    trace = str(tmp_path / "out.csv")
    code = main([
        "run", "--synthetic", "lasso:n=40,d=10,seed=1", "--l1", "1e-3",
        "--algo", "apg", "--stages", "5", "--budget", "100000",
        "--trace", trace,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "done: 5 stages" in out
    assert trace in out
    header, records = read_trace(trace)
    assert header["algo"] == "apg"
    assert len(records) == 6


def test_cli_ref_unconverged_exit_code(tmp_path, capsys):
    code = main([
        "ref", "--synthetic", "lasso:n=50,d=30,seed=0", "--l1", "1e-6",
        "--tol", "1e-15", "--max-stages", "120",
        "--out", str(tmp_path / "ref.json"),
    ])
    assert code == 3
    assert "budget exhausted" in capsys.readouterr().out
    assert (tmp_path / "ref.json").exists()


def test_cli_normalize_option(tmp_path):
    trace = str(tmp_path / "n.csv")
    code = main([
        "run", "--synthetic", "lasso:n=30,d=8,sparsity=4,seed=0",
        "--normalize", "l2-rows",
        "--l1", "1e-3", "--algo", "pg", "--stages", "3", "--budget", "10000",
        "--trace", trace,
    ])
    assert code == 0
    header, _ = read_trace(trace)
    assert header["normalize"] is True


@pytest.mark.parametrize("overrides", [{}, dict(warm_m0=2),
                                       dict(warm_m0=2, warm_stages=1)])
def test_warm_header_records_the_warm_up_that_ran(overrides):
    run = resolve(lasso_config(algo="dasvrda-warm", **overrides))
    assert (run.header["warm_m0"], run.header["warm_stages"]) == run.warm
    assert run.warm[0] == overrides.get("warm_m0", 1)
    if "warm_stages" in overrides:
        assert run.warm[1] == overrides["warm_stages"]
    plain = resolve(lasso_config())
    assert plain.warm is None
    assert plain.header["warm_m0"] is plain.header["warm_stages"] is None


def test_partition_batch_checked_only_for_algorithms_that_draw_batches():
    spec = SyntheticSpec(kind="lasso", n=100, d=20, sparsity=5, seed=0)
    for algo in ("pg", "apg"):
        config = lasso_config(algo=algo, synthetic=spec, batch=3,
                              sampling="partition", stages=2)
        run = resolve(config)
        assert run.scheme is None
        # The step still follows --sampling: partition takes the max.
        assert run.header["lipschitz"] == "max"
        assert run.eta == 1.0 / run.problem.max_smoothness
        assert len(run_experiment(config).records) == 3
    for algo in ("svrg", "dasvrda-ns", "dasvrda-warm"):
        with pytest.raises(ConfigError, match=r"partition sampling needs the "
                           r"batch size to divide n \(n=100, b=3\)"):
            resolve(lasso_config(algo=algo, synthetic=spec, batch=3,
                                 sampling="partition"))
