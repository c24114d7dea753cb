"""Variance-reduced dual averaging with double acceleration for
elastic-net regularized empirical risk minimization, plus baselines,
lazy sparse updates, and a benchmark harness."""

__version__ = "0.1.0"

from .losses import (
    Logistic,
    SmoothedHinge,
    Squared,
    loss_derivative,
    loss_value,
)
from .problem import (
    Dataset,
    ElasticNet,
    Problem,
    full_gradient,
    make_dataset,
    make_problem,
    objective,
    prox_elastic_net,
)
from .sampling import (
    IidUniform,
    IidWeighted,
    Partition,
    StageAnchor,
    draw_batch,
    make_anchor,
    make_rng,
    smoothness_weighted,
    vr_gradient,
)
from .baselines import one_stage_pg, one_stage_svrg, run_apg, run_pg, run_svrg
from .solvers import (
    FunctionRestart,
    OuterState,
    choose_S_for_rho,
    eta_default,
    gamma_star,
    one_stage_accsvrda,
    one_stage_dasvrg,
    outer_momentum,
    restart_rho,
    run_dasvrda_adaptive,
    run_dasvrda_ns,
    run_dasvrda_sc,
    run_dasvrda_warm,
    theta_inner,
    theta_outer,
    theta_pair,
    warm_final_loop_length,
    warm_start_schedule,
)
from .lazy import (
    LazyStage,
    PrefixTables,
    build_prefix_tables,
    lazy_one_stage_accsvrda,
    lazy_z,
)
from .data_io import (
    SyntheticSpec,
    generate_synthetic,
    load_libsvm,
    normalize_rows,
    save_libsvm,
)
from .reference import Reference, compute_reference, read_reference, save_reference
from .trace import TraceRecord, read_trace, write_trace
from .harness import (
    ConfigError,
    RunConfig,
    RunResult,
    learning_rate_grid,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
