"""zovr: zeroth-order optimization with variance reduction.

Forward-pass-only training built on shared-perturbation SPSA gradient
estimates, with the in-place MeZO and MeZO-SVRG optimizers, a memory-
naive reference ZO-SVRG, seed-replay trajectory compression, exact
lemma-level oracles, and a benchmark harness with query and memory
accounting.
"""

from .estimators import (
    GradientEstimate,
    Minibatch,
    NonFiniteLossError,
    PerturbationSeed,
    SpsaConfig,
    axpy_estimate_in_place,
    full_batch,
    materialize,
    sample_minibatch,
    spsa_batch_avg,
    spsa_batch_shared,
)
from .memory import SlotMeter, account_memory
from .objectives import (
    LeastSquaresProblem,
    LogisticProblem,
    Mlp2Problem,
    Objective,
    load_idx,
    make_least_squares,
    make_logistic,
    make_mlp2,
    make_synthetic_digits,
)
from .optimizers import (
    Budget,
    FoSgdConfig,
    LrScheduleConfig,
    MezoConfig,
    MezoSvrgConfig,
    RunRecord,
    RunResult,
    StepReport,
    StepSeeds,
    SvrgAnchor,
    ZoSvrgConfig,
    fo_sgd_step,
    mezo_step,
    mezo_svrg_step,
    run,
    zo_svrg_step,
)
from .oracles import (
    control_variate_check,
    ls_normal_equations,
    unbiasedness_check,
)
from .trajectory import TrajectoryLog, TrajectoryError, replay, theta_digest

__version__ = "0.1.0"
