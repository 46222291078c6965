"""sdelab: simulation and empirical verification of path-dependent jump-diffusion SDEs.

The package has three layers: cadlag path machinery and martingale-measure
noise (`paths`, `noise`), the inductive Euler scheme with convergence
diagnostics (`solver`, `models`), and the inequality laboratory
(`gronwall`, `conditions`) behind a declarative experiment runner
(`config`, `runner`, `cli`).
"""

from .paths import CadlagPath, PathBuilder, constant_path, sup_distance, write_path_csv
from .noise import (
    MartingaleMeasureSpec,
    NoiseRealization,
    sample_noise,
    integrate,
    empirical_covariation,
    uniform_marks,
    mark_rectangle,
)
from .solver import (
    CoefficientModel,
    kappa,
    euler_grid,
    euler_solve,
    coarsen_noise,
    resolution_gap,
    strong_convergence,
)
from .gronwall import (
    c_p,
    gronwall_bound,
    MonotoneFunction,
    GronwallEnsemble,
    VerificationReport,
    verify_gronwall,
    lenglart_tail,
    lenglart_moment,
    counterexample_stats,
    counterexample_ensemble,
    gbm_squared_ensemble,
    brownian_square_pairs,
)
from .conditions import check_condition, evaluate_condition, ConditionReport
from .config import ExperimentConfig, parse_config
from .runner import run_experiment
from .streams import stream

__version__ = "0.1.0"

__all__ = [
    "CadlagPath",
    "PathBuilder",
    "constant_path",
    "sup_distance",
    "write_path_csv",
    "MartingaleMeasureSpec",
    "NoiseRealization",
    "sample_noise",
    "integrate",
    "empirical_covariation",
    "uniform_marks",
    "mark_rectangle",
    "CoefficientModel",
    "kappa",
    "euler_grid",
    "euler_solve",
    "coarsen_noise",
    "resolution_gap",
    "strong_convergence",
    "c_p",
    "gronwall_bound",
    "MonotoneFunction",
    "GronwallEnsemble",
    "VerificationReport",
    "verify_gronwall",
    "lenglart_tail",
    "lenglart_moment",
    "counterexample_stats",
    "counterexample_ensemble",
    "gbm_squared_ensemble",
    "brownian_square_pairs",
    "check_condition",
    "evaluate_condition",
    "ConditionReport",
    "ExperimentConfig",
    "parse_config",
    "run_experiment",
    "stream",
]
