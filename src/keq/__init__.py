"""Kernel equating for the EG and NEC designs, sequential covariate
equating, equating chains, bootstrap standard errors, and a Monte-Carlo
evaluation harness."""

from .core import (
    Binned,
    Categorical,
    CovariateSpace,
    CsvFormatError,
    Dataset,
    EquatingTable,
    JointProbabilityTable,
    KeqError,
    ScoreDistribution,
    ScoreScale,
    ValidationError,
    coerce_dataset,
    discretize,
    read_person_csv,
    tabulate_counts,
)
from .continuize import ContinuizedCdf, inverse_cdf, kernel_cdf, kernel_pdf, select_bandwidth
from .equate import (
    ChainPlan,
    ChainStep,
    EquatingMap,
    GkePipelineConfig,
    NecInput,
    PipelineSpec,
    PlanError,
    equate_chain,
    equate_covariate,
    equate_gke,
    equate_sequential,
)
from .metrics import MetricsReport, bias, ediff, mc_see, rmse
from .presmooth import FittedLoglinear, LoglinearSpec, build_design_matrix, fit_loglinear, presmooth_counts
from .probmix import nec_target_probs
from .simulate import (
    BinaryPairParams,
    GeneratorParams,
    ScenarioSpec,
    gen_population,
    run_scenario,
    sample_binary_pair,
    solve_joint_from_or,
    truth_values,
)
from .uncertainty import BootstrapConfig, BootstrapResult, bootstrap_see

__version__ = "0.1.0"
