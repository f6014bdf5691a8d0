"""Hyper-entangled two-photon Bell test toolkit.

Exact quantum predictions, exhaustively enumerated classical bounds, and a
seeded Monte-Carlo reproduction of the polarization-path experiment,
including the exponential growth of the violation with the number of
entangled degrees of freedom.
"""

from .bell import (
    BellOperator,
    ScalingReport,
    build_beta_k,
    build_beta_pi,
    build_beta_product,
    canonical_product,
    ideal_predictions,
    ideal_state,
    quantum_value,
    scaling_report,
)
from .lhv import (
    FACTORIZABLE,
    UNRESTRICTED,
    BoundResult,
    LhvStrategy,
    evaluate_strategy,
    max_bound,
)
from .model import (
    JointSetting,
    NoiseModel,
    ObservableId,
    QuantumState,
    apply_noise,
    hyper_state,
    observable,
)
from .rng import GENERATOR_ID
from .simlab import (
    CorrelationRecord,
    ViolationReport,
    assumption_test,
    born_distribution,
    estimate,
    reference_significance,
    run_simulated_experiment,
    sample,
    signaling_deviation,
    violation_report,
)

__version__ = "0.1.0"
