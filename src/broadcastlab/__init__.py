"""broadcastlab: fixed points of entanglement-breaking channels, broadcasting
algebras, and contextuality deciders at desk scale."""

__version__ = "0.1.0"

from .operators import (  # noqa: F401
    DiscretePOVM,
    NotCommutingError,
    OperatorError,
    as_density,
    as_effect,
    as_hermitian,
    commutator_defect,
    eig_hermitian,
    partial_trace,
    partial_transpose,
    simultaneous_diagonalize,
)
from .channels import (  # noqa: F401
    ChannelError,
    ChoiChannel,
    KrausChannel,
    MeasurePrepareChannel,
    SymmetricLift,
    apply,
    choi_to_kraus,
    choi_transform,
    symmetric_lift,
    symmetrize,
)
from .fixedpoint import (  # noqa: F401
    AtomicDecomposition,
    BroadcastingAlgebra,
    FixedPointSpace,
    atomic_decomposition,
    broadcasting_product,
    cesaro_apply,
    choi_effros_compare,
    fixed_space,
    fixedpoint_report,
    psi0_matrix,
)
from .contextuality import (  # noqa: F401
    ApproxCheckResult,
    AxiomViolationError,
    ExtendedFunctional,
    FeasibilityProblem,
    MeasSetVerdict,
    PartitionEmbedding,
    StateSetVerdict,
    approx_check,
    broadcaster_from_commuting,
    check_measurements_feasibility,
    check_states,
    decide_measurements,
    extend_effect_functional,
    pvm_embed,
)
from .cvmodels import (  # noqa: F401
    FockTruncation,
    TruncatedChannel,
    binned_position_pvm,
    qchannel_build,
    qchannel_element,
    qchannel_element_quadrature,
    qchannel_fixed_analysis,
    repair_to_commuting_projections,
    shift_channel_build,
    shift_channel_study,
)
from .config import DimensionCapError, dimension_cap  # noqa: F401
