"""Masking of quantum observables.

Decides which Hermitian observables can be mapped to the identity by the
adjoint of a quantum channel, constructs explicit masker channels and their
unitary dilations, characterises comaskable observable sets, and reduces
no-bit-commitment to the nonexistence of a universal masker.
"""

__version__ = "0.1.0"

from .algebra import (  # noqa: E402
    HermitianEig,
    eig_hermitian,
    partial_trace,
    tensor,
    unitary_completion,
)
from .bloch import (  # noqa: E402
    BlochVector,
    GeneratorBasis,
    ObservableCoeffs,
    SymmetricTensor,
    bloch_to_state,
    coeffs_to_observable,
    generator_basis,
    observable_coeffs,
    positivity_conditions,
    state_to_bloch,
    symmetric_tensor,
)
from .channels import (  # noqa: E402
    KrausChannel,
    UnitaryDilation,
    apply_adjoint,
    apply_forward,
    constant_channel,
    isometric_extension,
    masker_dilation,
)
from .masking import (  # noqa: E402
    MaskabilityVerdict,
    OutputDisk,
    build_constant_masker,
    build_masker_swap,
    decide_maskable_oracle,
    decide_maskable_qubit,
    necessary_condition_d,
    output_disk,
    rotation_unitary,
    verify_masking,
    verify_nohiding,
)
from .comask import (  # noqa: E402
    AffineSet,
    ComaskDescription,
    comask_general,
    comask_qubit,
    find_common_output_state,
    universal_counterexample,
)
from .bitcommit import (  # noqa: E402
    CheatResult,
    CommitmentPair,
    cheating_unitary,
    concealment_gap,
    make_commitment_pair,
    measure_prepare_channel,
    no_bit_commitment_demo,
)

__all__ = [
    "__version__",
    "HermitianEig",
    "eig_hermitian",
    "partial_trace",
    "tensor",
    "unitary_completion",
    "BlochVector",
    "GeneratorBasis",
    "ObservableCoeffs",
    "SymmetricTensor",
    "bloch_to_state",
    "coeffs_to_observable",
    "generator_basis",
    "observable_coeffs",
    "positivity_conditions",
    "state_to_bloch",
    "symmetric_tensor",
    "KrausChannel",
    "UnitaryDilation",
    "apply_adjoint",
    "apply_forward",
    "constant_channel",
    "isometric_extension",
    "masker_dilation",
    "MaskabilityVerdict",
    "OutputDisk",
    "build_constant_masker",
    "build_masker_swap",
    "decide_maskable_oracle",
    "decide_maskable_qubit",
    "necessary_condition_d",
    "output_disk",
    "rotation_unitary",
    "verify_masking",
    "verify_nohiding",
    "AffineSet",
    "ComaskDescription",
    "comask_general",
    "comask_qubit",
    "find_common_output_state",
    "universal_counterexample",
    "CheatResult",
    "CommitmentPair",
    "cheating_unitary",
    "concealment_gap",
    "make_commitment_pair",
    "measure_prepare_channel",
    "no_bit_commitment_demo",
]
