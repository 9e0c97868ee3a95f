"""Masking of quantum observables.

Decides which Hermitian observables can be mapped to the identity by the
adjoint of a quantum channel, constructs explicit masker channels and their
unitary dilations, characterises comaskable observable sets, and reduces
no-bit-commitment to the nonexistence of a universal masker.

The package's names resolve on first use (PEP 562): ``import obsmask`` loads
no submodule, and ``obsmask.X`` imports only the module that defines X.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({
    "algebra", "bitcommit", "bloch", "channels", "cli", "comask", "errors",
    "fileio", "invariants", "masking", "report", "samplers",
})

_EXPORTS = {
    "algebra": (
        "HermitianEig", "eig_hermitian", "partial_trace", "tensor",
        "unitary_completion",
    ),
    "bloch": (
        "BlochVector", "GeneratorBasis", "ObservableCoeffs", "SymmetricTensor",
        "bloch_to_state", "coeffs_to_observable", "generator_basis",
        "observable_coeffs", "positivity_conditions", "state_to_bloch",
        "symmetric_tensor",
    ),
    "channels": (
        "KrausChannel", "apply_adjoint", "apply_forward", "isometric_extension",
    ),
    "masking": (
        "MaskabilityVerdict", "build_constant_masker", "build_masker_swap",
        "decide_maskable_oracle", "decide_maskable_qubit",
        "necessary_condition_d", "rotation_unitary", "verify_masking",
        "verify_nohiding",
    ),
    "comask": (
        "AffineSet", "ComaskDescription", "comask_general", "comask_qubit",
        "find_common_output_state", "universal_counterexample",
    ),
    "bitcommit": (
        "CheatResult", "CommitmentPair", "cheating_unitary", "concealment_gap",
        "make_commitment_pair", "measure_prepare_channel",
        "no_bit_commitment_demo",
    ),
}

# public name -> the submodule that defines it
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(_OWNER))
