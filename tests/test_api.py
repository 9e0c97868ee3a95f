import importlib
import inspect
import pkgutil

import numpy as np

import obsmask


def _public_callables():
    """(qualified name, callable) for every public function of the obsmask
    modules and every public method of the classes they define."""
    for info in pkgutil.iter_modules(obsmask.__path__):
        module = importlib.import_module(f"obsmask.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        yield f"{module.__name__}.{name}.{meth_name}", meth


def _is_knob(param: str) -> bool:
    return param in ("tol", "max_iter") or param.endswith(("_tol", "_gap"))


def test_no_tolerance_or_iteration_parameters():
    # each tolerance is a named constant of the module that owns the property
    knobs = [
        f"{qualname}({param})"
        for qualname, func in _public_callables()
        for param in inspect.signature(func).parameters
        if _is_knob(param)
    ]
    assert knobs == []


def _validators():
    return {
        qualname: func
        for qualname, func in _public_callables()
        if qualname.rsplit(".", 1)[1].startswith("require_")
    }


def test_validators_refuse_nan():
    # `dev > ATOL` is False for nan, so a validator that only measures a
    # deviation accepts nan; each must refuse non-finite entries first
    validators = _validators()
    assert {
        "obsmask.algebra.require_hermitian",
        "obsmask.algebra.require_orthonormal",
        "obsmask.channels.require_unitary",
        "obsmask.channels.require_density",
    } <= set(validators)
    nan_matrix = np.full((2, 2), np.nan, dtype=complex)
    accepted = []
    for qualname, func in validators.items():
        # a NaN matrix of valid shape first; any further required parameter
        # is a label, given its own name
        rest = [
            param.name
            for param in list(inspect.signature(func).parameters.values())[1:]
            if param.default is inspect.Parameter.empty
        ]
        try:
            func(nan_matrix, *rest)
        except ValueError:
            continue
        accepted.append(qualname)
    assert accepted == []
