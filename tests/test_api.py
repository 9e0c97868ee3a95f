import ast
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import obsmask
from obsmask import comask, errors
from obsmask.bloch import BlochVector, ObservableCoeffs
from obsmask.errors import DimensionMismatchError, ValidationError


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


def test_every_error_class_is_raised():
    # each exception class of obsmask.errors but the two bases is constructed
    # somewhere in the package, so dead error classes cannot pile up
    classes = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    }
    constructed = set()
    for path in Path(obsmask.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                constructed.add(node.func.id)
    assert classes - constructed - {"ObsMaskError", "ValidationError"} == set()


# public names that only the benchmark harness reads; they go with its rows
# of them, in a change to the benchmark alone
_BENCH_HELD = {"unitary_completion", "symmetric_tensor"}


def _loaded(tree) -> set[str]:
    """Names the tree reads, as a Name or as an Attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_has_a_reader():
    # each public module-level function and class of obsmask is read in the
    # package outside __init__.py and its own definition, or by the
    # acceptance suite, so names that nothing reads cannot pile up
    acceptance = Path(__file__).with_name("test_acceptance.py")
    defined, read = set(), _loaded(ast.parse(acceptance.read_text()))
    for path in Path(obsmask.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined.add(own)
            read |= _loaded(stmt) - {own}
    assert sorted(defined - read - _BENCH_HELD) == []
    # the exemption names only names still unread, so it shrinks as they go
    assert _BENCH_HELD <= defined - read


_DECOMPOSITIONS = {"eigh", "eigvalsh", "svd", "cholesky", "qr"}


def _linalg_calls(tree) -> list[tuple[int, str]]:
    """(line, name) of each numpy.linalg decomposition the tree reads, as
    ``np.linalg.<name>``, ``linalg.<name>`` or a name imported from
    ``numpy.linalg``, and of each read of numpy's ``_umath_linalg``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _DECOMPOSITIONS:
            owner = node.value
            if isinstance(owner, (ast.Attribute, ast.Name)) and "linalg" in (
                getattr(owner, "attr", None), getattr(owner, "id", None)
            ):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in _DECOMPOSITIONS | {"_umath_linalg"}]
        elif isinstance(node, ast.Attribute) and node.attr == "_umath_linalg":
            found.append((node.lineno, node.attr))
    return found


def test_decompositions_run_through_the_algebra_seam():
    # every eigen-, singular-value, Cholesky and QR decomposition of the
    # package calls the gufunc helpers of obsmask.algebra, the only module
    # that reaches numpy's _umath_linalg; the invariant registry keeps the
    # public np.linalg calls as its reference
    package = Path(obsmask.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "invariants.py":
            continue
        calls = _linalg_calls(ast.parse(path.read_text()))
        if path.name == "algebra.py":
            calls = [call for call in calls if call[1] != "_umath_linalg"]
        if calls:
            offenders[path.name] = calls
    assert offenders == {}
    # the guard sees the reference calls it exempts, so it is not blind
    reference = _linalg_calls(ast.parse((package / "invariants.py").read_text()))
    assert "eigvalsh" in {name for _, name in reference}


_EXTOBJ = {"_make_extobj", "_extobj_contextvar"}


def _errstate_uses(tree) -> list[tuple[int, str]]:
    """(line, name) of each ``errstate`` the tree reads, called or as a
    decorator, and of each read of numpy's private error-state names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _EXTOBJ | {"errstate"}:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in _EXTOBJ | {"errstate"}:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in _EXTOBJ | {"errstate"}]
    return found


def test_error_states_are_entered_only_by_the_algebra_seam():
    # no module builds an np.errstate per call; numpy's private error-state
    # names are read by obsmask.algebra alone, which builds its states once
    package = Path(obsmask.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        uses = _errstate_uses(ast.parse(path.read_text()))
        if path.name == "algebra.py":
            uses = [use for use in uses if use[1] not in _EXTOBJ]
        if uses:
            offenders[path.name] = uses
    assert offenders == {}
    # the guard sees each form it forbids, so it is not blind
    seen = {name for _, name in _errstate_uses(ast.parse(
        "import numpy as np\n"
        "from numpy import errstate\n"
        "from numpy._core.umath import _make_extobj, _extobj_contextvar\n"
        "@np.errstate(invalid='ignore')\n"
        "def f():\n"
        "    with errstate(over='raise'):\n"
        "        np._core.umath._extobj_contextvar.set(_make_extobj())\n"
    ))}
    assert seen == _EXTOBJ | {"errstate"}
    algebra_uses = _errstate_uses(ast.parse((package / "algebra.py").read_text()))
    assert {name for _, name in algebra_uses} == _EXTOBJ


def test_all_names_resolve():
    assert [name for name in obsmask.__all__ if not hasattr(obsmask, name)] == []


def test_lazy_names_are_listed_and_bound_to_their_definitions():
    # the package resolves its names on first use; dir() lists them before
    # they are loaded, and `import *` binds each to the object its module defines
    assert set(obsmask.__all__) <= set(dir(obsmask))
    namespace = {}
    exec("from obsmask import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(obsmask.__all__)
    for name in obsmask.__all__:
        if name == "__version__":
            continue
        value = namespace[name]
        assert value.__module__.startswith("obsmask."), name
        assert value is getattr(importlib.import_module(value.__module__), name), name


def test_submodules_resolve_after_a_bare_import():
    # the hook is called directly: once a submodule is imported, the import
    # system binds it on the package and plain attribute access bypasses it
    names = [info.name for info in pkgutil.iter_modules(obsmask.__path__)]
    assert {"bloch", "cli"} <= set(names)
    for name in names:
        assert obsmask.__getattr__(name) is importlib.import_module(f"obsmask.{name}")
        assert getattr(obsmask, name) is importlib.import_module(f"obsmask.{name}")
        assert name in dir(obsmask)


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="'obsmask'.*'no_such_name'"):
        obsmask.no_such_name


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


# the public callables that take coefficient objects and map a stack of
# coordinate rows to a stack of matrices, so a NaN passes through to their
# output; every other such callable decides something and must refuse
# non-finite coordinates
_STACK_CODECS = {"obsmask.bloch.bloch_to_state", "obsmask.bloch.coeffs_to_observable"}


def _coefficient_callables():
    """{qualified name: (callable, element kind, whether it takes a
    sequence)} for every public callable whose first parameter is an
    ``ObservableCoeffs`` or a ``BlochVector``, or a sequence of them."""
    found = {}
    for qualname, func in _public_callables():
        params = list(inspect.signature(func).parameters.values())
        kind = str(params[0].annotation) if params else ""
        element = kind.removeprefix("Sequence[").removesuffix("]")
        if element in ("ObservableCoeffs", "BlochVector"):
            found[qualname] = (func, element, element != kind)
    return found


# the public callables that read raw Bloch points, which carry no annotation
# to find them by; each entry calls one on two points and d
_POINT_CALLABLES = {
    "obsmask.comask.comask_general": lambda b, b_prime, d: comask.comask_general([b, b_prime], d),
    "obsmask.comask.universal_counterexample": comask.universal_counterexample,
}


def _call(func, coefficients, sequence):
    """func on one coefficient object; a sequence-taking callable gets a
    list of one, with its dimension."""
    if sequence:
        return func([coefficients], coefficients.dimension)
    return func(coefficients)


def _nan_coefficients(kind: str):
    """Coefficient objects of ``kind`` with a NaN or infinite coordinate, at
    d = 2 and d = 8; the zero direction a = 0 is among them."""
    objects = []
    for d in (2, 8):
        unit, zero = np.eye(d * d - 1)[-1], np.zeros(d * d - 1)
        nan_a, inf_a = np.where(unit > 0, np.nan, 0.0), np.where(unit > 0, np.inf, 0.0)
        if kind == "ObservableCoeffs":
            objects += [
                ObservableCoeffs(d, np.nan, unit),
                ObservableCoeffs(d, np.nan, zero),
                ObservableCoeffs(d, np.inf, unit),
                ObservableCoeffs(d, 0.5, nan_a),
            ]
        else:
            objects += [BlochVector(d, nan_a), BlochVector(d, inf_a)]
    return objects


def test_decisions_refuse_nan_coefficients():
    # `x >= bound` is False for nan, so a decision that only compares would
    # return a confident "no"; each must refuse non-finite coordinates
    decisions = {
        qualname: entry
        for qualname, entry in _coefficient_callables().items()
        if qualname not in _STACK_CODECS
    }
    assert {
        "obsmask.masking.decide_maskable_qubit",
        "obsmask.masking.necessary_condition_d",
        "obsmask.bloch.cubic_condition_value",
        "obsmask.bloch.positivity_conditions",
        "obsmask.comask.find_common_output_state",
    } <= set(decisions)
    accepted = []
    for qualname, (func, element, sequence) in decisions.items():
        for coefficients in _nan_coefficients(element):
            try:
                _call(func, coefficients, sequence)
            except ValidationError:
                continue
            accepted.append((qualname, coefficients.dimension))
    # a point callable gets the non-finite point first and second, beside
    # the maximally mixed state
    for qualname, call in _POINT_CALLABLES.items():
        for point in _nan_coefficients("BlochVector"):
            d, mixed = point.dimension, np.zeros_like(point.b)
            for pair in ((point.b, mixed), (mixed, point.b)):
                try:
                    call(*pair, d)
                except ValidationError:
                    continue
                accepted.append((qualname, d))
    assert accepted == []


def test_coefficient_callables_refuse_wrong_length_rows():
    # a coordinate row one entry short or long is no expansion at d, so a
    # callable that reads only its first entries, or all of them, would
    # answer for another observable or state; each must refuse it.  A
    # stack of two rows is neither one observable nor one state, so a
    # decision that reads the norm of the whole stack answers for neither;
    # only the codecs, which map a stack to a stack of matrices, take one.
    # A callable taking a sequence also gets ragged families, whose second
    # row is one entry short or long.  A point callable gets each misfit as
    # its first and as its second point, beside one of the right length
    callables = _coefficient_callables()
    assert {
        "obsmask.masking.decide_maskable_qubit",
        "obsmask.masking.necessary_condition_d",
        "obsmask.bloch.bloch_to_state",
        "obsmask.bloch.coeffs_to_observable",
        "obsmask.bloch.cubic_condition_value",
        "obsmask.bloch.positivity_conditions",
        "obsmask.comask.find_common_output_state",
    } <= set(callables)
    not_refused = []
    for qualname, (func, element, sequence) in callables.items():
        for d in (2, 8):
            n = d * d - 1
            shapes = [(n - 1,), (n + 1,)]
            if qualname not in _STACK_CODECS:
                shapes.append((2, n))
            families = [[shape] for shape in shapes]
            if sequence:
                families += [[(n,), (n - 1,)], [(n,), (n + 1,)]]
            for family in families:
                rows = [np.full(shape, 0.01) for shape in family]
                if element == "ObservableCoeffs":
                    coefficients = [ObservableCoeffs(d, 0.5, row) for row in rows]
                else:
                    coefficients = [BlochVector(d, row) for row in rows]
                try:
                    func(coefficients, d) if sequence else func(*coefficients)
                except DimensionMismatchError:
                    continue
                except Exception as exc:  # recorded, so every offender is listed
                    outcome = type(exc).__name__
                else:
                    outcome = "accepted"
                not_refused.append((qualname, d, family, outcome))
    for qualname, call in _POINT_CALLABLES.items():
        for d in (2, 8):
            n = d * d - 1
            fit = np.full(n, 0.01)
            for shape in ((n - 1,), (n + 1,), (2, n)):
                misfit = np.full(shape, 0.01)
                for pair in ((misfit, fit), (fit, misfit)):
                    try:
                        call(*pair, d)
                    except DimensionMismatchError:
                        continue
                    except Exception as exc:
                        outcome = type(exc).__name__
                    else:
                        outcome = "accepted"
                    not_refused.append((qualname, d, shape, outcome))
    assert not_refused == []


def test_coordinate_callables_refuse_dimensions_below_2():
    # the length a coordinate row must have is read from d, so a d below 2
    # must be refused before it: at d = 0 a row "d^2 - 1 = -1" long would
    # be asked for, and I/d divides by zero.  The qubit criterion refuses
    # every d but 2 on its own
    qubit = "obsmask.masking.decide_maskable_qubit"
    callables = {q: entry for q, entry in _coefficient_callables().items() if q != qubit}
    assert {
        "obsmask.bloch.bloch_to_state",
        "obsmask.bloch.coeffs_to_observable",
        "obsmask.bloch.positivity_conditions",
        "obsmask.bloch.cubic_condition_value",
        "obsmask.masking.necessary_condition_d",
        "obsmask.comask.find_common_output_state",
    } <= set(callables)
    empty = np.zeros(0)
    not_refused = []
    for d in (-1, 0, 1):
        objects = {"ObservableCoeffs": ObservableCoeffs(d, 0.5, empty),
                   "BlochVector": BlochVector(d, empty)}
        calls = [
            (qualname, functools.partial(_call, func, objects[element], sequence))
            for qualname, (func, element, sequence) in callables.items()
        ]
        calls += [(qualname, functools.partial(call, empty, empty, d))
                  for qualname, call in _POINT_CALLABLES.items()]
        for qualname, call in calls:
            try:
                call()
            except Exception as exc:
                if type(exc) is ValueError and str(exc) == f"dimension must be >= 2, got {d}":
                    continue
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                outcome = "accepted"
            not_refused.append((qualname, d, outcome))
    assert not_refused == []
