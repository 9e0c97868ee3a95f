import numpy as np
import pytest


def _numerical_stack() -> list[str]:
    """numpy's version and the BLAS and LAPACK it was built with."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    lines = [f"numpy {np.__version__}"]
    for role, info in deps.items():
        detail = info.get("openblas configuration") or info.get("version", "?")
        lines.append(f"{role}: {info.get('name', '?')} ({detail})")
    return lines


def pytest_report_header(config):
    """The numerical stack of the run: the bit-identity pins are checked on
    one numpy/BLAS build, and another build may round differently, so a
    failing log names the build it ran on."""
    return _numerical_stack()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the header, so a quiet log names the stack at its end
    if config.get_verbosity() < 0:
        terminalreporter.write_line("; ".join(_numerical_stack()))


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, names)`` replaces each named function of ``module`` with
    one that counts its calls, for the rest of the test, and returns the
    dict of counts by name."""

    def install(module, names):
        counts = dict.fromkeys(names, 0)

        def counting(name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return call

        for name in names:
            monkeypatch.setattr(module, name, counting(name))
        return counts

    return install
