import pytest


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
