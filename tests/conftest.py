import pytest
from hypothesis import HealthCheck, settings

from quadclass import cache as result_cache
from quadclass import classgroup, qform

settings.register_profile(
    "quadclass",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("quadclass")


@pytest.fixture
def fresh_process(monkeypatch):
    """A callable that empties the memo and clears ``classgroup``'s mark of a
    genus-checked cache read, as in a process that has read no cache file;
    the fixture calls it once before the test."""

    def reset():
        monkeypatch.setattr(result_cache, "_memo", {})
        monkeypatch.setattr(classgroup, "_genus_read", False)

    reset()
    return reset


@pytest.fixture
def table_reads(monkeypatch):
    """The index of every entry of qform's class-number table read during
    the test, in order."""
    reads = []
    table = qform._class_numbers()

    class Spy:
        def __getitem__(self, i):
            reads.append(i)
            return table[i]

    monkeypatch.setattr(qform, "_class_numbers", Spy)
    return reads


@pytest.fixture
def compositions(monkeypatch):
    """The operands (f, g) of every ``QuadForm.compose`` call made during
    the test, in order."""
    calls = []
    compose = qform.QuadForm.compose

    def recorded(f, g):
        calls.append((f, g))
        return compose(f, g)

    monkeypatch.setattr(qform.QuadForm, "compose", recorded)
    return calls
