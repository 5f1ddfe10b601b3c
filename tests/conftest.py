import pytest
from hypothesis import HealthCheck, settings

from quadclass import qform

settings.register_profile(
    "quadclass",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("quadclass")


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
