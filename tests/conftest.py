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
