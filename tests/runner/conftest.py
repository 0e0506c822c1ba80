import pytest

from repro.runner import core as runner_core


@pytest.fixture()
def chunk_of(monkeypatch):
    """Pin the kernel chunk size to ``n`` points by clamping both
    bounds of the adaptive sizing."""
    def pin(n):
        monkeypatch.setattr(runner_core, "CHUNK_FLOOR", n)
        monkeypatch.setattr(runner_core, "CHUNK_CAP", n)
    return pin
