"""Fixtures for the technique-plugin tests."""

import pytest

from repro.session import Session


@pytest.fixture(scope="module")
def session():
    """A hermetic session (no on-disk caches)."""
    s = Session(store=None)
    yield s
    s.close()


@pytest.fixture(scope="module")
def mult_handle(session):
    return session.design("mult16")


@pytest.fixture(scope="module")
def mult_design(mult_handle):
    return mult_handle.design
