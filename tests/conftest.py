"""Fixtures for every test module."""

import pytest

from fiberalg import verify


@pytest.fixture(autouse=True)
def retire_the_verify_helper():
    """Retire verify's helper after each test: a later test's patches then never meet a helper forked before them."""
    yield
    verify._retire()
