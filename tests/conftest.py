"""Shared fixtures for the test suite; the spec and SoC helpers live in
``tests/specs.py`` and are re-exported here."""

import numpy as np
import pytest

from tests.specs import (  # noqa: F401  (re-exported)
    make_runtime, make_soc, make_spec, per_frame)


@pytest.fixture
def toy_spec():
    return make_spec()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
