"""Shared configuration for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and
prints the reproduced rows next to the paper's values. Simulations are
deterministic, so each experiment runs once per benchmark round.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run a deterministic experiment exactly once under timing."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return run
