"""Benchmark-suite configuration: import paths, a metrics registry per
test, and the `once` fixture."""

import os
import sys

import pytest

# The local helpers (``_util``) and the checkout's own ``src``, so the
# suite, ``benchmarks/e2e`` included, runs without ``PYTHONPATH=src``.
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

from _util import scratch_registry  # noqa: E402


@pytest.fixture(autouse=True)
def bench_registry(request):
    """Run each bench test against its own empty global registry.

    ``emit_table`` snapshots the global registry into the feed, so a
    shared one would carry every earlier test's series into each table.
    """
    with scratch_registry(f"bench-{request.node.name}") as registry:
        yield registry


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under the benchmark clock.

    Figure-regeneration experiments are deterministic and often heavy;
    one timed round is enough, and using the benchmark fixture keeps
    them in the ``--benchmark-only`` pass that EXPERIMENTS.md documents.
    """

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
