"""Shared fixtures for the per-figure/table benchmark harness.

Every bench regenerates one table or figure of the paper's evaluation,
or gates one feature's contract: it runs the experiment on the
simulated clock, prints the rows/series, asserts the expected shape,
and writes them to ``results/<id>.json``.  Most also time a
representative unit of the system under pytest-benchmark.

Run them all with::

    pytest benchmarks/ --benchmark-disable

(``--benchmark-only`` would skip the benches with no timed unit.)
"""

from __future__ import annotations

import pytest

from _common import ResultSink


@pytest.fixture(scope="session")
def results():
    return ResultSink()
