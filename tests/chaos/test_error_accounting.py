"""Error responses are errors, not completions, in the simulated chaos
run as on the live servers (tests/server/test_live_servers.py covers
the live side).  Every abandoned request that the live server would
answer with an error status lands in the per-page, per-status error
counter, and the totals line up with the policy counters that caused
them: a 500 is a worker crash, a pool exhaustion, or a
``db.query`` transient that was not retried (a write's, or a read's
last)."""

import json
from pathlib import Path

import pytest

from repro.harness.chaos import format_chaos_report, run_chaos

pytestmark = pytest.mark.chaos

#: ``run_chaos()`` at its defaults (quick preset, fault seed 7): the
#: whole chaos document, pinned byte for byte.
GOLDEN_CHAOS = (Path(__file__).parents[1] / "integration"
                / "chaos.golden.json")


@pytest.fixture(scope="module")
def document():
    return run_chaos()


def _by_status(errors):
    totals = {}
    for page_errors in errors.values():
        for status, count in page_errors.items():
            totals[status] = totals.get(status, 0) + count
    return totals


@pytest.mark.parametrize("kind", ["baseline", "staged"])
def test_error_totals_match_the_policies_that_caused_them(document, kind):
    entry = document["servers"][kind]
    totals = _by_status(entry["errors"])
    stages = entry["resilience_report"]["stages"].values()
    injected = entry["fault_report"]["injected"]
    assert totals.get("503", 0) == sum(s["breaker_fast_fail"] for s in stages)
    assert totals.get("504", 0) == sum(s["deadline_expired"] for s in stages)
    assert totals.get("500", 0) == (
        sum(s["worker_crashes"] for s in stages)
        + injected.get("db.pool.acquire:exhaust", 0)
        + injected.get("db.query:transient", 0)
        - sum(s["retries"] for s in stages))
    assert sum(totals.values()) > 0


def test_report_shows_error_responses(document):
    report = format_chaos_report(document)
    assert report.count("error responses: 500=") == 2


def test_chaos_document_is_byte_identical(document):
    """Completions, fault and resilience counters and error responses
    of both topologies must not drift.  A change that moves them on
    purpose regenerates the file from ``json.dumps(run_chaos(),
    indent=2, sort_keys=True)`` and explains the delta."""
    exported = json.dumps(document, indent=2, sort_keys=True)
    assert exported == GOLDEN_CHAOS.read_text(encoding="utf-8")
