"""Fixed-seed result digests for the Fig 6.4 testbed's two disciplines.

``test_golden_outputs`` pins droptail through the ``chi`` sweep only.
These digests pin a whole :class:`ScenarioResult` at seed 0 for the
cases it does not reach: RED without an attack (``fig6_11``), RED with
the SYN-attacked repeated connector (``fig6_16``), and droptail with the
connector (``fig6_9``).  A digest is the sha256 of the canonical JSON of
``serialize_result(...)``, so any change to a drop count, a round row or
an ``extra`` entry shows up here.
"""

import hashlib
import json
import os

import pytest

from repro.eval.registry import run_experiment
from repro.eval.results import serialize_result

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens",
                       "testbed_result_hashes.json")


def _load_goldens():
    with open(GOLDENS) as handle:
        return json.load(handle)


def _digest(result) -> str:
    payload = json.dumps(serialize_result(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("experiment", ["fig6_9", "fig6_11", "fig6_16"])
def test_testbed_results_are_byte_identical(experiment):
    result = run_experiment(experiment, {"seed": 0})
    assert _digest(result) == _load_goldens()[experiment], (
        f"{experiment}: seed-0 result changed (expected byte identity)")


def test_testbed_goldens_cover_both_disciplines():
    assert sorted(_load_goldens()) == ["fig6_11", "fig6_16", "fig6_9"]
