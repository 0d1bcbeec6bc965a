"""``benchmarks/ab_pairs.py``: when a gain is claimed and when it is not.

``report_claim`` is driven on records built by ``bench/compare.py``'s own
``summarise`` from synthetic ledgers — no subprocess, no timing.  The rule
is the ``choosing-metrics`` guide's: at least ten pairs, B ahead in at least
nine tenths of them (a tie counts for neither side), and the medians
further apart than the distance between A's quartiles.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import ab_pairs  # noqa: E402

WORKLOAD = "serial_sgd"
HIGHER = ab_pairs.END_TO_END["client_updates_per_s"]
LOWER = ab_pairs.END_TO_END["round_s_p50"]


def side(metric: dict, values: list[float]) -> dict:
    """One side's record, as ``ab_pairs.main`` gets it from its ledgers."""
    runs = [
        {"workloads": {WORKLOAD: {"end_to_end": {"metrics": {metric["name"]: {"value": v}}}}}}
        for v in values
    ]
    return ab_pairs.compare.summarise(runs, WORKLOAD, metric["name"])


def claimed(metric: dict, a: list[float], b: list[float]) -> bool:
    return ab_pairs.report_claim(WORKLOAD, metric, side(metric, a), side(metric, b))


TIGHT = [100.0 + i for i in range(10)]  # quartiles about 5 apart
WIDE = [100.0 + 10 * i for i in range(10)]  # quartiles about 50 apart


def test_ten_wins_beyond_the_quartiles_is_a_gain(capsys):
    assert claimed(HIGHER, TIGHT, [x + 30 for x in TIGHT])
    out = capsys.readouterr().out
    assert "B wins 10/10 (0 ties)" in out and "verdict: gain CLAIMED" in out


def test_eight_wins_of_ten_is_not(capsys):
    b = [x + 30 for x in TIGHT]
    b[2], b[7] = TIGHT[2] - 1, TIGHT[7] - 1
    assert not claimed(HIGHER, TIGHT, b)
    assert "B wins 8/10" in capsys.readouterr().out


def test_nine_wins_and_a_tie_is_a_gain(capsys):
    b = [x + 30 for x in TIGHT]
    b[4] = TIGHT[4]
    assert claimed(HIGHER, TIGHT, b)
    assert "B wins 9/10 (1 ties)" in capsys.readouterr().out


def test_ten_wins_inside_the_quartiles_is_not(capsys):
    assert not claimed(HIGHER, WIDE, [x + 1 for x in WIDE])
    out = capsys.readouterr().out
    assert "B wins 10/10" in out and "verdict: gain NOT claimed" in out


def test_a_lower_is_better_metric_wins_downwards():
    assert claimed(LOWER, TIGHT, [x - 30 for x in TIGHT])
    assert not claimed(LOWER, TIGHT, [x + 30 for x in TIGHT])


@pytest.mark.parametrize("pairs", [1, 2, 9])
def test_fewer_than_ten_pairs_never_claim(pairs, capsys):
    # One pair has no quartiles — A's spread reads 0, so any positive
    # difference used to print "gain CLAIMED".
    assert not claimed(HIGHER, TIGHT[:pairs], [x + 30 for x in TIGHT[:pairs]])
    out = capsys.readouterr().out
    assert f"verdict: gain NOT claimed (needs >= 10 pairs, ran {pairs})" in out
    assert "CLAIMED" not in out
