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


def traced(scale: float) -> dict:
    """A ``--trace 1`` result: every per-layer metric at ``scale`` times its index."""
    return {
        "metrics": {
            name: {"value": scale * index} for index, name in enumerate(ab_pairs.PER_LAYER)
        }
    }


def test_layers_print_side_by_side(capsys):
    ab_pairs.report_layers(WORKLOAD, traced(1.0), traced(0.5))
    out = capsys.readouterr().out
    assert f"## {WORKLOAD}: per layer, one traced run a side (seed 0)" in out
    rows = [line.split() for line in out.splitlines()[3:]]
    assert [row[0] for row in rows] == list(ab_pairs.PER_LAYER)
    assert rows[0][1:4] == ["0", "0", "n/a"]  # a zero on A has no ratio
    assert rows[2][1:4] == ["2", "1", "-50.0%"]


def test_the_pairs_end_with_one_traced_run_a_side_per_workload(
    monkeypatch, tmp_path, capsys
):
    calls = []

    def run_once(tree, workload, seed, seconds, out, trace=0):
        calls.append((tree, workload, seed, trace))
        out.mkdir(parents=True, exist_ok=True)
        if trace:
            return traced(1.0 if tree != ab_pairs.ROOT else 2.0)
        metrics = {name: {"value": 1.0} for name in ab_pairs.END_TO_END}
        return {"metrics": metrics, "failed": 0, "attempted": 1}

    monkeypatch.setattr(ab_pairs, "unpack_revision", lambda rev, target: None)
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    monkeypatch.setattr(ab_pairs.compare, "main", lambda argv: 0)
    workloads = ["serial_sgd", "vec_ragged"]
    assert ab_pairs.main(
        ["--base", "HEAD", "--workload", *workloads, "--pairs", "2", "--out", str(tmp_path)]
    ) == 0
    untraced, traced_calls = calls[:8], calls[8:]
    assert all(trace == 0 for *_, trace in untraced)
    assert [(workload, seed, trace) for _, workload, seed, trace in traced_calls] == [
        (workload, 0, 1) for workload in workloads for _ in "AB"
    ]
    assert [tree == ab_pairs.ROOT for tree, *_ in traced_calls] == [False, True] * 2
    out = capsys.readouterr().out
    for workload in workloads:
        assert f"## {workload}: per layer" in out


def test_first_seed_offsets_every_pair_and_the_traced_runs(monkeypatch, tmp_path, capsys):
    calls = []

    def run_once(tree, workload, seed, seconds, out, trace=0):
        calls.append((seed, trace))
        out.mkdir(parents=True, exist_ok=True)
        if trace:
            return traced(1.0)
        metrics = {name: {"value": 1.0} for name in ab_pairs.END_TO_END}
        return {"metrics": metrics, "failed": 0, "attempted": 1}

    monkeypatch.setattr(ab_pairs, "unpack_revision", lambda rev, target: None)
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    monkeypatch.setattr(ab_pairs.compare, "main", lambda argv: 0)
    argv = ["--base", "HEAD", "--workload", WORKLOAD, "--pairs", "2", "--out", str(tmp_path)]
    assert ab_pairs.main([*argv, "--first-seed", "100"]) == 0
    assert calls == [(100, 0)] * 2 + [(101, 0)] * 2 + [(100, 1)] * 2
    assert sorted(path.name for path in tmp_path.rglob("ledger_*.json")) == [
        "ledger_seed100.json", "ledger_seed100.json",
        "ledger_seed101.json", "ledger_seed101.json",
    ]
    out = capsys.readouterr().out
    assert "pair 0 (seed 100, A first)" in out and "pair 1 (seed 101, B first)" in out
    assert f"## {WORKLOAD}: per layer, one traced run a side (seed 100)" in out
