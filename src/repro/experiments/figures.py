"""Figure data extraction: accuracy-versus-round series as plain data/text.

The paper's figures are accuracy curves; without a plotting dependency the
reproduction exposes the same information as ``(round, accuracy)`` series
plus a text rendering, which ``repro <study>`` prints (the claims those
series support are the cases of ``tests/test_paper_claims.py``).
"""

from __future__ import annotations

from typing import Mapping

from repro.federated.engine import SimulationResult


def accuracy_series(result: SimulationResult) -> list[tuple[int, float]]:
    """(round, test accuracy) pairs for rounds where evaluation ran."""
    return result.history.accuracy_series()


def series_to_text(
    series_by_label: Mapping[str, list[tuple[int, float]]],
    max_points: int = 20,
) -> str:
    """Render several labelled series side by side as text.

    Long series are subsampled to at most ``max_points`` evenly spaced points
    so the output stays readable in benchmark logs.
    """
    lines: list[str] = []
    for label, series in series_by_label.items():
        if not series:
            lines.append(f"{label}: (no evaluations)")
            continue
        if len(series) > max_points:
            step = max(1, len(series) // max_points)
            series = series[::step] + [series[-1]]
        points = ", ".join(f"r{round_}:{acc:.3f}" for round_, acc in series)
        lines.append(f"{label}: {points}")
    return "\n".join(lines)


def final_accuracies(
    results_by_label: Mapping[str, SimulationResult],
) -> dict[str, float]:
    """Final test accuracy per labelled run."""
    return {
        label: result.history.final_accuracy()
        for label, result in results_by_label.items()
    }


def best_accuracies(
    results_by_label: Mapping[str, SimulationResult],
) -> dict[str, float]:
    """Best test accuracy per labelled run."""
    return {
        label: result.history.best_accuracy()
        for label, result in results_by_label.items()
    }
