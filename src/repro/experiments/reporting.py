"""Formatting helpers: render experiment results as the paper's tables/series.

Every experiment row renders its metrics with these helpers, so the CLI,
the paper-claims suite and the examples show results in the same aligned
tables and series the paper does.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

__all__ = ["format_table", "format_series", "format_percent", "format_run_summary",
           "format_timeline", "format_claims"]


def format_percent(value) -> str:
    """Render a fraction as a percentage with two decimals (paper style)."""
    if value is None:
        return "n/a"
    return f"{100.0 * float(value):.2f}%"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render rows as an aligned, pipe-separated text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[object], ys: Sequence[object],
                  y_format=format_percent) -> str:
    """Render an (x, y) series as a compact single-line listing."""
    points = ", ".join(f"{x}:{y_format(y)}" for x, y in zip(xs, ys))
    return f"{name}: {points}"


def format_timeline(name: str, points: Sequence[Sequence[float]],
                    y_format=format_percent) -> str:
    """Render (sim_time, value) pairs as a compact single-line timeline.

    Used for the scheduler studies' wall-clock-vs-accuracy curves (see
    :meth:`repro.federated.TrainingHistory.accuracy_timeline`).
    """
    rendered = ", ".join(f"t={time:.2f}:{y_format(value)}" for time, value in points)
    return f"{name}: {rendered}"


def format_run_summary(summary: Mapping[str, object]) -> str:
    """One-line summary of a training history's headline numbers."""
    parts = [f"algorithm={summary.get('algorithm')}", f"rounds={summary.get('rounds')}"]
    for key in ("final_global_accuracy", "best_global_accuracy",
                "final_mean_device_accuracy", "best_mean_device_accuracy"):
        value = summary.get(key)
        if value is not None:
            parts.append(f"{key}={format_percent(value)}")
    return " ".join(parts)


def _format_number(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def format_claims(claims: Sequence[Mapping[str, object]]) -> str:
    """Render a summary's claims: text, whether it holds, and the numbers.

    Asserted claims are marked ``*``; the rest are recorded, not checked.
    """
    verdicts = {True: "yes", False: "NO", None: "n/a"}
    rows = [[("* " if claim["asserted"] else "  ") + str(claim["text"]),
             verdicts[claim["holds"]],
             ", ".join(f"{key}={_format_number(value)}"
                       for key, value in (claim["numbers"] or {}).items())]
            for claim in claims]
    return format_table(["Claim (* asserted)", "Holds", "Measured"], rows, title="Claims")
