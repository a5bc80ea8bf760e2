"""ASCII rendering of figure series over a shared x axis."""

from __future__ import annotations

from typing import Sequence


def ascii_series(
    x_values: Sequence[object],
    series: dict[str, Sequence[float]],
    width: int = 50,
    title: str | None = None,
) -> str:
    """Render several named series over a shared x axis as grouped bars."""
    lines = [title] if title else []
    peak = 1e-12
    for values in series.values():
        if values:
            peak = max(peak, max(values))
    x_width = max((len(str(x)) for x in x_values), default=1)
    name_width = max((len(name) for name in series), default=1)
    for index, x in enumerate(x_values):
        for name, values in series.items():
            value = values[index] if index < len(values) else 0.0
            bar = "#" * max(0, int(round(width * value / peak)))
            lines.append(
                f"{str(x).rjust(x_width)} {name.ljust(name_width)} | {bar} {value:g}"
            )
    return "\n".join(lines)
