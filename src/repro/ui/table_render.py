"""Plain-text rendering of Offering Tables.

The terminal counterpart of the mobile GUI's table view (Figure 1):
columns for rank, charger, rate, and the three EC intervals, formatted for
fixed-width display in examples and experiment logs.
"""

from __future__ import annotations

from typing import Sequence

from ..core.offering import OfferingTable
from ..intervals import Interval


def _fmt_interval(interval: Interval, digits: int = 2) -> str:
    if interval.is_exact:
        return f"{interval.lo:.{digits}f}"
    return f"[{interval.lo:.{digits}f}, {interval.hi:.{digits}f}]"


def _fmt_clock(time_h: float) -> str:
    day, rem = divmod(time_h, 24.0)
    hours = int(rem)
    minutes = int(round((rem - hours) * 60))
    if minutes == 60:
        hours, minutes = hours + 1, 0
    prefix = f"d{int(day)} " if day >= 1 else ""
    return f"{prefix}{hours:02d}:{minutes:02d}"


def render_offering_table(table: OfferingTable, title: str | None = None) -> str:
    """One Offering Table as an aligned text block."""
    header = title if title is not None else (
        f"Offering Table — segment {table.segment_index}"
        + (" (adapted)" if table.is_adapted else "")
    )
    columns = ["#", "charger", "rate kW", "ETA", "L", "A", "D", "SC_min", "SC_max"]
    rows: list[list[str]] = [columns]
    for entry in table:
        rows.append(
            [
                str(entry.rank),
                f"b{entry.charger_id}",
                f"{entry.charger.rate_kw:g}",
                _fmt_clock(entry.eta_h),
                _fmt_interval(entry.sustainable),
                _fmt_interval(entry.availability),
                _fmt_interval(entry.derouting),
                f"{entry.score.sc_min:.3f}",
                f"{entry.score.sc_max:.3f}",
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(columns))]
    lines = [header, "-" * (sum(widths) + 2 * (len(columns) - 1))]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def render_run_summary(tables: Sequence[OfferingTable]) -> str:
    """Compact per-segment summary: best charger and its score band."""
    lines = ["segment  best      SC_min  SC_max  source"]
    for table in tables:
        best = table.best
        if best is None:
            lines.append(f"{table.segment_index:>7}  (empty)")
            continue
        source = f"adapted from {table.adapted_from}" if table.is_adapted else "computed"
        lines.append(
            f"{table.segment_index:>7}  b{best.charger_id:<7} "
            f"{best.score.sc_min:>6.3f}  {best.score.sc_max:>6.3f}  {source}"
        )
    return "\n".join(lines)
