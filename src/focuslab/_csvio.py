"""Shared plumbing for the CSV report writers."""

from __future__ import annotations

from typing import Iterable, Sequence


def fmt_num(value: float) -> str:
    """Render a float for CSV: plain decimal to 9 places, no exponent, no separators."""
    text = f"{float(value):.9f}".rstrip("0").rstrip(".")
    if text in ("", "-", "-0"):
        return "0"
    return text


def write_rows(dest, header: str, rows: Iterable[Sequence[str]]) -> None:
    """Write the header and rows as ASCII lines to a path, or to an already-open file."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="ascii", newline="\n") as fh:
            return write_rows(fh, header, rows)
    dest.write(header + "\n")
    for row in rows:
        dest.write(",".join(row) + "\n")
