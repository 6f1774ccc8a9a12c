"""Shared plumbing for the CSV report writers."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Sequence


@contextmanager
def text_sink(dest):
    """Yield a writable text stream for a path or an already-open file."""
    if hasattr(dest, "write"):
        yield dest
    else:
        with open(dest, "w", encoding="ascii", newline="\n") as fh:
            yield fh


def fmt_num(value: float) -> str:
    """Render a float for CSV: plain decimal to 9 places, no exponent, no separators."""
    text = f"{float(value):.9f}".rstrip("0").rstrip(".")
    if text in ("", "-", "-0"):
        return "0"
    return text


def write_rows(dest, header: str, rows: Iterable[Sequence[str]]) -> None:
    with text_sink(dest) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
