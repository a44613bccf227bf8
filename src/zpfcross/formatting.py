"""Text of computed values and the table/CSV layout of text rows.

``format_values`` gives a batch of values their text by one rule:
significant figures with compact exponents (5.17e3, 1e-5) for tables
and point queries, the shortest round-trip repr for CSV sweeps. Shared
by the CLI and by ``report``'s render, so a point query formats its
answer without loading the sweep machinery."""

from __future__ import annotations

import math
from itertools import repeat
from typing import List, Optional, Sequence, Union

from .errors import ValidationError


def format_values(values: Sequence[Optional[float]],
                  sigfigs: Union[None, int, Sequence[int]]) -> List[str]:
    """The text of each value, in one call: to ``sigfigs`` significant figures
    (one count for all or one per value) with compact exponents, from one
    '%.*g' format, or the repr as a float where ``sigfigs`` is None. A None
    value reads "" to significant figures and nan as a repr."""
    known = [math.nan if v is None else v for v in values] if None in values else values
    if sigfigs is None:
        return list(map(repr, map(float, known)))
    args = [sigfigs] * (2 * len(values))
    if not isinstance(sigfigs, int):
        args[::2] = sigfigs
    args[1::2] = known
    text = "%.*g\n" * len(values) % tuple(args)
    # compact exponents: 5.17e+03 -> 5.17e3, 1e-05 -> 1e-5
    texts = text.replace("e+0", "e").replace("e+", "e").replace("e-0", "e-").split("\n")[:-1]
    return texts if known is values else ["" if v is None else t for v, t in zip(values, texts)]


def format_rows(rows: Sequence[Sequence[str]], format: str) -> str:
    """Lay out rows of text cells: ``table`` pads each column to its widest
    cell, two spaces apart, trailing space stripped; ``csv`` joins cells
    with commas and quotes a cell that holds a comma."""
    if format == "csv":
        return "".join(",".join(f'"{cell}"' if "," in cell else cell for cell in row) + "\n"
                       for row in rows)
    if format != "table":
        raise ValidationError(f"unknown format {format!r}")
    # a column at a time, as many as the shortest row has
    padded = [map(str.ljust, column, repeat(max(map(len, column)))) for column in zip(*rows)]
    lines = map("  ".join, zip(*padded)) if padded else repeat("", len(rows))
    return "\n".join(map(str.rstrip, lines)) + "\n" if rows else ""
