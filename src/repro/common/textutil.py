"""Low-level string/sequence helpers used by the parsers.

Longest common subsequence extraction for LKE's template generation,
and a small table formatter for the report renderers.  LKE's weighted
edit distance lives with its clustering in :mod:`repro.parsers.lke`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.common.errors import ValidationError


def longest_common_subsequence(
    a: Sequence[str], b: Sequence[str]
) -> list[str]:
    """Longest common subsequence of two token sequences.

    Used by LKE's template generation: the template of a cluster is the
    common token skeleton of its members.
    """
    n, m = len(a), len(b)
    lengths = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = lengths[i]
        below = lengths[i + 1]
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = max(below[j], row[j + 1])
    # Recover one LCS by walking the table.
    result: list[str] = []
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            result.append(a[i])
            i += 1
            j += 1
        elif lengths[i + 1][j] >= lengths[i][j + 1]:
            i += 1
        else:
            j += 1
    return result


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a plain-text table with left-aligned, width-padded columns."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValidationError("row width must match header width")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in cells
    )
    return "\n".join(lines)
