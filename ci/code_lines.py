"""Print the code-line and physical-line counts of each module of src/purbounds, and the totals.

A physical line is any line of the file, docstrings, comments and blank
lines included, as `wc -l` counts them. A code line is a physical line that
holds at least one token other than a comment, a docstring or layout
(newlines, indentation, the encoding marker). A docstring is a string
literal that forms a whole statement. Lines spanned by a multi-line token
count once each.

    python ci/code_lines.py    # from the repository root

The counts are informational: no count fails the script.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at `path`."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _LAYOUT:
                if tok.type == tokenize.NEWLINE:
                    # a statement that is one string literal is a docstring
                    if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                        for t in statement:
                            lines.update(range(t.start[0], t.end[0] + 1))
                    statement = []
                continue
            statement.append(tok)
    return len(lines)


def main() -> None:
    print("  code  physical  module")
    totals = [0, 0]
    for path in sorted(Path("src/purbounds").glob("*.py")):
        counts = (code_lines(path), len(path.read_bytes().splitlines()))
        totals = [total + count for total, count in zip(totals, counts)]
        print(f"{counts[0]:6d}  {counts[1]:8d}  {path.name}")
    print(f"{totals[0]:6d}  {totals[1]:8d}  total")


if __name__ == "__main__":
    main()
