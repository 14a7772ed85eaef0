"""Small helpers for emitting result tables as CSV or markdown."""

import csv


def to_csv_text(header, rows, comment: str = None) -> str:
    """Render a table as CSV text with optional leading '#' comment lines."""
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    buf = []

    class _Sink:
        def write(self, text):
            buf.append(text)

    writer = csv.writer(_Sink(), lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(list(row))
    out.append("".join(buf).rstrip("\n"))
    return "\n".join(out) + "\n"


def to_markdown(header, rows) -> str:
    """Render a table as a GitHub-style pipe table."""
    cells = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[j]) for row in cells) for j in range(len(header))]

    def line(row):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"

    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(cells[0]), sep] + [line(r) for r in cells[1:]]) + "\n"
