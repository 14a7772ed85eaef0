"""Small helpers for emitting result tables as CSV or markdown."""

import csv
import io


def to_csv_text(header, rows, comment: str = None) -> str:
    """Render a table as CSV text with optional leading '#' comment lines."""
    buf = io.StringIO()
    buf.writelines(f"# {line}\n" for line in (comment.splitlines() if comment else ()))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def to_markdown(header, rows) -> str:
    """Render a table as a GitHub-style pipe table."""
    cells = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[j]) for row in cells) for j in range(len(header))]

    def line(row):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"

    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(cells[0]), sep] + [line(r) for r in cells[1:]]) + "\n"
