"""The bulk panel reader and writer against the row-by-row code they replaced.

`read_panel_csv` converts the cells of each chunk of rows at once, reads each
`YYYY-MM` or `YYYY-MM-DD` date in ASCII digits by one array rule, and re-reads
only the rows the bulk pass flags; `panel_csv_text` joins the float reprs of a
row. The row-by-row versions below are the oracles. On
seeded valid panels the two writers must give the same text and the two
readers bit-identical panels; on seeded malformed files the two readers must
fail with the same `DataError` message, or both succeed alike, at any chunk size.

The oracle reader drops a line that starts with '#' anywhere in the file; the
reader under test skips only the lines before the header, so that a quoted
header name whose continuation starts with '#' survives a round trip. Files
with a '#' line after the header are therefore left out of the corpus.
"""

import csv
import io
import math
import re

import numpy as np
import pytest

import creditfactors as cf
from creditfactors import panel
from creditfactors.panel import AlignedPanel, DataError, Month, _at, _decoded, _series_names
from test_cli_fuzz import BAD_BYTES, BAD_CELLS, BAD_DATES
from test_record_io_oracle import spy_readers


def oracle_read_panel_csv(path) -> AlignedPanel:
    """Panel CSV: first column 'date' as YYYY-MM, one series per remaining column.

    Empty cells are missing; non-finite numbers (nan, inf) are rejected.
    Leading '#' lines are metadata comments and are skipped; errors still name
    the line of the file. Months must be consecutive.
    """
    with open(path, newline="") as fh:
        numbered = [(i, ln) for i, ln in enumerate(_decoded(fh, path), start=1)
                    if not ln.startswith("#")]
    reader = csv.reader(ln for _, ln in numbered)
    months = []
    rows = []
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if not header or header[0] != "date":
            raise DataError(f"{path}: first column must be 'date'")
        if len(header) < 2:
            raise DataError(f"{path}: no series columns")
        names = _at(path, numbered[reader.line_num - 1][0], lambda: _series_names(header[1:]))
        for row in reader:
            i = numbered[reader.line_num - 1][0]
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{i}: expected {len(header)} cells, got {len(row)}")
            months.append(_at(path, i, lambda: Month.parse(row[0])))
            vals = []
            for cell in row[1:]:
                cell = cell.strip()
                if cell == "":
                    vals.append(np.nan)
                else:
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(f"{path}:{i}: unparseable number {cell!r}") from None
                    if not math.isfinite(value):
                        raise DataError(f"{path}:{i}: non-finite number {cell!r}")
                    vals.append(value)
            rows.append(vals)
    except csv.Error as exc:  # a cell past csv.field_size_limit, say
        raise DataError(f"{path}:{numbered[reader.line_num - 1][0]}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    for a, b in zip(months, months[1:]):
        if b - a != 1:
            raise DataError(f"{path}: months must be consecutive ({a} is followed by {b})")
    return AlignedPanel(months[0], names, np.array(rows))


def oracle_panel_csv_text(panel: AlignedPanel, comment: str = None) -> str:
    """A panel in the CSV layout read_panel_csv accepts. Missing -> empty cell.

    Values use the shortest decimal form that parses back to the same float,
    so a write/read cycle is lossless.
    """
    buf = io.StringIO()
    buf.writelines(f"# {line}\n" for line in (comment.splitlines() if comment else ()))
    writer = csv.writer(buf)
    writer.writerow(["date"] + list(panel.names))
    writer.writerows([str(panel.month_at(t))] + ["" if math.isnan(v) else repr(v) for v in row]
                     for t, row in enumerate(panel.values.tolist()))
    return buf.getvalue()


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                  1e-300, -1e-300, 1.7976931348623157e308, 0.1, 1 / 3, 1e16, -123456789.125]
PLAIN_NAMES = ["36-A", "60-F", "x", "UNRATE", "Z1", "spread level", "é", "1"]
ODD_NAMES = ["a,b", 'q"uote', '"', "new\nline", "cr\r\nlf", "\rcr", " lead", "trail ", ",",
             "#hash", "semi;colon"]
START_MONTHS = [Month(2005, 1), Month(1999, 12), Month(0, 1), Month(9996, 8), Month(1, 6)]


def random_panel(seed) -> AlignedPanel:
    """A panel of 1-40 rows and 1-6 columns with holes, all-NaN rows and extreme values."""
    rng = np.random.default_rng([10, seed])
    T, n = int(rng.integers(1, 41)), int(rng.integers(1, 7))
    values = rng.standard_normal((T, n)) * 10.0 ** rng.uniform(-6, 6, size=(T, n))
    special = rng.random((T, n)) < 0.15
    values[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
    values[rng.random((T, n)) < rng.choice([0.0, 0.1, 0.5])] = np.nan
    if rng.random() < 0.3:
        values[rng.integers(T)] = np.nan
    pool = PLAIN_NAMES + (ODD_NAMES if rng.random() < 0.5 else [])
    names = tuple(rng.choice(pool, size=n, replace=False).tolist())
    if rng.random() < 0.5:
        start = START_MONTHS[int(rng.integers(len(START_MONTHS)))]
    else:
        start = Month.from_index(int(rng.integers(1990 * 12, 2030 * 12)))
    return AlignedPanel(start, names, values)


def variant(text, rng) -> str:
    """The text with line ends, dates, spacing, blank lines and cells varied as a user might."""
    if rng.random() < 0.3:
        text = text.replace("\r\n", "\n")
    elif rng.random() < 0.3:
        text = text.replace("\n", "\r\n").replace("\r\r\n", "\r\n")
    lines = text.split("\n")
    first = next(i for i, ln in enumerate(lines) if ln.startswith("date"))
    if rng.random() < 0.2:
        lines[first + 1:] = [ln.replace(",", "-15,", 1) if ln[:1].isdigit() else ln
                             for ln in lines[first + 1:]]
    if rng.random() < 0.2:
        lines[first + 1:] = [ln.replace(",", " , ") for ln in lines[first + 1:]]
    if rng.random() < 0.2:
        lines.insert(int(rng.integers(first + 1, len(lines) + 1)), "")
    if rng.random() < 0.3:  # an empty cell holding a space
        lines[first + 1:] = [re.sub(r",(?=,|\r|$)", ", ", ln) if ln[:1].isdigit() else ln
                             for ln in lines[first + 1:]]
    return "\n".join(lines)


def has_mid_file_comment(data: bytes) -> bool:
    lines = data.decode("utf-8", "replace").splitlines()
    body = next((i for i, ln in enumerate(lines) if not ln.startswith("#")), len(lines))
    return any(ln.startswith("#") for ln in lines[body:])


def outcome(read, path):
    """('ok', start, names, value bytes) or ('error', message) of one reader on path."""
    try:
        p = read(path)
    except DataError as exc:
        return ("error", str(exc))
    return ("ok", p.start, p.names, p.values.shape, p.values.tobytes())


def valid_cases():
    for seed in range(400):
        p = random_panel(seed)
        comment = [None, "n_obs=3 transform=levels align=none", "a\nb c"][seed % 3]
        yield seed, p, comment


def test_writer_matches_the_oracle_and_reads_back_bit_identical(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    reparsed, parse = [], panel._cell_value  # the cells of the rows the bulk pass flagged

    def spy(cell):
        reparsed.append(cell)
        return parse(cell)

    monkeypatch.setattr(panel, "_cell_value", spy)
    flagged = 0
    for seed, p, comment in valid_cases():
        text = panel.panel_csv_text(p, comment)
        assert text == oracle_panel_csv_text(p, comment), seed
        path.write_bytes(text.encode())
        back = cf.read_panel_csv(path)
        assert back.start == p.start and back.names == p.names, seed
        assert back.values.tobytes() == p.values.tobytes(), seed
        assert not reparsed, seed  # no row of a written panel is flagged
        if has_mid_file_comment(text.encode()):
            continue
        data = variant(text, np.random.default_rng([11, seed])).encode()
        path.write_bytes(data)
        mine, theirs = outcome(cf.read_panel_csv, path), outcome(oracle_read_panel_csv, path)
        assert mine == theirs, (seed, data[:300])
        flagged += bool(reparsed)
        reparsed.clear()
    assert flagged > 100, flagged  # the variants must reach the flagged-row re-parse too


def serialize(rows, header_quoted, crlf) -> bytes:
    """Rows as CSV bytes: a quoted header (csv.writer) or raw joins, LF or CRLF ends."""
    end = "\r\n" if crlf else "\n"
    out = []
    for k, row in enumerate(rows):
        if k == 0 and header_quoted:
            buf = io.StringIO()
            csv.writer(buf, lineterminator=end).writerow(row)
            out.append(buf.getvalue())
        else:
            out.append(",".join(row) + end)
    return "".join(out).encode()


def malformed_file(seed) -> bytes:
    """A valid panel file with one to four faults of the CLI fuzz suite's kinds."""
    rng = np.random.default_rng([12, seed])
    p = random_panel(seed)
    text = panel.panel_csv_text(p, "n_obs=1 transform=levels" if rng.random() < 0.5 else None)
    comments = [ln for ln in text.splitlines(keepends=True) if ln.startswith("#")]
    rows = list(csv.reader(io.StringIO(text[len("".join(comments)):], newline="")))
    pick = lambda pool: pool[int(rng.integers(len(pool)))]  # noqa: E731
    for _ in range(int(rng.integers(1, 5))):
        i = int(rng.integers(len(rows)))
        row = rows[i]
        kind = pick(["cell", "cell", "date", "drop", "extra", "dup", "swap", "blank", "limit"])
        if kind == "cell" and len(row) > 1:
            row[int(rng.integers(1, len(row)))] = pick(BAD_CELLS)
        elif kind == "date" and row:
            row[0] = pick(BAD_DATES)
        elif kind == "drop" and row:
            del row[int(rng.integers(len(row)))]
        elif kind == "extra":
            row.append(pick(BAD_CELLS))
        elif kind == "dup":
            rows.insert(i, list(row))
        elif kind == "swap":
            j = int(rng.integers(len(rows)))
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "blank":
            rows[i] = []
        elif kind == "limit" and row:
            row[int(rng.integers(len(row)))] = "1" * (csv.field_size_limit() + 1)
    data = "".join(comments).encode() + serialize(rows, rng.random() < 0.5, rng.random() < 0.5)
    if rng.random() < 0.15:
        data = data[:int(rng.integers(len(data) + 1))]
    if rng.random() < 0.15:
        at = int(rng.integers(len(data) + 1))
        data = data[:at] + pick(BAD_BYTES) + data[at:]
    return data


@pytest.fixture(scope="module")
def malformed_corpus(tmp_path_factory):
    """The path the files are read at, and (seed, bytes, oracle outcome) of each file."""
    path, corpus = tmp_path_factory.mktemp("malformed") / "p.csv", []
    for seed in range(2500):
        data = malformed_file(seed)
        if not has_mid_file_comment(data):
            path.write_bytes(data)
            corpus.append((seed, data, outcome(oracle_read_panel_csv, path)))
    return path, corpus


def check_malformed_corpus(malformed_corpus):
    path, corpus = malformed_corpus
    kinds = {}
    for seed, data, theirs in corpus:
        path.write_bytes(data)
        assert outcome(cf.read_panel_csv, path) == theirs, (seed, data[:300])
        message = re.sub(r"^.*?p\.csv(:\d+)?: ", "", theirs[1]) if theirs[0] == "error" else "ok"
        kind = message.split(" ")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    # the corpus must reach every kind of fault the reader reports
    for kind in ("unparseable", "non-finite", "expected", "months", "field", "cannot",
                 "no", "month", "first", "ok"):
        assert kinds.get(kind, 0) >= 5, kinds


def test_malformed_files_fail_with_the_oracle_message(malformed_corpus):
    check_malformed_corpus(malformed_corpus)


def test_malformed_files_fail_with_the_oracle_message_across_chunk_edges(malformed_corpus,
                                                                         monkeypatch):
    """At two rows a chunk, faults and month gaps also fall across chunk edges."""
    monkeypatch.setattr(panel, "CHUNK_ROWS", 2)
    check_malformed_corpus(malformed_corpus)


@pytest.mark.parametrize("start", [Month(9999, 11), Month(2010, 1)])
def test_bulk_grid_takes_only_dates_the_parser_takes(tmp_path, start):
    """No panel runs past 9999-12, whose next label Month.parse rejects; nor does the reader."""
    path = tmp_path / "p.csv"
    n = min(4, 10000 * 12 - start.index)  # the months up to 9999-12
    if n < 4:
        with pytest.raises(DataError, match="runs past 9999-12"):
            AlignedPanel(start, ("x",), np.arange(4.0)[:, None])
        path.write_text("date,x\n" + "".join(f"{d},{v}\n" for v, d in enumerate(
            ["9999-11", "9999-12", "10000-01", "10000-02"])))
        assert "unparseable date '10000-01'" in outcome(oracle_read_panel_csv, path)[1]
    else:
        cf.write_panel_csv(AlignedPanel(start, ("x",), np.arange(4.0)[:, None]), path)
    assert outcome(cf.read_panel_csv, path) == outcome(oracle_read_panel_csv, path)
    assert panel._month_labels(start.index, n) == [str(start.plus(t)) for t in range(n)]


ODD_DATES = {  # a spelling of a month that the array rule leaves to Month.parse
    "NUL": "{}\0", "NUL after a day": "{}-01\0", "no-break space": "\xa0{}",
    "long day": "{}-0155", "Arabic-Indic digits": "{}",
}


@pytest.mark.parametrize("row", [0, 1, 3, 5], ids=["first", "second", "next first", "last"])
@pytest.mark.parametrize("odd", list(ODD_DATES))
def test_an_odd_date_reads_as_the_oracle_reads_it(tmp_path, monkeypatch, odd, row):
    # at three rows a chunk, rows 0 and 3 open a chunk; numpy's U dtype drops a NUL that ends
    # a date, so a chunk whose dates hold one is read again row by row
    monkeypatch.setattr(panel, "CHUNK_ROWS", 3)
    dates = [str(Month(2010, 1).plus(t)) for t in range(6)]
    dates[row] = ODD_DATES[odd].format(dates[row])
    if odd == "Arabic-Indic digits":
        dates[row] = dates[row].translate({ord("0") + d: 0x660 + d for d in range(10)})
    path = tmp_path / "p.csv"
    path.write_text("date,x\n" + "".join(f"{d},{t}.5\n" for t, d in enumerate(dates)),
                    newline="")
    theirs = outcome(oracle_read_panel_csv, path)
    assert theirs[0] == ("error" if "NUL" in odd or odd == "long day" else "ok"), theirs
    assert outcome(cf.read_panel_csv, path) == theirs


def test_a_date_at_the_field_limit_reads_in_small_memory(tmp_path):
    """The array rule reads 11 characters of each date, however long the longest one is."""
    import tracemalloc
    dates = [str(Month(2010, 1).plus(t)) for t in range(16)]
    dates[5] = "1" * csv.field_size_limit()  # the longest cell csv yields
    path = tmp_path / "p.csv"
    path.write_text("date,x\n" + "".join(f"{d},{t}.5\n" for t, d in enumerate(dates)))
    theirs = outcome(oracle_read_panel_csv, path)
    assert theirs[0] == "error" and "unparseable date '1111" in theirs[1]
    tracemalloc.start()
    try:
        assert outcome(cf.read_panel_csv, path) == theirs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak  # a 16 x 131,072 UCS4 copy of the dates alone is 8 MiB


def test_a_date_left_to_the_parser_keeps_its_values_in_the_bulk_pass(tmp_path, monkeypatch):
    """A padded date is stripped in the CSV core; no value of its row is re-read."""
    reparsed = []
    monkeypatch.setattr(panel, "_cell_value", reparsed.append)
    dates = [f" {Month(2010, 1).plus(t)}" for t in range(6)]
    path = tmp_path / "p.csv"
    path.write_text("date,x\n" + "".join(f"{d},{t}.5\n" for t, d in enumerate(dates)))
    p = cf.read_panel_csv(path)
    assert not reparsed
    assert p.start == Month(2010, 1) and p.values.ravel().tolist() == [t + 0.5 for t in range(6)]


def test_a_date_in_other_digits_reads_by_the_row_rule(tmp_path):
    """A chunk holding a date in Arabic-Indic digits is not ASCII, so numpy never sees it."""
    dates = [f" {Month(2010, 1).plus(t)}" for t in range(6)]
    dates[4] = dates[4].translate({ord("0") + d: 0x660 + d for d in range(10)})
    path = tmp_path / "p.csv"
    path.write_text("date,x\n" + "".join(f"{d},{t}.5\n" for t, d in enumerate(dates)))
    p = cf.read_panel_csv(path)
    assert p.start == Month(2010, 1) and p.values.ravel().tolist() == [t + 0.5 for t in range(6)]


ODD_ROWS = {  # a row the plain path leaves to the CSV core, and what the core then reads
    "padded date": (" {},1.5,2.5\n", "line"), "empty cell": ("{},,2.5\n", "chunk"),
    "blank line": ("\n{},1.5,2.5\n", "chunk"), "NUL date": ("{}\0,1.5,2.5\n", "chunk"),
    "a value past the field limit": ("{}," + "0" * csv.field_size_limit() + "1.5,2.5\n", "chunk"),
    "quote": ('{},"1.5",2.5\n', "rest"),
}
ODD_FAULTS = ("NUL date", "a value past the field limit")  # the oracle refuses these


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, panel.CHUNK_ROWS])
@pytest.mark.parametrize("odd", list(ODD_ROWS))
def test_the_plain_path_resumes_after_an_odd_chunk(tmp_path, monkeypatch, odd, chunk_rows):
    # the last line of chunk 2 of 5 is odd (a blank line pushes a row into chunk 3). Where numpy
    # reads the chunk, the CSV core reads only the odd line; otherwise it reads the chunk, and
    # numpy reads the chunks after it; but a quote may open a cell that spans lines, so from a
    # chunk with one on the core reads the rest of the file
    monkeypatch.setattr(panel, "CHUNK_ROWS", chunk_rows)
    dates = [str(Month(1000, 1).plus(t)) for t in range(5 * chunk_rows)]
    lines = [f"{d},{t}.5,{-t}.25\n" for t, d in enumerate(dates)]
    at, (row, reads) = 3 * chunk_rows - 1, ODD_ROWS[odd]
    lines[at:at + 1] = row.format(dates[at]).splitlines(keepends=True)
    path = tmp_path / "p.csv"
    path.write_text("# a comment\ndate,x,y\n" + "".join(lines), newline="")
    theirs = outcome(oracle_read_panel_csv, path)
    assert theirs[0] == ("error" if odd in ODD_FAULTS else "ok"), theirs
    parsed, cored = spy_readers(monkeypatch)
    assert outcome(cf.read_panel_csv, path) == theirs
    chunks = [lines[i:i + chunk_rows] for i in range(0, len(lines), chunk_rows)]
    n = {"line": 1, "chunk": chunk_rows, "rest": len(lines) - 2 * chunk_rows}[reads]
    start = 3 + 3 * chunk_rows - (chunk_rows if reads != "line" else 1)
    assert cored == [(start, n)]  # the odd lines alone: the header was read before the chunks
    ends = reads == "rest" or theirs[0] == "error"
    assert {chunks.index(c) for c in parsed} - {2} == (
        {0, 1} if ends else set(range(len(chunks))) - {2})
