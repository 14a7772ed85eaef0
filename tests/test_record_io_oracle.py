"""The loan and yield readers on the shared CSV core against the readers they replaced.

Before the panel, loan and yield readers shared one chunked CSV core, the
record readers had a core of their own: `oracle_csv_chunks` below, which
opened the file itself, with `oracle_read_loans_csv` and
`oracle_read_yields_csv` on top of it, kept as they were. On seeded valid and
malformed loan and yield files, read at several chunk sizes, the readers under
test must give bit-identical `LoanBook` arrays and equal `YieldCurvePoint`
lists, or fail with the same `DataError` message.
"""

import csv
import io
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creditfactors import panel
from creditfactors.cli import main
from creditfactors.panel import (GRADES, TERMS, DataError, LoanBook, LoanRecord, Month,
                                 YieldCurvePoint, _at, _decoded)
from test_cli_fuzz import BAD_BYTES, BAD_CELLS, BAD_DATES

CHUNK_ROWS = 4096  # CSV rows held as text at a time by the oracle readers


def _codes(cells, table: dict, code) -> np.ndarray:
    """code(cell) for every cell, computed once per distinct cell; -1 where it fails."""
    for cell in set(cells).difference(table):
        try:
            table[cell] = code(cell)
        except ValueError:  # DataError included
            table[cell] = -1
    return np.fromiter(map(table.__getitem__, cells), np.int64, len(cells))


def oracle_csv_chunks(path, columns, what):
    """(line numbers, [cells of each of `columns`]) for every CHUNK_ROWS rows of a CSV.

    Other columns are ignored and a repeated name means its last one. Blank lines are
    skipped but counted, short rows padded with "". A longer or malformed row, or an
    undecodable byte, fails after the rows before it are yielded.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(_decoded(fh, path))
        try:
            header = next(reader, None)
        except csv.Error as exc:  # a cell past csv.field_size_limit, say
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
        if header is None or not set(columns).issubset(header):
            raise DataError(f"{path}: expected header with columns {','.join(columns)}")
        width = len(header)
        take = [max(j for j, name in enumerate(header) if name == col) for col in columns]
        rows, lines, fault, empty = [], [], None, True
        try:
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    if len(row) > width:
                        raise DataError(f"{path}:{reader.line_num}: expected {width} cells, "
                                        f"got {len(row)}")
                    row += [""] * (width - len(row))
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == CHUNK_ROWS:
                    yield lines, [[row[j] for row in rows] for j in take]
                    rows, lines, empty = [], [], False
        except DataError as exc:
            fault = exc
        except csv.Error as exc:  # a cell past csv.field_size_limit, say
            fault = DataError(f"{path}:{reader.line_num}: {exc}")
        if rows:
            yield lines, [[row[j] for row in rows] for j in take]
        if fault is not None:
            raise fault
        if empty and not rows:
            raise DataError(f"{path}: no {what} rows")


def oracle_read_loans_csv(path) -> LoanBook:
    """Loan-level CSV with header date,rate,grade,term (one loan per row)."""
    month_of, grade_of, term_of, parts = {}, {}, {}, []
    for lines, (dates, rates, grades, terms) in oracle_csv_chunks(
            path, ("date", "rate", "grade", "term"), "loan"):
        months = _codes(dates, month_of, lambda d: Month.parse(d).index)
        grade = _codes(grades, grade_of, lambda g: GRADES.index(g.strip()))
        term = _codes(terms, term_of, lambda t: TERMS.index(int(t)))
        try:
            rate = np.fromiter(map(float, rates), float, len(rates))
        except ValueError:  # a cell is not a number: flag every row, the loop finds it
            rate = np.full(len(rates), np.nan)
        bad = (months < 0) | (grade < 0) | (term < 0) | ~(np.isfinite(rate) & (rate > 0))
        for i in np.flatnonzero(bad):  # raises at the first row that really fails
            d, r, g, t = dates[i], rates[i], grades[i], terms[i]
            _at(path, lines[i], lambda: LoanRecord(Month.parse(d), float(r), g.strip(), int(t)))
        parts.append((months, term * len(GRADES) + grade, rate))  # term-major, as _BUCKETS
    return LoanBook(*(np.concatenate(col) for col in zip(*parts)))


def oracle_read_yields_csv(path) -> list:
    """Yield-curve CSV with header date,maturity_months,yield."""
    return [_at(path, line, lambda: YieldCurvePoint(
                month=Month.parse(d), maturity_months=int(m), yield_pct=float(y)))
            for lines, cols in oracle_csv_chunks(path, ("date", "maturity_months", "yield"),
                                                 "yield")
            for line, d, m, y in zip(lines, *cols)]


LOANS = ("date", "rate", "grade", "term")
SEPARATORS = "\x1c\x1d\x1e\x1f"  # the ASCII file, group, record and unit separators
YIELDS = ("date", "maturity_months", "yield")
NOTES = ["", "ok", "a,b", 'q"uote', "two\nlines", "cr\r\nlf", "#hash"]  # an extra column
BAD = {  # cells each required column may hold in a malformed file
    "date": BAD_DATES + ["2005-01-01-01", "2005-\n01"],
    "rate": BAD_CELLS + ["-0.0", "5e-324"],
    "grade": ["", "G", "a", "AB", " B ", "Ａ"],
    "term": ["", "48", "36.0", "0", " 60", "x", "٣٦"],
    "maturity_months": ["", "0", "-12", "12.5", "x", " 24 "],
    "yield": BAD_CELLS,
}


def valid_cell(column, rng) -> str:
    pick = lambda pool: pool[int(rng.integers(len(pool)))]  # noqa: E731
    if column == "date":
        m = Month.from_index(int(rng.integers(2005 * 12, 2013 * 12)))
        return pick([str(m), str(m), f"{m}-{int(rng.integers(1, 29)):02d}", f" {m}"])
    if column == "rate":
        return repr(float(rng.uniform(3.0, 30.0)))
    if column == "grade":
        return pick(GRADES + (" C",))
    if column == "term":
        return pick([str(t) for t in TERMS] + ["60 "])
    if column == "maturity_months":
        return pick(["3", "12", "36", "60", "120"])
    return repr(float(rng.normal(3.0, 2.0)))


def record_file(columns, seed, faults) -> bytes:
    """A seeded loan or yield file with `faults` defects of the kinds the readers report."""
    rng = np.random.default_rng([13, len(columns), seed])
    pick = lambda pool: pool[int(rng.integers(len(pool)))]  # noqa: E731
    header = list(rng.permutation(columns))
    for _ in range(int(rng.integers(0, 3))):  # an extra column, or a required one again
        name = pick(["note", "id", *columns])
        header.insert(int(rng.integers(len(header) + 1)), name)
    rows = [[valid_cell(name, rng) if name in columns else pick(NOTES) for name in header]
            for _ in range(int(rng.integers(1, 13)))]
    kinds = ["cell"] * 6 + ["drop", "extra", "blank", "newline", "header", "limit", "empty"]
    for _ in range(faults):
        kind, row = pick(kinds), pick(rows)
        if kind == "cell" and row:
            j = int(rng.integers(len(row)))
            row[j] = pick(BAD.get(header[j] if j < len(header) else "note", NOTES))
        elif kind == "drop":
            del row[int(rng.integers(len(row) + 1)):]
        elif kind == "extra":
            row.append(pick(BAD_CELLS))
        elif kind == "blank":
            rows.insert(int(rng.integers(len(rows) + 1)), [])
        elif kind == "newline" and row:
            row[int(rng.integers(len(row)))] += "\n"
        elif kind == "header":
            header = pick([header[1:], header + [header[0]], [h.upper() for h in header]])
        elif kind == "limit" and row:
            row[int(rng.integers(len(row)))] = "7" * (csv.field_size_limit() + 1)
        elif kind == "empty":
            rows = pick([[], [[]]])
            break
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=pick(["\n", "\r\n"]))
    writer.writerows([header] + rows)
    data = buf.getvalue().encode()
    if faults and rng.random() < 0.1:
        data = data[:int(rng.integers(len(data) + 1))]
    if faults and rng.random() < 0.1:
        at = int(rng.integers(len(data) + 1))
        data = data[:at] + pick(BAD_BYTES) + data[at:]
    return data


def outcome(read, path):
    """('ok', parsed result) or ('error', message) of one reader on path."""
    try:
        result = read(path)
    except DataError as exc:
        return ("error", str(exc))
    if isinstance(result, LoanBook):
        result = tuple((col.dtype.str, col.shape, col.tobytes())
                       for col in (result.months, result.buckets, result.rates))
    return ("ok", result)


READERS = {  # columns -> (reader under test, oracle)
    LOANS: (panel.read_loans_csv, oracle_read_loans_csv),
    YIELDS: (panel.read_yields_csv, oracle_read_yields_csv),
}


@pytest.fixture(scope="module")
def record_corpus(tmp_path_factory):
    """The path the files are read at, and (columns, seed, bytes, oracle outcome) of each."""
    path, corpus = tmp_path_factory.mktemp("records") / "r.csv", []
    for columns, (_, oracle) in READERS.items():
        for seed in range(700):
            data = record_file(columns, seed, faults=seed % 4)
            path.write_bytes(data)
            corpus.append((columns, seed, data, outcome(oracle, path)))
    return path, corpus


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, panel.CHUNK_ROWS])
def test_record_files_read_as_the_oracle_reads_them(record_corpus, monkeypatch, chunk_rows):
    monkeypatch.setattr(panel, "CHUNK_ROWS", chunk_rows)
    path, corpus = record_corpus
    kinds = {}
    for columns, seed, data, theirs in corpus:
        path.write_bytes(data)
        assert outcome(READERS[columns][0], path) == theirs, (columns, seed, data[:300])
        message = re.sub(r"^.*?r\.csv(:\d+)?: ", "", theirs[1]) if theirs[0] == "error" else "ok"
        kind = " ".join(message.split(" ")[:2])
        kinds[kind] = kinds.get(kind, 0) + 1
    # the corpus must reach every kind of fault the readers report
    for kind in ("ok", "unparseable date", "month out", "loan rate", "unknown grade",
                 "unsupported term", "invalid literal", "could not", "yield must",
                 "maturity must", "expected header", "expected 3", "expected 4", "field larger",
                 "cannot decode", "no loan", "no yield"):
        assert kinds.get(kind, 0) >= 5, (kind, kinds)


# ---------------------------------------------------------------------------
# the plain path: a loan file whose header is exactly the four loan columns
# ---------------------------------------------------------------------------

PLAIN = 3  # CHUNK_ROWS of the multi-chunk files below


def plain_lines(n, seed, order=LOANS, end="\n") -> list:
    """n valid loan lines as the plain path reads them: four unquoted, unpadded cells."""
    rng = np.random.default_rng([15, seed])
    lines = []
    for _ in range(n):
        month = Month.from_index(int(rng.integers(2005 * 12, 2013 * 12)))
        day = f"-{int(rng.integers(1, 29)):02d}" if rng.random() < 0.5 else ""
        cells = {"date": f"{month}{day}", "rate": repr(float(rng.uniform(3.0, 30.0))),
                 "grade": GRADES[int(rng.integers(6))], "term": str(TERMS[int(rng.integers(2))])}
        lines.append(",".join(cells[name] for name in order) + end)
    return lines


def late_cases() -> dict:
    """name -> the lines of a fault (or an oddity) that follows valid plain chunks."""
    cases = {
        "quoted cell": ['2005-01,"5.5",A,36\n'], "quoted comma": ['2005-01,"5,5",A,36\n'],
        "quoted newline": ['2005-01,"5\n', '5",A,36\n'], "quoted date": ['"2005-01",5,A,36\n'],
        "blank line": ["\n"], "blank crlf": ["\r\n"], "blank chunk": ["\n"] * PLAIN,
        "blank chunks": ["\n", "\r\n", "\r"] * PLAIN, "whitespace line": ["  \n"],
        "short row": ["2005-01,5.5,A\n"], "long row": ["2005-01,5.5,A,36,x\n"],
        "empty cells": [",,,\n"], "crlf": ["2005-01,5.5,A,36\r\n"], "lone cr": ["2005-01,5.5,A,36\r"],
        "padded date": [" 2005-01,5.5,A,36\n"], "padded grade": ["2005-01,5.5, C,36\n"],
        "padded term": ["2005-01,5.5,C,60 \n"], "tab term": ["2005-01,5.5,C,60\t\n"],
        "plus term": ["2005-01,5.5,C,+36\n"], "zero term": ["2005-01,5.5,C,036\n"],
        "long rate": ["2005-01," + "1" * 40 + ",C,36\n"],
        "long padded rate": ["2005-01,5" + " " * 40 + ",C,36\n"],
        "rate of 31": ["2005-01," + "1" * 31 + ",C,36\n"],
        "rate of 32": ["2005-01," + "1" * 32 + ",C,36\n"],
        "rate past the field limit": ["2005-01," + "7" * (csv.field_size_limit() + 1) + ",C,36\n"],
        "long date": ["2005-01-0123,5.5,A,36\n"], "long grade": ["2005-01,5.5,AB,36\n"],
        "NUL rate": ["2005-01,5\0,C,36\n"], "NUL date": ["2005-01\0,5,C,36\n"],
        "NUL term": ["2005-01,5,C,36\0\n"], "day 00": ["2005-01-00,5,C,36\n"],
        "no newline at the end": ["2005-01,5,C,36"],
    }
    for rate in BAD_CELLS + ["1_5", "１２", "١٢", "nan", "inf", "-0.0", "5e-324", "+5", ".5",
                             "1e-400", "1e400", "Infinity", "\x0b5", "5\u2000"]:
        cases[f"rate {rate!r}"] = [f"2005-01,{rate},A,36\n"]
    for sep in SEPARATORS:  # numpy strips these around a number; float() and int() refuse them
        cases[f"rate {sep + '5'!r}"] = [f"2005-01,{sep}5,A,36\n"]
        cases[f"rate {'5' + sep!r}"] = [f"2005-01,5{sep},A,36\n"]
        cases[f"term {sep + '36'!r}"] = [f"2005-01,5,A,{sep}36\n"]
        cases[f"term {'36' + sep!r}"] = [f"2005-01,5,A,36{sep}\n"]
    for date in BAD_DATES + ["2005-01-1", "2005-1-01", "٢٠٠٥-٠١", "2005-01-01-01", "2005_01"]:
        cases[f"date {date!r}"] = [f"{date},5,A,36\n"]
    for grade in BAD["grade"] + ["a", "F", "AA"]:
        cases[f"grade {grade!r}"] = [f"2005-01,5,{grade},36\n"]
    for term in BAD["term"] + ["+36", "036", "36 ", "60", "3_6", "-36", "99999999999999999999"]:
        cases[f"term {term!r}"] = [f"2005-01,5,A,{term}\n"]
    return cases


def plain_file(path, fault, offset, after, seed):
    """A plain loan file: two chunks of valid lines, `offset` more, the fault lines, then
    `after` valid lines. Returns the number of the line before the third chunk."""
    lines = plain_lines(2 * PLAIN + offset, seed) + fault + plain_lines(after, seed + 1)
    path.write_text("date,rate,grade,term\n" + "".join(lines), newline="")
    return 1 + 2 * PLAIN


@pytest.mark.parametrize("fault", list(late_cases().values()), ids=list(late_cases()))
def test_a_late_fault_reads_as_the_oracle_reads_it(tmp_path, monkeypatch, fault):
    # the plain path takes the first two chunks; whatever it cannot prove valid in the third,
    # the CSV core reads from that chunk's first line on, with the same outcome as the oracle;
    # numpy never sees a non-ASCII chunk
    monkeypatch.setattr(panel, "CHUNK_ROWS", PLAIN)
    core, firsts = panel._csv_chunks, []

    def spy(path, lines, first, *args):
        firsts.append(first)
        return core(path, lines, first, *args)

    monkeypatch.setattr(panel, "_csv_chunks", spy)
    load = np.loadtxt

    def ascii_only(lines, *args, **kwargs):  # numpy's int reader misreads digits past ASCII
        assert "".join(lines).isascii(), "the plain path handed numpy a non-ASCII chunk"
        return load(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", ascii_only)
    path = tmp_path / "loans.csv"
    for offset in range(PLAIN):
        for after in (0, 1, PLAIN + 1):
            chunk_start = plain_file(path, fault, offset, after, seed=offset)
            theirs = outcome(oracle_read_loans_csv, path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns on a chunk with no data
                assert outcome(panel.read_loans_csv, path) == theirs, (offset, after, theirs[:1])
            assert all(first >= chunk_start for first in firsts), (offset, after, firsts)
            firsts.clear()


def test_a_late_rate_fault_wins_over_a_later_undecodable_byte(tmp_path):
    # the bad rate and the bad byte share the second 4,096-line chunk; the lines read before
    # the byte failed to decode must reach the CSV core, which names the rate's line
    lines = plain_lines(panel.CHUNK_ROWS + 2, 1) + ["2005-01,-1.0,A,36\n"] + plain_lines(5000, 2)
    data = "date,rate,grade,term\n" + "".join(lines[:panel.CHUNK_ROWS + 2000])
    rest = "".join(lines[panel.CHUNK_ROWS + 2000:])
    path = tmp_path / "loans.csv"
    path.write_bytes(data.encode() + b"\xff" + rest.encode())
    theirs = outcome(oracle_read_loans_csv, path)
    line = panel.CHUNK_ROWS + 4
    assert theirs == ("error", f"{path}:{line}: loan rate must be positive, got -1.0")
    assert outcome(panel.read_loans_csv, path) == theirs


def yield_lines(n) -> list:
    """n valid yield lines as the plain path reads them."""
    return [f"{Month(2005, 1).plus(t // 3)},{12 * (t % 3 + 1)},{t % 7}.5\n" for t in range(n)]


LATE_BYTE = ": cannot decode text (invalid start byte)"
BYTE_FAULTS = {  # the bytes of a last header cell (None: a late byte), and the oracle's message
    "byte past a quote": (None, LATE_BYTE), "header byte": (b"\xff", LATE_BYTE),
    "header cell past the field limit": (b"7" * (csv.field_size_limit() + 1),
                                         f":1: field larger than field limit "
                                         f"({csv.field_size_limit()})"),
}


@pytest.mark.parametrize("chunk_rows", [PLAIN, panel.CHUNK_ROWS])
@pytest.mark.parametrize("columns", [LOANS, YIELDS], ids=["loans", "yields"])
@pytest.mark.parametrize("fault", list(BYTE_FAULTS))
def test_a_bad_byte_or_header_cell_fails_as_the_oracle_says(tmp_path, monkeypatch, fault,
                                                            columns, chunk_rows):
    # a quoted cell in the first chunk hands the CSV core the rest of the file; a byte that does
    # not decode more than 8 KiB (the text layer's first read) further on must end the read with
    # the oracle's DataError, and aggregate with exit 3, not a UnicodeDecodeError. So must a
    # header cell that does not decode or is past the field limit, which the header read meets
    monkeypatch.setattr(panel, "CHUNK_ROWS", chunk_rows)
    monkeypatch.chdir(tmp_path)
    files = {"loans.csv": "date,rate,grade,term\n2005-01,5.5,A,36\n",
             "yields.csv": "date,maturity_months,yield\n2005-01,36,2\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    name, quoted, lines = {
        LOANS: ("loans.csv", '2005-01,5.5,"A",36\n', plain_lines(panel.CHUNK_ROWS + 1000, 3)),
        YIELDS: ("yields.csv", '2005-01,12,"5.5"\n', yield_lines(panel.CHUNK_ROWS + 1000)),
    }[columns]
    path, (cell, message) = tmp_path / name, BYTE_FAULTS[fault]
    header, body = files[name].splitlines(True)[0].encode(), "".join(lines).encode()
    if cell is None:
        path.write_bytes(header + quoted.encode() + body + b"\xff" + "".join(lines[:5]).encode())
    else:
        path.write_bytes(header.replace(b"\n", b",x" + cell + b"\n") + body)
    theirs = outcome(READERS[columns][1], path)
    assert theirs == ("error", f"{path}{message}")
    assert outcome(READERS[columns][0], path) == theirs
    assert main(["aggregate", "--loans", "loans.csv", "--yields", "yields.csv"]) == 3


PLAIN_HEADERS = {  # a header that holds the loan columns, and the cells it adds to each line
    "plain": ("grade,rate,term,date", "", ""),
    "quoted": ('"grade","rate",term,"date"', "", ""),
    "extra column": ("id,grade,rate,term,date", "17,", ""),
    "repeated rate": ("rate,grade,rate,term,date", "-1.0,", ""),  # a repeat means its last one
    "trailing empty column": ("grade,rate,term,date,", "", ","),
}


@pytest.mark.parametrize("chunk_rows", [PLAIN, panel.CHUNK_ROWS])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("header", list(PLAIN_HEADERS))
def test_a_plain_book_never_reaches_the_csv_core(tmp_path, monkeypatch, header, chunk_rows,
                                                 extra, end):
    # whatever form the header takes, numpy reads every chunk: a silent fall-back to the CSV
    # core would still read the book right, so refuse it
    monkeypatch.setattr(panel, "CHUNK_ROWS", chunk_rows)
    path = tmp_path / "loans.csv"
    names, before, after = PLAIN_HEADERS[header]
    order = ("grade", "rate", "term", "date")
    lines = [before + line.removesuffix(end) + after + end
             for line in plain_lines(3 * chunk_rows + extra, 7, order, end)]
    path.write_text(names + end + "".join(lines), newline="")
    theirs = outcome(oracle_read_loans_csv, path)
    parsed, cored = spy_readers(monkeypatch)
    assert theirs[0] == "ok" and outcome(panel.read_loans_csv, path) == theirs
    assert cored == [], "the CSV core read a plain loan file"
    assert parsed == [lines[i:i + chunk_rows] for i in range(0, len(lines), chunk_rows)]


ASCII_CELL = st.characters(max_codepoint=127, exclude_characters=",\n\r" + SEPARATORS)


@settings(max_examples=1500, deadline=None, database=None, derandomize=True)
@given(cell=st.text(st.sampled_from("0123456789+-._eExXinfatyINFATY \t\x0b\x0c"), max_size=12)
       | st.text(ASCII_CELL, max_size=6))
@example(cell="+036\t")
@example(cell="1e-400")
@example(cell="-nan")
def test_numpy_reads_a_plain_number_as_python_does(cell):
    # the plain path hands loadtxt's f8 and i8 readers ASCII chunks that hold none of
    # \x1c-\x1f, where the CSV core uses float() and int(); a numpy that took more such cells,
    # or read one to another value, would change a loan book. (Past ASCII, numpy 2.4's int
    # reader takes some code points as digits, a different set from run to run, and has
    # crashed the process: it read '\u76fa' as 30410. So no such cell is tried here.)
    for dtype, parse in (("f8", float), ("i8", int)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty line is no data
                cells = np.loadtxt([cell + "\n"], dtype, delimiter=",", comments=None,
                                   quotechar=None, ndmin=1)
        except ValueError:
            continue
        if len(cells):
            theirs = np.array([parse(cell)], dtype)  # raises if Python refuses the cell
            assert cells.tobytes() == theirs.tobytes(), (cell, dtype, cells, theirs)


def spy_readers(monkeypatch):
    """Lists that fill with the lines of each np.loadtxt call on the file's own lines (not on
    the CSV core's joined cells) and with (first line, lines) of each call of the CSV core."""
    parsed, cored = [], []
    load, core = np.loadtxt, panel._csv_chunks

    def loadtxt(lines, *args, **kwargs):
        if sys._getframe(2).f_code is panel._chunk_parts.__code__:  # through _plain_chunk
            parsed.append(list(lines))
        return load(lines, *args, **kwargs)

    def csv_chunks(path, lines, first, *args):
        lines = list(lines)
        cored.append((first, len(lines)))
        return core(path, iter(lines), first, *args)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    monkeypatch.setattr(panel, "_csv_chunks", csv_chunks)
    return parsed, cored


ODD_LINES = {  # a line the plain path leaves to the CSV core, and what the core then reads
    "grade ' D'": ("2005-01,5.5, D,36\n", "line"), "padded date": (" 2005-01,5.5,C,36\n", "line"),
    "blank line": ("\n", "chunk"), "NUL date": ("2005-01\0,5.5,C,36\n", "chunk"),
    "a rate past the field limit": ("2005-01," + "0" * csv.field_size_limit() + "5.5,C,36\n",
                                    "chunk"),
    "quote": ('2005-01,"5.5",C,36\n', "rest"),
}
ODD_FAULTS = ("NUL date", "a rate past the field limit")  # the oracle refuses these


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, panel.CHUNK_ROWS])
@pytest.mark.parametrize("odd", list(ODD_LINES))
def test_the_plain_path_resumes_after_an_odd_chunk(tmp_path, monkeypatch, odd, chunk_rows):
    # the last line of chunk 2 of 5 is odd. Where numpy reads the chunk, the CSV core reads only
    # the odd line, with its own line number; otherwise it reads the chunk. numpy reads the
    # chunks after it; but a quote may open a cell that spans lines, so from a chunk with one
    # on the core reads the rest of the file
    monkeypatch.setattr(panel, "CHUNK_ROWS", chunk_rows)
    lines = plain_lines(5 * chunk_rows, 21)
    lines[3 * chunk_rows - 1], reads = ODD_LINES[odd]
    path = tmp_path / "loans.csv"
    path.write_text("date,rate,grade,term\n" + "".join(lines), newline="")
    theirs = outcome(oracle_read_loans_csv, path)
    assert theirs[0] == ("error" if odd in ODD_FAULTS else "ok"), theirs
    parsed, cored = spy_readers(monkeypatch)
    assert outcome(panel.read_loans_csv, path) == theirs
    chunks = [lines[i:i + chunk_rows] for i in range(0, len(lines), chunk_rows)]
    n = {"line": 1, "chunk": chunk_rows, "rest": 3 * chunk_rows}[reads]
    assert cored == [(2 + 3 * chunk_rows - (chunk_rows if reads != "line" else 1), n)]
    ends = reads == "rest" or theirs[0] == "error"
    assert {chunks.index(c) for c in parsed} - {2} == ({0, 1} if ends else {0, 1, 3, 4})


@pytest.mark.parametrize("odd, reads", [(" 2005-06,24,5.5\n", 1), ("\n", 3)],
                         ids=["padded date", "blank line"])
def test_a_yield_file_resumes_after_an_odd_line(tmp_path, monkeypatch, odd, reads):
    # yields share the plain path: a padded date leaves its one line to the CSV core, a blank
    # line its chunk (numpy skips a blank line); numpy reads the chunk after it
    monkeypatch.setattr(panel, "CHUNK_ROWS", 3)
    lines = [f"{Month(2005, 1).plus(t)},{12 * (t % 3 + 1)},{t}.5\n" for t in range(9)]
    lines[5] = odd
    path = tmp_path / "yields.csv"
    path.write_text("date,maturity_months,yield\n" + "".join(lines), newline="")
    theirs = outcome(oracle_read_yields_csv, path)
    assert theirs[0] == "ok" and len(theirs[1]) == 9 - (odd == "\n")
    parsed, cored = spy_readers(monkeypatch)
    assert outcome(panel.read_yields_csv, path) == theirs
    assert cored == [(8 - reads, reads)]
    assert parsed == [lines[0:3], lines[3:6], lines[6:9]]
