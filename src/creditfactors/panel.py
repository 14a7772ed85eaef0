"""Monthly panel construction.

Loan-level records are averaged into grade/term series, turned into spreads
over matching-maturity risk-free yields, differenced, and aligned with other
monthly series on a single contiguous grid. All rates, yields, and spreads are
percent per annum. Missing entries are NaN. Panels are immutable; every
transform returns a new panel.

Loan and yield files stream from disk, panel files are decoded whole. After the csv module reads a
header, numpy's C reader tries the data CHUNK_ROWS lines at a time and hands the rows it cannot
prove valid to the CSV core, which reads all lines from a quote or a bad byte on.
"""

import csv
import functools
import io
import math
import re
from itertools import chain, count, islice
from typing import Iterable, Sequence

import numpy as np

from ._record import Record, readonly
from .errors import DataError, NumericalError
from .regress import INTERCEPT

GRADES = ("A", "B", "C", "D", "E", "F")
TERMS = (36, 60)
_BUCKETS = tuple((grade, term) for term in TERMS for grade in GRADES)  # LoanBook code -> bucket
CHUNK_ROWS = 4096  # CSV rows held as text and converted at a time by each reader
_MONTHS = tuple(f"-{m:02d}" for m in range(1, 13))  # the month part of str(Month)
_END = 10000 * 12  # Month.index of 10000-01, the first month past the 'YYYY' years


@functools.total_ordering
class Month(Record):
    """Calendar month, the atomic unit of every time grid; ordered as (year, month)."""

    __slots__ = ("year", "month")

    def __init__(self, year: int, month: int):
        for label, value in (("month", month), ("year", year)):
            if not isinstance(value, (int, np.integer)):
                raise DataError(f"{label} must be an integer, got {value!r}")
        year, month = int(year), int(month)
        if not 1 <= month <= 12:
            raise DataError(f"month out of range: {month}")
        if not 0 <= year <= 9999:  # the years a 'YYYY' date can name
            raise DataError(f"year out of range: {year}")
        self._set(year, month)

    def __lt__(self, other):  # total_ordering derives <=, > and >= from < and ==
        return self._key() < other._key() if other.__class__ is Month else NotImplemented

    @classmethod
    def parse(cls, text: str) -> "Month":
        """Parse 'YYYY-MM' or 'YYYY-MM-DD'; a day of month is discarded."""
        m = re.fullmatch(r"(\d{4})-(\d{2})(?:-(\d{2}))?", text.strip())
        if m is None:
            raise DataError(f"unparseable date {text!r} (expected YYYY-MM or YYYY-MM-DD)")
        return cls(int(m.group(1)), int(m.group(2)))

    @property
    def index(self) -> int:
        return self.year * 12 + self.month - 1

    @classmethod
    def from_index(cls, idx: int) -> "Month":
        return cls(idx // 12, idx % 12 + 1)

    def plus(self, months: int) -> "Month":
        return Month.from_index(self.index + months)

    def __sub__(self, other: "Month") -> int:
        return self.index - other.index

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


class LoanRecord(Record):
    """One originated loan, reduced to the fields the panel needs."""

    __slots__ = ("month", "rate", "grade", "term")

    def __init__(self, month: Month, rate: float, grade: str, term: int):
        if not math.isfinite(rate):
            raise DataError(f"loan rate must be finite, got {rate}")
        if not rate > 0:
            raise DataError(f"loan rate must be positive, got {rate}")
        if grade not in GRADES:
            raise DataError(f"unknown grade {grade!r} (expected one of {GRADES})")
        if term not in TERMS:
            raise DataError(f"unsupported term {term} (expected one of {TERMS})")
        self._set(month, rate, grade, term)


class LoanBook(Record):
    """Loans as read-only columns: Month.index, _BUCKETS code and rate of each loan."""

    __slots__ = ("months", "buckets", "rates")
    __eq__, __hash__ = object.__eq__, object.__hash__  # columns do not compare as one value

    def __init__(self, months, buckets, rates):
        self._set(readonly(months, np.int64), readonly(buckets, np.int64), readonly(rates))
        shape = self.rates.shape
        if len(shape) != 1 or not self.months.shape == self.buckets.shape == shape:
            raise DataError("loan book months, buckets and rates must be 1-D and of one length")
        if not np.all((self.buckets >= 0) & (self.buckets < len(_BUCKETS))):
            raise DataError(f"loan book bucket codes must lie in [0, {len(_BUCKETS)})")
        if not np.all(np.isfinite(self.rates) & (self.rates > 0)):
            raise DataError("loan book rates must be finite and positive")

    @classmethod
    def from_records(cls, records: Iterable[LoanRecord]) -> "LoanBook":
        rows = [(r.month.index, _BUCKETS.index((r.grade, r.term)), r.rate) for r in records]
        return cls(*(zip(*rows) if rows else ((), (), ())))

    def __len__(self) -> int:
        return len(self.rates)

    def __iter__(self):
        for m, b, r in zip(self.months.tolist(), self.buckets.tolist(), self.rates.tolist()):
            yield LoanRecord(Month.from_index(m), r, *_BUCKETS[b])


class YieldCurvePoint(Record):
    """Risk-free yield for one month and maturity, percent per annum."""

    __slots__ = ("month", "maturity_months", "yield_pct")

    def __init__(self, month: Month, maturity_months: int, yield_pct: float):
        if not np.isfinite(yield_pct):
            raise DataError(f"yield must be finite, got {yield_pct}")
        if maturity_months <= 0:
            raise DataError(f"maturity must be positive, got {maturity_months}")
        self._set(month, maturity_months, yield_pct)


def _series_names(names) -> tuple:
    """names as a tuple; a name that is empty, not a string, or repeated is a DataError."""
    names = tuple(names)
    if not all(isinstance(n, str) and n for n in names):
        raise DataError(f"series names must be nonempty strings, got {list(names)}")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"duplicate series names: {dupes}")
    return names


class AlignedPanel(Record):
    """Named series on one contiguous monthly grid.

    names holds one nonempty, distinct string per column. values is a T x n
    float64 matrix; row t belongs to month start.plus(t) and NaN marks a
    missing observation. The matrix is stored read-only.
    """

    __slots__ = ("start", "names", "values")

    def __init__(self, start: Month, names, values):
        vals = readonly(values)
        if vals.ndim != 2:
            raise DataError(f"panel values must be 2-D, got shape {vals.shape}")
        if vals.shape[0] < 1:
            raise DataError("panel must have at least one row")
        names = _series_names(names)
        if vals.shape[1] != len(names):
            raise DataError(f"{len(names)} series names but {vals.shape[1]} value columns")
        if start.index + len(vals) > _END:
            raise DataError(f"panel grid runs past 9999-12 ({len(vals)} months from {start})")
        self._set(start, names, vals)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]

    def month_at(self, t: int) -> Month:
        return self.start.plus(t)

    @property
    def end(self) -> Month:
        return self.start.plus(self.n_obs - 1)

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"no series named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self._index(name)]

    def select(self, names: Sequence[str]) -> "AlignedPanel":
        """Sub-panel with the given columns, in the given order, same grid."""
        idx = [self._index(name) for name in names]
        return AlignedPanel(self.start, tuple(self.names[j] for j in idx), self.values[:, idx])

    def is_complete(self) -> bool:
        return not np.isnan(self.values).any()

    def complete_column(self, name: str) -> np.ndarray:
        """Longest contiguous fully observed stretch of one column."""
        col = self.column(name)
        a, b = _longest_true_run(~np.isnan(col))
        if b <= a:
            raise DataError(f"series {name!r} has no observations")
        return col[a:b]


def _longest_true_run(mask: np.ndarray) -> tuple:
    """(start, stop) of the longest run of True; earliest wins ties; (0, 0) if none."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False])).astype(np.int8)))
    if not len(edges):
        return (0, 0)
    k = int(np.argmax(edges[1::2] - edges[::2]))  # argmax takes the first of equal runs
    return int(edges[2 * k]), int(edges[2 * k + 1])


# ---------------------------------------------------------------------------
# construction and transforms
# ---------------------------------------------------------------------------

def aggregate_loans(loans) -> AlignedPanel:
    """Average loan rates into one mean-rate series per term/grade bucket.

    loans is a LoanBook or an iterable of LoanRecord. The grid spans the earliest to the latest
    origination month. Buckets with no loans in a month are missing (NaN), never zero; buckets
    with no loans anywhere produce no column. Means are unweighted averages of the loan rates,
    summed in input order; a mean that overflows raises NumericalError.
    """
    book = loans if isinstance(loans, LoanBook) else LoanBook.from_records(loans)
    if not len(book):
        raise DataError("no loan records")
    lo = int(book.months.min())
    shape = (int(book.months.max()) - lo + 1, len(_BUCKETS))
    cell = (book.months - lo) * len(_BUCKETS) + book.buckets
    # bincount adds the weights in input order, so each sum is the running sum
    sums = np.bincount(cell, weights=book.rates, minlength=math.prod(shape)).reshape(shape)
    counts = np.bincount(cell, minlength=math.prod(shape)).reshape(shape)
    means = np.divide(sums, counts, out=np.full(shape, np.nan), where=counts > 0)
    observed = np.flatnonzero(counts.any(axis=0))
    names = tuple("{1}-{0}".format(*_BUCKETS[j]) for j in observed)
    return _finite(AlignedPanel(Month.from_index(lo), names, means[:, observed]), "mean rate")


def _finite(panel: AlignedPanel, what) -> AlignedPanel:
    """panel, unless a value overflowed: then NumericalError naming its series and month."""
    rows, cols = np.nonzero(np.isinf(panel.values))
    if len(rows):
        raise NumericalError(f"{what} of series {panel.names[cols[0]]!r} in "
                             f"{panel.month_at(int(rows[0]))} overflows double precision")
    return panel


def term_of_series(name: str) -> int:
    """Maturity in months encoded in a '<term>-<grade>' series name."""
    m = re.fullmatch(r"(\d+)-([A-Z])", name)
    if m is None:
        raise DataError(f"series {name!r} does not follow the '<term>-<grade>' naming")
    return int(m.group(1))


def to_spreads(panel: AlignedPanel, curve: Iterable[YieldCurvePoint]) -> AlignedPanel:
    """Subtract the matching-maturity risk-free yield from every rate.

    Every observed (month, term) cell needs a curve point; a missing one is an
    error naming the month and maturity. Missing rates stay missing; a spread that
    overflows raises NumericalError.
    """
    lookup = {}
    for pt in curve:
        key = (pt.month.index, pt.maturity_months)
        if key in lookup and lookup[key] != pt.yield_pct:
            raise DataError(f"conflicting yields for {pt.month} at {pt.maturity_months} months")
        lookup[key] = pt.yield_pct
    months = range(panel.start.index, panel.start.index + panel.n_obs)
    out, yields = np.array(panel.values), {}  # yields: one column per term
    for j, name in enumerate(panel.names):
        term = term_of_series(name)
        if term not in yields:
            yields[term] = np.array([lookup.get((i, term), np.nan) for i in months])
        observed = ~np.isnan(out[:, j])
        missing = np.flatnonzero(observed & np.isnan(yields[term]))
        if len(missing):
            raise DataError(f"no yield for {panel.month_at(int(missing[0]))} at maturity {term} "
                            "months")
        with np.errstate(over="ignore"):  # _finite refuses an overflow, named
            np.subtract(out[:, j], yields[term], out=out[:, j], where=observed)
    return _finite(AlignedPanel(panel.start, panel.names, out), "spread")


def first_difference(panel: AlignedPanel) -> AlignedPanel:
    """Month-over-month change of every series; the grid loses its first month.

    A difference is observed only where both neighbouring levels are. Every
    column must contain at least two consecutive observations.
    """
    if panel.n_obs < 2:
        raise DataError("cannot difference a panel with fewer than two rows")
    diff = panel.values[1:] - panel.values[:-1]
    for j, name in enumerate(panel.names):
        if not np.any(~np.isnan(diff[:, j])):
            raise DataError(f"series {name!r} has fewer than two consecutive observations")
    return AlignedPanel(panel.start.plus(1), panel.names, diff)


def interpolate_quarterly(points, name: str = "interpolated") -> AlignedPanel:
    """Linear interpolation of sparse (typically quarterly) anchors to months.

    points is a sequence of (Month, value) pairs with strictly increasing
    months. The output grid runs from the first anchor to the last; anchors
    are reproduced exactly and nothing is extrapolated past either end.
    """
    pts = [(m, float(v)) for m, v in points]
    if len(pts) < 2:
        raise DataError("need at least two anchor points to interpolate")
    months = [m for m, _ in pts]
    for a, b in zip(months, months[1:]):
        if b - a <= 0:
            raise DataError(f"anchor dates must be strictly increasing ({a} then {b})")
    if any(not np.isfinite(v) for _, v in pts):
        raise DataError("anchor values must be finite")
    start = months[0]
    n_months = months[-1] - start + 1
    xs = np.array([m - start for m in months], dtype=float)
    ys = np.array([v for _, v in pts])
    grid = np.interp(np.arange(n_months, dtype=float), xs, ys)
    return AlignedPanel(start, (name,), grid[:, None])


def align(panels: Sequence[AlignedPanel]) -> AlignedPanel:
    """Merge panels onto their intersect grid.

    The grid is the longest contiguous run of months on which every column of
    every input is observed (the earliest run on ties); errors when no fully
    observed month exists. The result is therefore complete and a contiguous
    sub-grid of each input's span.
    """
    panels = list(panels)
    if not panels:
        raise DataError("no panels to align")
    lo = min(p.start for p in panels)
    n_months = max(p.end for p in panels) - lo + 1
    names = tuple(n for p in panels for n in p.names)
    merged = np.full((n_months, len(names)), np.nan)
    j = 0
    for p in panels:
        off = p.start - lo
        merged[off:off + p.n_obs, j:j + p.n_series] = p.values
        j += p.n_series
    complete = ~np.isnan(merged).any(axis=1)
    a, b = _longest_true_run(complete)
    if b <= a:
        raise DataError("intersect alignment found no month where every column is observed")
    return AlignedPanel(lo.plus(a), names, merged[a:b])


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def _decoded(fh, path):
    """The lines of a text file; a byte that does not decode is a DataError naming it."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode text ({exc.reason})") from None


def _header(path, lines, first):
    """(the first CSV row of the decoded lines of path from line first on, or None if there is
    none, and the number of its last line); a bad cell or byte is a DataError."""
    reader = csv.reader(lines)
    try:
        return next(reader, None), first - 1 + reader.line_num
    except csv.Error as exc:  # a cell past csv.field_size_limit, say
        raise DataError(f"{path}:{first - 1 + reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode text ({exc.reason})") from None


def _csv_chunks(path, lines, first, take, width, pad):
    """(line numbers, [cells of each column in take]) for every CHUNK_ROWS data rows of width
    cells in the decoded lines of path from line first on. Blank lines are skipped but counted.
    A short row is padded with "" if pad, else fails as a long row does. A bad row, cell or byte
    fails after the rows before it are yielded."""
    reader, skip = csv.reader(lines), first - 1
    rows, at, fault = [], [], None
    try:
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                if len(row) > width or not pad:
                    raise DataError(f"{path}:{skip + reader.line_num}: expected {width} cells, "
                                    f"got {len(row)}")
                row += [""] * (width - len(row))
            rows.append(row)
            at.append(skip + reader.line_num)
            if len(rows) == CHUNK_ROWS:
                yield at, [[row[j] for row in rows] for j in take]
                rows, at = [], []
    except DataError as exc:  # a long row, or a byte that does not decode
        fault = exc
    except csv.Error as exc:  # a cell past csv.field_size_limit, say
        fault = DataError(f"{path}:{skip + reader.line_num}: {exc}")
    if rows:
        yield at, [[row[j] for row in rows] for j in take]
    if fault is not None:
        raise fault


def _raising(exc):
    """No lines, then exc: hands a fault that a line iterator raised on to the CSV core."""
    raise exc
    yield


def _plain_chunk(lines, text, dtype):
    """np.loadtxt of lines (joined, text) as unquoted cells of dtype; None where numpy refuses them
    or may read them otherwise than the CSV core: a blank line (numpy skips it), a line past the
    field limit, a NUL, any of U+001C-U+001F or a character past ASCII (see README)."""
    limit, odd = csv.field_size_limit(), any(c in text for c in "\0\x1c\x1d\x1e\x1f")
    if (odd or not text.isascii() or not text.strip("\r\n")
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    try:
        cells = np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except ValueError:  # a wrong cell count or a number numpy refuses
        return None
    return cells if len(cells) == len(lines) else None


def _chunk_parts(path, lines, first, dtype, plain, core, what):
    """The parts of path's lines after line first; none is a DataError. plain(_plain_chunk cells)
    gives a chunk's part and a mask of its rows that core(lines, first), the CSV core, reads alike;
    the core reads the lines from the first unmasked row to the last. From a chunk with a quote (it
    may open a cell that spans lines) or a bad byte on, it reads them all."""
    parts = []
    for first in count(first, CHUNK_ROWS):
        chunk = []
        try:
            chunk.extend(islice(lines, CHUNK_ROWS))
        except UnicodeDecodeError as exc:  # extend keeps the lines read before the fault
            lines, dtype = _raising(exc), None  # no dtype: the rest is a decode fault
        if not chunk and dtype is not None:  # every line is read
            break
        text = "".join(chunk)
        if dtype is None or '"' in text:
            parts += core(chain(chunk, _decoded(lines, path)), first)
            break
        cells = _plain_chunk(chunk, text, dtype)
        part, ok = (None, np.zeros(len(chunk), bool)) if cells is None else plain(cells)
        bad = np.flatnonzero(~ok).tolist()
        i, j = (bad[0], bad[-1] + 1) if bad else (len(chunk),) * 2
        if i:
            parts.append(tuple(col[:i] for col in part))
        if bad:
            parts += core(chunk[i:j], first + i)
        if j < len(chunk):
            parts.append(tuple(col[j:] for col in part))
    if not parts:
        raise DataError(f"{path}: no {what} rows")
    return parts


def _record_parts(path, columns, what, plain, core):
    """_chunk_parts of a loan or yield file, short rows padded. columns maps each column to its
    plain dtype, a repeated one its last; numpy reads any other as S0, so it counts every cell."""
    with open(path, newline="") as fh:
        row, line = _header(path, fh, 1)
        if row is None or not set(columns).issubset(row):
            raise DataError(f"{path}: expected header with columns {','.join(columns)}")
        take = {max(j for j, name in enumerate(row) if name == col): col for col in columns}
        dtype = [(take.get(j, str(j)), columns.get(take.get(j), "S0")) for j in range(len(row))]
        return _chunk_parts(path, fh, line + 1, dtype, plain, lambda lines, first: core(
            _csv_chunks(path, lines, first, take, len(row), True)), what)


def _at(path, line, make):
    """make(); a ValueError (DataError included) is re-raised naming the file and line."""
    try:
        return make()
    except ValueError as exc:
        raise DataError(f"{path}:{line}: {exc}") from None


def _codes(cells, table: dict, code) -> np.ndarray:
    """code(cell) for every cell, computed once per distinct cell; -1 where it fails."""
    for cell in set(cells).difference(table):
        try:
            table[cell] = code(cell)
        except ValueError:  # DataError included
            table[cell] = -1
    return np.fromiter(map(table.__getitem__, cells), np.int64, len(cells))


def _month_index(dates) -> np.ndarray:
    """Month.index of each YYYY-MM or YYYY-MM-DD in ASCII digits of an S11 or U11 array, else -1;
    it reads code points, NUL past a date's end, so a date that fills all 11 fails."""
    text = np.ascontiguousarray(dates)
    points = text.view(f"u{text.itemsize // 11}").reshape(-1, 11)
    digit = points - ord("0")  # unsigned: below 10 only for a digit
    form = (points - (digit < 10) * digit).view(text.dtype)[:, 0]  # each digit as '0'
    digits = digit[:, :7].astype(np.int64)
    month = digits[:, 5] * 10 + digits[:, 6]
    forms = np.array(["0000-00", "0000-00-00"], text.dtype)
    ok = ((form == forms[0]) | (form == forms[1])) & (month >= 1) & (month <= 12)
    return np.where(ok, digits[:, :4] @ [12000, 1200, 120, 12] + month - 1, -1)


def read_loans_csv(path) -> LoanBook:
    """Loan-level CSV with header date,rate,grade,term (one loan per row)."""
    def plain(cells):  # the part and which rows the CSV core reads alike
        grade_of = np.full(257, -1)  # the GRADES code of a grade's two bytes as one number
        grade_of[[ord(g) for g in GRADES]] = range(len(GRADES))
        grade = grade_of[np.ascontiguousarray(cells["grade"]).view("<u2").clip(max=256)]
        months, rate = _month_index(cells["date"]), cells["rate"]
        term = np.select([cells["term"] == t for t in TERMS], range(len(TERMS)), -1)
        ok = (months >= 0) & (grade >= 0) & (term >= 0) & np.isfinite(rate) & (rate > 0)
        return (months, term * len(GRADES) + grade, rate), ok

    def core(chunks):
        month_of, grade_of, term_of = {}, {}, {}
        for at, (dates, rates, grades, terms) in chunks:
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
                _at(path, at[i], lambda: LoanRecord(Month.parse(d), float(r), g.strip(), int(t)))
            yield months, term * len(GRADES) + grade, rate  # term-major, as _BUCKETS

    # the loan columns in the CSV core's order -> plain dtype; a cell that fills an S is invalid
    columns = {"date": "S11", "rate": "f8", "grade": "S2", "term": "i8"}
    return LoanBook(*map(np.concatenate, zip(*_record_parts(path, columns, "loan", plain, core))))


def read_yields_csv(path) -> list:
    """Yield-curve CSV with header date,maturity_months,yield."""
    def plain(cells):  # the part (None for a row the CSV core may read otherwise) and its mask
        cols = _month_index(cells["date"]), cells["maturity_months"], cells["yield"]
        ok = (cols[0] >= 0) & (cols[1] > 0) & np.isfinite(cols[2])
        return ([YieldCurvePoint(Month.from_index(i), m, y) if k else None
                 for k, i, m, y in zip(ok.tolist(), *(c.tolist() for c in cols))],), ok

    def core(chunks):
        for lines, cols in chunks:
            yield [_at(path, line, lambda: YieldCurvePoint(Month.parse(d), int(m), float(y)))
                   for line, d, m, y in zip(lines, *cols)],

    columns = {"date": "S11", "maturity_months": "i8", "yield": "f8"}
    return [pt for part, in _record_parts(path, columns, "yield", plain, core) for pt in part]


def _month_labels(start: int, n: int) -> list:
    """str(Month) of the n months from Month.index start on."""
    years = map("{:04d}".format, range(start // 12, (start + n - 1) // 12 + 1))
    return [year + month for year in years for month in _MONTHS][start % 12:start % 12 + n]


def _cell_value(cell: str) -> float:
    """A panel cell as a float, NaN if empty; a DataError if it is not a finite number."""
    cell = cell.strip()
    try:
        value = float(cell) if cell else np.nan
    except ValueError:
        raise DataError(f"unparseable number {cell!r}") from None
    if cell and not math.isfinite(value):
        raise DataError(f"non-finite number {cell!r}")
    return value


def read_panel_csv(path) -> AlignedPanel:
    """Panel CSV: first column 'date' as YYYY-MM, one series per remaining column.

    Empty cells are missing; non-finite numbers (nan, inf) are rejected.
    Leading '#' lines are metadata comments and are skipped; errors still name
    the line of the file. Months must be consecutive.
    """
    with open(path, newline="") as fh:
        lines = list(_decoded(fh, path))  # a byte that does not decode fails before any row
    skip = next((i for i, ln in enumerate(lines) if not ln.startswith("#")), len(lines))
    rows = iter(lines[skip:])
    row, line = _header(path, rows, skip + 1)
    if row is None:
        raise DataError(f"{path}: empty file")
    if not row or row[0] != "date":
        raise DataError(f"{path}: first column must be 'date'")
    if len(row) < 2:
        raise DataError(f"{path}: no series columns")
    names, take = _at(path, line, lambda: _series_names(row[1:])), range(len(row))
    if INTERCEPT in names:
        raise DataError(f"{path}:{line}: series name {INTERCEPT!r} is reserved for the "
                        "regression intercept")

    def read(lines, first):  # the CSV core from line first on
        for at, (dates, *cols) in _csv_chunks(path, lines, first, take, len(take), False):
            n, idx = len(dates), _month_index(np.array(dates, "U11"))
            off = np.flatnonzero((idx < 0) | ("\0" in "".join(dates)))  # U drops an end NUL
            idx[off] = _codes([dates[i] for i in off], {}, lambda d: Month.parse(d).index)
            vals, bad, empty = np.full((n, len(cols)), np.nan), idx < 0, {"": "nan"}
            for j, col in enumerate(cols):
                try:
                    try:
                        vals[:, j] = np.fromiter(map(float, col), float, n)
                    except ValueError:  # an empty cell reads as nan; a bad one fails again
                        vals[:, j] = np.fromiter(map(float, map(empty.get, col, col)), float, n)
                except ValueError:  # a cell is not a number: flag every row, the loop finds it
                    bad[:] = True
            for i, j in zip(*np.unravel_index(np.flatnonzero(~np.isfinite(vals)), vals.shape)):
                bad[i] |= cols[j][i] != ""  # only an empty cell may read as non-finite
            for i in np.flatnonzero(bad).tolist():  # raises at the first row that really fails
                idx[i], vals[i] = _at(path, at[i], lambda: (
                    Month.parse(dates[i]).index, [_cell_value(col[i]) for col in cols]))
            yield idx, vals

    def plain(cells):  # the part and which rows the CSV core reads alike
        idx, vals = _month_index(cells["date"]), cells["values"]
        return (idx, vals), (idx >= 0) & np.isfinite(vals).all(axis=1)

    dtype = [("date", "S11"), ("values", "f8", (len(names),))]
    parts = _chunk_parts(path, rows, line + 1, dtype, plain, read, "data")
    index, values = (np.concatenate(part) for part in zip(*parts))  # months span chunk edges
    gap = np.flatnonzero(np.diff(index) != 1)
    if len(gap):
        a, b = map(Month.from_index, index[gap[0]:gap[0] + 2].tolist())
        raise DataError(f"{path}: months must be consecutive ({a} is followed by {b})")
    return AlignedPanel(Month.from_index(int(index[0])), names, values)


def panel_csv_text(panel: AlignedPanel, comment: str = None) -> str:
    """A panel in the CSV layout read_panel_csv accepts. Missing -> empty cell.

    Values use the shortest decimal form that parses back to the same float,
    so a write/read cycle is lossless.
    """
    buf = io.StringIO()
    buf.writelines(f"# {line}\n" for line in (comment.splitlines() if comment else ()))
    csv.writer(buf).writerow(["date", *panel.names])
    for label, row, hole in zip(_month_labels(panel.start.index, panel.n_obs),
                                panel.values.tolist(), np.isnan(panel.values).any(axis=1)):
        cells = ["" if math.isnan(v) else repr(v) for v in row] if hole else map(repr, row)
        buf.write(f"{label},{','.join(cells)}\r\n")
    return buf.getvalue()


def write_panel_csv(panel: AlignedPanel, path, comment: str = None) -> None:
    """Write panel_csv_text(panel, comment) to path."""
    with open(path, "w", newline="") as fh:
        fh.write(panel_csv_text(panel, comment))
