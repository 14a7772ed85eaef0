"""Panel construction, transforms, alignment, and CSV round trips."""

import csv
import io

import numpy as np
import pytest

import creditfactors as cf
from creditfactors import panel
from test_record_io_oracle import spy_readers


def month(s):
    return cf.Month.parse(s)


# ---------------------------------------------------------------------------
# Month arithmetic
# ---------------------------------------------------------------------------

class TestMonth:
    def test_parse_and_str(self):
        m = month("2009-07")
        assert (m.year, m.month) == (2009, 7)
        assert str(m) == "2009-07"
        assert month("2009-07-15") == m

    def test_parse_rejects_garbage(self):
        for bad in ["2009/07", "2009-13", "2009-00", "july 2009", ""]:
            with pytest.raises(cf.DataError):
                month(bad)

    def test_index_round_trip(self):
        for s in ["1999-01", "2000-12", "2013-06"]:
            m = month(s)
            assert cf.Month.from_index(m.index) == m

    def test_arithmetic(self):
        assert month("2009-12").plus(1) == month("2010-01")
        assert month("2010-03").plus(-3) == month("2009-12")
        assert month("2010-03") - month("2009-12") == 3
        assert month("2009-01") < month("2009-02") < month("2010-01")

    def test_years_are_the_four_digit_ones(self):
        assert str(month("0000-02").plus(-1)) == "0000-01"
        assert str(month("9999-11").plus(1)) == "9999-12"
        for make in (lambda: cf.Month(10000, 1), lambda: cf.Month(-1, 12),
                     lambda: month("9999-12").plus(1), lambda: month("0000-01").plus(-1)):
            with pytest.raises(cf.DataError, match="year out of range"):
                make()


    @pytest.mark.parametrize("year, month_, message", [
        (2010, 1.5, "month must be an integer, got 1.5"),
        (2010.0, 1, "year must be an integer, got 2010.0"),
        ("2010", "1", "month must be an integer, got '1'"),
    ], ids=["float-month", "float-year", "strings"])
    def test_fields_must_be_integers(self, year, month_, message):
        # these built a record whose str() and index then raised ValueError or TypeError
        with pytest.raises(cf.DataError) as exc:
            cf.Month(year, month_)
        assert str(exc.value) == message

    def test_numpy_integers_are_stored_as_int(self):
        m = cf.Month(np.int64(2010), np.int32(3))
        assert (type(m.year), type(m.month)) == (int, int)
        assert m == month("2010-03") and str(m) == "2010-03"

# ---------------------------------------------------------------------------
# loan aggregation
# ---------------------------------------------------------------------------

def random_loans(rng, n):
    grades = cf.GRADES
    terms = cf.TERMS
    lo = month("2008-01")
    records = []
    for _ in range(n):
        m = lo.plus(int(rng.integers(0, 48)))
        records.append(cf.LoanRecord(
            month=m,
            rate=float(rng.uniform(4.0, 25.0)),
            grade=grades[rng.integers(0, len(grades))],
            term=terms[rng.integers(0, len(terms))],
        ))
    return records


class TestAggregateLoans:
    def test_matches_bucket_mean_oracle(self):
        rng = np.random.default_rng(42)
        records = random_loans(rng, 10_000)
        panel = cf.aggregate_loans(records)

        sums, counts = {}, {}
        for r in records:
            key = (r.month, f"{r.term}-{r.grade}")
            sums[key] = sums.get(key, 0.0) + r.rate
            counts[key] = counts.get(key, 0) + 1
        for name in panel.names:
            col = panel.column(name)
            for t in range(panel.n_obs):
                key = (panel.month_at(t), name)
                if key in counts:
                    assert col[t] == pytest.approx(sums[key] / counts[key], abs=1e-12)
                else:
                    assert np.isnan(col[t])

    def test_order_invariant(self):
        rng = np.random.default_rng(3)
        records = random_loans(rng, 500)
        a = cf.aggregate_loans(records)
        shuffled = list(records)
        rng.shuffle(shuffled)
        b = cf.aggregate_loans(shuffled)
        assert a.names == b.names
        assert a.start == b.start
        np.testing.assert_allclose(a.values, b.values, atol=1e-12, equal_nan=True)

    def test_grid_spans_min_to_max_month(self):
        records = [
            cf.LoanRecord(month("2010-01"), 10.0, "A", 36),
            cf.LoanRecord(month("2010-05"), 11.0, "A", 36),
        ]
        panel = cf.aggregate_loans(records)
        assert panel.start == month("2010-01")
        assert panel.end == month("2010-05")
        assert panel.n_obs == 5
        col = panel.column("36-A")
        assert col[0] == 10.0 and col[4] == 11.0
        assert np.isnan(col[1:4]).all()

    def test_unobserved_buckets_get_no_column(self):
        records = [cf.LoanRecord(month("2010-01"), 10.0, "B", 60)]
        panel = cf.aggregate_loans(records)
        assert panel.names == ("60-B",)

    def test_empty_input_rejected(self):
        with pytest.raises(cf.DataError):
            cf.aggregate_loans([])


class TestLoanRecordValidation:
    def test_bad_grade(self):
        with pytest.raises(cf.DataError):
            cf.LoanRecord(month("2010-01"), 10.0, "Z", 36)

    def test_bad_term(self):
        with pytest.raises(cf.DataError):
            cf.LoanRecord(month("2010-01"), 10.0, "A", 48)

    def test_nonpositive_rate(self):
        with pytest.raises(cf.DataError):
            cf.LoanRecord(month("2010-01"), 0.0, "A", 36)


# ---------------------------------------------------------------------------
# spreads over the curve
# ---------------------------------------------------------------------------

def curve_for(panel, base36=2.0, base60=3.0):
    points = []
    for t in range(panel.n_obs):
        m = panel.month_at(t)
        points.append(cf.YieldCurvePoint(m, 36, base36 + 0.01 * t))
        points.append(cf.YieldCurvePoint(m, 60, base60 + 0.02 * t))
    return points


class TestToSpreads:
    def test_elementwise_subtraction(self):
        rng = np.random.default_rng(8)
        panel = cf.aggregate_loans(random_loans(rng, 2000))
        curve = curve_for(panel)
        lookup = {(p.month, p.maturity_months): p.yield_pct for p in curve}
        spreads = cf.to_spreads(panel, curve)
        assert spreads.start == panel.start
        for name in panel.names:
            term = cf.term_of_series(name)
            before = panel.column(name)
            after = spreads.column(name)
            for t in range(panel.n_obs):
                if np.isnan(before[t]):
                    assert np.isnan(after[t])
                else:
                    expected = before[t] - lookup[(panel.month_at(t), term)]
                    assert after[t] == pytest.approx(expected, abs=1e-12)

    def test_adding_yields_back_recovers_rates(self):
        rng = np.random.default_rng(9)
        panel = cf.aggregate_loans(random_loans(rng, 2000))
        curve = curve_for(panel)
        lookup = {(p.month, p.maturity_months): p.yield_pct for p in curve}
        spreads = cf.to_spreads(panel, curve)
        rebuilt = np.array(spreads.values)
        for j, name in enumerate(spreads.names):
            term = cf.term_of_series(name)
            for t in range(spreads.n_obs):
                rebuilt[t, j] += lookup[(spreads.month_at(t), term)]
        np.testing.assert_allclose(rebuilt, panel.values, atol=1e-12)

    def test_single_loan_spread_keeps_its_name(self):
        records = [cf.LoanRecord(month("2010-01"), 10.0, "A", 36)]
        panel = cf.aggregate_loans(records)
        spreads = cf.to_spreads(panel, [cf.YieldCurvePoint(month("2010-01"), 36, 2.0)])
        assert spreads.column("36-A")[0] == pytest.approx(8.0)

    def test_missing_curve_point_names_month_and_term(self):
        records = [cf.LoanRecord(month("2010-03"), 10.0, "A", 60)]
        panel = cf.aggregate_loans(records)
        with pytest.raises(cf.DataError, match=r"2010-03.*60 months"):
            cf.to_spreads(panel, [cf.YieldCurvePoint(month("2010-03"), 36, 2.0)])

    def test_subtraction_is_bit_identical_cell_by_cell(self):
        rng = np.random.default_rng(10)
        panel = cf.aggregate_loans(random_loans(rng, 2000))
        curve = curve_for(panel)
        lookup = {(p.month, p.maturity_months): p.yield_pct for p in curve}
        expected = np.array(panel.values)
        for j, name in enumerate(panel.names):
            for t in np.flatnonzero(~np.isnan(expected[:, j])):
                expected[t, j] -= lookup[(panel.month_at(int(t)), cf.term_of_series(name))]
        assert np.isnan(panel.values).any()
        assert cf.to_spreads(panel, curve).values.tobytes() == expected.tobytes()

    def test_first_missing_yield_is_found_column_by_column(self):
        """Columns are searched in order, each from its first month; missing rates need none."""
        vals = np.full((4, 2), 9.0)
        vals[0, 0] = np.nan
        panel = cf.AlignedPanel(month("2010-01"), ("60-A", "36-A"), vals)
        gaps = {("2010-01", 60), ("2010-03", 60), ("2010-04", 60), ("2010-02", 36)}
        curve = [cf.YieldCurvePoint(panel.month_at(t), term, 2.0)
                 for t in range(4) for term in (36, 60)
                 if (str(panel.month_at(t)), term) not in gaps]
        with pytest.raises(cf.DataError, match=r"^no yield for 2010-03 at maturity 60 months$"):
            cf.to_spreads(panel, curve)
        curve.append(cf.YieldCurvePoint(month("2010-03"), 60, 2.0))
        curve.append(cf.YieldCurvePoint(month("2010-04"), 60, 2.0))
        with pytest.raises(cf.DataError, match=r"^no yield for 2010-02 at maturity 36 months$"):
            cf.to_spreads(panel, curve)

    def test_conflicting_curve_points_rejected(self):
        records = [cf.LoanRecord(month("2010-03"), 10.0, "A", 36)]
        panel = cf.aggregate_loans(records)
        curve = [cf.YieldCurvePoint(month("2010-03"), 36, 2.0),
                 cf.YieldCurvePoint(month("2010-03"), 36, 2.5)]
        with pytest.raises(cf.DataError, match="conflicting"):
            cf.to_spreads(panel, curve)


# ---------------------------------------------------------------------------
# differencing and interpolation
# ---------------------------------------------------------------------------

class TestFirstDifference:
    def test_shift_subtract_oracle(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(30, 4))
        vals[3, 1] = np.nan
        panel = cf.AlignedPanel(month("2011-01"), tuple(f"s{j}" for j in range(4)), vals)
        diff = cf.first_difference(panel)
        assert diff.start == month("2011-02")
        assert diff.n_obs == panel.n_obs - 1
        expected = vals[1:] - vals[:-1]
        np.testing.assert_allclose(diff.values, expected, atol=1e-15, equal_nan=True)
        # one missing level knocks out the two differences that touch it
        assert np.isnan(diff.column("s1")[2]) and np.isnan(diff.column("s1")[3])

    def test_two_row_difference_keeps_its_name(self):
        panel = cf.AlignedPanel(month("2011-01"), ("36-A",), np.array([[1.0], [2.0]]))
        diff = cf.first_difference(panel)
        assert diff.column("36-A")[0] == pytest.approx(1.0)

    def test_isolated_observations_rejected(self):
        vals = np.array([[1.0], [np.nan], [2.0]])
        with pytest.raises(cf.DataError, match="consecutive"):
            cf.first_difference(cf.AlignedPanel(month("2011-01"), ("s",), vals))


class TestInterpolateQuarterly:
    def test_linear_fill_between_anchors(self):
        points = [(month("2010-01"), 3.0), (month("2010-04"), 6.0)]
        panel = cf.interpolate_quarterly(points, name="gdp")
        assert panel.names == ("gdp",)
        np.testing.assert_allclose(panel.column("gdp"), [3.0, 4.0, 5.0, 6.0], atol=1e-12)

    def test_anchors_reproduced_exactly(self):
        points = [(month("2010-01"), 1.5), (month("2010-04"), -2.0),
                  (month("2010-10"), 7.25)]
        panel = cf.interpolate_quarterly(points)
        col = panel.column("interpolated")
        assert col[0] == 1.5 and col[3] == -2.0 and col[9] == 7.25
        assert panel.n_obs == 10

    def test_non_increasing_anchors_rejected(self):
        points = [(month("2010-04"), 1.0), (month("2010-04"), 2.0)]
        with pytest.raises(cf.DataError, match="increasing"):
            cf.interpolate_quarterly(points)


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

def single(name, start, values):
    arr = np.asarray(values, dtype=float)[:, None]
    return cf.AlignedPanel(month(start), (name,), arr)


class TestAlign:
    def test_intersect_picks_longest_complete_run(self):
        # complete runs: [2010-02..2010-03] and [2010-06..2010-09]; the longer wins
        vals_a = [1, 1, 1, np.nan, 1, 1, 1, 1, 1]
        vals_b = [np.nan, 2, 2, 2, 2, 2, 2, 2, 2]
        a = single("a", "2010-01", vals_a)
        b = single("b", "2010-01", vals_b)
        merged = cf.align([a, b])
        assert merged.start == month("2010-05")
        assert merged.end == month("2010-09")
        assert merged.is_complete()

    def test_intersect_tie_prefers_earliest(self):
        vals = [1.0, 1.0, np.nan, 2.0, 2.0]
        p = single("x", "2010-01", vals)
        merged = cf.align([p])
        assert merged.start == month("2010-01")
        assert merged.n_obs == 2

    def test_intersect_matches_row_scan_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            vals = rng.normal(size=(n, 3))
            mask = rng.random((n, 3)) < 0.25
            vals[mask] = np.nan
            p = cf.AlignedPanel(month("2005-01"), ("c0", "c1", "c2"), vals)
            complete = ~np.isnan(vals).any(axis=1)
            # brute-force longest run of complete rows, earliest on ties
            best_len, best_start, run = 0, 0, 0
            for i, ok in enumerate(list(complete) + [False]):
                run = run + 1 if ok else 0
                if run > best_len:
                    best_len, best_start = run, i - run + 1
            if best_len == 0:
                with pytest.raises(cf.DataError):
                    cf.align([p])
                continue
            merged = cf.align([p])
            assert merged.n_obs == best_len
            assert merged.start == month("2005-01").plus(best_start)

    def test_intersect_without_complete_month_is_an_error(self):
        a = single("a", "2010-01", [1.0, np.nan])
        b = single("b", "2010-01", [np.nan, 2.0])
        with pytest.raises(cf.DataError, match="no month"):
            cf.align([a, b])

    def test_duplicate_names_rejected(self):
        a = single("x", "2010-01", [1.0])
        b = single("x", "2010-01", [2.0])
        with pytest.raises(cf.DataError, match="duplicate"):
            cf.align([a, b])


# ---------------------------------------------------------------------------
# panel container behaviour
# ---------------------------------------------------------------------------

class TestAlignedPanel:
    def test_values_are_read_only(self):
        p = single("x", "2010-01", [1.0, 2.0])
        with pytest.raises(ValueError):
            p.values[0, 0] = 5.0

    def test_select_preserves_order_given(self):
        p = cf.AlignedPanel(month("2010-01"), ("a", "b", "c"), np.eye(3))
        sub = p.select(["c", "a"])
        assert sub.names == ("c", "a")
        np.testing.assert_array_equal(sub.values, np.eye(3)[:, [2, 0]])

    def test_select_unknown_name(self):
        p = single("x", "2010-01", [1.0])
        with pytest.raises(cf.DataError):
            p.select(["y"])

    def test_complete_column_takes_longest_run(self):
        vals = [np.nan, 1.0, 2.0, 3.0, np.nan, 4.0]
        p = single("x", "2010-01", vals)
        np.testing.assert_allclose(p.complete_column("x"), [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

class TestCsv:
    def test_panel_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(24, 3)) * 10
        vals[5, 0] = np.nan
        vals[0, 2] = np.nan
        p = cf.AlignedPanel(month("2012-07"), ("36-A", "36-B", "60-A"), vals)
        path = tmp_path / "p.csv"
        cf.write_panel_csv(p, path, comment="n_obs=24 transform=levels align=union")
        back = cf.read_panel_csv(path)
        assert back.start == p.start
        assert back.names == p.names
        # the writer emits round-trippable decimals, so equality is exact
        np.testing.assert_array_equal(back.values, p.values)

    def test_loans_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        records = random_loans(rng, 200)
        path = tmp_path / "loans.csv"
        with open(path, "w") as fh:
            fh.write("date,rate,grade,term\n")
            for r in records:
                fh.write(f"{r.month},{r.rate!r},{r.grade},{r.term}\n")
        back = cf.read_loans_csv(path)
        assert list(back) == records

    def test_yields_reader(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("date,maturity_months,yield\n2010-01,36,2.5\n2010-01,60,3.25\n")
        pts = cf.read_yields_csv(path)
        assert pts == [cf.YieldCurvePoint(month("2010-01"), 36, 2.5),
                       cf.YieldCurvePoint(month("2010-01"), 60, 3.25)]

    def test_loans_reader_reports_row_numbers(self, tmp_path):
        path = tmp_path / "loans.csv"
        path.write_text("date,rate,grade,term\n2010-01,ten,A,36\n")
        with pytest.raises(cf.DataError, match="loans.csv:2"):
            cf.read_loans_csv(path)

    @pytest.mark.parametrize("reader, header, row, message", [
        (cf.read_loans_csv, "date,rate,grade,term", "2005-01,8.1,A,36", "4 cells, got 5"),
        (cf.read_yields_csv, "date,maturity_months,yield", "2005-01,36,2.0", "3 cells, got 4"),
    ])
    def test_record_readers_reject_extra_cells(self, tmp_path, reader, header, row, message):
        path = tmp_path / "in.csv"
        path.write_text(f"{header}\n{row}\n{row},oops\n")
        with pytest.raises(cf.DataError, match=f"in.csv:3: expected {message}$"):
            reader(path)

    def test_loans_reader_counts_blank_lines(self, tmp_path):
        path = tmp_path / "loans.csv"
        path.write_text("date,rate,grade,term\n\n2010-01,ten,A,36\n")
        with pytest.raises(cf.DataError, match="loans.csv:3"):
            cf.read_loans_csv(path)

    def test_loans_reader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "loans.csv"
        path.write_text("day,apr,grade,term\n2010-01,10,A,36\n")
        with pytest.raises(cf.DataError, match="header"):
            cf.read_loans_csv(path)

    def test_panel_reader_requires_consecutive_months(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,x\n2010-01,1.0\n2010-03,2.0\n")
        with pytest.raises(cf.DataError, match="consecutive"):
            cf.read_panel_csv(path)

    def test_panel_reader_skips_comment_lines(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# a note\n# another\ndate,x\n2010-01,1.5\n")
        p = cf.read_panel_csv(path)
        assert p.column("x")[0] == 1.5

    @pytest.mark.parametrize("header", ['date,"a\n#b",c', '"date","a","c"'],
                             ids=["hash continuation", "quoted"])
    def test_name_with_a_hash_continuation_line_round_trips(self, tmp_path, monkeypatch, header):
        """Only the lines before the header are comments: a quoted name may hold '\\n#'. Such a
        header, or a quoted one, is read once: numpy reads every chunk of a complete panel."""
        names = tuple(next(csv.reader(io.StringIO(header))))[1:]
        p = cf.AlignedPanel(month("2010-01"), names, [[1.0, 2.0], [3.0, np.nan]])
        path = tmp_path / "p.csv"
        cf.write_panel_csv(p, path, comment="n_obs=2")
        back = cf.read_panel_csv(path)
        assert back.names == p.names
        assert back.values.tobytes() == p.values.tobytes()
        monkeypatch.setattr(panel, "CHUNK_ROWS", 2)
        lines = [f"{month('2010-01').plus(t)},{t}.5,{t}.25\n" for t in range(5)]
        path.write_text(f"# n_obs=5\n{header}\n" + "".join(lines), newline="")
        parsed, cored = spy_readers(monkeypatch)
        back = cf.read_panel_csv(path)
        assert cored == [] and parsed == [lines[0:2], lines[2:4], lines[4:]]
        assert back.names == names and back.start == month("2010-01")
        assert back.values.tolist() == [[t + 0.5, t + 0.25] for t in range(5)]

    def test_panel_reader_reads_a_hash_line_after_the_header_as_a_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# note\ndate,x\n2010-01,1.0\n# not a comment,2.0\n")
        with pytest.raises(cf.DataError, match="p.csv:4: unparseable date '# not a comment'"):
            cf.read_panel_csv(path)

    def test_panel_reader_rejects_bad_cell(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,x\n2010-01,abc\n")
        with pytest.raises(cf.DataError, match="p.csv:2"):
            cf.read_panel_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    def test_panel_reader_rejects_non_finite_cell(self, tmp_path, cell):
        path = tmp_path / "p.csv"
        path.write_text(f"date,x\n2010-01,1.0\n2010-02,{cell}\n")
        with pytest.raises(cf.DataError, match="p.csv:3: non-finite"):
            cf.read_panel_csv(path)

    def test_panel_reader_counts_comment_lines(self, tmp_path):
        # a package-written panel starts with a comment line, so its second
        # data row is physical line 4
        path = tmp_path / "p.csv"
        cf.write_panel_csv(single("x", "2010-01", [1.0, 2.0, 3.0]), path,
                           comment="n_obs=3 transform=levels align=union")
        lines = path.read_text().splitlines()
        lines[3] = "2010-02,abc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(cf.DataError, match="p.csv:4: unparseable"):
            cf.read_panel_csv(path)

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_loans_reader_rejects_non_finite_rate(self, tmp_path, rate):
        path = tmp_path / "loans.csv"
        path.write_text(f"date,rate,grade,term\n2010-01,9.5,A,36\n2010-01,{rate},A,36\n")
        with pytest.raises(cf.DataError, match="loans.csv:3: loan rate must be finite"):
            cf.read_loans_csv(path)


# ---------------------------------------------------------------------------
# columnar loan ingest
# ---------------------------------------------------------------------------

def write_loan_rows(path, rows, header="date,rate,grade,term"):
    path.write_text(header + "\n" + "".join(row + "\n" for row in rows))
    return path


def loan_rows(rng, n, sort):
    """Text rows of a seeded book: day-stamped dates, 2- to 6-decimal rates."""
    offset = rng.integers(0, 60, n)
    if sort:
        offset = np.sort(offset)
    rows = []
    for t, day, rate, digits, g, term in zip(
            offset.tolist(), rng.integers(1, 29, n).tolist(), rng.uniform(2, 30, n).tolist(),
            rng.integers(2, 7, n).tolist(), rng.integers(0, 6, n).tolist(),
            rng.integers(0, 2, n).tolist()):
        rows.append(f"{month('2008-01').plus(t)}-{day:02d},{rate:.{digits}f},"
                    f"{cf.GRADES[g]},{cf.TERMS[term]}")
    return rows


def running_sum_means(records):
    """The per-record oracle: cell sums accumulated loan by loan, in file order."""
    lo = min(r.month for r in records)
    buckets = [(term, grade) for term in cf.TERMS for grade in cf.GRADES]
    sums = np.zeros((max(r.month for r in records) - lo + 1, len(buckets)))
    counts = np.zeros_like(sums)
    for r in records:
        sums[r.month - lo, buckets.index((r.term, r.grade))] += r.rate
        counts[r.month - lo, buckets.index((r.term, r.grade))] += 1
    observed = counts.any(axis=0)
    means = np.divide(sums, counts, out=np.full_like(sums, np.nan), where=counts > 0)
    names = tuple(f"{t}-{g}" for (t, g), seen in zip(buckets, observed) if seen)
    return lo, names, means[:, observed]


class TestLoanIngest:
    @pytest.mark.parametrize("sort", [True, False], ids=["date-sorted", "shuffled"])
    def test_chunked_read_is_bit_identical_to_per_record_sums(self, tmp_path, sort):
        rows = loan_rows(np.random.default_rng(61), 2 * cf.panel.CHUNK_ROWS + 1234, sort)
        book = cf.read_loans_csv(write_loan_rows(tmp_path / "loans.csv", rows))
        records = [cf.LoanRecord(month(d), float(r), g.strip(), int(t))
                   for d, r, g, t in (row.split(",") for row in rows)]
        assert len(book) == len(rows) and list(book) == records
        panel = cf.aggregate_loans(book)
        lo, names, means = running_sum_means(records)
        assert (panel.start, panel.names) == (lo, names)
        assert panel.values.tobytes() == means.tobytes()
        assert cf.aggregate_loans(records).values.tobytes() == means.tobytes()

    def test_bad_row_before_a_ragged_row_in_the_same_chunk_wins(self, tmp_path):
        path = write_loan_rows(tmp_path / "loans.csv", [
            "2010-01,7.5,A,36", "2010-01,-1,A,36", "2010-02,8.5,B,60", "2010-03,9.5,C,36,x"])
        with pytest.raises(cf.DataError, match="loans.csv:3: loan rate must be positive"):
            cf.read_loans_csv(path)

    def test_last_row_of_a_chunk_beats_a_ragged_row_in_the_next(self, tmp_path):
        rows = ["2010-01,7.5,A,36"] * cf.panel.CHUNK_ROWS + ["2010-02,8.5,B,60,x"]
        rows[-2] = "2010-01,7.5,G,36"  # physical line CHUNK_ROWS + 1, the chunk's last row
        path = write_loan_rows(tmp_path / "loans.csv", rows)
        with pytest.raises(cf.DataError, match=f"loans.csv:{cf.panel.CHUNK_ROWS + 1}: "
                                               "unknown grade 'G'"):
            cf.read_loans_csv(path)
        rows[-2] = "2010-01,7.5,A,36"
        write_loan_rows(path, rows)
        with pytest.raises(cf.DataError, match=f"loans.csv:{cf.panel.CHUNK_ROWS + 2}: "
                                               "expected 4 cells, got 5$"):
            cf.read_loans_csv(path)

    def test_row_with_several_faults_reports_the_constructors_first_check(self, tmp_path):
        path = write_loan_rows(tmp_path / "loans.csv", ["2010-01,9,A,36", "2010-01,nan,Z,48"])
        with pytest.raises(cf.DataError, match="loans.csv:3: loan rate must be finite, got nan$"):
            cf.read_loans_csv(path)

    def test_repeated_header_name_reads_its_last_column(self, tmp_path):
        path = write_loan_rows(tmp_path / "loans.csv", ["2010-01,oops,A,36,7.5"],
                               header="date,rate,grade,term,rate")
        assert list(cf.read_loans_csv(path)) == [cf.LoanRecord(month("2010-01"), 7.5, "A", 36)]

    def test_short_row_is_padded_with_empty_cells(self, tmp_path):
        path = write_loan_rows(tmp_path / "loans.csv", ["2010-01,7.5,A,36", "2010-01,7.5,A"])
        with pytest.raises(cf.DataError,
                           match=r"loans.csv:3: invalid literal for int\(\) with base 10: ''$"):
            cf.read_loans_csv(path)
        path = write_loan_rows(tmp_path / "extra.csv", ["2010-01,7.5,A,36"],
                               header="date,rate,grade,term,note")
        assert len(cf.read_loans_csv(path)) == 1

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_loan_rows(tmp_path / "loans.csv",
                               ["", "2010-01,7.5,A,36", "", "", "2010-02,8.0,B,60", ""])
        assert list(cf.read_loans_csv(path)) == [
            cf.LoanRecord(month("2010-01"), 7.5, "A", 36),
            cf.LoanRecord(month("2010-02"), 8.0, "B", 60)]
        with pytest.raises(cf.DataError, match="blank.csv: no loan rows$"):
            cf.read_loans_csv(write_loan_rows(tmp_path / "blank.csv", ["", ""]))

    def test_loan_book_round_trips_records(self):
        records = random_loans(np.random.default_rng(71), 50)
        book = cf.LoanBook.from_records(records)
        assert len(book) == 50 and list(book) == records
        assert not book.rates.flags.writeable
        assert len(cf.LoanBook.from_records([])) == 0

    def test_loan_book_rejects_unknown_bucket_codes(self):
        with pytest.raises(cf.DataError, match="bucket codes"):
            cf.LoanBook([24120], [12], [7.5])

    @pytest.mark.parametrize("months, buckets, rates", [
        ([24120, 24121], [0], [7.5, 8.0]),
        ([24120], [0], [7.5, 8.0]),
        ([[24120]], [[0]], [[7.5]]),
        (24120, 0, 7.5)])
    def test_loan_book_rejects_columns_of_unequal_shape(self, months, buckets, rates):
        with pytest.raises(cf.DataError, match="1-D and of one length"):
            cf.LoanBook(months, buckets, rates)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_loan_book_rejects_rates_a_loan_record_rejects(self, rate):
        with pytest.raises(cf.DataError, match="finite and positive"):
            cf.LoanBook([24120, 24121], [0, 1], [7.5, rate])


class TestTermOfSeries:
    def test_parses_term(self):
        assert cf.term_of_series("36-A") == 36
        assert cf.term_of_series("60-F") == 60

    def test_rejects_other_shapes(self):
        for bad in ["A-36", "36A", "UNRATE", "36-"]:
            with pytest.raises(cf.DataError):
                cf.term_of_series(bad)
