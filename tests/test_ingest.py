import csv

import pytest

from helpers import TOY_PAIRS, joint_range_csv_rows
from privquant import IngestError, JointRange, load_csv, stats


def write_csv(path, rows, header=("age", "chol")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        w.writerows(rows)
    return str(path)


@pytest.fixture
def toy_csv(tmp_path):
    return write_csv(tmp_path / "toy.csv", [(s, x) for s, x in TOY_PAIRS], header=("s", "x"))


class TestLoadCsv:
    def test_toy_stats(self, toy_csv):
        jr, st = load_csv(toy_csv, "s", "x")
        assert jr.n_s == 6 and jr.n_x == 7
        assert st.record_count == 8
        assert st.distinct_pairs == 8
        assert st.singleton_pairs == 8

    def test_single_row(self, tmp_path):
        path = write_csv(tmp_path / "one.csv", [("40", "210")])
        jr, st = load_csv(path, "age", "chol")
        assert jr.n_s == 1 and jr.n_x == 1 and st.record_count == 1

    def test_duplicate_rows_collapse_into_one_pair(self, tmp_path):
        path = write_csv(tmp_path / "dup.csv", [("40", "210"), ("40", "210")])
        jr, st = load_csv(path, "age", "chol")
        assert st.record_count == 2
        assert st.distinct_pairs == 1
        assert st.singleton_pairs == 0
        assert len(jr.pairs) == 1

    def test_fully_duplicated_toy_has_no_singletons(self, tmp_path):
        rows = [(s, x) for s, x in TOY_PAIRS] * 2
        path = write_csv(tmp_path / "dup2.csv", rows, header=("s", "x"))
        _, st = load_csv(path, "s", "x")
        assert st.singleton_pairs == 0 and st.distinct_pairs == 8

    def test_missing_sentinels_drop_rows(self, tmp_path):
        rows = [("40", "210"), ("41", "-9"), ("-9", "220"), ("42", "?"), ("43", "")]
        path = write_csv(tmp_path / "missing.csv", rows)
        jr, st = load_csv(path, "age", "chol")
        assert st.record_count == 1
        assert jr.n_s == 1 and jr.n_x == 1

    def test_custom_sentinel(self, tmp_path):
        path = write_csv(tmp_path / "na.csv", [("40", "210"), ("41", "NA")])
        _, st = load_csv(path, "age", "chol", missing=("NA",))
        assert st.record_count == 1

    def test_all_rows_filtered_is_an_error(self, tmp_path):
        path = write_csv(tmp_path / "gone.csv", [("-9", "-9")])
        with pytest.raises(IngestError):
            load_csv(path, "age", "chol")

    def test_missing_file(self):
        with pytest.raises(IngestError):
            load_csv("/no/such/file.csv", "a", "b")

    def test_absent_column(self, toy_csv):
        with pytest.raises(IngestError):
            load_csv(toy_csv, "s", "nope")

    def test_index_columns_without_header(self, tmp_path):
        path = write_csv(tmp_path / "bare.csv", [("40", "210"), ("41", "220")], header=None)
        jr, st = load_csv(path, 0, 1, has_header=False)
        assert st.record_count == 2 and jr.n_x == 2

    def test_named_column_needs_header(self, tmp_path):
        path = write_csv(tmp_path / "bare2.csv", [("40", "210")], header=None)
        with pytest.raises(IngestError):
            load_csv(path, "age", "chol", has_header=False)

    def test_numeric_detection(self, tmp_path):
        path = write_csv(tmp_path / "num.csv", [("40", "210"), ("41", "220.5")])
        jr, _ = load_csv(path, "age", "chol")
        assert jr.x_values() == (210.0, 220.5)
        path = write_csv(tmp_path / "cat.csv", [("40", "high"), ("41", "220")])
        jr, _ = load_csv(path, "age", "chol")
        assert jr.x_values() == (None, None)

    def test_require_numeric_reports_row(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", [("40", "210"), ("41", "oops")])
        with pytest.raises(IngestError) as exc:
            load_csv(path, "age", "chol", require_numeric_x=True)
        assert exc.value.row == 3  # header is row 1

    def test_space_delimited(self, tmp_path):
        path = tmp_path / "spaces.data"
        path.write_text("40 210\n41 220\n")
        jr, st = load_csv(path, 0, 1, has_header=False, delimiter=" ")
        assert st.record_count == 2

    def test_short_row_is_an_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("age,chol\n40\n")
        with pytest.raises(IngestError) as exc:
            load_csv(path, "age", "chol")
        assert exc.value.row == 2

    @pytest.mark.parametrize("row, column", [(("", "210"), "sensitive"), (("41", " "), "public")])
    def test_empty_cell_is_an_error_when_not_a_sentinel(self, tmp_path, row, column):
        path = write_csv(tmp_path / "empty.csv", [("40", "210"), row])
        with pytest.raises(IngestError, match=f"^{column} column value is empty$") as exc:
            load_csv(path, "age", "chol", missing=("NA",))
        assert exc.value.row == 3

    @pytest.mark.parametrize("second, message, row", [
        (b"a,1\n", "file is not UTF-8 text", None),
        (b"b\n", "row has only 1 columns", 2),
    ], ids=["good-rows", "short-row-first"])
    def test_undecodable_bytes_after_rows(self, tmp_path, second, message, row):
        # 2,500 rows fill more than the text decoder's first block, so the
        # rows are checked before the bytes past them stop the read.
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"s,x\n" + second + b"a,1\n" * 2499 + b"b,\xff\xfe\n")
        with pytest.raises(IngestError, match=f"^{message}$") as exc:
            load_csv(path, "s", "x")
        assert exc.value.row == row

    def test_header_text_recurring_as_data_keeps_its_place(self, tmp_path):
        # The header line recurs as a data row after another one: it is a
        # record there, and the alphabets keep the data's first-appearance order.
        path = tmp_path / "recur.csv"
        path.write_text("s,x\na,1\ns,x\na,1\nb,2\ns,x\n")
        jr, st = load_csv(path, "s", "x")
        assert [sym.id for sym in jr.s_symbols] == ["a", "s", "b"]
        assert [sym.id for sym in jr.x_symbols] == ["1", "x", "2"]
        assert st.record_count == 5 and st.distinct_pairs == 3

    def test_quoted_field_spanning_lines_is_one_row(self, tmp_path):
        # A quoted X cell holds a line break; its second line looks like a row.
        path = tmp_path / "quoted.csv"
        path.write_bytes(b's,x\na,"1\nb,2"\na,"1\nb,2"\nc,3\n')
        jr, st = load_csv(path, "s", "x")
        assert [sym.id for sym in jr.s_symbols] == ["a", "c"]
        assert [sym.id for sym in jr.x_symbols] == ["1\nb,2", "3"]
        assert st.record_count == 3

    def test_quoted_header_with_plain_rows(self, tmp_path):
        # A quote in the header sends the file to the row-by-row read at once;
        # rows, counts and row numbers are those of any other file.
        path = tmp_path / "quoted_header.csv"
        path.write_bytes(b'"s","x"\na,1\n\n"b",2\na,1\n')
        jr, st = load_csv(path, "s", "x")
        assert [sym.id for sym in jr.s_symbols] == ["a", "b"]
        assert [sym.id for sym in jr.x_symbols] == ["1", "2"]
        assert st.record_count == 3 and st.distinct_pairs == 2
        path.write_bytes(b'"s","x"\na,1\nb\n')
        with pytest.raises(IngestError, match="^row has only 1 columns$") as exc:
            load_csv(path, "s", "x")
        assert exc.value.row == 3

    def test_empty_cell_under_x_numeric_is_not_numeric(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", [("40", "")])
        with pytest.raises(IngestError, match="^public column value '' is not numeric$"):
            load_csv(path, "age", "chol", missing=("NA",), require_numeric_x=True)


class TestRoundTrip:
    def test_reload_preserves_joint_range(self, tmp_path):
        jr = JointRange.from_id_pairs(TOY_PAIRS)
        rows = joint_range_csv_rows(jr)
        path = tmp_path / "export.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        jr2, st = load_csv(path, "s", "x")
        as_ids = {
            (jr.s_symbols[s].id, jr.x_symbols[x].id) for s, x in jr.pairs
        }
        as_ids2 = {
            (jr2.s_symbols[s].id, jr2.x_symbols[x].id) for s, x in jr2.pairs
        }
        assert as_ids == as_ids2
        assert st.distinct_pairs == len(jr.pairs)

    def test_filtering_never_leaves_orphan_symbols(self, tmp_path):
        rows = [("40", "210"), ("41", "-9"), ("41", "220")]
        path = write_csv(tmp_path / "orphan.csv", rows)
        jr, _ = load_csv(path, "age", "chol")
        # "41" survives via its second row; every symbol occurs in a pair
        for s in range(jr.n_s):
            assert any(p[0] == s for p in jr.pairs)
        for x in range(jr.n_x):
            assert any(p[1] == x for p in jr.pairs)


def test_stats_function_direct():
    jr = JointRange.from_id_pairs([("a", "x"), ("b", "y")])
    st = stats(jr, [("a", "x"), ("a", "x"), ("b", "y")])
    assert st.record_count == 3
    assert st.distinct_pairs == 2
    assert st.singleton_pairs == 1
    assert st.distinct_s == 2 and st.distinct_x == 2
