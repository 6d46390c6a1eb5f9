import argparse
import csv
import json

import pytest

from helpers import TOY_PAIRS, TOY_VALUES
from privquant import cli
from privquant.cli import _parse_grid, main
from privquant.pareto import MAX_GRID_COUNT

TOY_PAIRS_ARG = ",".join(f"{s}:{x}" for s, x in TOY_PAIRS)
TOY_VALUES_ARG = ",".join(f"{x}={v}" for x, v in TOY_VALUES.items())
HUGE_VALUE_COMMANDS = [
    ("quantize", "--algorithm", "l0", "--utility", "u2", "--lambda", "0"),
    ("pareto", "--algorithm", "l0", "--utility", "u2"),
    ("baseline", "--k", "2"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def untimed(result):
    """A ``run_cli`` result with the manifest timestamp taken out of its JSON output."""
    code, out, err = result
    payload = json.loads(out)
    del payload["manifest"]["timestamp"]
    return code, payload, err


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("s", "x"))
        w.writerows(TOY_PAIRS)
    return str(path)


class TestStats:
    def test_toy_csv(self, capsys, toy_csv):
        payload = run_json(capsys, "stats", "--input", toy_csv, "--s", "s", "--x", "x")
        assert payload["schema"] == 1
        assert payload["stats"]["distinct_pairs"] == 8
        assert payload["manifest"]["subcommand"] == "stats"
        assert payload["manifest"]["tool"] == "privquant"

    def test_every_pairs_entry_is_one_record(self, capsys):
        payload = run_json(capsys, "stats", "--pairs", "a:b,a:b,a:c")
        assert payload["stats"] == {
            "record_count": 3, "distinct_s": 1, "distinct_x": 2,
            "distinct_pairs": 2, "singleton_pairs": 1,
        }

    def test_x_values_with_input_exits_3(self, capsys, toy_csv):
        code, out, err = run_cli(
            capsys, "stats", "--input", toy_csv, "--s", "s", "--x", "x", "--x-values", "x1=1"
        )
        assert code == 3 and out == ""
        assert err == "error: --x-values goes with --pairs; --input reads X from the file\n"

    def test_csv_flags_with_pairs_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "stats", "--pairs", "a:b", "--x", "bar", "--delimiter", ",", "--no-header"
        )
        assert code == 3 and out == ""
        assert err == (
            "error: --x, --no-header, --delimiter go with --input; --pairs reads no CSV\n"
        )

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--input", "/no/file.csv", "--s", "a", "--x", "b")
        assert code == 2 and "no such file" in err

    def test_inline_pairs(self, capsys):
        payload = run_json(capsys, "stats", "--pairs", TOY_PAIRS_ARG)
        assert payload["stats"]["distinct_pairs"] == 8


class TestQuantize:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_x_value_exits_2(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"s,x\n1,1.5\n2,{bad}\n3,2.5\n")
        code, out, err = run_cli(
            capsys, "quantize", "--input", str(path), "--s", "s", "--x", "x",
            "--algorithm", "l0", "--utility", "u2",
        )
        assert code == 2 and out == ""
        assert err == f"error: public column value {bad!r} is not a finite number\n"

    def test_overflowing_result_is_one_line_error(self, capsys):
        # The values are in range, but the forced merge's Lagrangian
        # 1 + 10 * 5e307 is not.
        code, out, err = run_cli(
            capsys, "quantize", "--pairs", "a:x1,b:x2", "--x-values", "x1=0,x2=1e308",
            "--algorithm", "l0-zero-istar", "--utility", "u2", "--lambda", "10",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", HUGE_VALUE_COMMANDS)
    def test_huge_x_values_inline_exit_3(self, capsys, command):
        code, out, err = run_cli(
            capsys, *command, "--pairs", "a:x1,b:x2,a:x3",
            "--x-values", "x1=1e308,x2=1.7e308,x3=1.7e308",
        )
        assert code == 3 and out == ""
        assert err == "error: x_values are too large: |x| sums past the float range\n"

    @pytest.mark.parametrize("command", HUGE_VALUE_COMMANDS)
    def test_huge_x_values_csv_exit_2(self, capsys, tmp_path, command):
        path = tmp_path / "huge.csv"
        path.write_text("s,x\na,1e308\nb,1.7e308\na,-1.7e308\n")
        code, out, err = run_cli(capsys, *command, "--input", str(path), "--s", "s", "--x", "x")
        assert code == 2 and out == ""
        assert err == "error: public column values are too large: |x| sums past the float range\n"

    def test_min_istar_matches_worked_example(self, capsys):
        payload = run_json(
            capsys,
            "quantize",
            "--pairs",
            TOY_PAIRS_ARG,
            "--algorithm",
            "istar",
            "--lambda",
            "0.3",
            "--utility",
            "u1",
        )
        clusters = {frozenset(c["members"]) for c in payload["quantization"]["clusters"]}
        assert clusters == {
            frozenset({"x1", "x3", "x7"}),
            frozenset({"x2", "x5"}),
            frozenset({"x4", "x6"}),
        }
        assert payload["measures"]["maximin_information"] == 0.0
        assert payload["termination"] == "single-component"
        assert payload["decomposition"] == [["x1", "x2", "x3", "x4", "x5", "x6", "x7"]]

    def test_zero_istar_matches_worked_example(self, capsys):
        payload = run_json(
            capsys,
            "quantize",
            "--pairs",
            TOY_PAIRS_ARG,
            "--algorithm",
            "l0-zero-istar",
            "--lambda",
            "0.3",
            "--utility",
            "u1",
        )
        clusters = {frozenset(c["members"]) for c in payload["quantization"]["clusters"]}
        assert clusters == {
            frozenset({"x1", "x6", "x7"}),
            frozenset({"x2", "x3"}),
            frozenset({"x4", "x5"}),
        }

    def test_negative_lambda_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "quantize", "--pairs", TOY_PAIRS_ARG, "--lambda", "-1")
        assert code == 3

    def test_u2_on_categorical_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "quantize", "--pairs", TOY_PAIRS_ARG, "--utility", "u2"
        )
        assert code == 3 and "numeric" in err

    def test_apply_quantization_round_trip(self, capsys, tmp_path):
        """A ``quantize`` output fed back through ``--apply-quantization``
        reproduces its ``measures`` and ``quantization`` blocks exactly."""
        qfile = tmp_path / "q.json"

        def round_trip(algorithm, utility, codeword, lam):
            common = ("--pairs", TOY_PAIRS_ARG, "--x-values", TOY_VALUES_ARG,
                      "--utility", utility, "--codeword", codeword)
            first = run_json(
                capsys, "quantize", *common, "--algorithm", algorithm, "--lambda", repr(lam)
            )
            qfile.write_text(json.dumps(first))
            second = run_json(capsys, "quantize", *common, "--apply-quantization", str(qfile))
            assert second["measures"] == first["measures"]
            assert second["quantization"] == first["quantization"]

        round_trip("l0", "u2", "centroid", 2.5)
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(
            algorithm=st.sampled_from(["l0", "istar", "l0-zero-istar"]),
            utility=st.sampled_from(["u1", "u2"]),
            codeword=st.sampled_from(["centroid", "representative"]),
            lam=st.one_of(st.sampled_from([0.0, 0.3, 2.5]), st.floats(0.0, 50.0)),
        )
        def check(algorithm, utility, codeword, lam):
            round_trip(algorithm, utility, codeword, lam)

        check()

    def test_trace_is_serialized(self, capsys):
        payload = run_json(
            capsys,
            "quantize",
            "--pairs",
            TOY_PAIRS_ARG,
            "--algorithm",
            "l0",
            "--lambda",
            "0.3",
            "--utility",
            "u1",
        )
        lags = [e["lagrangian"] for e in payload["trace"]]
        assert lags == pytest.approx([1.7428, 1.2183, 0.7578, 0.0], abs=1e-3)
        assert payload["trace"][1]["merged"]  # pairs recorded


class TestPareto:
    def test_csv_output(self, capsys):
        code, out, err = run_cli(
            capsys,
            "pareto",
            "--pairs",
            TOY_PAIRS_ARG,
            "--algorithm",
            "istar",
            "--utility",
            "u1",
            "--lambdas",
            "0,0.3",
        )
        assert code == 0, err
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["lambda", "leakage_raw", "leakage_norm", "utility_raw", "loss_norm"]
        assert len(rows) == 4  # three frontier points

    def test_json_output_and_file_manifest(self, capsys, tmp_path):
        out_file = tmp_path / "frontier.csv"
        code, _, _ = run_cli(
            capsys,
            "pareto",
            "--pairs",
            TOY_PAIRS_ARG,
            "--algorithm",
            "istar",
            "--utility",
            "u1",
            "--lambdas",
            "0,0.3",
            "--out",
            str(out_file),
        )
        assert code == 0
        assert out_file.exists()
        sidecar = tmp_path / "frontier.csv.manifest.json"
        assert json.loads(sidecar.read_text())["manifest"]["subcommand"] == "pareto"

        payload = run_json(
            capsys,
            "pareto",
            "--pairs",
            TOY_PAIRS_ARG,
            "--algorithm",
            "istar",
            "--utility",
            "u1",
            "--lambdas",
            "0,0.3",
            "--format",
            "json",
        )
        assert len(payload["points"]) == 3
        assert all("clusters" in p for p in payload["points"])

    def test_grid_spec(self, capsys):
        payload = run_json(
            capsys,
            "pareto",
            "--pairs",
            TOY_PAIRS_ARG,
            "--algorithm",
            "istar",
            "--utility",
            "u1",
            "--grid",
            "5:0.01:10:log",
            "--format",
            "json",
        )
        assert payload["points"]

    def test_bad_grid_exits_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "pareto", "--pairs", TOY_PAIRS_ARG, "--grid", "nonsense"
        )
        assert code == 3
        # An unknown spacing is refused for every count, and a count of 1 is one lambda.
        for count in (1, 2):
            code, out, err = run_cli(
                capsys, "pareto", "--pairs", TOY_PAIRS_ARG, "--grid", f"{count}:0:1:bogus"
            )
            assert code == 3 and out == ""
            assert err == "error: unknown grid spacing 'bogus'\n"
        assert _parse_grid(argparse.Namespace(lambdas=None, grid="1:0:1")) == [0.0]
        # A count over the cap is refused before any lambda is built.
        code, out, err = run_cli(
            capsys, "pareto", "--pairs", TOY_PAIRS_ARG, "--grid", f"{MAX_GRID_COUNT + 1}:0:1:lin"
        )
        assert code == 3 and out == ""
        assert err == f"error: grid needs 1 <= count <= {MAX_GRID_COUNT}, 0 <= min <= max\n"
        grid = _parse_grid(argparse.Namespace(lambdas=None, grid=f"{MAX_GRID_COUNT}:0:1:lin"))
        assert len(grid) == MAX_GRID_COUNT
        lambdas = ",".join(["1"] * MAX_GRID_COUNT)
        assert len(_parse_grid(argparse.Namespace(lambdas=lambdas, grid=None))) == MAX_GRID_COUNT

    @pytest.mark.parametrize("flags, message", [
        (("--lambdas", "0.1,1", "--grid", "5:0:1:lin"),
         "give either --lambdas or --grid, not both"),
        (("--lambdas", "a,b"), "bad --lambdas list: 'a,b'"),
        (("--grid", "x:0:1"), "bad --grid spec: 'x:0:1'"),
        (("--grid", "3:0:1"), "log spacing needs min > 0"),
        *((("--grid", grid), "log spacing overflows the float range: lower max or raise min")
          for grid in ("3:1e-200:1e200", "5:1:1.7976931348623157e308", "6:6:1.79769313486231e308")),
    ], ids=["lambdas-with-grid", "bad-lambdas", "bad-grid-spec", "log-from-zero", "log-inf-ratio",
            "log-power-overflow", "log-point-overflow"])
    def test_grid_flag_errors_exit_3(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "pareto", "--pairs", TOY_PAIRS_ARG, *flags)
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"  # no row: the error is not an ingest one


class TestBaselineAndOracle:
    def test_baseline_k6_all_in_one(self, capsys):
        payload = run_json(capsys, "baseline", "--pairs", TOY_PAIRS_ARG, "--k", "6")
        assert len(payload["quantization"]["clusters"]) == 1
        assert payload["k_anonymous"] is True

    def test_baseline_infeasible_k_exits_5(self, capsys):
        code, _, _ = run_cli(capsys, "baseline", "--pairs", TOY_PAIRS_ARG, "--k", "7")
        assert code == 5

    def test_oracle_value_bounds_greedy(self, capsys):
        greedy = run_json(
            capsys,
            "quantize",
            "--pairs",
            TOY_PAIRS_ARG,
            "--algorithm",
            "istar",
            "--lambda",
            "0.3",
            "--utility",
            "u1",
        )
        greedy_value = (
            greedy["measures"]["maximin_information"]
            - 0.3 * greedy["measures"]["utility"]
        )
        oracle = run_json(
            capsys,
            "oracle",
            "--pairs",
            TOY_PAIRS_ARG,
            "--problem",
            "istar",
            "--lambda",
            "0.3",
            "--utility",
            "u1",
        )
        assert oracle["value"] <= greedy_value + 1e-9
        assert oracle["optima_count"] >= 1

    def test_oracle_size_cap_exits_4(self, capsys):
        pairs = ",".join(f"s0:x{i}" for i in range(20))
        code, _, _ = run_cli(
            capsys, "oracle", "--pairs", pairs, "--problem", "l0", "--lambda", "0.3"
        )
        assert code == 4

    def test_oracle_infeasible_theta_exits_5(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "oracle",
            "--pairs",
            TOY_PAIRS_ARG,
            "--problem",
            "l0",
            "--theta",
            "99",
        )
        assert code == 5

    def test_oracle_needs_exactly_one_of_lambda_theta(self, capsys):
        code, _, _ = run_cli(capsys, "oracle", "--pairs", TOY_PAIRS_ARG, "--problem", "l0")
        assert code == 3

    @staticmethod
    def _argparse_takes_as_value(arg: str) -> bool:
        """Whether this Python's argparse reads ``arg`` after an option as its value."""
        parser = argparse.ArgumentParser(exit_on_error=False)
        parser.add_argument("--theta")
        try:
            return parser.parse_args(["--theta", arg]).theta == arg
        except argparse.ArgumentError:
            return False

    ORACLE_U2 = (
        "oracle", "--pairs", TOY_PAIRS_ARG, "--x-values", TOY_VALUES_ARG, "--utility", "u2",
    )

    def test_equals_form_takes_a_negative_theta_in_exponent_form(self, capsys):
        payload = run_json(capsys, *self.ORACLE_U2, "--theta=-1e-3")
        assert payload["manifest"]["config"]["theta"] == -1e-3

    def test_minus_infinite_theta_is_echoed_as_text(self, capsys):
        # -inf keeps its meaning, no constraint: the least privacy of any partition.
        code, out, err = run_cli(capsys, *self.ORACLE_U2, "--theta=-inf")
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"not JSON: {name}"))
        assert payload["manifest"]["config"]["theta"] == "-inf"
        assert payload["value"] == 0.0

    @pytest.mark.parametrize("theta", ["-1e-3", "-inf"])
    def test_spaced_negative_theta_in_exponent_form_exits_3(self, capsys, theta):
        # u2 thetas are <= 0. Up to Python 3.13.0 argparse reads only -N and
        # -N.N as negative numbers, so a spaced -1e-3 or -inf is taken for a
        # flag; the --theta=VALUE form parses on every version.
        spaced = run_cli(capsys, *self.ORACLE_U2, "--theta", theta)
        if self._argparse_takes_as_value(theta):
            # Both forms exit 0, and only the manifest timestamps may differ.
            equals = run_cli(capsys, *self.ORACLE_U2, f"--theta={theta}")
            assert untimed(spaced) == untimed(equals)
        else:
            assert spaced == (3, "", "error: argument --theta: expected one argument\n")


class TestUnreadableInputAndOutput:
    def test_non_utf8_csv_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"s,x\n1,\xff\xfe\n2,3\n")
        code, out, err = run_cli(capsys, "stats", "--input", str(path), "--s", "s", "--x", "x")
        assert code == 2 and out == ""
        assert err == "error: file is not UTF-8 text\n"

    def test_field_over_csv_limit_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge_field.csv"
        path.write_text("s,x\n1," + "x" * (csv.field_size_limit() + 1) + "\n")
        code, out, err = run_cli(capsys, "stats", "--input", str(path), "--s", "s", "--x", "x")
        assert code == 2 and out == ""
        assert err.startswith("error: CSV error on line 2: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content, message", [
        ("s,x\na,1\nb\n", "row has only 1 columns (row 3)"),
        ("s,x\na,1\n,2\n", "sensitive column value is empty (row 3)"),
    ], ids=["short-row", "empty-cell"])
    def test_bad_row_names_its_row(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        code, out, err = run_cli(
            capsys, "stats", "--input", str(path), "--s", "s", "--x", "x", "--missing", "NA"
        )
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_empty_id_in_pairs_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "stats", "--pairs", ":x1")
        assert code == 3 and out == "" and err.count("\n") == 1

    @pytest.mark.parametrize("delimiter", ["ab", ""], ids=["two-chars", "empty"])
    def test_delimiter_not_one_character_exits_3(self, capsys, toy_csv, delimiter):
        code, out, err = run_cli(
            capsys, "stats", "--input", toy_csv, "--s", "s", "--x", "x", "--delimiter", delimiter
        )
        assert code == 3 and out == ""
        assert err == f"error: delimiter must be one character, got {delimiter!r}\n"

    @pytest.mark.parametrize("target", ["", "missing/out.json"], ids=["directory", "no-parent"])
    def test_unwritable_json_out_exits_3(self, capsys, tmp_path, target):
        out_path = tmp_path / target
        code, out, err = run_cli(
            capsys, "stats", "--pairs", TOY_PAIRS_ARG, "--out", str(out_path)
        )
        assert code == 3 and out == ""
        assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("target", ["", "missing/out.csv"], ids=["directory", "no-parent"])
    def test_unwritable_csv_out_exits_3(self, capsys, tmp_path, target):
        out_path = tmp_path / target
        code, out, err = run_cli(
            capsys, "pareto", "--pairs", TOY_PAIRS_ARG, "--algorithm", "istar",
            "--grid", "2:0.1:1", "--format", "csv", "--out", str(out_path),
        )
        assert code == 3 and out == ""
        assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [
            '[["x1"]]',
            '"x1"',
            '{"clusters": [1, 2]}',
            '{"clusters": [[["x1"]]]}',
            '{"clusters": [{"id": "x1"}]}',
            b'{"clusters": [["\xff"]]}',
            None,
            "[" * 100_000 + "]" * 100_000,
            '{"clusters": ',
        ],
        ids=["top-level-list", "top-level-string", "non-list-cluster", "nested-member",
             "no-members-key", "non-utf8", "directory", "too-deep", "truncated"],
    )
    def test_malformed_apply_quantization_exits_3(self, capsys, tmp_path, content):
        path = tmp_path / "q.json"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        code, out, err = run_cli(
            capsys, "quantize", "--pairs", TOY_PAIRS_ARG, "--apply-quantization", str(path)
        )
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if content == '{"clusters": [{"id": "x1"}]}':
            assert "'members'" in err
        if content == '{"clusters": ':
            assert err == "error: quantization file is not valid JSON: " \
                "Expecting value: line 1 column 14 (char 13)\n"


class TestFlagTable:
    @pytest.mark.parametrize(
        "argv",
        [
            ("quantize", "--pairs", TOY_PAIRS_ARG, "--utility", "u3"),
            ("quantize", "--pairs", TOY_PAIRS_ARG, "--codeword", "foo"),
            ("quantize", "--pairs", TOY_PAIRS_ARG, "--algorithm", "foo"),
            ("oracle", "--pairs", TOY_PAIRS_ARG, "--problem", "foo", "--lambda", "1"),
            ("pareto", "--pairs", TOY_PAIRS_ARG, "--format", "xml"),
            ("stats", "--pairs", "a:b:c"),
            ("stats", "--pairs", TOY_PAIRS_ARG, "--x-values", "x1=abc"),
            ("stats", "--input", "absent.csv", "--s", "s", "--x", "x", "--x-values", "x1=1"),
            ("pareto", "--pairs", TOY_PAIRS_ARG, "--lambdas", "-1"),
            ("pareto", "--pairs", TOY_PAIRS_ARG, "--grid", "3:1:0"),
            ("stats", "--pairs", "a:b", "--s", "foo", "--x", "bar", "--delimiter", ";",
             "--no-header", "--missing", "zz", "--x-numeric"),
            ("oracle", "--pairs", TOY_PAIRS_ARG, "--problem", "l0", "--theta", "nan"),
            ("pareto", "--pairs", TOY_PAIRS_ARG, "--lambdas", ",".join(["1"] * (MAX_GRID_COUNT + 1))),
        ],
        ids=["utility", "codeword", "algorithm", "problem", "format", "pairs", "x-values",
             "x-values-with-input", "lambdas", "grid", "csv-flags-with-pairs", "theta-nan",
             "lambdas-over-cap"],
    )
    def test_invalid_value_exits_3_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, config",
        [
            (("stats",), {}),
            (
                ("quantize",),
                {"algorithm": "l0", "lambda": 0.0, "utility": "u1", "codeword": "centroid"},
            ),
            (
                ("quantize", "--algorithm", "istar", "--lambda", "0.3", "--utility", "u2",
                 "--codeword", "representative"),
                {"algorithm": "istar", "lambda": 0.3, "utility": "u2",
                 "codeword": "representative"},
            ),
            (
                ("pareto", "--format", "json"),
                {"algorithm": "l0", "utility": "u1", "codeword": "centroid",
                 "grid": "default(65)"},
            ),
            (
                ("pareto", "--format", "json", "--algorithm", "l0-zero-istar", "--grid",
                 "3:0:1:lin"),
                {"algorithm": "l0-zero-istar", "utility": "u1", "codeword": "centroid",
                 "grid": [0.0, 0.5, 1.0]},
            ),
            (("baseline", "--k", "2"), {"k": 2, "codeword": "centroid"}),
            (
                ("oracle", "--theta", "1.5"),
                {"problem": "l0", "lambda": None, "theta": 1.5, "utility": "u1",
                 "codeword": "centroid"},
            ),
            (
                ("oracle", "--problem", "istar", "--lambda", "0.3"),
                {"problem": "istar", "lambda": 0.3, "theta": None, "utility": "u1",
                 "codeword": "centroid"},
            ),
        ],
    )
    def test_manifest_config_echo(self, capsys, argv, config):
        payload = run_json(capsys, *argv, "--pairs", TOY_PAIRS_ARG, "--x-values", TOY_VALUES_ARG)
        manifest = payload["manifest"]
        assert list(manifest) == ["subcommand", "input", "config", "tool", "version", "timestamp"]
        assert manifest["subcommand"] == argv[0]
        assert manifest["input"] == {"pairs": TOY_PAIRS_ARG}
        assert list(manifest["config"].items()) == list(config.items())

    def test_csv_sidecar_manifest(self, capsys, tmp_path):
        out_file = tmp_path / "frontier.csv"
        code, out, _ = run_cli(
            capsys, "pareto", "--pairs", TOY_PAIRS_ARG, "--utility", "u1", "--lambdas", "0,0.3",
            "--out", str(out_file),
        )
        assert code == 0 and out == ""
        sidecar = json.loads((tmp_path / "frontier.csv.manifest.json").read_text())
        assert list(sidecar) == ["schema", "manifest"]
        config = sidecar["manifest"]["config"]
        assert list(config.items()) == [
            ("algorithm", "l0"), ("utility", "u1"), ("codeword", "centroid"), ("grid", [0.0, 0.3])
        ]


def test_fuzzed_argv_exits_with_a_stable_code(capsys, tmp_path, toy_csv):
    """Argv drawn from the parser's flag table ends in a stable exit code: one
    stderr line on failure, parseable JSON or CSV on success."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from privquant.cli import _COMMANDS, _FLAGS, _INPUT_FLAGS

    good_q = tmp_path / "q.json"
    good_q.write_text('{"clusters": [["x1", "x2"], ["x3", "x4", "x5"], ["x6", "x7"]]}')
    bad_q = tmp_path / "bad.json"
    bad_q.write_text('{"clusters": [["x1"], 3]}')
    pairs = st.lists(
        st.tuples(st.sampled_from(["s1", "s2", "s3", "s4"]),
                  st.sampled_from([f"x{i}" for i in range(1, 8)])),
        min_size=1, max_size=8,
    ).map(lambda ps: ",".join(f"{s}:{x}" for s, x in ps))
    x_values = st.dictionaries(
        st.sampled_from([f"x{i}" for i in range(1, 8)]),
        st.sampled_from(["0", "0.5", "-2", "1e308", "abc"]),
    ).map(lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
    grid = st.tuples(
        st.integers(0, 10), st.sampled_from(["0", "0.01", "1", "-1"]),
        st.sampled_from(["0.5", "10", "x"]), st.sampled_from(["", ":log", ":lin", ":sqrt"]),
    ).map(lambda g: f"{g[0]}:{g[1]}:{g[2]}{g[3]}")
    number = st.sampled_from(["0", "0.3", "2.5", "-1", "nan", "inf", "1e308", "abc"])
    values = {
        "--input": st.sampled_from([toy_csv, str(tmp_path / "absent.csv")]),
        "--s": st.sampled_from(["s", "0", "5", "nope"]),
        "--x": st.sampled_from(["x", "1", "s"]),
        "--missing": st.sampled_from(["-9", "s1", "x1"]),
        "--delimiter": st.sampled_from([",", ";", "ab"]),
        "--pairs": st.one_of(pairs, st.just("a:b:c")),
        "--x-values": x_values,
        "--lambda": number,
        "--theta": number,
        "--k": st.sampled_from(["0", "1", "2", "6", "7", "x"]),
        "--apply-quantization": st.sampled_from([str(good_q), str(bad_q), str(tmp_path)]),
        "--lambdas": st.sampled_from(["0,0.3", "-1", "a", "0.1,,2"]),
        "--grid": grid,
        "--out": st.sampled_from([str(tmp_path / "out"), str(tmp_path / "no" / "out")]),
    }

    def flag_value(flag):
        spec = _FLAGS[flag]
        if spec.get("action") == "store_true":
            return st.just([flag])
        if "choices" in spec:
            return st.sampled_from([*spec["choices"], "bogus"]).map(lambda v: [flag, v])
        return values[flag].map(lambda v: [flag, v])

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(sorted(_COMMANDS)))
        flags = [*_INPUT_FLAGS, *_COMMANDS[command][2], "--out"]
        chosen = draw(st.lists(st.sampled_from(flags), unique=True, max_size=6))
        argv = [command]
        for flag in chosen:
            argv += draw(flag_value(flag))
        if "--pairs" not in chosen and "--input" not in chosen:
            argv += draw(flag_value("--pairs"))
        return argv

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(argvs())
    def check(argv):
        out_file = tmp_path / "out"
        out_file.unlink(missing_ok=True)
        code, out, err = run_cli(capsys, *argv)
        assert code in {0, 1, 2, 3, 4, 5}
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return
        text = out_file.read_text() if "--out" in argv else out
        if text.startswith("{"):
            json.loads(text)
        else:
            assert next(csv.reader(text.splitlines()))[0] == "lambda"

    check()


class TestUsageErrors:
    def test_unknown_subcommand_exits_3(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 3

    def test_missing_input_exits_3(self, capsys):
        assert run_cli(capsys, "stats")[0] == 3

    def test_internal_error_is_one_line_exit_1(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setitem(cli._COMMANDS, "stats", (broken, *cli._COMMANDS["stats"][1:]))
        code, out, err = run_cli(capsys, "stats", "--pairs", TOY_PAIRS_ARG)
        assert (code, out) == (1, "")
        assert err == "error: internal error: RuntimeError: first line second line\n"
        # Under python -X dev the fault keeps its traceback.
        monkeypatch.setattr(cli.sys, "flags", argparse.Namespace(dev_mode=True))
        with pytest.raises(RuntimeError, match="second line"):
            main(["stats", "--pairs", TOY_PAIRS_ARG])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
