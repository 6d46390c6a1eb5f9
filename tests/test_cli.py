import csv
import json

import pytest

from helpers import TOY_PAIRS, TOY_VALUES
from privquant.cli import main

TOY_PAIRS_ARG = ",".join(f"{s}:{x}" for s, x in TOY_PAIRS)
TOY_VALUES_ARG = ",".join(f"{x}={v}" for x, v in TOY_VALUES.items())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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
        code, out, err = run_cli(
            capsys, "quantize", "--pairs", "a:x1,b:x2,a:x3",
            "--x-values", "x1=1.7e308,x2=-1.7e308,x3=1.7e308",
            "--algorithm", "l0", "--utility", "u2", "--lambda", "0",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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
        first = run_json(
            capsys,
            "quantize",
            "--pairs",
            TOY_PAIRS_ARG,
            "--x-values",
            TOY_VALUES_ARG,
            "--algorithm",
            "l0",
            "--lambda",
            "2.5",
            "--utility",
            "u2",
        )
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(first))
        second = run_json(
            capsys,
            "quantize",
            "--pairs",
            TOY_PAIRS_ARG,
            "--x-values",
            TOY_VALUES_ARG,
            "--utility",
            "u2",
            "--apply-quantization",
            str(qfile),
        )
        assert second["measures"] == first["measures"]
        assert second["quantization"] == first["quantization"]

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


class TestUsageErrors:
    def test_unknown_subcommand_exits_3(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 3

    def test_missing_input_exits_3(self, capsys):
        assert run_cli(capsys, "stats")[0] == 3

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
