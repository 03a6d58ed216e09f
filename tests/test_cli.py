"""Exercises the command-line surface through cmd_dispatch."""

import dataclasses
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gasp_oracles
from gasptables import (
    DomainError,
    GaspParams,
    SearchResult,
    build_blp,
    build_ilp_fixed,
    construct,
    count_distinct,
    n_of_r,
)
from gasptables import cli
from gasptables.cli import PlotSeries, build_parser, cmd_dispatch, figure1a_series, figure1b_series
from gasptables.gasp import ChainSearchTrace
from ilp_oracles import parse_lp_text

MESSY = {
    "K": 3, "L": 2, "T": 1,
    "alpha_p": [19, 21, 1], "alpha_s": [9],
    "beta_p": [2, 6], "beta_s": [10],
}
GAPPY = {
    "K": 2, "L": 2, "T": 2,
    "alpha_p": [0, 1], "alpha_s": [9, 10],
    "beta_p": [0, 2], "beta_s": [4, 5],
}


def dispatch(capsys, *argv):
    code = cmd_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGaspCommands:
    def test_n_pretty_prints_bare_count(self, capsys):
        code, out, _ = dispatch(capsys, "gasp", "n", "--K", "4", "--L", "4", "--T", "4", "--r", "2")
        assert code == 0
        assert out == "36\n"

    def test_n_at_large_t(self, capsys):
        code, out, _ = dispatch(capsys, "gasp", "n", "--K", "2", "--L", "1", "--T", "10000000", "--r", "1")
        assert (code, out) == (0, "30000002\n")

    def test_n_json_payload(self, capsys):
        code, out, _ = dispatch(
            capsys, "gasp", "n", "--K", "4", "--L", "4", "--T", "4", "--r", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"K": 4, "L": 4, "T": 4, "r": 2, "N": 36}

    def test_score_breakdown(self, capsys):
        code, out, _ = dispatch(
            capsys, "gasp", "score", "--K", "4", "--L", "4", "--T", "4", "--r", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"left": [2, 2, 4, 4], "right": [0, 3, 1, 3], "total": 19}

    def test_construct_includes_transposed_flag(self, capsys):
        code, out, _ = dispatch(
            capsys, "gasp", "construct", "--K", "1", "--L", "1", "--T", "1", "--r", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "K": 1, "L": 1, "T": 1,
            "alpha_p": [0], "alpha_s": [1], "beta_p": [0], "beta_s": [1],
            "transposed": False,
        }

    def test_construct_big_swaps_wide_tables(self, capsys):
        code, out, _ = dispatch(
            capsys, "gasp", "construct", "--K", "2", "--L", "3", "--T", "2", "--big", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["transposed"] is True
        assert (doc["K"], doc["L"]) == (3, 2)
        assert doc["alpha_s"] == [6, 7]

    def test_optimal_r_reports_trace(self, capsys):
        code, out, _ = dispatch(
            capsys, "gasp", "optimal-r", "--K", "9", "--L", "6", "--T", "9", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["r_star"] == 3
        assert doc["N"] == 112
        assert doc["trace"]["W"] == [1, 2, 4, 8]
        assert set(doc["trace"]) == {f.name for f in dataclasses.fields(ChainSearchTrace)}

    # The full scan over every r is the test oracle now, not a CLI mode.
    @pytest.mark.parametrize("mode", ["full_scan", "reduced"])
    def test_optimal_r_has_no_mode_flag(self, capsys, mode):
        argv = ["gasp", "optimal-r", "--K", "9", "--L", "6", "--T", "30", "--format", "json"]
        code, _, err = dispatch(capsys, *argv, "--mode", mode)
        assert code == 2 and "unrecognized arguments: --mode" in err
        code, out, _ = dispatch(capsys, *argv)
        doc = json.loads(out)
        assert code == 0 and (doc["r_star"], doc["N"]) == gasp_oracles.optimal_r_full_scan(9, 6, 30)

    # The error names the flag the bad value was given to, also where L > K.
    @pytest.mark.parametrize("bad", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--K", "--L", "--T"])
    def test_optimal_r_names_the_bad_flag(self, capsys, flag, bad):
        argv = ["gasp", "optimal-r", "--K", "1", "--L", "2", "--T", "1"]
        argv[argv.index(flag) + 1] = bad
        code, out, err = dispatch(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {flag[2:]} must be a positive integer, got {bad}\n")
        argv[argv.index(flag) + 1] = "2.5"
        code, _, err = dispatch(capsys, *argv)
        assert code == 2 and f"argument {flag}: invalid int value: '2.5'" in err

    def test_r_and_big_are_mutually_exclusive(self, capsys):
        code, _, _ = dispatch(
            capsys, "gasp", "n", "--K", "2", "--L", "2", "--T", "2", "--r", "1", "--big"
        )
        assert code == 2


class TestTableCommands:
    def test_normal_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(MESSY)))
        code, out, _ = dispatch(capsys, "table", "normal", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "K": 3, "L": 2, "T": 1,
            "alpha_p": [0, 9, 10], "alpha_s": [4],
            "beta_p": [0, 2], "beta_s": [4],
        }

    def test_canonical_reads_file(self, capsys, tmp_path):
        src = tmp_path / "messy.json"
        src.write_text(json.dumps(MESSY))
        code, out, _ = dispatch(capsys, "table", "canonical", "--in", str(src), "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "K": 3, "L": 2, "T": 1,
            "alpha_p": [0, 1, 10], "alpha_s": [6],
            "beta_p": [2, 4], "beta_s": [0],
        }

    def test_squeeze_trace_lists_steps(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(GAPPY)))
        code, out, _ = dispatch(capsys, "table", "squeeze", "--trace", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["table"]["alpha_s"] == [7, 8]
        assert doc["steps"] == [{"kind": "alpha_op", "index": 1, "threshold": 1, "affected": [2, 3], "by": 2}]

    def test_squeeze_out_writes_file(self, capsys, tmp_path):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        src.write_text(json.dumps(GAPPY))
        code, out, _ = dispatch(capsys, "table", "squeeze", "--in", str(src), "--out", str(dst))
        assert code == 0
        assert out == ""
        assert json.loads(dst.read_text())["alpha_s"] == [7, 8]

    def test_missing_input_file_is_a_domain_failure(self, capsys, tmp_path):
        code, _, err = dispatch(capsys, "table", "normal", "--in", str(tmp_path / "nope.json"))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("doc,message", [
        (5, "table JSON must be an object, got int"),
        (None, "table JSON must be an object, got NoneType"),
        ({**MESSY, "beta_s": 5}, "beta_s must be a list of integers, got int"),
    ])
    @pytest.mark.parametrize("command", ["table normal --in", "sdmm run --dims 3,2,2 --table"])
    def test_malformed_table_json_is_one_error_line(self, capsys, tmp_path, doc, message, command):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        code, out, err = dispatch(capsys, *command.split(), str(src))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["table normal --in", "sdmm run --dims 3,2,2 --table"])
    def test_deeply_nested_json_is_one_error_line(self, capsys, tmp_path, command):
        src = tmp_path / "deep.json"
        src.write_text("[" * 100_000)
        code, out, err = dispatch(capsys, *command.split(), str(src))
        assert (code, out, err) == (1, "", f"error: table JSON in {src} is nested too deeply\n")

    def test_deeply_nested_stdin_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100_000))
        code, out, err = dispatch(capsys, "table", "normal")
        assert (code, out, err) == (1, "", "error: table JSON in standard input is nested too deeply\n")

    # A decoder error names its source, as the nesting error does: a file, or standard input for "-".
    @pytest.mark.parametrize("command", ["table normal --in", "sdmm run --dims 3,2,2 --table"])
    def test_invalid_json_names_the_file(self, capsys, tmp_path, monkeypatch, command):
        src = tmp_path / "bad.json"
        src.write_text('{"K": 1 "L": 1}')
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"K": 1 "L": 1}'))
        why = "is not valid JSON: Expecting ',' delimiter: line 1 column 9 (char 8)"
        for path, source in ((str(src), str(src)), ("-", "standard input")):
            code, out, err = dispatch(capsys, *command.split(), path)
            assert (code, out, err) == (1, "", f"error: table JSON in {source} {why}\n")


class TestBoundsCommand:
    def test_report_without_dims(self, capsys):
        code, out, _ = dispatch(capsys, "bounds", "--K", "2", "--L", "2", "--T", "5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "K": 2, "L": 2, "T": 5,
            "ineq1": 15, "ineq2": 16, "ineq2_conditions": ["square"],
            "ineq3": 7, "best": 16,
            "entry_bound_alpha": 10, "entry_bound_beta": 10,
            "operational_threshold": None,
        }

    def test_pretty_follows_the_record_field_order(self, capsys):
        code, out, _ = dispatch(capsys, "bounds", "--K", "2", "--L", "2", "--T", "5")
        assert code == 0
        assert out == (
            "K: 2\nL: 2\nT: 5\nineq1: 15\nineq2: 16\nineq2_conditions: [square]\nineq3: 7\n"
            "entry_bound_alpha: 10\nentry_bound_beta: 10\nbest: 16\noperational_threshold: null\n"
        )

    def test_dims_add_operational_threshold(self, capsys):
        code, out, _ = dispatch(
            capsys, "bounds", "--K", "1", "--L", "1", "--T", "1", "--dims", "1,1,1,8", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["operational_threshold"] == "8**1 - 2"
        assert doc["entry_bound_alpha"] is None
        assert doc["best"] == 3

    @pytest.mark.parametrize("dims, threshold", [
        ("20,20,20,2", "2**15600 - 2"),
        ("2000,2000,2000,3", "3**15996000000 - 2"),
    ])
    def test_large_dims_print_the_exponent(self, capsys, dims, threshold):
        # the power itself has too many digits to print, or to build at all
        code, out, _ = dispatch(
            capsys, "bounds", "--K", "4", "--L", "4", "--T", "4", "--dims", dims, "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["operational_threshold"] == threshold

    def test_malformed_dims(self, capsys):
        code, _, err = dispatch(capsys, "bounds", "--K", "1", "--L", "1", "--T", "1", "--dims", "1,1,1")
        assert code == 1
        assert "--dims needs 4 comma-separated integers" in err


class TestSearchCommands:
    def test_census_smallest_interesting_case(self, capsys):
        code, out, _ = dispatch(
            capsys, "search", "exhaustive", "--K", "1", "--L", "1", "--T", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["best_n"] == 5
        assert doc["tables_examined"] == 9
        assert doc["valid_tables"] == 2
        assert doc["entry_bound"] == [2, 2]
        assert doc["side_candidates"] == [3, 3]
        assert len(doc["optima"]) == 2
        assert [t["alpha_s"] for t in doc["canonical_optima"]] == [[1, 2]]
        assert set(doc) == {f.name for f in dataclasses.fields(SearchResult)}

    def test_census_refuses_unbounded_parameters(self, capsys):
        code, _, err = dispatch(capsys, "search", "exhaustive", "--K", "1", "--L", "1", "--T", "1")
        assert code == 1
        assert "no proven entry bound" in err

    def test_fixed_prefix_census(self, capsys):
        code, out, _ = dispatch(
            capsys, "search", "exhaustive", "--fixed-prefix",
            "--K", "2", "--L", "2", "--T", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["best_n"] == 11
        assert doc["tables_examined"] == 24
        assert doc["budget_exhausted"] is False
        assert sorted(t["alpha_s"] for t in doc["optima"]) == [[4, 5], [4, 6]]
        assert set(doc) == {f.name for f in dataclasses.fields(SearchResult)}

    def test_greedy_reports_table(self, capsys):
        code, out, _ = dispatch(
            capsys, "search", "greedy", "--K", "3", "--L", "3", "--T", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_s"] == [9, 10, 12]
        assert doc["N"] == 22
        assert doc["nodes"] == 7
        assert doc["table"]["alpha_s"] == doc["alpha_s"]

    @pytest.mark.parametrize("argv,message", [
        (("greedy", "--budget", "-1"), "budget must be >= 0, got -1"),
        (("greedy", "--beam-width", "0"), "beam_width must be >= 1, got 0"),
        (("exhaustive", "--fixed-prefix", "--budget", "-3"), "budget must be >= 0, got -3"),
        (("exhaustive", "--fixed-prefix", "--budget", "0"),
         "fixed-prefix search scored no suffix (budget too small)"),
    ])
    def test_search_limits_exit_one(self, capsys, argv, message):
        code, out, err = dispatch(capsys, "search", *argv, "--K", "2", "--L", "2", "--T", "2")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,flag", [
        (("exhaustive", "--budget", "5"), "--budget"),
        (("exhaustive", "--fixed-prefix", "--entry-bound", "9"), "--entry-bound"),
        (("emit-lp", "--kind", "census", "--entry-bound", "9", "--tight-link"), "--tight-link"),
        (("emit-lp", "--kind", "fixed", "--entry-bound", "9"), "--entry-bound"),
    ])
    def test_search_refuses_flags_its_mode_ignores(self, capsys, argv, flag):
        code, out, err = dispatch(capsys, "search", *argv, "--K", "2", "--L", "2", "--T", "5")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} applies to ") and err.count("\n") == 1

    def test_emit_lp_fixed_roundtrips(self, capsys, tmp_path):
        dst = tmp_path / "model.lp"
        code, out, _ = dispatch(
            capsys, "search", "emit-lp", "--K", "2", "--L", "2", "--T", "2", "--out", str(dst)
        )
        assert code == 0
        assert out == ""
        assert parse_lp_text(dst.read_text()) == build_ilp_fixed(2, 2, 2)

    def test_emit_lp_census_to_stdout(self, capsys):
        code, out, _ = dispatch(
            capsys, "search", "emit-lp", "--kind", "census", "--K", "1", "--L", "1", "--T", "2"
        )
        assert code == 0
        assert parse_lp_text(out) == build_blp(1, 1, 2, (2, 2))

    def test_emit_lp_census_needs_a_bound(self, capsys):
        code, _, err = dispatch(
            capsys, "search", "emit-lp", "--kind", "census", "--K", "1", "--L", "1", "--T", "1"
        )
        assert code == 1
        assert "pass --entry-bound" in err

    @pytest.mark.parametrize("kind", ["fixed", "census"])
    def test_emit_lp_rejects_t_zero(self, capsys, kind):
        code, out, err = dispatch(
            capsys, "search", "emit-lp", "--kind", kind, "--K", "2", "--L", "2", "--T", "0"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_emit_lp_census_with_entry_bound(self, capsys):
        code, out, _ = dispatch(
            capsys, "search", "emit-lp", "--kind", "census", "--entry-bound", "2",
            "--K", "1", "--L", "1", "--T", "1",
        )
        assert code == 0
        assert parse_lp_text(out) == build_blp(1, 1, 1, (2, 2))


class TestSdmmCommand:
    def test_run_reports_roundtrip_and_security(self, capsys):
        code, out, _ = dispatch(
            capsys, "sdmm", "run", "--dims", "2,2,2",
            "--K", "1", "--L", "1", "--T", "1", "--r", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == 5
        assert doc["n_servers"] == 3
        assert doc["decode_matches_plain"] is True
        assert doc["share_shape_f"] == [2, 2]
        assert doc["response_shape"] == [2, 2]
        assert doc["security"] == {
            "total_subsets": 3, "checked": 3, "exhaustive": True, "ok": True, "failures": 0,
        }

    def test_run_past_sys_maxsize_decodes(self, capsys):
        code, out, err = dispatch(
            capsys, "sdmm", "run", "--dims", "1,1,1", "--q", str(2**63),
            "--K", "1", "--L", "1", "--T", "1", "--r", "1", "--format", "json",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["q"] > sys.maxsize
        assert doc["decode_matches_plain"] is True and doc["security"]["ok"] is True

    # --q 1 and below used to be accepted and raised to the table's own minimum.
    @pytest.mark.parametrize("q", ["1", "0", "-7"])
    def test_field_size_below_two_exits_one(self, capsys, q):
        code, out, err = dispatch(capsys, "sdmm", "run", "--dims", "1,1,1", "--q", q,
                                  "--K", "1", "--L", "1", "--T", "1", "--r", "1")
        assert (code, out, err) == (1, "", f"error: base_q must be at least 2, got {q}\n")

    def test_dump_shares_writes_one_file_per_server(self, capsys, tmp_path):
        dest = tmp_path / "shares"
        code, _, _ = dispatch(
            capsys, "sdmm", "run", "--dims", "2,2,2",
            "--K", "1", "--L", "1", "--T", "1", "--r", "1",
            "--dump-shares", str(dest),
        )
        assert code == 0
        names = sorted(p.name for p in dest.iterdir())
        assert names == ["server_000.json", "server_001.json", "server_002.json"]
        doc = json.loads((dest / "server_000.json").read_text())
        assert sorted(doc) == ["f", "g", "point", "response", "server"]
        assert doc["server"] == 0
        assert len(doc["f"]) == 2 and len(doc["f"][0]) == 2

    def test_table_parameters_must_be_complete(self, capsys):
        code, _, err = dispatch(
            capsys, "sdmm", "run", "--dims", "2,2,2", "--K", "1", "--L", "1", "--T", "1"
        )
        assert code == 1
        assert "need --table or all of --K --L --T --r" in err

    @pytest.mark.parametrize("dims", ["2,4,8", "4,4,4"])
    @pytest.mark.parametrize("T,r", [(1, 1), (3, 2)])
    def test_more_column_blocks_than_row_blocks(self, capsys, dims, T, r):
        # GaspParams stores K=4, L=2 with transposed set; the run must still
        # cut A into K=2 row blocks and B into L=4 column blocks.
        code, out, err = dispatch(
            capsys, "sdmm", "run", "--dims", dims,
            "--K", "2", "--L", "4", "--T", str(T), "--r", str(r), "--format", "json",
        )
        assert code == 0, err
        doc = json.loads(out)
        a, b, c = map(int, dims.split(","))
        assert (doc["table"]["K"], doc["table"]["L"]) == (2, 4)
        assert doc["n_servers"] == n_of_r(GaspParams(2, 4, T, r))
        assert doc["share_shape_f"] == [a // 2, b]
        assert doc["response_shape"] == [a // 2, c // 4]
        assert doc["decode_matches_plain"] is True

    def test_indivisible_dims_fail_cleanly(self, capsys):
        code, _, err = dispatch(
            capsys, "sdmm", "run", "--dims", "3,2,2", "--K", "2", "--L", "1", "--T", "1", "--r", "1"
        )
        assert code == 1
        assert "A has 3 rows, not divisible by K=2" in err


class TestCostCommands:
    def test_compare_json_keeps_fractions_exact(self, capsys):
        code, out, _ = dispatch(
            capsys, "cost", "compare", "--exponents", "1,1,1,1/2,1/2,1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "outer_exponent": "5/2", "inner_exponent": "3", "outer_wins": True,
        }

    def test_compare_tsv_renders_decimals(self, capsys):
        code, out, _ = dispatch(
            capsys, "cost", "compare", "--exponents", "1,1,1,1/2,1/2,1", "--format", "tsv"
        )
        assert code == 0
        assert out == "key\tvalue\nouter_exponent\t2.5\ninner_exponent\t3\nouter_wins\ttrue\n"

    def test_concrete_costs(self, capsys):
        code, out, _ = dispatch(
            capsys, "cost", "concrete", "--dims", "4,4,4",
            "--blocks", "2,2,4", "--servers", "17,9", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "u_outer": "272", "d_outer": "68", "total_outer": "340",
            "u_inner": "72", "d_inner": "144", "total_inner": "216",
        }

    def test_wrong_exponent_count(self, capsys):
        code, _, err = dispatch(capsys, "cost", "compare", "--exponents", "1,2,3")
        assert code == 1
        assert "--exponents needs 6 comma-separated rationals" in err


class TestFigureCommands:
    def test_figure_1a_tsv(self, capsys):
        code, out, _ = dispatch(capsys, "figure", "1a", "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x\tr=1\tr=2\tr=3\tr=4\tineq1"
        assert lines[4] == "4\t41\t36\t37\t39\t27"

    def test_figure_pretty_defaults_to_tsv(self, capsys):
        _, tsv_out, _ = dispatch(capsys, "figure", "1a", "--format", "tsv")
        _, pretty_out, _ = dispatch(capsys, "figure", "1a")
        assert pretty_out == tsv_out

    def test_figure_1b_json_exact_ratios(self, capsys):
        code, out, _ = dispatch(capsys, "figure", "1b", "--n-max", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["series"] == [
            {"name": "r=1", "rows": [[2, "41/28"]]},
            {"name": "r=n", "rows": [[2, "9/7"]]},
            {"name": "r=n^2", "rows": [[2, "39/28"]]},
        ]
        code, out, _ = dispatch(capsys, "figure", "1b", "--n-max", "4", "--format", "json")
        assert code == 0
        series = json.loads(out)["series"]
        assert [s["name"] for s in series] == ["r=1", "r=n", "r=n^2"]
        for s, chain in zip(series, (lambda n: 1, lambda n: n, lambda n: n * n)):
            assert [x for x, _ in s["rows"]] == [2, 3, 4]
            for n, ratio in s["rows"]:
                k = n * n
                table = construct(GaspParams(k, k, k, chain(n)))
                assert Fraction(ratio) == Fraction(count_distinct(table), n ** 4 + 3 * n ** 2)

    def test_figure_1b_tsv_decimals(self, capsys):
        code, out, _ = dispatch(capsys, "figure", "1b", "--n-max", "2", "--format", "tsv")
        assert code == 0
        assert out == "x\tr=1\tr=n\tr=n^2\n2\t1.464285714\t1.285714286\t1.392857143\n"

    def test_readme_figure_1b_rows(self):
        # The README's six rows, as `figure 1b --n-max 300 --format tsv` prints them.
        text = (Path(__file__).parent.parent / "README.md").read_text()
        section = text.split("## Figure 1b\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.strip("|").split("|") for line in section.splitlines() if line[2:3].isdigit()]
        readme = {int(n): [cell.strip() for cell in cells] for n, *cells in rows}
        assert sorted(readme) == [2, 5, 10, 30, 100, 300]
        series = figure1b_series(300)
        want = {n: [format(float(dict(s.rows)[n]), ".10g") for s in series] for n in readme}
        assert readme == want
        r_1, r_n, r_n2 = (float(dict(s.rows)[300]) for s in series)
        assert r_n < 1.007 and min(r_1, r_n2) > 1.9999

    def test_figure_1b_needs_two_points(self, capsys):
        code, _, err = dispatch(capsys, "figure", "1b", "--n-max", "1")
        assert code == 1
        assert "n_max must be at least 2" in err

    def test_figure_1a_refuses_n_max(self, capsys):
        code, out, err = dispatch(capsys, "figure", "1a", "--n-max", "3")
        assert code == 1
        assert out == ""
        assert err == "error: --n-max applies to figure 1b only\n"

    def test_figure_1b_defaults_to_n_max_20(self, capsys):
        _, default_out, _ = dispatch(capsys, "figure", "1b", "--format", "json")
        _, twenty_out, _ = dispatch(capsys, "figure", "1b", "--n-max", "20", "--format", "json")
        assert default_out == twenty_out
        assert [x for x, _ in json.loads(default_out)["series"][0]["rows"]] == list(range(2, 21))

    def test_series_x_must_increase(self):
        with pytest.raises(ValueError, match="x values must be increasing"):
            PlotSeries(name="bad", rows=((2, 1), (1, 1)))

    def test_builtin_series_are_well_formed(self):
        series = figure1a_series()
        assert [s.name for s in series] == ["r=1", "r=2", "r=3", "r=4", "ineq1"]
        for s in series:
            xs = [x for x, _ in s.rows]
            assert xs == sorted(set(xs))


class TestStatsCommand:
    def test_small_grid_json(self, capsys):
        code, out, _ = dispatch(
            capsys, "stats", "--k-max", "4", "--t-max", "11", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "k_max": 4, "t_max": 11, "triples": 110,
            "mean": "1637/660", "mean_decimal": "2.480303",
        }

    def test_pretty_shows_exact_and_decimal(self, capsys):
        code, out, _ = dispatch(capsys, "stats", "--k-max", "4", "--t-max", "11")
        assert code == 0
        assert out == "1637/660 = 2.480303\n"

    @pytest.mark.parametrize("argv,message", [
        (("--k-max", "0", "--t-max", "1"), "k_max must be a positive integer, got 0"),
        (("--k-max", "4", "--t-max", "-2"), "t_max must be a positive integer, got -2"),
    ])
    def test_nonpositive_limit_exits_one(self, capsys, argv, message):
        code, out, err = dispatch(capsys, "stats", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestDispatch:
    def test_no_arguments_is_usage_error(self, capsys):
        assert dispatch(capsys)[0] == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert dispatch(capsys, "nonsense")[0] == 2

    def test_missing_required_option_is_usage_error(self, capsys):
        assert dispatch(capsys, "gasp", "n", "--K", "2", "--L", "2")[0] == 2

    def test_domain_errors_exit_one_with_message(self, capsys):
        code, _, err = dispatch(capsys, "gasp", "n", "--K", "2", "--L", "2", "--T", "2", "--r", "9")
        assert code == 1
        assert err.startswith("error: r=9 out of range")

    @pytest.mark.parametrize("argv,what,text,convert,message", [
        ("sdmm run --dims 2,x,4 --K 2 --L 2 --T 2 --r 1", "--dims", "2,x,4", int,
         "--dims: non-integer in '2,x,4'"),
        ("bounds --K 1 --L 1 --T 1 --dims 1,1,1,2.0", "--dims", "1,1,1,2.0", int,
         "--dims: non-integer in '1,1,1,2.0'"),
        ("cost compare --exponents 1,1,1,1/0,1,1", "--exponents", "1,1,1,1/0,1,1", Fraction,
         "--exponents: bad rational in '1,1,1,1/0,1,1'"),
        ("cost compare --exponents 1,1,1,x,1,1", "--exponents", "1,1,1,x,1,1", Fraction,
         "--exponents: bad rational in '1,1,1,x,1,1'"),
    ])
    def test_unparseable_number_is_one_error_line(self, capsys, argv, what, text, convert, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as e:
            cli._parse(text, len(text.split(",")), what, convert)
        assert isinstance(e.value, ValueError)
        assert dispatch(capsys, *argv.split()) == (1, "", f"error: {message}\n")

    def test_seed_env_variable(self, monkeypatch):
        monkeypatch.setenv("GASPTABLES_SEED", "7")
        args = build_parser().parse_args(
            ["sdmm", "run", "--dims", "1,1,1", "--K", "1", "--L", "1", "--T", "1", "--r", "1"]
        )
        assert args.seed == 7

    def test_unparseable_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("GASPTABLES_SEED", "junk")
        code, _, err = dispatch(
            capsys, "sdmm", "run", "--dims", "1,1,1", "--K", "1", "--L", "1", "--T", "1", "--r", "1"
        )
        assert code == 2
        assert "invalid int value: 'junk'" in err
        # An explicit --seed overrides the environment, so it is never parsed.
        assert build_parser().parse_args(
            ["sdmm", "run", "--dims", "1,1,1", "--seed", "3"]
        ).seed == 3


EVERY_COMMAND = [
    "gasp construct --K 4 --L 3 --T 5 --r 2",
    "gasp score --K 4 --L 4 --T 4 --r 2",
    "gasp n --K 4 --L 4 --T 4 --big",
    "gasp optimal-r --K 9 --L 6 --T 9",
    "table squeeze --trace --in {gappy}",
    "table normal --in {messy}",
    "table canonical --in {messy}",
    "bounds --K 2 --L 2 --T 5",
    "bounds --K 4 --L 4 --T 4 --dims 20,20,20,2",
    "search exhaustive --K 1 --L 1 --T 2",
    "search exhaustive --fixed-prefix --K 2 --L 2 --T 2",
    "search greedy --K 3 --L 3 --T 3",
    "search emit-lp --kind census --K 1 --L 1 --T 2",
    "search emit-lp --tight-link --K 2 --L 1 --T 2",
    "search exhaustive --entry-bound 2 --K 1 --L 1 --T 1",
    "sdmm run --dims 2,4,4 --K 2 --L 2 --T 2 --r 2",
    "cost compare --exponents 1,1,1,1/2,1/2,1",
    "cost concrete --dims 4,4,4 --blocks 2,2,4 --servers 17,9",
    "figure 1a",
    "figure 1b --n-max 3",
    "stats --k-max 4 --t-max 11",
]


@pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_every_command_renders_in_every_format(capsys, tmp_path, command, fmt):
    files = {"gappy": GAPPY, "messy": MESSY}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = command.format(**{n: str(tmp_path / f"{n}.json") for n in files}).split()
    code, out, err = dispatch(capsys, *argv, "--format", fmt)
    assert code == 0, err
    assert out.strip()
    if argv[:2] == ["search", "emit-lp"]:
        parse_lp_text(out)
    elif fmt == "json":
        json.loads(out)


LEAVES = {path: arguments for path, _, _, arguments in cli._commands()}
GROUPS = sorted({path.rpartition(" ")[0] for path in LEAVES})  # "" is the top level


def _flags(arguments):
    """The option strings of a row's arguments, either-or groups included."""
    for flag, kw in arguments:
        if flag is None:
            yield from _flags(kw)
        elif flag.startswith("-"):
            yield flag


def test_every_leaf_command_has_a_render_line():
    for path in LEAVES:
        assert any(line.split()[:len(path.split())] == path.split() for line in EVERY_COMMAND), path


@pytest.mark.parametrize("path", GROUPS + list(LEAVES))
def test_help_on_every_command_path(capsys, path):
    words = path.split()
    code, out, err = dispatch(capsys, *words, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: gasptables", *words, "[-h]"]))
    if path in LEAVES:
        for flag in ("--format", *_flags(LEAVES[path])):
            assert re.search(rf"^  {re.escape(flag)}[ \n]", out, re.M), flag
    else:
        children = {p.split()[len(words)] for p in LEAVES if p.split()[:len(words)] == words}
        for child in children:
            assert re.search(rf"^    {re.escape(child)} ", out, re.M), child


@pytest.mark.parametrize("group", GROUPS)
def test_unknown_flag_names_the_leaf_in_its_usage(capsys, group):
    # One valid command line per group: argparse's subparsers pass unknown
    # arguments up to the top level, yet the leaf's own parser reports them.
    path = next(p for p in LEAVES if p.rpartition(" ")[0] == group)
    line = next(c for c in EVERY_COMMAND if c.split()[:len(path.split())] == path.split())
    code, out, err = dispatch(capsys, *line.format(gappy="-", messy="-").split(), "--bogus", "7")
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: gasptables {path} [-h] ")
    assert err.endswith(f"\ngasptables {path}: error: unrecognized arguments: --bogus 7\n")
