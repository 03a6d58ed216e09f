"""Exercises the command-line surface through cmd_dispatch."""

import io
import json
import sys

import pytest

from gasptables import GaspParams, build_blp, build_ilp_fixed, n_of_r, parse_lp_text
from gasptables.cli import PlotSeries, build_parser, cmd_dispatch, figure1a_series

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
        assert {"phi", "mu", "x", "Q", "Q_prime", "Q_dprime", "evaluated"} <= set(doc["trace"])

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
        assert doc["steps"] == [
            {"kind": "alpha_op", "index": 1, "threshold": 1, "affected": [2, 3]},
            {"kind": "alpha_op", "index": 1, "threshold": 1, "affected": [2, 3]},
        ]

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
        assert lines[0] == "x\tr=1\tr=2\tr=3\tr=4\tbound"
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

    def test_figure_1b_tsv_decimals(self, capsys):
        code, out, _ = dispatch(capsys, "figure", "1b", "--n-max", "2", "--format", "tsv")
        assert code == 0
        assert out == "x\tr=1\tr=n\tr=n^2\n2\t1.464285714\t1.285714286\t1.392857143\n"

    def test_figure_1b_needs_two_points(self, capsys):
        code, _, err = dispatch(capsys, "figure", "1b", "--n-max", "1")
        assert code == 1
        assert "n_max must be at least 2" in err

    def test_series_x_must_increase(self):
        with pytest.raises(ValueError, match="x values must be increasing"):
            PlotSeries(name="bad", rows=((2, 1), (1, 1)))

    def test_builtin_series_are_well_formed(self):
        series = figure1a_series()
        assert [s.name for s in series] == ["r=1", "r=2", "r=3", "r=4", "bound"]
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
