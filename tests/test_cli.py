"""Command-line interface: flags, file formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from helpers import (_fmt, reference_print_allocation, reference_print_decision,
                     reference_stepwise)
from poweralloc import RocModel, cli, decide_weak_fwer, generalized_pvalues, procedures
from poweralloc.allocate import SizeConditionReport
from poweralloc.sim import PROCEDURE_TAGS


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "poweralloc", *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return proc


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestAllocate:
    def test_optimal_constant_gamma_json(self):
        proc = run_cli("allocate", "--alpha", "0.05", "--M", "4",
                       "--gamma-const", "1", "--method", "optimal")
        doc = json.loads(proc.stdout)
        assert doc["schema_version"] == "2"
        etas = [rec["eta"] for rec in doc["records"]]
        assert etas == pytest.approx([0.012741] * 4, abs=5e-6)
        assert doc["efficiency_vs_sidak"] == pytest.approx(100.0, abs=1e-6)
        assert abs(doc["constraint_residual"]) < 1e-10

    def test_sidak_by_m(self):
        proc = run_cli("allocate", "--alpha", "0.05", "--M", "20", "--method", "sidak")
        doc = json.loads(proc.stdout)
        assert [r["eta"] for r in doc["records"]] == pytest.approx([0.002561] * 20, abs=5e-7)

    def test_zero_budget(self):
        proc = run_cli("allocate", "--alpha", "0", "--M", "3",
                       "--gamma-const", "2", "--method", "optimal")
        doc = json.loads(proc.stdout)
        assert [r["eta"] for r in doc["records"]] == [0.0, 0.0, 0.0]

    def test_input_file_and_csv_output(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_csv(path, ["id", "gamma"], [["a", 0.5], ["b", 0.5], ["c", 1.0], ["d", 1.0]])
        proc = run_cli("allocate", "--alpha", "0.05", "--input", str(path), "--out", "csv")
        rows = parse_csv(proc.stdout)
        assert [r["id"] for r in rows] == ["a", "b", "c", "d"]
        etas = [float(r["eta"]) for r in rows]
        assert etas[2] == pytest.approx(0.0245, abs=5e-4)
        assert float(rows[0]["efficiency_vs_sidak"]) == pytest.approx(113.6, abs=0.05)

    def test_clustered(self, tmp_path):
        path = tmp_path / "clusters.csv"
        rows = [[f"g{i}", 1.0 if i < 10 else 5.0, "lo" if i < 10 else "hi"]
                for i in range(20)]
        write_csv(path, ["id", "gamma", "cluster"], rows)
        proc = run_cli("allocate", "--alpha", "0.05", "--method", "clustered",
                       "--input", str(path))
        doc = json.loads(proc.stdout)
        etas = [r["eta"] for r in doc["records"]]
        assert etas[0] == pytest.approx(0.0035, abs=5e-4)
        assert etas[19] == pytest.approx(0.0016, abs=5e-4)

    def test_clustered_interleaved_labels_keep_input_order(self, tmp_path):
        rows = [[f"g{i}", 1.0 if i % 2 == 0 else 5.0, "lo" if i % 2 == 0 else "hi"]
                for i in range(8)]
        path = tmp_path / "clusters.csv"
        write_csv(path, ["id", "gamma", "cluster"], rows)
        clustered = json.loads(run_cli("allocate", "--alpha", "0.05", "--method", "clustered",
                                       "--input", str(path)).stdout)
        optimal = json.loads(run_cli("allocate", "--alpha", "0.05", "--method", "optimal",
                                     "--input", str(path)).stdout)
        assert clustered["method"] == "clustered"
        assert [r["id"] for r in clustered["records"]] == [r[0] for r in rows]
        assert [r["cluster"] for r in clustered["records"]] == [r[2] for r in rows]
        assert [r["eta"] for r in clustered["records"]] == [r["eta"] for r in optimal["records"]]
        assert clustered["records"][0]["eta"] > clustered["records"][1]["eta"]

    def test_clustered_label_with_two_gammas_is_usage_error(self, tmp_path):
        path = tmp_path / "clusters.csv"
        write_csv(path, ["id", "gamma", "cluster"],
                  [["a", 1.0, "lo"], ["b", 5.0, "hi"], ["c", 1.5, "lo"]])
        proc = run_cli("allocate", "--alpha", "0.05", "--method", "clustered",
                       "--input", str(path), expect=2)
        assert "'lo'" in proc.stderr
        proc = run_cli("allocate", "--alpha", "0.05", "--M", "4", "--gamma-const", "1",
                       "--method", "clustered", expect=2)
        assert "cluster" in proc.stderr

    def test_deterministic_output(self):
        args = ("allocate", "--alpha", "0.05", "--M", "6", "--gamma-const", "1.5",
                "--out", "csv")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_gamma_const_names_the_flag(self, value):
        proc = run_cli("allocate", "--alpha", "0.05", "--M", "4", "--gamma-const", value,
                       expect=2)
        assert "--gamma-const" in proc.stderr
        assert "line 0" not in proc.stderr

    def test_missing_gamma_is_usage_error(self):
        proc = run_cli("allocate", "--alpha", "0.05", "--M", "4",
                       "--method", "optimal", expect=2)
        assert "gamma" in proc.stderr

    def test_bad_alpha_is_usage_error(self):
        run_cli("allocate", "--alpha", "1.0", "--M", "4", "--method", "sidak", expect=2)

    @pytest.mark.parametrize("argv", [
        ["--M", "0", "--gamma-const", "1"],
        ["--M", "-3", "--gamma-const", "1"],
        ["--M", "-3", "--method", "sidak"],
    ])
    def test_count_below_one_names_the_flag(self, capsys, argv):
        assert cli.main(["allocate", "--alpha", "0.05", *argv]) == 2
        assert "--M must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--M", "5"], ["--gamma-const", "1"],
                                       ["--M", "5", "--gamma-const", "1"]])
    def test_input_with_count_flags_is_usage_error(self, tmp_path, capsys, flags):
        path = tmp_path / "g.csv"
        write_csv(path, ["id", "gamma"], [["a", 1.0], ["b", 2.0]])
        assert cli.main(["allocate", "--alpha", "0.05", "--input", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert "--M and --gamma-const cannot be used with --input" in captured.err
        assert captured.out == ""

    def test_unsolvable_panel_is_numerical_error(self, tmp_path):
        # Distinct effects this large leave log d no precision; equal ones
        # get the Sidak sizes with no search.
        path = tmp_path / "extreme.csv"
        write_csv(path, ["id", "gamma"], [["a", 1e8], ["b", 1e8 + 1e3]])
        proc = run_cli("allocate", "--alpha", "0.05", "--input", str(path), expect=3)
        assert "numerical" in proc.stderr


class TestDecide:
    def test_bh_hand_example(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue"],
                  [["a", 0.01], ["b", 0.02], ["c", 0.04], ["d", 0.05]])
        proc = run_cli("decide", "--procedure", "bh", "--q", "0.05", "--input", str(path))
        doc = json.loads(proc.stdout)
        assert [r["reject"] for r in doc["records"]] == [1, 1, 1, 1]
        assert doc["cutoff_index"] == 4

    def test_stepdown_sidak_hand_example(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue"], [["a", 0.001], ["b", 0.02], ["c", 0.5]])
        proc = run_cli("decide", "--procedure", "stepdown-sidak", "--q", "0.05",
                       "--input", str(path), "--out", "csv")
        rows = parse_csv(proc.stdout)
        assert [r["reject"] for r in rows] == ["1", "1", "0"]

    def test_fdr_opt_equal_gammas_matches_bh_reject_flags(self, tmp_path):
        rng = np.random.default_rng(12)
        pvals = np.round(rng.uniform(0, 0.3, 8), 6)
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"],
                  [[f"h{i}", p, 2.0] for i, p in enumerate(pvals)])
        out_fdr = run_cli("decide", "--procedure", "fdr-opt", "--q", "0.1",
                          "--input", str(path), "--out", "csv")
        out_bh = run_cli("decide", "--procedure", "bh", "--q", "0.1",
                         "--input", str(path), "--out", "csv")
        flags_fdr = [r["reject"] for r in parse_csv(out_fdr.stdout)]
        flags_bh = [r["reject"] for r in parse_csv(out_bh.stdout)]
        assert flags_fdr == flags_bh

    def test_fdr_opt_reports_size_condition(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"],
                  [["a", 0.001, 0.5], ["b", 0.2, 0.5], ["c", 0.01, 1.0], ["d", 0.6, 1.0]])
        doc = json.loads(run_cli("decide", "--procedure", "fdr-opt", "--q", "0.1",
                                 "--input", str(path)).stdout)
        assert "size_condition" in doc
        assert set(doc["size_condition"]) == {"satisfied", "worst_alpha", "worst_ratio"}

    def test_size_condition_without_a_budget_below_one(self, tmp_path):
        # W is 0 and 1 here: no budget in (0, 1), so the condition holds
        # at no worst budget, printed as null (JSON) and empty (CSV).
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"], [["a", 0.0, 2.0], ["b", 1.0, 1.0]])
        doc = json.loads(run_cli("decide", "--procedure", "fdr-opt", "--q", "0.1",
                                 "--input", str(path)).stdout)
        assert doc["size_condition"] == {"satisfied": True, "worst_alpha": None,
                                         "worst_ratio": None}
        rows = parse_csv(run_cli("decide", "--procedure", "fdr-opt", "--q", "0.1",
                                 "--input", str(path), "--out", "csv").stdout)
        assert [(r["size_condition_ok"], r["size_condition_worst_ratio"]) for r in rows] == [
            ("1", "")] * 2

    def test_trace_json(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"],
                  [["a", 0.01, 1.0], ["b", 0.3, 2.0]])
        doc = json.loads(run_cli("decide", "--procedure", "strong-fwer-opt", "--q", "0.05",
                                 "--input", str(path), "--trace").stdout)
        # Below M = 129 the rule evaluates every step, so none is null.
        assert all(x is not None for x in doc["trace"]["order_stats"])
        assert all(x is not None for x in doc["trace"]["survival_product"])
        assert doc["trace"]["size_sum"] == [None, None]
        # The threshold is the W of the deciding (last rejected) row.
        assert doc["cutoff_index"] == 1
        assert doc["alpha_threshold"] == doc["records"][0]["w"] == doc["trace"]["order_stats"][0]

    def test_zero_w_prints_as_zero(self, tmp_path):
        # A p-value of 0 has W = 0, which prints without a sign.
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"], [["a", 0.0, 2.0], ["b", 0.9, 1.0]])
        out = run_cli("decide", "--procedure", "fdr-opt", "--q", "0.1",
                      "--input", str(path), "--out", "csv").stdout
        assert "-0" not in out
        rows = parse_csv(out)
        assert rows[0]["w"] == "0"
        assert rows[0]["alpha_threshold"] == "0"

    @pytest.mark.parametrize("procedure", ["fdr-opt", "strong-fwer-opt"])
    def test_one_panel_solve_per_stepwise_decision(self, tmp_path, capsys, panel_solves,
                                                   procedure):
        rng = np.random.default_rng(21)
        gammas = rng.uniform(0.2, 5.0, 30)
        pvals = rng.uniform(0.0, 1.0, 30) ** 3
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"],
                  [[f"h{i}", repr(float(p)), repr(float(g))]
                   for i, (p, g) in enumerate(zip(pvals, gammas))])
        # Both cases read the same panel; each starts from an empty memo.
        assert cli.main(["decide", "--procedure", procedure, "--q", "0.1",
                         "--input", str(path), "--out", "json"]) == 0
        # The rule and the W column read one pass, and no column is solved
        # twice by it or by the rule's reads past it.
        assert sum(panel_solves.begun) == 1
        columns = np.concatenate([c.ravel() for c in panel_solves.cols])
        assert np.unique(columns).size == columns.size
        doc = json.loads(capsys.readouterr().out)
        assert "seed" not in doc
        expected = generalized_pvalues(RocModel.from_gammas(gammas), pvals)
        assert [r["w"] for r in doc["records"]] == [cli._jnum(w) for w in expected]
        order = procedures._panel(RocModel(gammas), pvals).order
        deciding = order[doc["cutoff_index"] - 1]
        assert doc["alpha_threshold"] == cli._jnum(expected[deciding])

    @pytest.mark.parametrize("procedure, path", [("fdr-opt", "size_sum"),
                                                 ("strong-fwer-opt", "survival_product")])
    def test_trace_past_the_saturated_prefix_is_null(self, tmp_path, capsys, procedure, path):
        # The pass stops where W saturates: a trace fills the steps its rule
        # evaluated, as the whole panel gives them, and prints the rest as
        # null.
        rng = np.random.default_rng(5)
        theta = rng.random(1000) < 0.2
        gammas = np.abs(rng.normal(2.0, 1.0, 1000))
        pvals = ndtr(-(gammas * theta + rng.standard_normal(1000)))
        path_csv = tmp_path / "p.csv"
        write_csv(path_csv, ["id", "pvalue", "gamma"],
                  [[f"h{i}", repr(float(p)), repr(float(g))]
                   for i, (p, g) in enumerate(zip(pvals, gammas))])
        procedures._panel_memo.cache_clear()
        assert cli.main(["decide", "--procedure", procedure, "--q", "0.1", "--input",
                         str(path_csv), "--out", "json", "--trace"]) == 0
        trace = json.loads(capsys.readouterr().out)["trace"]
        ref = reference_stepwise(gammas, pvals, 0.1)
        expected = ref.size_sums if path == "size_sum" else np.exp(ref.log_products)
        filled = np.array([x is not None for x in trace[path]])
        assert 0 < filled.sum() < 1000
        np.testing.assert_allclose([x for x in trace[path] if x is not None],
                                   expected[filled], rtol=1e-11)
        # W and the thresholds are known at every step.
        np.testing.assert_allclose(trace["order_stats"], ref.w_by_step, rtol=1e-11)
        np.testing.assert_allclose(trace["threshold"], ref.line if path == "size_sum"
                                   else np.full(1000, 0.9), rtol=1e-12)

    def test_trace_marks_the_unevaluated_path_null(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"], [["a", 0.01, 1.0], ["b", 0.3, 2.0]])
        doc = json.loads(run_cli("decide", "--procedure", "fdr-opt", "--q", "0.1",
                                 "--input", str(path), "--trace").stdout)
        assert doc["trace"]["survival_product"] == [None, None]
        assert all(x is not None for x in doc["trace"]["size_sum"])

    def test_trace_requires_json(self, tmp_path, capsys, panel_solves):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue"], [["a", 0.01]])
        run_cli("decide", "--procedure", "bh", "--q", "0.05", "--input", str(path),
                "--trace", "--out", "csv", expect=2)
        # Refused before the file is read or the panel solved.
        write_csv(path, ["id", "pvalue", "gamma"], [["a", 0.01, 1.0], ["b", 0.3, 2.0]])
        assert cli.main(["decide", "--procedure", "fdr-opt", "--q", "0.1", "--input",
                         str(path), "--trace", "--out", "csv"]) == 2
        assert "--trace" in capsys.readouterr().err
        assert panel_solves == []

    @pytest.mark.parametrize("out", ["json", "csv"])
    def test_stepdown_sidak_pvalue_one_warns_nothing(self, tmp_path, capsys, out):
        # Runs in-process, under the suite's error::RuntimeWarning filter.
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue"], [["a", "1"], ["b", "1.0"], ["c", "0.001"]])
        assert cli.main(["decide", "--procedure", "stepdown-sidak", "--q", "0.05",
                         "--input", str(path), "--out", out,
                         *(["--trace"] if out == "json" else [])]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if out == "json":
            doc = json.loads(captured.out)
            assert [r["reject"] for r in doc["records"]] == [0, 0, 1]
            assert doc["trace"]["survival_product"][1:] == [0.0, 0.0]

    def test_missing_gamma_for_model_procedure(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue"], [["a", 0.01], ["b", 0.2]])
        proc = run_cli("decide", "--procedure", "fdr-opt", "--q", "0.1",
                       "--input", str(path), expect=2)
        assert "gamma" in proc.stderr

    def test_weak_needs_alpha_flag(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"], [["a", 0.01, 1.0]])
        proc = run_cli("decide", "--procedure", "weak-fwer-opt", "--q", "0.05",
                       "--input", str(path), expect=2)
        assert "--alpha" in proc.stderr

    @pytest.mark.parametrize("procedure, flag", [("fdr-opt", "--q"), ("bh", "--q"),
                                                 ("weak-fwer-opt", "--alpha"),
                                                 ("bonferroni", "--alpha")])
    def test_budget_range_error_names_the_flag(self, tmp_path, capsys, procedure, flag):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"], [["a", 0.01, 1.0], ["b", 0.3, 2.0]])
        assert cli.main(["decide", "--procedure", procedure, flag, "1.5",
                         "--input", str(path)]) == 2
        captured = capsys.readouterr()
        interval = "[0, 1)" if procedure == "weak-fwer-opt" else "[0, 1]"
        assert f"poweralloc: {flag} must lie in {interval}, got 1.5" in captured.err
        assert captured.out == ""

    def test_a_budget_of_one(self, tmp_path, capsys):
        # An allocation's budget lies below 1, so weak-fwer-opt refuses
        # --alpha 1 by its flag; bonferroni's sizes alpha / M take it.
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"], [["a", 0.01, 1.0], ["b", 0.3, 2.0]])
        argv = ["decide", "--alpha", "1", "--input", str(path)]
        assert cli.main([*argv, "--procedure", "weak-fwer-opt"]) == 2
        captured = capsys.readouterr()
        assert "poweralloc: --alpha must lie in [0, 1), got 1.0" in captured.err
        assert captured.out == ""
        assert cli.main([*argv, "--procedure", "bonferroni"]) == 0
        assert json.loads(capsys.readouterr().out)["alpha"] == 1.0

    @pytest.mark.parametrize("procedure, flags, unread", [
        ("bh", ["--q", "0.1", "--alpha", "0.05"], "--alpha"),
        ("weak-fwer-opt", ["--alpha", "0.05", "--q", "0.3"], "--q"),
    ])
    def test_unread_budget_flag_is_usage_error(self, tmp_path, capsys, procedure, flags, unread):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"], [["a", 0.01, 1.0], ["b", 0.3, 2.0]])
        assert cli.main(["decide", "--procedure", procedure, *flags, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"does not read {unread}" in captured.err
        assert captured.out == ""

    def test_bad_pvalue_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue"], [["a", 1.7]])
        run_cli("decide", "--procedure", "bh", "--q", "0.1", "--input", str(path),
                expect=2)

    def test_allocate_decide_round_trip(self, tmp_path):
        # Thresholds reported by allocate reproduce the library decision.
        gammas = [0.5, 1.0, 2.0, 4.0]
        pvals = [0.004, 0.02, 0.011, 0.3]
        gpath = tmp_path / "g.csv"
        write_csv(gpath, ["id", "gamma"], [[f"h{i}", g] for i, g in enumerate(gammas)])
        alloc_rows = parse_csv(run_cli("allocate", "--alpha", "0.05", "--input",
                                       str(gpath), "--out", "csv").stdout)
        etas = np.array([float(r["eta"]) for r in alloc_rows])

        dpath = tmp_path / "p.csv"
        write_csv(dpath, ["id", "pvalue", "gamma"],
                  [[f"h{i}", p, g] for i, (p, g) in enumerate(zip(pvals, gammas))])
        decide_rows = parse_csv(run_cli("decide", "--procedure", "weak-fwer-opt",
                                        "--alpha", "0.05", "--input", str(dpath),
                                        "--out", "csv").stdout)
        cli_flags = np.array([r["reject"] == "1" for r in decide_rows])

        np.testing.assert_array_equal(cli_flags, np.array(pvals) <= etas)
        library = decide_weak_fwer(RocModel.from_gammas(gammas), pvals, 0.05)
        np.testing.assert_array_equal(cli_flags, library.reject)


class TestInputErrors:
    """A bad field is reported at its physical line of the file."""

    def error(self, capsys, tmp_path, text, *argv):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8")
        assert cli.main([*argv, "--input", str(path)]) == 2
        return capsys.readouterr().err

    def test_blank_line_counts(self, capsys, tmp_path):
        err = self.error(capsys, tmp_path, "id,pvalue\na,0.5\n\nb,abc",
                         "decide", "--procedure", "bh", "--q", "0.1")
        assert "line 4: pvalue 'abc' is not a number" in err

    def test_quoted_two_line_id_counts_both_lines(self, capsys, tmp_path):
        err = self.error(capsys, tmp_path, 'id,pvalue\n"x\ny",0.5\nb,abc\n',
                         "decide", "--procedure", "bh", "--q", "0.1")
        assert "line 4: pvalue 'abc' is not a number" in err

    def test_short_row_names_the_missing_field(self, capsys, tmp_path):
        err = self.error(capsys, tmp_path, "id,gamma\na,1\nb",
                         "allocate", "--alpha", "0.05")
        assert "line 3: field 'gamma' is missing" in err

    @pytest.mark.parametrize("argv", [["allocate", "--alpha", "0.05"],
                                      ["decide", "--procedure", "fdr-opt", "--q", "0.1"]])
    def test_field_past_the_csv_limit_names_its_line(self, capsys, tmp_path, argv):
        # 200,000 digits, past csv.field_size_limit()'s default of 131,072.
        text = "id,pvalue,gamma\na,0.5,1\n\nb,0.5,1" + "0" * 199_999 + "\n"
        err = self.error(capsys, tmp_path, text, *argv)
        assert "line 4: field larger than field limit" in err


class TestInputEncoding:
    @pytest.mark.parametrize("argv, text", [
        (["allocate", "--alpha", "0.05"], "id,gamma\na,1.5\nb,0.25\nc,3\n"),
        (["decide", "--procedure", "fdr-opt", "--q", "0.1"],
         "id,pvalue,gamma\na,0.001,2\nb,0.2,1\nc,0.04,3\n"),
    ])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, argv, text):
        # Excel writes UTF-8 CSV files with a leading byte-order mark.
        outputs = []
        for name, encoding in (("plain.csv", "utf-8"), ("bom.csv", "utf-8-sig")):
            path = tmp_path / name
            path.write_text(text, encoding=encoding)
            assert cli.main([*argv, "--input", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert outputs[0] == outputs[1]


def _column(rng, pool, n, draw):
    """n values: the drawn pool first, then random picks from it and
    ``draw(rng, k)`` extras."""
    pool = list(pool)
    extra = list(draw(rng, n))
    picks = [pool[i] for i in rng.integers(0, len(pool), n)] if pool else extra
    return (pool + [p if rng.random() < 0.5 else e for p, e in zip(picks, extra)])[:n]


_SPECIAL = [0.0, -0.0, 1.0, 1e-300, 5e-324, 2.2250738585072014e-308, 1e12, 1e16,
            math.nan, math.inf, -math.inf]


def _random_floats(rng, n):
    x = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-323, 309, n)
    return np.where(rng.random(n) < 0.05, rng.choice(_SPECIAL, n), x).tolist()


_floats = st.one_of(
    st.floats(),
    st.floats(1e12, 1e16),
    st.integers(-10**6, 10**6).map(float),
    st.sampled_from(_SPECIAL),
)


class TestWriters:
    """The columnar writers print byte for byte what the per-record
    writers they replaced printed (``helpers.reference_print_*``)."""

    @staticmethod
    def printed(fn, *args):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            fn(*args)
        return out.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.text(), max_size=12),
        numbers=st.lists(_floats, max_size=24),
        chunk=st.sampled_from([1, 7, cli.RECORD_CHUNK]),
        blocks=st.integers(0, 3),
        offset=st.integers(-1, 1),
        seed=st.integers(0, 2**32 - 1),
        optional=st.tuples(*[st.booleans()] * 6),
        method=st.sampled_from(["optimal", "sidak", "bonferroni", "clustered"]),
        procedure=st.sampled_from(PROCEDURE_TAGS),
        out=st.sampled_from(["json", "csv"]),
    )
    def test_match_the_per_record_writers(self, ids, numbers, chunk, blocks, offset, seed,
                                          optional, method, procedure, out):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "RECORD_CHUNK", chunk)
            self.check(ids, numbers, max(0, blocks * chunk + offset), seed, optional, method,
                       procedure, out)

    def check(self, ids, numbers, n, seed, optional, method, procedure, out):
        rng = np.random.default_rng(seed)

        def floats():
            return np.array(_column(rng, numbers, n, _random_floats), dtype=float)

        def scalar():
            return numbers[rng.integers(len(numbers))] if numbers else float(rng.random())

        def text(draw=lambda rng, k: (f"h{i}" for i in rng.integers(0, 10**6, k))):
            return _column(rng, ids, n, draw)

        with_gammas, with_clusters, with_w, with_condition, with_trace, trace_flag = optional
        gammas = floats() if with_gammas else None
        allocation = SimpleNamespace(
            sizes=floats(), lagrange=scalar() if with_w else None,
            constraint_residual=scalar(), stationarity_residual=scalar())
        clusters = text() if with_clusters else None
        args = (out, scalar(), method, text(), gammas, clusters, allocation,
                scalar() if with_condition else None)
        assert self.printed(cli._print_allocation, *args) == \
            self.printed(reference_print_allocation, *args)

        trace = SimpleNamespace(order_stats=floats(), survival_product=floats(),
                                size_sum=floats(), threshold=floats())
        decision = SimpleNamespace(
            reject=rng.random(n) < 0.5, cutoff_index=int(rng.integers(0, n + 1)),
            alpha_threshold=scalar(), trace=trace if with_trace else None)
        condition = (SizeConditionReport(bool(seed & 1), scalar(), scalar())
                     if with_condition else None)
        args = (out, trace_flag, procedure, scalar(), text(), floats(), gammas,
                floats() if with_w else None, condition, decision)
        assert self.printed(cli._print_decision, *args) == \
            self.printed(reference_print_decision, *args)


# Text that ``csv.writer`` quotes (the delimiter, the quote, line breaks),
# escapes a ``%`` template would read, non-ASCII text, and anything else.
_CSV_TEXT = st.text(st.one_of(st.sampled_from(list(',"\r\n%é€\u2028 a0')), st.characters()),
                    max_size=8)


class TestCsvWriter:
    """``cli._write_csv`` writes byte for byte what ``csv.writer`` writes
    for the same rows: a row-constant column is quoted once into the row
    template, and only the text and numeric cells are formatted per row."""

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(_CSV_TEXT, _floats, st.booleans(), st.integers(-9, 9)),
                      max_size=20),
        constants=st.lists(_CSV_TEXT, min_size=1, max_size=3),
        names=st.lists(_CSV_TEXT, min_size=7, max_size=7, unique=True),
        chunk=st.sampled_from([1, 3, cli.RECORD_CHUNK]),
    )
    def test_matches_csv_writer(self, rows, constants, names, chunk):
        ids = [row[0] for row in rows]
        x = np.array([row[1] for row in rows], dtype=float)
        flags = np.array([row[2] for row in rows], dtype=bool)
        counts = np.array([row[3] for row in rows], dtype=np.int64)
        # The constants before, between and after the other columns.
        values = [ids, constants[0], x, flags, *constants[1:], counts]
        columns = dict(zip(names, values))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "RECORD_CHUNK", chunk)
            got = io.StringIO()
            cli._write_csv(got, columns)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(list(columns))
        for i in range(len(rows)):
            writer.writerow([col if isinstance(col, str) else col[i] if isinstance(col, list)
                             else _fmt(col[i]) if col.dtype.kind == "f" else int(col[i])
                             for col in columns.values()])
        assert got.getvalue() == want.getvalue()


class _CountingStream(io.TextIOBase):
    """Counts write calls and keeps nothing."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return len(text)


class TestOutputCost:
    """``allocate`` on a fixed M=20,000 file streams its records in chunks:
    few write calls and no whole-document copy in memory."""

    M = 20_000

    @pytest.fixture(scope="class")
    def panel(self, tmp_path_factory):
        gamma = np.abs(np.random.default_rng(20_000).normal(2.0, 1.0, self.M))
        path = tmp_path_factory.mktemp("cost") / "panel.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,gamma\n")
            fh.writelines(f"h{i},{g!r}\n" for i, g in enumerate(gamma.tolist()))
        return str(path)

    def run(self, monkeypatch, panel, out):
        stream = _CountingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert cli.main(["allocate", "--alpha", "0.05", "--input", panel, "--out", out]) == 0
        return stream.writes

    @pytest.mark.parametrize("out", ["json", "csv"])
    def test_few_write_calls(self, monkeypatch, panel, out):
        assert self.run(monkeypatch, panel, out) <= 64

    def test_only_odd_cells_take_the_definition(self, monkeypatch, panel):
        # A record cell whose JSON text the record template cannot give is
        # json.dumps(_jnum(x)), one cell at a time.  Only non-finite, huge
        # and subnormal cells may take it: not the exact zeros among the
        # sizes, nor other integers.
        calls, columns = [], []
        jnum, write_json = cli._jnum, cli._write_json

        def counting_write(stream, doc):
            columns.extend(doc["records"][key] for key in ("gamma", "eta"))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "_jnum", lambda x: calls.append(x) or jnum(x))
                write_json(stream, doc)

        monkeypatch.setattr(cli, "_write_json", counting_write)
        self.run(monkeypatch, panel, "json")
        x = np.abs(np.concatenate(columns))
        assert x.size == 2 * self.M
        assert np.count_nonzero(x == 0.0) > 100
        odd = ~np.isfinite(x) | (x >= 9e11) | ((x > 0.0) & (x < 2.2250738585072014e-308))
        assert len(calls) <= np.count_nonzero(odd)

    def test_json_allocation_peak(self, monkeypatch, panel):
        self.run(monkeypatch, panel, "json")  # imports and caches outside the count
        tracemalloc.start()
        try:
            self.run(monkeypatch, panel, "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20


class TestSimulate:
    def test_deterministic_files(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(
            {"M": [5], "p": [0.2], "nu": [2], "qstar": 0.1,
             "reps": 30, "seed": 42, "procedures": ["fdr-opt", "bh"]}
        ))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--config", str(config), "--out", str(out1))
        run_cli("simulate", "--config", str(config), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        rows = parse_csv(out1.read_text())
        assert {r["procedure"] for r in rows} == {"fdr-opt", "bh"}
        assert set(rows[0]) >= {"M", "p", "nu", "qstar", "reps", "procedure",
                                "fdr", "se_fdr", "mdr_std", "se_mdr", "fwer", "etp", "efp"}

    def test_null_cell_fdr_band(self, tmp_path):
        config = tmp_path / "null.json"
        config.write_text(json.dumps(
            {"M": [20], "p": [0.0], "nu": [2], "qstar": 0.1,
             "reps": 600, "seed": 7, "procedures": ["fdr-opt"]}
        ))
        out = tmp_path / "null.csv"
        run_cli("simulate", "--config", str(config), "--out", str(out))
        row = parse_csv(out.read_text())[0]
        fdr, se = float(row["fdr"]), float(row["se_fdr"])
        lower = 1.0 - (1.0 - 0.1 / 20) ** 20
        assert lower - 3 * se <= fdr <= 0.1 + 3 * se

    def test_zero_budget_cell(self, tmp_path):
        config = tmp_path / "zero.json"
        config.write_text(json.dumps(
            {"M": [10], "p": [0.3], "nu": [2], "qstar": 0.0, "reps": 20, "seed": 3}
        ))
        out = tmp_path / "zero.csv"
        run_cli("simulate", "--config", str(config), "--out", str(out))
        for row in parse_csv(out.read_text()):
            assert float(row["fdr"]) == 0.0
            assert float(row["etp"]) == 0.0
            assert float(row["efp"]) == 0.0

    def test_reps_and_seed_overrides(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(
            {"M": [4], "p": [0.2], "nu": [2], "qstar": 0.1, "reps": 99, "seed": 1}
        ))
        out = tmp_path / "o.csv"
        run_cli("simulate", "--config", str(config), "--reps", "12", "--seed", "5",
                "--out", str(out))
        assert parse_csv(out.read_text())[0]["reps"] == "12"

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_count_names_the_variable(self, capsys, monkeypatch, tmp_path, threads):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"M": [4], "p": [0.2], "nu": [2], "qstar": 0.1, "reps": 2}))
        monkeypatch.setenv("POWERALLOC_THREADS", threads)
        out = tmp_path / "o.csv"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert "POWERALLOC_THREADS must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_key(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"M": [4], "p": [0.2], "qstar": 0.1}))
        run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x.csv"),
                expect=2)

    def refused(self, capsys, tmp_path, key, value) -> str:
        """stderr of ``simulate`` on a valid config with ``key`` set to
        ``value``, which must exit 2 and write no table."""
        spec = {"M": [4], "p": [0.2], "nu": [2], "qstar": 0.1, "reps": 2, "seed": 0, key: value}
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(spec))
        out = tmp_path / "o.csv"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("M", [4, 20.7]), ("reps", 3.9), ("seed", 1.5),
                                            ("M", [True]), ("reps", True),
                                            ("reps", "3"), ("M", ["4"]), ("seed", " 7 ")])
    def test_fractional_count_names_the_key(self, capsys, tmp_path, key, value):
        err = self.refused(capsys, tmp_path, key, value)
        assert f"config key {key!r} must be an integer" in err

    @pytest.mark.parametrize("key, value", [("p", [None]), ("nu", [1, None]), ("qstar", None),
                                            ("p", "x"), ("nu", [[2]]), ("qstar", True),
                                            ("p", ["0.2"]), ("nu", ["2"]), ("qstar", "0.1"),
                                            pytest.param("qstar", 10**400, id="qstar-10**400")])
    def test_non_number_names_the_key(self, capsys, tmp_path, key, value):
        err = self.refused(capsys, tmp_path, key, value)
        assert f"config key {key!r} must be a number" in err

    @pytest.mark.parametrize("key", ["M", "p", "nu", "procedures"])
    def test_empty_list_names_the_key(self, capsys, tmp_path, key):
        # An empty axis would write a table with no rows.
        assert f"config key {key!r} must" in self.refused(capsys, tmp_path, key, [])

    def test_repeated_procedure_is_refused(self, capsys, tmp_path):
        # A repeated tag would run its rule twice and print the same row twice.
        err = self.refused(capsys, tmp_path, "procedures", ["bh", "bh", "fdr-opt"])
        assert "repeated procedure tags ['bh']" in err

    def test_allocation_budget_of_one_names_qstar_and_the_tag(self, capsys, tmp_path):
        # weak-fwer-opt's budget is an allocation's, which must be below 1.
        spec = {"M": [4], "p": [0.2], "nu": [2], "qstar": 1.0, "reps": 2, "seed": 0,
                "procedures": ["fdr-opt", "weak-fwer-opt"]}
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(spec))
        out = tmp_path / "o.csv"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "qstar must lie in [0, 1) for ['weak-fwer-opt']" in err
        assert "alpha" not in err

    def test_step_rules_run_at_a_budget_of_one(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"M": [4], "p": [0.2], "nu": [2], "qstar": 1.0, "reps": 3,
                                      "procedures": ["fdr-opt", "bonferroni"]}))
        out = tmp_path / "o.csv"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert {r["procedure"] for r in parse_csv(out.read_text())} == {"fdr-opt", "bonferroni"}

    def test_string_procedures_names_the_key(self, capsys, tmp_path):
        # A string is not split into one-letter tags.
        err = self.refused(capsys, tmp_path, "procedures", "bh")
        assert "config key 'procedures' must be a list" in err

    def test_integral_floats_are_counts(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"M": [4.0], "p": [0.2], "nu": [2], "qstar": 0.1,
                                      "reps": 2.0, "seed": 3.0}))
        out = tmp_path / "o.csv"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        rows = parse_csv(out.read_text())
        assert {(r["M"], r["reps"]) for r in rows} == {("4", "2")}


class TestUsage:
    def test_import_loads_no_multiprocessing(self):
        # Only a parallel ``simulate`` needs a process pool; importing the
        # CLI does not load it.
        code = ("import sys, poweralloc.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "[]"

    def test_unknown_subcommand(self):
        run_cli("frobnicate", expect=2)

    def test_missing_required_flag(self):
        run_cli("allocate", expect=2)
