"""Command-line interface: flags, file formats, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from poweralloc import RocModel, cli, decide_weak_fwer, generalized_pvalues, procedures


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

    def test_missing_gamma_is_usage_error(self):
        proc = run_cli("allocate", "--alpha", "0.05", "--M", "4",
                       "--method", "optimal", expect=2)
        assert "gamma" in proc.stderr

    def test_bad_alpha_is_usage_error(self):
        run_cli("allocate", "--alpha", "1.0", "--M", "4", "--method", "sidak", expect=2)

    def test_unsolvable_panel_is_numerical_error(self, tmp_path):
        path = tmp_path / "extreme.csv"
        write_csv(path, ["id", "gamma"], [["a", 1e8], ["b", 1e8]])
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

    def test_trace_json(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"],
                  [["a", 0.01, 1.0], ["b", 0.3, 2.0]])
        doc = json.loads(run_cli("decide", "--procedure", "strong-fwer-opt", "--q", "0.05",
                                 "--input", str(path), "--trace").stdout)
        assert len(doc["trace"]["order_stats"]) == 2
        assert len(doc["trace"]["survival_product"]) == 2

    def test_zero_w_prints_as_zero(self, tmp_path):
        # W = -expm1(0) is -0.0 for a p-value of 0.
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"], [["a", 0.0, 2.0], ["b", 0.9, 1.0]])
        out = run_cli("decide", "--procedure", "fdr-opt", "--q", "0.1",
                      "--input", str(path), "--out", "csv").stdout
        assert "-0" not in out
        rows = parse_csv(out)
        assert rows[0]["w"] == "0"
        assert rows[0]["alpha_threshold"] == "0"

    @pytest.mark.parametrize("procedure", ["fdr-opt", "strong-fwer-opt"])
    def test_one_panel_solve_per_stepwise_decision(self, tmp_path, monkeypatch, capsys,
                                                   procedure):
        rng = np.random.default_rng(21)
        gammas = rng.uniform(0.2, 5.0, 30)
        pvals = rng.uniform(0.0, 1.0, 30) ** 3
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"],
                  [[f"h{i}", repr(float(p)), repr(float(g))]
                   for i, (p, g) in enumerate(zip(pvals, gammas))])
        calls = []
        solve = procedures._solve_panel
        monkeypatch.setattr(procedures, "_solve_panel",
                            lambda *a: calls.append(a) or solve(*a))
        assert cli.main(["decide", "--procedure", procedure, "--q", "0.1",
                         "--input", str(path), "--out", "json"]) == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        assert "seed" not in doc
        expected = generalized_pvalues(RocModel.from_gammas(gammas), pvals).w
        assert [r["w"] for r in doc["records"]] == [cli._jnum(w) for w in expected]

    def test_trace_marks_the_unevaluated_path_null(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue", "gamma"], [["a", 0.01, 1.0], ["b", 0.3, 2.0]])
        doc = json.loads(run_cli("decide", "--procedure", "fdr-opt", "--q", "0.1",
                                 "--input", str(path), "--trace").stdout)
        assert doc["trace"]["survival_product"] == [None, None]
        assert all(x is not None for x in doc["trace"]["size_sum"])

    def test_trace_requires_json(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["id", "pvalue"], [["a", 0.01]])
        run_cli("decide", "--procedure", "bh", "--q", "0.05", "--input", str(path),
                "--trace", "--out", "csv", expect=2)

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

    def test_missing_config_key(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"M": [4], "p": [0.2], "qstar": 0.1}))
        run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x.csv"),
                expect=2)


class TestUsage:
    def test_unknown_subcommand(self):
        run_cli("frobnicate", expect=2)

    def test_missing_required_flag(self):
        run_cli("allocate", expect=2)
