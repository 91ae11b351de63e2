"""End-to-end command tests, all driven through cli.run()."""

import json

import numpy as np
import pytest

from justnow.cli import (
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    run,
)
from justnow.data import generate_synthetic, load_csv, save_csv
from justnow.fitting import FitConfig, fit_factorized, residuals_factorized
from justnow.model import (
    AdverbialParams,
    Duration,
    EventParams,
    FactorizedModel,
    composite_probability,
    load_baseline,
    load_model,
    save_model,
)

# Birthday (sigma_e = 314830) one day back, mpmath at 50 digits
BIRTHDAY_1D = {
    "Just": 0.86169885407803717155,
    "Recently": 0.84722397370483888083,
    "Some Time Ago": 0.34240337369682080377,
    "Long Time Ago": 0.095776914266012394722,
}

@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared workspace: truth model, clean/noisy CSVs, fitted JSONs."""
    root = tmp_path_factory.mktemp("cli")
    truth = FactorizedModel.from_params(
        [EventParams("meal", 300.0), EventParams("move", 200000.0)],
        [AdverbialParams("just", 0.48, 0.05), AdverbialParams("ages", 0.95, 0.2)],
    )
    truth_path = root / "truth.json"
    save_model(truth, truth_path)

    clean_csv = root / "clean.csv"
    noisy_csv = root / "noisy.csv"
    assert run([
        "synthesize", "--truth", str(truth_path), "--times", "5", "--votes", "2",
        "--noise", "0", "--seed", "1", "--out", str(clean_csv),
    ]) == EXIT_OK
    assert run([
        "synthesize", "--truth", str(truth_path), "--times", "5", "--votes", "2",
        "--noise", "0.1", "--seed", "3", "--out", str(noisy_csv),
    ]) == EXIT_OK

    fit_json = root / "fit.json"
    base_json = root / "base.json"
    assert run([
        "fit", "--data", str(clean_csv), "--out", str(fit_json), "--multistarts", "4",
    ]) == EXIT_OK
    assert run([
        "fit-baseline", "--data", str(clean_csv), "--out", str(base_json),
        "--multistarts", "4",
    ]) == EXIT_OK

    return {
        "root": root,
        "truth": truth,
        "truth_path": truth_path,
        "clean_csv": clean_csv,
        "noisy_csv": noisy_csv,
        "fit_json": fit_json,
        "base_json": base_json,
    }


class TestSynthesize:
    def test_record_count_and_message(self, work, capsys):
        out = work["root"] / "again.csv"
        code = run([
            "synthesize", "--truth", str(work["truth_path"]), "--times", "3",
            "--votes", "2", "--noise", "0", "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert "24 records" in capsys.readouterr().out
        assert len(load_csv(out)) == 2 * 2 * 3 * 2

    def test_same_seed_same_bytes(self, work):
        a = work["root"] / "seed_a.csv"
        b = work["root"] / "seed_b.csv"
        for path in (a, b):
            run([
                "synthesize", "--truth", str(work["truth_path"]), "--times", "4",
                "--votes", "3", "--noise", "0.2", "--seed", "7", "--out", str(path),
            ])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_generator_args(self, work):
        out = work["root"] / "never.csv"
        code = run([
            "synthesize", "--truth", str(work["truth_path"]), "--times", "0",
            "--votes", "2", "--noise", "0", "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_VALIDATION
        assert not out.exists()


class TestFit:
    def test_payload_and_recovery(self, work):
        doc = json.loads(work["fit_json"].read_text())
        for key in ("final_cost", "iterations", "converged", "residual_count", "parameter_count"):
            assert key in doc
        assert doc["converged"] is True
        assert doc["residual_count"] == 2 * 2 * 5 * 2
        assert doc["parameter_count"] == 6
        assert doc["final_cost"] < 1e-10
        model = load_model(work["fit_json"])
        for eid, ev in work["truth"].events.items():
            assert model.event(eid).sigma_e == pytest.approx(ev.sigma_e, rel=1e-4)
        for aid, adv in work["truth"].adverbials.items():
            assert model.adverbial(aid).mu_a == pytest.approx(adv.mu_a, abs=1e-4)

    def test_summary_line(self, work, capsys):
        out = work["root"] / "refit.json"
        code = run([
            "fit", "--data", str(work["clean_csv"]), "--out", str(out),
            "--multistarts", "2",
        ])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "cost=" in text and "converged=True" in text

    def test_non_convergence_exit_code_still_writes(self, work, capsys):
        out = work["root"] / "starved.json"
        code = run([
            "fit", "--data", str(work["noisy_csv"]), "--out", str(out),
            "--max-iterations", "1", "--multistarts", "1",
        ])
        assert code == EXIT_NO_CONVERGENCE
        assert out.exists()
        assert json.loads(out.read_text())["converged"] is False
        assert "converge" in capsys.readouterr().err

    def test_per_cell_means_flag(self, work):
        out = work["root"] / "cells.json"
        code = run([
            "fit", "--data", str(work["clean_csv"]), "--out", str(out),
            "--multistarts", "2", "--per-cell-means",
        ])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["residual_count"] == 2 * 2 * 5


class TestFitBaseline:
    def test_payload(self, work):
        doc = json.loads(work["base_json"].read_text())
        assert doc["parameter_count"] == 8
        assert len(doc["pairs"]) == 4
        model = load_baseline(work["base_json"])
        assert model.function_count == 4


class TestSpecExampleEndToEnd:
    def test_reference_synthesize_then_fit_recovers(self, repo_root, tmp_path):
        ref = repo_root / "reference_model.json"
        csv_path = tmp_path / "ref.csv"
        out = tmp_path / "refit.json"
        assert run([
            "synthesize", "--truth", str(ref), "--times", "7", "--votes", "100",
            "--noise", "0", "--seed", "1", "--out", str(csv_path),
        ]) == EXIT_OK
        assert run([
            "fit", "--data", str(csv_path), "--out", str(out), "--multistarts", "4",
        ]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["final_cost"] < 1e-8
        truth = load_model(ref)
        fitted = load_model(out)
        for eid, ev in truth.events.items():
            got = fitted.event(eid).sigma_e
            assert abs(got - ev.sigma_e) / ev.sigma_e < 0.01
        for aid, adv in truth.adverbials.items():
            got = fitted.adverbial(aid)
            assert abs(got.mu_a - adv.mu_a) < 0.01
            assert abs(got.sigma_a - adv.sigma_a) / adv.sigma_a < 0.05


class TestPredict:
    def test_birthday_one_day(self, repo_root, capsys):
        code = run([
            "predict", "--model", str(repo_root / "reference_model.json"),
            "--event", "Birthday", "--elapsed", "1 day",
        ])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        values = {}
        for line in lines[:4]:
            name, prob = line.rsplit("\t", 1)
            values[name] = float(prob)
        for name, expected in BIRTHDAY_1D.items():
            assert values[name] == pytest.approx(expected, abs=1e-6)
        best = lines[4].split("\t")
        assert best[0] == "best" and best[1] == "Just"
        assert float(best[2]) == pytest.approx(BIRTHDAY_1D["Just"], abs=1e-6)

    def test_fractional_plural_elapsed(self, work, capsys):
        code = run([
            "predict", "--model", str(work["truth_path"]),
            "--event", "meal", "--elapsed", "2.5 hours",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        expected = composite_probability(
            Duration(2.5, "hour"), work["truth"].event("meal"), work["truth"].adverbial("just")
        )
        assert f"just\t{expected:.9f}" in out

    def test_unknown_event_names_id(self, work, capsys):
        code = run([
            "predict", "--model", str(work["truth_path"]),
            "--event", "picnic", "--elapsed", "1 day",
        ])
        assert code == EXIT_VALIDATION
        assert "picnic" in capsys.readouterr().err

    def test_bad_unit(self, work):
        code = run([
            "predict", "--model", str(work["truth_path"]),
            "--event", "meal", "--elapsed", "1 fortnight",
        ])
        assert code == EXIT_VALIDATION


class TestEvaluate:
    def test_truth_on_clean_data_is_exact(self, work, capsys):
        out = work["root"] / "acc.json"
        code = run([
            "evaluate", "--model", str(work["truth_path"]),
            "--data", str(work["clean_csv"]), "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        # ratings pass through the CSV at 9 significant digits
        assert doc["overall"] < 1e-8
        assert "0.0000" in capsys.readouterr().out

    def test_round_trip_matches_fit_residuals(self, work):
        out = work["root"] / "acc_fit.json"
        assert run([
            "evaluate", "--model", str(work["fit_json"]),
            "--data", str(work["clean_csv"]), "--out", str(out),
        ]) == EXIT_OK
        reported = json.loads(out.read_text())["overall"]
        model = load_model(work["fit_json"])
        data = load_csv(work["clean_csv"])
        expected = float(np.mean(np.abs(residuals_factorized(model, data))))
        assert abs(reported - expected) < 1e-9

    def test_accepts_baseline_models(self, work):
        code = run([
            "evaluate", "--model", str(work["base_json"]),
            "--data", str(work["clean_csv"]),
        ])
        assert code == EXIT_OK

    def test_unwritable_out_is_io_error(self, work):
        code = run([
            "evaluate", "--model", str(work["truth_path"]),
            "--data", str(work["clean_csv"]),
            "--out", str(work["root"] / "no_such_dir" / "x.json"),
        ])
        assert code == EXIT_IO


class TestCompare:
    def test_document_and_table(self, work, capsys):
        out = work["root"] / "cmp.json"
        code = run([
            "compare", "--factorized", str(work["fit_json"]),
            "--baseline", str(work["base_json"]),
            "--data", str(work["clean_csv"]), "--out", str(out),
        ])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "Functions" in text and "Parameters" in text
        doc = json.loads(out.read_text())
        assert set(doc) == {"factorized", "baseline", "accuracy_difference"}
        assert doc["factorized"]["function_count"] == 4
        assert doc["baseline"]["function_count"] == 4

    def test_swapped_families_rejected(self, work):
        code = run([
            "compare", "--factorized", str(work["base_json"]),
            "--baseline", str(work["fit_json"]),
            "--data", str(work["clean_csv"]),
        ])
        assert code == EXIT_VALIDATION


class TestExtendability:
    def test_table_4_row(self, capsys):
        assert run(["extendability", "--events", "16", "--adverbials", "16"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "32" in text and "256" in text

    def test_json_out(self, tmp_path):
        out = tmp_path / "table.json"
        assert run([
            "extendability", "--events", "2,4", "--adverbials", "8", "--out", str(out),
        ]) == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        assert rows[0] == {
            "n_events": 2, "n_adverbials": 8,
            "factorized_functions": 10, "baseline_functions": 16,
        }
        assert rows[1]["factorized_functions"] == 12

    def test_bad_counts(self):
        assert run(["extendability", "--events", "0", "--adverbials", "4"]) == EXIT_VALIDATION
        assert run(["extendability", "--events", "2", "--adverbials", "x"]) == EXIT_VALIDATION


class TestPlotData:
    def test_curves_match_model_exactly(self, work, tmp_path):
        out_dir = tmp_path / "curves"
        code = run([
            "plot-data", "--model", str(work["truth_path"]),
            "--out-dir", str(out_dir), "--points", "40",
        ])
        assert code == EXIT_OK
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == [
            "meal__ages.tsv", "meal__just.tsv", "move__ages.tsv", "move__just.tsv",
        ]
        truth = work["truth"]
        for path in out_dir.iterdir():
            event_id, adverbial_id = path.stem.split("__")
            lines = path.read_text().splitlines()
            assert lines[0] == "t_minutes\tprobability"
            assert len(lines) == 41
            for line in lines[1:]:
                t_text, p_text = line.split("\t")
                t, p = float(t_text), float(p_text)
                assert p == composite_probability(
                    Duration(t, "minute"),
                    truth.event(event_id),
                    truth.adverbial(adverbial_id),
                )
            # grid spans [sigma/100, 100*sigma]
            sigma = truth.event(event_id).sigma_e
            ts = [float(line.split("\t")[0]) for line in lines[1:]]
            assert ts[0] == pytest.approx(sigma / 100.0, rel=1e-12)
            assert ts[-1] == pytest.approx(sigma * 100.0, rel=1e-12)

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_fewer_than_two_points_rejected(self, work, tmp_path, points):
        out_dir = tmp_path / "curves"
        code = run([
            "plot-data", "--model", str(work["truth_path"]),
            "--out-dir", str(out_dir), "--points", points,
        ])
        assert code == EXIT_VALIDATION
        assert not out_dir.exists()

    def test_two_points_are_the_grid_ends(self, work, tmp_path):
        out_dir = tmp_path / "curves"
        code = run([
            "plot-data", "--model", str(work["truth_path"]),
            "--out-dir", str(out_dir), "--points", "2",
        ])
        assert code == EXIT_OK
        truth = work["truth"]
        for path in out_dir.iterdir():
            event_id, _ = path.stem.split("__")
            sigma = truth.event(event_id).sigma_e
            lines = path.read_text().splitlines()
            assert [float(line.split("\t")[0]) for line in lines[1:]] == [
                sigma / 100.0, sigma * 100.0,
            ]


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run([]) == EXIT_USAGE
        assert run(["no-such-command"]) == EXIT_USAGE
        assert run(["fit", "--out", "x.json"]) == EXIT_USAGE  # missing --data
        assert run(["fit", "--data", "a.csv", "--out", "b.json", "--multistarts", "zz"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err.lower()

    def test_calls_in_one_process_keep_their_own_flags(self, work, tmp_path):
        # The parser is built once per process and shared by every run().
        assert run(["extendability", "--events", "2", "--adverbials", "2"]) == EXIT_OK
        assert run([
            "fit", "--data", str(work["noisy_csv"]), "--out", str(tmp_path / "x.json"), "--bogus",
        ]) == EXIT_USAGE
        assert run([
            "fit", "--data", str(work["noisy_csv"]), "--out", str(tmp_path / "flags.json"),
            "--seed", "7", "--multistarts", "3", "--per-cell-means",
        ]) == EXIT_OK
        # synthesize shares the dest "seed" with fit; it must see its own default, 0.
        synth_csv = tmp_path / "defaults.csv"
        assert run([
            "synthesize", "--truth", str(work["truth_path"]), "--out", str(synth_csv),
        ]) == EXIT_OK
        expected_csv = tmp_path / "expected.csv"
        save_csv(generate_synthetic(work["truth"], 7, 100, 0.1, seed=0), expected_csv)
        assert synth_csv.read_bytes() == expected_csv.read_bytes()
        # A later fit sees none of the earlier fit's flags.
        out = tmp_path / "defaults.json"
        assert run(["fit", "--data", str(work["noisy_csv"]), "--out", str(out)]) == EXIT_OK
        expected = fit_factorized(load_csv(work["noisy_csv"]), FitConfig())
        doc = json.loads(out.read_text())
        assert doc["final_cost"] == expected.final_cost
        assert doc["residual_count"] == expected.residual_count

    def test_io_errors(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run(["fit", "--data", str(missing), "--out", str(tmp_path / "o.json")]) == EXIT_IO
        assert str(missing) in capsys.readouterr().err
        assert run([
            "predict", "--model", str(tmp_path / "gone.json"),
            "--event", "e", "--elapsed", "1 day",
        ]) == EXIT_IO

    def test_validation_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "event,adverbial,elapsed_value,elapsed_unit,rating,respondent\n"
            "e,a,1,day,1.2,p\n"
        )
        assert run(["fit", "--data", str(bad), "--out", str(tmp_path / "o.json")]) == EXIT_VALIDATION
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--cost-tolerance", "--param-tolerance"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_validation_error(self, work, tmp_path, capsys, flag, value):
        out = tmp_path / "o.json"
        argv = ["fit", "--data", str(work["noisy_csv"]), "--out", str(out), flag, value]
        assert run(argv) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unidentifiable_data_is_validation_error(self, tmp_path):
        csv = tmp_path / "flat.csv"
        csv.write_text(
            "event,adverbial,elapsed_value,elapsed_unit,rating,respondent\n"
            "e,a,1,day,0.5,p\n"
            "e,a,1,day,0.6,q\n"
        )
        assert run(["fit", "--data", str(csv), "--out", str(tmp_path / "o.json")]) == EXIT_VALIDATION
