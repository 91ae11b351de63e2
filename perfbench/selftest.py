"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and requires its
checks to pass.  Then feeds each output check a perturbed model or a
corrupted output and requires that exact check to fail.  Exits 0 when all
of that holds.  Takes about half a minute; writes only under perfbench/out/.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out" / "selftest"
failures: list[str] = []


def report(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(label)


def fires(workload, rnd, check: str) -> None:
    """Run the workload's checks on (possibly altered) outputs; `check` must fail."""
    checks = workloads.Checks()
    workload.check(rnd, checks)
    report(f"{workload.name}: {check} fires", check in checks.failed, f"failed: {sorted(checks.failed)}")


def edit_json(path: Path, change) -> str:
    """Apply change(doc) to a JSON file; returns the original text for restoring."""
    original = path.read_text(encoding="utf-8")
    doc = json.loads(original)
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return original


def scale_sigma_e(doc: dict, factor: float) -> None:
    for row in doc["events"]:
        row["sigma_e_minutes"] *= factor


def clean_run(workload) -> workloads.Round:
    workload.dir.mkdir(parents=True)
    workload.setup()
    checks = workloads.Checks()
    rnd = workload.round(tracing.NullTracer())
    workload.check(rnd, checks)
    report(f"{workload.name}: clean round passes its checks", checks.correct, str(checks.failed))
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = workload.round(tracer)
    workload.check(traced, checks)
    metrics, _ = tracing.layer_metrics(tracer, 1, workloads.LADDER)
    spanned = sorted(k for k, v in metrics.items() if v > 0)
    report(f"{workload.name}: traced round passes and records spans", checks.correct and bool(spanned))
    return rnd


def test_survey() -> None:
    # 100 votes per cell instead of 1000 (the single-start fit still fails on the seed-42
    # survey); recovery bounds as loose as the ladder's.
    w = workloads.Survey(7, OUT / "survey", votes=100, tolerances=workloads.VocabLadder.TOLERANCES)
    rnd = clean_run(w)

    original = w.csv.read_text(encoding="utf-8")
    lines = original.splitlines()
    first = lines[1].split(",")[:4]
    lines[1:] = [
        ",".join(row[:4] + ["0", row[5]]) if row[:4] == first else ",".join(row)
        for row in (line.split(",") for line in lines[1:])
    ]
    w.csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fires(w, rnd, "survey.synthesize.cells")
    w.csv.write_text(original[: original.rindex("\n", 0, -1) + 1], encoding="utf-8")
    fires(w, rnd, "survey.synthesize.rows")
    w.csv.write_text(original, encoding="utf-8")

    for check, change in (
        ("survey.fit.cost", lambda d: scale_sigma_e(d, 1.5)),
        ("survey.fit.recovery", lambda d: scale_sigma_e(d, 10.0)),
        ("survey.fit.counts", lambda d: d.update(parameter_count=d["parameter_count"] + 1)),
        ("survey.compare.factorized_not_worse", lambda d: scale_sigma_e(d, 100.0)),
    ):
        saved = edit_json(w.fit, change)
        fires(w, rnd, check)
        w.fit.write_text(saved, encoding="utf-8")

    # A perturbed model whose reported cost is consistent with its parameters.
    def worse_but_consistent(doc):
        scale_sigma_e(doc, 1.5)
        doc["final_cost"] = ref.cost(doc, ref.Votes.read_csv(w.csv))

    saved = edit_json(w.fit, worse_but_consistent)
    fires(w, rnd, "survey.fit.vs_truth")
    w.fit.write_text(saved, encoding="utf-8")

    for path, check, change in (
        (w.baseline, "survey.baseline.cost", lambda d: d["pairs"][0].update(mu_minutes=2 * d["pairs"][0]["mu_minutes"])),
        (w.baseline, "survey.baseline.counts", lambda d: d["pairs"].pop()),
        (w.comparison, "survey.compare.mae", lambda d: d["factorized"]["accuracy"].update(overall=d["factorized"]["accuracy"]["overall"] + 1e-6)),
        (w.comparison, "survey.compare.counts", lambda d: d["baseline"].update(function_count=d["baseline"]["function_count"] - 1)),
    ):
        saved = edit_json(path, change)
        fires(w, rnd, check)
        path.write_text(saved, encoding="utf-8")


def replace_model(fit_report, change):
    """The report with change(doc) applied to its model document."""
    doc = fit_report.model.to_dict()
    change(doc)
    return dataclasses.replace(fit_report, model=type(fit_report.model).from_dict(doc))


def test_ladder() -> None:
    w = workloads.VocabLadder(7, OUT / "ladder", rungs=workloads.LADDER[:2])
    rnd = clean_run(w)
    fac, base = rnd.outputs["reports"][0]

    def with_pair(new_fac, new_base):
        reports = [list(pair) for pair in rnd.outputs["reports"]]
        reports[0] = [new_fac, new_base]
        return dataclasses.replace(rnd, outputs={"reports": reports})

    fires(w, with_pair(replace_model(fac, lambda d: scale_sigma_e(d, 1.5)), base), "ladder.factorized.cost")
    fires(w, with_pair(replace_model(fac, lambda d: scale_sigma_e(d, 100.0)), base), "ladder.factorized.recovery")
    fires(w, with_pair(dataclasses.replace(fac, parameter_count=fac.parameter_count + 1), base), "ladder.factorized.counts")
    shifted = replace_model(base, lambda d: d["pairs"][0].update(mu_minutes=2 * d["pairs"][0]["mu_minutes"]))
    fires(w, with_pair(fac, shifted), "ladder.baseline.cost")
    fires(w, with_pair(fac, dataclasses.replace(base, parameter_count=base.parameter_count + 2)), "ladder.baseline.counts")
    fires(w, with_pair(replace_model(fac, lambda d: d["adverbials"].pop()), base), "ladder.factorized.functions")
    fires(w, with_pair(fac, replace_model(base, lambda d: d["pairs"].pop())), "ladder.baseline.functions")

    # Perturbed parameters whose reported cost is consistent with them.
    def consistent(factor):
        moved = replace_model(fac, lambda d: scale_sigma_e(d, factor))
        return dataclasses.replace(moved, final_cost=ref.cost(moved.model.to_dict(), w._votes[0]))

    fires(w, with_pair(consistent(1.5), base), "ladder.factorized.vs_truth")
    fires(w, with_pair(consistent(100.0), base), "ladder.factorized_not_worse")


def test_queries() -> None:
    w = workloads.ModelQueries(7, OUT / "queries", predicts=20, votes=2, shape=(2, 4))
    rnd = clean_run(w)

    bad = [out.replace("\t0.", "\t1.", 1) for out in rnd.outputs["predict"]]
    corrupted = dataclasses.replace(rnd, outputs={**rnd.outputs, "predict": bad})
    fires(w, corrupted, "queries.predict.formula")
    fires(w, corrupted, "queries.predict.mpmath")

    originals = {p: p.read_text(encoding="utf-8") for p in w.plots.iterdir()}
    for path, text in originals.items():
        lines = text.splitlines()
        t, p = lines[1].split("\t")
        lines[1] = f"{t}\t{float(p) + 1e-9!r}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fires(w, rnd, "queries.plot.formula")
    fires(w, rnd, "queries.plot.mpmath")
    for path, text in originals.items():
        path.write_text(text, encoding="utf-8")
    victim = sorted(originals)[0]
    victim.unlink()
    fires(w, rnd, "queries.plot.files")
    victim.write_text(originals[victim], encoding="utf-8")

    saved = edit_json(w.report, lambda d: d.update(overall=d["overall"] + 1e-6))
    fires(w, rnd, "queries.evaluate.mae")
    w.report.write_text(saved, encoding="utf-8")

    # A perturbed model: the outputs no longer follow the (changed) model file.
    saved = edit_json(w.model, lambda d: scale_sigma_e(d, 1.01))
    w._mae = None
    for check in ("queries.predict.formula", "queries.plot.formula", "queries.evaluate.mae"):
        fires(w, rnd, check)
    w.model.write_text(saved, encoding="utf-8")


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        test_survey()
        test_ladder()
        test_queries()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(f"{'FAILED: ' + ', '.join(failures) if failures else 'all self-test cases passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
