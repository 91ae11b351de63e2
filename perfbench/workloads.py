"""The benchmark's workloads: set-up, one timed round, and the checks on its outputs.

All three are closed loops: one caller issues each operation and waits for
its result before issuing the next.  A round is a fixed list of operations;
``run.py`` repeats whole rounds and times only the operations, never the
checks.  The queries derive their inputs from the run's seed.  The survey and
the ladder always build the seed-42 data (see ``Survey`` and ``VocabLadder``).
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from justnow import cli, data, fitting, model

import reference as ref
from tracing import NullTracer

NOISE_SD = 0.1
TIMES_PER_EVENT = 7

# The paper's extendability ladder (events x adverbials), as in test_1_extendability_table.
LADDER = ((2, 2), (2, 4), (2, 8), (2, 16), (4, 16), (8, 16), (16, 16))


@dataclass
class Round:
    seconds: float
    attempted: int
    failed: int
    outputs: dict = field(default_factory=dict)


class Checks:
    """Named output checks; a run is correct when no check failed."""

    def __init__(self) -> None:
        self.count = 0
        self.failed: dict[str, str] = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.count += 1
        if not ok and name not in self.failed:
            self.failed[name] = detail
        return ok

    @property
    def correct(self) -> bool:
        return not self.failed


def run_cli(tracer, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with tracer.span(f"cli.{argv[0]}"):
            code = cli.run(argv)
    return code, out.getvalue()


def ladder_truth(n_events: int, n_adverbials: int) -> dict:
    """Truth model document for one rung: event widths log-spaced from 1e3 to 2.5e6
    minutes, kernel means evenly spaced over [0.55, 0.9], widths log-spaced over
    [0.06, 0.2]."""
    sigma_e = np.geomspace(1e3, 2.5e6, n_events)
    mu_a = np.linspace(0.55, 0.9, n_adverbials)
    sigma_a = np.geomspace(0.06, 0.2, n_adverbials)
    return {
        "events": [{"id": f"e{i:02d}", "sigma_e_minutes": float(s)} for i, s in enumerate(sigma_e)],
        "adverbials": [
            {"id": f"a{j:02d}", "mu_a": float(m), "sigma_a": float(s)}
            for j, (m, s) in enumerate(zip(mu_a, sigma_a))
        ],
    }


def _counts(doc: dict) -> tuple[int, int]:
    return len(doc["events"]), len(doc["adverbials"])


def _check_factorized_fit(checks, prefix, fit_doc, truth_doc, votes, tolerances):
    """Cost recomputed from the written parameters, cost against the truth's, recovery, counts."""
    n_events, n_adverbials = _counts(truth_doc)
    cost = ref.cost(fit_doc, votes)
    checks.expect(
        f"{prefix}.cost",
        math.isclose(cost, fit_doc["final_cost"], rel_tol=1e-7),
        f"recomputed {cost!r}, reported {fit_doc['final_cost']!r}",
    )
    truth_cost = ref.cost(truth_doc, votes)
    checks.expect(
        f"{prefix}.vs_truth",
        cost <= truth_cost * (1.0 + 1e-9),
        f"{n_events}x{n_adverbials}: cost {cost!r} above the truth parameters' {truth_cost!r}",
    )
    errors = ref.recovery_errors(fit_doc, truth_doc)
    checks.expect(
        f"{prefix}.recovery",
        all(e <= tol for e, tol in zip(errors, tolerances)),
        f"{n_events}x{n_adverbials}: max |dlog sigma_e|, |d mu_a|, |dlog sigma_a| = {errors}, "
        f"tolerances {tolerances}",
    )
    checks.expect(
        f"{prefix}.counts",
        fit_doc["parameter_count"] == n_events + 2 * n_adverbials
        and len(fit_doc["events"]) + len(fit_doc["adverbials"]) == n_events + n_adverbials
        and fit_doc["residual_count"] == len(votes),
        f"parameters {fit_doc['parameter_count']}, residuals {fit_doc['residual_count']}",
    )


def _check_baseline_fit(checks, prefix, fit_doc, truth_doc, votes):
    n_events, n_adverbials = _counts(truth_doc)
    cost = ref.cost(fit_doc, votes)
    checks.expect(
        f"{prefix}.cost",
        math.isclose(cost, fit_doc["final_cost"], rel_tol=1e-7),
        f"recomputed {cost!r}, reported {fit_doc['final_cost']!r}",
    )
    checks.expect(
        f"{prefix}.counts",
        fit_doc["parameter_count"] == 2 * n_events * n_adverbials
        and len(fit_doc["pairs"]) == n_events * n_adverbials,
        f"parameters {fit_doc['parameter_count']}, pairs {len(fit_doc['pairs'])}",
    )


def _report_doc(report: fitting.FitReport) -> dict:
    """A FitReport in the layout `justnow fit` writes: model document plus report fields."""
    doc = report.model.to_dict()
    doc.update(
        final_cost=report.final_cost,
        iterations=report.iterations,
        converged=report.converged,
        residual_count=report.residual_count,
        parameter_count=report.parameter_count,
    )
    return doc


class Survey:
    """survey-7x1000: synthesize -> fit -> fit-baseline -> compare through cli.run,
    plus `fit --multistarts 1` on the same CSV.

    The survey is the seed-42 one for every run seed.  On 7x1000 votes the fit's spread
    start runs from 7 to 349 LM iterations (0.4 to 16 s) depending on the noise draw, so
    seeded surveys spread pipeline_s by up to 0.31 (IQR/median over ten seeds); and the
    single-start fit must fail on the same input in every run.  The run seed is taken,
    like the other workloads', and not used.
    """

    name = "survey-7x1000"
    # Largest |dlog sigma_e|, |d mu_a|, |dlog sigma_a| accepted against the truth.  About
    # twice the error seen at 1000 votes: the reference "Just" kernel peaks at 0.48, below
    # every observable precedence value (>= 0.5), so its recovery stays biased.
    TOLERANCES = (0.2, 0.12, 0.4)
    SURVEY_SEED = 42

    def __init__(self, seed: int, workdir: Path, votes: int = 1000, tolerances=TOLERANCES):
        self.votes = votes
        self.tolerances = tolerances
        self.dir = workdir
        self.truth = workdir / "truth.json"
        self.csv = workdir / "survey.csv"
        self.fit = workdir / "fit.json"
        self.baseline = workdir / "baseline.json"
        self.comparison = workdir / "compare.json"
        self.single = workdir / "fit-single-start.json"

    def setup(self) -> None:
        model.save_model(model.reference_model(), self.truth)

    def operations(self) -> list[list[str]]:
        csv, fit, base = str(self.csv), str(self.fit), str(self.baseline)
        return [
            ["synthesize", "--truth", str(self.truth), "--times", str(TIMES_PER_EVENT),
             "--votes", str(self.votes), "--noise", str(NOISE_SD), "--seed", str(self.SURVEY_SEED),
             "--out", csv],
            ["fit", "--data", csv, "--out", fit],
            ["fit-baseline", "--data", csv, "--out", base],
            ["compare", "--factorized", fit, "--baseline", base, "--data", csv,
             "--out", str(self.comparison)],
            ["fit", "--data", csv, "--out", str(self.single), "--multistarts", "1"],
        ]

    def round(self, tracer) -> Round:
        ops = self.operations()
        start = time.perf_counter()
        codes = [run_cli(tracer, argv)[0] for argv in ops]
        seconds = time.perf_counter() - start
        return Round(seconds, len(ops), sum(c != 0 for c in codes), {"codes": codes})

    def check(self, rnd: Round, checks: Checks) -> None:
        synth, fit, base, comp, single = rnd.outputs["codes"]
        truth = ref.read_json(self.truth)
        if synth != 0:
            return
        votes = ref.Votes.read_csv(self.csv)
        self._check_survey(checks, truth, votes)
        fit_doc = ref.read_json(self.fit) if fit == 0 else None
        base_doc = ref.read_json(self.baseline) if base == 0 else None
        if fit_doc is not None:
            _check_factorized_fit(
                checks, "survey.fit", fit_doc, truth, votes, self.tolerances
            )
        if base_doc is not None:
            _check_baseline_fit(checks, "survey.baseline", base_doc, truth, votes)
        if comp == 0 and fit_doc is not None and base_doc is not None:
            self._check_compare(checks, ref.read_json(self.comparison), fit_doc, base_doc, truth, votes)
        if single == 0:
            # Only reached once the single-start fault is mended.
            _check_factorized_fit(
                checks, "survey.single_start", ref.read_json(self.single), truth, votes,
                self.tolerances,
            )

    def _check_survey(self, checks, truth, votes) -> None:
        sigma_e, kernels = ref.factorized_params(truth)
        n_cells = len(sigma_e) * len(kernels) * TIMES_PER_EVENT
        checks.expect(
            "survey.synthesize.rows",
            len(votes) == n_cells * self.votes,
            f"{len(votes)} rows, expected {n_cells * self.votes}",
        )
        cells: dict[tuple[str, str, float], list[float]] = {}
        respondents: dict[tuple[str, str, float], set[str]] = {}
        for e, a, t, y, r in zip(votes.events, votes.adverbials, votes.t.tolist(), votes.y.tolist(), votes.respondents):
            cells.setdefault((e, a, t), []).append(y)
            respondents.setdefault((e, a, t), set()).add(r)
        # The generator's times: TIMES_PER_EVENT log-spaced points over [sigma_e/100, 100 sigma_e].
        ratio = 1e4 ** (1.0 / (TIMES_PER_EVENT - 1))
        for (e, a, t), ys in sorted(cells.items()):
            step = math.log(t / (sigma_e[e] / 100.0)) / math.log(ratio)
            on_grid = abs(step - round(step)) < 1e-6 and 0 <= round(step) < TIMES_PER_EVENT
            p = float(ref.composite(t, sigma_e[e], *kernels[a]))
            want = ref.expected_clamped_mean(p, NOISE_SD)
            mean = math.fsum(ys) / len(ys)
            # 5 standard errors of a mean of clamped N(p, 0.1^2) votes.
            ok = (
                on_grid
                and len(ys) == self.votes
                and len(respondents[(e, a, t)]) == self.votes
                and all(0.0 <= y <= 1.0 for y in ys)
                and abs(mean - want) <= 5.0 * NOISE_SD / math.sqrt(len(ys))
            )
            if not checks.expect(
                "survey.synthesize.cells", ok,
                f"cell ({e}, {a}, {t}): {len(ys)} votes, mean {mean:.5f}, expected {want:.5f}",
            ):
                break

    def _check_compare(self, checks, doc, fit_doc, base_doc, truth, votes) -> None:
        n_events, n_adverbials = _counts(truth)
        mae_f = ref.mae(fit_doc, votes)
        mae_b = ref.mae(base_doc, votes)
        bad = ref.mae_mismatch(doc["factorized"]["accuracy"], mae_f, 1e-9) or ref.mae_mismatch(
            doc["baseline"]["accuracy"], mae_b, 1e-9
        )
        checks.expect("survey.compare.mae", bad is None, bad or "")
        checks.expect(
            "survey.compare.counts",
            doc["factorized"]["function_count"] == n_events + n_adverbials
            and doc["baseline"]["function_count"] == n_events * n_adverbials
            and doc["factorized"]["parameter_count"] == n_events + 2 * n_adverbials
            and doc["baseline"]["parameter_count"] == 2 * n_events * n_adverbials,
            f"factorized {doc['factorized']}, baseline {doc['baseline']}",
        )
        checks.expect(
            "survey.compare.factorized_not_worse",
            mae_f["overall"] <= mae_b["overall"]
            and math.isclose(
                doc["accuracy_difference"]["overall"],
                mae_f["overall"] - mae_b["overall"],
                rel_tol=0.0, abs_tol=1e-9,
            ),
            f"factorized MAE {mae_f['overall']!r}, baseline {mae_b['overall']!r}",
        )


class VocabLadder:
    """vocab-ladder: fit_factorized and fit_baseline with the default FitConfig on every rung.

    Every rung's survey is drawn with generator seed ``1000 * 42 + rung index`` for every
    run seed.  With ``1000 * seed + rung index``, fit_factorized ended the 2x4 or the 2x8
    rung in a local minimum above the truth parameters' cost, reported as converged, on 9
    of the seeds 0-99, and the cost-against-truth check failed those runs.  The run seed is
    taken, like the other workloads', and not used.
    """

    name = "vocab-ladder"
    DATA_SEED = 42
    # Gross-error bounds only.  Every event sees the same seven precedence values (its times
    # scale with sigma_e), and at 5 votes per cell the small rungs admit alternative fits of
    # equal cost: on the 2x2 rung |dlog sigma_e| reaches 1.03 over seeds 0-7.  The cost checks
    # carry the weight here.
    TOLERANCES = (1.6, 0.4, 2.1)

    def __init__(self, seed: int, workdir: Path, votes: int = 5, rungs=LADDER):
        self.votes = votes
        self.rungs = tuple(rungs)
        self.dir = workdir
        self.truths: list[dict] = []
        self.datasets: list[data.Dataset] = []
        self._votes: list[ref.Votes] | None = None

    def setup(self) -> None:
        for index, (n_events, n_adverbials) in enumerate(self.rungs):
            truth = ladder_truth(n_events, n_adverbials)
            self.truths.append(truth)
            self.datasets.append(
                data.generate_synthetic(
                    model.FactorizedModel.from_dict(truth), TIMES_PER_EVENT, self.votes,
                    NOISE_SD, 1000 * self.DATA_SEED + index,
                )
            )

    def round(self, tracer) -> Round:
        reports = []
        failed = 0
        start = time.perf_counter()
        for dataset in self.datasets:
            pair = []
            for fit in (fitting.fit_factorized, fitting.fit_baseline):
                try:
                    pair.append(fit(dataset))
                except ValueError:
                    pair.append(None)
                    failed += 1
            reports.append(pair)
        seconds = time.perf_counter() - start
        return Round(seconds, 2 * len(self.datasets), failed, {"reports": reports})

    def check(self, rnd: Round, checks: Checks) -> None:
        if self._votes is None:
            self._votes = [
                ref.Votes.from_rows(
                    (r.event_id, r.adverbial_id, r.elapsed.value, r.elapsed.unit, r.rating,
                     r.respondent_id or "")
                    for r in dataset.records
                )
                for dataset in self.datasets
            ]
        for (n_events, n_adverbials), truth, votes, (fac, base) in zip(
            self.rungs, self.truths, self._votes, rnd.outputs["reports"]
        ):
            if fac is not None:
                fac_doc = _report_doc(fac)
                _check_factorized_fit(
                    checks, "ladder.factorized", fac_doc, truth, votes, self.TOLERANCES
                )
                checks.expect(
                    "ladder.factorized.functions",
                    fac.model.function_count == n_events + n_adverbials,
                    f"{n_events}x{n_adverbials}: {fac.model.function_count} functions",
                )
            if base is not None:
                base_doc = _report_doc(base)
                _check_baseline_fit(checks, "ladder.baseline", base_doc, truth, votes)
                checks.expect(
                    "ladder.baseline.functions",
                    base.model.function_count == n_events * n_adverbials,
                    f"{n_events}x{n_adverbials}: {base.model.function_count} functions",
                )
            if fac is not None and base is not None:
                mae_f = ref.mae(fac_doc, votes)["overall"]
                mae_b = ref.mae(base_doc, votes)["overall"]
                checks.expect(
                    "ladder.factorized_not_worse",
                    mae_f <= mae_b,
                    f"{n_events}x{n_adverbials}: factorized MAE {mae_f!r}, baseline {mae_b!r}",
                )


class ModelQueries:
    """model-queries: sequential `predict` calls, a `plot-data` export and an `evaluate`
    run, all through cli.run against one fitted 16x16 model.

    The model is fitted at set-up on a training survey with a fixed generator seed, so
    set-up does the same work on every run seed: fitted on the seed's own survey, the
    fit's iteration count followed the seed, and setup_s with it (2.0 s on some seeds,
    3.1 s on others).  The evaluated survey and the queries follow the run seed, so
    `evaluate` scores data the model was not fitted on.
    """

    name = "model-queries"
    SHAPE = (16, 16)
    TRAINING_SEED = 42

    def __init__(self, seed: int, workdir: Path, predicts: int = 200, votes: int = 5,
                 shape=SHAPE):
        self.seed = seed
        self.predicts = predicts
        self.votes = votes
        self.dir = workdir
        self.truth_doc = ladder_truth(*shape)
        self.training = workdir / "training.csv"
        self.csv = workdir / "evaluate.csv"
        self.model = workdir / "fitted.json"
        self.plots = workdir / "curves"
        self.report = workdir / "evaluate.json"
        self.queries: list[tuple[str, str]] = []
        self._mae = None
        self._rounds = 0

    def setup(self) -> None:
        truth = model.FactorizedModel.from_dict(self.truth_doc)
        for path, seed in ((self.training, self.TRAINING_SEED), (self.csv, self.seed)):
            data.save_csv(
                data.generate_synthetic(truth, TIMES_PER_EVENT, self.votes, NOISE_SD, seed), path
            )
        code, _ = run_cli(
            NullTracer(),
            ["fit", "--data", str(self.training), "--out", str(self.model), "--per-cell-means"],
        )
        if code != 0:
            raise RuntimeError(f"model-queries set-up: `justnow fit` exited {code}")
        rng = np.random.default_rng(self.seed)
        sigma_e = {row["id"]: row["sigma_e_minutes"] for row in self.truth_doc["events"]}
        events = sorted(sigma_e)
        for _ in range(self.predicts):
            event = events[rng.integers(len(events))]
            minutes = sigma_e[event] * 10.0 ** rng.uniform(-2.0, 2.0)
            unit = tuple(ref.UNIT_MINUTES)[rng.integers(len(ref.UNIT_MINUTES))]
            self.queries.append((event, f"{minutes / ref.UNIT_MINUTES[unit]:.6g} {unit}"))

    def round(self, tracer) -> Round:
        m = str(self.model)
        outputs = []
        failed = 0
        start = time.perf_counter()
        for event, elapsed in self.queries:
            code, out = run_cli(tracer, ["predict", "--model", m, "--event", event, "--elapsed", elapsed])
            failed += code != 0
            outputs.append(out)
        codes = [
            run_cli(tracer, ["plot-data", "--model", m, "--out-dir", str(self.plots)])[0],
            run_cli(tracer, ["evaluate", "--model", m, "--data", str(self.csv), "--out", str(self.report)])[0],
        ]
        seconds = time.perf_counter() - start
        failed += sum(c != 0 for c in codes)
        return Round(seconds, len(self.queries) + 2, failed, {"predict": outputs, "codes": codes})

    def check(self, rnd: Round, checks: Checks) -> None:
        fitted = ref.read_json(self.model)
        sigma_e, kernels = ref.factorized_params(fitted)
        self._rounds += 1
        self._check_predicts(checks, rnd.outputs["predict"], sigma_e, kernels)
        plot_code, evaluate_code = rnd.outputs["codes"]
        if plot_code == 0:
            self._check_plots(checks, sigma_e, kernels)
        if evaluate_code == 0:
            if self._mae is None:
                self._mae = ref.mae(fitted, ref.Votes.read_csv(self.csv))
            bad = ref.mae_mismatch(ref.read_json(self.report), self._mae, 1e-9)
            checks.expect("queries.evaluate.mae", bad is None, bad or "")

    def _check_predicts(self, checks, outputs, sigma_e, kernels) -> None:
        ids = sorted(kernels)
        # One query per round is also checked against the 50-digit evaluation.
        mp_index = (self._rounds * 7919) % len(self.queries)
        for index, ((event, elapsed), out) in enumerate(zip(self.queries, outputs)):
            if not out:
                continue
            value, unit = elapsed.split()
            t = float(value) * ref.UNIT_MINUTES[unit]
            want = {a: float(ref.composite(t, sigma_e[event], *kernels[a])) for a in ids}
            top = max(want.values())
            near_top = {a for a, p in want.items() if top - p <= 1e-12}
            try:
                lines = [line.split("\t") for line in out.splitlines()]
                got = {name: float(p) for name, p in lines[:-1]}
                best_ok = (
                    lines[-1][:2] == ["best", min(near_top)]
                    and abs(float(lines[-1][2]) - top) <= 6e-10
                )
            except (ValueError, IndexError):
                got, best_ok = {}, False
            ok = (
                best_ok
                and sorted(got) == ids
                and all(abs(got[a] - want[a]) <= 6e-10 for a in ids)
            )
            checks.expect("queries.predict.formula", ok, f"{event} at {elapsed}: {out!r}")
            if index == mp_index:
                exact = {a: ref.composite_mp(t, sigma_e[event], *kernels[a]) for a in ids}
                checks.expect(
                    "queries.predict.mpmath",
                    sorted(got) == ids and all(abs(got[a] - exact[a]) <= 6e-10 for a in ids),
                    f"{event} at {elapsed}: printed {got}, 50-digit {exact}",
                )

    def _check_plots(self, checks, sigma_e, kernels) -> None:
        files = sorted(p.name for p in self.plots.iterdir())
        expected = sorted(f"{e}__{a}.tsv" for e in sigma_e for a in kernels)
        if not checks.expect(
            "queries.plot.files", files == expected,
            f"{len(files)} files, expected {len(expected)} ({len(sigma_e)}x{len(kernels)})",
        ):
            return
        # One curve per round is also checked point by point against the 50-digit evaluation.
        mp_file = expected[(self._rounds * 7919) % len(expected)]
        for name in expected:
            event, adverbial = name[: -len(".tsv")].split("__")
            lines = (self.plots / name).read_text(encoding="utf-8").splitlines()
            rows = np.array([line.split("\t") for line in lines[1:]], dtype=float)
            t, p = rows[:, 0], rows[:, 1]
            grid = sigma_e[event] / 100.0 * 1e4 ** (np.arange(len(t)) / (len(t) - 1))
            want = ref.composite(t, sigma_e[event], *kernels[adverbial])
            ok = (
                lines[0] == "t_minutes\tprobability"
                and len(t) == 200
                and np.allclose(t, grid, rtol=1e-12, atol=0.0)
                and np.all(np.abs(p - want) <= 1e-12)
            )
            checks.expect("queries.plot.formula", ok, f"{name} differs from the formula")
            if name == mp_file:
                exact = [ref.composite_mp(ti, sigma_e[event], *kernels[adverbial]) for ti in t]
                worst = float(np.max(np.abs(p - np.array(exact))))
                checks.expect(
                    "queries.plot.mpmath", worst <= 1e-12,
                    f"{name}: largest difference from the 50-digit values {worst!r}",
                )


WORKLOADS = {w.name: w for w in (Survey, VocabLadder, ModelQueries)}
