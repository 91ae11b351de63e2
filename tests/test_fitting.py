import math
import random
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from justnow import fitting
from justnow.data import Dataset, JudgmentRecord, _run_starts, generate_synthetic
from justnow.fitting import (
    FitConfig,
    FitReport,
    _FactorizedProblem,
    cell_means,
    _factorized_starts,
    _fit_kernels,
    _levenberg_marquardt,
    _pair_starts,
    _solve,
    _sum_squares,
    fit_baseline,
    fit_factorized,
)
from justnow.model import (
    AdverbialParams,
    DomainError,
    Duration,
    EventParams,
    FactorizedModel,
    PairParams,
    UnknownIdError,
    _precedence,
    baseline_probability,
    composite_probability,
    event_precedence,
    reference_model,
)
from per_vote import jacobian_factorized, residuals_factorized

# Vacation (sigma_e = 396579) one month back through the Recently kernel,
# mpmath at 50 digits; with rating 0.2 the residual is prediction - 0.2.
VACATION_RECENTLY_1MO = 0.57978231909396187925


def _record(event_id, adverbial_id, minutes, rating, who=None):
    return JudgmentRecord(event_id, adverbial_id, Duration(minutes, "minute"), rating, who)


def _theta_layout(model):
    event_ids = sorted(model.events)
    adverbial_ids = sorted(model.adverbials)
    theta = [math.log(model.events[e].sigma_e) for e in event_ids]
    for a in adverbial_ids:
        adv = model.adverbials[a]
        theta.extend([adv.mu_a, math.log(adv.sigma_a)])
    return np.array(theta), event_ids, adverbial_ids


def _model_from_theta(theta, event_ids, adverbial_ids):
    n = len(event_ids)
    events = [EventParams(e, math.exp(theta[i])) for i, e in enumerate(event_ids)]
    adverbials = [
        AdverbialParams(a, theta[n + 2 * j], math.exp(theta[n + 2 * j + 1]))
        for j, a in enumerate(adverbial_ids)
    ]
    return FactorizedModel.from_params(events, adverbials)


class TestResiduals:
    def test_zero_noise_residuals_vanish(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 2, 0.0, seed=0)
        r = residuals_factorized(tiny_truth, data)
        assert r.shape == (len(data),)
        assert np.all(r == 0.0)

    def test_frozen_value(self):
        model = reference_model()
        data = Dataset((_record("Vacation", "Recently", 43800.0, 0.2),))
        r = residuals_factorized(model, data)
        assert r[0] == pytest.approx(VACATION_RECENTLY_1MO - 0.2, abs=1e-9)

    def test_dataset_order(self):
        model = reference_model()
        recs = [
            _record("Vacation", "Recently", 43800.0, 0.0),
            _record("Brushing Teeth", "Just", 0.0, 0.0),
        ]
        r = residuals_factorized(model, Dataset(tuple(recs)))
        for i, rec in enumerate(recs):
            expected = composite_probability(
                rec.elapsed, model.event(rec.event_id), model.adverbial(rec.adverbial_id)
            )
            assert r[i] == pytest.approx(expected, abs=1e-12)

    def test_unknown_ids_rejected(self):
        model = reference_model()
        data = Dataset((_record("nope", "Just", 1.0, 0.5),))
        with pytest.raises(UnknownIdError):
            residuals_factorized(model, data)
        data = Dataset((_record("Vacation", "nope", 1.0, 0.5),))
        with pytest.raises(UnknownIdError):
            jacobian_factorized(model, data)


class TestJacobian:
    def test_matches_central_differences(self):
        rng = random.Random(7)
        for _ in range(5):
            events = [
                EventParams(f"e{i}", 10.0 ** rng.uniform(2.0, 6.0)) for i in range(2)
            ]
            adverbials = [
                AdverbialParams(f"a{j}", rng.uniform(0.3, 1.1), rng.uniform(0.03, 0.3))
                for j in range(2)
            ]
            model = FactorizedModel.from_params(events, adverbials)
            recs = []
            for ev in events:
                for adv in adverbials:
                    for _ in range(3):
                        t = ev.sigma_e * 10.0 ** rng.uniform(-2.0, 2.0)
                        recs.append(_record(ev.event_id, adv.adverbial_id, t, rng.random()))
            data = Dataset(tuple(recs))

            jac = jacobian_factorized(model, data)
            theta, event_ids, adverbial_ids = _theta_layout(model)
            h = 1e-6
            for col in range(theta.size):
                bump = np.zeros_like(theta)
                bump[col] = h
                hi = residuals_factorized(
                    _model_from_theta(theta + bump, event_ids, adverbial_ids), data
                )
                lo = residuals_factorized(
                    _model_from_theta(theta - bump, event_ids, adverbial_ids), data
                )
                fd = (hi - lo) / (2.0 * h)
                # 1e-9 absolute floor: central differences carry ~eps/h
                # roundoff noise, which swamps entries that are near zero
                assert np.all(np.abs(jac[:, col] - fd) <= 1e-4 * np.abs(fd) + 1e-9)

    def test_all_partials_vanish_at_kernel_peak(self):
        # x(t) == mu_a makes z = 0, so every derivative column vanishes
        ev = EventParams("e", 100.0)
        adv = AdverbialParams("a", event_precedence(50.0, ev), 0.1)
        model = FactorizedModel.from_params([ev], [adv])
        data = Dataset((_record("e", "a", 50.0, 0.5),))
        jac = jacobian_factorized(model, data)
        assert np.all(jac == 0.0)

    def test_sparsity_pattern(self):
        model = FactorizedModel.from_params(
            [EventParams("e1", 100.0), EventParams("e2", 200.0)],
            [AdverbialParams("a1", 0.5, 0.1), AdverbialParams("a2", 0.8, 0.2)],
        )
        data = Dataset((_record("e1", "a1", 30.0, 0.5),))
        jac = jacobian_factorized(model, data)
        assert jac.shape == (1, 6)
        # columns: [e1, e2, a1.mu, a1.logsigma, a2.mu, a2.logsigma]
        assert jac[0, 1] == 0.0
        assert jac[0, 4] == 0.0 and jac[0, 5] == 0.0
        assert jac[0, 0] != 0.0
        assert jac[0, 2] != 0.0 and jac[0, 3] != 0.0


class TestLevenbergMarquardt:
    @staticmethod
    def _rosenbrock(theta, rows):
        r = np.column_stack([10.0 * (theta[:, 1] - theta[:, 0] ** 2), 1.0 - theta[:, 0]])
        jac = np.zeros((len(theta), 2, 2))
        jac[:, 0, 0] = -20.0 * theta[:, 0]
        jac[:, 0, 1] = 10.0
        jac[:, 1, 0] = -1.0
        jac_t = jac.swapaxes(1, 2)
        return _sum_squares(r), jac_t @ jac, (jac_t @ r[:, :, None])[:, :, 0]

    def test_rosenbrock_converges(self):
        theta, cost, _, converged = _levenberg_marquardt(
            self._rosenbrock, np.array([[-1.2, 1.0]]), 500
        )
        assert converged[0]
        assert theta[0] == pytest.approx([1.0, 1.0], abs=1e-6)
        assert cost[0] < 1e-12

    def test_accepted_costs_strictly_decrease(self):
        start = np.array([[-1.2, 1.0]])
        _, full_cost, full_iterations, _ = _levenberg_marquardt(self._rosenbrock, start, 500)
        assert full_iterations[0] > 5
        costs = [float(self._rosenbrock(start, None)[0][0])]
        for cap in range(1, full_iterations[0] + 1):
            _, cost, iterations, _ = _levenberg_marquardt(self._rosenbrock, start, cap)
            assert iterations[0] == cap
            costs.append(cost[0])
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert costs[-1] == full_cost[0]

    def test_iteration_cap_reported(self):
        _, _, iterations, converged = _levenberg_marquardt(
            self._rosenbrock, np.array([[-1.2, 1.0]]), 2
        )
        assert iterations[0] == 2
        assert not converged[0]

    def test_zero_cost_start_is_converged(self):
        def evaluate(theta, rows):
            return np.zeros(len(theta)), np.zeros((len(theta), 2, 2)), np.zeros((len(theta), 2))

        _, cost, iterations, converged = _levenberg_marquardt(
            evaluate, np.array([[1.0, 2.0]]), 500
        )
        assert converged[0]
        assert cost[0] == 0.0
        assert iterations[0] == 0

    def test_non_finite_start_fails_cleanly(self):
        def evaluate(theta, rows):
            k = len(theta)
            return np.full(k, math.inf), np.zeros((k, 1, 1)), np.zeros((k, 1))

        _, cost, iterations, converged = _levenberg_marquardt(evaluate, np.array([[1.0]]), 500)
        assert not converged[0]
        assert cost[0] == math.inf
        assert iterations[0] == 0

    ROSENBROCK_STARTS = np.array([[-1.2, 1.0], [0.0, 0.0], [2.0, -1.0], [-0.5, 3.0], [1.0, 1.0]])

    def test_batch_members_match_solo_runs(self):
        starts = self.ROSENBROCK_STARTS
        budget = 12  # two members stop at the cap, three converge
        batch = _levenberg_marquardt(self._rosenbrock, starts, budget)
        assert not batch[3].all() and batch[3].any()
        for i, start in enumerate(starts):
            solo = _levenberg_marquardt(self._rosenbrock, start[None], budget)
            for solo_out, batch_out in zip(solo, batch):
                assert solo_out[0].tobytes() == batch_out[i].tobytes()

    def test_one_evaluation_per_pass(self, monkeypatch, tiny_truth):
        # The starts are evaluated once, then each pass's trials once, on the running
        # problems only: an accepted trial keeps its normal equations.
        data = generate_synthetic(tiny_truth, 5, 3, 0.1, seed=4)
        joint = _FactorizedProblem(data)
        event, adverbial, t, n, y, ss, *_ = fitting._cells_from_dataset(data)
        runs = _run_starts(event, adverbial)
        pairs = [_pair_starts(t[c], y[c], n[c], 8) for c in np.split(np.arange(t.size), runs[1:])]
        group = np.repeat(np.arange(runs.size), 8)
        pair_kernels = fitting._KernelProblem((t, y, n, ss), runs, group)
        cases = (
            (self._rosenbrock, self.ROSENBROCK_STARTS),
            (joint, np.array(_factorized_starts(joint, FitConfig()))),
            (pair_kernels, np.concatenate(pairs)),
        )
        evaluated, solved = [], []
        solve = fitting._solve
        monkeypatch.setattr(
            fitting, "_solve", lambda lhs, rhs: solved.append(len(lhs)) or solve(lhs, rhs)
        )
        for evaluate, starts in cases:
            evaluated.clear()
            solved.clear()

            def counted(theta, rows, evaluate=evaluate):
                assert len(rows) == len(theta)
                evaluated.append(len(rows))
                return evaluate(theta, rows)

            iterations = _levenberg_marquardt(counted, starts, 100)[2]
            assert iterations.max() > 1
            assert evaluated == [len(starts)] + solved

    def test_singular_system_gets_nan_step_alone(self):
        lhs = np.array([[[2.0, 0.0], [0.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
        rhs = np.array([[2.0, 4.0], [1.0, 1.0], [1.0, 3.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(lhs, rhs[:, :, None])
        step = _solve(lhs, rhs)
        assert step[0].tolist() == [1.0, 1.0]
        assert np.isnan(step[1]).all()
        assert step[2].tolist() == [1.0, 2.0]

    def test_kernel_groups_match_solo_runs(self):
        # Groups of unequal cell counts share one batch: each group's fit must be the best
        # of its starts run alone, bit for bit.
        rng = np.random.default_rng(5)
        groups, starts = [], {}
        for g, size in enumerate((6, 13, 21, 40, 13, 6)):
            x = np.sort(rng.uniform(0.3, 1.0, size))
            n = rng.integers(1, 6, size).astype(float)
            y = np.clip(np.exp(-0.5 * ((x - 0.7) / 0.1) ** 2) + rng.normal(0.0, 0.1, size), 0, 1)
            ss = np.append(rng.uniform(0.0, 2.0), np.zeros(size - 1))  # the group's sum of squares
            groups.append((x, y, n, ss))
            starts[g] = [np.array([mu, math.log(s)]) for mu, s in rng.uniform(0.1, 1.0, (4, 2))]
        cells = tuple(np.concatenate(column) for column in zip(*groups))
        runs = np.cumsum([0] + [group[0].size for group in groups[:-1]])
        batch = _fit_kernels(cells, runs, starts, 60)
        for g, fitted in batch.items():
            solos = [_fit_kernels(cells, runs, {g: [start]}, 60)[g] for start in starts[g]]
            best = min(solos, key=lambda solo: solo[1])
            assert best[0].tobytes() == fitted[0].tobytes()
            assert best[1:] == fitted[1:]


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(multistart_count=0)

    def test_fields(self):
        # The minimizer's tolerances are its constants, and per-cell means is a dataset.
        assert [f.name for f in fields(FitConfig)] == ["max_iterations", "multistart_count"]

    def test_default_budget(self):
        assert FitConfig().max_iterations == 100


class TestFitFactorized:
    def test_zero_noise_recovery_single_pair(self):
        truth = FactorizedModel.from_params(
            [EventParams("e", 500.0)], [AdverbialParams("a", 0.48, 0.05)]
        )
        data = generate_synthetic(truth, 7, 2, 0.0, seed=0)
        report = fit_factorized(data, FitConfig(multistart_count=4))
        assert report.converged
        assert report.final_cost < 1e-12
        assert report.model.event("e").sigma_e == pytest.approx(500.0, rel=1e-5)
        adv = report.model.adverbial("a")
        assert adv.mu_a == pytest.approx(0.48, abs=1e-5)
        assert adv.sigma_a == pytest.approx(0.05, rel=1e-4)

    def test_zero_noise_recovery_tiny_grid(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 1, 0.0, seed=0)
        report = fit_factorized(data, FitConfig(multistart_count=4))
        assert report.converged
        assert report.final_cost < 1e-12
        for eid, ev in tiny_truth.events.items():
            assert report.model.event(eid).sigma_e == pytest.approx(ev.sigma_e, rel=1e-4)
        for aid, adv in tiny_truth.adverbials.items():
            got = report.model.adverbial(aid)
            assert got.mu_a == pytest.approx(adv.mu_a, abs=1e-4)
            assert got.sigma_a == pytest.approx(adv.sigma_a, rel=1e-3)

    def test_report_shape(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 3, 0.0, seed=0)
        report = fit_factorized(data, FitConfig(multistart_count=2))
        assert isinstance(report, FitReport)
        assert report.residual_count == len(data) == 2 * 2 * 5 * 3
        assert report.parameter_count == 2 + 2 * 2
        assert report.model.function_count == 4
        assert report.final_cost >= 0.0
        assert report.warnings == ()

    def test_per_cell_means_collapses_residuals(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 3, 0.0, seed=0)
        report = fit_factorized(cell_means(data), FitConfig(multistart_count=2))
        assert report.residual_count == 2 * 2 * 5
        assert report.final_cost < 1e-12
        for eid, ev in tiny_truth.events.items():
            assert report.model.event(eid).sigma_e == pytest.approx(ev.sigma_e, rel=1e-4)

    @pytest.mark.parametrize("seed, starts", [(4, 8), (5, 3), (6, 1)])
    def test_report_is_the_best_start_run_alone(self, tiny_truth, seed, starts):
        data = generate_synthetic(tiny_truth, 5, 3, 0.1, seed=seed)
        config = FitConfig(multistart_count=starts)
        report = fit_factorized(data, config)
        best = (report.model, report.final_cost, report.iterations, report.converged)
        assert best == _best_start_run_alone(data, config)

    def test_earliest_start_wins_ties(self):
        # Both ratings are 0: every start reaches cost 0 at once, each at its own kernel.
        truth = FactorizedModel.from_params(
            [EventParams("e0", 10.0)], [AdverbialParams("a0", 0.3125, 0.02)]
        )
        data = generate_synthetic(truth, 2, 1, 0.05, 224)
        problem = _FactorizedProblem(data)
        starts = np.array(_factorized_starts(problem, FitConfig()))
        assert len({start.tobytes() for start in starts}) == 8
        assert (problem(starts, np.arange(8))[0] == 0.0).all()
        for start in starts:
            assert (residuals_factorized(problem.model_from_theta(start), data) == 0.0).all()
        report = fit_factorized(data)
        assert report.model == problem.model_from_theta(starts[0])
        best = (report.model, report.final_cost, report.iterations, report.converged)
        assert best == _best_start_run_alone(data, FitConfig())

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_factorized(Dataset(()))

    def test_single_distinct_time_rejected(self):
        records = (
            _record("e", "a", 10.0, 0.9),
            _record("e", "a", 10.0, 0.8),
            _record("e", "b", 10.0, 0.1),
            _record("e", "b", 20.0, 0.2),
        )
        with pytest.raises(ValueError, match="'a'"):
            fit_factorized(Dataset(records))

    def test_iteration_starvation_reported(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 2, 0.1, seed=4)
        report = fit_factorized(data, FitConfig(max_iterations=1, multistart_count=1))
        assert not report.converged
        assert report.iterations == 1
        assert math.isfinite(report.final_cost)

    def test_deterministic(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 2, 0.1, seed=4)
        config = FitConfig(multistart_count=4)
        assert fit_factorized(data, config) == fit_factorized(data, config)

    def test_record_order_invariant(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 2, 0.1, seed=4)
        shuffled = list(data.records)
        random.Random(0).shuffle(shuffled)
        config = FitConfig(multistart_count=4)
        a = fit_factorized(data, config)
        b = fit_factorized(Dataset(tuple(shuffled)), config)
        assert a == b


def _irregular_survey(pairs, seed):
    """Votes on pairs {(event, adverbial): distinct times}, with 1-4 votes per cell."""
    rng = np.random.default_rng(seed)
    records = [
        _record(e, a, float(t), float(rng.uniform(0.0, 1.0)))
        for (e, a), times in pairs.items()
        for t in rng.choice(np.geomspace(1.0, 1e6, 12), times, replace=False)
        for _ in range(rng.integers(1, 5))
    ]
    return Dataset(tuple(records))


def _drop_cells(data, share, seed):
    """data without a random share of its (event, adverbial, minutes) cells."""
    columns = np.column_stack([data.event, data.adverbial, data.minutes])
    cell = np.unique(columns, axis=0, return_inverse=True)[1].ravel()
    count = cell.max() + 1
    dropped = np.random.default_rng(seed).choice(count, int(share * count), replace=False)
    return Dataset(tuple(r for r, gone in zip(data.records, np.isin(cell, dropped)) if not gone))


def _assert_within(actual, expected, rel):
    """Every entry within rel of the largest reference entry."""
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


def _best_start_run_alone(data, config):
    """(model, cost, iterations, converged) of the best start, each run as a batch of one;
    min takes the earliest start on ties."""
    problem = _FactorizedProblem(data)
    runs = [
        _levenberg_marquardt(problem, start[None], config.max_iterations)
        for start in _factorized_starts(problem, config)
    ]
    theta, cost, iterations, converged = min(runs, key=lambda run: run[1][0])
    return problem.model_from_theta(theta[0]), float(cost[0]), int(iterations[0]), bool(converged[0])


class TestFactorizedProblem:
    def test_rows_are_the_per_vote_references_with_one_vote_per_cell(self):
        # One vote per cell gives each cell unit weight and no within-cell sum of
        # squares, so the residuals are the per-vote ones in (event, adverbial, minutes)
        # order, and the normal equations the per-vote Jacobian's, although precedence
        # is evaluated once per (event, time) point.
        records = list(generate_synthetic(reference_model(), 7, 1, 0.1, seed=3).records)
        random.Random(0).shuffle(records)
        data = Dataset(tuple(records))
        problem = _FactorizedProblem(data)
        assert problem.point_t.size == 6 * 7 < problem.t.size == 6 * 4 * 7
        theta = _theta_layout(reference_model())[0] + np.resize([0.3, -0.04, 0.2], 14)
        model = problem.model_from_theta(theta)
        order = np.lexsort((data.minutes, data.adverbial, data.event))
        cost, hess, grad = problem(theta[None], np.arange(1))
        r = residuals_factorized(model, data)[order]
        assert cost.tobytes() == _sum_squares(np.append(r, 0.0)[None]).tobytes()
        jac = jacobian_factorized(model, data)[order]
        _assert_within(hess[0], jac.T @ jac, 1e-12)
        _assert_within(grad[0], jac.T @ r, 1e-12)

    # Pairs missing, pairs of unequal cell counts, one event only, one adverbial only.
    IRREGULAR = [
        {("e0", "a0"): 5, ("e0", "a2"): 2, ("e1", "a1"): 3, ("e2", "a0"): 4, ("e2", "a2"): 6},
        {("e0", "a0"): 2, ("e0", "a1"): 7, ("e0", "a2"): 3},
        {("e0", "a0"): 4, ("e1", "a0"): 2, ("e2", "a0"): 9},
        {("e0", "a0"): 3},
    ]

    @pytest.mark.parametrize("pairs", IRREGULAR)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normal_equations_match_the_dense_per_vote_ones(self, pairs, seed):
        data = _irregular_survey(pairs, seed)
        problem = _FactorizedProblem(data)
        rng = np.random.default_rng(seed)
        ne, na = problem.n_events, problem.n_adverbials
        theta = np.concatenate([
            rng.uniform(0.0, 12.0, (2, ne)),
            np.stack([rng.uniform(0.3, 1.0, (2, na)), rng.uniform(-3.0, -0.5, (2, na))], 2)
            .reshape(2, -1),
        ], axis=1)
        _, hess, grad = problem(theta, np.arange(2))
        assert hess.shape == (2, problem.n_params, problem.n_params)
        for i in range(2):
            model = problem.model_from_theta(theta[i])
            jac = jacobian_factorized(model, data)
            _assert_within(hess[i], jac.T @ jac, 1e-12)
            _assert_within(grad[i], jac.T @ residuals_factorized(model, data), 1e-12)

    @staticmethod
    def _assert_members_match_solo_runs(problem, starts, budget):
        batch = _levenberg_marquardt(problem, starts, budget)
        for i, start in enumerate(starts):
            solo = _levenberg_marquardt(problem, start[None], budget)
            for solo_out, batch_out in zip(solo, batch):
                assert solo_out[0].tobytes() == batch_out[i].tobytes()
        return batch

    def test_batch_members_match_solo_runs(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 3, 0.1, seed=4)
        problem = _FactorizedProblem(data)
        starts = np.array(_factorized_starts(problem, FitConfig(multistart_count=6)))
        iterations, converged = self._assert_members_match_solo_runs(problem, starts, 12)[2:]
        assert converged.any() and (iterations == 12).any()  # some stop at the cap, some converge

    def test_width_out_of_float_range_rejects_only_its_start(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 3, 0.1, seed=4)
        problem = _FactorizedProblem(data)
        good = np.array(_factorized_starts(problem, FitConfig(multistart_count=3)))
        overflow, underflow = good[0].copy(), good[1].copy()
        overflow[0], underflow[3] = 800.0, -800.0  # exp(log sigma_e) is inf, exp(log sigma_a) 0
        starts = np.array([good[0], overflow, good[1], underflow, good[2]])
        cost, *normal = problem(starts, np.arange(5))
        assert np.isnan(cost[[1, 3]]).all()
        for out, alone in zip([cost, *normal], problem(good, np.arange(3))):
            assert out[[0, 2, 4]].tobytes() == alone.tobytes()
        theta, cost, iterations, converged = self._assert_members_match_solo_runs(
            problem, starts, 100
        )
        assert cost[[1, 3]].tolist() == [math.inf] * 2
        assert iterations[[1, 3]].tolist() == [0, 0] and not converged[[1, 3]].any()
        assert theta[[1, 3]].tobytes() == starts[[1, 3]].tobytes()
        assert np.isfinite(cost[[0, 2, 4]]).all() and converged[[0, 2, 4]].all()

    def test_default_fit_peak_memory(self):
        # A Jacobian dense over all 8 starts of the 16x16 ladder rung peaked at 7.06 MB.
        # The baseline's kernel batch, dense over each pair's cells, peaked at 1.86 MB.
        truth = TestFactorizedBasins._ladder_truth(16, 16)
        data = generate_synthetic(truth, 7, 5, 0.1, 42000 + 6)
        peaks = []
        for fit in (fit_factorized, fit_baseline):
            tracemalloc.start()
            try:
                fit(data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peak, baseline_peak = peaks
        assert peak <= 3.5e6
        assert baseline_peak <= 1.75e6

    def test_ragged_cells_run_one_batch_per_family(self, monkeypatch):
        # The seed-42 16x16 ladder rung with a fifth of its cells dropped: its pairs have
        # 2 to 7 cells, and each family's kernel fits still run as one LM batch.
        truth = TestFactorizedBasins._ladder_truth(16, 16)
        data = _drop_cells(generate_synthetic(truth, 7, 5, 0.1, 42000 + 6), 0.2, 0)
        event, adverbial, *_ = fitting._cells_from_dataset(data)
        cells = np.diff(_run_starts(event, adverbial), append=event.size)
        assert (cells.min(), cells.max()) == (2, 7)
        calls = []
        run = fitting._levenberg_marquardt
        monkeypatch.setattr(
            fitting, "_levenberg_marquardt", lambda *args: calls.append(len(args[1])) or run(*args)
        )
        fit_baseline(data)
        assert calls == [256 * 8]
        calls.clear()
        fit_factorized(data)
        assert len(calls) == 2  # the informed starts' kernels, then the joint starts
        # Every pair pinned leaves no kernel to fit, and no LM runs.
        calls.clear()
        first = data.minutes.min()  # only e00's votes, and one time per pair
        pinned = Dataset(tuple(r for r in data.records if r.elapsed.to_minutes() == first))
        report = fit_baseline(pinned)
        assert calls == [] and len(report.warnings) == report.model.function_count > 0


class TestFactorizedStarts:
    def test_order_is_informed_scaled_informed_perturbations(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 2, 0.1, seed=4)
        problem = _FactorizedProblem(data)
        config = FitConfig(multistart_count=4)
        starts = _factorized_starts(problem, config)
        for count in (1, 2, 3):
            prefix = _factorized_starts(problem, FitConfig(multistart_count=count))
            assert len(prefix) == count
            assert all(np.array_equal(a, b) for a, b in zip(prefix, starts))
        informed, scaled, *perturbations = starts
        sigma0 = np.array([np.median(data.minutes[data.event == i]) for i in range(2)])
        for start, widths in ((informed, sigma0), (scaled, sigma0 * 10.0 ** (1.0 / 3.0))):
            assert np.array_equal(start[:2], np.log(widths))
            # Each kernel is fitted against the start's own widths: a kernel fit from it stays.
            x = _precedence(problem.t, widths[problem.ev_idx])
            cells = tuple(v[problem.by_adverbial] for v in (x, problem.y, problem.n, problem.ss))
            for j in range(2):
                kernel = start[2 + 2 * j : 4 + 2 * j]
                runs = problem.adverbial_starts
                fit = _fit_kernels(cells, runs, {j: [kernel]}, config.max_iterations)[j]
                theta, _, iterations, converged = fit
                assert converged and iterations <= 1
                assert theta == pytest.approx(kernel, rel=1e-6)
        assert not np.array_equal(informed[2:], scaled[2:])
        # The perturbations move the first informed start's widths and kernels within their ranges.
        for pert in perturbations:
            delta = np.abs(pert - informed)
            assert 0.0 < delta[:2].max() <= math.log(10.0)
            assert 0.0 < delta[2::2].max() <= 0.25
            assert 0.0 < delta[3::2].max() <= 1.0

    def test_perturbations_are_the_sequential_draws_of_seed_0(self):
        # The reference is one draw call per parameter block and perturbation, in
        # this order; the batched draw must give the same starts to the bit.
        data = generate_synthetic(reference_model(), 3, 1, 0.1, seed=0)
        problem = _FactorizedProblem(data)
        informed, _, *perturbations = _factorized_starts(problem, FitConfig(multistart_count=5))
        rng = np.random.default_rng(0)
        for start in perturbations:
            expected = informed.copy()
            expected[:6] += rng.uniform(-math.log(10.0), math.log(10.0), 6)
            adverbials = expected[6:].reshape(4, 2)
            adverbials[:, 0] += rng.uniform(-0.25, 0.25, 4)
            adverbials[:, 1] += rng.uniform(-1.0, 1.0, 4)
            assert start.tobytes() == expected.tobytes()


class TestFactorizedBasins:
    @staticmethod
    def _ladder_truth(n_events, n_adverbials):
        """The benchmark's vocabulary-ladder truth: widths log-spaced over [1e3, 2.5e6]
        minutes, kernel means even over [0.55, 0.9], kernel widths log-spaced over [0.06, 0.2]."""
        return FactorizedModel.from_params(
            [EventParams(f"e{i:02d}", s) for i, s in enumerate(np.geomspace(1e3, 2.5e6, n_events))],
            [
                AdverbialParams(f"a{j:02d}", m, s)
                for j, (m, s) in enumerate(
                    zip(np.linspace(0.55, 0.9, n_adverbials), np.geomspace(0.06, 0.2, n_adverbials))
                )
            ],
        )

    # Draws on which every default start but the scaled informed one ends above the
    # truth's cost, reported as converged: only that start reaches the truth's basin.
    @pytest.mark.parametrize(
        "shape, rung, seed",
        [((2, 4), 1, s) for s in (3, 9, 54, 65, 68, 75, 76)] + [((2, 8), 2, s) for s in (41, 44)],
    )
    def test_ladder_fit_ends_at_or_below_the_truth_cost(self, shape, rung, seed):
        truth = self._ladder_truth(*shape)
        data = generate_synthetic(truth, 7, 5, 0.1, 1000 * seed + rung)
        r = residuals_factorized(truth, data)
        report = fit_factorized(data)
        assert report.converged
        assert report.final_cost <= math.fsum(r * r)

    # The benchmark's ladder rungs, drawn as it draws them: no winner there needs more
    # steps than the default budget, so a larger one returns the same report.
    @pytest.mark.parametrize("shape, rung", [((2, 8), 2), ((2, 16), 3)])
    def test_default_budget_matches_a_larger_one_on_the_ladder(self, shape, rung):
        data = generate_synthetic(self._ladder_truth(*shape), 7, 5, 0.1, 42000 + rung)
        assert fit_factorized(data) == fit_factorized(data, FitConfig(max_iterations=500))

    def test_informed_kernel_width_stays_in_float_range(self):
        # Both ratings are 0: one kernel candidate reaches zero cost in a step at
        # log sigma_a ~ -196,293, whose exp is 0.  The start clips it to a normal float.
        truth = FactorizedModel.from_params(
            [EventParams("e0", 10.0)], [AdverbialParams("a0", 0.3125, 0.02)]
        )
        data = generate_synthetic(truth, 2, 1, 0.05, 224)
        report = fit_factorized(data, FitConfig(max_iterations=100, multistart_count=1))
        assert report.final_cost == 0.0
        assert 0.0 < report.model.adverbial("a0").sigma_a < math.inf

    @given(
        n_events=st.integers(1, 3),
        n_adverbials=st.integers(1, 4),
        times=st.integers(2, 7),
        votes=st.integers(1, 6),
        noise=st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.5]),
        seed=st.integers(0, 2**32 - 1),
        multistarts=st.integers(1, 5),
        params=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_fit_never_raises(
        self, n_events, n_adverbials, times, votes, noise, seed, multistarts, params
    ):
        widths = st.floats(1.0, 7.0).map(lambda log10: 10.0**log10)
        truth = FactorizedModel.from_params(
            [EventParams(f"e{i}", params.draw(widths)) for i in range(n_events)],
            [
                AdverbialParams(
                    f"a{j}", params.draw(st.floats(0.3, 1.0)), params.draw(st.floats(0.02, 0.5))
                )
                for j in range(n_adverbials)
            ],
        )
        data = generate_synthetic(truth, times, votes, noise, seed)
        report = fit_factorized(data, FitConfig(multistart_count=multistarts))
        assert isinstance(report, FitReport)
        assert math.isfinite(report.final_cost)
        assert report.parameter_count == n_events + 2 * n_adverbials


class TestFitBaseline:
    def test_exact_gaussian_recovery(self):
        truth = PairParams("e", "a", 5000.0, 2000.0)
        records = tuple(
            _record("e", "a", t, baseline_probability(Duration(t, "minute"), truth))
            for t in np.linspace(500.0, 11000.0, 9)
        )
        report = fit_baseline(Dataset(records), FitConfig(multistart_count=4))
        assert report.converged
        assert report.final_cost < 1e-14
        pair = report.model.pair("e", "a")
        assert pair.mu_minutes == pytest.approx(5000.0, rel=1e-5)
        assert pair.sigma_minutes == pytest.approx(2000.0, rel=1e-5)
        assert report.warnings == ()

    def test_counts_on_reference_grid(self):
        data = generate_synthetic(reference_model(), 3, 1, 0.0, seed=0)
        report = fit_baseline(data, FitConfig(multistart_count=2))
        assert report.model.function_count == 24
        assert report.parameter_count == 48
        assert report.residual_count == len(data)
        assert report.converged
        assert report.iterations >= 24

    def test_single_time_pair_flagged(self):
        records = (
            _record("e", "a", 100.0, 1.0),
            _record("e", "a", 100.0, 1.0),
        )
        report = fit_baseline(Dataset(records))
        pair = report.model.pair("e", "a")
        assert pair.mu_minutes == 100.0
        assert pair.sigma_minutes == 1.0
        assert len(report.warnings) == 1
        assert "'e'" in report.warnings[0] and "'a'" in report.warnings[0]
        assert report.converged
        assert report.final_cost == 0.0

    def test_zero_variance_pair_flagged(self):
        records = (
            _record("e", "a", 10.0, 0.5),
            _record("e", "a", 20.0, 0.5),
        )
        report = fit_baseline(Dataset(records))
        pair = report.model.pair("e", "a")
        assert pair.mu_minutes == pytest.approx(15.0)
        assert pair.sigma_minutes == pytest.approx(10.0)
        assert len(report.warnings) == 1

    def test_all_zero_ratings_pair(self):
        records = (
            _record("e", "a", 10.0, 0.0),
            _record("e", "a", 20.0, 0.0),
        )
        report = fit_baseline(Dataset(records))
        pair = report.model.pair("e", "a")
        assert pair.mu_minutes == pytest.approx(15.0)
        assert pair.sigma_minutes == pytest.approx(10.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_baseline(Dataset(()))

    def test_cell_means_fit_counts_cells(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 3, 0.1, seed=0)
        report = fit_baseline(cell_means(data), FitConfig(multistart_count=2))
        assert report.residual_count == 2 * 2 * 5

    def test_runaway_pair_is_pinned_and_not_converged(self):
        # A pair is fitted from its own cells, so one survey can carry two draws' runaways.
        # In the 7x18 noise-0.1 seed-0 survey, ('Marriage', 'Recently')'s best start ends at
        # mu ~ -1.3e9 minutes, log sigma ~ -6,668; in the noise-0.3 seed-2 survey,
        # ('Sabbatical', 'Some Time Ago')'s runs off to mu ~ -2.3e11 minutes and stops at the
        # step budget.
        spliced = ("Sabbatical", "Some Time Ago")
        base = generate_synthetic(reference_model(), 7, 18, 0.1, seed=0).records
        other = generate_synthetic(reference_model(), 7, 18, 0.3, seed=2).records
        data = Dataset(
            tuple(r for r in base if (r.event_id, r.adverbial_id) != spliced)
            + tuple(r for r in other if (r.event_id, r.adverbial_id) == spliced)
        )
        report = fit_baseline(data, FitConfig(multistart_count=2))
        assert not report.converged
        assert len(report.warnings) == 2
        assert "('Marriage', 'Recently')" in report.warnings[0]
        assert "ran out of range" in report.warnings[0]
        assert "('Sabbatical', 'Some Time Ago')" in report.warnings[1]
        assert "did not converge (mu -" in report.warnings[1]
        assert report.model.function_count == 24
        pair = report.model.pair("Marriage", "Recently")
        times = data.minutes[data.event_ids[data.event] == "Marriage"]
        assert pair.sigma_minutes == times.max() - times.min()
        assert times.min() <= pair.mu_minutes <= times.max()
        assert math.isfinite(report.final_cost)

    def test_unconverged_winner_is_named(self):
        # The winning start of one pair runs off to mu ~ -6e9 minutes, far before its times.
        data = generate_synthetic(reference_model(), 7, 20, 0.3, seed=10)
        report = fit_baseline(data)
        assert not report.converged
        assert len(report.warnings) == 1
        assert report.warnings[0].startswith(
            "pair ('Vacation', 'Some Time Ago'): best start did not converge (mu -"
        )

    def test_out_of_range_winner_is_never_converged(self, tiny_truth, monkeypatch):
        # A winner whose width underflows, even one the optimizer calls converged.
        def underflowing(cells, runs, starts, max_iterations):
            return {g: (np.array([0.0, -1e4]), 1.0, 3, True) for g in starts}

        monkeypatch.setattr(fitting, "_fit_kernels", underflowing)
        report = fit_baseline(generate_synthetic(tiny_truth, 5, 2, 0.1, seed=4))
        assert not report.converged
        assert len(report.warnings) == report.model.function_count == 4

    def test_deterministic(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 2, 0.1, seed=4)
        config = FitConfig(multistart_count=4)
        assert fit_baseline(data, config) == fit_baseline(data, config)

    @pytest.mark.parametrize("count", [1, 2, 8, 33])
    def test_pair_starts_are_r2_offsets(self, count):
        # The reference is the formula in scalars: start i is start 0 plus
        # (2 * frac(0.5 + i * alpha) - 1) * (span, 1.5), alpha = (1/g, 1/g^2), g plastic.
        g = 1.32471795724474602596
        t, y, n = np.array([1.0, 5.0, 30.0]), np.array([0.2, 0.9, 0.4]), np.array([1, 2, 1])
        starts = _pair_starts(t, y, n, count)
        assert starts.shape == (count, 2)
        assert starts[0][0] == pytest.approx(21.2 / 2.4)  # the rating-weighted mean time
        for i, start in enumerate(starts[1:], 1):
            offset = [
                (2.0 * ((0.5 + i * (1.0 / g)) % 1.0) - 1.0) * 29.0,
                (2.0 * ((0.5 + i * (1.0 / g**2)) % 1.0) - 1.0) * 1.5,
            ]
            assert start.tobytes() == (starts[0] + offset).tobytes()

    def test_record_order_invariant(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 2, 0.1, seed=4)
        shuffled = list(data.records)
        random.Random(1).shuffle(shuffled)
        config = FitConfig(multistart_count=4)
        assert fit_baseline(data, config) == fit_baseline(Dataset(tuple(shuffled)), config)

    def test_event_names_do_not_change_any_pair(self):
        # Renamed events sort in reverse, so every pair moves in the fitted order.
        data = generate_synthetic(reference_model(), 7, 20, 0.1, seed=0)
        events = sorted(set(data.event_ids))
        renamed = {e: f"{len(events) - i:02d} {e}" for i, e in enumerate(events)}
        relabeled = Dataset(tuple(replace(r, event_id=renamed[r.event_id]) for r in data.records))
        assert sorted(relabeled.event_ids) == [renamed[e] for e in reversed(events)]
        report, other = fit_baseline(data), fit_baseline(relabeled)
        assert other.model.function_count == report.model.function_count
        for (event, adverbial), pair in report.model.pairs.items():
            renamed_pair = replace(pair, event_id=renamed[event])
            assert other.model.pair(renamed[event], adverbial) == renamed_pair
        assert other.final_cost.hex() == report.final_cost.hex()
        assert (other.iterations, other.converged) == (report.iterations, report.converged)
        mapped = other.warnings
        for event, new in renamed.items():
            mapped = [warning.replace(repr(new), repr(event)) for warning in mapped]
        assert sorted(mapped) == sorted(report.warnings)


class TestCellStatisticsExactness:
    """Fits run on per-cell statistics; costs and steps must match per-vote ones."""

    surveys = given(
        grid=st.sampled_from(["tiny", "reference"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        noise=st.sampled_from([0.0, 0.1, 0.3]),
        votes=st.integers(min_value=1, max_value=20),
    )
    # tiny_truth is immutable, so sharing it across examples is safe.
    examples = settings(
        max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )

    @staticmethod
    def _survey(tiny_truth, grid, seed, noise, votes):
        truth = tiny_truth if grid == "tiny" else reference_model()
        return truth, generate_synthetic(truth, 7, votes, noise, seed)

    # Noise-free fits end near cost 1e-25, where one-ulp differences between
    # the cell and vote sums dominate; 1e-20 absolute is far below any noisy cost.

    @surveys
    @examples
    def test_factorized_cost_is_per_vote(self, tiny_truth, grid, seed, noise, votes):
        _, data = self._survey(tiny_truth, grid, seed, noise, votes)
        report = fit_factorized(data, FitConfig(multistart_count=2))
        r = residuals_factorized(report.model, data)
        assert report.residual_count == len(data)
        assert report.final_cost == pytest.approx(math.fsum(r * r), rel=1e-9, abs=1e-20)

    @surveys
    @examples
    def test_baseline_cost_is_per_vote(self, tiny_truth, grid, seed, noise, votes):
        _, data = self._survey(tiny_truth, grid, seed, noise, votes)
        report = fit_baseline(data, FitConfig(multistart_count=2))
        per_vote = math.fsum(
            (
                baseline_probability(rec.elapsed, report.model.pair(rec.event_id, rec.adverbial_id))
                - rec.rating
            )
            ** 2
            for rec in data
        )
        assert report.residual_count == len(data)
        assert report.final_cost == pytest.approx(per_vote, rel=1e-9, abs=1e-20)

    @surveys
    @examples
    @example(grid="reference", seed=1331, noise=0.1, votes=1)  # a trial width leaves float range
    def test_reduced_steps_match_per_vote_steps(self, tiny_truth, grid, seed, noise, votes):
        truth, data = self._survey(tiny_truth, grid, seed, noise, votes)
        theta_truth, event_ids, adverbial_ids = _theta_layout(truth)
        theta0 = theta_truth + np.resize([0.1, -0.05, 0.02], theta_truth.size)
        # Most draws converge within 20 steps.  A few crawl for hundreds of
        # steps along a flat valley, where roundoff in any summation order
        # picks the end point (shuffling the records alone moves the per-vote
        # fit to another one), so compare a fixed budget of steps.
        budget = 20

        def per_vote(fn, theta, *columns):
            try:
                return fn(_model_from_theta(theta[0], event_ids, adverbial_ids), data)[None]
            except (DomainError, OverflowError):  # a width left float range: reject the trial
                return np.full((1, len(data), *columns), math.inf)

        @np.errstate(invalid="ignore")  # a rejected trial's inf Jacobian
        def per_vote_evaluate(theta, rows):
            jac = per_vote(jacobian_factorized, theta, theta.shape[1])
            r = per_vote(residuals_factorized, theta)
            jac_t = jac.swapaxes(1, 2)
            return _sum_squares(r), jac_t @ jac, (jac_t @ r[:, :, None])[:, :, 0]

        per_vote_fit = _levenberg_marquardt(per_vote_evaluate, theta0[None], budget)
        problem = _FactorizedProblem(data)
        reduced_fit = _levenberg_marquardt(problem, theta0[None], budget)
        theta, cost, iterations, _ = reduced_fit
        assert iterations[0] == per_vote_fit[2][0]
        assert theta[0] == pytest.approx(per_vote_fit[0][0], abs=1e-6)
        assert cost[0] == pytest.approx(per_vote_fit[1][0], rel=1e-9, abs=1e-20)

    votes = st.lists(
        st.tuples(
            st.sampled_from(["e0", "e1"]),
            st.sampled_from(["a0", "a1", "a2"]),
            # Shared times make cells of many votes; drawn ones make many
            # single-vote cells, one per distinct time.
            st.one_of(st.sampled_from([1.0, 60.0, 1440.0]), st.floats(0.0, 1e7)),
            # Shared ratings tie inside a cell.
            st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0)),
        ),
        min_size=1,
        max_size=300,
    )

    @given(votes=votes, shuffle=st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_cells_match_fsum_reference(self, votes, shuffle):
        records = [_record(e, a, t, y) for e, a, t, y in votes]
        data = Dataset(records)
        cells = fitting._cells_from_dataset(data)
        event, adverbial, t, n, mean, ss, lo, hi = cells
        ratings: dict[tuple, list[float]] = {}
        for e, a, t_minutes, y in votes:
            ratings.setdefault((e, a, t_minutes), []).append(y)
        keys = sorted(ratings)
        assert list(zip(data.event_ids[event], data.adverbial_ids[adverbial], t.tolist())) == keys
        cell_ratings = [ratings[key] for key in keys]
        ref_mean = [math.fsum(ys) / len(ys) for ys in cell_ratings]
        ref_ss = [math.fsum((y - m) ** 2 for y in ys) for ys, m in zip(cell_ratings, ref_mean)]
        assert mean.tolist() == pytest.approx(ref_mean, rel=1e-12, abs=0.0)
        assert n.tolist() == [len(ys) for ys in cell_ratings]
        # Tied ratings give ss = 0 exactly; a mean off by n * eps leaves
        # about n * (n * eps)^2, under 1e-23 at n = 300, in their ss.
        assert ss.tolist() == pytest.approx(ref_ss, rel=1e-12, abs=1e-20)
        assert lo.tolist() == [min(ys) for ys in cell_ratings]
        assert hi.tolist() == [max(ys) for ys in cell_ratings]
        shuffle.shuffle(records)
        again = fitting._cells_from_dataset(Dataset(records))
        for column, shuffled in zip(cells, again):
            assert column.dtype == shuffled.dtype
            assert column.tobytes() == shuffled.tobytes()

    @given(votes=votes)
    @settings(max_examples=50, deadline=None)
    def test_cell_means_is_one_vote_per_cell_at_its_mean(self, votes):
        data = Dataset([_record(e, a, t, y) for e, a, t, y in votes])
        event, adverbial, t, _, mean, _, _, _ = fitting._cells_from_dataset(data)
        means = cell_means(data)
        assert len(means) == mean.size
        assert means.respondent == (None,) * mean.size
        assert means.event_ids[means.event].tolist() == data.event_ids[event].tolist()
        labels = means.adverbial_ids[means.adverbial].tolist()
        assert labels == data.adverbial_ids[adverbial].tolist()
        assert means.minutes.tobytes() == t.tobytes()
        assert means.rating.tobytes() == mean.tobytes()
        # Its cells are its votes: one vote each, no spread, the same means to the bit.
        _, _, cell_t, n, cell_mean, ss, lo, hi = fitting._cells_from_dataset(means)
        assert cell_t.tobytes() == t.tobytes()
        assert n.tolist() == [1] * mean.size
        assert ss.tolist() == [0.0] * mean.size
        assert cell_mean.tobytes() == lo.tobytes() == hi.tobytes() == mean.tobytes()


@given(
    pairs=st.lists(
        st.lists(
            st.tuples(st.sampled_from([0.0, 1.0, 1e300]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=30, deadline=None)
def test_extreme_times_leak_no_numpy_warning(pairs):
    # Pytest turns a leaked RuntimeWarning into an error.  The one ValueError is the
    # factorized fit's own rejection of a pair with one distinct time.
    data = Dataset([
        _record(f"e{i // 2}", f"a{i % 2}", t, y) for i, rows in enumerate(pairs) for t, y in rows
    ])
    for fit in (fit_factorized, fit_baseline):
        try:
            report = fit(data)
        except ValueError as exc:
            assert fit is fit_factorized and "distinct elapsed times" in str(exc), str(exc)
            continue
        assert isinstance(report, FitReport)


def test_default_fit_leaks_no_numpy_warning():
    # The seed-42 7x300 reference survey drives a start so far out that
    # np.linalg.norm of its step overflows.
    data = generate_synthetic(reference_model(), 7, 300, 0.1, seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fit_factorized(data)
    assert report.converged
