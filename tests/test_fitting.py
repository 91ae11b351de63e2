import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from justnow.data import Dataset, JudgmentRecord, generate_synthetic
from justnow.fitting import (
    FitConfig,
    FitReport,
    _FactorizedProblem,
    _fit_kernels,
    _levenberg_marquardt,
    _solve,
    fit_baseline,
    fit_factorized,
    jacobian_factorized,
    residuals_factorized,
)
from justnow.model import (
    AdverbialParams,
    DomainError,
    Duration,
    EventParams,
    FactorizedModel,
    PairParams,
    UnknownIdError,
    baseline_probability,
    composite_probability,
    event_precedence,
    reference_model,
)

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
    def _rosenbrock():
        def residuals(theta, rows):
            return np.column_stack([10.0 * (theta[:, 1] - theta[:, 0] ** 2), 1.0 - theta[:, 0]])

        def jacobian(theta, rows):
            jac = np.zeros((len(theta), 2, 2))
            jac[:, 0, 0] = -20.0 * theta[:, 0]
            jac[:, 0, 1] = 10.0
            jac[:, 1, 0] = -1.0
            return jac

        return residuals, jacobian

    def test_rosenbrock_converges(self):
        residuals, jacobian = self._rosenbrock()
        theta, cost, _, converged = _levenberg_marquardt(
            residuals, jacobian, np.array([[-1.2, 1.0]]), FitConfig()
        )
        assert converged[0]
        assert theta[0] == pytest.approx([1.0, 1.0], abs=1e-6)
        assert cost[0] < 1e-12

    def test_accepted_costs_strictly_decrease(self):
        residuals, jacobian = self._rosenbrock()
        start = np.array([[-1.2, 1.0]])
        _, full_cost, full_iterations, _ = _levenberg_marquardt(
            residuals, jacobian, start, FitConfig()
        )
        assert full_iterations[0] > 5
        costs = [float(np.sum(residuals(start, None) ** 2))]
        for cap in range(1, full_iterations[0] + 1):
            _, cost, iterations, _ = _levenberg_marquardt(
                residuals, jacobian, start, FitConfig(max_iterations=cap)
            )
            assert iterations[0] == cap
            costs.append(cost[0])
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert costs[-1] == full_cost[0]

    def test_iteration_cap_reported(self):
        residuals, jacobian = self._rosenbrock()
        _, _, iterations, converged = _levenberg_marquardt(
            residuals, jacobian, np.array([[-1.2, 1.0]]), FitConfig(max_iterations=2)
        )
        assert iterations[0] == 2
        assert not converged[0]

    def test_zero_cost_start_is_converged(self):
        def residuals(theta, rows):
            return np.zeros((len(theta), 2))

        _, cost, iterations, converged = _levenberg_marquardt(
            residuals, None, np.array([[1.0, 2.0]]), FitConfig()
        )
        assert converged[0]
        assert cost[0] == 0.0
        assert iterations[0] == 0

    def test_non_finite_start_fails_cleanly(self):
        def residuals(theta, rows):
            return np.full((len(theta), 1), math.inf)

        _, cost, iterations, converged = _levenberg_marquardt(
            residuals, None, np.array([[1.0]]), FitConfig()
        )
        assert not converged[0]
        assert cost[0] == math.inf
        assert iterations[0] == 0

    def test_batch_members_match_solo_runs(self):
        residuals, jacobian = self._rosenbrock()
        starts = np.array([[-1.2, 1.0], [0.0, 0.0], [2.0, -1.0], [-0.5, 3.0], [1.0, 1.0]])
        config = FitConfig(max_iterations=12)  # two members stop at the cap, three converge
        batch = _levenberg_marquardt(residuals, jacobian, starts, config)
        assert not batch[3].all() and batch[3].any()
        for i, start in enumerate(starts):
            solo = _levenberg_marquardt(residuals, jacobian, start[None], config)
            for solo_out, batch_out in zip(solo, batch):
                assert solo_out[0].tobytes() == batch_out[i].tobytes()

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
        # Unequal cell counts; the 6- and 13-cell groups each share a batch.  Mixing
        # counts in one zero-padded batch changed the bits of four of these fits.
        rng = np.random.default_rng(5)
        groups, starts = [], []
        for size in (6, 13, 21, 40, 13, 6):
            x = np.sort(rng.uniform(0.3, 1.0, size))
            n = rng.integers(1, 6, size).astype(float)
            y = np.clip(np.exp(-0.5 * ((x - 0.7) / 0.1) ** 2) + rng.normal(0.0, 0.1, size), 0, 1)
            groups.append((x, y, n, float(rng.uniform(0.0, 2.0))))
            starts.append([np.array([mu, math.log(s)]) for mu, s in rng.uniform(0.1, 1.0, (4, 2))])
        config = FitConfig(max_iterations=60)
        batch = _fit_kernels(groups, starts, config)
        for group, group_starts, fitted in zip(groups, starts, batch):
            solos = [_fit_kernels([group], [[start]], config)[0] for start in group_starts]
            best = min(solos, key=lambda solo: solo[1])
            assert best[0].tobytes() == fitted[0].tobytes()
            assert best[1:] == fitted[1:]


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(cost_tolerance=-1.0)
        with pytest.raises(ValueError):
            FitConfig(param_tolerance=-1.0)
        with pytest.raises(ValueError):
            FitConfig(multistart_count=0)

    @pytest.mark.parametrize("field", ["cost_tolerance", "param_tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            FitConfig(**{field: value})


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
        report = fit_factorized(
            data, FitConfig(multistart_count=2, per_cell_means=True)
        )
        assert report.residual_count == 2 * 2 * 5
        assert report.final_cost < 1e-12
        for eid, ev in tiny_truth.events.items():
            assert report.model.event(eid).sigma_e == pytest.approx(ev.sigma_e, rel=1e-4)

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
        config = FitConfig(multistart_count=4, seed=9)
        assert fit_factorized(data, config) == fit_factorized(data, config)

    def test_record_order_invariant(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 2, 0.1, seed=4)
        shuffled = list(data.records)
        random.Random(0).shuffle(shuffled)
        config = FitConfig(multistart_count=4, seed=9)
        a = fit_factorized(data, config)
        b = fit_factorized(Dataset(tuple(shuffled)), config)
        assert a == b


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

    def test_deterministic(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 2, 0.1, seed=4)
        config = FitConfig(multistart_count=4, seed=9)
        assert fit_baseline(data, config) == fit_baseline(data, config)

    def test_record_order_invariant(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 2, 0.1, seed=4)
        shuffled = list(data.records)
        random.Random(1).shuffle(shuffled)
        config = FitConfig(multistart_count=4, seed=9)
        assert fit_baseline(data, config) == fit_baseline(Dataset(tuple(shuffled)), config)


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
    def test_reduced_steps_match_per_vote_steps(self, tiny_truth, grid, seed, noise, votes):
        truth, data = self._survey(tiny_truth, grid, seed, noise, votes)
        theta_truth, event_ids, adverbial_ids = _theta_layout(truth)
        theta0 = theta_truth + np.resize([0.1, -0.05, 0.02], theta_truth.size)
        # Most draws converge within 20 steps.  A few crawl for hundreds of
        # steps along a flat valley, where roundoff in any summation order
        # picks the end point (shuffling the records alone moves the per-vote
        # fit to another one), so compare a fixed budget of steps.
        config = FitConfig(max_iterations=20)

        def per_vote(fn, theta):
            try:
                return fn(_model_from_theta(theta[0], event_ids, adverbial_ids), data)[None]
            except (DomainError, OverflowError):  # a width left float range: reject the trial
                return np.full((1, len(data)), math.inf)

        per_vote_fit = _levenberg_marquardt(
            lambda theta, rows: per_vote(residuals_factorized, theta),
            lambda theta, rows: per_vote(jacobian_factorized, theta),
            theta0[None],
            config,
        )
        problem = _FactorizedProblem(data, per_cell_means=False)
        reduced_fit = _levenberg_marquardt(
            problem.residuals, problem.jacobian, theta0[None], config
        )
        theta, cost, iterations, _ = reduced_fit
        assert iterations[0] == per_vote_fit[2][0]
        assert theta[0] == pytest.approx(per_vote_fit[0][0], abs=1e-6)
        assert cost[0] == pytest.approx(per_vote_fit[1][0], rel=1e-9, abs=1e-20)


def test_default_fit_leaks_no_numpy_warning():
    # The seed-42 7x300 reference survey drives a start so far out that
    # np.linalg.norm of its step overflows.
    data = generate_synthetic(reference_model(), 7, 300, 0.1, seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fit_factorized(data)
    assert report.converged
