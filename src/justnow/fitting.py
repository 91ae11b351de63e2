"""Least-squares fitting for the factorized model and the per-pair baseline.

The minimizer is a damped Gauss-Newton loop (Levenberg-Marquardt with
Marquardt diagonal scaling) over analytic residuals and Jacobians.  Width
parameters are optimized as log(sigma) so positivity holds by construction;
kernel means are unconstrained.  Several seeded starting points are tried
and the lowest final cost wins.

Votes are reduced to per-cell statistics (count n, mean, within-cell sum of
squares ss) sorted by (event, adverbial, minutes); both families fit
sqrt(n) * (prediction - mean) plus a constant sqrt(sum of ss), whose squares
sum to the per-vote cost.  Fits are bit-for-bit the same for any record order.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .model import (
    AdverbialParams,
    EventParams,
    FactorizedModel,
    PairGaussianModel,
    PairParams,
    _composite_terms,
    _gaussian,
    _kernel_terms,
    _lookup,
    _precedence,
)

__all__ = [
    "FitConfig",
    "FitReport",
    "fit_factorized",
    "fit_baseline",
    "residuals_factorized",
    "jacobian_factorized",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings shared by both model families.

    per_cell_means gives each (event, adverbial, time) cell's mean rating
    unit weight, a different objective from the default per-vote one.
    """

    max_iterations: int = 500
    cost_tolerance: float = 1e-10
    param_tolerance: float = 1e-8
    multistart_count: int = 8
    seed: int = 0
    per_cell_means: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.cost_tolerance < 0 or self.param_tolerance < 0:
            raise ValueError("tolerances must be >= 0")
        if self.multistart_count < 1:
            raise ValueError(f"multistart_count must be >= 1, got {self.multistart_count}")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one fit: the model plus cost and convergence accounting.

    final_cost sums squared residuals over the residual_count votes (cell means
    under per_cell_means).  iterations counts accepted optimizer steps (summed
    over pairs for the baseline).  warnings lists pairs with a heuristic width.
    """

    model: FactorizedModel | PairGaussianModel
    final_cost: float
    iterations: int
    converged: bool
    residual_count: int
    parameter_count: int
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Jacobian of the composite curve; the curve itself is justnow.model's kernel.


@np.errstate(all="ignore")
def _jacobian(t, ev_idx, ad_idx, weight, sigma_e, mu_a, sigma_a, n_rows) -> np.ndarray:
    """Weighted partials of the composite value w.r.t. (log sigma_e, mu_a, log sigma_a).

    Row i is observation i at t[i] (rows past t.size stay zero).  Columns
    are the events in index order, then each adverbial's (mu_a, log sigma_a).
    With x = Phi(u), u = t/sigma_e and z = (x - mu_a)/sigma_a:
        d/d log sigma_e = z * k * u * phi(u) / sigma_a
        d/d mu_a        = z * k / sigma_a
        d/d log sigma_a = z^2 * k
    """
    se, sa = sigma_e[ev_idx], sigma_a[ad_idx]
    z, k = _composite_terms(t, se, mu_a[ad_idx], sa)
    jac = np.zeros((n_rows, sigma_e.size + 2 * sigma_a.size))
    rows = np.arange(t.size)
    u = t / se
    phi = _INV_SQRT_2PI * _gaussian(u)
    jac[rows, ev_idx] = weight * (z * k * u * phi / sa)
    jac[rows, sigma_e.size + 2 * ad_idx] = weight * (z * k / sa)
    jac[rows, sigma_e.size + 2 * ad_idx + 1] = weight * (z * z * k)
    return jac


# ---------------------------------------------------------------------------
# Cell statistics and canonical ordering.


def _cells_from_dataset(data: Dataset, per_cell_means: bool):
    """(event, adverbial, t_minutes, n, mean, ss, min, max) per cell, in canonical order.

    per_cell_means makes every cell a single vote at its mean rating.
    """
    if not data.records:
        raise ValueError("dataset is empty")
    cells: dict[tuple[str, str, float], list[float]] = {}
    for r in data.records:
        cells.setdefault((r.event_id, r.adverbial_id, r.elapsed.to_minutes()), []).append(r.rating)
    rows = []
    for key in sorted(cells):
        ratings = cells[key]
        # fsum is exactly rounded, so both sums are independent of vote order.
        mean = math.fsum(ratings) / len(ratings)
        if per_cell_means:
            ratings = [mean]
        ss = math.fsum((y - mean) ** 2 for y in ratings)
        rows.append((*key, len(ratings), mean, ss, min(ratings), max(ratings)))
    return rows


def residuals_factorized(model: FactorizedModel, data: Dataset) -> np.ndarray:
    """Per-record residuals, prediction minus rating, in dataset order."""
    event_ids, adverbial_ids, minutes, ratings = data.columns()
    return model.predict(event_ids, adverbial_ids, minutes) - ratings


def jacobian_factorized(model: FactorizedModel, data: Dataset) -> np.ndarray:
    """Residual Jacobian w.r.t. (log sigma_e, mu_a, log sigma_a), dataset order.

    Columns are the model's events in sorted id order, then for each
    adverbial in sorted id order its (mu_a, log sigma_a) pair.  Entries for
    parameters a record's pair does not involve are exactly zero.
    """
    event_col, adverbial_col, minutes, _ = data.columns()
    event_ids, adverbial_ids = sorted(model.events), sorted(model.adverbials)
    ev_idx = _lookup({eid: i for i, eid in enumerate(event_ids)}, event_col, "event")
    ad_idx = _lookup({aid: j for j, aid in enumerate(adverbial_ids)}, adverbial_col, "adverbial")
    sigma_e = np.array([model.events[eid].sigma_e for eid in event_ids])
    return _jacobian(
        minutes, np.array(ev_idx, dtype=int), np.array(ad_idx, dtype=int), 1.0,
        sigma_e, *model._kernel_params(adverbial_ids), minutes.size,
    )


# ---------------------------------------------------------------------------
# The minimizer.


@dataclass
class _MinimizeResult:
    theta: np.ndarray
    cost: float
    iterations: int
    converged: bool
    cost_history: list[float] = field(default_factory=list)


def _levenberg_marquardt(residual_fn, jacobian_fn, theta0, config: FitConfig) -> _MinimizeResult:
    """Damped Gauss-Newton with Marquardt scaling.

    Steps are accepted only when they strictly lower the cost, so the
    sequence of accepted costs is monotone.  Termination: relative cost
    decrease below cost_tolerance, step norm below param_tolerance (scaled
    by the parameter norm), exact zero cost, or no downhill step at any
    damping (a stationary point).  Hitting max_iterations without one of
    those leaves converged False.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r = residual_fn(theta)
    cost = float(r @ r)
    history = [cost]
    if not math.isfinite(cost):
        return _MinimizeResult(theta, math.inf, 0, False, history)
    lam = 1e-3
    accepted = 0
    converged = cost == 0.0
    while not converged and accepted < config.max_iterations:
        jac = jacobian_fn(theta)
        grad = jac.T @ r
        hess = jac.T @ jac
        diag = np.diag(hess).copy()
        diag[diag <= 0.0] = 1.0  # flat column: fall back to unit-scale damping
        step = None
        candidate = None
        r_accepted = None
        cost_new = math.inf
        while lam <= 1e14:
            try:
                raw_step = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(raw_step)):
                lam *= 10.0
                continue
            trial = theta + raw_step
            r_new = residual_fn(trial)
            trial_cost = float(r_new @ r_new)
            if math.isfinite(trial_cost) and trial_cost < cost:
                step = trial - theta
                candidate = trial
                r_accepted = r_new
                cost_new = trial_cost
                break
            lam *= 10.0
        if step is None:
            # No damping value yields a decrease: treat as converged in place.
            converged = True
            break
        rel_decrease = (cost - cost_new) / cost
        # Norms of runaway points may overflow; the step test compares inf like any value.
        with np.errstate(over="ignore"):
            step_norm = float(np.linalg.norm(step))
            theta_norm = float(np.linalg.norm(theta))
        theta = candidate
        r = r_accepted
        cost = cost_new
        accepted += 1
        history.append(cost)
        lam = max(lam / 3.0, 1e-12)
        if (
            cost == 0.0
            or rel_decrease < config.cost_tolerance
            or step_norm <= config.param_tolerance * (theta_norm + config.param_tolerance)
        ):
            converged = True
    return _MinimizeResult(theta, cost, accepted, converged, history)


def _best_start(residual_fn, jacobian_fn, starts, config: FitConfig) -> _MinimizeResult:
    """The lowest-cost minimization over the starts; the earliest wins ties."""
    runs = (_levenberg_marquardt(residual_fn, jacobian_fn, theta0, config) for theta0 in starts)
    return min(runs, key=lambda result: result.cost)


# ---------------------------------------------------------------------------
# Factorized fit.


class _FactorizedProblem:
    """Vectorized per-vote objective over cell statistics; the last residual is constant."""

    def __init__(self, data: Dataset, per_cell_means: bool):
        rows = _cells_from_dataset(data, per_cell_means)
        event_col, adverbial_col, t, n, y, ss, _, _ = zip(*rows)
        self.event_ids = sorted(set(event_col))
        self.adverbial_ids = sorted(set(adverbial_col))
        ev_index = {eid: i for i, eid in enumerate(self.event_ids)}
        ad_index = {aid: i for i, aid in enumerate(self.adverbial_ids)}
        self.t = np.array(t, dtype=float)
        self.n = np.array(n, dtype=int)
        self.y = np.array(y, dtype=float)
        self.ss = np.array(ss, dtype=float)
        self.weight = np.sqrt(self.n)
        self.r_template = np.append(np.zeros_like(self.t), math.sqrt(math.fsum(ss)))
        self.ev_idx = np.array([ev_index[e] for e in event_col], dtype=int)
        self.ad_idx = np.array([ad_index[a] for a in adverbial_col], dtype=int)
        self.n_residuals = int(self.n.sum())
        self.n_events = len(self.event_ids)
        self.n_adverbials = len(self.adverbial_ids)
        self.n_params = self.n_events + 2 * self.n_adverbials
        pair_cells = Counter(zip(event_col, adverbial_col))
        for (event_id, adverbial_id), cells in sorted(pair_cells.items()):
            if cells < 2:
                raise ValueError(
                    f"pair ({event_id!r}, {adverbial_id!r}) has fewer than 2 distinct "
                    "elapsed times; the fit is not identifiable"
                )

    def split_theta(self, theta: np.ndarray):
        with np.errstate(over="ignore", under="ignore"):
            sigma_e = np.exp(theta[: self.n_events])
            adv = theta[self.n_events :].reshape(self.n_adverbials, 2)
            mu_a = adv[:, 0]
            sigma_a = np.exp(adv[:, 1])
        return sigma_e, mu_a, sigma_a

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        sigma_e, mu_a, sigma_a = self.split_theta(theta)
        _, k = _composite_terms(
            self.t, sigma_e[self.ev_idx], mu_a[self.ad_idx], sigma_a[self.ad_idx]
        )
        r = self.r_template.copy()
        r[:-1] = self.weight * (k - self.y)
        return r

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        return _jacobian(
            self.t, self.ev_idx, self.ad_idx, self.weight, *self.split_theta(theta),
            self.t.size + 1,
        )

    def model_from_theta(self, theta: np.ndarray) -> FactorizedModel:
        sigma_e, mu_a, sigma_a = self.split_theta(theta)
        return FactorizedModel.from_params(
            [EventParams(eid, float(sigma_e[i])) for i, eid in enumerate(self.event_ids)],
            [
                AdverbialParams(aid, float(mu_a[i]), float(sigma_a[i]))
                for i, aid in enumerate(self.adverbial_ids)
            ],
        )


def _rating_moments(x: np.ndarray, y: np.ndarray, n: np.ndarray):
    """Rating-weighted mean and variance of x over n votes per cell; None variance if no rating."""
    weight = n * y
    total = float(weight.sum())
    if total <= 0.0:
        return float((n * x).sum() / n.sum()), None
    mean = float((weight * x).sum() / total)
    return mean, float((weight * (x - mean) ** 2).sum() / total)


def _informed_kernel_start(problem: _FactorizedProblem, sigma0, config: FitConfig):
    """Per-adverbial (mu_a, log sigma_a) from decoupled kernel fits.

    Holding each event width at sigma0 fixes the precedence values, which
    turns every adverbial into an independent two-parameter Gaussian fit on
    (precedence, rating) points.  Each is solved from a deterministic
    candidate grid plus a rating-weighted moment guess; the winners seed
    the joint fit close to the global basin.
    """
    x0 = _precedence(problem.t, sigma0[problem.ev_idx])
    theta_adv = np.empty((problem.n_adverbials, 2))
    for j in range(problem.n_adverbials):
        mask = problem.ad_idx == j
        xs, ys, ns = x0[mask], problem.y[mask], problem.n[mask]
        candidates = [
            np.array([mu, math.log(sigma)])
            for mu in (0.35, 0.5, 0.65, 0.8, 0.95)
            for sigma in (0.05, 0.15)
        ]
        mean, var = _rating_moments(xs, ys, ns)
        if var is not None:
            sigma = math.sqrt(var) if var > 0.0 else 0.1
            candidates.append(np.array([mean, math.log(min(max(sigma, 1e-3), 1.0))]))
        residual_fn, jacobian_fn = _pair_residual_fns(xs, ys, ns, math.fsum(problem.ss[mask]))
        theta_adv[j] = _best_start(residual_fn, jacobian_fn, candidates, config).theta
    return theta_adv


def _factorized_starts(problem: _FactorizedProblem, config: FitConfig) -> list[np.ndarray]:
    """Initial points: a fixed spread start, an informed start, perturbations.

    The spread start puts sigma_e at each event's median vote time and
    the kernel means evenly over [0.3, 1.0] with width 0.1.  The informed
    start keeps those event widths but solves each kernel separately first;
    the remaining starts are seeded perturbations of the informed one.
    """
    sigma0 = np.empty(problem.n_events)
    for i in range(problem.n_events):
        mask = problem.ev_idx == i
        sigma0[i] = np.median(np.repeat(problem.t[mask], problem.n[mask]))
    sigma0 = np.maximum(sigma0, 1e-9)
    if problem.n_adverbials == 1:
        mu0 = np.array([0.65])
    else:
        mu0 = np.linspace(0.3, 1.0, problem.n_adverbials)
    spread = np.concatenate(
        [np.log(sigma0), np.column_stack([mu0, np.full_like(mu0, math.log(0.1))]).ravel()]
    )
    starts = [spread]
    if config.multistart_count == 1:
        return starts

    informed = spread.copy()
    informed[problem.n_events :] = _informed_kernel_start(problem, sigma0, config).ravel()
    starts.append(informed)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.multistart_count - 2):
        pert = informed.copy()
        pert[: problem.n_events] += rng.uniform(
            -math.log(10.0), math.log(10.0), problem.n_events
        )
        adv = pert[problem.n_events :].reshape(problem.n_adverbials, 2)
        adv[:, 0] += rng.uniform(-0.25, 0.25, problem.n_adverbials)
        adv[:, 1] += rng.uniform(-1.0, 1.0, problem.n_adverbials)
        starts.append(pert)
    return starts


def fit_factorized(data: Dataset, config: FitConfig = FitConfig()) -> FitReport:
    """Joint least-squares fit of all event and adverbial parameters.

    Minimizes the per-vote sum of squares through the cell statistics (or
    the unit-weight cost of the cell means if the config asks for them).
    Raises ValueError when the dataset is empty or some observed pair has
    fewer than two distinct elapsed times.  A fit that exhausts
    max_iterations is returned with converged False rather than raised.
    """
    problem = _FactorizedProblem(data, config.per_cell_means)
    starts = _factorized_starts(problem, config)
    best = _best_start(problem.residuals, problem.jacobian, starts, config)
    return FitReport(
        model=problem.model_from_theta(best.theta),
        final_cost=best.cost,
        iterations=best.iterations,
        converged=best.converged,
        residual_count=problem.n_residuals,
        parameter_count=problem.n_params,
    )


# ---------------------------------------------------------------------------
# Baseline fit.


def _pair_residual_fns(t: np.ndarray, y: np.ndarray, n: np.ndarray, ss: float):
    """Per-vote objective of one Gaussian over cells, like _FactorizedProblem's."""
    weight = np.sqrt(n)
    r_template = np.append(np.zeros_like(t), math.sqrt(ss))

    @np.errstate(all="ignore")
    def residuals(theta: np.ndarray) -> np.ndarray:
        mu, log_sigma = theta
        r = r_template.copy()
        _, k = _kernel_terms(t, mu, np.exp(log_sigma))
        r[:-1] = weight * (k - y)
        return r

    @np.errstate(all="ignore")
    def jacobian(theta: np.ndarray) -> np.ndarray:
        mu, log_sigma = theta
        jac = np.zeros((t.size + 1, 2))
        sigma = np.exp(log_sigma)
        z, k = _kernel_terms(t, mu, sigma)
        wk = weight * k
        jac[:-1, 0] = z * wk / sigma
        jac[:-1, 1] = z * z * wk
        return jac

    return residuals, jacobian


def _pair_starts(t: np.ndarray, y: np.ndarray, n: np.ndarray, rng, count: int) -> list[np.ndarray]:
    span = float(t.max() - t.min())
    mu0, var0 = _rating_moments(t, y, n)
    sigma0 = math.sqrt(var0) if var0 else span / 4.0
    sigma0 = max(sigma0, span * 1e-3, 1e-6)
    base = np.array([mu0, math.log(sigma0)])
    starts = [base]
    for _ in range(count - 1):
        starts.append(
            base + np.array([rng.uniform(-1.0, 1.0) * span, rng.uniform(-1.5, 1.5)])
        )
    return starts


def fit_baseline(data: Dataset, config: FitConfig = FitConfig()) -> FitReport:
    """Independent per-pair Gaussian fits in raw minutes.

    Pairs with a single distinct elapsed time or zero rating variance leave
    the width non-identifiable: mu is fixed at the rating-weighted mean time
    (plain mean when all ratings are zero), sigma falls back to the observed
    time span with a one-minute floor, and the pair is reported in warnings.
    iterations is the sum of accepted steps across pairs.
    """
    rows = _cells_from_dataset(data, config.per_cell_means)
    rng = np.random.default_rng(config.seed)
    pairs: list[PairParams] = []
    warnings: list[str] = []
    total_cost_terms: list[float] = []
    total_iterations = 0
    all_converged = True

    for (event_id, adverbial_id), cells in itertools.groupby(rows, key=lambda row: row[:2]):
        _, _, t, n, y, ss, lo, hi = zip(*cells)
        t, n, y = np.array(t), np.array(n, dtype=float), np.array(y)
        residual_fn, jacobian_fn = _pair_residual_fns(t, y, n, math.fsum(ss))
        if len(t) < 2 or max(hi) - min(lo) == 0.0:
            mu, _ = _rating_moments(t, y, n)
            sigma = max(float(t.max() - t.min()), 1.0)
            warnings.append(
                f"pair ({event_id!r}, {adverbial_id!r}): width not identifiable "
                f"from degenerate data; fixed sigma at {sigma:g} minutes"
            )
            r = residual_fn(np.array([mu, math.log(sigma)]))
            cost = float(r @ r)
        else:
            starts = _pair_starts(t, y, n, rng, config.multistart_count)
            best = _best_start(residual_fn, jacobian_fn, starts, config)
            mu = float(best.theta[0])
            sigma = float(math.exp(best.theta[1]))
            cost = best.cost
            total_iterations += best.iterations
            all_converged = all_converged and best.converged
        pairs.append(PairParams(event_id, adverbial_id, mu, sigma))
        total_cost_terms.append(cost)

    return FitReport(
        model=PairGaussianModel.from_params(pairs),
        final_cost=math.fsum(total_cost_terms),
        iterations=total_iterations,
        converged=all_converged,
        residual_count=sum(row[3] for row in rows),
        parameter_count=2 * len(pairs),
        warnings=tuple(warnings),
    )
