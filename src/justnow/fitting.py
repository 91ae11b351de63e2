"""Least-squares fitting for the factorized model and the per-pair baseline.

One minimizer serves every fit: a damped Gauss-Newton loop (Levenberg-Marquardt
with Marquardt diagonal scaling) over a batch of independent problems.  Each
problem is one callable: one evaluation at a point gives its cost and analytic
normal equations, summed from each residual's nonzero partials without
building a Jacobian, and an accepted trial keeps them.  The joint fit runs all its
starts as one batch; the kernel fits of the baseline's pairs, and of both
informed starts' adverbials, run as one batch over every start of every run of
cells, whatever their cell counts.  Widths are optimized as log(sigma), and the
joint fit rejects a log width whose exp is 0 or infinite; kernel means are
unconstrained.  The lowest final cost over two informed starts and fixed
perturbations wins, the earliest start on ties.  Each problem
gets at most FitConfig.max_iterations accepted steps, 100 by default: more
than any winner on the benchmark's surveys needs, so runaways stop early.
Only the joint perturbations come from a generator, seeded with 0; a baseline
pair's starts are a fixed pattern around its rating moments.  So a fit
depends only on its data and its FitConfig.

Votes are reduced to per-cell statistics (count n, mean, within-cell sum of
squares ss) sorted by (event, adverbial, minutes); both families' costs sum
n * (prediction - mean)^2 and ss over cells, which is the per-vote cost.  Fits
are bit-for-bit the same for any record order.
To give each cell's mean rating unit weight instead, fit cell_means(data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _run_starts
from .model import (
    AdverbialParams,
    DomainError,
    EventParams,
    FactorizedModel,
    PairGaussianModel,
    PairParams,
    _gaussian,
    _kernel_terms,
    _precedence,
)

__all__ = [
    "FitConfig",
    "FitReport",
    "cell_means",
    "fit_factorized",
    "fit_baseline",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_COST_TOLERANCE, _PARAM_TOLERANCE = 1e-10, 1e-8  # when _levenberg_marquardt stops

@dataclass(frozen=True)
class FitConfig:
    """Step budget per start and start count, for both model families.

    max_iterations caps the accepted steps of every problem: each joint start,
    each informed-start kernel candidate and each baseline pair start.  A
    winner that uses the whole budget is reported as not converged.
    """

    max_iterations: int = 100
    multistart_count: int = 8

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.multistart_count < 1:
            raise ValueError(f"multistart_count must be >= 1, got {self.multistart_count}")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one fit: the model plus cost and convergence accounting.

    final_cost sums squared residuals over the residual_count votes.  iterations
    counts accepted optimizer steps (summed over pairs for the baseline).
    warnings lists baseline pairs with a heuristic width or an unconverged best start.
    """

    model: FactorizedModel | PairGaussianModel
    final_cost: float
    iterations: int
    converged: bool
    residual_count: int
    parameter_count: int
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Cell statistics and canonical ordering.


def _cells_from_dataset(data: Dataset):
    """(event, adverbial, t_minutes, n, mean, ss, min, max) arrays, one entry per cell.

    Cells are sorted by (event, adverbial, minutes); event and adverbial index data's id tables.
    """
    if not len(data):
        raise ValueError("dataset is empty")
    # Rating is the last sort key: the sorted votes, and every sum over them here and
    # in the fits, are the same for any record order, and a cell's ends are its min and max.
    order = np.lexsort((data.rating, data.minutes, data.adverbial, data.event))
    event, adverbial, t = data.event[order], data.adverbial[order], data.minutes[order]
    rating = data.rating[order]
    starts = _run_starts(event, adverbial, t)
    cells = (event[starts], adverbial[starts], t[starts])
    n = np.diff(starts, append=rating.size)
    mean = np.add.reduceat(rating, starts) / n
    ss = np.add.reduceat((rating - np.repeat(mean, n)) ** 2, starts)
    return (*cells, n, mean, ss, rating[starts], rating[starts + n - 1])


def cell_means(data: Dataset) -> Dataset:
    """data with each (event, adverbial, minutes) cell's votes replaced by one vote at their mean.

    Fitting it gives every cell's mean rating unit weight, where fitting data weights it
    by its vote count.  It shares data's id tables; times are in minutes, respondents empty.
    """
    event, adverbial, t, _, mean, *_ = _cells_from_dataset(data)
    minute = (np.array(["minute"], dtype=object), np.zeros(t.size, dtype=np.intp))
    return Dataset.__new__(Dataset)._fill(
        (data.event_ids, event), (data.adverbial_ids, adverbial), t, minute, mean, (None,) * t.size
    )


# ---------------------------------------------------------------------------
# The minimizer.


def _sum_squares(a: np.ndarray) -> np.ndarray:
    """a[i] @ a[i] for each row, as one BLAS dot each: the same bits as for a row alone."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def _solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solutions of lhs[i] x = rhs[i]; a singular system gives a NaN step."""
    try:
        return np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(lhs) == 1:
            return np.full_like(rhs, math.nan)
        return np.concatenate([_solve(lhs[i : i + 1], rhs[i : i + 1]) for i in range(len(lhs))])


@np.errstate(over="ignore")  # norms and costs of runaway points may overflow to inf
def _levenberg_marquardt(evaluate, theta0, max_iterations: int):
    """Damped Gauss-Newton with Marquardt scaling over a batch of independent problems.

    theta0 is (G, p); evaluate(theta, rows) maps the parameters (k, p) of
    problems rows to their costs (k,), each a sum of squared residuals, and to
    the normal equations' JᵀJ (k, p, p) and Jᵀr (k, p) at the same points, so
    the loop holds neither residuals nor a Jacobian.  It evaluates the starts
    once and then each pass's trials once: an accepted trial keeps its normal
    equations.  Returns each problem's theta, cost, iterations (accepted steps)
    and converged flag.  Each pass tries one damped step per running problem,
    which keeps its own damping, normal equations and termination, so it takes
    the same steps in any batch as alone.  A step is accepted only if it
    strictly lowers the cost.
    Termination: relative cost decrease below _COST_TOLERANCE, step norm below
    _PARAM_TOLERANCE (scaled by the parameter norm), exact zero cost, or no
    downhill step at any damping (a stationary point).  Taking max_iterations
    steps without one of those, or a non-finite start or starting cost, leaves
    converged False.
    """
    theta = np.array(theta0, dtype=float)
    count, n_params = theta.shape
    cost, hess, grad = evaluate(theta, np.arange(count))
    cost[~(np.isfinite(cost) & np.isfinite(theta).all(axis=1))] = math.inf  # never stepped from
    result = (theta.copy(), cost.copy(), np.zeros(count, dtype=int), cost == 0.0)
    # State of the running problems only, compacted as they finish; live maps them to the batch.
    live = np.flatnonzero((cost > 0.0) & (cost < math.inf))
    theta, cost, hess, grad = theta[live], cost[live], hess[live], grad[live]
    lam = np.full(live.size, 1e-3)
    iterations = np.zeros(live.size, dtype=int)
    diagonal = np.arange(n_params)
    while live.size:
        d = hess[:, diagonal, diagonal]
        lhs = hess.copy()  # damped at Marquardt scale d, a flat column at unit scale
        lhs[:, diagonal, diagonal] += lam[:, None] * np.where(d <= 0.0, 1.0, d)
        step = _solve(lhs, -grad)
        del lhs  # free before the trial's evaluation, which sets the peak
        solved = np.isfinite(step).all(axis=1)
        step[~solved] = 0.0  # evaluate nothing at a non-finite point
        trial = theta + step
        trial_cost, trial_hess, trial_grad = evaluate(trial, live)
        moved = solved & (trial_cost < cost)
        lam = np.where(moved, np.maximum(lam / 3.0, 1e-12), lam * 10.0)
        converged = lam > 1e14  # no damping yields a decrease: a stationary point
        if moved.any():
            rel_decrease = (cost - trial_cost) / cost
            step_norm = np.sqrt(_sum_squares(trial - theta))
            theta_norm = np.sqrt(_sum_squares(theta))
            theta = np.where(moved[:, None], trial, theta)
            cost = np.where(moved, trial_cost, cost)
            hess[moved], grad[moved] = trial_hess[moved], trial_grad[moved]
            iterations += moved
            converged |= moved & (
                (cost == 0.0)
                | (rel_decrease < _COST_TOLERANCE)
                | (step_norm <= _PARAM_TOLERANCE * (theta_norm + _PARAM_TOLERANCE))
            )
        done = converged | (iterations >= max_iterations)
        if done.any():
            for out, state in zip(result, (theta, cost, iterations, converged)):
                out[live[done]] = state[done]
            keep = ~done
            live, theta, cost, lam, iterations, hess, grad = (
                a[keep] for a in (live, theta, cost, lam, iterations, hess, grad)
            )
    return result


# ---------------------------------------------------------------------------
# Gaussian kernels fitted to runs of cells: the informed start and the baseline.


class _KernelProblem:
    """Batched costs and normal equations of kernels exp(-z^2 / 2), z = (x - mu) / sigma.

    cells is flat per-cell (x, y, n, ss); run g is the cells from runs[g] to the
    next run.  Problem i, theta = (mu, log sigma), fits run group[i] at the per-vote
    cost, n * (k - y)^2 plus ss summed over the run.  A call gives rows' costs and
    normal equations from one evaluation of their kernels.  Each sum over a problem's
    cells is one np.add.reduceat segment, summed in the same order in any batch.
    """

    def __init__(self, cells, runs: np.ndarray, group: np.ndarray):
        self.x, self.y, n, ss = cells
        self.weight, self.rows = np.sqrt(n), None
        self.start, self.size = runs[group], np.diff(runs, append=self.x.size)[group]
        self.ss = np.add.reduceat(ss, runs)[group]

    @np.errstate(all="ignore")
    def __call__(self, theta: np.ndarray, rows: np.ndarray):
        """Costs (k,), JᵀJ (k, 2, 2) and Jᵀr (k, 2) at theta (k, 2), each entry one reduceat.

        Rows' cells are laid end to end and updated in place where they can be, as a
        batch of every run's starts makes these a fit's largest arrays.
        """
        size = self.size[rows]
        if rows is not self.rows:  # LM makes a new rows array only when it compacts
            self.rows, self.first = rows, np.cumsum(size) - size  # each problem's first cell
            self.cell = np.repeat(self.start[rows] - self.first, size) + np.arange(size.sum())
        z = self.x[self.cell]
        z -= np.repeat(theta[:, 0], size)
        z /= np.repeat(np.exp(theta[:, 1]), size)
        k = _gaussian(z)
        r = k - self.y[self.cell]
        r *= self.weight[self.cell]
        cost = np.add.reduceat(r * r, self.first) + self.ss[rows]
        k *= self.weight[self.cell]
        k *= z
        z *= k  # each cell's partial for log sigma, z^2 * k * sqrt(n)
        k /= np.repeat(np.exp(theta[:, 1]), size)  # and for mu, z * k * sqrt(n) / sigma
        products = ((k, k), (k, z), (z, z), (k, r), (z, r))
        bb, bc, cc, br, cr = (np.add.reduceat(u * v, self.first) for u, v in products)
        hess = np.stack([bb, bc, bc, cc], axis=1).reshape(-1, 2, 2)
        return cost, hess, np.stack([br, cr], axis=1)


def _fit_kernels(cells, runs: np.ndarray, starts: dict, max_iterations: int) -> dict:
    """{g: (theta, cost, iterations, converged)} of run g's best start, the earliest on ties.

    starts[g] lists run g's (mu, log sigma) starts, for one run or more: one LM batch.
    """
    counts = [len(run_starts) for run_starts in starts.values()]
    problem = _KernelProblem(cells, runs, np.repeat(list(starts), counts))
    theta, cost, iterations, converged = _levenberg_marquardt(
        problem, np.concatenate(list(starts.values())), max_iterations
    )
    best = {}
    for g, end, count in zip(starts, np.cumsum(counts), counts):
        j = end - count + int(np.argmin(cost[end - count : end]))
        best[g] = (theta[j], float(cost[j]), int(iterations[j]), bool(converged[j]))
    return best


# ---------------------------------------------------------------------------
# Factorized fit.


class _FactorizedProblem:
    """Vectorized per-vote objective over cell statistics, for a batch of starts.

    A call takes theta of shape (k, p) for any k and returns each start's cost
    and normal equations from one evaluation of the kernels; every start shares
    the cells, so rows only sizes the batch.  Precedence is evaluated once per
    distinct (event, time) point (point_ev, point_t) and gathered to the cells
    by point.  The normal equations are summed from each cell's three partials,
    so memory is O(k * cells).
    """

    def __init__(self, data: Dataset):
        self.ev_idx, self.ad_idx, self.t, self.n, self.y, self.ss, _, _ = _cells_from_dataset(data)
        cells = np.column_stack([self.ev_idx, self.t])  # precedence depends on nothing else
        points, self.point = np.unique(cells, axis=0, return_inverse=True)
        self.point_ev, self.point_t = points[:, 0].astype(int), points[:, 1]
        self.event_ids, self.adverbial_ids = data.event_ids, data.adverbial_ids
        self.weight = np.sqrt(self.n)
        self.root_ss = math.sqrt(self.ss.sum())
        self.n_residuals = int(self.n.sum())
        self.n_events = len(self.event_ids)
        self.n_adverbials = len(self.adverbial_ids)
        self.n_params = self.n_events + 2 * self.n_adverbials
        # Cells are sorted by (event, adverbial, time): events and pairs are runs of
        # cells, and by_adverbial sorts the cells into runs of adverbials.
        self.pair_starts = _run_starts(self.ev_idx, self.ad_idx)
        short = np.flatnonzero(np.diff(self.pair_starts, append=self.t.size) < 2)
        if short.size:
            cell = self.pair_starts[short[0]]
            raise ValueError(
                f"pair ({self.event_ids[self.ev_idx[cell]]!r}, "
                f"{self.adverbial_ids[self.ad_idx[cell]]!r}) has fewer than 2 distinct "
                "elapsed times; the fit is not identifiable"
            )
        self.event_starts = _run_starts(self.ev_idx)
        self.by_adverbial = np.argsort(self.ad_idx, kind="stable")
        self.adverbial_starts = _run_starts(self.ad_idx[self.by_adverbial])
        # Where the normal equations' sums land in a flattened JᵀJ, as (row, column): each event's
        # diagonal entry, each pair's (log sigma_e, mu_a) and (log sigma_e, log sigma_a)
        # entries, then each adverbial's (mu_a, mu_a), (mu_a, log sigma_a) and
        # (log sigma_a, log sigma_a) entries.
        events = np.arange(self.n_events)
        mu = self.n_events + 2 * np.arange(self.n_adverbials)
        pair_ev = self.ev_idx[self.pair_starts]
        pair_mu = self.n_events + 2 * self.ad_idx[self.pair_starts]
        row = np.concatenate([events, pair_ev, pair_ev, mu, mu, mu + 1])
        column = np.concatenate([events, pair_mu, pair_mu + 1, mu, mu + 1, mu + 1])
        self.upper, self.lower = row * self.n_params + column, column * self.n_params + row

    def split_theta(self, theta: np.ndarray):
        """(sigma_e, mu_a, sigma_a) of theta (..., p)."""
        with np.errstate(over="ignore", under="ignore"):
            sigma_e = np.exp(theta[..., : self.n_events])
            mu_a = theta[..., self.n_events :: 2]
            sigma_a = np.exp(theta[..., self.n_events + 1 :: 2])
        return sigma_e, mu_a, sigma_a

    @np.errstate(all="ignore")
    def __call__(self, theta: np.ndarray, rows: np.ndarray):
        """Costs (k,), JᵀJ (k, p, p) and Jᵀr (k, p) at theta (k, p).

        A cell's residual is sqrt(n) * (k - y), and its row of J is three partials
        times sqrt(n): a for its event's log sigma_e, b and c for its adverbial's
        mu_a and log sigma_a.  With x = Phi(u), u = t / sigma_e and
        z = (x - mu_a) / sigma_a, they are z * k * u * phi(u) / sigma_a,
        z * k / sigma_a and z^2 * k before the weight.  a*a and a*r are summed over each
        event's cells, a*b and a*c over each pair's, and b*b, b*c, c*c, b*r and
        c*r over each adverbial's.  A pair missing from the data adds nothing.
        """
        sigma_e, mu_a, sigma_a = self.split_theta(theta)
        u = self.point_t / sigma_e.take(self.point_ev, axis=1)
        u_phi = (u * (_INV_SQRT_2PI * _gaussian(u))).take(self.point, axis=1)
        sa = sigma_a.take(self.ad_idx, axis=1)
        z, k = _kernel_terms(self.precedence(sigma_e), mu_a.take(self.ad_idx, axis=1), sa)
        residuals = np.empty((len(theta), self.t.size + 1))
        residuals[:, -1] = self.root_ss  # a constant residual, whose row of J is zero
        r = np.multiply(self.weight, k - self.y, out=residuals[:, :-1])
        cost = _sum_squares(residuals)
        del residuals  # so r's memory goes when r is sorted by adverbial below
        # A width whose exp over- or underflowed has no model; LM rejects non-finite costs.
        widths = np.concatenate([sigma_e, sigma_a], axis=1)
        cost[(widths.min(axis=1) == 0.0) | (widths.max(axis=1) == math.inf)] = math.nan
        zk = z * k
        b = self.weight * (zk / sa)
        a, c = b * u_phi, self.weight * (zk * z)
        # Each product is summed on its own: stacking (k, cells) arrays costs more than it saves.
        aa, ar = (np.add.reduceat(v, self.event_starts, axis=1) for v in (a * a, a * r))
        ab, ac = (np.add.reduceat(v, self.pair_starts, axis=1) for v in (a * b, a * c))
        b, c, r = (v.take(self.by_adverbial, axis=1) for v in (b, c, r))
        bb, bc, cc, br, cr = (
            np.add.reduceat(v, self.adverbial_starts, axis=1)
            for v in (b * b, b * c, c * c, b * r, c * r)
        )
        hess = np.zeros((len(theta), self.n_params**2))
        hess[:, self.upper] = hess[:, self.lower] = np.concatenate([aa, ab, ac, bb, bc, cc], 1)
        grad = np.concatenate([ar, np.stack([br, cr], axis=2).reshape(len(theta), -1)], 1)
        return cost, hess.reshape(-1, self.n_params, self.n_params), grad

    @np.errstate(over="ignore")  # t / sigma_e may overflow to inf
    def precedence(self, sigma_e: np.ndarray) -> np.ndarray:
        """Each cell's precedence under event widths sigma_e (..., E)."""
        x = _precedence(self.point_t, sigma_e.take(self.point_ev, axis=-1))
        return x.take(self.point, axis=-1)

    def model_from_theta(self, theta: np.ndarray) -> FactorizedModel:
        sigma_e, mu_a, sigma_a = self.split_theta(theta)
        return FactorizedModel.from_params(
            [EventParams(eid, float(sigma_e[i])) for i, eid in enumerate(self.event_ids)],
            [
                AdverbialParams(aid, float(mu_a[i]), float(sigma_a[i]))
                for i, aid in enumerate(self.adverbial_ids)
            ],
        )


@np.errstate(all="ignore")  # times far apart may overflow the variance to inf
def _rating_moments(x: np.ndarray, y: np.ndarray, n: np.ndarray):
    """Rating-weighted mean and variance of x over n votes per cell; None variance if no rating."""
    weight = n * y
    total = float(weight.sum())
    if total <= 0.0:
        return float((n * x).sum() / n.sum()), None
    mean = float((weight * x).sum() / total)
    return mean, float((weight * (x - mean) ** 2).sum() / total)


@np.errstate(over="ignore")  # times near the float range overflow widths and t / sigma_e to inf
def _factorized_starts(problem: _FactorizedProblem, config: FitConfig) -> list[np.ndarray]:
    """Initial points, the first multistart_count of: two informed starts, then perturbations.

    The informed starts fix every event width, at its median vote time and then
    at 10**(1/3) times that.  Fixed widths fix the precedence values, which turns
    each adverbial into an independent two-parameter Gaussian fit on (precedence,
    rating) points, solved from a deterministic candidate grid plus a
    rating-weighted moment guess; both starts' kernels run in one _fit_kernels
    call.  The remaining starts are perturbations of the first, drawn from a
    generator seeded with 0, so a single start is the first informed one.
    """
    event_t, event_n = (np.split(v, problem.event_starts[1:]) for v in (problem.t, problem.n))
    sigma0 = np.maximum([np.median(np.repeat(t, n)) for t, n in zip(event_t, event_n)], 1e-9)
    widths = [sigma0, sigma0 * 10.0 ** (1.0 / 3.0)][: config.multistart_count]
    grid = [
        np.array([mu, math.log(sigma)])
        for mu in (0.35, 0.5, 0.65, 0.8, 0.95)
        for sigma in (0.05, 0.15)
    ]
    # Each width's cells in adverbial order, one after the other: a run per (width, adverbial).
    order = problem.by_adverbial
    x = np.concatenate([problem.precedence(sigma_e)[order] for sigma_e in widths])
    y, n, ss = (np.tile(v[order], len(widths)) for v in (problem.y, problem.n, problem.ss))
    runs = np.concatenate([problem.adverbial_starts + i * order.size for i in range(len(widths))])
    kernel_starts = {}
    for g, (s, e) in enumerate(zip(runs, np.append(runs[1:], x.size))):
        kernel_starts[g] = list(grid)
        mean, var = _rating_moments(x[s:e], y[s:e], n[s:e])
        if var is not None:
            sigma = math.sqrt(var) if var > 0.0 else 0.1
            kernel_starts[g].append(np.array([mean, math.log(min(max(sigma, 1e-3), 1.0))]))
    fits = _fit_kernels((x, y, n, ss), runs, kernel_starts, config.max_iterations)
    kernels = np.reshape([theta for theta, *_ in fits.values()], (len(widths), -1))
    # A kernel fit may run a log width to where exp is 0 or inf: clip it to a normal float.
    finfo = np.finfo(float)
    kernels[:, 1::2] = np.clip(kernels[:, 1::2], math.log(finfo.tiny), math.log(finfo.max))
    starts = [np.concatenate([np.log(sigma_e), k]) for sigma_e, k in zip(widths, kernels)]
    # A row draws every log sigma_e step, then every mu_a step, then every log sigma_a
    # step; theta_order interleaves each adverbial's two steps, as theta does.
    ne, na = problem.n_events, problem.n_adverbials
    h = np.repeat([math.log(10.0), 0.25, 1.0], [ne, na, na])
    steps = np.random.default_rng(0).uniform(-h, h, (max(config.multistart_count - 2, 0), h.size))
    theta_order = np.append(np.arange(ne), ne + np.arange(2 * na).reshape(2, na).T.ravel())
    return starts + list(starts[0] + steps[:, theta_order])


def fit_factorized(data: Dataset, config: FitConfig = FitConfig()) -> FitReport:
    """Joint least-squares fit of all event and adverbial parameters.

    Minimizes the per-vote sum of squares through the cell statistics.
    Raises ValueError when the dataset is empty or some observed pair has
    fewer than two distinct elapsed times.  A fit that exhausts
    max_iterations is returned with converged False rather than raised.
    """
    problem = _FactorizedProblem(data)
    starts = _factorized_starts(problem, config)
    theta, cost, iterations, converged = _levenberg_marquardt(
        problem, starts, config.max_iterations
    )
    best = int(np.argmin(cost))  # the earliest start on ties
    return FitReport(
        model=problem.model_from_theta(theta[best]),
        final_cost=float(cost[best]),
        iterations=int(iterations[best]),
        converged=bool(converged[best]),
        residual_count=problem.n_residuals,
        parameter_count=problem.n_params,
    )


# ---------------------------------------------------------------------------
# Baseline fit.


# The R2 quasirandom sequence's step, (1/g, 1/g^2) for the plastic number g (M. Roberts,
# "The Unreasonable Effectiveness of Quasirandom Sequences", 2018).
_PLASTIC = 1.32471795724474602596
_R2_STEP = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC**2])


def _pair_starts(t: np.ndarray, y: np.ndarray, n: np.ndarray, count: int) -> np.ndarray:
    """count (mu, log sigma) starts of one pair, from its own cells only.

    Start 0 is the rating-moment start.  Start i adds the fixed offset
    (2 * frac(0.5 + i * _R2_STEP) - 1) * (span, 1.5): R2 points spread evenly
    over the box of +-span minutes and +-1.5 in log sigma around start 0.
    """
    span = float(t.max() - t.min())
    mu0, var0 = _rating_moments(t, y, n)
    sigma0 = math.sqrt(var0) if var0 else span / 4.0
    sigma0 = max(sigma0, span * 1e-3, 1e-6)
    starts = np.tile([mu0, math.log(sigma0)], (count, 1))
    points = (0.5 + np.arange(1, count)[:, None] * _R2_STEP) % 1.0
    starts[1:] += (2.0 * points - 1.0) * [span, 1.5]
    return starts


def fit_baseline(data: Dataset, config: FitConfig = FitConfig()) -> FitReport:
    """Per-pair Gaussian fits in raw minutes.

    Each pair is fitted from its own cells alone, from _pair_starts' fixed
    pattern, so it gets the same fit under any event and adverbial names.
    Pairs with a single distinct elapsed time or zero rating variance leave
    the width non-identifiable: mu is fixed at the rating-weighted mean time
    (plain mean when all ratings are zero; the middle of the times if that
    overflows), sigma falls back to the observed time span with a one-minute
    floor, and the pair is reported in warnings.  A pair whose best start runs
    out of the valid parameter range is pinned the same way; one whose best
    start did not converge keeps its fit and is named in warnings.  Either
    makes the fit not converged.  iterations is the sum of accepted steps
    across pairs.
    """
    event, adverbial, t, n, y, ss, lo, hi = _cells_from_dataset(data)
    cells, runs = (t, y, n, ss), _run_starts(event, adverbial)
    ends = np.append(runs[1:], t.size)
    keys = list(zip(data.event_ids[event[runs]], data.adverbial_ids[adverbial[runs]]))
    pairs: list[PairParams] = []
    warnings: list[str] = []
    params, starts = {}, {}  # by run: each pair's (mu, log sigma), each fitted pair's starts

    def pin(g: int, reason: str) -> None:
        ts, ys, ns = (v[runs[g] : ends[g]] for v in (t, y, n))
        mu, _ = _rating_moments(ts, ys, ns)
        if not math.isfinite(mu):  # the weighted sum of times overflowed
            mu = float(ts.min() + (ts.max() - ts.min()) / 2.0)
        sigma = max(float(ts.max() - ts.min()), 1.0)
        warnings.append(f"pair {keys[g]!r}: {reason}; fixed sigma at {sigma:g} minutes")
        pairs.append(PairParams(*keys[g], mu, sigma))
        params[g] = np.array([mu, math.log(sigma)])

    for g, (s, e) in enumerate(zip(runs, ends)):
        if e - s < 2 or hi[s:e].max() - lo[s:e].min() == 0.0:
            pin(g, "width not identifiable from degenerate data")
        else:
            starts[g] = _pair_starts(t[s:e], y[s:e], n[s:e], config.multistart_count)

    fits = _fit_kernels(cells, runs, starts, config.max_iterations) if starts else {}
    converged = all(fit[3] for fit in fits.values())
    for g, (theta, _, _, pair_converged) in fits.items():
        at = f"(mu {theta[0]:.6g}, log sigma {theta[1]:.6g})"
        try:
            pairs.append(PairParams(*keys[g], float(theta[0]), math.exp(theta[1])))
        except (DomainError, OverflowError):
            pin(g, f"best start ran out of range {at}")
            converged = False
            continue
        params[g] = theta
        if not pair_converged:
            warnings.append(f"pair {keys[g]!r}: best start did not converge {at}")
    # A fitted pair's cost is its best start's: any batch gives the same bits.
    problem = _KernelProblem(cells, runs, np.array(list(params)))
    costs = problem(np.array(list(params.values())), np.arange(len(params)))[0]
    return FitReport(
        model=PairGaussianModel.from_params(pairs),
        final_cost=math.fsum(costs),  # exactly rounded: the same for any pair order
        iterations=sum(fit[2] for fit in fits.values()),
        converged=converged,
        residual_count=int(n.sum()),
        parameter_count=2 * len(pairs),
        warnings=tuple(warnings),
    )
