"""Reference computations that the benchmark checks the program's outputs against.

Everything here is written from the formulas in the repository README and
does not import ``justnow``:

    P_ev(t)  = (erf(t / (sqrt(2) * sigma_e)) + 1) / 2
    P_adv(x) = exp(-((x - mu_a) / sigma_a)^2 / 2)
    P(t)     = P_adv(P_ev(t))                       factorized model
    B(t)     = exp(-((t - mu_minutes) / sigma_minutes)^2 / 2)   per-pair baseline

Costs are sums of squared residuals (prediction minus rating) over every
vote; MAE is the mean absolute residual, overall and per event/adverbial.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

# README "File formats": month = 43,800 min, year = 525,600 min.
UNIT_MINUTES = {
    "minute": 1.0,
    "hour": 60.0,
    "day": 1440.0,
    "week": 10080.0,
    "month": 43800.0,
    "year": 525600.0,
}

_SQRT2 = math.sqrt(2.0)
_erf = np.frompyfunc(math.erf, 1, 1)


def composite(t, sigma_e, mu_a, sigma_a):
    """Factorized acceptability P_adv(P_ev(t)); array arguments broadcast."""
    x = 0.5 * (np.asarray(_erf(np.asarray(t, dtype=float) / (_SQRT2 * sigma_e)), dtype=float) + 1.0)
    z = (x - mu_a) / sigma_a
    return np.exp(-0.5 * z * z)


def pair_kernel(t, mu, sigma):
    z = (np.asarray(t, dtype=float) - mu) / sigma
    return np.exp(-0.5 * z * z)


def composite_mp(t_minutes: float, sigma_e: float, mu_a: float, sigma_a: float) -> float:
    """The factorized formula evaluated at 50 significant digits with mpmath."""
    from mpmath import mp, mpf

    with mp.workdps(50):
        x = (mp.erf(mpf(t_minutes) / (mp.sqrt(2) * mpf(sigma_e))) + 1) / 2
        z = (x - mpf(mu_a)) / mpf(sigma_a)
        return float(mp.exp(-z * z / 2))


def _norm_cdf(u: float) -> float:
    return 0.5 * (1.0 + math.erf(u / _SQRT2))


def _norm_pdf(u: float) -> float:
    return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def expected_clamped_mean(p: float, sd: float) -> float:
    """E[min(1, max(0, p + e))] for e ~ N(0, sd^2): the synthetic generator's cell mean."""
    a, b = -p / sd, (1.0 - p) / sd
    return (
        p * (_norm_cdf(b) - _norm_cdf(a))
        + sd * (_norm_pdf(a) - _norm_pdf(b))
        + (1.0 - _norm_cdf(b))
    )


@dataclass
class Votes:
    """Judgments as columns: ids per row, elapsed minutes and ratings."""

    events: list[str] = field(default_factory=list)
    adverbials: list[str] = field(default_factory=list)
    respondents: list[str] = field(default_factory=list)
    t: np.ndarray = field(default_factory=lambda: np.empty(0))
    y: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def from_rows(cls, rows) -> "Votes":
        """rows: (event, adverbial, value, unit, rating, respondent) tuples."""
        votes = cls()
        t, y = [], []
        for event, adverbial, value, unit, rating, respondent in rows:
            unit = unit.strip().lower()
            if unit not in UNIT_MINUTES and unit.endswith("s"):
                unit = unit[:-1]
            votes.events.append(event)
            votes.adverbials.append(adverbial)
            votes.respondents.append(respondent)
            t.append(float(value) * UNIT_MINUTES[unit])
            y.append(float(rating))
        votes.t = np.array(t, dtype=float)
        votes.y = np.array(y, dtype=float)
        return votes

    @classmethod
    def read_csv(cls, path) -> "Votes":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["event", "adverbial", "elapsed_value", "elapsed_unit", "rating", "respondent"]:
                raise ValueError(f"{path}: unexpected header {header}")
            return cls.from_rows(reader)


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def factorized_params(doc: dict):
    """(sigma_e by event id, (mu_a, sigma_a) by adverbial id) from a model document."""
    sigma_e = {row["id"]: float(row["sigma_e_minutes"]) for row in doc["events"]}
    kernels = {row["id"]: (float(row["mu_a"]), float(row["sigma_a"])) for row in doc["adverbials"]}
    return sigma_e, kernels


# Predictions for ids a model document lacks are NaN, so every check on them fails.
_MISSING = (math.nan, math.nan)


def factorized_predictions(doc: dict, votes: Votes) -> np.ndarray:
    sigma_e, kernels = factorized_params(doc)
    se = np.array([sigma_e.get(e, math.nan) for e in votes.events])
    mu = np.array([kernels.get(a, _MISSING)[0] for a in votes.adverbials])
    sa = np.array([kernels.get(a, _MISSING)[1] for a in votes.adverbials])
    return composite(votes.t, se, mu, sa)


def baseline_predictions(doc: dict, votes: Votes) -> np.ndarray:
    pairs = {
        (row["event"], row["adverbial"]): (float(row["mu_minutes"]), float(row["sigma_minutes"]))
        for row in doc["pairs"]
    }
    mu = np.array([pairs.get(k, _MISSING)[0] for k in zip(votes.events, votes.adverbials)])
    sigma = np.array([pairs.get(k, _MISSING)[1] for k in zip(votes.events, votes.adverbials)])
    return pair_kernel(votes.t, mu, sigma)


def predictions(doc: dict, votes: Votes) -> np.ndarray:
    if "pairs" in doc:
        return baseline_predictions(doc, votes)
    return factorized_predictions(doc, votes)


def cost(doc: dict, votes: Votes) -> float:
    r = predictions(doc, votes) - votes.y
    return math.fsum((r * r).tolist())


def mae(doc: dict, votes: Votes) -> dict:
    """MAE overall, per event and per adverbial, as in the evaluate/compare documents."""
    err = np.abs(predictions(doc, votes) - votes.y).tolist()
    by_event: dict[str, list[float]] = {}
    by_adverbial: dict[str, list[float]] = {}
    for e, a, v in zip(votes.events, votes.adverbials, err):
        by_event.setdefault(e, []).append(v)
        by_adverbial.setdefault(a, []).append(v)
    return {
        "per_event": {k: math.fsum(v) / len(v) for k, v in sorted(by_event.items())},
        "per_adverbial": {k: math.fsum(v) / len(v) for k, v in sorted(by_adverbial.items())},
        "overall": math.fsum(err) / len(err),
    }


def mae_mismatch(got: dict, want: dict, tol: float) -> str | None:
    """First difference beyond tol between two MAE documents, or None."""
    if abs(got["overall"] - want["overall"]) > tol:
        return f"overall {got['overall']!r} != {want['overall']!r}"
    for group in ("per_event", "per_adverbial"):
        if sorted(got[group]) != sorted(want[group]):
            return f"{group} ids {sorted(got[group])} != {sorted(want[group])}"
        for key, value in want[group].items():
            if abs(got[group][key] - value) > tol:
                return f"{group}[{key}] {got[group][key]!r} != {value!r}"
    return None


def recovery_errors(fitted: dict, truth: dict) -> tuple[float, float, float]:
    """Largest |log sigma_e ratio|, |mu_a difference| and |log sigma_a ratio|."""
    fit_e, fit_k = factorized_params(fitted)
    true_e, true_k = factorized_params(truth)
    if sorted(fit_e) != sorted(true_e) or sorted(fit_k) != sorted(true_k):
        return math.inf, math.inf, math.inf
    return (
        max(abs(math.log(fit_e[k] / true_e[k])) for k in true_e),
        max(abs(fit_k[k][0] - true_k[k][0]) for k in true_k),
        max(abs(math.log(fit_k[k][1] / true_k[k][1])) for k in true_k),
    )
