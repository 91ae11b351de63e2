"""Core probability model for vague temporal adverbials.

Each event class gets a temporal precedence curve: the probability that an
occurrence ``t`` minutes in the past counts as settled, modeled as a
standard normal CDF in ``t`` with an event-specific width ``sigma_e``.
Each adverbial ("just", "recently", ...) is an unnormalized Gaussian
kernel on that precedence axis, peaking at the adverbial's prototypical
precedence value ``mu_a``.  Composing the two yields the probability that
the adverbial applies to the event at a given elapsed time.

The non-factorized baseline skips the shared precedence axis and assigns
one Gaussian kernel in raw minutes to every (event, adverbial) pair.

Both curves are evaluated by one vectorized kernel: numpy, with the
standard library's ``math.erf`` (the C library's erf) applied element by
element and mirrored for exact odd symmetry.  The models' ``predict``
methods, the scalar functions below and the optimizer in
:mod:`justnow.fitting` all call it, so they agree bit for bit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UNIT_MINUTES",
    "DomainError",
    "UnknownUnitError",
    "UnknownIdError",
    "Duration",
    "EventParams",
    "AdverbialParams",
    "FactorizedModel",
    "PairParams",
    "PairGaussianModel",
    "erf",
    "event_precedence",
    "adverbial_applicability",
    "composite_probability",
    "baseline_probability",
    "best_adverbial",
    "reference_model",
    "save_model",
    "load_model",
    "save_baseline",
    "load_baseline",
    "load_any_model",
]

# Calendar convention: 365-day year, month = year / 12 (43800 min = 30.4166.. days).
UNIT_MINUTES: dict[str, float] = {
    "minute": 1.0,
    "hour": 60.0,
    "day": 1440.0,
    "week": 10080.0,
    "month": 43800.0,
    "year": 525600.0,
}

_SQRT2 = math.sqrt(2.0)


class DomainError(ValueError):
    """Numeric argument outside a function's domain (non-finite or wrong sign)."""


class UnknownUnitError(ValueError):
    """Time unit not present in the supported unit table."""


class UnknownIdError(KeyError):
    """Event or adverbial id missing from a model."""


def _finite(name: str, value, positive: bool = False) -> float:
    """float(value); DomainError naming it unless finite, and > 0 if positive."""
    x = float(value)
    if not math.isfinite(x) or (positive and x <= 0.0):
        raise DomainError(f"{name} must be finite{' and > 0' if positive else ''}, got {value!r}")
    return x


def canonical_unit(text: str) -> str:
    """Normalize a unit name: lowercase, trailing plural "s" stripped."""
    unit = text.strip().lower()
    if unit not in UNIT_MINUTES and unit.endswith("s") and unit[:-1] in UNIT_MINUTES:
        unit = unit[:-1]
    return unit


@dataclass(frozen=True)
class Duration:
    """A non-negative elapsed time, stored as (value, unit)."""

    value: float
    unit: str = "minute"

    def __post_init__(self) -> None:
        if self.unit not in UNIT_MINUTES:
            raise UnknownUnitError(
                f"unknown time unit {self.unit!r}; expected one of {sorted(UNIT_MINUTES)}"
            )
        value = float(self.value)
        if not math.isfinite(value * UNIT_MINUTES[self.unit]) or value < 0.0:
            raise DomainError(f"duration must be finite in minutes and >= 0, got {self.value!r}")
        object.__setattr__(self, "value", value)

    def to_minutes(self) -> float:
        return self.value * UNIT_MINUTES[self.unit]

    @classmethod
    def parse(cls, text: str) -> "Duration":
        """Parse ``"<value> <unit>"``, e.g. ``"1 day"`` or ``"90 minutes"``.

        A trailing plural "s" on the unit is accepted.
        """
        parts = text.split()
        if len(parts) != 2:
            raise UnknownUnitError(f"expected '<value> <unit>', got {text!r}")
        try:
            value = float(parts[0])
        except ValueError as exc:
            raise DomainError(f"bad duration value in {text!r}") from exc
        return cls(value, canonical_unit(parts[1]))


@dataclass(frozen=True)
class EventParams:
    """Precedence-curve width for one event class; sigma_e is in minutes."""

    event_id: str
    sigma_e: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_e", _finite("sigma_e", self.sigma_e, positive=True))


@dataclass(frozen=True)
class AdverbialParams:
    """Kernel location and width for one adverbial on the precedence axis."""

    adverbial_id: str
    mu_a: float
    sigma_a: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu_a", _finite("mu_a", self.mu_a))
        object.__setattr__(self, "sigma_a", _finite("sigma_a", self.sigma_a, positive=True))


# ---------------------------------------------------------------------------
# The one evaluation kernel, on floats or broadcasting numpy arrays.  Overflow
# and zero division give inf or nan silently: array callers run it under
# np.errstate(all="ignore"), and Python float arithmetic does so by itself.


def _odd_erf(v):
    """math.erf of each |v| mirrored with copysign, so erf(-v) == -erf(v) bit for bit."""
    a = np.abs(v)
    return np.copysign(np.fromiter(map(math.erf, a.ravel().tolist()), float).reshape(a.shape), v)


def _precedence(t, sigma_e):
    """Event precedence curve: the standard normal CDF of t / sigma_e."""
    return 0.5 * (_odd_erf(t / (sigma_e * _SQRT2)) + 1.0)


def _gaussian(z):
    """exp(-z^2 / 2): both families' kernels, and the normal density times sqrt(2 pi)."""
    return np.exp(-0.5 * z * z)


def _kernel_terms(x, mu, sigma):
    """(z, k) of the Gaussian kernel: the adverbial's on precedence, the baseline's in minutes."""
    z = (x - mu) / sigma
    return z, _gaussian(z)


@np.errstate(all="ignore")
def _composite_terms(t, sigma_e, mu_a, sigma_a):
    """(z, k) of the adverbial kernel at the event's precedence t minutes back."""
    return _kernel_terms(_precedence(t, sigma_e), mu_a, sigma_a)


def _keyed(items, key, kind: str) -> dict:
    """{key(item): item} for items in order; ValueError naming a repeated key."""
    table: dict = {}
    for item in items:
        k = key(item)
        if k in table:
            raise ValueError(f"duplicate {kind} {k!r}")
        table[k] = item
    return table


def _lookup(table: dict, keys, kind: str) -> list:
    """table[key] for each key; a missing key raises UnknownIdError naming it."""
    try:
        return [table[key] for key in keys]
    except KeyError as exc:
        raise UnknownIdError(f"{kind} {exc.args[0]!r} not in model") from None


def erf(x: float) -> float:
    """Gauss error function, exactly odd: erf(-x) == -erf(x) bit for bit."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"erf requires a finite argument, got {x!r}")
    return float(_odd_erf(x))


def event_precedence(t_minutes: float, event: EventParams) -> float:
    """Probability that an occurrence t_minutes ago counts as settled.

    Standard normal CDF of t / sigma_e: exactly 0.5 at t = 0, strictly
    increasing, and inside (0, 1) for all finite t up to float saturation.
    """
    t_minutes = _finite("elapsed time", float(t_minutes))  # the message shows the float
    return float(_precedence(t_minutes, event.sigma_e))


def adverbial_applicability(x: float, adverbial: AdverbialParams) -> float:
    """Unnormalized Gaussian kernel on the precedence axis; equals 1 iff x == mu_a."""
    x = _finite("precedence value", float(x))  # the message shows the float
    return float(_kernel_terms(x, adverbial.mu_a, adverbial.sigma_a)[1])


def composite_probability(t: Duration, event: EventParams, adverbial: AdverbialParams) -> float:
    """Probability that the adverbial applies to the event at elapsed time t."""
    _, k = _composite_terms(t.to_minutes(), event.sigma_e, adverbial.mu_a, adverbial.sigma_a)
    return float(k)


@dataclass(frozen=True)
class PairParams:
    """Baseline kernel for one (event, adverbial) pair, in raw minutes."""

    event_id: str
    adverbial_id: str
    mu_minutes: float
    sigma_minutes: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu_minutes", _finite("mu_minutes", self.mu_minutes))
        sigma = _finite("sigma_minutes", self.sigma_minutes, positive=True)
        object.__setattr__(self, "sigma_minutes", sigma)


def baseline_probability(t: Duration, pair: PairParams) -> float:
    """Per-pair Gaussian kernel in minutes, peaking at 1 when t == mu_minutes."""
    return float(_kernel_terms(t.to_minutes(), pair.mu_minutes, pair.sigma_minutes)[1])


@dataclass(frozen=True)
class FactorizedModel:
    """A set of event curves plus a set of adverbial kernels.

    Any event can be combined with any adverbial, so the model needs
    E + A functions (E + 2A scalar parameters) to cover E x A pairs.
    """

    events: dict[str, EventParams] = field(default_factory=dict)
    adverbials: dict[str, AdverbialParams] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, ev in self.events.items():
            if key != ev.event_id:
                raise ValueError(f"event key {key!r} does not match id {ev.event_id!r}")
        for key, adv in self.adverbials.items():
            if key != adv.adverbial_id:
                raise ValueError(f"adverbial key {key!r} does not match id {adv.adverbial_id!r}")

    @classmethod
    def from_params(
        cls, events: list[EventParams], adverbials: list[AdverbialParams]
    ) -> "FactorizedModel":
        return cls(
            _keyed(events, lambda ev: ev.event_id, "event id"),
            _keyed(adverbials, lambda adv: adv.adverbial_id, "adverbial id"),
        )

    def event(self, event_id: str) -> EventParams:
        return _lookup(self.events, [event_id], "event")[0]

    def adverbial(self, adverbial_id: str) -> AdverbialParams:
        return _lookup(self.adverbials, [adverbial_id], "adverbial")[0]

    def probability(self, event_id: str, adverbial_id: str, t: Duration) -> float:
        return composite_probability(t, self.event(event_id), self.adverbial(adverbial_id))

    def predict(self, event_ids, adverbial_ids, minutes) -> np.ndarray:
        """Composite probabilities; the ids' parameters and the minutes broadcast as arrays.

        Raises UnknownIdError for an id not in the model.
        """
        sigma_e = np.array([ev.sigma_e for ev in _lookup(self.events, event_ids, "event")])
        mu_a, sigma_a = self._kernel_params(adverbial_ids)
        _, k = _composite_terms(np.asarray(minutes, dtype=float), sigma_e, mu_a, sigma_a)
        return k

    def _kernel_params(self, adverbial_ids) -> tuple[np.ndarray, np.ndarray]:
        kernels = _lookup(self.adverbials, adverbial_ids, "adverbial")
        return np.array([adv.mu_a for adv in kernels]), np.array([adv.sigma_a for adv in kernels])

    @property
    def function_count(self) -> int:
        return len(self.events) + len(self.adverbials)

    @property
    def parameter_count(self) -> int:
        return len(self.events) + 2 * len(self.adverbials)

    def to_dict(self) -> dict:
        return {
            "events": [
                {"id": eid, "sigma_e_minutes": self.events[eid].sigma_e}
                for eid in sorted(self.events)
            ],
            "adverbials": [
                {
                    "id": aid,
                    "mu_a": self.adverbials[aid].mu_a,
                    "sigma_a": self.adverbials[aid].sigma_a,
                }
                for aid in sorted(self.adverbials)
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FactorizedModel":
        try:
            events = [
                EventParams(str(row["id"]), float(row["sigma_e_minutes"]))
                for row in doc["events"]
            ]
            adverbials = [
                AdverbialParams(str(row["id"]), float(row["mu_a"]), float(row["sigma_a"]))
                for row in doc["adverbials"]
            ]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed factorized model document: {exc}") from exc
        return cls.from_params(events, adverbials)


@dataclass(frozen=True)
class PairGaussianModel:
    """Baseline: one independent Gaussian kernel per (event, adverbial) pair."""

    pairs: dict[tuple[str, str], PairParams] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, pair in self.pairs.items():
            if key != (pair.event_id, pair.adverbial_id):
                raise ValueError(f"pair key {key!r} does not match ids in {pair!r}")

    @classmethod
    def from_params(cls, pairs: list[PairParams]) -> "PairGaussianModel":
        return cls(_keyed(pairs, lambda pair: (pair.event_id, pair.adverbial_id), "pair"))

    def pair(self, event_id: str, adverbial_id: str) -> PairParams:
        return _lookup(self.pairs, [(event_id, adverbial_id)], "pair")[0]

    def probability(self, event_id: str, adverbial_id: str, t: Duration) -> float:
        return baseline_probability(t, self.pair(event_id, adverbial_id))

    @np.errstate(all="ignore")
    def predict(self, event_ids, adverbial_ids, minutes) -> np.ndarray:
        """Kernel values of the elementwise (event, adverbial) pairs, broadcast against minutes.

        Raises UnknownIdError for a pair not in the model.
        """
        pairs = _lookup(self.pairs, zip(event_ids, adverbial_ids, strict=True), "pair")
        _, k = _kernel_terms(
            np.asarray(minutes, dtype=float),
            np.array([pair.mu_minutes for pair in pairs]),
            np.array([pair.sigma_minutes for pair in pairs]),
        )
        return k

    @property
    def function_count(self) -> int:
        return len(self.pairs)

    @property
    def parameter_count(self) -> int:
        return 2 * len(self.pairs)

    def to_dict(self) -> dict:
        return {
            "pairs": [
                {
                    "event": key[0],
                    "adverbial": key[1],
                    "mu_minutes": self.pairs[key].mu_minutes,
                    "sigma_minutes": self.pairs[key].sigma_minutes,
                }
                for key in sorted(self.pairs)
            ]
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PairGaussianModel":
        try:
            pairs = [
                PairParams(
                    str(row["event"]),
                    str(row["adverbial"]),
                    float(row["mu_minutes"]),
                    float(row["sigma_minutes"]),
                )
                for row in doc["pairs"]
            ]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed baseline model document: {exc}") from exc
        return cls.from_params(pairs)


def best_adverbial(
    t: Duration, event: EventParams, model: FactorizedModel
) -> tuple[str, float]:
    """Adverbial with the highest composite probability for this event and time.

    Ties break toward the lexicographically smaller adverbial id.
    """
    model.event(event.event_id)  # UnknownIdError if the model lacks the event
    if not model.adverbials:
        raise UnknownIdError("model has no adverbials")
    ids = sorted(model.adverbials)
    _, k = _composite_terms(t.to_minutes(), event.sigma_e, *model._kernel_params(ids))
    best = int(np.argmax(k))  # the first maximum: the smallest id among ties
    return ids[best], float(k[best])


# Fitted parameters shipped with the repository; reference_model.json mirrors these.
REFERENCE_EVENT_SIGMA_MINUTES: dict[str, float] = {
    "Brushing Teeth": 935.0,
    "Birthday": 314830.0,
    "Vacation": 396579.0,
    "Sabbatical": 798494.0,
    "Year Abroad": 1240803.0,
    "Marriage": 2334869.0,
}

REFERENCE_ADVERBIAL_PARAMS: dict[str, tuple[float, float]] = {
    "Just": (0.48, 0.04),
    "Recently": (0.45, 0.09),
    "Some Time Ago": (0.78, 0.19),
    "Long Time Ago": (1.00, 0.23),
}


def reference_model() -> FactorizedModel:
    """The fitted parameter set shipped with the repository."""
    return FactorizedModel.from_params(
        [EventParams(eid, sigma) for eid, sigma in REFERENCE_EVENT_SIGMA_MINUTES.items()],
        [
            AdverbialParams(aid, mu, sigma)
            for aid, (mu, sigma) in REFERENCE_ADVERBIAL_PARAMS.items()
        ],
    )


def _write_document(path: str | os.PathLike, doc: dict) -> None:
    """Write a JSON document indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def save_model(model: FactorizedModel | PairGaussianModel, path: str | os.PathLike) -> None:
    """Write either family's model document."""
    _write_document(path, model.to_dict())


save_baseline = save_model

# Each family's class and the top-level keys that mark its documents.
_FAMILIES = {
    "factorized": (FactorizedModel, ("events", "adverbials")),
    "baseline": (PairGaussianModel, ("pairs",)),
}


def _read_model(path: str | os.PathLike, family: str) -> FactorizedModel | PairGaussianModel:
    """The model in a JSON file, of the named family or, for "recognized", of either.

    A document belongs to the family whose keys it has; other top-level keys
    are ignored, and a document with both families' keys is rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    found = [
        name for name, (_, keys) in _FAMILIES.items()
        if isinstance(doc, dict) and all(key in doc for key in keys)
    ]
    if len(found) > 1:
        raise ValueError(f"{path}: has both factorized and baseline model keys")
    if not found or family not in (found[0], "recognized"):
        raise ValueError(f"{path}: not a {family} model file")
    return _FAMILIES[found[0]][0].from_dict(doc)


def load_model(path: str | os.PathLike) -> FactorizedModel:
    """Load a factorized model from JSON; unknown top-level keys are ignored."""
    return _read_model(path, "factorized")


def load_baseline(path: str | os.PathLike) -> PairGaussianModel:
    return _read_model(path, "baseline")


def load_any_model(path: str | os.PathLike) -> FactorizedModel | PairGaussianModel:
    """Load either model family, dispatching on the document's top-level keys."""
    return _read_model(path, "recognized")
