"""Core model tests.

High-precision reference values were computed with mpmath at 50 decimal
digits and frozen here; the acceptance suite recomputes a subset at runtime.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from justnow.model import (
    REFERENCE_ADVERBIAL_PARAMS,
    REFERENCE_EVENT_SIGMA_MINUTES,
    UNIT_MINUTES,
    AdverbialParams,
    DomainError,
    Duration,
    EventParams,
    FactorizedModel,
    PairGaussianModel,
    PairParams,
    UnknownIdError,
    UnknownUnitError,
    _odd_erf,
    adverbial_applicability,
    baseline_probability,
    best_adverbial,
    composite_probability,
    erf,
    event_precedence,
    load_any_model,
    load_baseline,
    load_model,
    reference_model,
    save_baseline,
    save_model,
)

# mpmath, 50 digits
ERF_HALF = 0.52049987781304653768
ERF_ONE = 0.84270079294971486934
ERF_TWO = 0.99532226501895273416
ERF_THREE = 0.99997790950300141456
PHI_ONE = 0.84134474606854294859
EXP_M0125 = 0.88249690258459540286
EXP_M05 = 0.60653065971263342360
EXP_M45 = 0.011108996538242306496

# composite values for Brushing Teeth (sigma_e = 935) at t = 0
BT_T0 = {
    "Just": 0.88249690258459540286,
    "Recently": 0.85699689143527889280,
    "Some Time Ago": 0.33760706944605470878,
    "Long Time Ago": 0.094142191859523283696,
}

# Vacation (sigma_e = 396579) one month back, Recently kernel
VACATION_X_1MO = 0.54397159909404306701
VACATION_RECENTLY_1MO = 0.57978231909396187925

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-6.0, max_value=6.0
)


class TestErf:
    def test_frozen_values(self):
        assert erf(0.5) == pytest.approx(ERF_HALF, abs=1e-7)
        assert erf(1.0) == pytest.approx(ERF_ONE, abs=1e-7)
        assert erf(2.0) == pytest.approx(ERF_TWO, abs=1e-7)
        assert erf(3.0) == pytest.approx(ERF_THREE, abs=1e-7)

    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_power_series_oracle(self):
        # erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1))
        for x in (0.1, 0.5, 1.0, 1.5):
            total = 0.0
            term_x = x
            for n in range(60):
                total += term_x / (math.factorial(n) * (2 * n + 1))
                term_x *= -x * x
            assert erf(x) == pytest.approx(2.0 / math.sqrt(math.pi) * total, abs=1e-12)

    @given(finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_odd_symmetry_exact(self, x):
        assert erf(-x) == -erf(x)

    @given(finite_floats, finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert -1.0 <= erf(lo) <= erf(hi) <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            erf(bad)


class TestOddErf:
    """The kernel's erf, which also takes the non-finite values that erf rejects."""

    GRID = np.concatenate([np.linspace(0.0, 6.0, 3001), np.logspace(-300, -1, 600)])

    def test_within_one_ulp_of_mpmath(self):
        from mpmath import erf as mp_erf, mp, mpf

        with mp.workdps(50):
            for x, value in zip(self.GRID.tolist(), _odd_erf(self.GRID).tolist()):
                exact = mp_erf(mpf(x))
                assert abs(mpf(value) - exact) <= math.ulp(float(exact)), x

    def test_odd_bit_for_bit_in_any_shape(self):
        grid = self.GRID.reshape(-1, 1)
        assert _odd_erf(-grid).tobytes() == (-_odd_erf(grid)).tobytes()
        assert _odd_erf(grid).shape == grid.shape

    @pytest.mark.parametrize(
        "x, expected", [(0.0, 0.0), (5e-324, 5e-324), (1e300, 1.0), (math.inf, 1.0)]
    )
    def test_edge_values(self, x, expected):
        for sign in (1.0, -1.0):
            value = _odd_erf(sign * x)
            assert value == sign * expected and math.copysign(1.0, value) == sign

    def test_nan(self):
        assert math.isnan(_odd_erf(math.nan))


class TestEventPrecedence:
    def test_zero_is_half(self):
        assert event_precedence(0.0, EventParams("e", 935.0)) == 0.5

    def test_one_sigma(self):
        p = event_precedence(935.0, EventParams("e", 935.0))
        assert p == pytest.approx(PHI_ONE, abs=1e-6)

    def test_negative_symmetry(self):
        ev = EventParams("e", 123.0)
        for t in (1.0, 50.0, 123.0, 400.0):
            assert event_precedence(-t, ev) == pytest.approx(
                1.0 - event_precedence(t, ev), abs=1e-15
            )

    def test_saturates(self):
        ev = EventParams("e", 10.0)
        assert event_precedence(1e9, ev) == 1.0
        assert event_precedence(-1e9, ev) == 0.0

    @given(
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=-3.0, max_value=6.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, a, b, log_sigma):
        sigma = 10.0**log_sigma
        lo, hi = sorted((a * sigma, b * sigma))
        if hi - lo < 1e-9 * sigma:
            return
        ev = EventParams("e", sigma)
        assert event_precedence(lo, ev) < event_precedence(hi, ev)

    def test_rejects_non_finite_time(self):
        with pytest.raises(DomainError, match=r"^elapsed time must be finite, got nan$"):
            event_precedence(np.float64(math.nan), EventParams("e", 1.0))


class TestAdverbialApplicability:
    def test_peak_is_exactly_one(self):
        adv = AdverbialParams("a", 0.48, 0.04)
        assert adverbial_applicability(0.48, adv) == 1.0

    def test_off_peak_below_one(self):
        adv = AdverbialParams("a", 0.48, 0.04)
        assert adverbial_applicability(0.48 + 1e-6, adv) < 1.0

    def test_one_sigma_value(self):
        adv = AdverbialParams("a", 0.5, 0.1)
        assert adverbial_applicability(0.6, adv) == pytest.approx(EXP_M05, abs=1e-4)

    def test_half_sigma_value(self):
        adv = AdverbialParams("a", 0.5, 0.2)
        assert adverbial_applicability(0.6, adv) == pytest.approx(EXP_M0125, abs=1e-4)

    def test_three_sigma_value(self):
        adv = AdverbialParams("a", 0.5, 0.1)
        assert adverbial_applicability(0.8, adv) == pytest.approx(EXP_M45, abs=1e-4)

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_about_peak(self, mu, sigma, d):
        adv = AdverbialParams("a", mu, sigma)
        left = adverbial_applicability(mu - d, adv)
        right = adverbial_applicability(mu + d, adv)
        assert abs(left - right) <= 1e-12
        assert 0.0 <= left <= 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError, match=r"^precedence value must be finite, got inf$"):
            adverbial_applicability(np.float64(math.inf), AdverbialParams("a", 0.5, 0.1))


class TestCompositeProbability:
    @pytest.mark.parametrize("adv_id,expected", sorted(BT_T0.items()))
    def test_brushing_teeth_now(self, adv_id, expected):
        model = reference_model()
        p = composite_probability(
            Duration(0.0, "minute"), model.event("Brushing Teeth"), model.adverbial(adv_id)
        )
        assert p == pytest.approx(expected, abs=1e-4)

    def test_vacation_one_month_recently(self):
        model = reference_model()
        p = composite_probability(
            Duration(1.0, "month"), model.event("Vacation"), model.adverbial("Recently")
        )
        assert p == pytest.approx(VACATION_RECENTLY_1MO, abs=1e-6)

    def test_distant_past_long_time_ago_saturates(self):
        model = reference_model()
        p = composite_probability(
            Duration(1e9, "minute"),
            model.event("Marriage"),
            model.adverbial("Long Time Ago"),
        )
        assert p == pytest.approx(1.0, abs=1e-6)

    def test_peak_exactness_when_precedence_hits_mu(self):
        # sigma_a-independent: kernel is exactly 1 wherever x == mu_a
        ev = EventParams("e", 100.0)
        t = 0.0
        adv = AdverbialParams("a", event_precedence(t, ev), 0.07)
        assert composite_probability(Duration(t, "minute"), ev, adv) == 1.0

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=1.0, max_value=1.5),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_when_mu_at_or_above_one(self, t1, t2, mu, sigma_a):
        ev = EventParams("e", 5000.0)
        adv = AdverbialParams("a", mu, sigma_a)
        lo, hi = sorted((t1, t2))
        p_lo = composite_probability(Duration(lo, "minute"), ev, adv)
        p_hi = composite_probability(Duration(hi, "minute"), ev, adv)
        assert p_hi >= p_lo - 1e-15

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=0.49),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_antitone_when_mu_below_half(self, t1, t2, mu, sigma_a):
        ev = EventParams("e", 5000.0)
        adv = AdverbialParams("a", mu, sigma_a)
        lo, hi = sorted((t1, t2))
        p_lo = composite_probability(Duration(lo, "minute"), ev, adv)
        p_hi = composite_probability(Duration(hi, "minute"), ev, adv)
        assert p_hi <= p_lo + 1e-15


class TestBaselineProbability:
    def test_peak(self):
        pair = PairParams("e", "a", 5000.0, 2000.0)
        assert baseline_probability(Duration(5000.0, "minute"), pair) == 1.0

    def test_one_sigma(self):
        pair = PairParams("e", "a", 5000.0, 2000.0)
        p = baseline_probability(Duration(7000.0, "minute"), pair)
        assert p == pytest.approx(EXP_M05, abs=1e-4)

    def test_three_sigma(self):
        pair = PairParams("e", "a", 5000.0, 2000.0)
        p = baseline_probability(Duration(11000.0, "minute"), pair)
        assert p == pytest.approx(EXP_M45, abs=1e-4)

    def test_unit_conversion(self):
        pair = PairParams("e", "a", 1440.0, 100.0)
        assert baseline_probability(Duration(1.0, "day"), pair) == 1.0


class TestBestAdverbial:
    def test_brushing_teeth_now_is_just(self):
        model = reference_model()
        ev = model.event("Brushing Teeth")
        adv_id, p = best_adverbial(Duration(0.0, "minute"), ev, model)
        assert adv_id == "Just"
        assert p == pytest.approx(BT_T0["Just"], abs=1e-4)

    def test_marriage_distant_past_is_long_time_ago(self):
        model = reference_model()
        ev = model.event("Marriage")
        adv_id, p = best_adverbial(Duration(30.0, "year"), ev, model)
        assert adv_id == "Long Time Ago"
        assert p == pytest.approx(1.0, abs=1e-3)

    def test_singleton(self):
        model = FactorizedModel.from_params(
            [EventParams("e", 100.0)], [AdverbialParams("only", 0.5, 0.1)]
        )
        adv_id, _ = best_adverbial(Duration(3.0, "hour"), model.event("e"), model)
        assert adv_id == "only"

    def test_tie_breaks_lexicographically(self):
        model = FactorizedModel.from_params(
            [EventParams("e", 100.0)],
            [AdverbialParams("zeta", 0.5, 0.1), AdverbialParams("alpha", 0.5, 0.1)],
        )
        adv_id, _ = best_adverbial(Duration(0.0, "minute"), model.event("e"), model)
        assert adv_id == "alpha"

    def test_matches_exhaustive_argmax(self):
        model = reference_model()
        for t in (Duration(5.0, "minute"), Duration(2.0, "day"), Duration(3.0, "year")):
            for ev_id in model.events:
                probs = {
                    a: model.probability(ev_id, a, t) for a in model.adverbials
                }
                want = min(sorted(probs), key=lambda a: (-probs[a], a))
                got_id, got_p = best_adverbial(t, model.event(ev_id), model)
                assert got_id == want
                assert got_p == probs[want]

    def test_unknown_event(self):
        with pytest.raises(UnknownIdError):
            best_adverbial(Duration(1.0, "day"), EventParams("nope", 1.0), reference_model())

    def test_no_adverbials(self):
        model = FactorizedModel.from_params([EventParams("e", 1.0)], [])
        with pytest.raises(UnknownIdError, match="model has no adverbials"):
            best_adverbial(Duration(1.0, "day"), model.event("e"), model)


elapsed_minutes = st.one_of(
    st.sampled_from([0.0, 1e9]), st.floats(min_value=0.0, max_value=1e9)
)
sigma_e_minutes = st.floats(min_value=1e-3, max_value=1e8)
kernel_mu = st.floats(min_value=-1.0, max_value=2.0)
kernel_sigma = st.floats(min_value=1e-3, max_value=10.0)


class TestOneKernel:
    """The scalar functions and both families' predict evaluate one kernel."""

    @given(
        st.lists(elapsed_minutes, min_size=1, max_size=20),
        sigma_e_minutes,
        kernel_mu,
        kernel_sigma,
    )
    @settings(max_examples=200, deadline=None)
    def test_scalar_equals_predict_bit_for_bit(self, minutes, sigma_e, mu_a, sigma_a):
        ev, adv = EventParams("e", sigma_e), AdverbialParams("a", mu_a, sigma_a)
        pair = PairParams("e", "a", mu_a * sigma_e, sigma_a * sigma_e)
        factorized = FactorizedModel.from_params([ev], [adv]).predict(["e"], ["a"], minutes)
        baseline = PairGaussianModel.from_params([pair]).predict(["e"], ["a"], minutes)
        for t, p_f, p_b in zip(minutes, factorized.tolist(), baseline.tolist()):
            elapsed = Duration(t, "minute")
            assert composite_probability(elapsed, ev, adv).hex() == p_f.hex()
            assert baseline_probability(elapsed, pair).hex() == p_b.hex()

    @given(
        elapsed_minutes,
        sigma_e_minutes,
        st.lists(st.tuples(kernel_mu, kernel_sigma), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["a", "z"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_best_adverbial_is_scalar_argmax(self, t, sigma_e, kernels, twin, twin_id):
        # twin_id copies one kernel's parameters, so that kernel always has a tie
        # with an id sorting before ("a") or after ("z") the "k<j>" ids.
        adverbials = [AdverbialParams(f"k{j}", mu, sigma) for j, (mu, sigma) in enumerate(kernels)]
        copied = adverbials[twin % len(adverbials)]
        adverbials.append(AdverbialParams(twin_id, copied.mu_a, copied.sigma_a))
        ev = EventParams("e", sigma_e)
        model = FactorizedModel.from_params([ev], adverbials)
        elapsed = Duration(t, "minute")
        ids = sorted(model.adverbials)
        probs = [composite_probability(elapsed, ev, model.adverbials[a]) for a in ids]
        best = max(range(len(ids)), key=probs.__getitem__)  # max keeps the first maximum
        got_id, got_p = best_adverbial(elapsed, ev, model)
        assert got_id == ids[best]
        assert got_p.hex() == probs[best].hex()


class TestDuration:
    @pytest.mark.parametrize(
        "unit,minutes",
        [
            ("minute", 1.0),
            ("hour", 60.0),
            ("day", 1440.0),
            ("week", 10080.0),
            ("month", 43800.0),
            ("year", 525600.0),
        ],
    )
    def test_unit_table(self, unit, minutes):
        assert UNIT_MINUTES[unit] == minutes
        assert Duration(1.0, unit).to_minutes() == minutes
        assert Duration(2.5, unit).to_minutes() == 2.5 * minutes

    def test_parse_accepts_plural(self):
        assert Duration.parse("3 weeks") == Duration(3.0, "week")
        assert Duration.parse("0.5 hour") == Duration(0.5, "hour")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Duration.parse("3")
        with pytest.raises(ValueError):
            Duration.parse("x day")

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnitError):
            Duration(1.0, "fortnight")

    def test_negative_value(self):
        with pytest.raises(DomainError):
            Duration(-1.0, "day")

    def test_non_finite_value(self):
        with pytest.raises(DomainError):
            Duration(math.inf, "day")

    def test_value_infinite_in_minutes(self):
        with pytest.raises(DomainError, match="finite in minutes"):
            Duration(1e308, "year")
        assert Duration(1e308, "minute").to_minutes() == 1e308


class TestParamValidation:
    def test_event_sigma_must_be_positive(self):
        for bad in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                EventParams("e", bad)

    def test_adverbial_sigma_must_be_positive(self):
        for bad in (0.0, -0.1, math.nan):
            with pytest.raises(DomainError):
                AdverbialParams("a", 0.5, bad)

    def test_adverbial_mu_must_be_finite(self):
        with pytest.raises(DomainError):
            AdverbialParams("a", math.nan, 0.1)

    def test_pair_params(self):
        with pytest.raises(DomainError):
            PairParams("e", "a", 100.0, 0.0)
        with pytest.raises(DomainError):
            PairParams("e", "a", math.inf, 1.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: EventParams("e", 0.0), "sigma_e must be finite and > 0, got 0.0"),
            (lambda: AdverbialParams("a", math.nan, 0.1), "mu_a must be finite, got nan"),
            (lambda: AdverbialParams("a", 0.5, -1), "sigma_a must be finite and > 0, got -1"),
            (lambda: PairParams("e", "a", -math.inf, 1.0), "mu_minutes must be finite, got -inf"),
            (
                lambda: PairParams("e", "a", 1.0, math.nan),
                "sigma_minutes must be finite and > 0, got nan",
            ),
        ],
    )
    def test_messages_name_the_field_and_value(self, build, message):
        with pytest.raises(DomainError) as info:
            build()
        assert str(info.value) == message


class TestFactorizedModel:
    def test_reference_counts(self):
        model = reference_model()
        assert model.function_count == 10
        assert model.parameter_count == 14

    def test_minimal_counts(self):
        model = FactorizedModel.from_params(
            [EventParams("e", 1.0)], [AdverbialParams("a", 0.5, 0.1)]
        )
        assert model.function_count == 2
        assert model.parameter_count == 3

    def test_reference_values(self):
        model = reference_model()
        assert model.event("Brushing Teeth").sigma_e == 935.0
        assert model.event("Marriage").sigma_e == 2334869.0
        adv = model.adverbial("Just")
        assert (adv.mu_a, adv.sigma_a) == (0.48, 0.04)
        assert set(model.events) == set(REFERENCE_EVENT_SIGMA_MINUTES)
        assert set(model.adverbials) == set(REFERENCE_ADVERBIAL_PARAMS)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate event id 'e'$"):
            FactorizedModel.from_params(
                [EventParams("e", 1.0), EventParams("e", 2.0)],
                [AdverbialParams("a", 0.5, 0.1)],
            )
        with pytest.raises(ValueError, match=r"^duplicate adverbial id 'a'$"):
            FactorizedModel.from_params(
                [EventParams("e", 1.0)],
                [AdverbialParams("a", 0.5, 0.1), AdverbialParams("a", 0.6, 0.2)],
            )

    def test_key_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match="event key 'x' does not match id 'e'"):
            FactorizedModel(
                events={"x": EventParams("e", 1.0)},
                adverbials={"a": AdverbialParams("a", 0.5, 0.1)},
            )
        with pytest.raises(ValueError, match="adverbial key 'x' does not match id 'a'"):
            FactorizedModel(
                events={"e": EventParams("e", 1.0)},
                adverbials={"x": AdverbialParams("a", 0.5, 0.1)},
            )

    def test_unknown_lookups(self):
        model = reference_model()
        with pytest.raises(UnknownIdError):
            model.event("nope")
        with pytest.raises(UnknownIdError):
            model.adverbial("nope")
        with pytest.raises(UnknownIdError):
            model.probability("nope", "Just", Duration(1.0, "day"))

    def test_probability_matches_free_function(self):
        model = reference_model()
        t = Duration(2.0, "week")
        assert model.probability("Vacation", "Recently", t) == composite_probability(
            t, model.event("Vacation"), model.adverbial("Recently")
        )


class TestPairGaussianModel:
    def _model(self):
        pairs = [
            PairParams("e1", "a1", 100.0, 50.0),
            PairParams("e1", "a2", 900.0, 400.0),
            PairParams("e2", "a1", 10.0, 5.0),
        ]
        return PairGaussianModel.from_params(pairs)

    def test_counts(self):
        model = self._model()
        assert model.function_count == 3
        assert model.parameter_count == 6

    def test_probability(self):
        model = self._model()
        assert model.probability("e1", "a1", Duration(100.0, "minute")) == 1.0
        p = model.probability("e1", "a1", Duration(150.0, "minute"))
        assert p == pytest.approx(EXP_M05, abs=1e-4)

    def test_unknown_pair(self):
        with pytest.raises(UnknownIdError):
            self._model().probability("e2", "a2", Duration(1.0, "day"))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate pair \('e', 'a'\)$"):
            PairGaussianModel.from_params(
                [PairParams("e", "a", 1.0, 1.0), PairParams("e", "a", 2.0, 1.0)]
            )

    def test_key_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"pair key \('e', 'x'\) does not match ids"):
            PairGaussianModel({("e", "x"): PairParams("e", "a", 1.0, 1.0)})


class TestSerialization:
    def test_factorized_round_trip(self, tmp_path):
        model = reference_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_baseline_round_trip(self, tmp_path):
        pairs = [PairParams("e", "a", 123.456, 7.89), PairParams("e", "b", 1.0, 2.0)]
        model = PairGaussianModel.from_params(pairs)
        path = tmp_path / "baseline.json"
        save_baseline(model, path)
        assert load_baseline(path) == model

    def test_save_model_writes_baselines(self, tmp_path):
        model = PairGaussianModel.from_params([PairParams("e", "a", 123.456, 7.89)])
        path = tmp_path / "baseline.json"
        save_model(model, path)
        assert load_baseline(path) == model
        assert load_any_model(path) == model
        assert path.read_text() == json.dumps(model.to_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("loader", [load_model, load_baseline, load_any_model])
    def test_document_with_both_families_rejected(self, tmp_path, loader):
        doc = reference_model().to_dict()
        doc.update(PairGaussianModel.from_params([PairParams("e", "a", 1.0, 2.0)]).to_dict())
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="has both factorized and baseline"):
            loader(path)

    def test_load_any_model_dispatch(self, tmp_path):
        fac = reference_model()
        base = PairGaussianModel.from_params([PairParams("e", "a", 1.0, 2.0)])
        fp, bp = tmp_path / "f.json", tmp_path / "b.json"
        save_model(fac, fp)
        save_baseline(base, bp)
        assert load_any_model(fp) == fac
        assert load_any_model(bp) == base

    def test_loader_ignores_extra_keys(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(reference_model(), path)
        doc = json.loads(path.read_text())
        doc["final_cost"] = 1.5
        doc["notes"] = {"anything": True}
        path.write_text(json.dumps(doc))
        assert load_model(path) == reference_model()

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"events": []},
            {"events": [], "adverbials": "nope"},
            {"events": [{"id": "e"}], "adverbials": []},
            {"events": [{"id": "e", "sigma_e": 1.0}], "adverbials": [{"id": "a"}]},
        ],
    )
    def test_malformed_documents_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("doc", [{"pairs": [{"event": "e"}]}, {"pairs": [7]}])
    def test_malformed_baseline_documents_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed baseline model document"):
            load_baseline(path)

    def test_reference_file_matches_builtin(self, repo_root):
        # reference_model.json is generated by scripts/write_reference_model.py
        assert load_model(repo_root / "reference_model.json") == reference_model()

    def test_to_dict_sorted_ids(self):
        doc = reference_model().to_dict()
        ev_ids = [row["id"] for row in doc["events"]]
        adv_ids = [row["id"] for row in doc["adverbials"]]
        assert ev_ids == sorted(ev_ids)
        assert adv_ids == sorted(adv_ids)
