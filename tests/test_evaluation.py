import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from justnow.data import Dataset, JudgmentRecord, generate_synthetic
from justnow.evaluation import (
    AccuracyReport,
    ExtendabilityRow,
    accuracy,
    compare,
    extendability_table,
    format_accuracy_comparison,
    format_accuracy_report,
    format_extendability_table,
)
from justnow.fitting import FitConfig, fit_baseline, fit_factorized
from justnow.model import (
    AdverbialParams,
    Duration,
    EventParams,
    FactorizedModel,
    PairGaussianModel,
    PairParams,
    UnknownIdError,
    composite_probability,
    load_model,
    reference_model,
    save_model,
)


def _record(event_id, adverbial_id, minutes, rating):
    return JudgmentRecord(event_id, adverbial_id, Duration(minutes, "minute"), rating)


# A model of each family over meal/move x just/ages; one pair kernel peaks at -0.0 minutes.
_FAMILIES = (
    FactorizedModel.from_params(
        [EventParams("meal", 300.0), EventParams("move", 200000.0)],
        [AdverbialParams("just", 0.48, 0.05), AdverbialParams("ages", 0.95, 0.2)],
    ),
    PairGaussianModel.from_params(
        [
            PairParams("meal", "just", 0.0, 50.0),
            PairParams("meal", "ages", -0.0, 400.0),
            PairParams("move", "just", 250.0, 100.0),
            PairParams("move", "ages", 1e5, 2e5),
        ]
    ),
)


def _per_vote_accuracy(model, data: Dataset) -> AccuracyReport:
    """accuracy from one predict call per vote, in record order."""
    errors, by_event, by_adverbial = [], {}, {}
    for r in data.records:
        p = model.predict([r.event_id], [r.adverbial_id], [r.elapsed.to_minutes()])[0]
        errors.append(abs(float(p) - r.rating))
        by_event.setdefault(r.event_id, []).append(errors[-1])
        by_adverbial.setdefault(r.adverbial_id, []).append(errors[-1])
    return AccuracyReport(
        per_event={k: math.fsum(v) / len(v) for k, v in by_event.items()},
        per_adverbial={k: math.fsum(v) / len(v) for k, v in by_adverbial.items()},
        overall=math.fsum(errors) / len(errors),
    )


class TestAccuracy:
    def test_perfect_model_scores_zero(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 4, 2, 0.0, seed=0)
        report = accuracy(tiny_truth, data)
        assert report.overall == 0.0
        assert all(v == 0.0 for v in report.per_event.values())
        assert all(v == 0.0 for v in report.per_adverbial.values())

    def test_known_errors(self):
        model = reference_model()
        p = composite_probability(
            Duration(0.0, "minute"),
            model.event("Brushing Teeth"),
            model.adverbial("Just"),
        )
        data = Dataset(
            (
                _record("Brushing Teeth", "Just", 0.0, p - 0.1),
                _record("Brushing Teeth", "Just", 0.0, min(1.0, p + 0.3)),
            )
        )
        # second rating clips at 1.0, adjust the expected error accordingly
        e2 = abs(p - min(1.0, p + 0.3))
        report = accuracy(model, data)
        assert report.overall == pytest.approx((0.1 + e2) / 2.0, abs=1e-12)
        assert report.per_event["Brushing Teeth"] == pytest.approx(report.overall)
        assert report.per_adverbial["Just"] == pytest.approx(report.overall)

    def test_group_keys_cover_dataset(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 3, 2, 0.1, seed=1)
        report = accuracy(tiny_truth, data)
        assert set(report.per_event) == set(tiny_truth.events)
        assert set(report.per_adverbial) == set(tiny_truth.adverbials)
        assert 0.0 <= report.overall <= 1.0

    def test_record_order_invariant(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 4, 3, 0.2, seed=5)
        shuffled = list(data.records)
        random.Random(3).shuffle(shuffled)
        a = accuracy(tiny_truth, data)
        b = accuracy(tiny_truth, Dataset(tuple(shuffled)))
        assert a == b

    @given(
        votes=st.lists(
            st.tuples(
                st.sampled_from(["meal", "move"]),
                st.sampled_from(["just", "ages"]),
                st.sampled_from([0.0, -0.0, 1.0, 250.0, 3e5]),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=40,
        ),
        shuffle=st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_one_predict_per_vote(self, votes, shuffle):
        records = [_record(*vote) for vote in votes]
        cells = {vote[:3] for vote in votes}  # -0.0 and 0.0 minutes are one cell
        for model in _FAMILIES:
            expected = _per_vote_accuracy(model, Dataset(tuple(records)))
            predict, sizes = type(model).predict, []

            def counted(self, event_ids, adverbial_ids, minutes):
                sizes.append(len(minutes))
                return predict(self, event_ids, adverbial_ids, minutes)

            for order in (records, shuffle.sample(records, len(records))):
                sizes.clear()
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(type(model), "predict", counted)
                    assert accuracy(model, Dataset(tuple(order))) == expected
                assert sizes == [len(cells)]

    def test_works_for_baseline_models(self):
        model = PairGaussianModel.from_params([PairParams("e", "a", 100.0, 50.0)])
        data = Dataset((_record("e", "a", 100.0, 0.75),))
        report = accuracy(model, data)
        assert report.overall == pytest.approx(0.25)

    def test_empty_dataset_rejected(self, tiny_truth):
        with pytest.raises(ValueError):
            accuracy(tiny_truth, Dataset(()))

    def test_uncovered_record_rejected(self, tiny_truth):
        # Cells are predicted in sorted-code order, so the error names the first
        # uncovered id in that order, not in record order.
        data = Dataset(
            tuple(_record(e, "just", 1.0, 0.5) for e in ("zeta", "meal", "nope", "zeta"))
        )
        with pytest.raises(UnknownIdError, match="event 'nope' not in model"):
            accuracy(tiny_truth, data)
        baseline = PairGaussianModel.from_params([PairParams("meal", "just", 100.0, 50.0)])
        data = Dataset(tuple(_record("meal", a, 1.0, 0.5) for a in ("zz", "just", "ages")))
        with pytest.raises(UnknownIdError, match=r"pair \('meal', 'ages'\) not in model"):
            accuracy(baseline, data)

    def test_model_round_trip_keeps_accuracy_bit_identical(self, tiny_truth, tmp_path):
        data = generate_synthetic(tiny_truth, 4, 2, 0.1, seed=2)
        path = tmp_path / "m.json"
        save_model(tiny_truth, path)
        assert accuracy(load_model(path), data) == accuracy(tiny_truth, data)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_overall_bounded(self, ratings):
        model = reference_model()
        data = Dataset(
            tuple(_record("Vacation", "Recently", 43800.0, r) for r in ratings)
        )
        report = accuracy(model, data)
        assert 0.0 <= report.overall <= 1.0


class TestExtendabilityTable:
    # growth ladder: functions needed as the vocabulary grows
    LADDER = [
        ((2, 2), (4, 4)),
        ((2, 4), (6, 8)),
        ((2, 8), (10, 16)),
        ((2, 16), (18, 32)),
        ((4, 16), (20, 64)),
        ((8, 16), (24, 128)),
        ((16, 16), (32, 256)),
    ]

    def test_growth_ladder(self):
        events = [e for (e, _), _ in self.LADDER]
        adverbials = [a for (_, a), _ in self.LADDER]
        rows = extendability_table(events, adverbials)
        for row, ((e, a), (fact, base)) in zip(rows, self.LADDER):
            assert row == ExtendabilityRow(e, a, fact, base)

    def test_minimal_vocabulary(self):
        (row,) = extendability_table([1], [1])
        assert (row.factorized_functions, row.baseline_functions) == (2, 1)

    def test_singleton_broadcast(self):
        rows = extendability_table([2], [4, 8, 16])
        assert [r.n_events for r in rows] == [2, 2, 2]
        rows = extendability_table([4, 8], [16])
        assert [r.n_adverbials for r in rows] == [16, 16]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            extendability_table([2, 4], [2, 4, 8])

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            extendability_table([0], [4])
        with pytest.raises(ValueError):
            extendability_table([2], [-1])
        with pytest.raises(ValueError):
            extendability_table([2.0], [4])
        with pytest.raises(ValueError):
            extendability_table([True], [4])
        with pytest.raises(ValueError):
            extendability_table([], [4])

    @given(
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_closed_form(self, events, adverbial):
        rows = extendability_table(events, [adverbial])
        assert len(rows) == len(events)
        for row, e in zip(rows, events):
            assert row.factorized_functions == e + adverbial
            assert row.baseline_functions == e * adverbial


@pytest.fixture(scope="module")
def fitted():
    truth = reference_model()
    data = generate_synthetic(truth, 4, 2, 0.05, seed=8)
    config = FitConfig(multistart_count=4)
    return data, fit_factorized(data, config), fit_baseline(data, config)


class TestCompare:
    def test_document_shape(self, fitted):
        data, fac, base = fitted
        doc = compare(fac.model, base.model, data)
        assert set(doc) == {"factorized", "baseline", "accuracy_difference"}
        assert doc["factorized"]["function_count"] == 10
        assert doc["factorized"]["parameter_count"] == 14
        assert doc["baseline"]["function_count"] == 24
        assert doc["baseline"]["parameter_count"] == 48
        # no winner is declared anywhere
        assert "winner" not in json.dumps(doc).lower()

    def test_difference_is_f_minus_b(self, fitted):
        data, fac, base = fitted
        doc = compare(fac.model, base.model, data)
        f_acc = doc["factorized"]["accuracy"]
        b_acc = doc["baseline"]["accuracy"]
        diff = doc["accuracy_difference"]
        assert diff["overall"] == pytest.approx(f_acc["overall"] - b_acc["overall"])
        for eid, value in diff["per_event"].items():
            assert value == pytest.approx(
                f_acc["per_event"][eid] - b_acc["per_event"][eid]
            )

    def test_identical_datasets_give_zero_self_difference(self, fitted):
        data, fac, _ = fitted
        base_like = fit_baseline(data, FitConfig(multistart_count=2))
        doc_a = compare(fac.model, base_like.model, data)
        doc_b = compare(fac.model, base_like.model, data)
        assert doc_a == doc_b

    def test_model_family_enforced(self, fitted):
        data, fac, base = fitted
        with pytest.raises(ValueError):
            compare(base.model, base.model, data)
        with pytest.raises(ValueError):
            compare(fac.model, fac.model, data)

    def test_json_serializable(self, fitted):
        data, fac, base = fitted
        doc = compare(fac.model, base.model, data)
        assert json.loads(json.dumps(doc)) == doc


class TestFormatting:
    def test_accuracy_report_lists_groups(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 3, 1, 0.0, seed=0)
        text = format_accuracy_report(accuracy(tiny_truth, data), title="Truth")
        for name in ("meal", "move", "just", "ages", "Overall", "Truth"):
            assert name in text

    def test_comparison_table(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 4, 1, 0.0, seed=0)
        config = FitConfig(multistart_count=2)
        doc = compare(fit_factorized(data, config).model, fit_baseline(data, config).model, data)
        text = format_accuracy_comparison(doc)
        assert "Functions" in text and "Parameters" in text
        assert "Factorized" in text and "Non-factorized" in text

    def test_accuracy_report_text(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 3, 4, 0.1, seed=0)
        assert format_accuracy_report(accuracy(tiny_truth, data), title="Truth") == (
            "Truth mean absolute error\n"
            "Type       Name            MAE\n"
            "Event      meal         0.0603\n"
            "Event      move         0.0643\n"
            "Adverbial  ages         0.0510\n"
            "Adverbial  just         0.0736\n"
            "Overall                 0.0623"
        )

    def test_comparison_text(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 3, 4, 0.1, seed=0)
        baseline = PairGaussianModel.from_params([
            PairParams("meal", "just", 10.0, 30.0),
            PairParams("meal", "ages", 3000.0, 2000.0),
            PairParams("move", "just", 5000.0, 20000.0),
            PairParams("move", "ages", 2e6, 1e6),
        ])
        assert format_accuracy_comparison(compare(tiny_truth, baseline, data)) == (
            "Type       Name         Factorized  Non-factorized\n"
            "Event      meal             0.0603          0.3193\n"
            "Event      move             0.0643          0.3266\n"
            "Adverbial  ages             0.0510          0.5571\n"
            "Adverbial  just             0.0736          0.0889\n"
            "Overall                     0.0623          0.3230\n"
            "\n"
            "Functions                        4               4\n"
            "Parameters                       6               8"
        )

    def test_extendability_render(self):
        text = format_extendability_table(extendability_table([2, 16], [4, 16]))
        assert "2" in text and "16" in text and "256" in text
