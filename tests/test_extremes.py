from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wxverify.extremes import (EventKind, EventSegment, label_event_runs,
                               label_events, match_events, scores_from_counts,
                               temporal_iou)


def seg(start, end, kind=EventKind.HEATWAVE, loc="x"):
    return EventSegment(loc, kind, start, end)


def enumerate_configs(n_days: int, max_segments: int):
    """Every sorted list of disjoint segments (length >= 3) in 1..n_days."""
    configs = [()]

    def extend(start_min, segs):
        for s in range(start_min, n_days - 1):
            for e in range(s + 2, n_days + 1):
                new = segs + ((s, e),)
                configs.append(new)
                if len(new) < max_segments:
                    extend(e + 2, new)

    extend(1, ())
    return configs


class TestEventSegment:
    def test_minimum_duration_enforced(self):
        with pytest.raises(ValueError):
            seg(5, 6)
        assert seg(5, 7).n_days == 3


class TestLabelEvents:
    def mask_events(self, mask, kind=EventKind.HEATWAVE):
        values = np.where(np.asarray(mask, dtype=bool), 1.0, -1.0)
        thresholds = np.zeros(len(mask))
        return label_events(values, thresholds, kind)

    def test_single_run(self):
        segments = self.mask_events([0, 0, 1, 1, 1, 0, 0])
        assert [(s.start_day, s.end_day) for s in segments] == [(3, 5)]

    def test_short_run_rejected(self):
        segments = self.mask_events([0, 1, 1, 0, 1, 1, 1])
        assert [(s.start_day, s.end_day) for s in segments] == [(5, 7)]

    def test_all_exceeding(self):
        segments = self.mask_events([1] * 9)
        assert [(s.start_day, s.end_day) for s in segments] == [(1, 9)]

    def test_cold_uses_strict_less_than(self):
        values = np.array([0.0, -1.0, -1.0, -1.0, 0.0])
        thresholds = np.zeros(5)
        segments = label_events(values, thresholds, EventKind.COLDSURGE)
        assert [(s.start_day, s.end_day) for s in segments] == [(2, 4)]
        # equality is not exceedance on either side
        assert label_events(np.zeros(5), np.zeros(5), EventKind.HEATWAVE) == []
        assert label_events(np.zeros(5), np.zeros(5), EventKind.COLDSURGE) == []

    def test_nan_breaks_runs(self):
        values = np.array([1.0, 1.0, np.nan, 1.0, 1.0, 1.0])
        segments = label_events(values, np.zeros(6), EventKind.HEATWAVE)
        assert [(s.start_day, s.end_day) for s in segments] == [(4, 6)]

    def test_all_masks_of_length_12_match_bruteforce(self):
        thresholds = np.zeros(12)
        for code in range(4096):
            mask = [(code >> b) & 1 for b in range(12)]
            values = np.where(np.asarray(mask, dtype=bool), 1.0, -1.0)
            got = [(s.start_day - 1, s.end_day - 1)
                   for s in label_events(values, thresholds,
                                         EventKind.HEATWAVE)]
            assert got == oracles.label_events_bruteforce(mask), mask


class TestLabelEventRuns:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce_column_by_column(self, data):
        n_days = data.draw(st.integers(0, 14), label="n_days")
        n_loc = data.draw(st.integers(1, 5), label="n_loc")
        size = n_days * n_loc

        def grid(cells):
            drawn = data.draw(st.lists(st.sampled_from(cells), min_size=size,
                                       max_size=size))
            return np.array(drawn, dtype=np.float64).reshape(n_days, n_loc)

        values = grid([-1.0, 0.0, 1.0, np.nan])
        thresholds = grid([-0.5, 0.0, 0.5])
        first_day = data.draw(st.integers(-2, 3), label="first_day")
        for kind in EventKind:
            loc, start, end = label_event_runs(values, thresholds, kind,
                                               first_day)
            expected = []
            for j in range(n_loc):
                # Python comparisons with NaN are False: NaN never exceeds
                mask = [v > t if kind is EventKind.HEATWAVE else v < t
                        for v, t in zip(values[:, j].tolist(),
                                        thresholds[:, j].tolist())]
                expected += [(j, first_day + s, first_day + e)
                             for s, e in oracles.label_events_bruteforce(mask)]
            got = list(zip(loc.tolist(), start.tolist(), end.tolist()))
            assert got == expected, kind

    def test_rejects_misaligned_or_one_dimensional(self):
        with pytest.raises(ValueError):
            label_event_runs(np.zeros(5), np.zeros(5), EventKind.HEATWAVE)
        with pytest.raises(ValueError):
            label_event_runs(np.zeros((5, 2)), np.zeros((5, 3)),
                             EventKind.HEATWAVE)


class TestTemporalIou:
    def test_identical(self):
        assert temporal_iou(seg(4, 6), seg(4, 6)) == 1.0

    def test_shift_by_two(self):
        # 3-day segments shifted by 2: overlap 1, union 5
        assert temporal_iou(seg(1, 3), seg(3, 5)) == pytest.approx(0.2)

    def test_disjoint(self):
        assert temporal_iou(seg(1, 3), seg(7, 9)) == 0.0

    def test_location_mismatch_rejected(self):
        with pytest.raises(ValueError):
            temporal_iou(seg(1, 3, loc="a"), seg(1, 3, loc="b"))


class TestMatchEvents:
    def test_perfect_forecast(self):
        truth = [seg(1, 3), seg(6, 9), seg(12, 15)]
        m = match_events(truth, truth)
        assert (m.tp, m.fp, m.fn) == (3, 0, 0)

    def test_two_predictions_one_truth(self):
        # both halves of the truth reach IoU 0.5; at-most-one rule -> one FP
        truth = [seg(1, 6)]
        pred = [seg(1, 3), seg(4, 6)]
        m = match_events(pred, truth)
        assert (m.tp, m.fp, m.fn) == (1, 1, 0)
        assert m.pairs[0][2] >= 0.5

    def test_low_iou_is_no_match(self):
        truth = [seg(3, 5)]
        pred = [seg(5, 7)]  # IoU 0.2 < 0.5
        m = match_events(pred, truth)
        assert (m.tp, m.fp, m.fn) == (0, 1, 1)

    def test_greedy_gets_augmented_to_maximum_below_half_gamma(self):
        # at gamma < 0.5 the top-IoU pair can block a two-pair matching;
        # the augmenting pass must recover it
        truth = [seg(1, 10), seg(11, 13)]
        pred = [seg(1, 3), seg(4, 13)]
        m = match_events(pred, truth, gamma=0.3)
        assert (m.tp, m.fp, m.fn) == (2, 0, 0)

    def test_empty_sides(self):
        m = match_events([], [])
        assert (m.tp, m.fp, m.fn) == (0, 0, 0)
        m = match_events([seg(1, 3)], [])
        assert (m.tp, m.fp, m.fn) == (0, 1, 0)
        m = match_events([], [seg(1, 3)])
        assert (m.tp, m.fp, m.fn) == (0, 0, 1)

    def test_unsorted_segments_rejected(self):
        with pytest.raises(ValueError):
            match_events([seg(5, 8), seg(1, 3)], [])

    def test_counts_always_consistent(self, rng):
        for _ in range(200):
            n_days = 30
            pred = []
            truth = []
            for out in (pred, truth):
                day = 1
                while day + 2 <= n_days and len(out) < 4:
                    if rng.random() < 0.5:
                        length = int(rng.integers(3, 6))
                        if day + length - 1 > n_days:
                            break
                        out.append(seg(day, day + length - 1))
                        day += length + 1
                    else:
                        day += int(rng.integers(1, 4))
            m = match_events(pred, truth)
            assert m.tp + m.fp == len(pred)
            assert m.tp + m.fn == len(truth)

    @pytest.mark.parametrize("gamma", [0.5, 0.3])
    def test_exhaustive_agreement_range_12(self, gamma):
        """(tp, fp, fn) equals exhaustive optimal matching on a complete
        enumeration of <= 3 disjoint segments per side in 12 days."""
        configs = enumerate_configs(12, 3)
        assert len(configs) == 189
        for pred_cfg in configs:
            pred = [seg(s, e) for s, e in pred_cfg]
            for truth_cfg in configs:
                truth = [seg(s, e) for s, e in truth_cfg]
                m = match_events(pred, truth, gamma=gamma)
                expected = oracles.match_exhaustive(pred_cfg, truth_cfg, gamma)
                assert (m.tp, m.fp, m.fn) == expected, (pred_cfg, truth_cfg)

    def test_duplicated_truth_as_prediction_is_perfect(self, rng):
        truth = [seg(2, 5), seg(9, 12), seg(20, 24)]
        m = match_events(list(truth), truth)
        scores = scores_from_counts(m.tp, m.fp, m.fn)
        assert scores.pod == 1.0 and scores.far == 0.0


class TestCategoricalScores:
    def test_hand_arithmetic(self):
        scores = scores_from_counts(3, 1, 2)
        assert scores.pod == pytest.approx(0.6)
        assert scores.far == pytest.approx(0.25)
        assert scores.csi == pytest.approx(0.5)

    def test_perfect(self):
        scores = scores_from_counts(4, 0, 0)
        assert (scores.pod, scores.far, scores.csi) == (1.0, 0.0, 1.0)

    def test_all_wrong(self):
        scores = scores_from_counts(0, 5, 5)
        assert (scores.pod, scores.far, scores.csi) == (0.0, 1.0, 0.0)

    def test_zero_denominators_are_none_never_zero(self):
        scores = scores_from_counts(0, 0, 0)
        assert scores.pod is None and scores.far is None and scores.csi is None
        partial = scores_from_counts(0, 0, 5)
        assert partial.pod == 0.0 and partial.far is None and partial.csi == 0.0
        m = match_events([], [])
        empty = scores_from_counts(m.tp, m.fp, m.fn)
        assert empty.pod is None and empty.far is None and empty.csi is None

    def test_csi_bounded_by_pod_and_far(self, rng):
        for _ in range(300):
            tp, fp, fn = (int(rng.integers(0, 8)) for _ in range(3))
            scores = scores_from_counts(tp, fp, fn)
            if scores.csi is None or scores.pod is None or scores.far is None:
                continue
            assert scores.csi <= scores.pod + 1e-15
            assert scores.csi <= 1.0 - scores.far + 1e-15
