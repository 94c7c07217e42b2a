from __future__ import annotations

import numpy as np
import pytest

from wxverify.errors import WxVerifyError
from wxverify.report import (dump_scorecard, flatten_scorecard_csv, na,
                             new_scorecard, validate_scorecard,
                             write_spectrum_csv)
from wxverify.spectra import ZonalSpectrum


def minimal_card():
    return new_scorecard("evaluate", "0" * 64)


class TestSchema:
    def test_minimal_card_validates(self):
        validate_scorecard(minimal_card())

    def test_unknown_section_rejected(self):
        card = minimal_card()
        card["surprise"] = []
        with pytest.raises(WxVerifyError):
            validate_scorecard(card)

    def test_na_is_the_only_string_score(self):
        card = minimal_card()
        card["grid_metrics"] = [{
            "model": "m", "variable": "t2m", "lead_hours": 6,
            "metric": "acc", "value": "n/a", "n_samples": 0}]
        validate_scorecard(card)
        card["grid_metrics"][0]["value"] = "missing"
        with pytest.raises(WxVerifyError):
            validate_scorecard(card)

    def test_dump_is_deterministic(self):
        card = minimal_card()
        card["grid_metrics"] = [{
            "model": "m", "variable": "t2m", "lead_hours": 6,
            "metric": "wrmse", "value": 1.25, "n_samples": 3}]
        assert dump_scorecard(card) == dump_scorecard(dict(card))

    def test_na_helper(self):
        assert na(None) == "n/a"
        assert na(0.5) == 0.5


class TestCsvExports:
    def test_spectrum_csv(self, tmp_path):
        spectrum = ZonalSpectrum(np.array([4.0, 2.0, 1.0]))
        path = write_spectrum_csv(spectrum, tmp_path / "s.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "k,energy"
        assert lines[1] == "0,4.0"
        assert len(lines) == 4

    def test_flatten_sections(self, tmp_path):
        card = minimal_card()
        card["grid_metrics"] = [{
            "model": "m", "variable": "t2m", "lead_hours": 6,
            "metric": "wrmse", "value": 1.25, "n_samples": 3}]
        written = flatten_scorecard_csv(card, tmp_path)
        assert [p.name for p in written] == ["grid_metrics.csv"]
        lines = written[0].read_text().splitlines()
        assert lines[0] == "model,variable,lead_hours,metric,value,n_samples"
        assert lines[1] == "m,t2m,6,wrmse,1.25,3"
