"""Headline-number aggregation."""

from __future__ import annotations

import pytest

from repro.experiments.headline import (
    HeadlineNumbers,
    headline_band_failures,
    headline_numbers,
)


class TestRendering:
    def test_render_contains_measured_and_paper(self):
        numbers = HeadlineNumbers(
            raw_penalty=0.17,
            shutter_penalty=0.06,
            rule_penalty=0.04,
            shutter_utilization=0.60,
            rule_utilization=0.58,
        )
        text = numbers.render()
        assert "0.170" in text
        assert "0.17" in text
        assert "utilization" in text

    def test_paper_references_attached(self):
        numbers = HeadlineNumbers(0.2, 0.05, 0.03, 0.5, 0.5)
        assert numbers.paper_raw_penalty == pytest.approx(0.17)
        assert numbers.paper_rule_penalty == pytest.approx(0.04)


class TestAggregation:
    def test_means_computed_from_campaign(self):
        from tests.experiments.test_figures import FakeCampaign

        numbers = headline_numbers(FakeCampaign())
        assert numbers.raw_penalty == pytest.approx(0.17, abs=0.02)
        assert numbers.rule_penalty < numbers.shutter_penalty
        assert numbers.shutter_penalty < numbers.raw_penalty
        assert 0.0 < numbers.rule_utilization <= 1.0


class TestBands:
    def test_paper_numbers_are_in_band(self):
        assert headline_band_failures(
            HeadlineNumbers(0.17, 0.06, 0.04, 0.60, 0.58)
        ) == []

    def test_each_band_reports_its_miss(self):
        failures = headline_band_failures(
            HeadlineNumbers(0.35, 0.36, 0.40, 0.30, 0.90)
        )
        assert len(failures) == 6
        assert failures[0].startswith("raw penalty 0.350")
        assert failures[-1].startswith("rule utilization 0.900")

    def test_rule_may_trail_shutter_by_two_points(self):
        assert headline_band_failures(
            HeadlineNumbers(0.17, 0.04, 0.06, 0.60, 0.58)
        ) == []
        assert len(headline_band_failures(
            HeadlineNumbers(0.17, 0.04, 0.061, 0.60, 0.58)
        )) == 1
