"""The paper's headline numbers (§1, §6.2).

"Allowing co-location with CAER, as opposed to disallowing co-location,
we are able to increase the utilization of the multicore CPU by 58% on
average.  Meanwhile CAER brings the overhead due to allowing co-location
from 17% down to just 4% on average."  (4% is rule-based; burst-shutter
achieves 6% with ~60% utilization gained.)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads import benchmark_names
from . import paperdata
from .campaign import Campaign


@dataclass(frozen=True)
class HeadlineNumbers:
    """Measured-vs-paper summary of the whole evaluation."""

    raw_penalty: float
    shutter_penalty: float
    rule_penalty: float
    shutter_utilization: float
    rule_utilization: float

    paper_raw_penalty: float = paperdata.PAPER_MEAN_RAW_PENALTY
    paper_shutter_penalty: float = paperdata.PAPER_MEAN_SHUTTER_PENALTY
    paper_rule_penalty: float = paperdata.PAPER_MEAN_RULE_PENALTY
    paper_shutter_utilization: float = (
        paperdata.PAPER_MEAN_SHUTTER_UTILIZATION
    )
    paper_rule_utilization: float = paperdata.PAPER_MEAN_RULE_UTILIZATION

    def render(self) -> str:
        """Human-readable measured-vs-paper block."""
        lines = [
            "== Headline numbers (mean over the SPEC2006 C/C++ suite) ==",
            f"{'metric':<34} {'measured':>9} {'paper':>7}",
        ]
        rows = [
            ("raw co-location penalty", self.raw_penalty,
             self.paper_raw_penalty),
            ("CAER shutter penalty", self.shutter_penalty,
             self.paper_shutter_penalty),
            ("CAER rule-based penalty", self.rule_penalty,
             self.paper_rule_penalty),
            ("CAER shutter utilization gained", self.shutter_utilization,
             self.paper_shutter_utilization),
            ("CAER rule-based utilization gained", self.rule_utilization,
             self.paper_rule_utilization),
        ]
        for label, measured, paper in rows:
            lines.append(f"{label:<34} {measured:>9.3f} {paper:>7.2f}")
        return "\n".join(lines) + "\n"


def headline_band_failures(numbers: HeadlineNumbers) -> list[str]:
    """The paper's headline bands; one message per band missed.

    The penalty chain must fall 17% -> 6% (shutter) -> 4% (rule), and
    both utilisation gains must sit in the paper's ~0.58-0.60 band.
    Utilisation gained grows with run length, so the bands are not
    tightened at short lengths (docs/paper_mapping.md).
    """
    n = numbers
    bands = [
        (0.08 <= n.raw_penalty <= 0.30,
         f"raw penalty {n.raw_penalty:.3f} outside [0.08, 0.30]"),
        (n.shutter_penalty < n.raw_penalty,
         f"shutter penalty {n.shutter_penalty:.3f} not below raw "
         f"{n.raw_penalty:.3f}"),
        (n.rule_penalty <= n.shutter_penalty + 0.02,
         f"rule penalty {n.rule_penalty:.3f} above shutter "
         f"{n.shutter_penalty:.3f} + 0.02"),
        (n.rule_penalty <= 0.08,
         f"rule penalty {n.rule_penalty:.3f} above 0.08"),
        (0.35 <= n.shutter_utilization <= 0.80,
         f"shutter utilization {n.shutter_utilization:.3f} outside "
         f"[0.35, 0.80]"),
        (0.35 <= n.rule_utilization <= 0.80,
         f"rule utilization {n.rule_utilization:.3f} outside "
         f"[0.35, 0.80]"),
    ]
    return [message for held, message in bands if not held]


def headline_numbers(campaign: Campaign) -> HeadlineNumbers:
    """Compute the suite-mean penalties and utilization gains."""
    rows = list(benchmark_names())
    campaign.prefetch(rows, ("solo", "raw", "shutter", "rule"))
    n = len(rows)

    def mean_penalty(config: str) -> float:
        return sum(campaign.penalty(b, config) for b in rows) / n

    def mean_utilization(config: str) -> float:
        return (
            sum(
                campaign.colocated(b, config).utilization_gained
                for b in rows
            )
            / n
        )

    return HeadlineNumbers(
        raw_penalty=mean_penalty("raw"),
        shutter_penalty=mean_penalty("shutter"),
        rule_penalty=mean_penalty("rule"),
        shutter_utilization=mean_utilization("shutter"),
        rule_utilization=mean_utilization("rule"),
    )
