"""The headline numbers of §1/§6.

"Allowing co-location with CAER, as opposed to disallowing co-location,
we are able to increase the utilization of the multicore CPU by 58% on
average.  Meanwhile CAER brings the overhead due to allowing
co-location from 17% down to just 4% on average."
"""

from __future__ import annotations

from conftest import emit

from repro.experiments import headline_numbers
from repro.experiments.headline import headline_band_failures


def bench_headline(benchmark, campaign):
    numbers = benchmark.pedantic(
        headline_numbers, args=(campaign,), rounds=1, iterations=1
    )
    emit(numbers.render())

    failures = headline_band_failures(numbers)
    assert not failures, "; ".join(failures)
