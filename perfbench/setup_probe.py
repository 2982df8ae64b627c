"""Time one cold set-up of a benchmark campaign in a fresh interpreter.

Set-up is what a user pays before the first run: importing ``repro``,
constructing the :class:`~repro.experiments.campaign.Campaign` (which
audits its cache key) and, for ``--jobs`` above 1, starting the warm
worker pool.  Prints one JSON object ``{"setup_s": ..., "host_s": ...}``:
``host_s`` as measured, ``setup_s`` rescaled to the reference host
speed (``speed.py``).

    python3 perfbench/setup_probe.py --jobs 2 --cache-dir DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def stop_resource_tracker() -> None:
    """Stop this interpreter's multiprocessing resource tracker and reap it.

    The warm pool's shared-memory rings start one.  Left alone it exits
    only after this interpreter does, as an orphan nobody waits for, so
    every path out of a benchmark process calls this once its pool is
    shut down.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (ChildProcessError, OSError):
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--length", type=float, default=0.1)
    parser.add_argument("--backend", default="sim")
    parser.add_argument("--cache-dir", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from speed import SpeedProbe

    with SpeedProbe() as probe:
        started = perf_counter()
        import repro  # noqa: F401
        from repro.experiments.campaign import Campaign, CampaignSettings
        from repro.experiments.resilience import RetryPolicy
        from repro.experiments.workerpool import get_pool, shutdown_pool

        settings = CampaignSettings(
            length=args.length, seed=args.seed, backend=args.backend
        )
        Campaign(settings, cache_dir=args.cache_dir, jobs=args.jobs,
                 retry=RetryPolicy())
        try:
            if args.jobs > 1:
                get_pool(args.jobs)
            elapsed = perf_counter() - started
        finally:
            shutdown_pool()
            stop_resource_tracker()
    print(json.dumps({"setup_s": probe.scale(elapsed), "host_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
