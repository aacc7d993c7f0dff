"""The benchmark's workloads: pinned spec dicts, seeds and request targets.

Nothing here imports the simulator, so ``run.py`` can read the
workload table without paying the ``import repro`` cost it measures.  The
spec dicts live in ``specs.json`` beside this file.  They were written once
from the registry and are loaded with ``ScenarioSpec.from_dict`` by the child
process; they are never looked up through ``get_scenario`` or
``perf_scenario``, so registry edits cannot change what the benchmark runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

SPECS_PATH = Path(__file__).with_name("specs.json")

#: Workload -> pool workers when the run is a campaign, else ``None``.
#: One run is one ``run_scenario`` call at the workload seed, or one
#: ``CampaignRunner.run`` with the workload seed as campaign seed.
WORKLOADS: Dict[str, Optional[int]] = {
    # The event engine does the work (~96 % of the run in slot.serve).
    "event-single-site": None,
    # 18 small scenarios through a 2-worker pool: set-up and import paid
    # per scenario and per worker instead of amortised.  Its multi-site
    # scenarios (stale-broker, hotspot-spillover, load-chase, ...) are the
    # only runs of the broker and the fault overlay.
    "campaign-registry": 2,
}

#: Largest distance between a result's ``requests_total`` and its spec's
#: ``target_requests``, in standard deviations of a Poisson count with the
#: target as mean (``sqrt(target)`` requests), that still counts as a correct
#: run.  Arrival processes draw the request count: the Poisson-driven
#: registry scenarios (800-1,500 requests) land up to 3.1 deviations (10.9 %)
#: off their target over seeds 1-199, the uniform ones under 1.  Six
#: deviations keep every correct run, while a run that loses half its
#: requests fails at every target of the workloads (at 500 requests, half is
#: 11 deviations).
REQUEST_SIGMAS = 6.0


def request_tolerance(target: int) -> float:
    """Largest ``|requests_total - target|`` a correct run may show."""
    return REQUEST_SIGMAS * math.sqrt(target)


def load_spec_dicts(workload: str) -> List[dict]:
    """The pinned spec dicts of one workload, in run order."""
    with open(SPECS_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def request_targets(workload: str) -> Dict[str, int]:
    """Target request count per scenario name, from the pinned specs."""
    return {
        spec["name"]: int(spec["workload"]["target_requests"])
        for spec in load_spec_dicts(workload)
    }

