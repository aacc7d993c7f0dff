"""One benchmark run in a fresh interpreter; prints one JSON line.

Usage: ``python3 child.py MODE WORKLOAD SEED`` with ``PYTHONPATH`` pointing
at the simulator's ``src``.  The child reports ``setup_end``, its
``time.monotonic()`` once ``import repro`` and the pinned specs are loaded;
the parent (``run.py``) reads the same system-wide clock just before it
launches the child, so the difference is the set-up time across the two
processes.

Modes:

``warmup``
    Import once (fills the bytecode cache), check that editing a registry
    scenario in memory leaves the pinned specs unchanged, report versions.
``setup``
    Import and load the specs only.
``run`` / ``serial``
    Run the workload untraced (``serial`` runs a campaign with one worker).
``trace``
    Run the workload with every layer wrapped (a campaign runs in-process
    with one worker, because wrappers do not reach pool workers).

The module body imports nothing heavy: pool workers re-import it.
"""

from __future__ import annotations

import json
import sys
import time


def _stop_forkserver() -> None:
    """Stop and reap the campaign pool's forkserver (it outlives the pool)."""
    from multiprocessing import forkserver

    server = getattr(forkserver, "_forkserver", None)
    if server is not None and hasattr(server, "_stop"):
        server._stop()


def _peak_rss_kb() -> int:
    import resource

    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _digest(results) -> str:
    """SHA-256 over every field of every ``ScenarioResult``, in run order."""
    import dataclasses
    import hashlib

    payload = json.dumps([dataclasses.asdict(r) for r in results], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _summary(result) -> dict:
    """The fields the parent judges (ledger, request target) and prints."""
    return {
        "name": result.name,
        "requests_total": result.requests_total,
        "requests_succeeded": result.requests_succeeded,
        "requests_dropped": result.requests_dropped,
        "requests_unrouted": result.requests_unrouted,
        "p99_response_ms": result.p99_response_ms,
        "allocation_cost_usd": result.allocation_cost_usd,
        "scaling_actions": result.scaling_actions,
    }


def _check_pinned(workload: str, specs) -> None:
    """Editing the registry in memory must not reach the pinned specs."""
    from repro import ScenarioSpec
    from repro.scenarios import registry
    from workloads import load_spec_dicts

    name = "stale-broker"
    original = registry.get_scenario(name)
    registry.register_scenario(
        original.with_overrides(users=original.users + 7), overwrite=True
    )
    try:
        if registry.get_scenario(name) == original:
            raise RuntimeError("registry edit did not take effect")
        reloaded = [ScenarioSpec.from_dict(d) for d in load_spec_dicts(workload)]
    finally:
        registry.register_scenario(original, overwrite=True)
    if reloaded != specs:
        raise RuntimeError("pinned specs changed after a registry edit")


def _execute(specs, seed: int, workers):
    """One timed pass over the workload; returns (results, host seconds)."""
    import repro

    started = time.perf_counter()
    if workers is not None:
        results = list(repro.CampaignRunner(workers=workers, seed=seed).run(specs).results)
    else:
        results = [repro.run_scenario(specs[0], seed=seed)]
    return results, time.perf_counter() - started


def main(argv) -> None:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    import repro
    from workloads import WORKLOADS, load_spec_dicts

    specs = [repro.ScenarioSpec.from_dict(d) for d in load_spec_dicts(workload)]
    out = {"setup_end": time.monotonic()}
    if mode == "warmup":
        import numpy
        import scipy

        _check_pinned(workload, specs)
        out.update(numpy=numpy.__version__, scipy=scipy.__version__)
    elif mode != "setup":
        workers = WORKLOADS[workload]
        if workers is not None and mode != "run":
            workers = 1
        if mode == "trace":
            from layers import LayerTracer

            tracer = LayerTracer()
            tracer.install()
            try:
                results, wall_s = _execute(specs, seed, workers)
            finally:
                tracer.restore()
            out["layers"] = tracer.report()
            out["leaks"] = tracer.leaks()
        else:
            results, wall_s = _execute(specs, seed, workers)
        if workers is not None:
            _stop_forkserver()
        out.update(
            wall_s=wall_s,
            digest=_digest(results),
            results=[_summary(r) for r in results],
            peak_rss_kb=_peak_rss_kb(),
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
