"""The simulator benchmark: one command, one workload, every metric by name.

Run from the repository root::

    python3 simbench/run.py --workload campaign-registry --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics: simulated requests per host
second, set-up time of a fresh interpreter and peak RSS.  ``--trace 1``
prints the per-layer metrics from runs with every layer wrapped from outside
(see ``layers.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--steadiness`` runs, workload by workload, two interleaved sets of untraced
runs of the same code over the same ten seeds and prints, per workload and
metric, each set's median, quartiles and spread, the gap between the sets and
the bound from ``BENCHMARK.json`` that both are held to.

Load shape: a closed loop with one caller.  This script starts one fresh
interpreter per run (``child.py``), one at a time, with single-threaded BLAS;
the only other processes are the campaign's own 2-worker pool.  Every run is
judged (``judge.py``); a run that fails any check counts as failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from judge import Outcome, judge_runs, report_failures, selfcheck  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS, request_targets  # noqa: E402

CHILD = BENCH_DIR / "child.py"
#: No child of a healthy run comes near this; a hung one is killed here.
CHILD_TIMEOUT_S = 60.0
#: No new child starts after this much of a run; keeps a run under 180 s.
RUN_LIMIT_S = 100.0
#: Untraced runs per benchmark run, at least; more while time remains.
MIN_RUNS = 3
#: Traced rounds (untraced + traced child) per benchmark run, at least.
MIN_TRACE_ROUNDS = 2
#: Set-up samples per benchmark run: set-up time inherits the ~15 %
#: per-interpreter spread of importing scipy, so its median needs more
#: samples than the timed runs give; set-up-only children make up the rest.
SETUP_SAMPLES = 15
#: Seeds per set in ``--steadiness``: ten, as in the acceptance runs.
STEADINESS_SEEDS = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TMP_NAME = ".simbench-tmp"
#: Layers each workload was chosen to load; the trace says whether their
#: combined share beats every other layer.
PREDICTED_LAYERS = {
    "event-single-site": ("engine",),
    "campaign-registry": ("import", "runner.setup"),
}


def _quartiles(values: List[float]) -> "tuple[float, float, float]":
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# -- child processes -----------------------------------------------------------


def _become_subreaper() -> None:
    """Adopt orphaned grandchildren so they can be reaped here (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _end_group(pgid: int) -> None:
    """Wait for every process of a child's group to end; kill stragglers."""
    deadline = time.monotonic() + 5.0
    while _group_alive(pgid):
        _reap_orphans()
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
        time.sleep(0.01)
    _reap_orphans()


def launch(
    args: List[str], env: Dict[str, str], timeout: float, kind: str, cwd: Optional[Path] = None
) -> Outcome:
    """Run one child in its own process group; parse its last stdout line."""
    start = time.monotonic()
    proc = subprocess.Popen(
        args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=cwd,
        text=True,
        start_new_session=True,
    )
    timed_out = False
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    _end_group(proc.pid)
    payload = None
    lines = out.strip().splitlines()
    if lines:
        try:
            payload = json.loads(lines[-1])
        except json.JSONDecodeError:
            payload = None
    return Outcome(
        kind=kind,
        start=start,
        returncode=proc.returncode,
        timed_out=timed_out,
        payload=payload if isinstance(payload, dict) else None,
        stderr_tail=err.strip()[-400:],
    )


def child_env(root: Path) -> Dict[str, str]:
    """Environment of every child; children run in ``root / TMP_NAME``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    # Random hash seeds make the digest check a hash-seed independence check.
    env.pop("PYTHONHASHSEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # Temporary files stay in the checkout.  The campaign's forkserver binds
    # a Unix socket (path limit ~107 bytes) under the temp dir, so the temp
    # dir is the children's working directory, named relatively: the socket
    # path stays short however deep the checkout lies.
    (root / TMP_NAME).mkdir(exist_ok=True)
    env["TMPDIR"] = os.curdir
    return env


def run_child(mode: str, workload: str, seed: int, env) -> Outcome:
    return launch(
        [sys.executable, str(CHILD), mode, workload, str(seed)],
        env,
        CHILD_TIMEOUT_S,
        mode,
        cwd=Path.cwd() / TMP_NAME,
    )


# -- host fingerprint ------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def import_times(env) -> Dict[str, float]:
    """``import repro`` split by ``-X importtime`` (seconds)."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=env,
        cwd=Path.cwd() / TMP_NAME,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"import repro failed: {done.stderr.strip()[-400:]}")
    total_us = scipy_us = numpy_us = 0
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        top = name.split(".")[0]
        if name == "repro":
            total_us = int(cumulative_us)
        if top == "scipy":
            scipy_us += int(self_us)
        elif top == "numpy":
            numpy_us += int(self_us)
    return {
        "import.total_s": total_us / 1e6,
        "import.scipy_s": scipy_us / 1e6,
        "import.numpy_s": numpy_us / 1e6,
    }


def median_import_times(env, probes: int) -> Dict[str, float]:
    samples = [import_times(env) for _ in range(probes)]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# -- one benchmark run -------------------------------------------------------------


def _print_outputs(outcome: Outcome) -> None:
    results = outcome.payload["results"]
    requests = sum(r["requests_total"] for r in results)
    dropped = sum(r["requests_dropped"] for r in results)
    print(
        f"outputs (not gated): results={len(results)} requests={requests} "
        f"drop_rate={dropped / requests:.6f} "
        f"p99_response_ms_max={max(r['p99_response_ms'] for r in results):.3f} "
        f"allocation_cost_usd={sum(r['allocation_cost_usd'] for r in results):.4f} "
        f"scaling_actions={sum(r['scaling_actions'] for r in results)} "
        f"digest={outcome.payload['digest'][:16]}"
    )


def _requests(outcome: Outcome) -> int:
    return sum(r["requests_total"] for r in outcome.payload["results"])


def _rate(outcome: Outcome) -> float:
    return _requests(outcome) / outcome.payload["wall_s"]


def _window_full(count: int, minimum: int, elapsed: float, seconds: float) -> bool:
    """Whether to stop launching: one more of ``count`` children (or rounds)
    of average length would end after ``seconds``."""
    if elapsed >= RUN_LIMIT_S:
        return True
    return count >= minimum and elapsed * (count + 1) / count > seconds


def _summarise(name: str, values: List[float], unit: str) -> None:
    q1, median, q3 = _quartiles(values)
    print(f"{name}: median={median:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)} ({unit})")


def measure(workload: str, seed: int, seconds: float, env) -> "tuple[List[Outcome], Dict[str, float]]":
    """Untraced runs for ``seconds``, then set-up probes; end-to-end metrics."""
    started = time.monotonic()
    runs: List[Outcome] = []
    while True:
        runs.append(run_child("run", workload, seed, env))
        if _window_full(len(runs), MIN_RUNS, time.monotonic() - started, seconds):
            break
    probes: List[Outcome] = []
    while len(runs) + len(probes) < SETUP_SAMPLES and time.monotonic() - started < RUN_LIMIT_S:
        probes.append(run_child("setup", workload, seed, env))
    outcomes = runs + probes
    judge_runs(outcomes, request_targets(workload))
    good = [o for o in outcomes if o.ok]
    good_runs = [o for o in good if o.kind == "run"]
    metrics: Dict[str, float] = {}
    if good_runs:
        rates = [_rate(o) for o in good_runs]
        # Requests over host seconds across all timed calls of the run: the
        # host switches speed for stretches of tens of seconds, and the
        # whole window's average mixes those stretches where a median of the
        # calls would pick one of them.
        metrics["requests_per_s"] = sum(_requests(o) for o in good_runs) / sum(
            o.payload["wall_s"] for o in good_runs
        )
        metrics["peak_rss_mb"] = statistics.median(
            o.payload["peak_rss_kb"] / 1024.0 for o in good_runs
        )
        _print_outputs(good_runs[0])
        _summarise("requests_per_s", rates, "1/s")
    setups = [o.payload["setup_end"] - o.start for o in good]
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        _summarise("setup_s", setups, "s")
    return outcomes, metrics


def measure_trace(
    workload: str, seed: int, seconds: float, env, imports: Dict[str, float]
) -> "tuple[List[Outcome], Dict[str, float]]":
    """Alternating untraced and traced runs; per-layer metrics."""
    campaign = WORKLOADS[workload] is not None
    # The traced campaign runs in-process with one worker, so its overhead
    # base is the serial untraced run; the pooled run gives campaign.pool_s.
    modes = ["run", "serial", "trace"] if campaign else ["run", "trace"]
    started = time.monotonic()
    outcomes: List[Outcome] = []
    rounds = 0
    while True:
        outcomes.extend(run_child(mode, workload, seed, env) for mode in modes)
        rounds += 1
        if _window_full(rounds, MIN_TRACE_ROUNDS, time.monotonic() - started, seconds):
            break
    judge_runs(outcomes, request_targets(workload))
    good = {mode: [o for o in outcomes if o.ok and o.kind == mode] for mode in modes}
    if not all(good.values()):
        return outcomes, {}
    walls = {mode: statistics.median(o.payload["wall_s"] for o in good[mode]) for mode in modes}
    traced = sorted(good["trace"], key=lambda o: o.payload["wall_s"])[(len(good["trace"]) - 1) // 2]
    layers = dict(traced.payload["layers"])
    gaps = layers.pop("crosscheck")
    lower_bounds = layers.pop("crosscheck_lower_bounds")
    metrics = dict(imports)
    metrics.update(layers)
    total = metrics["import.total_s"] + sum(metrics[m] for m in LAYERS.values())
    shares = {"import": 100.0 * metrics["import.total_s"] / total}
    shares.update({layer: 100.0 * metrics[m] / total for layer, m in LAYERS.items()})
    metrics.update({f"{layer}.share_pct": share for layer, share in shares.items()})
    base = walls["serial" if campaign else "run"]
    metrics["trace.overhead_pct"] = 100.0 * (walls["trace"] / base - 1.0)
    metrics["crosscheck.max_gap_pct"] = max(gaps.values(), default=0.0)
    metrics["campaign.workers"] = WORKLOADS[workload] or 0
    metrics["campaign.pool_s"] = walls["run"] if campaign else 0.0
    metrics["campaign.serial_s"] = walls["serial"] if campaign else 0.0
    metrics["campaign.speedup_vs_serial"] = walls["serial"] / walls["run"] if campaign else 0.0

    _print_outputs(traced)
    print(f"layers (self time; share of import + traced run, n={len(good['trace'])} traced):")
    for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
        seconds_ = metrics["import.total_s"] if layer == "import" else metrics[LAYERS[layer]]
        print(f"  {layer:<18} {seconds_:9.4f} s {share:6.1f} %")
    dominant = max(shares, key=shares.get)
    predicted = PREDICTED_LAYERS[workload]
    combined = sum(shares[layer] for layer in predicted)
    rival = max(share for layer, share in shares.items() if layer not in predicted)
    print(
        f"dominant layer: {dominant} ({shares[dominant]:.1f} %); predicted "
        f"{' + '.join(predicted)} ({combined:.1f} %) - "
        + ("as predicted" if combined >= rival else "NOT as predicted")
    )
    print(
        "crosscheck vs program tracer (|outside - phase_rows| %): "
        + (", ".join(f"{phase} {gap:.1f}" for phase, gap in gaps.items()) or "none")
    )
    for phase, (outside_ms, inside_ms) in lower_bounds.items():
        print(
            f"crosscheck {phase} (batched; span holds unwrapped code): outside "
            f"{outside_ms:.1f} ms <= phase_rows {inside_ms:.1f} ms - "
            + ("holds" if outside_ms <= inside_ms else "VIOLATED")
        )
    return outcomes, metrics


# -- steadiness evidence ---------------------------------------------------------------


def steadiness(benchmark: dict, seconds: int, seed0: int) -> int:
    """Two interleaved sets of the same code: per-set quartiles and the gap.

    Every metric's spread in each set and the gap between the sets' medians,
    in either direction (A and B run the same code), must stay within the
    metric's bound.
    """
    env = dict(os.environ)
    sets: Dict[str, Dict[str, List[dict]]] = {w: {"A": [], "B": []} for w in WORKLOADS}
    for workload in WORKLOADS:
        for index in range(STEADINESS_SEEDS):
            order = ("A", "B") if index % 2 == 0 else ("B", "A")
            for label in order:
                outcome = launch(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                     "--seed", str(seed0 + index), "--seconds", str(seconds), "--trace", "0"],
                    env, 180.0, label,
                )
                if outcome.payload is None or not outcome.payload.get("correct"):
                    print(f"{workload} set {label} seed {seed0 + index}: run failed", file=sys.stderr)
                    print(outcome.stderr_tail, file=sys.stderr)
                    return 1
                metrics = outcome.payload["metrics"]
                sets[workload][label].append(metrics)
                values = " ".join(f"{name}={m['value']:.6g}" for name, m in metrics.items())
                print(f"# {workload} set {label} seed {seed0 + index}: {values}", file=sys.stderr)
    ok = True
    print(f"steadiness: {STEADINESS_SEEDS} seeds x 2 interleaved sets, run_seconds={seconds}")
    for workload in WORKLOADS:
        for spec in benchmark["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            cells = []
            medians = {}
            within = True
            for label in ("A", "B"):
                values = [m[name]["value"] for m in sets[workload][label]]
                q1, median, q3 = _quartiles(values)
                medians[label] = median
                spread = (q3 - q1) / median
                cells.append(f"{label}: median={median:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}")
                within = within and spread <= bound
            gap = (medians["B"] - medians["A"]) / medians["A"]
            within = within and abs(gap) <= bound
            ok = ok and within
            watch = " <- watched" if name == "setup_s" else ""
            print(
                f"{workload}/{name}: {'; '.join(cells)}; gap={gap:+.4f} bound={bound}"
                f"{'' if within else ' OVER BOUND'}{watch}"
            )
    print("steadiness verdict:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# -- entry point --------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("simbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    if args.steadiness:
        return steadiness(benchmark, seconds, args.seed)
    if args.workload is None:
        parser.error("--workload is required")

    _become_subreaper()
    env = child_env(root)
    try:
        return _benchmark(args, benchmark, seconds, env)
    finally:
        shutil.rmtree(root / TMP_NAME, ignore_errors=True)


def _benchmark(args, benchmark: dict, seconds: int, env) -> int:
    tmp = Path.cwd() / TMP_NAME
    problems = selfcheck(
        lambda args_, timeout: launch(args_, env, timeout, "fake", cwd=tmp), args.workload
    )
    if problems:
        print("simbench: judge self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 2
    warm = run_child("warmup", args.workload, args.seed, env)
    if warm.payload is None or warm.returncode != 0:
        print(f"simbench: warm-up run failed:\n{warm.stderr_tail}", file=sys.stderr)
        return 1
    print(
        f"host: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"cpu={cpu_model()!r} python={sys.version.split()[0]} "
        f"numpy={warm.payload['numpy']} scipy={warm.payload['scipy']}"
    )
    imports = median_import_times(env, probes=3 if args.trace else 1)
    print("import: " + " ".join(f"{k}={v:.4f}" for k, v in imports.items()))
    print(f"workload: {args.workload} seed={args.seed} seconds={seconds} trace={args.trace}")
    if args.trace:
        outcomes, metrics = measure_trace(args.workload, args.seed, seconds, env, imports)
        wanted = benchmark["per_layer"]
    else:
        outcomes, metrics = measure(args.workload, args.seed, seconds, env)
        wanted = benchmark["end_to_end"]
    failed = report_failures(outcomes)
    correct = failed == 0 and all(spec["name"] in metrics for spec in wanted)
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
            for spec in wanted
            if spec["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
