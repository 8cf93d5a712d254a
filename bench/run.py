"""manetguard benchmark: end-to-end metrics per workload, or a traced run for
per-layer metrics. See bench/README.md for the workloads and every metric.

    python3 bench/run.py --workload connected_proposed --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30
    python3 bench/run.py --paper-claim

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The package is imported from `src/` of
the checkout this file sits in; without it the script exits with code 2.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "manetguard" / "__init__.py").is_file():
    print(f"bench: no manetguard package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.dont_write_bytecode = True
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

import manetguard.experiment as experiment  # noqa: E402
import manetguard.simulation as simulation  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

# Set-up is a few milliseconds per workload, so it is repeated and the median kept.
SETUP_ROUNDS = 11

# Every end-to-end metric: name -> (unit, better, declared in BENCHMARK.json).
# The undeclared ones read exactly 0 on some workload (error_rate always,
# false_alarm_rate on `proposed`, control_messages on the baselines), so they
# are printed but not gated.
END_TO_END = {
    "wall_s": ("s", "lower", True),
    "setup_s": ("s", "lower", True),
    "peak_rss_mb": ("MB", "lower", True),
    "delivery_ratio": ("ratio", "higher", True),
    "error_rate": ("ratio", "lower", False),
    "false_alarm_rate": ("ratio", "lower", False),
    "detection_rate": ("ratio", "higher", True),
    "control_messages": ("count", "lower", False),
}

PAPER_CLAIM = {  # variant -> (false-alarm rate, detection rate), seeds 1-10, ROADMAP table
    "proposed": (0.000, 0.90),
    "naive_watchdog": (0.290, 1.00),
    "individual_observation": (0.225, 0.86),
}


# -- output checks ------------------------------------------------------------------

def run_digest(m: simulation.RunMetrics) -> str:
    """sha256 of the run's full RunMetrics as canonical JSON."""
    text = json.dumps(dataclasses.asdict(m), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def conservation_error(m: simulation.RunMetrics) -> Optional[str]:
    accounted = (m.delivered + m.dropped_malicious + m.dropped_congestion + m.lost_collision
                 + m.modify_detected + m.dropped_noroute + m.in_flight)
    if m.in_flight < 0 or accounted != m.originated:
        return f"packet conservation broken: originated {m.originated}, accounted {accounted}, " \
               f"in flight {m.in_flight}"
    return None


class Checks:
    """Counts attempted and failed runs; a run fails when it raises, breaks
    packet conservation or differs in digest from the reference pass."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check_pass(self, name: str, runs: Sequence[Optional[simulation.RunMetrics]],
                   reference: Optional[List[Optional[str]]]) -> List[Optional[str]]:
        digests: List[Optional[str]] = []
        for i, m in enumerate(runs):
            self.attempted += 1
            where = f"{name} run {i}"
            if m is None:
                self.failures.append(f"{where}: raised")
                digests.append(None)
                continue
            problem = conservation_error(m)
            digest = run_digest(m)
            if problem is None and reference is not None and reference[i] != digest:
                problem = f"digest {digest[:12]} differs from reference {str(reference[i])[:12]}"
            if problem is not None:
                self.failures.append(f"{where} (seed {m.seed}, {m.variant}): {problem}")
            digests.append(digest)
        return digests


def workload_digest(digests: Sequence[Optional[str]]) -> str:
    return hashlib.sha256("".join(d or "-" for d in digests).encode("ascii")).hexdigest()


# -- timing ---------------------------------------------------------------------------

def run_pass(workload: workloads.Workload) -> Tuple[float, List[Optional[simulation.RunMetrics]]]:
    """Run every simulation of the workload once through its public entry point.

    Returns the host time spent inside the entry-point calls and each run's
    metrics (None for a run that raised). The previous run's garbage is
    collected before each run and not timed; inside `run_matrix` that
    happens in its progress callback, whose time is subtracted.
    """
    if workload.matrix_seeds is not None:
        collecting = 0.0

        def collect_garbage(*_):
            nonlocal collecting
            start = time.perf_counter()
            gc.collect()
            collecting += time.perf_counter() - start

        gc.collect()
        start = time.perf_counter()
        try:
            result = experiment.run_matrix(workload.configs[0], workload.matrix_variants,
                                           workload.matrix_seeds, progress=collect_garbage)
            runs: List[Optional[simulation.RunMetrics]] = list(result.runs)
        except Exception:
            traceback.print_exc()
            runs = [None] * len(workload.configs)
        return time.perf_counter() - start - collecting, runs
    elapsed = 0.0
    runs = []
    for config in workload.configs:
        gc.collect()
        start = time.perf_counter()
        try:
            runs.append(simulation.run_once(config))
        except Exception:
            traceback.print_exc()
            runs.append(None)
        elapsed += time.perf_counter() - start
    return elapsed, runs


def setup_round(workload: workloads.Workload) -> float:
    """Host time to build every Simulation of the workload (validate, key
    registry, tracks, nodes, flows), without running them."""
    gc.collect()
    total = 0.0
    for config in workload.configs:
        start = time.perf_counter()
        simulation.Simulation(config)
        total += time.perf_counter() - start
    return total


def simulated_metrics(runs: Sequence[Optional[simulation.RunMetrics]]) -> Dict[str, float]:
    done = [m for m in runs if m is not None]
    if not done:
        return {"false_alarm_rate": 0.0, "detection_rate": 0.0,
                "delivery_ratio": 0.0, "control_messages": 0.0}
    return {
        "false_alarm_rate": statistics.fmean(m.false_alarm_rate for m in done),
        "detection_rate": statistics.fmean(m.detection_rate for m in done),
        "delivery_ratio": statistics.fmean(
            m.delivered / m.originated if m.originated else 0.0 for m in done),
        "control_messages": statistics.fmean(m.protocol_messages for m in done),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(workload: workloads.Workload, seconds: float) -> Tuple[dict, List[str]]:
    """Untraced measurement: set-up rounds, then passes over the workload
    while another pass still fits in `seconds` (at least one)."""
    checks = Checks()
    setup = [setup_round(workload) for _ in range(SETUP_ROUNDS)]
    passes: List[float] = []
    reference: Optional[List[Optional[str]]] = None
    first_runs: Sequence[Optional[simulation.RunMetrics]] = ()
    started = time.perf_counter()
    while True:
        elapsed, runs = run_pass(workload)
        passes.append(elapsed)
        digests = checks.check_pass(workload.name, runs, reference)
        if reference is None:
            reference, first_runs = digests, runs
        spent = time.perf_counter() - started
        if spent * (len(passes) + 1) / len(passes) > seconds:
            break
    setup_s = statistics.median(setup)
    values = {
        "wall_s": statistics.median(passes) - setup_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": len(checks.failures) / checks.attempted,
        **simulated_metrics(first_runs),
    }
    notes = [
        f"{workload.name}: {len(workload.configs)} runs x {len(passes)} passes, "
        f"pass wall {', '.join(f'{p:.3f}' for p in passes)} s, "
        f"set-up rounds {', '.join(f'{1e3 * s:.2f}' for s in setup)} ms",
        f"{workload.name}: digest {workload_digest(reference)}",
    ]
    for name, value in values.items():
        unit, better, _ = END_TO_END[name]
        notes.append(f"{workload.name}: {name:18s} {value!r:>24} {unit:6s} ({better} is better)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _, declared) in END_TO_END.items() if declared}
    return _result(checks, metrics), notes + checks.failures


def measure_layers(workload: workloads.Workload) -> Tuple[dict, List[str]]:
    """One untraced pass, then one traced pass over the same runs. The traced
    digests must match the untraced ones, and every wrapped name must hold
    its original again afterwards."""
    checks = Checks()
    untraced_s, runs = run_pass(workload)
    reference = checks.check_pass(workload.name, runs, None)
    tracer = layers.Tracer()
    try:
        tracer.install()
        traced_s, traced_runs = run_pass(workload)
    finally:
        tracer.restore()
    checks.check_pass(workload.name, traced_runs, reference)
    for binding in tracer.verify_restored():
        checks.failures.append(f"{binding} still wrapped after the traced run")
    context = {
        "control_messages": sum(m.protocol_messages for m in traced_runs if m is not None),
        "overhead_s": traced_s - untraced_s,
    }
    metrics, unavailable = layers.layer_metrics(tracer, context)
    notes = [
        f"{workload.name}: {len(workload.configs)} runs, untraced {untraced_s:.3f} s, "
        f"traced {traced_s:.3f} s, tracing overhead {context['overhead_s']:.3f} s",
        f"{workload.name}: digest {workload_digest(reference)}",
        *tracer.span_lines(),
        *(f"{workload.name}: {name:34s} {m['value']!r:>24} {m['unit']}"
          for name, m in metrics.items()),
    ]
    if tracer.missing:
        notes.append(f"{workload.name}: missing entry points: {', '.join(tracer.missing)}")
    if unavailable:
        notes.append(f"{workload.name}: missing metrics: {', '.join(unavailable)}")
    return _result(checks, metrics), notes + checks.failures


def _result(checks: Checks, metrics: dict) -> dict:
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }


# -- modes ------------------------------------------------------------------------------

def paper_claim() -> Tuple[dict, List[str]]:
    """The paper's qualitative result on fixed seeds; expectations are never re-seeded."""
    base, variants, seeds = workloads.paper_claim_matrix()
    result = experiment.run_matrix(base, variants, seeds)
    checks = Checks()
    checks.check_pass("paper_claim", result.runs, None)
    metrics, notes = {}, []
    for variant, expected in PAPER_CLAIM.items():
        for attr, want in zip(("false_alarm_rate", "detection_rate"), expected):
            got = result.mean(variant, attr)
            metrics[f"{variant}.{attr}"] = {"value": got, "unit": "ratio"}
            ok = round(got, 3) == round(want, 3)
            notes.append(f"paper_claim: {variant} {attr} {got:.4f} expected {want:.3f}"
                         f" {'ok' if ok else 'MISMATCH'}")
            if not ok:
                checks.failures.append(f"paper_claim: {variant} {attr} {got!r} != {want}")
    proposed = result.mean("proposed", "false_alarm_rate")
    for baseline in ("naive_watchdog", "individual_observation"):
        if not proposed < result.mean(baseline, "false_alarm_rate"):
            checks.failures.append(f"paper_claim: proposed false alarms not below {baseline}")
    return _result(checks, metrics), notes + checks.failures


def run_all(seed: int, seconds: float) -> Tuple[dict, List[str]]:
    """Every workload, untraced then traced, each in its own process so that
    peak memory belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line, flush=True)
            try:
                child = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                child = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
                print(f"{name} --trace {trace}: no result (exit code {proc.returncode})")
            combined["correct"] = combined["correct"] and child["correct"]
            combined["attempted"] += child["attempted"]
            combined["failed"] += child["failed"]
            for metric, value in child["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    return combined, []


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.NAMES)
    mode.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    mode.add_argument("--paper-claim", action="store_true",
                      help="check the paper's false-alarm result on seeds 1-10 (untimed)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.paper_claim:
        result, notes = paper_claim()
    elif args.all:
        result, notes = run_all(args.seed, args.seconds)
    else:
        workload = workloads.make(args.workload, args.seed)
        if args.trace:
            result, notes = measure_layers(workloads.traced_part(workload))
        else:
            result, notes = measure_end_to_end(workload, args.seconds)
    for line in notes:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
