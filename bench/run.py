"""Run one workload of the causalops benchmark and print its metrics.

    python3 bench/run.py --workload random-regions --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository: it imports the
package from ``src/`` and the brute-force oracles from ``tests/``.

One process, one thread, closed loop: the next checked call starts when
the previous one returns.  A pass is one round of the workload's checked
calls; passes repeat while another one still fits in ``--seconds`` (there
is always at least one).  Known answers are checked after the timed
section.  Times are workload CPU seconds scaled to a reference host speed
(see ``refclock.py``), because the speed of a shared host drifts by more
than the bounds.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
summarizes the run (work counts, report digest) for people.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
pass three times, the middle one under the tracer, and reports the
per-layer metrics; the spans go to ``.bench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from refclock import RefClock, sample_now, speed_scale
from tracer import Target, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7


def _use_checkout() -> None:
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "causalops" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        sys.exit(f"bench: {ROOT} is not a checkout of causalops "
                 "(src/causalops/ and tests/oracles.py are required)")
    sys.path[:0] = [str(src), str(tests)]


# the public functions wrapped by --trace 1, layer by layer (L0 to L4)
TARGETS = [
    Target("causal_core", "CausalSet"),
    Target("causal_core", "CausalSet.induced", repeat=True, alias="induced"),
    Target("causal_core", "is_cauchy_embedding", repeat=True),
    Target("causal_core", "is_cauchy_antichain"),
    Target("causal_core", "convex_hull"),
    Target("causal_core", "glue_pushout"),
    Target("operad_kernel", "enumerate_embeddings"),
    Target("operad_kernel", "check_operad_axioms"),
    Target("operad_kernel", "Operad.compose"),
    Target("operad_kernel", "FiniteGroupoid.validate"),
    Target("operad_kernel", "FiniteGroupoid.compose"),
    Target("bordism", "validate_bordism", repeat=True),
    Target("bordism", "compose_bordisms_full"),
    Target("bordism", "enumerate_germs"),
    Target("bordism", "cells_between"),
    Target("bordism", "globular_cells_between"),
    Target("bordism", "bordism_fragment"),
    Target("pseudo_operad", "PseudoOperadData.groupoid_of_cell"),
    Target("pseudo_operad", "check_pseudo_operad"),
    Target("pseudo_operad", "tau_full"),
    Target("pseudo_operad", "iota"),
    Target("pseudo_operad", "check_two_adjunction"),
    Target("translate", "translation_window"),
    Target("translate", "build_translation_context"),
    Target("translate", "aqft_to_fqft"),
    Target("translate", "fqft_to_aqft"),
    Target("translate", "roundtrip_aqft"),
    Target("translate", "roundtrip_fqft"),
    Target("qft_models", "filtered_colimit_monoids"),
    Target("qft_models", "MonoidHom", calls_only=True),
]


# work-size counts reported by every workload (0 where a workload has none)
COUNT_NAMES = (
    "pseudo_operad.coverage.ops",
    "pseudo_operad.coverage.cells",
    "pseudo_operad.coverage.compose_ops",
    "pseudo_operad.coverage.associators",
    "translate.window.chain.colors",
    "translate.window.chain.ops",
    "translate.window.diamond.colors",
    "translate.window.diamond.ops",
    "operad_kernel.check_operad_axioms.assoc_checked",
    "workload.items",
)


@dataclass
class Outcome:
    pass_index: int
    item: Any
    seconds: float      # reference seconds
    output: Any
    error: str | None


def setup(name: str, seed: int):
    """Import the package, make the seeded inputs and build the fixtures."""
    import workloads

    workload = workloads.WORKLOADS[name]()
    return workload, workload.fixtures(workload.inputs(seed))


def measure_setup(args) -> float:
    """Median, over fresh processes, of the CPU time from process start until
    the inputs are ready, scaled by reference loops run right after."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--probe-setup"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        cpu_s, scale = map(float, probe.stdout.split()[-2:])
        samples.append(cpu_s * scale)
    return statistics.median(samples)


def run_pass(workload, seed: int, fixtures, pass_index: int,
             clock: RefClock) -> tuple[float, float, list[Outcome]]:
    """One pass: its CPU seconds on this host, the same in reference
    seconds, and its outcomes.  Each item is scaled by the host speed
    sampled while it ran."""
    items = workload.items(seed, fixtures, pass_index)
    spans = []
    for item in items:
        t = clock.now()
        try:
            out, err = item.run(), None
        except Exception as exc:  # a raising item is a failed verdict, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        spans.append((item, t, clock.now(), out, err))
    outcomes = [Outcome(pass_index, item, (end - start) * clock.scale(start, end), out, err)
                for item, start, end, out, err in spans]
    cpu_s = sum(end - start for _, start, end, _, _ in spans)
    return cpu_s, sum(o.seconds for o in outcomes), outcomes


def percentile(values: list[float], q: float) -> float:
    """Percentile by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Tally:
    """Checks each pass after it is timed, then keeps only what the report
    needs: item times, problems, and the first pass for counts and digest."""

    def __init__(self, workload):
        self.workload = workload
        self.passes = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.times_by_item: dict[str, list[float]] = {}
        self.first: list[Outcome] = []

    def add(self, outcomes: list[Outcome], timed: bool = True) -> None:
        self.passes += 1
        self.attempted += len(outcomes)
        self.problems += [p for o in outcomes if (p := self._check(o))]
        if timed:
            for o in outcomes:
                self.times_by_item.setdefault(o.item.label, []).append(o.seconds)
        self.first = self.first or outcomes

    def item_times(self) -> list[float]:
        """One time per distinct item: the median over the passes that ran it."""
        return [statistics.median(ts) for ts in self.times_by_item.values()]

    def _check(self, o: Outcome) -> str | None:
        """An exception, a FAIL, a budget stop or an answer that differs
        from the known one, as one line; None when the item passed."""
        if o.error is not None:
            problems = [o.error]
        else:
            try:
                problems = self.workload.check(o.item, o.output)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            return f"pass {o.pass_index} {o.item.label}: {'; '.join(problems)}"
        return None

    def counts(self) -> dict[str, int]:
        counts = dict.fromkeys(COUNT_NAMES, 0)
        counts.update(self.workload.counts([(o.item.label, o.output) for o in self.first]))
        counts["workload.items"] = len(self.first)
        return counts

    def digest(self) -> str:
        """sha256 over the canonical report bytes of the first pass, in item order."""
        from workloads import canonical_bytes

        h = hashlib.sha256()
        for o in self.first:
            if o.output is not None:
                h.update(canonical_bytes(self.workload, o.output))
        return h.hexdigest()


def traced_metrics(workload, seed: int, fixtures, tally: Tally) -> tuple[dict, dict]:
    """The first pass three times, the middle one traced; the overhead is
    taken against the faster plain pass, so a slow first pass cannot hide it."""
    import workloads
    from causalops.report import Report

    tracer = Tracer(TARGETS, extra_modules=(workloads,), skip_in_keys=(Report,))
    with RefClock() as clock:
        _, plain_s, plain = run_pass(workload, seed, fixtures, 0, clock)
        with tracer:
            _, traced_s, traced = run_pass(workload, seed, fixtures, 0, clock)
        _, again_s, again = run_pass(workload, seed, fixtures, 0, clock)
    for outcomes in (plain, traced, again):
        tally.add(outcomes, timed=outcomes is not traced)
    metrics = tracer.metrics()
    metrics["trace.overhead_share"] = (traced_s / min(plain_s, again_s) - 1, "share")
    metrics.update((k, (v, "count")) for k, v in tally.counts().items())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = tracer.write_spans(out_dir / f"spans-{workload.name}.bin")
    return metrics, {"spans": spans}


def end_to_end_metrics(args, workload, fixtures, tally: Tally) -> tuple[dict, dict]:
    """The metrics, and for the summary line the median pass in CPU seconds
    of this host, before scaling."""
    setup_s = measure_setup(args)
    cpu_times: list[float] = []
    pass_times: list[float] = []
    peak_rss_mib = 0.0
    with RefClock() as clock:
        while not cpu_times or sum(cpu_times) + statistics.median(cpu_times) <= args.seconds:
            cpu_s, seconds, outcomes = run_pass(workload, args.seed, fixtures,
                                                len(pass_times), clock)
            if not pass_times:
                # read before any checking, which allocates on its own account
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            cpu_times.append(cpu_s)
            pass_times.append(seconds)
            tally.add(outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdict_s": (statistics.median(pass_times), "s"),
        "item_s.p50": (percentile(tally.item_times(), 0.50), "s"),
        "item_s.p95": (percentile(tally.item_times(), 0.95), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "passed_share": (1 - len(tally.problems) / tally.attempted, "share"),
    }
    return metrics, {"cpu_verdict_s": statistics.median(cpu_times)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bordism-audit", "diamond-translate", "random-regions"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_checkout()
    workload, fixtures = setup(args.workload, args.seed)
    if args.probe_setup:
        # the main thread's CPU time counts from the start of the process
        cpu_s = time.thread_time()
        print(repr(cpu_s), repr(speed_scale(sample_now())))
        return 0

    tally = Tally(workload)
    if args.trace:
        metrics, notes = traced_metrics(workload, args.seed, fixtures, tally)
    else:
        metrics, notes = end_to_end_metrics(args, workload, fixtures, tally)

    failed = len(tally.problems)
    for line in tally.problems[:10]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    item_times = tally.item_times()
    p95 = percentile(item_times, 0.95)
    print("# " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": tally.passes, "items_timed": len(item_times),
        "items_beyond_p95": sum(t > p95 for t in item_times),
        "failed_share": failed / tally.attempted, "report_sha256": tally.digest(),
        "counts": {k: v for k, v in tally.counts().items() if v}, **notes,
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
