"""Self-tests of the benchmark: seeded generators, tracer bindings, metric names.

    python3 -m pytest bench/test_bench.py      (or: python3 bench/test_bench.py)
"""

import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._use_checkout()

import workloads  # noqa: E402
from refclock import INTERVAL_S, REFERENCE_S, RefClock, reference_loop  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

import causalops.bordism as bordism  # noqa: E402
import causalops.causal_core as causal_core  # noqa: E402
from causalops.causal_core import CausalSet  # noqa: E402


def test_same_seed_gives_same_inputs():
    for cls in workloads.WORKLOADS.values():
        assert cls().inputs(7) == cls().inputs(7), cls.name


def test_different_seeds_give_different_inputs():
    for cls in workloads.WORKLOADS.values():
        seen = [cls().inputs(seed) for seed in range(1, 6)]
        assert all(a != b for i, a in enumerate(seen) for b in seen[i + 1:]), cls.name


def test_random_region_passes_differ_but_keep_their_mix():
    w = workloads.RandomRegions()
    first, second = w.inputs(3, 0), w.inputs(3, 1)
    assert first != second
    mix = [sorted(len(x.events) for x in batch) for batch in (first, second)]
    assert mix[0] == mix[1]


def test_tracer_rebinds_every_importer_and_restores():
    original = causal_core.convex_hull
    original_induced = CausalSet.__dict__["induced"]
    assert bordism.convex_hull is original
    tracer = Tracer([Target("causal_core", "convex_hull"),
                     Target("causal_core", "CausalSet.induced", repeat=True, alias="induced")])
    M = CausalSet("abc", [("a", "b"), ("b", "c")])
    with tracer:
        assert causal_core.convex_hull is not original
        assert bordism.convex_hull is causal_core.convex_hull
        assert bordism.convex_hull(M, {"a", "c"}) == frozenset("abc")
        causal_core.is_causally_convex(M, {"a", "b"})  # calls it internally
        M.induced({"a", "b"})
        assert M.induced(e for e in "bc").events == ("b", "c")  # iterators pass on
        M.induced({"b", "a"})
    assert causal_core.convex_hull is original and bordism.convex_hull is original
    assert CausalSet.__dict__["induced"] is original_induced
    metrics = tracer.metrics()
    assert metrics["causal_core.convex_hull.calls"][0] == 2
    assert metrics["causal_core.induced.calls"][0] == 3
    assert metrics["causal_core.induced.repeat_share"][0] == 1 / 3


def test_refclock_leaves_out_its_ticks_and_disarms():
    before = signal.getsignal(signal.SIGPROF)
    with RefClock() as clock:
        start, cpu_start = clock.now(), time.thread_time()
        while time.thread_time() - cpu_start < 20 * INTERVAL_S:
            reference_loop()
        work, cpu = clock.now() - start, time.thread_time() - cpu_start
    assert len(clock.samples) == len(clock.stamps) >= 5
    assert 0 < work < cpu and abs(cpu - work - clock.spent) < 1e-3
    speed = clock.scale(start, start + work) / REFERENCE_S  # a mean of 1 / sample
    assert 1 / max(clock.samples) <= speed <= 1 / min(clock.samples)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is before


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    traced = set(Tracer(run.TARGETS).metrics()) | set(run.COUNT_NAMES)
    assert per_layer == traced | {"trace.overhead_share"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
