"""The three workloads of the causalops benchmark.

Each workload turns a seed into plain input data (``inputs``), builds the
program objects those inputs describe (``fixtures``), and lists the checked
calls of one pass (``items``).  Known answers are checked afterwards, outside
the timed section (``check``).  The fixtures are the benchmark's own copies
of the ones in ``tests/``, so editing the tests cannot change a workload;
the seed renames their events, which changes the inputs but not their shape.

Budgets and caps are the library defaults, or the sizes the shipped tests
use where a fixture needs an explicit cap.  None is lowered for speed.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import string
from dataclasses import dataclass
from typing import Any, Callable

from causalops.bordism import (
    Bordism,
    PointedObject,
    bordism_fragment,
    truncate_bordisms,
)
from causalops.causal_core import (
    CausalEmbedding,
    CausalSet,
    convex_hull,
    is_cauchy_antichain,
    is_cauchy_embedding,
)
from causalops.operad_kernel import (
    check_operad_axioms,
    enumerate_embeddings,
    prefactorization_operad,
)
from causalops.pseudo_operad import check_pseudo_operad, check_two_adjunction
from causalops.qft_models import (
    Monoid,
    MonoidHom,
    aqft_model,
    compose_monoid_homs,
    constant_aqft,
    constant_fqft,
    fqft_model,
)
from causalops.report import SKIP, Report
from causalops.translate import (
    aqft_to_fqft,
    build_translation_context,
    fqft_to_aqft,
    roundtrip_aqft,
    roundtrip_fqft,
    validate_translation_context,
)

import oracles  # tests/oracles.py, put on the path by run.py

LETTERS = string.ascii_lowercase

# Library defaults; a check that reaches one of them stopped at its budget.
MAX_ASSOC_CHECKS = 200_000
MAX_PENTAGONS = 512


@dataclass
class Item:
    """One checked call (or short chain of calls) of a pass."""

    label: str
    run: Callable[[], Any]


def _rng(workload: str, seed: int, pass_index: int = 0) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{pass_index}")


def _budget_stops(report: Report) -> list[str]:
    out = [f"{e.check} skipped" for e in report.entries if e.status == SKIP]
    for e in report.entries:
        w = e.witness if isinstance(e.witness, dict) else {}
        if e.check == "operad/associativity" and w.get("checked", 0) > MAX_ASSOC_CHECKS:
            out.append(f"{e.check} stopped at {MAX_ASSOC_CHECKS}")
        if e.check == "pseudo-operad/pentagon" and w.get("instances-checked", 0) >= MAX_PENTAGONS:
            out.append(f"{e.check} stopped at {MAX_PENTAGONS}")
    return out


def report_problems(report: Report) -> list[str]:
    """FAIL rows and budget stops of one report."""
    return [f"{e.check} on {e.target} fails" for e in report.failures] + _budget_stops(report)


# ---- bordism-audit ---------------------------------------------------------------


def _point(name: str) -> PointedObject:
    return PointedObject(CausalSet([name]), {name})


def chain_bordism(*names: str) -> Bordism:
    """A linear interpolation from the first event up to the last."""
    M = CausalSet(names, list(zip(names, names[1:])))
    lo, hi = _point(names[0]), _point(names[-1])
    return Bordism(
        (lo,), hi, M,
        (CausalEmbedding(lo.carrier, M, {names[0]: names[0]}),),
        CausalEmbedding(hi.carrier, M, {names[-1]: names[-1]}),
    )


def merge_bordism(l: str, r: str, t: str) -> Bordism:
    """Two incomparable inputs ``l``, ``r`` joined into one top event ``t``."""
    V = CausalSet([l, r, t], [(l, t), (r, t)])
    return Bordism(
        (_point(l), _point(r)), _point(t), V,
        (CausalEmbedding(_point(l).carrier, V, {l: l}),
         CausalEmbedding(_point(r).carrier, V, {r: r})),
        CausalEmbedding(_point(t).carrier, V, {t: t}),
    )


@dataclass
class AuditResult:
    coverage: dict
    reports: tuple[Report, ...]


def audit_fragment(generator: Bordism, depth: int, max_ops: int,
                   max_cells: int) -> AuditResult:
    frag = bordism_fragment([generator], depth=depth, max_ops=max_ops,
                            max_cells=max_cells)
    audit = check_pseudo_operad(frag)
    adjunction = check_two_adjunction(truncate_bordisms(frag), frag)
    return AuditResult(frag.coverage(), (audit, adjunction))


class BordismAudit:
    """The merge fragment and the depth-2 chain fragment, fully audited."""

    name = "bordism-audit"
    # (fixture, depth, max_ops, max_cells); the chain runs at depth 2 so its
    # pentagon and triangle checks cover more than zero instances
    FRAGMENTS = (("merge", 1, 128, 8192), ("chain", 2, 64, 4096))

    def inputs(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        return {label: tuple(rng.sample(LETTERS, 3)) for label, *_ in self.FRAGMENTS}

    def fixtures(self, inputs: dict) -> dict:
        return {"merge": merge_bordism(*inputs["merge"]),
                "chain": chain_bordism(*inputs["chain"])}

    def items(self, seed: int, fixtures: dict, pass_index: int) -> list[Item]:
        return [
            Item(f"fragment/{label}",
                 functools.partial(audit_fragment, fixtures[label], depth,
                                   max_ops, max_cells))
            for label, depth, max_ops, max_cells in self.FRAGMENTS
        ]

    def check(self, item: Item, out: AuditResult) -> list[str]:
        problems = [p for rep in out.reports for p in report_problems(rep)]
        for e in out.reports[0].entries:
            if e.check in ("pseudo-operad/pentagon", "pseudo-operad/triangle") \
                    and isinstance(e.witness, dict) \
                    and e.witness.get("instances-checked", 1) == 0:
                problems.append(f"{e.check} covered zero instances")
        return problems

    def reports(self, out: AuditResult) -> tuple[Report, ...]:
        return out.reports

    def counts(self, labels_outputs: list[tuple[str, Any]]) -> dict[str, int]:
        counts = {key: 0 for key in ("ops", "cells", "compose-ops", "associators")}
        for _, out in labels_outputs:
            if isinstance(out, AuditResult):
                for key in counts:
                    counts[key] += out.coverage.get(key, 0)
        return {f"pseudo_operad.coverage.{key.replace('-', '_')}": v
                for key, v in counts.items()}


# ---- diamond-translate -------------------------------------------------------------


Z2, Z3, Z4 = (Monoid.cyclic(n) for n in (2, 3, 4))
TRIV = Monoid.trivial()


def _times(k: int) -> MonoidHom:
    return MonoidHom.unary(Z4, Z4, {x: (k * x) % 4 for x in Z4.elements})


def skew_model(ctx, names: dict[str, str]):
    """Diamond model with a non-invertible image on the off-surface inclusions.

    The two lower singleton inclusions double, the bottom one triples, and
    binary operations add the doubled arguments; compatibility with the
    operad laws pins everything else to identities and unit picks.
    ``names`` maps the diamond's roles ``a`` < ``b``, ``c`` < ``d`` to events.
    """
    base = ctx.aqft_fragment
    D = next(M for M in base.colors if len(M) == 4)
    bottom = frozenset({names["a"]})
    middle = frozenset({names["b"], names["c"]})
    ops = {}
    for op in base.operations:
        if len(op.maps) == 0:
            ops[op] = MonoidHom((), Z4, {(): 0})
        elif len(op.maps) == 1:
            image = frozenset(op.maps[0].image)
            if op.target is D and image == bottom:
                ops[op] = _times(3)
            elif op.target is D and len(image) == 1 and image <= middle:
                ops[op] = _times(2)
            else:
                ops[op] = _times(1)
        else:
            ops[op] = MonoidHom((Z4, Z4), Z4,
                                {(x, y): (2 * x + 2 * y) % 4
                                 for x in range(4) for y in range(4)})
    return aqft_model(base, {M: Z4 for M in base.colors}, ops, name="skew")


def conjugated_model(ctx, skew, names: dict[str, str]):
    """Surface model whose colimit legs are forced away from identities."""
    translated = aqft_to_fqft(skew, ctx)
    bottom = frozenset({names["a"]})
    alpha = {
        c: _times(3) if len(c.carrier) == 4 and c.surface == bottom else _times(1)
        for c in ctx.bordism_fragment.colors
    }
    ops = {
        cls: compose_monoid_homs(
            translated.hom(cls).then(alpha[cls.output]),
            tuple(alpha[c].inverse() for c in cls.inputs),
        )
        for cls in ctx.bordism_fragment.operations
    }
    model = fqft_model(ctx.bordism_fragment,
                       {c: Z4 for c in ctx.bordism_fragment.colors},
                       ops, name="conjugated")
    return model, translated, alpha


@dataclass
class SkewResult:
    report: Report
    model: Any
    ctx: Any


class DiamondTranslate:
    """Chain and diamond translation contexts, their audits and round trips."""

    name = "diamond-translate"

    def inputs(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        return {"chain": dict(zip("uv", rng.sample(LETTERS, 2))),
                "diamond": dict(zip("abcd", rng.sample(LETTERS, 4)))}

    def fixtures(self, inputs: dict) -> dict:
        u, v = inputs["chain"]["u"], inputs["chain"]["v"]
        M = CausalSet((u, v), ((u, v),))
        a, b, c, d = (inputs["diamond"][k] for k in "abcd")
        D = CausalSet((a, b, c, d), ((a, b), (a, c), (b, d), (c, d)))
        return {
            "chain": (M, M.induced({u}), M.induced({v})),
            "diamond": (D, D.induced({a}), D.induced({b}), D.induced({c})),
            "names": inputs["diamond"],
        }

    def items(self, seed: int, fixtures: dict, pass_index: int) -> list[Item]:
        ctx: dict[str, Any] = {}

        def build(label):
            aqft = prefactorization_operad(fixtures[label])
            ctx[label] = build_translation_context(aqft, name=label)
            return ctx[label]

        def skew():
            model = skew_model(ctx["diamond"], fixtures["names"])
            return SkewResult(roundtrip_aqft(model, ctx["diamond"], debug=True),
                              model, ctx["diamond"])

        def conjugated():
            model, translated, alpha = conjugated_model(
                ctx["diamond"], skew_model(ctx["diamond"], fixtures["names"]),
                fixtures["names"])
            inverse = {c: h.inverse() for c, h in alpha.items()}
            return roundtrip_fqft(model, ctx["diamond"],
                                  transformation=(translated, inverse), debug=True)

        labels = ("chain", "diamond")
        items = [Item(f"context/{k}", functools.partial(build, k)) for k in labels]
        items += [Item(f"validate/{k}", lambda k=k: validate_translation_context(ctx[k]))
                  for k in labels]
        items += [Item(f"axioms/{k}/{side}",
                       lambda k=k, side=side: check_operad_axioms(getattr(ctx[k], side)))
                  for k in labels for side in ("aqft_fragment", "bordism_fragment")]
        items += [Item(f"roundtrip-aqft/{k}/{m}",
                       lambda k=k, m=m: roundtrip_aqft(
                           constant_aqft(ctx[k].aqft_fragment, m), ctx[k], debug=True))
                  for k in labels for m in (TRIV, Z2, Z3, Z4)]
        items += [Item(f"roundtrip-fqft/{k}/{Z2}",
                       lambda k=k: roundtrip_fqft(
                           constant_fqft(ctx[k].bordism_fragment, Z2), ctx[k], debug=True))
                  for k in labels]
        items += [Item("roundtrip-aqft/diamond/skew", skew),
                  Item("roundtrip-fqft/diamond/conjugated", conjugated)]
        return items

    def check(self, item: Item, out: Any) -> list[str]:
        if item.label.startswith("context/"):
            return []  # the contexts are judged by their validate/ items
        if isinstance(out, SkewResult):
            back = fqft_to_aqft(aqft_to_fqft(out.model, out.ctx), out.ctx)
            moved = [op for op in out.ctx.aqft_fragment.operations
                     if back.hom(op) != out.model.hom(op)]
            return report_problems(out.report) + [
                f"skew round trip moved {len(moved)} homs"] * bool(moved)
        return report_problems(out)

    def reports(self, out: Any) -> tuple[Report, ...]:
        if isinstance(out, SkewResult):
            return (out.report,)
        return (out,) if isinstance(out, Report) else ()

    def counts(self, labels_outputs: list[tuple[str, Any]]) -> dict[str, int]:
        counts = {}
        assoc = 0
        for label, out in labels_outputs:
            if label.startswith("context/") and out is not None:
                key = label.split("/")[1]
                counts[f"translate.window.{key}.colors"] = len(out.bordism_fragment.colors)
                counts[f"translate.window.{key}.ops"] = len(out.bordism_fragment.operations)
            if label.startswith("axioms/") and isinstance(out, Report):
                for e in out.entries:
                    if e.check == "operad/associativity" and isinstance(e.witness, dict):
                        assoc += e.witness.get("checked", 0)
        counts["operad_kernel.check_operad_axioms.assoc_checked"] = assoc
        return counts


# ---- random-regions ------------------------------------------------------------


@dataclass(frozen=True)
class RegionInput:
    """One random poset plus the arguments of its query batch."""

    events: tuple[str, ...]
    relations: tuple[tuple[str, str], ...]
    subsets: tuple[frozenset, ...]
    antichains: tuple[frozenset, ...]
    sub_region: frozenset


@dataclass(frozen=True)
class RegionAnswer:
    hulls: tuple[frozenset, ...]
    induced: tuple[frozenset, ...]      # strict order pairs of each sub-poset
    cauchy_embedding: tuple[bool, ...]
    cauchy_antichain: tuple[bool, ...]
    embeddings: int


def _random_region(rng: random.Random, n: int, bias: float) -> RegionInput:
    names = [f"e{i}" for i in range(n)]
    # events are topologically labeled, so i < j edges keep it acyclic
    relations = tuple((names[i], names[j]) for i in range(n)
                      for j in range(i + 1, n) if rng.random() < bias)
    above = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for a, b in relations:
            if a == names[i]:
                above[i] |= above[names.index(b)]

    def comparable(i: int, j: int) -> bool:
        return bool(above[i] >> j & 1 or above[j] >> i & 1)

    subsets, antichains = [], []
    for p in (0.2, 0.35, 0.5):
        subset = frozenset(e for e in names if rng.random() < p)
        subsets.append(subset or frozenset({rng.choice(names)}))
        chosen: list[int] = []
        for i in rng.sample(range(n), n):
            if not any(comparable(i, j) for j in chosen):
                chosen.append(i)
        antichains.append(frozenset(names[i] for i in chosen))
    sub_region = frozenset(rng.sample(names, rng.randint(1, 3)))
    return RegionInput(tuple(names), relations, tuple(subsets),
                       tuple(antichains), sub_region)


def query_region(x: RegionInput) -> RegionAnswer:
    M = CausalSet(x.events, x.relations)
    hulls, induced, embedding, antichain = [], [], [], []
    for subset, anti in zip(x.subsets, x.antichains):
        hull = convex_hull(M, subset)
        hulls.append(hull)
        sub = M.induced(subset)
        induced.append(frozenset((a, b) for a in sub.events for b in sub.events
                                 if sub.lt(a, b)))
        embedding.append(is_cauchy_embedding(CausalEmbedding.inclusion(M, hull)))
        antichain.append(is_cauchy_antichain(M, anti))
    count = sum(1 for _ in enumerate_embeddings(M.induced(x.sub_region), M))
    return RegionAnswer(tuple(hulls), tuple(induced), tuple(embedding),
                        tuple(antichain), count)


def oracle_answer(x: RegionInput) -> RegionAnswer:
    """The same answers from the brute-force functions of ``tests/oracles.py``."""
    P = oracles.OraclePoset.build(x.events, x.relations)
    chains = oracles.all_maximal_chains(P)

    def cauchy(anti: set) -> bool:
        # brute_is_cauchy, with the maximal chains computed once per poset
        return bool(anti) and oracles.brute_is_antichain(P, anti) \
            and all(set(chain) & anti for chain in chains)

    hulls = tuple(frozenset(oracles.brute_hull(P, set(s))) for s in x.subsets)
    induced = tuple(oracles.sub_oracle(P, set(s)).strict for s in x.subsets)
    embedding = tuple(
        any(cauchy(set(c)) for k in range(1, len(h) + 1)
            for c in itertools.combinations(sorted(h), k))
        for h in hulls
    )
    antichain = tuple(cauchy(set(a)) for a in x.antichains)
    count = len(oracles.brute_embeddings(oracles.sub_oracle(P, set(x.sub_region)), P))
    return RegionAnswer(hulls, induced, embedding, antichain, count)


class RandomRegions:
    """Seeded random posets of 6-14 events under a fixed batch of queries."""

    name = "random-regions"
    SIZES = range(6, 15)
    BIASES = (0.15, 0.3, 0.5)
    # every (size, bias) pair appears this often in a pass, in seeded order,
    # so passes differ in their posets but not in their mix of sizes
    PER_CELL = 10

    def inputs(self, seed: int, pass_index: int = 0) -> list[RegionInput]:
        rng = _rng(self.name, seed, pass_index)
        cells = [(n, b) for n in self.SIZES for b in self.BIASES] * self.PER_CELL
        rng.shuffle(cells)
        return [_random_region(rng, n, b) for n, b in cells]

    def fixtures(self, inputs: list[RegionInput]) -> list[RegionInput]:
        return inputs  # the program builds each poset inside the timed item

    def items(self, seed: int, fixtures: list[RegionInput], pass_index: int) -> list[Item]:
        inputs = fixtures if pass_index == 0 else self.inputs(seed, pass_index)
        return [Item(f"region/{pass_index}/{i}", functools.partial(query_region, x))
                for i, x in enumerate(inputs)]

    def check(self, item: Item, out: RegionAnswer) -> list[str]:
        x = item.run.args[0]
        want = oracle_answer(x)
        return [f"{field} differs from the oracle" for field in RegionAnswer.__dataclass_fields__
                if getattr(out, field) != getattr(want, field)]

    def reports(self, out: Any) -> tuple[Report, ...]:
        return ()

    def counts(self, labels_outputs: list[tuple[str, Any]]) -> dict[str, int]:
        return {}


WORKLOADS = {w.name: w for w in (BordismAudit, DiamondTranslate, RandomRegions)}


def canonical_bytes(workload, out: Any) -> bytes:
    """Bytes of an output for the run digest: the reports' canonical dumps,
    or a canonical JSON of the answers where a workload has no reports."""
    reports = workload.reports(out)
    if reports:
        return b"".join(r.dumps().encode() for r in reports)
    if isinstance(out, RegionAnswer):
        return json.dumps({
            "hulls": [sorted(h) for h in out.hulls],
            "induced": [sorted(map(list, s)) for s in out.induced],
            "cauchy_embedding": list(out.cauchy_embedding),
            "cauchy_antichain": list(out.cauchy_antichain),
            "embeddings": out.embeddings,
        }, sort_keys=True).encode()
    return b""
