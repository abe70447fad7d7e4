"""Colored symmetric operads with finite, inspectable structure.

Operations are interned hashable tokens exposing ``inputs`` (a tuple of
colors) and ``output`` (a color).  Composition, units and the right
symmetric-group action are table- or callable-backed and memoized, so
concrete operads (explicit tables, embedding tuples over causal-set
fragments, truncated bordism classes) share one checker.

Permutations are 0-based one-line tuples acting on tuples from the right:
``apply_permutation(t, s)[i] == t[s[i]]``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .causal_core import (
    CausalEmbedding,
    CausalSet,
    _cached_hash,
    _hull_mask,
    _member_mask,
    _pinned_maps,
    are_causally_disjoint,
)
from .errors import FragmentCapExceeded
from .report import FAIL, PASS, SKIP, Report

__all__ = [
    "identity_permutation",
    "apply_permutation",
    "compose_permutations",
    "invert_permutation",
    "block_permutation",
    "sum_permutation",
    "all_permutations",
    "EmbeddingTuple",
    "Operad",
    "check_operad_axioms",
    "prefactorization_operad",
    "enumerate_embeddings",
    "Multifunctor",
    "MultinaturalTransformation",
    "check_multifunctor",
    "check_multinatural",
    "compose_multifunctors",
    "vertical_compose",
    "FiniteGroupoid",
]


# ---- permutation algebra -----------------------------------------------------


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def apply_permutation(items: Sequence, sigma: Sequence[int]) -> tuple:
    if len(items) != len(sigma):
        raise ValueError("permutation length mismatch")
    return tuple(items[i] for i in sigma)


def compose_permutations(sigma: Sequence[int], tau: Sequence[int]) -> tuple[int, ...]:
    """The permutation acting as sigma-then-tau on tuples."""
    return tuple(sigma[i] for i in tau)


def invert_permutation(sigma: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(sigma)
    for i, s in enumerate(sigma):
        out[s] = i
    return tuple(out)


def block_permutation(sigma: Sequence[int], arities: Sequence[int]) -> tuple[int, ...]:
    """Permute concatenated index blocks of the given sizes as sigma permutes blocks."""
    if len(sigma) != len(arities):
        raise ValueError("sigma and arities must have equal length")
    offsets = [0]
    for k in arities:
        offsets.append(offsets[-1] + k)
    out: list[int] = []
    for i in sigma:
        out.extend(range(offsets[i], offsets[i] + arities[i]))
    return tuple(out)


def sum_permutation(sigmas: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Blockwise direct sum sigma_1 + ... + sigma_n."""
    out: list[int] = []
    offset = 0
    for s in sigmas:
        out.extend(offset + i for i in s)
        offset += len(s)
    return tuple(out)


def all_permutations(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.permutations(range(n))


# ---- equivalence classes ------------------------------------------------------


def _least_representatives(items: Iterable[Hashable],
                           pairs: Iterable[tuple[Hashable, Hashable]],
                           key: Callable[[Hashable], object]) -> dict:
    """Name each class of the equivalence that ``pairs`` generate on ``items``
    by its least member under ``key``.

    Returns ``{item: least member of its class}`` in the order of ``items``.
    A union-find whose root is always the least member seen in its class.
    """
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if key(ra) <= key(rb) else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in items}


class Numbering(list):
    """Values numbered by their place in the list, ``no[value]`` being the
    number of ``value``.  A value met for the first time is appended, so two
    numbers are equal exactly when their values are.  Equal values given up
    front are all kept, and ``no`` holds the last of them."""

    def __init__(self, values: Iterable):
        super().__init__(values)
        self.no = {value: n for n, value in enumerate(self)}

    def number(self, value) -> int:
        """The number of ``value``; a value met for the first time gets the next one."""
        n = self.no.setdefault(value, len(self))
        if n == len(self):
            self.append(value)
        return n

    def canonical(self, value):
        """The listed value equal to ``value``, or else ``value`` itself."""
        n = self.no.get(value)
        return value if n is None else self[n]


# ---- operation tokens ---------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingTuple:
    """A prefactorization operation: disjoint embeddings into one target."""

    maps: tuple[CausalEmbedding, ...]
    target: CausalSet

    __hash__ = _cached_hash(lambda self: (EmbeddingTuple, self.maps, self.target))

    def __post_init__(self) -> None:
        for f in self.maps:
            if f.cod != self.target:
                raise ValueError("embedding codomain differs from the target")
        for f, g in itertools.combinations(self.maps, 2):
            if not are_causally_disjoint(self.target, f.image, g.image):
                raise ValueError("embedding images are not pairwise causally disjoint")

    @property
    def inputs(self) -> tuple[CausalSet, ...]:
        return tuple(f.dom for f in self.maps)

    @property
    def output(self) -> CausalSet:
        return self.target

    def __str__(self) -> str:
        legs = ";".join(
            ",".join(f"{a}>{b}" for a, b in f.pairs) or "()" for f in self.maps
        )
        return f"[{legs}]->{'|'.join(self.target.events) or 'empty'}"


# ---- the operad container -----------------------------------------------------


class Operad:
    """A colored symmetric operad given by tokens plus composition rules.

    ``compose_rule``/``action_rule`` may be dicts (explicit tables) or
    callables (computed operads); results are memoized either way.  The
    listed ``operations`` are the materialized window; computed operads may
    return values outside it (e.g. higher-arity composites), which is fine
    for law checking since tokens compare by value.
    """

    def __init__(
        self,
        colors: Iterable[Hashable],
        operations: Iterable[Hashable],
        units: Mapping[Hashable, Hashable],
        compose_rule,
        action_rule,
        name: str = "operad",
    ):
        self.name = name
        self.colors = tuple(dict.fromkeys(colors))
        self.operations = tuple(dict.fromkeys(operations))
        self._units = dict(units)
        self._compose_rule = compose_rule
        self._action_rule = action_rule
        self._compose_memo: dict = {}
        self._action_memo: dict = {}
        colors = set(self.colors)
        for c in self._units:
            if c not in colors:
                raise ValueError(f"unit declared for unknown color {c!r}")

    def __repr__(self) -> str:
        return f"Operad({self.name}, colors={len(self.colors)}, ops={len(self.operations)})"

    def ops(self, arity: int | None = None) -> tuple:
        if arity is None:
            return self.operations
        return tuple(op for op in self.operations if len(op.inputs) == arity)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(sorted({len(op.inputs) for op in self.operations}))

    def unit(self, color: Hashable):
        try:
            return self._units[color]
        except KeyError:
            raise ValueError(f"no unit for color {color!r}") from None

    def compose(self, outer, inners: Sequence):
        inners = tuple(inners)
        key = (outer, inners)
        if key in self._compose_memo:
            # stored only after the arity and color tests below passed
            return self._compose_memo[key]
        if len(inners) != len(outer.inputs):
            raise ValueError("arity mismatch in composition")
        for slot, inner in zip(outer.inputs, inners):
            if inner.output != slot:
                raise ValueError("input color mismatch in composition")
        if isinstance(self._compose_rule, Mapping):
            try:
                result = self._compose_rule[key]
            except KeyError:
                raise ValueError(
                    f"composition not tabulated for {outer} with {len(inners)} inners"
                ) from None
        else:
            result = self._compose_rule(outer, inners)
        expected_inputs = tuple(
            itertools.chain.from_iterable(inner.inputs for inner in inners)
        )
        if result.inputs != expected_inputs or result.output != outer.output:
            raise ValueError(f"composition rule broke the signature at {outer}")
        self._compose_memo[key] = result
        return result

    def act(self, op, sigma: Sequence[int]):
        sigma = tuple(sigma)
        if len(sigma) != len(op.inputs):
            raise ValueError("permutation arity mismatch")
        key = (op, sigma)
        if key in self._action_memo:
            return self._action_memo[key]
        if isinstance(self._action_rule, Mapping):
            try:
                result = self._action_rule[key]
            except KeyError:
                raise ValueError(f"action not tabulated for {op} by {sigma}") from None
        else:
            result = self._action_rule(op, sigma)
        if result.inputs != apply_permutation(op.inputs, sigma) or result.output != op.output:
            raise ValueError(f"action rule broke the signature at {op}")
        self._action_memo[key] = result
        return result

    def composable_inner_tuples(self, outer) -> Iterator[tuple]:
        pools = [self.ops_with_output(c) for c in outer.inputs]
        return itertools.product(*pools)

    def ops_with_output(self, color) -> tuple:
        return tuple(op for op in self.operations if op.output == color)


# ---- axiom checking ------------------------------------------------------------


class _NumberedOperad:
    """``operad``'s composition and action as integer tables, for one audit.

    Window operations are numbered in ``operad.operations`` order, and any
    other value a composite or an action returns gets the next free number,
    so two numbers are equal exactly when their values are.  Each table
    entry is filled on first use through ``operad.compose``/``operad.act``,
    so each distinct key reaches ``operad`` once, at its first use in the
    walk; a key whose rule raises is not stored.  ``inners(i)`` are the
    inner tuples of window operation ``i``, drawn from pools built once per
    color.
    """

    def __init__(self, operad: Operad):
        self.operad = operad
        self.values = Numbering(operad.operations)
        self.pools: dict = {}
        for i, op in enumerate(self.values):
            self.pools.setdefault(op.output, []).append(i)
        self.composites: dict = {}
        self.actions: dict = {}
        self.inner_tuples: dict = {}

    def compose(self, outer: int, inners: tuple[int, ...]) -> int:
        key = (outer, inners)
        n = self.composites.get(key)
        if n is None:
            v = self.values
            n = self.composites[key] = v.number(
                self.operad.compose(v[outer], tuple(map(v.__getitem__, inners))))
        return n

    def act(self, op: int, sigma: tuple[int, ...]) -> int:
        key = (op, sigma)
        n = self.actions.get(key)
        if n is None:
            n = self.actions[key] = self.values.number(self.operad.act(self.values[op], sigma))
        return n

    def inners(self, op: int) -> tuple[tuple[int, ...], ...]:
        found = self.inner_tuples.get(op)
        if found is None:
            pools = self.pools
            found = self.inner_tuples[op] = tuple(itertools.product(
                *[pools.get(c, ()) for c in self.values[op].inputs]))
        return found


def check_operad_axioms(
    operad: Operad,
    max_assoc_checks: int | None = 200_000,
) -> Report:
    """Exhaustively verify the operad laws over the materialized operations.

    Checks signatures, unit laws, associativity, the right action and both
    equivariance compatibilities; every failure is reported with a
    counterexample witness.  Associativity stops after ``max_assoc_checks``
    instances; a check cut short that way reports SKIP, not PASS.

    The laws run on numbers (:class:`_NumberedOperad`), and witnesses are
    rendered from the values; ``oracles.brute_operad_axioms`` in the tests
    walks the same laws on values and is the reference for the report bytes.
    """
    rep = Report()
    target = operad.name
    colors = set(operad.colors)

    bad = [op for op in operad.operations if op.output not in colors
           or any(c not in colors for c in op.inputs)]
    rep.verdict("operad/signatures", target, [str(op) for op in bad])

    unit_bad = []
    for c in operad.colors:
        try:
            u = operad.unit(c)
        except ValueError:
            unit_bad.append(f"missing unit for {c}")
            continue
        if u.inputs != (c,) or u.output != c:
            unit_bad.append(f"unit of {c} has wrong signature")
    rep.verdict("operad/units-present", target, unit_bad)

    N = _NumberedOperad(operad)
    values, compose, act, inners = N.values, N.compose, N.act, N.inners
    window = range(len(values))
    arity = [len(op.inputs) for op in values]
    perms = [tuple(all_permutations(n)) for n in range(max(arity, default=0) + 1)]

    def unit(color) -> int:
        return values.number(operad.unit(color))

    unit_law_bad = []
    if not unit_bad:
        try:
            for i in window:
                op = values[i]
                if compose(unit(op.output), (i,)) != i:
                    unit_law_bad.append(f"unit;{op} != {op}")
                if compose(i, tuple(unit(c) for c in op.inputs)) != i:
                    unit_law_bad.append(f"{op};units != {op}")
        except ValueError as exc:
            unit_law_bad.append(str(exc))
    rep.verdict("operad/unit-laws", target, unit_law_bad)

    assoc_bad = []
    checked = 0
    budget_hit = False
    try:
        for psi in window:
            for phis in inners(psi):
                middle = compose(psi, phis)
                for chis in itertools.product(*map(inners, phis)):
                    if max_assoc_checks is not None and checked >= max_assoc_checks:
                        budget_hit = True
                        break
                    checked += 1
                    lhs = compose(middle, tuple(itertools.chain.from_iterable(chis)))
                    if lhs != compose(psi, tuple(map(compose, phis, chis))):
                        assoc_bad.append(
                            f"({values[psi]}; {[str(values[p]) for p in phis]})")
                if budget_hit:
                    break
            if budget_hit:
                break
    except ValueError as exc:
        assoc_bad.append(str(exc))
    counted = {"checked": checked}
    if budget_hit:
        counted["max_assoc_checks"] = max_assoc_checks
    rep.add("operad/associativity", target,
            FAIL if assoc_bad else SKIP if budget_hit else PASS,
            witness=assoc_bad[:3] or counted)

    action_bad = []
    equiv_bad = []
    try:
        for i in window:
            n = arity[i]
            if act(i, identity_permutation(n)) != i:
                action_bad.append(f"identity action moved {values[i]}")
            for sigma in perms[n]:
                moved = act(i, sigma)
                for tau in perms[n]:
                    if act(moved, tau) != act(i, compose_permutations(sigma, tau)):
                        action_bad.append(f"{values[i]} under {sigma} then {tau}")
    except ValueError as exc:
        action_bad.append(str(exc))
    rep.verdict("operad/right-action", target, action_bad)

    try:
        for psi in window:
            for phis in inners(psi):
                arities = tuple(arity[phi] for phi in phis)
                composite = compose(psi, phis)
                for sigma in perms[arity[psi]]:
                    lhs = compose(act(psi, sigma), apply_permutation(phis, sigma))
                    if lhs != act(composite, block_permutation(sigma, arities)):
                        equiv_bad.append(f"block equivariance at ({values[psi]}, {sigma})")
                for taus in itertools.product(*[perms[k] for k in arities]):
                    lhs = compose(psi, tuple(map(act, phis, taus)))
                    if lhs != act(composite, sum_permutation(taus)):
                        equiv_bad.append(f"sum equivariance at ({values[psi]}, {taus})")
    except ValueError as exc:
        equiv_bad.append(str(exc))
    rep.verdict("operad/equivariance", target, equiv_bad)
    return rep


# ---- prefactorization operads ----------------------------------------------------


def enumerate_embeddings(dom: CausalSet, cod: CausalSet) -> Iterator[CausalEmbedding]:
    """All order embeddings with causally convex image.

    They come in lexicographic order of the images of the sorted domain
    events, which fixes the operation order of the prefactorization operad.
    The search yields order embeddings only, and the hull test keeps the
    convex images, so each map is built unchecked.
    """
    for assign in _pinned_maps(dom, cod, iso=False):
        image = _member_mask(cod, assign.values())
        if _hull_mask(cod, image) == image:
            yield CausalEmbedding._unchecked(dom, cod, tuple(assign.items()))


def prefactorization_operad(
    fragment: Sequence[CausalSet],
    max_arity: int = 3,
    max_colors: int = 6,
    max_events: int = 8,
    max_ops: int = 20_000,
) -> Operad:
    """The operad of pairwise causally disjoint embedding tuples.

    Colors are the fragment causal sets; an n-ary operation is a tuple of
    embeddings with pairwise causally disjoint images into a common target,
    with exactly one 0-ary operation per color (the empty tuple).  The
    materialized window stops at ``max_arity``; composition may produce
    higher arities on demand.
    """
    colors = tuple(dict.fromkeys(fragment))
    if len(colors) > max_colors:
        raise FragmentCapExceeded(
            f"fragment has {len(colors)} colors, cap is {max_colors}"
        )
    for M in colors:
        if len(M) > max_events:
            raise FragmentCapExceeded(
                f"fragment color with {len(M)} events exceeds cap {max_events}"
            )

    singles: dict[tuple[CausalSet, CausalSet], tuple[CausalEmbedding, ...]] = {}
    for dom, cod in itertools.product(colors, repeat=2):
        singles[(dom, cod)] = tuple(enumerate_embeddings(dom, cod))

    operations: list[EmbeddingTuple] = []
    count = 0
    for target in colors:
        for arity in range(0, max_arity + 1):
            if arity == 0:
                operations.append(EmbeddingTuple((), target))
                count += 1
                continue
            pools = [
                emb
                for dom in colors
                for emb in singles[(dom, target)]
            ]
            for combo in itertools.product(pools, repeat=arity):
                if all(
                    are_causally_disjoint(target, f.image, g.image)
                    for f, g in itertools.combinations(combo, 2)
                ):
                    operations.append(EmbeddingTuple(tuple(combo), target))
                    count += 1
                    if count > max_ops:
                        raise FragmentCapExceeded(
                            f"embedding enumeration overflow: more than {max_ops} operations"
                        )

    units = {
        M: EmbeddingTuple((CausalEmbedding.identity(M),), M) for M in colors
    }

    def compose_rule(outer: EmbeddingTuple, inners: tuple[EmbeddingTuple, ...]) -> EmbeddingTuple:
        maps = []
        for leg, inner in zip(outer.maps, inners):
            maps.extend(inner_map.then(leg) for inner_map in inner.maps)
        return EmbeddingTuple(tuple(maps), outer.target)

    def action_rule(op: EmbeddingTuple, sigma: tuple[int, ...]) -> EmbeddingTuple:
        return EmbeddingTuple(apply_permutation(op.maps, sigma), op.target)

    return Operad(colors, operations, units, compose_rule, action_rule,
                  name="prefactorization")


# ---- multifunctors and transformations -------------------------------------------


@dataclass(frozen=True)
class Multifunctor:
    source: Operad
    target: Operad
    on_colors: Mapping
    on_ops: Mapping

    def color(self, c):
        return self.on_colors[c]

    def op(self, psi):
        return self.on_ops[psi]


def check_multifunctor(F: Multifunctor) -> Report:
    """Multifunctor laws over the materialized window, with coverage.

    Finite windows of the embedding and bordism operads are not closed
    under composition (carriers grow under gluing, arities under
    substitution), so composites falling outside the assignment table are
    counted and skipped rather than failed; everything inside the window
    is checked exhaustively.  A window operation with no image is named in
    ``multifunctor/assignment-coverage``, and every law instance that needs
    one is counted there instead of checked.  A composite or action that
    raises ``ValueError`` ends its row's walk and fails it with the text.
    """
    rep = Report()
    src, tgt_op = F.source, F.target
    tgt = f"{src.name}->{tgt_op.name}"
    table = F.on_ops
    unassigned = [psi for psi in src.operations if psi not in table]
    missing = set(unassigned)

    sig_bad = []
    for psi in src.operations:
        image = table.get(psi)
        if image is not None and (image.inputs != tuple(F.color(c) for c in psi.inputs)
                                  or image.output != F.color(psi.output)):
            sig_bad.append(str(psi))
    rep.verdict("multifunctor/signatures", tgt, sig_bad)

    units = [c for c in src.colors if src.unit(c) not in missing]
    unit_bad = [str(c) for c in units if F.op(src.unit(c)) != tgt_op.unit(F.color(c))]
    rep.verdict("multifunctor/units", tgt, unit_bad)

    comp_bad = []
    checked = outside = comp_unassigned = 0
    try:
        for psi in src.operations:
            for phis in src.composable_inner_tuples(psi):
                composite = src.compose(psi, phis)
                if missing and missing.intersection((psi, composite, *phis)):
                    comp_unassigned += 1
                    continue
                if composite not in table:
                    outside += 1
                    continue
                checked += 1
                rhs = tgt_op.compose(F.op(psi), tuple(F.op(p) for p in phis))
                if F.op(composite) != rhs:
                    comp_bad.append(str(psi))
    except ValueError as exc:
        comp_bad.append(str(exc))
    rep.verdict("multifunctor/composition", tgt, comp_bad)
    if outside:
        rep.add("multifunctor/composition-coverage", tgt, SKIP,
                witness={"checked": checked, "outside-window": outside})

    act_bad = []
    act_outside = act_unassigned = 0
    try:
        for psi in src.operations:
            for sigma in all_permutations(len(psi.inputs)):
                moved = src.act(psi, sigma)
                if psi in missing or moved in missing:
                    act_unassigned += 1
                    continue
                if moved not in table:
                    act_outside += 1
                    continue
                if F.op(moved) != tgt_op.act(F.op(psi), sigma):
                    act_bad.append(f"{psi} under {sigma}")
    except ValueError as exc:
        act_bad.append(str(exc))
    rep.verdict("multifunctor/equivariance", tgt, act_bad)
    if act_outside:
        rep.add("multifunctor/equivariance-coverage", tgt, SKIP,
                witness={"outside-window": act_outside})
    if unassigned:
        rep.add("multifunctor/assignment-coverage", tgt, SKIP, witness={
            "unassigned": [str(psi) for psi in unassigned[:3]], "operations": len(unassigned),
            "units": len(src.colors) - len(units), "compositions": comp_unassigned,
            "actions": act_unassigned})
    return rep


@dataclass(frozen=True)
class MultinaturalTransformation:
    source: Multifunctor
    target: Multifunctor
    components: Mapping  # color of the common source operad -> 1-ary op of the common target


def check_multinatural(zeta: MultinaturalTransformation) -> Report:
    rep = Report()
    F, G = zeta.source, zeta.target
    if F.source is not G.source or F.target is not G.target:
        raise ValueError("transformation endpoints do not share operads")
    O, T = F.source, F.target
    tgt = f"{O.name}=>{T.name}"
    comp_bad = []
    for c in O.colors:
        comp = zeta.components[c]
        if comp.inputs != (F.color(c),) or comp.output != G.color(c):
            comp_bad.append(str(c))
    rep.verdict("multinatural/components", tgt, comp_bad)

    nat_bad = []
    for psi in O.operations:
        lhs = T.compose(zeta.components[psi.output], (F.op(psi),))
        rhs = T.compose(G.op(psi), tuple(zeta.components[c] for c in psi.inputs))
        if lhs != rhs:
            nat_bad.append(str(psi))
    rep.verdict("multinatural/naturality", tgt, nat_bad)
    return rep


def compose_multifunctors(F: Multifunctor, G: Multifunctor) -> Multifunctor:
    """G after F."""
    if F.target is not G.source:
        raise ValueError("multifunctors do not compose")
    return Multifunctor(
        F.source,
        G.target,
        {c: G.color(F.color(c)) for c in F.source.colors},
        {psi: G.op(F.op(psi)) for psi in F.source.operations},
    )


def vertical_compose(
    zeta: MultinaturalTransformation, xi: MultinaturalTransformation
) -> MultinaturalTransformation:
    """zeta after xi (components compose in the target operad)."""
    if xi.target is not zeta.source:
        raise ValueError("transformations do not stack")
    T = zeta.source.target
    components = {
        c: T.compose(zeta.components[c], (xi.components[c],))
        for c in zeta.source.source.colors
    }
    return MultinaturalTransformation(xi.source, zeta.target, components)


# ---- finite groupoids ---------------------------------------------------------------


def _reader(keys: tuple) -> Callable[[Mapping], tuple]:
    """The function ``row -> tuple(row[k] for k in keys)``; a missing key raises KeyError."""
    if len(keys) == 1:
        key, = keys
        return lambda row: (row[key],)
    return itemgetter(*keys) if keys else (lambda row: ())


class FiniteGroupoid:
    """Objects and invertible morphisms with explicit tables.

    Values are canonical instances: ``id``, ``compose`` and ``inv`` return
    the stored morphism equal to their result whenever one exists, so
    tables keyed by morphisms are hit by identity instead of by walking
    equal values.

    ``numbers``, a :class:`Numbering`, numbers the morphisms in tuple order,
    and a value that is no morphism (a composite outside the list, an
    inverse, an identity) when it is first met.  ``ends()`` numbers the
    objects in tuple order, on the first ``compose``, ``validate`` or
    ``table``, not before.  Vertical composition is one table on numbers,
    ``table()[f][g]`` being the number of g.f; each entry is filled once,
    on first use, and ``validate`` fills every composable pair.
    """

    def __init__(
        self,
        objects: Iterable[Hashable],
        morphisms: Iterable[Hashable],
        src: Mapping,
        tgt: Mapping,
        compose: Mapping | Callable,
        identities: Mapping,
        inverses: Mapping | Callable,
    ):
        self.objects = tuple(dict.fromkeys(objects))
        self.morphisms = tuple(dict.fromkeys(morphisms))
        self.numbers = Numbering(self.morphisms)
        self._src = dict(src)
        self._tgt = dict(tgt)
        self._compose = (lambda g, f: compose[(g, f)]) if isinstance(compose, Mapping) \
            else compose
        self._id = {obj: self.numbers.canonical(i) for obj, i in identities.items()}
        self._inv = inverses.__getitem__ if isinstance(inverses, Mapping) else inverses
        self._ends: tuple[list[int], list[int]] | None = None
        self._rows: list[dict[int, int]] = []
        self._filled = False

    def __repr__(self) -> str:
        return f"FiniteGroupoid(objects={len(self.objects)}, morphisms={len(self.morphisms)})"

    def src(self, g):
        return self._src[g]

    def tgt(self, g):
        return self._tgt[g]

    def id(self, obj):
        return self._id[obj]

    def ends(self) -> tuple[list[int], list[int]]:
        """The object numbers of each morphism's source and target.

        Objects are numbered in tuple order; an endpoint that is no object
        gets the next free number, so it is at least ``len(self.objects)``.
        """
        if self._ends is None:
            number = Numbering(self.objects).number
            src = [number(self._src[m]) for m in self.morphisms]
            tgt = [number(self._tgt[m]) for m in self.morphisms]
            self._ends = (src, tgt)
            self._rows = [{} for _ in self.morphisms]
        return self._ends

    def after(self) -> list[list[int]]:
        """For each morphism f, the morphisms g with src g = tgt f, in tuple order."""
        src, tgt = self.ends()
        by_src: dict[int, list[int]] = {}
        for g, s in enumerate(src):
            by_src.setdefault(s, []).append(g)
        return [by_src.get(t, []) for t in tgt]

    def composite(self, g: int, f: int) -> int:
        """The number of g after f, for morphism numbers g and f."""
        src, tgt = self.ends()
        row = self._rows[f]
        gf = row.get(g)
        if gf is None:
            if tgt[f] != src[g]:
                raise ValueError("morphisms do not compose")
            gf = row[g] = self.numbers.number(self._compose(self.morphisms[g], self.morphisms[f]))
        return gf

    def table(self) -> list[dict[int, int]]:
        """``table()[f][g]`` is the number of g.f for every composable pair."""
        if not self._filled:
            for f, gs in enumerate(self.after()):
                for g in gs:
                    self.composite(g, f)
            self._filled = True
        return self._rows

    def compose(self, g, f):
        """g after f."""
        count, numbers = len(self.morphisms), self.numbers
        gi, fi = numbers.no.get(g, count), numbers.no.get(f, count)
        if gi < count and fi < count:
            return numbers[self.composite(gi, fi)]
        # outside the table: composed by value; a value with no endpoints
        # composes with nothing
        if f not in self._tgt or g not in self._src or self.tgt(f) != self.src(g):
            raise ValueError("morphisms do not compose")
        return numbers.canonical(self._compose(g, f))

    def inv(self, g):
        return self.numbers.canonical(self._inv(g))

    def validate(self, name: str = "groupoid") -> Report:
        rep = Report()
        ms, numbers = self.morphisms, self.numbers
        number, count = numbers.number, len(ms)
        src, tgt = self.ends()
        dangling = [g for g in range(count)
                    if src[g] >= len(self.objects) or tgt[g] >= len(self.objects)]
        bad = [f"dangling morphism {ms[g]}" for g in dangling]
        for obj in self.objects:
            i = self.id(obj)
            if self._src.get(i) != obj or self._tgt.get(i) != obj:
                bad.append(f"identity of {obj} has wrong endpoints")
        rep.verdict("groupoid/endpoints", name, bad)

        def comp(g: int, f: int) -> int | None:
            if g < count and f < count:
                return self.composite(g, f) if tgt[f] == src[g] else None
            gv, fv = numbers[g], numbers[f]
            if fv not in self._tgt or gv not in self._src or self._tgt[fv] != self._src[gv]:
                return None
            return number(self.compose(gv, fv))

        # The laws on numbers; a pair with a number outside the morphisms is
        # composed by value.  A pair whose ends do not meet, or that holds a
        # value with no endpoints (no morphism), has no composite (None), and
        # a law instance that needs one fails.
        # A dangling morphism need not compose at its dangling end, so a law
        # instance that composes one there is left out: it is already named
        # by the endpoints row.
        law_bad: list[str] = []
        dangling = set(dangling)
        ident = [number(self.id(obj)) for obj in self.objects]
        for g in range(count):
            if g in dangling:
                continue
            s, t = ident[src[g]], ident[tgt[g]]
            if s in dangling or t in dangling:
                continue
            if comp(g, s) != g:
                law_bad.append(f"right identity at {ms[g]}")
            if comp(t, g) != g:
                law_bad.append(f"left identity at {ms[g]}")
            gi = number(self.inv(ms[g]))
            if gi in dangling:
                continue
            if comp(gi, g) != s:
                law_bad.append(f"left inverse at {ms[g]}")
            if comp(g, gi) != t:
                law_bad.append(f"right inverse at {ms[g]}")
        # Associativity: h.(g.f) against (h.g).f for every composable triple,
        # f slowest.  For each (f, g) all h are read from the table at once:
        # then[g] lists the numbers of h.g, and when tgt g.f = tgt g the
        # numbers of h.(g.f) are then[g.f].  When a side is not in the table
        # (a composite outside the morphisms, or one whose endpoints do not
        # meet) or the sides differ, that (f, g) is walked again one h at a
        # time, composing each side as written.
        after = self.after()
        rows = self.table()
        then = [tuple(rows[g][h] for h in hs) for g, hs in enumerate(after)]
        read_then = [_reader(hgs) for hgs in then]  # row of f -> numbers of (h.g).f
        for f in range(count):
            row_f = rows[f]
            for g in after[f]:
                gf = row_f[g]
                try:
                    same = gf < count and tgt[gf] == tgt[g] and then[gf] == read_then[g](row_f)
                except KeyError:
                    same = False
                if not same:
                    for h, hg in zip(after[g], then[g]):
                        if gf in dangling or hg in dangling:
                            continue
                        lhs, rhs = comp(h, gf), comp(hg, f)
                        if lhs is None or lhs != rhs:
                            law_bad.append(f"associativity at ({ms[h]},{ms[g]},{ms[f]})")
        rep.verdict("groupoid/laws", name, law_bad)
        return rep
