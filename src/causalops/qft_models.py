"""Finite-monoid-valued field theory models over causal-set operads.

The target category of observables is fixed to finite monoids under
cartesian product; a model is a multifunctor from a base operad (either a
prefactorization fragment or a truncated bordism fragment) into the operad
of monoids and multi-homs.  This module provides the monoid algebra, the
thin index categories of subregions and Cauchy antichains, filtered
colimits of monoids, and the model-level checkers for time-slice
invertibility, additivity and commutation of causally disjoint images.

Finiteness degenerates a few continuum notions on purpose: relative
compactness of regions is vacuous, and the subregion categories can fail
to be filtered (or even transitive) when a surface is pinned against the
maximal layer of its region.  The checkers report those cases as
degenerate instead of failing, so that honest models on small fragments
remain usable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .bordism import PointedObject, resolve_bordism_class, wrapper_bordism
from .causal_core import (
    CausalEmbedding,
    CausalSet,
    _cached_hash,
    cauchy_antichains,
    causal_past,
    chronological_past,
    convex_subsets,
    is_cauchy_embedding,
)
from .errors import NonConstantCocone, NotFiltered
from .operad_kernel import (
    EmbeddingTuple,
    Multifunctor,
    Operad,
    _least_representatives,
    apply_permutation,
    check_multifunctor,
    invert_permutation,
)
from .report import DEGENERATE, FAIL, PASS, SKIP, Report

__all__ = [
    "canonical_label",
    "Monoid",
    "product_monoid",
    "MonoidHom",
    "compose_monoid_homs",
    "permute_monoid_hom",
    "monoid_operad",
    "ThinCategory",
    "ThinFunctor",
    "is_filtered",
    "is_final",
    "grothendieck",
    "rc_category",
    "rc_pointed_category",
    "sigma_category",
    "q_category",
    "region_forgetful",
    "MonoidColimit",
    "filtered_colimit_monoids",
    "colimit_mediator",
    "QftModel",
    "aqft_model",
    "fqft_model",
    "constant_aqft",
    "constant_fqft",
    "validate_model",
    "check_time_slice",
    "check_additivity_aqft",
    "check_additivity_fqft",
    "check_einstein_causality",
]


def canonical_label(obj) -> str:
    """Deterministic rendering used to order heterogeneous objects.

    Sorting by this label replaces sorting by hash everywhere, so runs are
    reproducible under any PYTHONHASHSEED.
    """
    if isinstance(obj, frozenset):
        return "{" + ",".join(sorted(canonical_label(x) for x in obj)) + "}"
    if isinstance(obj, tuple):
        return "(" + ",".join(canonical_label(x) for x in obj) + ")"
    return str(obj)


def _canonical_pairs(table: Mapping) -> tuple:
    """The items of a table sorted by the canonical label of their keys."""
    return tuple(sorted(table.items(), key=lambda kv: canonical_label(kv[0])))


# ---- finite monoids -------------------------------------------------------------


class Monoid:
    """A finite monoid with an explicit multiplication table."""

    elements: tuple
    unit: Hashable
    pairs: tuple
    name: str

    def __init__(self, elements: Iterable[Hashable],
                 table: Mapping[tuple[Hashable, Hashable], Hashable],
                 unit: Hashable, name: str = ""):
        elems = tuple(sorted(dict.fromkeys(elements), key=canonical_label))
        self.elements = elems
        self.unit = unit
        self.name = name
        pool = set(elems)
        if unit not in pool:
            raise ValueError("unit must be one of the elements")
        table = dict(table)
        if set(table) != set(itertools.product(elems, repeat=2)):
            raise ValueError("multiplication table must cover exactly all pairs")
        for value in table.values():
            if value not in pool:
                raise ValueError(f"product {value!r} lies outside the carrier")
        for a in elems:
            if table[(unit, a)] != a or table[(a, unit)] != a:
                raise ValueError(f"unit law fails at {a!r}")
        for a, b, c in itertools.product(elems, repeat=3):
            if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                raise ValueError(f"associativity fails at ({a!r},{b!r},{c!r})")
        self.pairs = _canonical_pairs(table)
        self._table = table

    @classmethod
    def trivial(cls) -> "Monoid":
        return cls(("e",), {("e", "e"): "e"}, "e", name="1")

    @classmethod
    def cyclic(cls, n: int) -> "Monoid":
        if n < 1:
            raise ValueError("cyclic monoid needs at least one element")
        elems = tuple(range(n))
        table = {(a, b): (a + b) % n for a in elems for b in elems}
        return cls(elems, table, 0, name=f"Z{n}")

    def mul(self, a: Hashable, b: Hashable) -> Hashable:
        return self._table[(a, b)]

    @cached_property
    def is_commutative(self) -> bool:
        return all(self.mul(a, b) == self.mul(b, a)
                   for a, b in itertools.combinations(self.elements, 2))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in set(self.elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monoid):
            return NotImplemented
        return (self.elements == other.elements and self.unit == other.unit
                and self.pairs == other.pairs)

    __hash__ = _cached_hash(lambda self: (Monoid, self.elements, self.unit, self.pairs))

    @cached_property
    def _text(self) -> str:
        if self.name:
            return self.name
        return "monoid[" + ",".join(canonical_label(e) for e in self.elements) + "]"

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Monoid({self._text}, order={len(self.elements)})"


def product_monoid(*factors: Monoid) -> Monoid:
    """Cartesian product; the empty product is the one-element monoid on ()."""
    elems = tuple(itertools.product(*(f.elements for f in factors)))
    table = {
        (a, b): tuple(f.mul(x, y) for f, x, y in zip(factors, a, b))
        for a in elems
        for b in elems
    }
    unit = tuple(f.unit for f in factors)
    name = "*".join(str(f) for f in factors) or "1()"
    return Monoid(elems, table, unit, name=name)


# ---- monoid multi-homs ----------------------------------------------------------


class MonoidHom:
    """A monoid hom out of a finite product, tabulated on argument tuples.

    ``doms`` lists the product factors, so the same class serves both as a
    plain hom (one factor) and as an n-ary operation of the monoid operad
    through the ``inputs``/``output`` protocol.  Keys of ``table`` are
    argument tuples even in the unary case; ``unary`` wraps bare keys.
    """

    doms: tuple[Monoid, ...]
    cod: Monoid

    def __init__(self, doms: Iterable[Monoid], cod: Monoid,
                 table: Mapping[tuple, Hashable]):
        self._load(doms, cod, table)
        table = self._table
        if table[tuple(m.unit for m in self.doms)] != cod.unit:
            raise ValueError("hom must preserve the unit")
        for a in table:
            for b in table:
                ab = tuple(m.mul(x, y) for m, x, y in zip(self.doms, a, b))
                if table[ab] != cod.mul(table[a], table[b]):
                    raise ValueError(f"hom breaks multiplication at {a!r}*{b!r}")

    def _load(self, doms: Iterable[Monoid], cod: Monoid, table: Mapping) -> None:
        """Set the fields from a table of the right shape; no hom law is checked."""
        self.doms = tuple(doms)
        self.cod = cod
        table = dict(table)
        if table.keys() != set(itertools.product(*(m.elements for m in self.doms))):
            raise ValueError("hom table must cover exactly the product carrier")
        pool = frozenset(cod.elements)
        if not pool.issuperset(table.values()):
            value = next(v for v in table.values() if v not in pool)
            raise ValueError(f"hom value {value!r} lies outside the codomain")
        self._table = table

    @classmethod
    def unchecked(cls, doms: Iterable[Monoid], cod: Monoid,
                  table: Mapping[tuple, Hashable]) -> "MonoidHom":
        """Load a table without the hom laws; shape is still checked.

        Homs derived from homs are built this way: :meth:`then`,
        :meth:`inverse`, :meth:`identity`, :func:`compose_monoid_homs` and
        :func:`permute_monoid_hom` are structure maps of the monoid operad,
        so their results are homs whenever their arguments are.  Checkers
        are also exercised through it on raw assignments that provably
        cannot extend to a lawful model; what is derived from those is no
        hom either.
        """
        self = object.__new__(cls)
        self._load(doms, cod, table)
        return self

    @classmethod
    def unary(cls, dom: Monoid, cod: Monoid,
              mapping: Mapping[Hashable, Hashable]) -> "MonoidHom":
        return cls((dom,), cod, {(k,): v for k, v in mapping.items()})

    @classmethod
    def identity(cls, M: Monoid) -> "MonoidHom":
        return cls.unchecked((M,), M, {(e,): e for e in M.elements})

    # operations participate in operads through the .inputs/.output protocol
    @property
    def inputs(self) -> tuple[Monoid, ...]:
        return self.doms

    @property
    def output(self) -> Monoid:
        return self.cod

    @property
    def arity(self) -> int:
        return len(self.doms)

    def __call__(self, *args: Hashable) -> Hashable:
        return self._table[args]

    @cached_property
    def pairs(self) -> tuple:
        """The table's items, argument tuples in canonical label order."""
        return _canonical_pairs(self._table)

    def then(self, other: "MonoidHom") -> "MonoidHom":
        """Postcompose with a unary hom."""
        if other.arity != 1 or other.doms[0] != self.cod:
            raise ValueError("postcomposition needs a unary hom out of the codomain")
        return MonoidHom.unchecked(self.doms, other.cod,
                                   {args: other(v) for args, v in self._table.items()})

    @cached_property
    def is_isomorphism(self) -> bool:
        values = set(self._table.values())
        return (self.arity == 1
                and len(values) == len(self._table)
                and len(values) == len(self.cod.elements))

    def inverse(self) -> "MonoidHom":
        """The inverse of a bijective unary hom."""
        if not self.is_isomorphism:
            raise ValueError("only bijective unary homs invert")
        return MonoidHom.unchecked((self.cod,), self.doms[0],
                                   {(v,): args[0] for args, v in self._table.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonoidHom):
            return NotImplemented
        return (self.doms == other.doms and self.cod == other.cod
                and self._table == other._table)

    __hash__ = _cached_hash(
        lambda self: (MonoidHom, self.doms, self.cod, frozenset(self._table.items())))

    @cached_property
    def _text(self) -> str:
        ins = ",".join(str(m) for m in self.doms)
        body = ";".join(
            f"{canonical_label(a)}>{canonical_label(v)}" for a, v in self.pairs
        )
        return f"hom[{body}]({ins})->{self.cod}"

    def __str__(self) -> str:
        return self._text


def _is_identity(h: MonoidHom, M: Monoid) -> bool:
    """Whether ``h`` equals ``MonoidHom.identity(M)``, read off its table."""
    return (h.doms == (M,) and h.cod == M
            and all(args[0] == v for args, v in h._table.items()))


def compose_monoid_homs(outer: MonoidHom, inners: Sequence[MonoidHom]) -> MonoidHom:
    """Feed each inner multi-hom into one slot of the outer one."""
    inners = tuple(inners)
    if len(inners) != outer.arity:
        raise ValueError("arity mismatch in hom composition")
    for slot, inner in zip(outer.doms, inners):
        if inner.cod != slot:
            raise ValueError("inner codomain differs from the outer factor")
    doms = tuple(itertools.chain.from_iterable(h.doms for h in inners))
    table = {
        tuple(itertools.chain.from_iterable(args for args, _ in combo)):
            outer(*(value for _, value in combo))
        for combo in itertools.product(*(h._table.items() for h in inners))
    }
    return MonoidHom.unchecked(doms, outer.cod, table)


def permute_monoid_hom(hom: MonoidHom, sigma: Sequence[int]) -> MonoidHom:
    """Right action: reorder the product factors and transpose the table."""
    sigma = tuple(sigma)
    if len(sigma) != hom.arity:
        raise ValueError("permutation arity mismatch")
    doms = apply_permutation(hom.doms, sigma)
    inv = invert_permutation(sigma)
    table = {args: hom(*apply_permutation(args, inv))
             for args in itertools.product(*(m.elements for m in doms))}
    return MonoidHom.unchecked(doms, hom.cod, table)


def monoid_operad(monoids: Iterable[Monoid],
                  operations: Iterable[MonoidHom] = (),
                  name: str = "monoids") -> Operad:
    """The operad of monoids and multi-homs, materialized on a window."""
    colors = tuple(dict.fromkeys(monoids))
    units = {A: MonoidHom.identity(A) for A in colors}
    window = tuple(dict.fromkeys(itertools.chain(units.values(), operations)))
    return Operad(colors, window, units,
                  compose_monoid_homs, permute_monoid_hom, name=name)


# ---- thin categories ------------------------------------------------------------


class ThinCategory:
    """Objects with at most one morphism between any ordered pair.

    The relation is stored as given.  Reflexivity is demanded at
    construction (all our region categories carry identities); transitivity
    is reported through ``is_transitive`` instead of enforced, because the
    finite subregion relations genuinely fail it on some spacetimes.
    """

    objects: tuple

    def __init__(self, objects: Iterable,
                 relation: Iterable[tuple] | Callable[[Hashable, Hashable], bool]):
        self.objects = tuple(sorted(dict.fromkeys(objects), key=canonical_label))
        pool = set(self.objects)
        if callable(relation):
            pairs = {
                (a, b)
                for a, b in itertools.product(self.objects, repeat=2)
                if relation(a, b)
            }
        else:
            pairs = {(a, b) for a, b in relation if a in pool and b in pool}
        for o in self.objects:
            if (o, o) not in pairs:
                raise ValueError(f"relation must be reflexive; missing id at {o!r}")
        self._pairs = frozenset(pairs)

    def has(self, a: Hashable, b: Hashable) -> bool:
        return (a, b) in self._pairs

    @cached_property
    def hom_pairs(self) -> tuple:
        return tuple(sorted(
            self._pairs,
            key=lambda p: (canonical_label(p[0]), canonical_label(p[1])),
        ))

    @property
    def is_empty(self) -> bool:
        return not self.objects

    @cached_property
    def is_transitive(self) -> bool:
        return self.transitivity_gaps == ()

    @cached_property
    def transitivity_gaps(self) -> tuple:
        """Composable pairs without a composite, worst offenders first."""
        succ: dict = {o: [] for o in self.objects}
        for a, b in self._pairs:
            if a != b:
                succ[a].append(b)
        gaps = []
        for a in self.objects:
            for b in succ[a]:
                for c in succ[b]:
                    if (a, c) not in self._pairs:
                        gaps.append((a, b, c))
        gaps.sort(key=lambda t: tuple(canonical_label(x) for x in t))
        return tuple(gaps)

    def upper_bounds(self, a: Hashable, b: Hashable) -> tuple:
        return tuple(o for o in self.objects if self.has(a, o) and self.has(b, o))

    def is_connected(self) -> bool:
        """Zigzag connectivity; the empty category counts as disconnected."""
        if not self.objects:
            return False
        seen = {self.objects[0]}
        frontier = [self.objects[0]]
        while frontier:
            x = frontier.pop()
            for y in self.objects:
                if y not in seen and (self.has(x, y) or self.has(y, x)):
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == len(self.objects)

    def full_subcategory(self, objects: Iterable) -> "ThinCategory":
        keep = set(objects) & set(self.objects)
        return ThinCategory(keep, lambda a, b: self.has(a, b))

    def __len__(self) -> int:
        return len(self.objects)

    def __repr__(self) -> str:
        return f"ThinCategory(objects={len(self.objects)}, homs={len(self._pairs)})"


@dataclass(frozen=True, eq=False)
class ThinFunctor:
    """An object map between thin categories that preserves the relation."""

    dom: ThinCategory
    cod: ThinCategory
    mapping: Mapping

    def __post_init__(self) -> None:
        cod_pool = set(self.cod.objects)
        for o in self.dom.objects:
            if o not in self.mapping:
                raise ValueError(f"functor is undefined at {o!r}")
            if self.mapping[o] not in cod_pool:
                raise ValueError(f"functor image of {o!r} is not a codomain object")
        for a, b in self.dom.hom_pairs:
            if not self.cod.has(self.mapping[a], self.mapping[b]):
                raise ValueError(f"functor does not preserve {a!r} -> {b!r}")

    def obj(self, o: Hashable) -> Hashable:
        return self.mapping[o]


def _unbounded_pair(C: ThinCategory) -> tuple | None:
    """The first pair of distinct objects, in ``itertools.combinations``
    order, with no upper bound in ``C``; None when every pair has one.

    A pair ``(a, a)`` is always bounded by ``a``, since ``ThinCategory``
    enforces reflexivity, so only distinct pairs are scanned.
    """
    return next(
        ((a, b) for a, b in itertools.combinations(C.objects, 2)
         if not C.upper_bounds(a, b)),
        None,
    )


def is_filtered(C: ThinCategory) -> bool:
    """Nonempty with an upper bound for every pair; enough in the thin case."""
    return not C.is_empty and _unbounded_pair(C) is None


def is_final(F: ThinFunctor) -> bool:
    """Every comma category under a codomain object is nonempty and connected."""
    return all(
        F.dom.full_subcategory(
            d for d in F.dom.objects if F.cod.has(c, F.obj(d))
        ).is_connected()
        for c in F.cod.objects
    )


def grothendieck(base: ThinCategory,
                 fiber: Callable[[Hashable], ThinCategory]) -> ThinCategory:
    """Total thin category of a base with fiber categories that grow along it.

    A pair (b, x) maps to (b', x') precisely when the base relates b to b'
    and the fiber over b' relates x to x'; fibers are expected to include
    into one another along base morphisms, which holds for the subregion
    fibers used here.
    """
    fibers = {b: fiber(b) for b in base.objects}
    objects = [(b, x) for b in base.objects for x in fibers[b].objects]

    def related(p, q) -> bool:
        (b, x), (b2, x2) = p, q
        if not base.has(b, b2):
            return False
        target = fibers[b2]
        return x in set(target.objects) and target.has(x, x2)

    return ThinCategory(objects, related)


# ---- subregion and surface categories ---------------------------------------------


def rc_category(M: CausalSet) -> ThinCategory:
    """Nonempty causally convex subsets of M under inclusion.

    Relative compactness is vacuous for a finite carrier, so the whole set
    is the top object and the category is always filtered.
    """
    return ThinCategory(convex_subsets(M), lambda a, b: a <= b)


def _pointed_morphism(M: CausalSet, src: tuple, tgt: tuple) -> bool:
    """The inclusion case split shared by the pointed subregion categories.

    The inclusion must respect the collar ordering of the ambient bordism
    operations: into a region reached by a Cauchy inclusion the surface may
    sit weakly below the target surface, otherwise it must sit strictly
    below it.
    """
    (U, S), (U2, S2) = src, tgt
    if not U <= U2:
        return False
    sub2 = M.induced(U2)
    inclusion = CausalEmbedding(M.induced(U), sub2, {e: e for e in U})
    if is_cauchy_embedding(inclusion):
        return S <= causal_past(sub2, S2)
    return S <= chronological_past(sub2, S2)


def _pointed_objects(M: CausalSet, pool: frozenset[str]) -> list[tuple]:
    return [(U, S) for U in convex_subsets(M, pool)
            for S in cauchy_antichains(M.induced(U))]


def rc_pointed_category(MS: PointedObject) -> ThinCategory:
    """Pointed convex subregions strictly below the distinguished surface.

    Objects are pairs (U, S) with U a nonempty causally convex subset of
    the strict past of the surface of ``MS`` and S a Cauchy antichain of U.
    The category is empty when that strict past is empty (a surface on the
    minimal layer); callers flag that case as degenerate.
    """
    M = MS.carrier
    region = chronological_past(M, MS.surface)
    objects = _pointed_objects(M, region)
    return ThinCategory(objects, lambda a, b: _pointed_morphism(M, a, b))


def _surfaces(M: CausalSet) -> tuple[frozenset[str], ...]:
    """The Cauchy antichains of a nonempty M, in ``canonical_label`` order."""
    if not len(M):
        raise NotFiltered("surface category needs a nonempty causal set")
    return tuple(sorted(cauchy_antichains(M), key=canonical_label))


def sigma_category(M: CausalSet) -> ThinCategory:
    """Cauchy antichains of M, related when one lies in the past of the other.

    The maximal-element antichain bounds everything, so the category is
    filtered for every nonempty M.
    """
    return ThinCategory(_surfaces(M), lambda a, b: a <= causal_past(M, b))


def q_category(M: CausalSet) -> ThinCategory:
    """Pointed convex subregions that admit a later Cauchy antichain.

    Discretely that means the region avoids the maximal layer of M; the
    continuum analogue is relative compactness, which is what makes the
    forgetful functor from the surface-indexed total category final.
    """
    pool = frozenset(M.events) - M.maximal_events
    objects = _pointed_objects(M, pool)
    return ThinCategory(objects, lambda a, b: _pointed_morphism(M, a, b))


def region_forgetful(M: CausalSet) -> ThinFunctor:
    """Forget the ambient surface: (Sigma, (U, S)) goes to (U, S)."""
    base = sigma_category(M)
    total = grothendieck(
        base, lambda Sigma: rc_pointed_category(PointedObject(M, Sigma))
    )
    return ThinFunctor(total, q_category(M), {o: o[1] for o in total.objects})


# ---- filtered colimits of monoids ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class MonoidColimit:
    """A colimit monoid with its cocone legs and class bookkeeping."""

    monoid: Monoid
    legs: Mapping
    class_members: Mapping
    collapsed: bool


def _diagram_edges(C: ThinCategory, monoids: Mapping,
                   homs: Mapping) -> dict:
    edges = {}
    for a, b in C.hom_pairs:
        if a == b:
            continue
        try:
            h = homs[(a, b)]
        except KeyError:
            raise ValueError(
                f"diagram is missing the hom for {canonical_label(a)} -> "
                f"{canonical_label(b)}"
            ) from None
        if h.doms != (monoids[a],) or h.cod != monoids[b]:
            raise ValueError(
                f"diagram hom at {canonical_label(a)} -> {canonical_label(b)} "
                "has the wrong endpoints"
            )
        edges[(a, b)] = h
    return edges


def filtered_colimit_monoids(C: ThinCategory, monoids: Mapping,
                             homs: Mapping) -> MonoidColimit:
    """Colimit of a monoid diagram over a filtered thin category.

    The carrier is the disjoint union of the diagram carriers modulo the
    zigzag relation generated by the transition homs, with representatives
    canonicalized to the least pair; multiplication pushes two classes to a
    common upper object.  A diagram that is constant at one monoid with
    identity transitions collapses to that exact monoid with identity
    legs, which keeps round trips on the nose instead of merely
    isomorphic.  A colimit that does not collapse, over at most five
    objects, is always re-verified by brute force: the legs form a cocone,
    they are jointly surjective, and the product does not depend on the
    chosen upper bound.
    """
    return _filtered_colimit(C, monoids, homs, MonoidHom)


def _filtered_colimit(C: ThinCategory, monoids: Mapping, homs: Mapping,
                      hom: Callable[..., MonoidHom]) -> MonoidColimit:
    """:func:`filtered_colimit_monoids`, building each leg as ``hom(doms, cod, table)``."""
    witness = _unbounded_pair(C)
    if C.is_empty or witness is not None:
        detail = (
            f"no upper bound for {canonical_label(witness[0])} and "
            f"{canonical_label(witness[1])}" if witness else "empty category"
        )
        raise NotFiltered(f"colimit index category is not filtered: {detail}")
    for o in C.objects:
        if o not in monoids:
            raise ValueError(f"diagram has no monoid at {canonical_label(o)}")
    edges = _diagram_edges(C, monoids, homs)

    values = set(monoids[o] for o in C.objects)
    if len(values) == 1 and all(
        _is_identity(h, monoids[a]) for (a, _), h in edges.items()
    ):
        A = values.pop()
        identity = hom((A,), A, {(e,): e for e in A.elements})
        legs = {o: identity for o in C.objects}
        members = {e: tuple(sorted(((o, e) for o in C.objects),
                                   key=canonical_label)) for e in A.elements}
        return MonoidColimit(A, legs, members, collapsed=True)

    atoms = [(o, e) for o in C.objects for e in monoids[o].elements]
    links = (((a, e), (b, h(e)))
             for (a, b), h in edges.items() for e in monoids[a].elements)
    least = _least_representatives(atoms, links, canonical_label)
    classes: dict = {}
    for atom, rep in least.items():
        classes.setdefault(rep, []).append(atom)
    members = {
        rep: tuple(sorted(mem, key=canonical_label))
        for rep, mem in classes.items()
    }
    carrier = tuple(sorted(members, key=canonical_label))

    def push(obj, elt, target):
        if obj == target:
            return elt
        return edges[(obj, target)](elt)

    def bound_for(a_obj, b_obj):
        options = C.upper_bounds(a_obj, b_obj)
        return min(options, key=canonical_label)

    def multiply(p, q):
        w = bound_for(p[0], q[0])
        return least[(w, monoids[w].mul(push(*p, w), push(*q, w)))]

    table = {(p, q): multiply(p, q) for p in carrier for q in carrier}
    unit_obj = C.objects[0]
    unit = least[(unit_obj, monoids[unit_obj].unit)]
    colimit = Monoid(carrier, table, unit,
                     name=f"colim[{len(C.objects)}]")
    legs = {
        o: hom((monoids[o],), colimit,
               {(e,): least[(o, e)] for e in monoids[o].elements})
        for o in C.objects
    }

    if len(C.objects) <= 5:
        _verify_colimit(C, monoids, edges, legs, members, multiply)
    return MonoidColimit(colimit, legs, members, collapsed=False)


def _verify_colimit(C, monoids, edges, legs, members, multiply) -> None:
    """Brute-force re-verification of the universal-property ingredients."""
    for (a, b), h in edges.items():
        for e in monoids[a].elements:
            if legs[b](h(e)) != legs[a](e):
                raise AssertionError(f"cocone legs disagree along {a} -> {b}")
    hit = {legs[o](e) for o in C.objects for e in monoids[o].elements}
    if hit != set(next(iter(legs.values())).cod.elements):
        raise AssertionError("cocone legs are not jointly surjective")
    for rep_p, mem_p in members.items():
        for rep_q, mem_q in members.items():
            expected = multiply(rep_p, rep_q)
            for p in mem_p:
                for q in mem_q:
                    for w in C.upper_bounds(p[0], q[0]):
                        x = p[1] if p[0] == w else edges[(p[0], w)](p[1])
                        y = q[1] if q[0] == w else edges[(q[0], w)](q[1])
                        got = legs[w](monoids[w].mul(x, y))
                        if got != expected:
                            raise AssertionError(
                                "multiplication depends on the choice of "
                                f"upper bound at {p} * {q}"
                            )


def colimit_mediator(colim: MonoidColimit, cocone: Mapping,
                     target: Monoid) -> MonoidHom:
    """The unique hom out of the colimit through a compatible cocone.

    Compatibility is always checked: a cocone that is not constant on some
    colimit class raises :class:`NonConstantCocone`.
    """
    return MonoidHom(*_mediator_parts(colim, cocone, target))


def _mediator_parts(colim: MonoidColimit, cocone: Mapping, target: Monoid) -> tuple:
    table = {}
    for element, mem in colim.class_members.items():
        obj, elt = mem[0]
        value = table[(element,)] = cocone[obj](elt)
        for o, e in mem:
            if cocone[o](e) != value:
                raise NonConstantCocone(
                    f"cocone is not constant on the class of {element}"
                )
    return (colim.monoid,), target, table


# ---- model containers ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QftModel:
    """A multifunctor from a base operad into monoids.

    The base is a prefactorization fragment for a region model (AQFT) or a
    truncated bordism fragment for a surface model (FQFT).
    """

    base: Operad
    assignment: Multifunctor

    def __post_init__(self) -> None:
        if self.assignment.source is not self.base:
            raise ValueError("assignment must be defined on the base operad")

    def value(self, color) -> Monoid:
        return self.assignment.color(color)

    def hom(self, op) -> MonoidHom:
        return self.assignment.op(op)


def _model_assignment(base: Operad, colors: Mapping, ops: Mapping,
                      name: str) -> Multifunctor:
    target = monoid_operad(
        (colors[c] for c in base.colors),
        (ops[psi] for psi in base.operations if psi in ops),
        name=name,
    )
    return Multifunctor(base, target, dict(colors), dict(ops))


def aqft_model(base: Operad, colors: Mapping, ops: Mapping,
               name: str = "aqft-target") -> QftModel:
    return QftModel(base, _model_assignment(base, colors, ops, name))


def fqft_model(base: Operad, colors: Mapping, ops: Mapping,
               name: str = "fqft-target") -> QftModel:
    return QftModel(base, _model_assignment(base, colors, ops, name))


def _constant_assignment(base: Operad, monoid: Monoid) -> tuple[dict, dict]:
    if any(len(psi.inputs) >= 2 for psi in base.operations) and not monoid.is_commutative:
        raise ValueError(
            "constant models need a commutative monoid once binary "
            "operations appear"
        )
    colors = {c: monoid for c in base.colors}
    by_arity = {}
    for n in sorted({len(psi.inputs) for psi in base.operations}):
        table = {}
        for args in itertools.product(monoid.elements, repeat=n):
            value = monoid.unit
            for x in args:
                value = monoid.mul(value, x)
            table[args] = value
        by_arity[n] = MonoidHom((monoid,) * n, monoid, table)
    return colors, {psi: by_arity[len(psi.inputs)] for psi in base.operations}


def constant_aqft(base: Operad, monoid: Monoid) -> QftModel:
    """Every region gets the same monoid; operations multiply the slots."""
    colors, ops = _constant_assignment(base, monoid)
    return aqft_model(base, colors, ops, name=f"const-{monoid}")


def constant_fqft(base: Operad, monoid: Monoid) -> QftModel:
    colors, ops = _constant_assignment(base, monoid)
    return fqft_model(base, colors, ops, name=f"const-{monoid}")


def validate_model(model: QftModel) -> Report:
    """The multifunctor laws of the model's assignment over its window."""
    return check_multifunctor(model.assignment)


# ---- time-slice ------------------------------------------------------------------


def _is_cauchy_unary(op) -> bool:
    """Whether a 1-ary base operation is a Cauchy morphism in its own terms."""
    if isinstance(op, EmbeddingTuple):
        return is_cauchy_embedding(op.maps[0])
    members = getattr(op, "members", None)
    if members is not None:
        return any(getattr(m, "is_cauchy_case", False) for m in members)
    return False


def check_time_slice(model: QftModel) -> Report:
    """Every Cauchy embedding or bordism class must go to a monoid isomorphism.

    A unit or Cauchy operation with no image is named in
    ``timeslice/coverage`` and left unchecked.
    """
    rep = Report()
    base, table = model.base, model.assignment.on_ops
    tgt = base.name
    units = {base.unit(c): c for c in base.colors}
    unit_bad = [canonical_label(c) for u, c in units.items()
                if u in table and not _is_identity(table[u], model.value(c))]
    rep.verdict("timeslice/units", tgt, sorted(unit_bad))

    cauchy_ops = sorted(
        (op for op in base.ops(1) if _is_cauchy_unary(op)),
        key=canonical_label,
    )
    bad = [f"{canonical_label(op)} maps to a non-invertible hom"
           for op in cauchy_ops if op in table and not table[op].is_isomorphism]
    status = FAIL if bad else PASS
    witness = bad[:3] if bad else (None if cauchy_ops else "no Cauchy operations")
    rep.add("timeslice/cauchy-isos", tgt, status, witness=witness)
    unassigned = [op for op in (*units, *cauchy_ops) if op not in table]
    if unassigned:
        rep.add("timeslice/coverage", tgt, SKIP, witness={
            "unassigned": [canonical_label(op) for op in unassigned[:3]],
            "units": sum(u not in table for u in units),
            "cauchy-operations": sum(op not in table for op in cauchy_ops),
        })
    return rep


# ---- additivity --------------------------------------------------------------------


def _additivity_verdict(tgt: str, C: ThinCategory, available: list, value: Monoid,
                        diagram: Callable, comparison_legs: Callable) -> Report:
    """Shared trunk: restrict, take the colimit, compare against the value."""
    rep = Report()
    if C.is_empty:
        rep.add("additivity/region-category", tgt, DEGENERATE,
                witness="empty region category")
        rep.add("additivity/comparison", tgt, DEGENERATE,
                witness={"value-is-trivial": len(value) == 1})
        return rep
    if not available:
        rep.add("additivity/region-category", tgt, DEGENERATE,
                witness="no subregions materialized in the fragment")
        rep.add("additivity/comparison", tgt, SKIP)
        return rep
    # ``available`` is a nonempty part of ``C``, so ``sub`` is nonempty and
    # filtered exactly when no pair lacks an upper bound
    sub = C.full_subcategory(available)
    pair = _unbounded_pair(sub)
    if pair is not None:
        rep.add("additivity/region-category", tgt, DEGENERATE,
                witness=[canonical_label(pair[0]), canonical_label(pair[1])])
        rep.add("additivity/comparison", tgt, SKIP)
        return rep
    rep.add("additivity/region-category", tgt, PASS)

    monoids, homs = diagram(sub)
    colim = filtered_colimit_monoids(sub, monoids, homs)
    legs = comparison_legs(sub)
    try:
        comparison = colimit_mediator(colim, legs, value)
    except ValueError as err:
        rep.add("additivity/comparison", tgt, FAIL,
                witness=f"comparison is not a hom: {err}")
        return rep
    if comparison.is_isomorphism:
        rep.add("additivity/comparison", tgt, PASS)
    else:
        image = {v for _, v in comparison.pairs}
        missed = sorted(
            (canonical_label(e) for e in value.elements if e not in image),
        )
        detail = (
            f"not surjective, missing {missed[:3]}" if missed
            else "not injective"
        )
        rep.add("additivity/comparison", tgt, FAIL, witness=detail)
    return rep


def check_additivity_aqft(A: QftModel, M: CausalSet) -> Report:
    """The value at M must be the colimit over its fragment subregions.

    The diagram runs over the proper causally convex subsets of M that are
    materialized as base colors; including M itself would make the
    comparison trivially invertible.  Missing transition operations raise,
    since then the fragment cannot express the restriction functor at all.
    """
    tgt = canonical_label(frozenset(M.events))
    if M not in A.base.colors:
        raise ValueError("additivity target must be a color of the base")
    color_pool = set(A.base.colors)
    C = rc_category(M)
    proper = [U for U in C.objects if U != frozenset(M.events)]
    available = [U for U in proper if M.induced(U) in color_pool]

    def inclusion_op(U: frozenset, V_color: CausalSet) -> EmbeddingTuple:
        emb = CausalEmbedding(M.induced(U), V_color, {e: e for e in U})
        op = EmbeddingTuple((emb,), V_color)
        if op not in A.base.operations:
            raise ValueError(
                f"fragment lacks the inclusion of {canonical_label(U)} "
                f"into {canonical_label(frozenset(V_color.events))}"
            )
        return op

    def diagram(sub: ThinCategory):
        monoids = {U: A.value(M.induced(U)) for U in sub.objects}
        homs = {
            (U, V): A.hom(inclusion_op(U, M.induced(V)))
            for U, V in sub.hom_pairs
            if U != V
        }
        return monoids, homs

    def comparison_legs(sub: ThinCategory):
        return {U: A.hom(inclusion_op(U, M)) for U in sub.objects}

    proper_only = ThinCategory(proper, lambda a, b: a <= b) if proper else \
        ThinCategory((), ())
    return _additivity_verdict(tgt, proper_only, available, A.value(M),
                               diagram, comparison_legs)


def check_additivity_fqft(F: QftModel, MS: PointedObject) -> Report:
    """The value at a pointed region must be the colimit below its surface.

    Degenerate outcomes are reported, not failed: the region category is
    empty whenever the surface touches the minimal layer, and its
    restriction to fragment colors can fail to be filtered on finite
    carriers; both are artifacts of discreteness rather than of the model.
    """
    tgt = str(MS)
    if MS not in F.base.colors:
        raise ValueError("additivity target must be a color of the base")
    M = MS.carrier
    color_pool = set(F.base.colors)
    C = rc_pointed_category(MS)
    available = [
        (U, S) for U, S in C.objects
        if PointedObject(M.induced(U), S) in color_pool
    ]

    def pointed(obj: tuple) -> PointedObject:
        return PointedObject(M.induced(obj[0]), obj[1])

    def hom_into(obj: tuple, target: PointedObject) -> MonoidHom:
        op = EmbeddingTuple(
            (CausalEmbedding.inclusion(target.carrier, obj[0]),), target.carrier
        )
        b = wrapper_bordism(op, (obj[1],), target.surface)
        return F.hom(resolve_bordism_class(F.base, b))

    def diagram(sub: ThinCategory):
        monoids = {o: F.value(pointed(o)) for o in sub.objects}
        homs = {
            (a, b): hom_into(a, pointed(b))
            for a, b in sub.hom_pairs if a != b
        }
        return monoids, homs

    def comparison_legs(sub: ThinCategory):
        return {o: hom_into(o, MS) for o in sub.objects}

    return _additivity_verdict(tgt, C, available, F.value(MS),
                               diagram, comparison_legs)


# ---- causal commutation --------------------------------------------------------------


def check_einstein_causality(A: QftModel) -> Report:
    """Images of the two slots of every binary operation must commute.

    Binary operations of the embedding operads have causally disjoint
    inputs by construction, and for a lawful multifunctor commutation is
    automatic because both products factor through the hom out of the
    product monoid.  The check therefore only ever fails on raw
    assignments that cannot extend to a model.
    """
    rep = Report()
    tgt = A.base.name
    binary = sorted(A.base.ops(2), key=canonical_label)
    if not binary:
        rep.add("causality/commutation", tgt, PASS,
                witness="no binary operations")
        return rep
    bad = []
    skipped = []
    for psi in binary:
        if psi not in A.assignment.on_ops:
            skipped.append(canonical_label(psi))
            continue
        h = A.hom(psi)
        cod = h.cod
        e1, e2 = h.doms[0].unit, h.doms[1].unit
        for x in h.doms[0].elements:
            left = h(x, e2)
            for y in h.doms[1].elements:
                right = h(e1, y)
                if cod.mul(left, right) != cod.mul(right, left):
                    bad.append(
                        f"{canonical_label(psi)}: images of "
                        f"{canonical_label(x)} and {canonical_label(y)} "
                        "do not commute"
                    )
    rep.verdict("causality/commutation", tgt, bad)
    if skipped:
        rep.add("causality/coverage", tgt, SKIP, witness=skipped[:3])
    return rep
