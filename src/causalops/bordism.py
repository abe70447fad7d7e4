"""Bordisms between pointed causal sets and their operadic composition.

A pointed causal set carries a distinguished Cauchy antichain, its surface.
A bordism embeds collars around several input surfaces and one output
surface into an interpolating causal set; composition cuts away the
overhang above the glued surfaces and forms a pushout along the shared
collar cores.  Two-cells identify bordisms that agree near their whole
surface configuration, and finite windows of the structure materialize as
pseudo-operad tables whose globular collapse is an honest operad.  A germ
at a pointed object is a cell of the object's unit bordism: the unit's
surface configuration is the object's own surface, so a germ from ``a``
to ``b`` is the :class:`TwoCell` from ``a.unit`` to ``b.unit`` with the
same pairs, and there is no separate germ type.

Everything here is exact and deterministic: canonical representatives are
restrictions to convex hulls of surfaces, ``glue_pushout`` names each
pushout after anchors that travel with the pieces, so that composition
commutes with permutation actions on the nose, and all searches enumerate
candidates in sorted order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .causal_core import (
    CausalEmbedding,
    CausalSet,
    _cached_hash,
    _is_induced,
    _pinned_maps,
    causal_past,
    chronological_past,
    convex_hull,
    are_causally_disjoint,
    glue_pushout,
    is_causally_convex,
    is_cauchy_antichain,
    is_cauchy_embedding,
)
from .errors import FragmentCapExceeded, InvalidComposite, InvalidSurface
from .operad_kernel import (EmbeddingTuple, FiniteGroupoid, Numbering, Operad,
                            apply_permutation)
from .pseudo_operad import (PseudoOperadData, TauOperation, _associator_triples,
                            _cell_composites, tau)
from .report import FAIL, PASS, Report

__all__ = [
    "PointedObject",
    "enumerate_germs",
    "Bordism",
    "unit_bordism",
    "wrapper_bordism",
    "validate_bordism",
    "OverhangRegions",
    "overhang_regions",
    "ComposedBordism",
    "compose_bordisms_full",
    "compose_bordisms",
    "permute_bordism",
    "TwoCell",
    "identity_cell",
    "permute_cell",
    "cells_between",
    "globular_cells_between",
    "compose_two_cells",
    "coherence_cells",
    "unitor_cells",
    "companion_bordism",
    "bordism_fragment",
    "truncate_bordisms",
    "resolve_bordism_class",
]


# ---- pointed causal sets -----------------------------------------------------


@dataclass(frozen=True)
class PointedObject:
    """A causal set pointed by one of its Cauchy antichains."""

    carrier: CausalSet
    surface: frozenset[str]

    def __init__(self, carrier: CausalSet, surface: Iterable[str]):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "surface", frozenset(surface))
        stray = self.surface.difference(carrier.events)
        if stray:
            raise InvalidSurface(
                f"surface names {sorted(stray)}, which are not events of "
                f"the carrier {list(carrier.events)}"
            )
        if not is_cauchy_antichain(carrier, self.surface):
            raise InvalidSurface("surface must be a Cauchy antichain of the carrier")

    @cached_property
    def core(self) -> CausalSet:
        """The carrier restricted to the surface, which is its own convex hull."""
        return self.carrier.induced(self.surface)

    @cached_property
    def unit(self) -> "Bordism":
        """The object's one unit bordism: the carrier with full collars.

        Its cells to another object's unit are the germs between the two
        objects, and sharing one instance keeps their comparisons cheap.
        """
        ident = CausalEmbedding.identity(self.carrier)
        return Bordism((self,), self, self.carrier, (ident,), ident)

    __hash__ = _cached_hash(lambda self: (PointedObject, self.carrier, self.surface))

    @cached_property
    def _text(self) -> str:
        return f"<{'|'.join(sorted(self.surface))} in {self.carrier!r}>"

    def __str__(self) -> str:
        return self._text


# ---- bordisms ------------------------------------------------------------------


@dataclass(frozen=True)
class Bordism:
    """A causal set interpolating between pointed inputs and one output.

    Each input embeds a collar from its own carrier into the interpolating
    carrier, and so does the output.  Only shape is enforced here: each
    collar is an induced sub-poset of its object's carrier that holds the
    object's surface, so the surface images are defined.  The semantic
    conditions (convex collars, Cauchy output, disjoint inputs and the
    surface ordering) live in validate_bordism so that broken instances can
    be constructed and diagnosed.
    """

    sources: tuple[PointedObject, ...]
    target: PointedObject
    carrier: CausalSet
    maps_in: tuple[CausalEmbedding, ...]
    map_out: CausalEmbedding

    def __init__(self, sources: Iterable[PointedObject], target: PointedObject,
                 carrier: CausalSet, maps_in: Iterable[CausalEmbedding],
                 map_out: CausalEmbedding):
        object.__setattr__(self, "sources", tuple(sources))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "maps_in", tuple(maps_in))
        object.__setattr__(self, "map_out", map_out)
        if len(self.maps_in) != len(self.sources):
            raise ValueError("one input embedding per source is required")
        for i, (src, emb) in enumerate(zip(self.sources, self.maps_in)):
            if emb.cod != self.carrier:
                raise ValueError(f"input embedding {i} does not land in the carrier")
            self._check_collar(emb, src, f"input collar {i}")
        if self.map_out.cod != self.carrier:
            raise ValueError("output embedding does not land in the carrier")
        self._check_collar(self.map_out, self.target, "output collar")

    @staticmethod
    def _check_collar(emb: CausalEmbedding, obj: PointedObject, what: str) -> None:
        if any(e not in obj.carrier for e in emb.dom.events):
            raise ValueError(f"{what} uses events outside its causal set")
        if not _is_induced(emb.dom, obj.carrier):
            raise ValueError(f"{what} does not carry the induced order")
        if any(e not in emb.dom for e in obj.surface):
            raise ValueError(f"{what} misses its surface")

    # tokens participate in operads through the .inputs/.output protocol
    @property
    def inputs(self) -> tuple[PointedObject, ...]:
        return self.sources

    @property
    def output(self) -> PointedObject:
        return self.target

    @property
    def arity(self) -> int:
        return len(self.sources)

    @cached_property
    def in_collars(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(emb.dom.events) for emb in self.maps_in)

    @cached_property
    def out_collar(self) -> frozenset[str]:
        return frozenset(self.map_out.dom.events)

    @cached_property
    def surface_images(self) -> tuple[frozenset[str], ...]:
        return tuple(
            emb.image_of(src.surface)
            for src, emb in zip(self.sources, self.maps_in)
        )

    @cached_property
    def out_surface_image(self) -> frozenset[str]:
        return self.map_out.image_of(self.target.surface)

    @cached_property
    def surface_hull(self) -> frozenset[str]:
        seed = set(self.out_surface_image)
        for img in self.surface_images:
            seed |= img
        return convex_hull(self.carrier, seed)

    @cached_property
    def hull_core(self) -> CausalSet:
        return self.carrier.induced(self.surface_hull)

    @cached_property
    def is_cauchy_case(self) -> bool:
        """Single input whose collar already covers the carrier causally."""
        return self.arity == 1 and is_cauchy_embedding(self.maps_in[0])

    @property
    def label(self) -> str:
        return f"{self.arity}-ary bordism on {len(self.carrier.events)} events"

    __hash__ = _cached_hash(lambda self: (Bordism, self.sources, self.target, self.carrier,
                                          self.maps_in, self.map_out))

    @cached_property
    def _text(self) -> str:
        ins = ";".join(
            ",".join(f"{a}>{b}" for a, b in emb.pairs) or "()"
            for emb in self.maps_in
        )
        out = ",".join(f"{a}>{b}" for a, b in self.map_out.pairs)
        srcs = ",".join(str(s) for s in self.sources)
        return f"bord[{ins}|{out}]({srcs}=>{self.target};{self.carrier!r})"

    def __str__(self) -> str:
        return self._text


def unit_bordism(obj: PointedObject) -> Bordism:
    """The identity bordism: the carrier itself with full collars."""
    return obj.unit


def wrapper_bordism(op: EmbeddingTuple, surfaces, later) -> Bordism:
    """The full-collar bordism presenting ``op`` between decorated colors.

    The carrier is the target of the embedding tuple itself, every collar is
    the whole causal set, and the output map is the identity; only the
    choice of input surfaces and of the later output surface varies.

    ``surfaces[i]`` is a Cauchy antichain of ``op.maps[i].dom`` in the
    domain's own event names, not its image in the target; ``later`` is a
    Cauchy antichain of ``op.target`` in the target's names.  An input
    surface naming events outside its domain raises :class:`InvalidSurface`.
    """
    for i, (m, s) in enumerate(zip(op.maps, surfaces)):
        stray = frozenset(s).difference(m.dom.events)
        if stray:
            raise InvalidSurface(
                f"input surface {sorted(s)} of map {i} names {sorted(stray)}, "
                f"which are not events of its domain {list(m.dom.events)}; "
                "input surfaces use the domain's own event names"
            )
    sources = tuple(
        PointedObject(m.dom, s) for m, s in zip(op.maps, surfaces)
    )
    return Bordism(sources, PointedObject(op.target, later), op.target,
                   op.maps, CausalEmbedding.identity(op.target))


def validate_bordism(b: Bordism) -> Report:
    """Check the semantic bordism conditions, one report entry per aspect."""
    rep = Report()
    t = b.label

    # each collar holds its surface, which the constructor checks
    collar_bad = [f"input collar {i} is not causally convex"
                  for i, (src, collar) in enumerate(zip(b.sources, b.in_collars))
                  if not is_causally_convex(src.carrier, collar)]
    rep.verdict("bordism/in-collars", t, collar_bad)

    out_convex = is_causally_convex(b.target.carrier, b.out_collar)
    rep.verdict("bordism/out-collar", t,
                [] if out_convex else ["output collar is not causally convex"])

    out_cauchy = is_cauchy_embedding(b.map_out)
    rep.add("bordism/out-cauchy", t, PASS if out_cauchy else FAIL,
            witness=None if out_cauchy
            else "output image contains no Cauchy antichain of the carrier")

    dis_bad = [
        f"input images {i} and {j} are causally related"
        for i, j in itertools.combinations(range(b.arity), 2)
        if not are_causally_disjoint(b.carrier, b.maps_in[i].image,
                                     b.maps_in[j].image)
    ]
    rep.verdict("bordism/disjoint-inputs", t, dis_bad)

    if b.arity == 0:
        rep.add("bordism/surface-order", t, PASS, witness="no inputs")
    elif b.is_cauchy_case:
        past = causal_past(b.carrier, b.out_surface_image)
        ok = b.surface_images[0] <= past
        rep.add("bordism/surface-order", t, PASS if ok else FAIL,
                witness=None if ok
                else "input surface leaves the causal past of the output surface")
    else:
        strict = chronological_past(b.carrier, b.out_surface_image)
        offenders = sorted(
            e for img in b.surface_images for e in img if e not in strict
        )
        rep.add("bordism/surface-order", t, PASS if not offenders else FAIL,
                witness=offenders[:5] or None)
    return rep


def permute_bordism(b: Bordism, sigma: Sequence[int]) -> Bordism:
    """Reindex the inputs by a permutation acting on the right."""
    sigma = tuple(sigma)
    return Bordism(
        apply_permutation(b.sources, sigma),
        b.target,
        b.carrier,
        apply_permutation(b.maps_in, sigma),
        b.map_out,
    )


# ---- overhang regions and composition -------------------------------------------


@dataclass(frozen=True)
class OverhangRegions:
    """The three regions a composition glues along.

    ``upper`` lives in the outer carrier: everything not causally below an
    input surface image, plus the images of the shared collar overlaps.
    ``lower[i]`` lives in the i-th inner carrier: the causal past of its
    outgoing overlap image.  ``overlaps[i]`` is the intersection of the two
    collars inside the shared interface carrier.
    """

    upper: frozenset[str]
    lower: tuple[frozenset[str], ...]
    overlaps: tuple[frozenset[str], ...]


def overhang_regions(outer: Bordism, inners: Sequence[Bordism]) -> OverhangRegions:
    inners = tuple(inners)
    if len(inners) != outer.arity:
        raise ValueError("arity mismatch: one inner bordism per input is required")
    for i, inner in enumerate(inners):
        if inner.target != outer.sources[i]:
            raise ValueError(
                f"inner bordism {i} does not end at the matching input object"
            )
    overlaps = tuple(
        inner.out_collar & outer.in_collars[i]
        for i, inner in enumerate(inners)
    )
    removed: set[str] = set()
    added: set[str] = set()
    for i, w in enumerate(overlaps):
        removed |= causal_past(outer.carrier, outer.surface_images[i])
        added |= outer.maps_in[i].image_of(w)
    upper = frozenset((set(outer.carrier.events) - removed) | added)
    lower = tuple(
        frozenset(causal_past(inner.carrier, inner.map_out.image_of(w)))
        for inner, w in zip(inners, overlaps)
    )
    return OverhangRegions(upper, lower, overlaps)


@dataclass(frozen=True)
class ComposedBordism:
    """A composite together with the gluing data that produced it."""

    bordism: Bordism
    lower_legs: tuple[CausalEmbedding, ...]
    upper_leg: CausalEmbedding


def _failed_checks(b: Bordism, validated: set[Bordism] | None) -> list[str]:
    """The checks ``b`` fails; a value in ``validated`` is not checked again,
    and one that passes is added to it."""
    if validated is not None and b in validated:
        return []
    failed = [e.check for e in validate_bordism(b).failures]
    if not failed and validated is not None:
        validated.add(b)
    return failed


def compose_bordisms_full(outer: Bordism, inners: Sequence[Bordism], *,
                          validated: set[Bordism] | None = None) -> ComposedBordism:
    """Glue inner bordisms into the inputs of an outer one, keeping the legs.

    The outer bordism, every inner one and the composite must pass
    :func:`validate_bordism`, or :class:`InvalidComposite` names the first
    that fails.  ``validated`` is the record of values that already passed,
    owned by the window that :func:`bordism_fragment` builds, or by the
    composition rule of the operad that ``translate.translation_window``
    returns, where it starts as the window's wrappers, and living as long as
    its owner: a value in it is not validated again, and each value that
    passes is added.  A call without one validates every piece.

    Between those checks all holds by construction: the upper region is a
    future set plus convex collar overlaps holding the surfaces, each lower
    region is a past set, so all are convex and keep their surfaces, and
    every restriction, leg and collar is an embedding.  The composite can
    fail ``bordism/out-cauchy``: the glue may cut away the part of the
    outer output collar's Cauchy antichain below an input surface.
    """
    inners = tuple(inners)
    regions = overhang_regions(outer, inners)

    pieces = [("outer", outer)]
    pieces.extend((f"inner {i}", inner) for i, inner in enumerate(inners))
    for what, piece in pieces:
        failed = _failed_checks(piece, validated)
        if failed:
            raise InvalidComposite(f"{what} bordism invalid: {failed[0]}")

    mids = [src.carrier.induced(w) for src, w in zip(outer.sources, regions.overlaps)]
    lowers = [inner.carrier.induced(lo) for inner, lo in zip(inners, regions.lower)]
    upper_poset = outer.carrier.induced(regions.upper)

    def collar(emb: CausalEmbedding, mid: CausalSet, into: CausalSet) -> CausalEmbedding:
        table = emb.table
        return CausalEmbedding._unchecked(mid, into, tuple((e, table[e]) for e in mid.events))

    into_left = [collar(inner.map_out, mid, lo) for inner, mid, lo in zip(inners, mids, lowers)]
    into_right = [collar(emb, mid, upper_poset) for emb, mid in zip(outer.maps_in, mids)]
    glued = glue_pushout(lowers, mids, upper_poset, into_left, into_right)

    new_maps_in = [
        emb.restrict_into(emb.preimage_of(regions.lower[i]), lowers[i])
        .then(glued.left_legs[i])
        for i, inner in enumerate(inners)
        for emb in inner.maps_in
    ]
    pre_out = outer.map_out.preimage_of(regions.upper)
    new_out = outer.map_out.restrict_into(pre_out, upper_poset).then(glued.right_leg)

    composite = Bordism(tuple(s for inner in inners for s in inner.sources),
                        outer.target, glued.result, new_maps_in, new_out)
    failed = _failed_checks(composite, validated)
    if failed:
        raise InvalidComposite("composite failed validation: " + "; ".join(failed))
    return ComposedBordism(composite, glued.left_legs, glued.right_leg)


def compose_bordisms(outer: Bordism, inners: Sequence[Bordism]) -> Bordism:
    return compose_bordisms_full(outer, inners).bordism


_Glue = Callable[[Bordism, tuple[Bordism, ...]], ComposedBordism]


def _gluer(validated: set[Bordism] | None) -> _Glue:
    """compose_bordisms_full, run once per distinct (outer, inners).

    The memo lives in the returned function, which belongs to one caller's
    build and dies with it; every glue hands ``validated`` on.
    """
    memo: dict = {}

    def glue(outer: Bordism, inners: tuple[Bordism, ...]) -> ComposedBordism:
        key = (outer, inners)
        full = memo.get(key)
        if full is None:
            full = memo[key] = compose_bordisms_full(outer, inners,
                                                     validated=validated)
        return full
    return glue


# ---- two-cells -------------------------------------------------------------------


@dataclass(frozen=True)
class TwoCell:
    """A germ of isomorphisms near the whole surface configuration.

    The canonical datum is an order isomorphism between the convex hulls of
    all surface images, matching each input surface image and the output
    surface image slotwise.  A cell between the unit bordisms of two
    pointed objects is a germ between the objects; the boundary germs of
    any cell are derived by factoring through the collar embeddings.

    The constructor validates its table, so it checks the glue's pastings.
    Composites, inverses, identity cells, searched cells and germs, and
    boundary germs hold by construction and are built unchecked, with a
    lazy ``embedding``.  A cell carries each surface image onto its
    partner, so its boundary germs are bijections between surfaces.
    """

    dom: Bordism
    cod: Bordism
    pairs: tuple[tuple[str, str], ...]

    def __init__(self, dom: Bordism, cod: Bordism,
                 mapping: Mapping[str, str] | Iterable[tuple[str, str]]):
        table = dict(mapping)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "pairs", tuple(sorted(table.items())))
        if dom.arity != cod.arity:
            raise ValueError("cells connect bordisms of equal arity")
        if frozenset(table) != dom.surface_hull:
            raise ValueError("cell must be defined on exactly the surface hull")
        emb = CausalEmbedding(dom.hull_core, cod.carrier, table)
        if emb.image != cod.surface_hull:
            raise ValueError("cell image must be exactly the surface hull")
        for i in range(dom.arity):
            if emb.image_of(dom.surface_images[i]) != cod.surface_images[i]:
                raise ValueError(f"cell does not match input surface image {i}")
        if emb.image_of(dom.out_surface_image) != cod.out_surface_image:
            raise ValueError("cell does not match the output surface image")
        self.__dict__["embedding"] = emb  # an attribute, not a field

    @classmethod
    def _unchecked(cls, dom: Bordism, cod: Bordism,
                   pairs: tuple[tuple[str, str], ...]) -> "TwoCell":
        """The cell of these sorted ``pairs``, a cell by construction."""
        cell = object.__new__(cls)
        cell.__dict__.update(dom=dom, cod=cod, pairs=pairs)
        return cell

    @cached_property
    def embedding(self) -> CausalEmbedding:
        return CausalEmbedding._unchecked(self.dom.hull_core, self.cod.carrier, self.pairs)

    @cached_property
    def table(self) -> dict[str, str]:
        return dict(self.pairs)

    def __call__(self, event: str) -> str:
        return self.embedding(event)

    def then(self, other: "TwoCell") -> "TwoCell":
        """Vertical composite, applying self first."""
        if other.dom != self.cod:
            raise ValueError("cells do not compose")
        table = other.table
        return TwoCell._unchecked(self.dom, other.cod,
                                  tuple((e, table[v]) for e, v in self.pairs))

    def inverse(self) -> "TwoCell":
        return TwoCell._unchecked(self.cod, self.dom, tuple(sorted((v, e) for e, v in self.pairs)))

    def _boundary_germ(self, fwd: CausalEmbedding, back: CausalEmbedding,
                       src: PointedObject, tgt: PointedObject) -> "TwoCell":
        """The germ from ``src.unit`` to ``tgt.unit`` sending x to the
        preimage under ``back`` of the cell's image of ``fwd(x)``."""
        inv, table = back.inverse_table, self.table
        return TwoCell._unchecked(src.unit, tgt.unit,
                                  tuple((x, inv[table[fwd(x)]]) for x in sorted(src.surface)))

    @cached_property
    def source_germs(self) -> tuple["TwoCell", ...]:
        """Boundary germs on the inputs, one per slot."""
        return tuple(map(self._boundary_germ, self.dom.maps_in, self.cod.maps_in,
                         self.dom.sources, self.cod.sources))

    @cached_property
    def target_germ(self) -> "TwoCell":
        """Boundary germ on the output."""
        return self._boundary_germ(self.dom.map_out, self.cod.map_out,
                                   self.dom.target, self.cod.target)

    __hash__ = _cached_hash(lambda self: (TwoCell, self.dom, self.cod, self.pairs))

    @cached_property
    def _text(self) -> str:
        body = ",".join(f"{a}>{b}" for a, b in self.pairs)
        return f"cell[{body}]({self.dom}=>{self.cod})"

    def __str__(self) -> str:
        return self._text


def identity_cell(b: Bordism) -> TwoCell:
    return TwoCell._unchecked(b, b, tuple((e, e) for e in sorted(b.surface_hull)))


def enumerate_germs(src: PointedObject, tgt: PointedObject) -> tuple[TwoCell, ...]:
    """All invertible germs from src to tgt, sorted deterministically.

    These are ``cells_between(src.unit, tgt.unit)``: each unit's surface
    hull is its object's surface, so the search runs on the surface cores
    and computes no hull.
    """
    found = [
        TwoCell._unchecked(src.unit, tgt.unit, tuple(iso.items()))
        for iso in _pinned_maps(src.core, tgt.core, iso=True,
                                blocks=((src.surface, tgt.surface),))
    ]
    return tuple(sorted(found, key=str))


def permute_cell(cell: TwoCell, sigma: Sequence[int]) -> TwoCell:
    return TwoCell(permute_bordism(cell.dom, sigma),
                   permute_bordism(cell.cod, sigma), cell.table)


def cells_between(a: Bordism, b: Bordism) -> tuple[TwoCell, ...]:
    """Every two-cell from a to b, sorted deterministically."""
    if a.arity != b.arity:
        return ()
    blocks = [
        (a.surface_images[i], b.surface_images[i]) for i in range(a.arity)
    ]
    blocks.append((a.out_surface_image, b.out_surface_image))
    found = [
        TwoCell._unchecked(a, b, tuple(iso.items()))
        for iso in _pinned_maps(a.hull_core, b.hull_core, iso=True,
                                blocks=tuple(blocks))
    ]
    return tuple(sorted(found, key=str))


def globular_cells_between(a: Bordism, b: Bordism,
                           limit: int | None = None) -> tuple[TwoCell, ...]:
    """Cells whose boundary germs are all identities.

    Such a cell is pinned pointwise on every collar hull image, so the
    search space is the complement of the boundary inside the surface hull.
    """
    if a.arity != b.arity or a.sources != b.sources or a.target != b.target:
        return ()
    pins: dict[str, str] = {}
    for fwd_a, fwd_b, obj in (*zip(a.maps_in, b.maps_in, a.sources),
                              (a.map_out, b.map_out, a.target)):
        for x in obj.surface:
            y = fwd_b(x)
            if pins.setdefault(fwd_a(x), y) != y:
                return ()
    cells: list[TwoCell] = []
    for iso in _pinned_maps(a.hull_core, b.hull_core, iso=True, pins=pins):
        cells.append(TwoCell._unchecked(a, b, tuple(iso.items())))
        if limit is not None and len(cells) >= limit:
            return tuple(cells)
    return tuple(sorted(cells, key=str))


def compose_two_cells(outer: TwoCell, inners: Sequence[TwoCell]) -> TwoCell:
    """Horizontal pasting of cells over a composition of their boundaries."""
    return _compose_two_cells(outer, tuple(inners), _gluer(None))


def _compose_two_cells(outer: TwoCell, inners: tuple[TwoCell, ...],
                       glue: _Glue) -> TwoCell:
    if len(inners) != outer.dom.arity:
        raise ValueError("arity mismatch: one inner cell per input is required")
    for i, cell in enumerate(inners):
        if cell.target_germ != outer.source_germs[i]:
            raise ValueError(
                f"inner cell {i} does not feed the matching boundary germ"
            )
    dom_full = glue(outer.dom, tuple(c.dom for c in inners))
    cod_full = glue(outer.cod, tuple(c.cod for c in inners))

    up_inv = dom_full.upper_leg.inverse_table
    lo_invs = [leg.inverse_table for leg in dom_full.lower_legs]
    outer_hull = outer.dom.surface_hull
    inner_hulls = [c.dom.surface_hull for c in inners]

    table: dict[str, str] = {}
    for x in sorted(dom_full.bordism.surface_hull):
        candidates = set()
        u = up_inv.get(x)
        if u is not None and u in outer_hull:
            candidates.add(cod_full.upper_leg(outer(u)))
        for i, cell in enumerate(inners):
            v = lo_invs[i].get(x)
            if v is not None and v in inner_hulls[i]:
                candidates.add(cod_full.lower_legs[i](cell(v)))
        if not candidates:
            raise InvalidComposite(
                "composite hull event not covered by any piece hull"
            )
        # an event of two piece hulls is on an interface surface: germs agree
        table[x] = candidates.pop()
    return TwoCell(dom_full.bordism, cod_full.bordism, table)


# ---- coherence cells via provenance tracing ---------------------------------------


def _seed_atoms(b: Bordism, tag: str) -> dict[str, frozenset]:
    return {e: frozenset({(tag, e)}) for e in b.carrier.events}


def _trace_compose(
    outer: Bordism,
    inners: tuple[Bordism, ...],
    outer_atoms: dict[str, frozenset],
    inner_atoms: Sequence[dict[str, frozenset]],
    glue: _Glue,
) -> tuple[ComposedBordism, dict[str, frozenset]]:
    """Compose while accumulating the provenance tags of merged events."""
    full = glue(outer, inners)
    atoms: dict[str, set] = {e: set() for e in full.bordism.carrier.events}
    for i, leg in enumerate(full.lower_legs):
        for e in leg.dom.events:
            atoms[leg(e)].update(inner_atoms[i][e])
    for e in full.upper_leg.dom.events:
        atoms[full.upper_leg(e)].update(outer_atoms[e])
    return full, {e: frozenset(s) for e, s in atoms.items()}


def _atom_pairing(
    hull_left: Iterable[str],
    atoms_left: dict[str, frozenset],
    hull_right: Iterable[str],
    atoms_right: dict[str, frozenset],
) -> dict[str, str]:
    """Match hull events of two composites by shared provenance tags.

    Both composites glue the same pieces, so every tag on a right hull event
    has one owner on the left hull, and the pairing is a bijection of the
    hulls; the validating cell constructor that reads the table checks it.
    """
    owner = {atom: e for e in hull_left for atom in atoms_left[e]}
    return {owner[atom]: e2 for e2 in sorted(hull_right) for atom in atoms_right[e2]}


def coherence_cells(
    outer: Bordism,
    mids: Sequence[Bordism],
    inners: Sequence[Sequence[Bordism]],
) -> TwoCell:
    """The associator comparing the two ways of stacking three layers.

    The cell runs from composing the outer pair first to composing the
    inner pairs first; its table pairs hull events through the provenance
    of the shared pieces.
    """
    return _coherence_cells(outer, tuple(mids),
                            tuple(tuple(block) for block in inners), _gluer(None))


def _coherence_cells(
    outer: Bordism,
    mids: tuple[Bordism, ...],
    inners: tuple[tuple[Bordism, ...], ...],
    glue: _Glue,
) -> TwoCell:
    outer_atoms = _seed_atoms(outer, "o")
    mid_atoms = [_seed_atoms(m, f"m{i}") for i, m in enumerate(mids)]
    inner_atoms = [
        [_seed_atoms(x, f"i{i}.{j}") for j, x in enumerate(block)]
        for i, block in enumerate(inners)
    ]
    flat_inners = tuple(itertools.chain.from_iterable(inners))
    flat_inner_atoms = list(itertools.chain.from_iterable(inner_atoms))

    first, first_atoms = _trace_compose(outer, mids, outer_atoms, mid_atoms, glue)
    left_full, left_atoms = _trace_compose(
        first.bordism, flat_inners, first_atoms, flat_inner_atoms, glue
    )

    blocks = []
    block_atoms = []
    for i, (m, block) in enumerate(zip(mids, inners)):
        full, atoms = _trace_compose(m, block, mid_atoms[i], inner_atoms[i],
                                     glue)
        blocks.append(full.bordism)
        block_atoms.append(atoms)
    right_full, right_atoms = _trace_compose(
        outer, tuple(blocks), outer_atoms, block_atoms, glue
    )

    table = _atom_pairing(
        left_full.bordism.surface_hull, left_atoms,
        right_full.bordism.surface_hull, right_atoms,
    )
    return TwoCell(left_full.bordism, right_full.bordism, table)


def unitor_cells(b: Bordism) -> tuple[TwoCell, TwoCell]:
    """Cells from the unit-padded composites of b down to b itself."""
    return _unitor_cells(b, _gluer(None))


def _unitor_cells(b: Bordism, glue: _Glue) -> tuple[TwoCell, TwoCell]:
    base = _seed_atoms(b, "b")

    unit_out = b.target.unit
    left_full, left_atoms = _trace_compose(
        unit_out, (b,), _seed_atoms(unit_out, "u"), [base], glue
    )
    left_table = _atom_pairing(
        left_full.bordism.surface_hull, left_atoms, b.surface_hull, base
    )
    left = TwoCell(left_full.bordism, b, left_table)

    units_in = tuple(s.unit for s in b.sources)
    unit_atoms = [_seed_atoms(u, f"u{i}") for i, u in enumerate(units_in)]
    right_full, right_atoms = _trace_compose(b, units_in, base, unit_atoms, glue)
    right_table = _atom_pairing(
        right_full.bordism.surface_hull, right_atoms, b.surface_hull, base
    )
    right = TwoCell(right_full.bordism, b, right_table)
    return left, right


# ---- companions --------------------------------------------------------------------


def companion_bordism(germ: TwoCell) -> Bordism:
    """The bordism presenting a germ, a cell between unit bordisms,
    horizontally: its target carrier, with the germ as input collar and the
    identity as output."""
    src, tgt = germ.dom.target, germ.cod.target
    return Bordism((src,), tgt, tgt.carrier, (germ.embedding,),
                   CausalEmbedding.identity(tgt.carrier))


# ---- fragments and truncation --------------------------------------------------------


def _action_closure(items: Iterable[Bordism]) -> set[Bordism]:
    out = set(items)
    for op in tuple(out):
        for sigma in itertools.permutations(range(op.arity)):
            out.add(permute_bordism(op, sigma))
    return out


def _germ_groupoid(colors: Iterable[PointedObject]) -> FiniteGroupoid:
    """The colors, sorted by text, with every invertible germ between them:
    the cells between their unit bordisms, each germ running from the
    object of its domain unit to that of its codomain unit."""
    color_list = tuple(sorted(colors, key=str))
    germ_set: set[TwoCell] = set()
    for a, b in itertools.product(color_list, repeat=2):
        germ_set.update(enumerate_germs(a, b))
    germ_list = tuple(sorted(germ_set, key=str))
    return FiniteGroupoid(
        color_list,
        germ_list,
        {g: g.dom.target for g in germ_list},
        {g: g.cod.target for g in germ_list},
        lambda g, f: f.then(g),
        {c: identity_cell(c.unit) for c in color_list},
        lambda g: g.inverse(),
    )


def bordism_fragment(
    generators: Iterable[PointedObject | Bordism],
    depth: int = 1,
    *,
    max_objects: int = 32,
    max_ops: int = 128,
    max_cells: int = 4096,
) -> PseudoOperadData:
    """Materialize a finite window of the bordism pseudo-operad.

    Operations are the units, the generators, the companions of every germ
    between the touched objects and all composites reachable within the
    given depth, closed under input permutations.  Cells are every
    isomorphism germ between same-arity operations.  Caps guard each stage
    and overflow raises FragmentCapExceeded.  Each (outer, inners)
    configuration is glued once per build, and its composite is reused by
    the composites, cell composites, unitors and associators.  Each build
    owns one record of the bordism values that passed validation, seeded by
    the generators; every glue of the build reads and extends it, so each
    distinct value is validated once, and the window's composite hook keeps
    it for the glues the audits ask for later.  Table values are canonical
    instances: a value equal to a germ, an operation or a cell of the
    window is that very object, so the audits find it in the window's
    tables by identity.  The units are the colors' own ``unit`` instances,
    and a unary cell between two units is the germ of the objects
    groupoid, so each germ is its own unit cell.  The operation groupoids
    compose and invert cells unchecked, through ``then`` and ``inverse``,
    and return the stored equal cell through their ``numbers``.  A
    permuted cell is read from the
    window's cells, which are closed under the action.  Cell composites
    and associators are read off the composites by the walks that ``iota``
    uses too.  Every table comes in construction order and none is sorted
    again, so its order does not depend on ``PYTHONHASHSEED``.  The
    window's hooks compose, act on and link operations outside it, for the
    collapse :func:`truncate_bordisms`.
    """
    objs: list[PointedObject] = []
    gens: list[Bordism] = []
    for g in generators:
        if isinstance(g, PointedObject):
            objs.append(g)
        elif isinstance(g, Bordism):
            gens.append(g)
        else:
            raise TypeError(f"unsupported generator {g!r}")
    validated: set[Bordism] = set()
    for i, b in enumerate(gens):
        failed = _failed_checks(b, validated)
        if failed:
            raise ValueError(f"generator bordism {i} invalid: {failed[0]}")

    colors: set[PointedObject] = set(objs)
    for b in gens:
        colors.update(b.sources)
        colors.add(b.target)
    if len(colors) > max_objects:
        raise FragmentCapExceeded(f"object cap {max_objects} exceeded")
    objects = _germ_groupoid(colors)

    ops: set[Bordism] = {c.unit for c in objects.objects}
    ops.update(gens)
    ops.update(companion_bordism(g) for g in objects.morphisms)
    ops = _action_closure(ops)
    if len(ops) > max_ops:
        raise FragmentCapExceeded(f"operation cap {max_ops} exceeded")

    glue = _gluer(validated)
    compose_ops: dict = {}
    for _ in range(depth):
        current = tuple(sorted(ops, key=str))
        new_ops: set[Bordism] = set()
        for psi in current:
            pools = [
                tuple(op for op in current if op.target == s)
                for s in psi.sources
            ]
            for phis in itertools.product(*pools):
                key = (psi, phis)
                if key in compose_ops:
                    continue
                composite = glue(psi, phis).bordism
                compose_ops[key] = composite
                if composite not in ops:
                    new_ops.add(composite)
                if len(ops) + len(new_ops) > max_ops:
                    raise FragmentCapExceeded(f"operation cap {max_ops} exceeded")
        if not new_ops:
            break
        ops |= _action_closure(new_ops)
        if len(ops) > max_ops:
            raise FragmentCapExceeded(f"operation cap {max_ops} exceeded")

    ops_sorted = tuple(sorted(ops, key=str))
    ops_by_arity: dict[int, list[Bordism]] = {}
    for op in ops_sorted:
        ops_by_arity.setdefault(op.arity, []).append(op)
    cells_by_arity: dict[int, list[TwoCell]] = {}
    total_cells = 0
    germ = objects.numbers.canonical
    for n, group in sorted(ops_by_arity.items()):
        cells = cells_by_arity[n] = []
        for a in group:
            for b in group:
                for cell in cells_between(a, b):
                    cells.append(germ(cell))
                    total_cells += 1
                    if total_cells > max_cells:
                        raise FragmentCapExceeded(f"cell cap {max_cells} exceeded")
    all_cells = tuple(itertools.chain.from_iterable(cells_by_arity.values()))
    op_groupoids = {
        n: FiniteGroupoid(
            tuple(group),
            cells_by_arity[n],
            {c: c.dom for c in cells_by_arity[n]},
            {c: c.cod for c in cells_by_arity[n]},
            lambda g, f: f.then(g),
            {op: identity_cell(op) for op in group},
            lambda c: c.inverse(),
        )
        for n, group in ops_by_arity.items()
    }

    intern = Numbering((*ops_sorted, *all_cells)).canonical

    act_ops: dict = {}
    for op in ops_sorted:
        for sigma in itertools.permutations(range(op.arity)):
            act_ops[(op, sigma)] = intern(permute_bordism(op, sigma))

    compose_ops = {key: intern(composite) for key, composite in compose_ops.items()}
    window = PseudoOperadData(
        objects=objects,
        op_groupoids=op_groupoids,
        op_inputs={op: op.sources for op in ops_sorted},
        op_output={op: op.target for op in ops_sorted},
        cell_inputs={c: tuple(map(intern, c.source_germs)) for c in all_cells},
        cell_output={c: intern(c.target_germ) for c in all_cells},
        compose_ops=compose_ops,
        compose_cells={},
        unit_ops={c: c.unit for c in objects.objects},
        unit_cells={g: g for g in objects.morphisms},
        act_ops=act_ops,
        act_cells={},
        name=f"bordism-fragment(depth={depth})",
        compose_op_fn=lambda psi, phis: compose_bordisms_full(
            psi, tuple(phis), validated=validated).bordism,
        act_op_fn=lambda op, sigma: permute_bordism(op, sigma),
        op_link_fn=lambda a, b: bool(globular_cells_between(a, b, limit=1)),
    )
    compose_cells = window.compose_cells
    for alpha, betas, _, _ in _cell_composites(window, compose_ops):
        compose_cells[(alpha, betas)] = intern(_compose_two_cells(alpha, betas, glue))
        if len(compose_cells) > max_cells:
            raise FragmentCapExceeded(f"cell cap {max_cells} exceeded")

    # permute_cell(cell, sigma) keeps the pairs and permutes both ends
    for n, cells in cells_by_arity.items():
        for cell in cells:
            for sigma in itertools.permutations(range(n)):
                window.act_cells[(cell, sigma)] = intern(TwoCell._unchecked(
                    act_ops[(cell.dom, sigma)], act_ops[(cell.cod, sigma)], cell.pairs))

    for op in ops_sorted:
        want_left = (op.target.unit, (op,)) in compose_ops
        units_in = tuple(s.unit for s in op.sources)
        want_right = (op, units_in) in compose_ops
        if want_left or want_right:
            left, right = _unitor_cells(op, glue)
            if want_left:
                window.left_unitors[op] = intern(left)
            if want_right:
                window.right_unitors[op] = intern(right)

    associators = window.associators
    for psi, phis, chis, _ in _associator_triples(compose_ops):
        associators[(psi, phis, chis)] = intern(_coherence_cells(psi, phis, chis, glue))
        if len(associators) > max_cells:
            raise FragmentCapExceeded(f"cell cap {max_cells} exceeded")
    return window


def truncate_bordisms(fragment: PseudoOperadData) -> Operad:
    """Collapse a fragment along its globular cells into an honest operad."""
    return tau(fragment)


def resolve_bordism_class(window: Operad, b: Bordism) -> TauOperation:
    """The window class presenting a bordism, found by signature and germ.

    Membership in every class of the same signature is checked before any
    globular search.  A member of one class has no globular cell to another
    class's representative, since classes are maximal under the window's
    cells, so the class found is the same.  A bordism outside the window
    then needs a single globular cell to a class representative, since
    cells compose.
    """
    same = [cls for cls in window.ops(b.arity)
            if cls.inputs == b.sources and cls.output == b.target]
    for cls in same:
        if b in cls.members:
            return cls
    for cls in same:
        if globular_cells_between(b, cls.rep, limit=1):
            return cls
    raise ValueError(f"window has no class presenting {b}")
