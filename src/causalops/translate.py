"""Translation between region algebras and surface-to-surface field theories.

A region model assigns monoids to the causal sets of a prefactorization
fragment; a surface model assigns monoids to pointed causal sets and homs to
truncated bordism classes.  The two are exchanged by a pair of constructions:

* region to surface: forget the surface, ``F(M, S) = A(M)``, and evaluate a
  bordism class through its collar zig-zag, inverting the Cauchy legs that
  the time-slice property makes invertible;
* surface to region: the value at a region is the filtered colimit of the
  surface values over all of its Cauchy antichains, and an embedding tuple
  acts through a full-collar wrapper bordism decorated with any later
  Cauchy antichain over its images.

Round-tripping region models returns them on the nose because the colimits
collapse; round-tripping surface models returns an isomorphic model whose
comparison components are the colimit legs.  Everything happens over a
:class:`TranslationContext`, which packages the region fragment, its window
of wrapper bordism classes, and the zig-zag data linking the two.  A
surface model is a multifunctor on the truncated bordism operad, so the
window is collapsed straight from the wrappers along their globular cells
and keeps no 2-cell.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property

from .bordism import (
    Bordism,
    PointedObject,
    cells_between,
    compose_bordisms_full,
    globular_cells_between,
    permute_bordism,
    resolve_bordism_class,
    unit_bordism,
    validate_bordism,
    wrapper_bordism,
)
from .causal_core import CausalEmbedding, CausalSet
from .errors import (
    AdditivityRequired,
    FragmentCapExceeded,
    NoLaterSurface,
    TimeSliceRequired,
)
from .operad_kernel import EmbeddingTuple, Operad, prefactorization_operad
from .pseudo_operad import TauOperation, _collapse
from .qft_models import (
    Monoid,
    MonoidColimit,
    MonoidHom,
    QftModel,
    _filtered_colimit,
    _mediator_parts,
    _surfaces,
    aqft_model,
    canonical_label,
    check_additivity_fqft,
    check_time_slice,
    compose_monoid_homs,
    fqft_model,
    sigma_category,
)
from .report import Report

__all__ = [
    "ZigZag",
    "TranslationContext",
    "wrapper_bordism",
    "later_surfaces",
    "translation_window",
    "derive_zigzag",
    "evaluate_zigzag",
    "build_translation_context",
    "validate_translation_context",
    "chain_translation_context",
    "diamond_translation_context",
    "aqft_to_fqft",
    "fqft_to_aqft",
    "sigma_colimit",
    "translate_transformation_a2f",
    "translate_transformation_f2a",
    "roundtrip_aqft",
    "roundtrip_fqft",
]


# ---- wrapper bordisms over a region fragment -----------------------------------


def _valid_wrappers(op: EmbeddingTuple, surfaces):
    """Each valid later surface of ``(op, surfaces)`` with its wrapper, in order."""
    for later in _surfaces(op.target):
        b = wrapper_bordism(op, surfaces, later)
        if validate_bordism(b).ok:
            yield later, b


def later_surfaces(op: EmbeddingTuple,
                   surfaces) -> tuple[frozenset[str], ...]:
    """Cauchy antichains of the target that validly decorate the output.

    ``surfaces`` are the input surfaces in the domains' own event names and
    the results are in the target's names, as for :func:`wrapper_bordism`.
    A decoration is valid when the wrapper bordism passes the surface-order
    condition: non-Cauchy input images must lie strictly below it, a single
    Cauchy input merely non-strictly.  Results are sorted canonically, so
    the first entry is the canonical choice; :func:`fqft_to_aqft` with
    ``debug=True`` checks that every other entry induces the same operation.
    """
    return tuple(later for later, _ in _valid_wrappers(op, surfaces))


# ---- the window of wrapper classes ----------------------------------------------

def translation_window(aqft: Operad, *, max_ops: int = 512) -> Operad:
    """Truncated operad of all wrapper bordism classes over a region fragment.

    Every operation of the region fragment is wrapped once per choice of
    input surfaces and valid output decoration; operation-and-surface
    combinations without any valid decoration contribute nothing and are
    only rejected later, when a translation actually needs them.  The
    wrappers, sorted by arity and then by text, are collapsed over the
    pointed colors, sorted by text, along their globular cells: those with
    identity boundary germs, which only wrappers of one signature have.  No
    2-cell is kept.  Composition and permutation are computed on demand,
    and a composite outside the window joins the class it has a globular
    cell to; composites stay resolvable inside the window because gluing
    full collars only trims the carrier outside the surface hull.  The
    wrappers have just passed validation, so they seed the window's record
    of validated values, which lives as long as the window: a composite
    asked of it validates only the values the record lacks.
    """
    wrappers: set[Bordism] = set()
    for op in aqft.operations:
        pools = [_surfaces(m.dom) for m in op.maps]
        for surfaces in itertools.product(*pools):
            for _, b in _valid_wrappers(op, surfaces):
                wrappers.add(b)
                if len(wrappers) > max_ops:
                    raise FragmentCapExceeded(f"operation cap {max_ops} exceeded")

    ops = tuple(sorted(wrappers, key=lambda b: (b.arity, str(b))))
    # a boundary germ, a cell between unit bordisms, is an identity when it
    # runs from one unit to itself and fixes every event of its pairs; that
    # is read off the pairs, so no identity cell (and no hull) is built
    links = [(a, b) for a, b in itertools.combinations(ops, 2)
             if a.sources == b.sources and a.target == b.target
             and any(all(g.dom == g.cod and all(x == y for x, y in g.pairs)
                         for g in (*cell.source_germs, cell.target_germ))
                     for cell in cells_between(a, b))]
    colors = sorted((PointedObject(M, s) for M in aqft.colors for s in _surfaces(M)),
                    key=str)
    return _collapse(
        ops, colors, links,
        signature=lambda b: (b.sources, b.target),
        unit=unit_bordism,
        compose=lambda psi, phis: compose_bordisms_full(
            psi, phis, validated=wrappers).bordism,
        act=permute_bordism,
        link=lambda a, b: bool(globular_cells_between(a, b, limit=1)),
        name=f"tau(window({aqft.name}))",
    ).operad


# ---- zig-zag descriptions of bordism classes -------------------------------------


@dataclass(frozen=True)
class ZigZag:
    """Collar decomposition of a bordism inside a region fragment.

    Reading a class through its zig-zag gives the region-model image: the
    inward collar legs are inverted, the carrier acts through ``middle``,
    and the outward collar legs push into the output region.  The two left
    pointing legs (``left`` and ``right_in``) are Cauchy, so time-slice
    models make them invertible.  The legs of a bridge entry are region
    operations; the legs of a collar row (see :func:`roundtrip_fqft`) are
    the window classes of their wrappers.
    """

    left: tuple
    middle: object
    right_in: object
    right_out: object

    @property
    def legs(self) -> tuple:
        return self.left + (self.middle, self.right_in, self.right_out)

    def map(self, f) -> ZigZag:
        return ZigZag(tuple(f(leg) for leg in self.left), f(self.middle),
                      f(self.right_in), f(self.right_out))


def _collar_legs(b: Bordism) -> ZigZag:
    """The collar decomposition of ``b``, each leg with its wrapper decoration.

    A leg is ``(op, surfaces, later)``: a region operation with the input
    and output surfaces that :func:`wrapper_bordism` decorates it with.
    """
    def inclusion(obj: PointedObject, collar) -> tuple:
        op = EmbeddingTuple((CausalEmbedding.inclusion(obj.carrier, collar),),
                            obj.carrier)
        return op, (obj.surface,), obj.surface

    through = b.out_surface_image
    return ZigZag(
        tuple(inclusion(src, c) for src, c in zip(b.sources, b.in_collars)),
        (EmbeddingTuple(b.maps_in, b.carrier),
         tuple(src.surface for src in b.sources), through),
        (EmbeddingTuple((b.map_out,), b.carrier), (b.target.surface,), through),
        inclusion(b.target, b.out_collar),
    )


def derive_zigzag(b: Bordism, aqft: Operad) -> ZigZag | None:
    """Express a bordism through collar embeddings of the region fragment.

    Returns None when a collar or the carrier is not materialized in the
    fragment, which happens exactly for proper collars around colors that
    the window does not carry.
    """
    zz = _collar_legs(b).map(lambda leg: leg[0])
    window = set(aqft.operations)
    return zz if all(leg in window for leg in zz.legs) else None


def evaluate_zigzag(A: QftModel, zz: ZigZag) -> MonoidHom:
    """The image of a zig-zag in a model whose base carries its legs.

    A region model reads a bridge entry and a surface model a collar row;
    a left pointing leg whose image does not invert raises
    :class:`TimeSliceRequired`.
    """

    def inverted(leg) -> MonoidHom:
        h = A.hom(leg)
        if not h.is_isomorphism:
            raise TimeSliceRequired(f"the image of the Cauchy leg {leg} does not invert")
        return h.inverse()

    core = compose_monoid_homs(A.hom(zz.middle), tuple(inverted(leg) for leg in zz.left))
    return core.then(inverted(zz.right_in)).then(A.hom(zz.right_out))


# ---- translation contexts --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TranslationContext:
    """A matched pair of fragments with the bridge linking their operations.

    ``bridge`` sends every class of the truncated bordism window to the
    zig-zag descriptions of its members, ordered canonically; colors bridge
    implicitly, a pointed color lying over its carrier.  The invariant that
    the bridge respects composition of the two fragments is checked by
    :func:`validate_translation_context`.

    The context owns three tables: ``_classes`` sends a bordism to its
    window class, starts with every class member when the context is built
    and fills further as translations resolve other bordisms;
    ``_decorations`` sends ``(op, surfaces)`` to its valid later surfaces
    (see :meth:`decorations`) and is read off the window when the context
    is built; and ``_homs`` sends ``(doms, cod, items)``, the items of a
    table as a frozenset, to the monoid hom with that value (see
    :meth:`hom`), filling as translations build homs from new tables.
    All three live and die with the context, so a freshly built context
    recomputes everything and no work carries over from one.
    """

    aqft_fragment: Operad
    bordism_fragment: Operad
    bridge: Mapping[TauOperation, tuple[ZigZag, ...]]
    name: str = "translation"
    _classes: dict = field(default_factory=dict, repr=False)
    _decorations: dict = field(default_factory=dict, repr=False)
    _homs: dict = field(default_factory=dict, repr=False)

    @cached_property
    def surface_families(self) -> dict[CausalSet, tuple[frozenset[str], ...]]:
        return {M: _surfaces(M) for M in self.aqft_fragment.colors}

    def resolve(self, b: Bordism) -> TauOperation:
        cls = self._classes.get(b)
        if cls is None:
            cls = resolve_bordism_class(self.bordism_fragment, b)
            self._classes[b] = cls
        return cls

    def decorations(self, op: EmbeddingTuple,
                    surfaces) -> dict[frozenset[str], TauOperation]:
        """The valid later surfaces of ``(op, surfaces)``, each with its class.

        Keys are in :func:`later_surfaces`' canonical order, so the first is
        the canonical choice; values are the window classes of the wrappers.
        The dict is empty when no decoration is valid, and asking again
        returns the same dict.
        """
        return self._decorations.setdefault((op, tuple(surfaces)), {})

    def hom(self, doms: tuple[Monoid, ...], cod: Monoid, table: dict) -> MonoidHom:
        """The hom ``MonoidHom(doms, cod, table)``, validated once per value.

        Only homs built from new tables come here (colimit legs, cocones,
        mediators, induced operations); homs derived from homs are built
        without the laws.  A stored hom with the same ``(doms, cod)`` and
        table, in any key order, passed the checks the constructor would run,
        which depend on nothing else; a table that fails them raises the
        constructor's error and is not stored.  Monoids compare by value.
        """
        key = (doms, cod, frozenset(table.items()))
        h = self._homs.get(key)
        if h is None:
            h = self._homs[key] = MonoidHom(doms, cod, table)
        return h


def build_translation_context(aqft: Operad, *,
                              name: str = "translation") -> TranslationContext:
    """Assemble the context for a region fragment, deriving the bridge data.

    Every member of a window class is a valid wrapper bordism, so one walk
    over the members gives the bridge, the decoration table and the class
    of each member, with no wrapper validated or resolved again.
    """
    window = translation_window(aqft)
    bridge = {}
    classes = {}
    found: dict = {}
    for cls in window.operations:
        members = sorted(cls.members, key=str)
        zigzags = tuple(
            zz for member in members
            if (zz := derive_zigzag(member, aqft)) is not None
        )
        if not zigzags:
            raise ValueError(
                f"window class {cls} has no collar description in the "
                "region fragment"
            )
        bridge[cls] = zigzags
        for b in members:
            classes[b] = cls
            key = (EmbeddingTuple(b.maps_in, b.carrier),
                   tuple(src.surface for src in b.sources))
            found.setdefault(key, []).append((b.target.surface, cls))
    decorations = {
        key: dict(sorted(pairs, key=lambda pair: canonical_label(pair[0])))
        for key, pairs in found.items()
    }
    return TranslationContext(aqft, window, bridge, name=name,
                              _classes=classes, _decorations=decorations)


def validate_translation_context(ctx: TranslationContext) -> Report:
    """Check the bridge invariants: color matching and composition respect."""
    rep = Report()
    t = ctx.name

    color_bad = []
    want = {
        PointedObject(M, s)
        for M in ctx.aqft_fragment.colors for s in ctx.surface_families[M]
    }
    have = set(ctx.bordism_fragment.colors)
    color_bad += [f"missing {c}" for c in sorted(want - have, key=str)]
    color_bad += [f"unexpected {c}" for c in sorted(have - want, key=str)]
    rep.verdict("context/colors", t, color_bad)

    region_ops = set(ctx.aqft_fragment.operations)
    window_ops = set(ctx.bordism_fragment.operations)
    bridge_bad = []
    for cls in ctx.bordism_fragment.operations:
        zigzags = ctx.bridge.get(cls, ())
        if not zigzags:
            bridge_bad.append(f"{cls} has no zig-zag")
            continue
        for zz in zigzags:
            bad = [leg for leg in zz.legs if leg not in region_ops]
            if bad:
                bridge_bad.append(f"{cls} leg {bad[0]} escapes the fragment")
    rep.verdict("context/bridge", t, bridge_bad)

    comp_bad = []
    checked = 0
    for psi in ctx.bordism_fragment.operations:
        for phis in ctx.bordism_fragment.composable_inner_tuples(psi):
            checked += 1
            composite = ctx.bordism_fragment.compose(psi, phis)
            if composite not in window_ops:
                comp_bad.append(f"{psi} over {[str(p) for p in phis]} escapes")
                continue
            if psi not in ctx.bridge or any(p not in ctx.bridge for p in phis):
                continue
            middle = ctx.aqft_fragment.compose(
                ctx.bridge[psi][0].middle,
                tuple(ctx.bridge[p][0].middle for p in phis),
            )
            surfaces = tuple(s.surface for p in phis for s in p.rep.sources)
            direct = wrapper_bordism(middle, surfaces, psi.rep.target.surface)
            if direct not in composite.members:
                comp_bad.append(f"{psi} over {[str(p) for p in phis]} "
                                "misses its collar wrapper")
    rep.verdict("context/composition", t, comp_bad, {"checked": checked})
    return rep


@cache
def chain_translation_context() -> TranslationContext:
    """Two chained events with both singleton subregions materialized."""
    M = CausalSet(("u", "v"), (("u", "v"),))
    base = prefactorization_operad((M, M.induced({"u"}), M.induced({"v"})))
    return build_translation_context(base, name="chain")


@cache
def diamond_translation_context() -> TranslationContext:
    """The causal diamond with its three singleton subregions.

    The region fragment keeps binary disjoint inclusions, so this is the
    smallest shipped context exercising every arity of the translation.
    """
    D = CausalSet(("a", "b", "c", "d"),
                  (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")))
    base = prefactorization_operad(
        (D, D.induced({"a"}), D.induced({"b"}), D.induced({"c"}))
    )
    return build_translation_context(base, name="diamond")


# ---- region models to surface models ----------------------------------------------


def aqft_to_fqft(A: QftModel, ctx: TranslationContext, *,
                 debug: bool = False) -> QftModel:
    """Translate a region model into a surface model over the same context.

    Colors forget their surface; classes evaluate through the canonical
    zig-zag of their least member.  The time-slice gate always runs;
    ``debug=True`` selects only the re-check of representative
    independence, which validity plus time-slice guarantees: every other
    member's zig-zag is evaluated and its image must agree.
    """
    if A.base is not ctx.aqft_fragment:
        raise ValueError("model lives on a different region fragment")
    gate = check_time_slice(A)
    if not gate.ok:
        first = gate.failures[0]
        raise TimeSliceRequired(
            f"time-slice fails at {first.target}: {first.witness}"
        )
    colors = {c: A.value(c.carrier) for c in ctx.bordism_fragment.colors}
    ops = {}
    for cls in ctx.bordism_fragment.operations:
        zigzags = ctx.bridge[cls]
        image = evaluate_zigzag(A, zigzags[0])
        if debug:
            for zz in zigzags[1:]:
                if evaluate_zigzag(A, zz) != image:
                    raise AssertionError(
                        f"class {cls} depends on the chosen representative"
                    )
        ops[cls] = image
    return fqft_model(ctx.bordism_fragment, colors, ops,
                      name=f"surfaces({ctx.name})")


# ---- surface models to region models ----------------------------------------------


def sigma_colimit(F: QftModel, ctx: TranslationContext,
                  M: CausalSet) -> MonoidColimit:
    """Colimit of the surface values of F over the Cauchy antichains of M.

    Transition homs are the images of the identity wrappers shifting one
    surface to a later one; the category is filtered because the maximal
    element antichain bounds everything.  They are read from the context's
    decorations of the unit, whose valid later surfaces over ``a`` are
    exactly the ``b`` with ``a`` below ``b`` in the category.  The legs
    are taken from the context's table of homs.
    """
    C = sigma_category(M)
    monoids = {s: F.value(PointedObject(M, s)) for s in C.objects}
    ident = ctx.aqft_fragment.unit(M)
    homs = {
        (a, b): F.hom(ctx.decorations(ident, (a,))[b])
        for a, b in C.hom_pairs if a != b
    }
    return _filtered_colimit(C, monoids, homs, ctx.hom)


def _sigma_colimits(F: QftModel, ctx: TranslationContext) -> dict:
    """:func:`sigma_colimit` of F at every region color."""
    return {M: sigma_colimit(F, ctx, M) for M in ctx.aqft_fragment.colors}


def _region_colimits(F: QftModel, ctx: TranslationContext) -> dict:
    """The colimits :func:`fqft_to_aqft` builds on, once F passes its gates."""
    if F.base is not ctx.bordism_fragment:
        raise ValueError("model lives on a different bordism window")
    for color in ctx.bordism_fragment.colors:
        gate = check_additivity_fqft(F, color)
        if not gate.ok:
            first = gate.failures[0]
            raise AdditivityRequired(
                f"additivity fails at {color}: {first.witness}"
            )
    return _sigma_colimits(F, ctx)


def _induced_model(F: QftModel, ctx: TranslationContext,
                   colims: Mapping[CausalSet, MonoidColimit],
                   debug: bool) -> QftModel:
    """The region model on ``colims``, operations induced via wrapper classes."""

    def image_through(op, surfaces, args):
        decorations = ctx.decorations(op, surfaces)
        if not decorations:
            raise NoLaterSurface(
                f"no Cauchy antichain of {op.target!r} lies above the surface "
                f"images {[sorted(s) for s in surfaces]} of {op}"
            )
        choices = iter(decorations.items())
        later, cls = next(choices)
        out = colims[op.target]
        value = out.legs[later](F.hom(cls)(*args))
        if debug:
            for alt, alt_cls in choices:
                if out.legs[alt](F.hom(alt_cls)(*args)) != value:
                    raise AssertionError(
                        f"{op} depends on the later-surface choice at "
                        f"{[sorted(s) for s in surfaces]}"
                    )
        return value

    def induced(op: EmbeddingTuple) -> MonoidHom:
        out = colims[op.target].monoid
        if len(op.maps) == 1:
            source = op.maps[0].dom
            cocone = {}
            for s in ctx.surface_families[source]:
                dom = colims[source].legs[s].doms[0]
                cocone[s] = ctx.hom((dom,), out, {
                    (x,): image_through(op, (s,), (x,)) for x in dom.elements
                })
            return ctx.hom(*_mediator_parts(colims[source], cocone, out))

        doms = tuple(colims[m.dom].monoid for m in op.maps)
        table = {}
        for args in itertools.product(*(m.elements for m in doms)):
            pools = [colims[m.dom].class_members[x] for m, x in zip(op.maps, args)]
            table[args] = image_through(op, tuple(p[0][0] for p in pools),
                                        tuple(p[0][1] for p in pools))
            if debug:
                for combo in itertools.product(*pools):
                    alt = image_through(op, tuple(c[0] for c in combo),
                                        tuple(c[1] for c in combo))
                    if alt != table[args]:
                        raise AssertionError(
                            f"{op} depends on the colimit representative at {args}"
                        )
        return ctx.hom(doms, out, table)

    colors = {M: colims[M].monoid for M in ctx.aqft_fragment.colors}
    ops = {op: induced(op) for op in ctx.aqft_fragment.operations}
    return aqft_model(ctx.aqft_fragment, colors, ops,
                      name=f"regions({ctx.name})")


def fqft_to_aqft(F: QftModel, ctx: TranslationContext, *,
                 debug: bool = False) -> QftModel:
    """Translate a surface model into a region model over the same context.

    Region values are surface colimits; operations act through wrapper
    classes decorated with the canonical later surface.  Additivity of F
    is required up front, and the search for a later surface fails only
    when an input image touches the top of its target region, which the
    shipped contexts exclude by construction.  The additivity gate and the
    colimit checks always run; ``debug=True`` selects only the re-check
    that the operations depend neither on the later surface chosen nor on
    the colimit representatives of their arguments.
    """
    return _induced_model(F, ctx, _region_colimits(F, ctx), debug)


# ---- transformations across the bridge --------------------------------------------


def translate_transformation_a2f(components: Mapping[CausalSet, MonoidHom],
                                 ctx: TranslationContext) -> dict:
    """Reindex a region transformation along the forgetful color bridge."""
    return {c: components[c.carrier] for c in ctx.bordism_fragment.colors}


def translate_transformation_f2a(components: Mapping[PointedObject, MonoidHom],
                                 F: QftModel, G: QftModel,
                                 ctx: TranslationContext) -> dict:
    """Push a surface transformation to the region colimits by mediation."""
    return _mediate_transformation(components, _sigma_colimits(F, ctx),
                                   _sigma_colimits(G, ctx), ctx)


def _mediate_transformation(components, colims_f: Mapping, colims_g: Mapping,
                            ctx: TranslationContext) -> dict:
    """:func:`translate_transformation_f2a` on colimits already built."""
    out = {}
    for M in ctx.aqft_fragment.colors:
        cf, cg = colims_f[M], colims_g[M]
        cocone = {
            s: components[PointedObject(M, s)].then(cg.legs[s])
            for s in ctx.surface_families[M]
        }
        out[M] = ctx.hom(*_mediator_parts(cf, cocone, cg.monoid))
    return out


# ---- round trips -------------------------------------------------------------------


def roundtrip_aqft(A: QftModel, ctx: TranslationContext, *,
                   transformation=None, debug: bool = False) -> Report:
    """Verify that translating a region model out and back returns it exactly.

    The surface colimits of the translated model are constant with identity
    transitions, so they collapse to the original monoids and the induced
    operations reproduce the original tables.  Passing ``transformation``
    as a pair of a second model and componentwise homs additionally checks
    that transformations survive the round trip unchanged.  ``debug`` is
    passed to both translations.
    """
    rep = Report()
    t = ctx.name
    F = aqft_to_fqft(A, ctx, debug=debug)
    colims = _region_colimits(F, ctx)
    back = _induced_model(F, ctx, colims, debug)

    color_bad = [
        canonical_label(frozenset(M.events))
        for M in ctx.aqft_fragment.colors if back.value(M) != A.value(M)
    ]
    rep.verdict("roundtrip/objects", t, color_bad)
    op_bad = [
        str(op) for op in ctx.aqft_fragment.operations
        if back.hom(op) != A.hom(op)
    ]
    rep.verdict("roundtrip/operations", t, op_bad)

    if transformation is not None:
        B, components = transformation
        G = aqft_to_fqft(B, ctx, debug=debug)
        back_components = _mediate_transformation(
            translate_transformation_a2f(components, ctx), colims,
            _sigma_colimits(G, ctx), ctx,
        )
        morphism_bad = [
            canonical_label(frozenset(M.events))
            for M in ctx.aqft_fragment.colors
            if back_components[M] != components[M]
        ]
        rep.verdict("roundtrip/morphisms", t, morphism_bad)
    return rep


def _collar_row(ctx: TranslationContext, b: Bordism) -> ZigZag | None:
    """The window classes of the collar wrappers of ``b``, if all resolve."""
    try:
        return _collar_legs(b).map(
            lambda leg: ctx.resolve(wrapper_bordism(*leg))
        )
    except ValueError:
        return None


def roundtrip_fqft(F: QftModel, ctx: TranslationContext, *,
                   transformation=None, debug: bool = False) -> Report:
    """Verify that a surface model round-trips to an isomorphic model.

    The comparison components are the colimit legs; the report checks that
    each is a monoid isomorphism, that they commute with every class, and
    that the collar-restriction row of each representative composes to the
    class image itself.  With ``transformation`` given as a pair of a
    second model and componentwise homs, the squares relating the legs of
    the two models are checked as well.  ``debug`` is passed to both
    translations.
    """
    rep = Report()
    t = ctx.name
    colims = _region_colimits(F, ctx)
    back = _induced_model(F, ctx, colims, debug)
    forward = aqft_to_fqft(back, ctx, debug=debug)
    iota = {
        c: colims[c.carrier].legs[c.surface]
        for c in ctx.bordism_fragment.colors
    }

    component_bad = [
        str(c) for c in ctx.bordism_fragment.colors
        if not iota[c].is_isomorphism
    ]
    rep.verdict("roundtrip/components", t, component_bad)

    naturality_bad = []
    for cls in ctx.bordism_fragment.operations:
        lhs = F.hom(cls).then(iota[cls.output])
        rhs = compose_monoid_homs(forward.hom(cls), tuple(iota[c] for c in cls.inputs))
        if lhs != rhs:
            naturality_bad.append(str(cls))
    rep.verdict("roundtrip/naturality", t, naturality_bad)

    row_bad = []
    outside = 0
    checked = 0
    for cls in ctx.bordism_fragment.operations:
        row = _collar_row(ctx, cls.rep)
        if row is None:
            outside += 1
            continue
        try:
            composite = evaluate_zigzag(F, row)
        except TimeSliceRequired:
            row_bad.append(f"{cls}: a collar leg does not invert")
            continue
        checked += 1
        if composite != F.hom(cls):
            row_bad.append(str(cls))
    rep.verdict("roundtrip/base-diagram", t, row_bad,
                {"checked": checked, "outside-window": outside})

    if transformation is not None:
        G, components = transformation
        colims_g = _sigma_colimits(G, ctx)
        round_components = translate_transformation_a2f(
            _mediate_transformation(components, colims, colims_g, ctx), ctx,
        )
        square_bad = [
            str(c) for c in ctx.bordism_fragment.colors
            if components[c].then(colims_g[c.carrier].legs[c.surface])
            != iota[c].then(round_components[c])
        ]
        rep.verdict("roundtrip/morphisms", t, square_bad)
    return rep
