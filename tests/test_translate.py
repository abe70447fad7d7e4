"""Region/surface model translation: windows, zig-zags, and round trips."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalops.translate as translate_module
from causalops.bordism import (
    Bordism,
    PointedObject,
    resolve_bordism_class,
    unit_bordism,
)
from causalops.causal_core import CausalEmbedding, CausalSet, cauchy_antichains
from causalops.errors import (
    AdditivityRequired,
    FragmentCapExceeded,
    InvalidSurface,
    NoLaterSurface,
    NonConstantCocone,
    NotFiltered,
    TimeSliceRequired,
)
from causalops.operad_kernel import (
    EmbeddingTuple,
    check_operad_axioms,
    prefactorization_operad,
)
from causalops.qft_models import (
    Monoid,
    MonoidHom,
    aqft_model,
    check_additivity_aqft,
    check_additivity_fqft,
    check_einstein_causality,
    check_time_slice,
    compose_monoid_homs,
    constant_aqft,
    constant_fqft,
    fqft_model,
    permute_monoid_hom,
    sigma_category,
    validate_model,
)
from causalops.report import PASS, SKIP
from causalops.translate import (
    TranslationContext,
    ZigZag,
    aqft_to_fqft,
    build_translation_context,
    chain_translation_context,
    diamond_translation_context,
    derive_zigzag,
    evaluate_zigzag,
    fqft_to_aqft,
    later_surfaces,
    roundtrip_aqft,
    roundtrip_fqft,
    sigma_colimit,
    translate_transformation_f2a,
    translation_window,
    validate_translation_context,
    wrapper_bordism,
)

import oracles

Z2 = Monoid.cyclic(2)
Z3 = Monoid.cyclic(3)
Z4 = Monoid.cyclic(4)
TRIV = Monoid.trivial()


def fs(s: str) -> frozenset:
    return frozenset(s)


@st.composite
def poset_data(draw, max_events=4):
    n = draw(st.integers(min_value=1, max_value=max_events))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    bias = draw(st.sampled_from([0.15, 0.3, 0.5]))
    return oracles.random_poset_data(random.Random(seed), n, bias)


def times(k: int) -> MonoidHom:
    return MonoidHom.unary(Z4, Z4, {x: (k * x) % 4 for x in Z4.elements})


def diamond_region(ctx) -> CausalSet:
    return next(M for M in ctx.aqft_fragment.colors if len(M) == 4)


def unary_ops_into(base, target, image):
    return [op for op in base.operations
            if len(op.maps) == 1 and op.target is target
            and frozenset(op.maps[0].image) == image]


def skew_model():
    """Diamond model with a non-invertible image on the off-surface inclusions.

    The two lower singleton inclusions double, the bottom one triples, and
    binary operations add the doubled arguments; compatibility with the
    operad laws pins everything else to identities and unit picks.
    """
    ctx = diamond_translation_context()
    base = ctx.aqft_fragment
    D = diamond_region(ctx)
    colors = {M: Z4 for M in base.colors}
    ops = {}
    for op in base.operations:
        if len(op.maps) == 0:
            ops[op] = MonoidHom((), Z4, {(): 0})
        elif len(op.maps) == 1:
            image = frozenset(op.maps[0].image)
            if op.target is D and image == fs("a"):
                ops[op] = times(3)
            elif op.target is D and len(image) == 1 and image <= fs("bc"):
                ops[op] = times(2)
            else:
                ops[op] = times(1)
        else:
            ops[op] = MonoidHom((Z4, Z4), Z4,
                                {(x, y): (2 * x + 2 * y) % 4
                                 for x in range(4) for y in range(4)})
    return aqft_model(base, colors, ops, name="skew")


def transported_model():
    """Constant Z5 on the diamond transported along doubling on the region
    ``{b}``, so that the binary operations with a ``{b}`` slot weigh their
    two arguments differently."""
    ctx = diamond_translation_context()
    base = ctx.aqft_fragment
    Z5 = Monoid.cyclic(5)
    alpha = {M: MonoidHom.unary(Z5, Z5, {x: x * (2 if M.events == ("b",) else 1) % 5
                                         for x in Z5.elements})
             for M in base.colors}
    constant = constant_aqft(base, Z5)
    ops = {op: compose_monoid_homs(constant.hom(op).then(alpha[op.output]),
                                   tuple(alpha[M].inverse() for M in op.inputs))
           for op in base.operations}
    return aqft_model(base, {M: Z5 for M in base.colors}, ops, name="transported")


def conjugated_model():
    """Surface model whose colimit legs are forced away from identities."""
    ctx = diamond_translation_context()
    translated = aqft_to_fqft(skew_model(), ctx)
    alpha = {
        c: times(3) if len(c.carrier) == 4 and c.surface == fs("a") else times(1)
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


class TestLaterSurfaces:
    def test_diamond_identity_decorations(self):
        ctx = diamond_translation_context()
        D = diamond_region(ctx)
        ident = ctx.aqft_fragment.unit(D)
        assert later_surfaces(ident, (fs("a"),)) == (fs("a"), fs("bc"), fs("d"))
        assert later_surfaces(ident, (fs("bc"),)) == (fs("bc"), fs("d"))
        assert later_surfaces(ident, (fs("d"),)) == (fs("d"),)

    def test_off_surface_inclusion_needs_the_top(self):
        ctx = diamond_translation_context()
        D = diamond_region(ctx)
        for image in (fs("b"), fs("c")):
            for op in unary_ops_into(ctx.aqft_fragment, D, image):
                m = op.maps[0]
                assert later_surfaces(op, (m.preimage_of(image),)) == (fs("d"),)

    def test_binary_inclusions_need_the_top(self):
        ctx = diamond_translation_context()
        base = ctx.aqft_fragment
        binaries = [op for op in base.operations if len(op.maps) == 2]
        assert len(binaries) == 18
        for op in binaries:
            surfaces = tuple(m.preimage_of(m.image) for m in op.maps)
            assert later_surfaces(op, surfaces) == (fs("d"),)

    def test_empty_tuples_accept_every_surface(self):
        ctx = diamond_translation_context()
        D = diamond_region(ctx)
        nullary = next(op for op in ctx.aqft_fragment.operations
                       if not op.maps and op.target is D)
        assert later_surfaces(nullary, ()) == (fs("a"), fs("bc"), fs("d"))

    @given(poset_data(max_events=5))
    @settings(max_examples=25, deadline=None)
    def test_maximal_antichain_always_decorates_the_identity(self, data):
        events, relations = data
        M = CausalSet(events, relations)
        ident = prefactorization_operad((M,), max_arity=1).unit(M)
        top = frozenset(M.maximal_events)
        for surface in cauchy_antichains(M):
            assert top in later_surfaces(ident, (surface,))

    @given(poset_data(max_events=5))
    @settings(max_examples=40, deadline=None)
    def test_sigma_hom_pairs_are_the_identity_decorations(self, data):
        # sigma_colimit reads its transition classes from the identity
        # wrappers' decorations, so the two must list the same pairs
        events, relations = data
        M = CausalSet(events, relations)
        unit = EmbeddingTuple((CausalEmbedding.identity(M),), M)
        C = sigma_category(M)
        pairs = {(a, b) for a, b in C.hom_pairs if a != b}
        decorated = {
            (a, b) for a in C.objects for b in later_surfaces(unit, (a,))
            if a != b
        }
        assert pairs == decorated


def fresh_diamond_context():
    """The shipped diamond context, built anew rather than taken from the cache."""
    D = CausalSet(("a", "b", "c", "d"),
                  (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")))
    base = prefactorization_operad(
        (D, D.induced({"a"}), D.induced({"b"}), D.induced({"c"}))
    )
    return build_translation_context(base, name="diamond")


class TestDecorationTable:
    @pytest.fixture
    def validated(self, monkeypatch):
        seen = []
        real = translate_module.validate_bordism

        def counting(b):
            seen.append(b)
            return real(b)

        monkeypatch.setattr(translate_module, "validate_bordism", counting)
        return seen

    def test_each_wrapper_is_validated_once_per_context(self, validated):
        ctx = fresh_diamond_context()
        built = list(validated)
        assert len(built) == 123
        assert len(set(built)) == len(built)

        validated.clear()
        report = roundtrip_aqft(constant_aqft(ctx.aqft_fragment, Z3), ctx,
                                debug=True)
        assert report.ok, report.failures
        assert validated == []

        validated.clear()
        fresh_diamond_context()
        assert validated == built

    def test_decorations_match_later_surfaces(self):
        ctx = fresh_diamond_context()
        for op in ctx.aqft_fragment.operations:
            pools = [ctx.surface_families[m.dom] for m in op.maps]
            for surfaces in itertools.product(*pools):
                table = ctx.decorations(op, surfaces)
                assert tuple(table) == later_surfaces(op, surfaces)
                for later, cls in table.items():
                    assert cls == ctx.resolve(wrapper_bordism(op, surfaces, later))
                assert ctx.decorations(op, surfaces) is table


CYCLIC = tuple(Monoid.cyclic(n) for n in (1, 2, 3, 4))


def lawful_values(draw, doms, cod, keys) -> list:
    """The values at ``keys`` of ``x`` going to the sum of ``x_i g_i`` in ``cod``,
    with every drawn ``g_i`` killed by its factor's order: a lawful hom."""
    gens = [draw(st.sampled_from([g for g in cod.elements if len(m) * g % len(cod) == 0]))
            for m in doms]
    return [sum(x * g for x, g in zip(args, gens)) % len(cod) for args in keys]


@st.composite
def lawful_homs(draw, cod, doms=None):
    """A lawful hom into ``cod`` from ``doms``, by default a product of at
    most two drawn Z1-Z4 factors."""
    if doms is None:
        doms = tuple(draw(st.lists(st.sampled_from(CYCLIC), max_size=2)))
    keys = list(itertools.product(*(m.elements for m in doms)))
    return MonoidHom(doms, cod, dict(zip(keys, lawful_values(draw, doms, cod, keys))))


@st.composite
def hom_tables(draw):
    """A table from a product of Z1-Z4 factors into one of them, keys shuffled.

    One draw in four is a lawful hom, ``x`` going to the sum of ``x_i g_i``
    with every ``g_i`` killed by its factor's order; the others take
    arbitrary values, so most of them break a law.
    """
    doms = tuple(draw(st.lists(st.sampled_from(CYCLIC), max_size=2)))
    cod = draw(st.sampled_from(CYCLIC))
    keys = draw(st.permutations(list(itertools.product(*(m.elements for m in doms)))))
    if draw(st.integers(0, 3)) == 0:
        values = lawful_values(draw, doms, cod, keys)
    else:
        values = draw(st.lists(st.sampled_from(cod.elements),
                               min_size=len(keys), max_size=len(keys)))
    return doms, cod, dict(zip(keys, values))


class TestHomTable:
    @given(hom_tables())
    @settings(max_examples=200, deadline=None)
    def test_lookups_match_the_hom_law_oracle(self, drawn):
        doms, cod, table = drawn
        chain = chain_translation_context()
        ctx = TranslationContext(chain.aqft_fragment, chain.bordism_fragment,
                                 chain.bridge)
        ctx.hom((cod,), cod, {(e,): e for e in cod.elements})
        expected = oracles.brute_hom_law_error(doms, cod, table)
        if expected is None:
            fresh = MonoidHom(doms, cod, table)
            found = ctx.hom(doms, cod, table)
            assert found == fresh and found.pairs == fresh.pairs
            assert ctx.hom(doms, cod, dict(reversed(table.items()))) is found
            return
        with pytest.raises(ValueError) as fresh_error:
            MonoidHom(doms, cod, table)
        assert str(fresh_error.value) == expected
        before = list(ctx._homs.items())
        with pytest.raises(ValueError) as lookup_error:
            ctx.hom(doms, cod, table)
        assert str(lookup_error.value) == expected
        assert list(ctx._homs.items()) == before

    def test_each_hom_built_from_a_new_table_is_validated_once_per_context(self, monkeypatch):
        built = []
        real = translate_module.MonoidHom

        def counting(doms, cod, table):
            h = real(doms, cod, table)
            built.append(h)
            return h

        monkeypatch.setattr(translate_module, "MonoidHom", counting)
        ctx = fresh_diamond_context()
        for monoid in (Z2, Z3):
            report = roundtrip_aqft(constant_aqft(ctx.aqft_fragment, monoid), ctx,
                                    debug=True)
            assert report.ok, report.failures
        report = roundtrip_fqft(constant_fqft(ctx.bordism_fragment, Z2), ctx, debug=True)
        assert report.ok, report.failures
        assert built and len(set(built)) == len(built) == len(ctx._homs)
        assert set(built) == set(ctx._homs.values())

        count = len(built)
        roundtrip_aqft(constant_aqft(ctx.aqft_fragment, Z2), ctx, debug=True)
        assert len(built) == count

        built.clear()
        other = fresh_diamond_context()
        roundtrip_aqft(constant_aqft(other.aqft_fragment, Z2), other, debug=True)
        assert built and set(built) == set(other._homs.values())

    def test_context_zigzags_equal_the_public_compositions(self):
        # every left and right inward leg of the diamond bridge is a unit, so
        # the transported model's uneven binary operations are what tell the
        # slots of a middle leg apart
        ctx = diamond_translation_context()
        for model in (skew_model(), constant_aqft(ctx.aqft_fragment, Z3),
                      transported_model()):
            for cls in ctx.bordism_fragment.operations:
                for zz in ctx.bridge[cls]:
                    image = evaluate_zigzag(model, zz)
                    homs = zz.map(model.hom)
                    tables = homs.map(lambda h: dict(h.pairs))
                    assert image.doms == tuple(h.cod for h in homs.left)
                    assert image.cod == homs.right_out.cod
                    assert dict(image.pairs) == oracles.brute_zigzag_table(
                        tables.left, tables.middle, tables.right_in, tables.right_out)


def assert_is_the_validated_hom(r: MonoidHom) -> None:
    assert oracles.brute_hom_law_error(r.doms, r.cod, dict(r.pairs)) is None
    fresh = MonoidHom(r.doms, r.cod, dict(r.pairs))
    assert r == fresh and r.pairs == fresh.pairs and hash(r) == hash(fresh)


class TestDerivedHoms:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_homs_derived_from_homs_are_homs(self, data):
        # derived homs skip the hom laws; on lawful arguments they must hold
        doms, cod, table = data.draw(
            hom_tables().filter(lambda drawn: oracles.brute_hom_law_error(*drawn) is None)
        )
        f = MonoidHom(doms, cod, table)
        g = data.draw(lawful_homs(data.draw(st.sampled_from(CYCLIC)), (cod,)))
        inners = tuple(data.draw(lawful_homs(m)) for m in doms)
        results = [MonoidHom.identity(m) for m in doms + (cod,)]
        results += [f.then(g), compose_monoid_homs(f, inners)]
        results += [permute_monoid_hom(f, sigma)
                    for sigma in itertools.permutations(range(f.arity))]
        results += [h.inverse() for h in (f, g) if h.is_isomorphism]
        for r in results:
            assert_is_the_validated_hom(r)
        for h in (f, g):
            if h.is_isomorphism:
                assert h.then(h.inverse()) == MonoidHom.identity(h.doms[0])
                assert h.inverse().then(h) == MonoidHom.identity(h.cod)


def small_fragment(events, relations, singles):
    """The region fragment of one poset and some of its singleton regions."""
    M = CausalSet(tuple(events), tuple(tuple(r) for r in relations))
    return prefactorization_operad((M,) + tuple(M.induced({e}) for e in singles))


# six small region fragments; the chain and the diamond are the shipped ones
FRAGMENTS = {
    "chain": lambda: chain_translation_context().aqft_fragment,
    "diamond": lambda: diamond_translation_context().aqft_fragment,
    "crown": lambda: small_fragment("abcd", ["ac", "ad", "bc", "bd"], "abcd"),
    "N": lambda: small_fragment("abcd", ["ac", "bc", "bd"], "abcd"),
    "3-chain": lambda: small_fragment("abc", ["ab", "bc"], "abc"),
    "vee": lambda: small_fragment("abc", ["ab", "ac"], "abc"),
}


class TestTranslationWindow:
    @pytest.mark.parametrize("name", list(FRAGMENTS))
    def test_classes_match_the_cell_window_oracle(self, name):
        aqft = FRAGMENTS[name]()
        ctx = build_translation_context(aqft, name=name)
        colors, classes = oracles.brute_translation_classes(aqft)
        window = ctx.bordism_fragment
        assert window.colors == tuple(colors)
        assert [(cls.rep, cls.members) for cls in window.operations] == classes
        assert all((cls.inputs, cls.output) == (cls.rep.sources, cls.rep.target)
                   for cls in window.operations)

    def test_chain_window_shape(self):
        ctx = chain_translation_context()
        window = ctx.bordism_fragment
        assert len(window.colors) == 4
        assert len(window.operations) == 17
        assert all(len(cls.members) == 1 for cls in window.operations)

    def test_diamond_window_shape(self):
        ctx = diamond_translation_context()
        window = ctx.bordism_fragment
        # a color is a region pointed by one of its own Cauchy antichains
        P = oracles.OraclePoset.build(
            "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        expected = set()
        for M in ctx.aqft_fragment.colors:
            region = oracles.sub_oracle(P, set(M.events))
            expected |= {(frozenset(M.events), anti)
                         for anti in oracles.all_antichains(region)
                         if oracles.brute_is_cauchy(region, set(anti))}
        assert {(frozenset(c.carrier.events), c.surface)
                for c in window.colors} == expected
        assert len(window.colors) == 6
        assert len(window.operations) == 46
        sizes = sorted(len(cls.members) for cls in window.operations)
        assert sizes.count(1) == 29 and sizes.count(2) == 17

    def test_disjoint_binary_wrappers_share_a_class(self):
        ctx = diamond_translation_context()
        binaries = [cls for cls in ctx.bordism_fragment.operations
                    if len(cls.inputs) == 2]
        assert len(binaries) == 9
        for cls in binaries:
            images = {
                tuple(sorted(tuple(sorted(m.image)) for m in member.maps_in))
                for member in cls.members
            }
            # both orderings of the two incomparable events appear
            assert len(cls.members) == 2
            assert len(images) == 1

    def test_carrier_symmetry_folds_into_the_shift(self):
        ctx = diamond_translation_context()
        D = diamond_region(ctx)
        shift = ctx.resolve(wrapper_bordism(ctx.aqft_fragment.unit(D),
                                            (fs("a"),), fs("d")))
        tables = {tuple(sorted(m.maps_in[0].table.items()))
                  for m in shift.members}
        ident = tuple((e, e) for e in sorted(D.events))
        swapped = tuple(sorted({"a": "a", "b": "c", "c": "b", "d": "d"}.items()))
        assert tables == {ident, swapped}

    def test_both_off_surface_inclusions_share_a_class(self):
        ctx = diamond_translation_context()
        D = diamond_region(ctx)
        op_b = next(op for op in unary_ops_into(ctx.aqft_fragment, D, fs("b"))
                    if op.maps[0].dom.events == ("b",))
        op_c = next(op for op in unary_ops_into(ctx.aqft_fragment, D, fs("c"))
                    if op.maps[0].dom.events == ("b",))
        cls_b = ctx.resolve(wrapper_bordism(op_b, (fs("b"),), fs("d")))
        cls_c = ctx.resolve(wrapper_bordism(op_c, (fs("b"),), fs("d")))
        assert cls_b is cls_c

    def test_input_surfaces_use_domain_names(self):
        ctx = diamond_translation_context()
        D = diamond_region(ctx)
        op = next(op for op in unary_ops_into(ctx.aqft_fragment, D, fs("b"))
                  if op.maps[0].dom.events == ("a",))
        with pytest.raises(InvalidSurface, match="domain"):
            wrapper_bordism(op, (fs("b"),), fs("d"))
        cls = ctx.resolve(wrapper_bordism(op, (fs("a"),), fs("d")))
        assert cls in set(ctx.bordism_fragment.operations)

    def test_stray_surface_events_are_named(self):
        with pytest.raises(InvalidSurface, match=r"\['b'\].*carrier \['a'\]"):
            PointedObject(CausalSet(["a"]), {"b"})
        ctx = diamond_translation_context()
        D = diamond_region(ctx)
        with pytest.raises(InvalidSurface,
                           match=r"\['x'\].*carrier \['a', 'b', 'c', 'd'\]"):
            wrapper_bordism(ctx.aqft_fragment.unit(D), (fs("a"),), fs("x"))

    def test_units_resolve_to_unit_wrappers(self):
        for ctx in (chain_translation_context(), diamond_translation_context()):
            window = ctx.bordism_fragment
            for color in window.colors:
                assert unit_bordism(color) in window.unit(color).members

    def test_windows_are_strict_operads(self):
        for ctx in (chain_translation_context(), diamond_translation_context()):
            report = check_operad_axioms(ctx.bordism_fragment)
            assert report.ok, report.failures

    def test_fragment_audits_match_the_value_walk(self):
        for ctx in (chain_translation_context(), diamond_translation_context()):
            for fragment in (ctx.aqft_fragment, ctx.bordism_fragment):
                assert check_operad_axioms(fragment).dumps() == \
                    oracles.brute_operad_axioms(fragment).dumps()

    def test_an_associativity_budget_stop_is_a_skip(self):
        window = chain_translation_context().bordism_fragment

        def associativity(report):
            return next(e for e in report.entries
                        if e.check == "operad/associativity")

        full = check_operad_axioms(window)
        checked = associativity(full).witness["checked"]
        assert associativity(full).status == PASS and checked > 1
        exact = check_operad_axioms(window, max_assoc_checks=checked)
        assert exact.dumps() == full.dumps()
        cut = associativity(check_operad_axioms(window, max_assoc_checks=1))
        assert cut.status == SKIP
        assert cut.witness == {"checked": 1, "max_assoc_checks": 1}
        for budget in (1, checked):
            assert check_operad_axioms(window, max_assoc_checks=budget).dumps() == \
                oracles.brute_operad_axioms(window, max_assoc_checks=budget).dumps()

    def test_resolution_handles_trimmed_composites(self):
        ctx = diamond_translation_context()
        window = ctx.bordism_fragment
        for outer in window.operations:
            for inners in window.composable_inner_tuples(outer):
                assert window.compose(outer, inners) in set(window.operations)

    def test_resolution_rejects_interval_carriers(self):
        ctx = chain_translation_context()
        M = next(c for c in ctx.aqft_fragment.colors if len(c) == 2)
        lo = PointedObject(M.induced({"u"}), fs("u"))
        hi = PointedObject(M.induced({"v"}), fs("v"))
        interval = Bordism(
            (lo,), hi, M,
            (CausalEmbedding(lo.carrier, M, {"u": "u"}),),
            CausalEmbedding(hi.carrier, M, {"v": "v"}),
        )
        with pytest.raises(ValueError, match="no class presenting"):
            resolve_bordism_class(ctx.bordism_fragment, interval)

    def test_resolution_accepts_proper_out_collars(self):
        ctx = chain_translation_context()
        M = next(c for c in ctx.aqft_fragment.colors if len(c) == 2)
        lo = PointedObject(M.induced({"u"}), fs("u"))
        partial = Bordism(
            (lo,), PointedObject(M, fs("v")), M,
            (CausalEmbedding(lo.carrier, M, {"u": "u"}),),
            CausalEmbedding(M.induced({"v"}), M, {"v": "v"}),
        )
        inclusion = next(op for op in ctx.aqft_fragment.operations
                         if len(op.maps) == 1 and op.target is M
                         and op.maps[0].table == {"u": "u"})
        full = ctx.resolve(wrapper_bordism(inclusion, (fs("u"),), fs("v")))
        assert resolve_bordism_class(ctx.bordism_fragment, partial) is full

    def test_operation_cap_trips(self):
        ctx = diamond_translation_context()
        with pytest.raises(FragmentCapExceeded):
            translation_window(ctx.aqft_fragment, max_ops=5)


class TestZigZags:
    def test_wrapper_zigzags_reuse_the_wrapped_operation(self):
        ctx = diamond_translation_context()
        for cls in ctx.bordism_fragment.operations:
            member = sorted(cls.members, key=str)[0]
            zz = ctx.bridge[cls][0]
            assert zz.middle == EmbeddingTuple(member.maps_in, member.carrier)
            units = [ctx.aqft_fragment.unit(src.carrier) for src in member.sources]
            assert list(zz.left) == units
            assert zz.right_in == ctx.aqft_fragment.unit(member.carrier)
            assert zz.right_out == ctx.aqft_fragment.unit(member.target.carrier)

    def test_unmaterialized_collars_yield_nothing(self):
        ctx = diamond_translation_context()
        D = diamond_region(ctx)
        lo = PointedObject(D.induced({"a"}), fs("a"))
        partial = Bordism(
            (lo,), PointedObject(D, fs("d")), D,
            (CausalEmbedding(lo.carrier, D, {"a": "a"}),),
            CausalEmbedding(D.induced({"d"}), D, {"d": "d"}),
        )
        assert derive_zigzag(partial, ctx.aqft_fragment) is None

    def test_skew_values_through_zigzags(self):
        ctx = diamond_translation_context()
        model = skew_model()
        D = diamond_region(ctx)
        op = next(op for op in unary_ops_into(ctx.aqft_fragment, D, fs("b"))
                  if op.maps[0].dom.events == ("b",))
        cls = ctx.resolve(wrapper_bordism(op, (fs("b"),), fs("d")))
        assert evaluate_zigzag(model, ctx.bridge[cls][0]) == times(2)
        shift = ctx.resolve(wrapper_bordism(ctx.aqft_fragment.unit(D),
                                            (fs("a"),), fs("d")))
        assert evaluate_zigzag(model, ctx.bridge[shift][0]) == times(1)

    def test_collar_rows_match_the_hand_built_wrappers(self):
        diamond = diamond_translation_context()
        D = diamond_region(diamond)
        lo = PointedObject(D.induced({"a"}), fs("a"))
        partial = Bordism(
            (lo,), PointedObject(D, fs("d")), D,
            (CausalEmbedding(lo.carrier, D, {"a": "a"}),),
            CausalEmbedding(D.induced({"d"}), D, {"d": "d"}),
        )
        cases = [(diamond, partial)] + [
            (ctx, b)
            for ctx in (chain_translation_context(), diamond)
            for cls in ctx.bordism_fragment.operations
            for b in sorted(cls.members, key=str)
        ]
        rows = 0
        for ctx, b in cases:
            try:
                built = ZigZag(*oracles.hand_built_collar_wrappers(b))
                expected = built.map(ctx.resolve)
            except ValueError:
                expected = None
            assert translate_module._collar_row(ctx, b) == expected
            if expected is not None:
                rows += 1
                legs = translate_module._collar_legs(b)
                assert legs.map(lambda leg: wrapper_bordism(*leg)) == built
        # every member of both windows has a row; the partial bordism has none
        assert rows == len(cases) - 1 == 80

    @pytest.mark.parametrize("inverted", ["left", "right_in"])
    def test_a_cauchy_leg_is_read_through_its_inverse(self, inverted):
        # {u} -> u<v is Cauchy; doubling on Z5 inverts to tripling, not to
        # itself, so a zig-zag that reads the leg forward is caught
        ctx = chain_translation_context()
        base = ctx.aqft_fragment
        M = next(c for c in base.colors if len(c) == 2)
        leg = next(op for op in base.operations
                   if len(op.maps) == 1 and op.target is M and op.maps[0].table == {"u": "u"})
        point, unit = leg.inputs[0], base.unit
        if inverted == "left":
            zz = ZigZag((leg,), leg, unit(M), unit(M))
        else:
            zz = ZigZag((unit(M),), unit(M), leg, unit(point))
        Z5 = Monoid.cyclic(5)
        model = aqft_model(base, {c: Z5 for c in base.colors}, {
            leg: MonoidHom.unary(Z5, Z5, {x: 2 * x % 5 for x in Z5.elements}),
            unit(M): MonoidHom.identity(Z5), unit(point): MonoidHom.identity(Z5)})
        tables = zz.map(lambda op: dict(model.hom(op).pairs))
        image = evaluate_zigzag(model, zz)
        assert dict(image.pairs) == oracles.brute_zigzag_table(
            tables.left, tables.middle, tables.right_in, tables.right_out)

    def test_noninvertible_cauchy_leg_raises(self):
        ctx = diamond_translation_context()
        model = skew_model()
        D = diamond_region(ctx)
        bottom = next(op for op in unary_ops_into(ctx.aqft_fragment, D, fs("a"))
                      if op.maps[0].dom.events == ("a",))
        wrapper = wrapper_bordism(bottom, (fs("a"),), fs("d"))
        zz = derive_zigzag(wrapper, ctx.aqft_fragment)
        crippled = aqft_model(
            ctx.aqft_fragment,
            {M: Z4 for M in ctx.aqft_fragment.colors},
            {op: (times(2) if op == zz.right_in else model.hom(op))
             for op in ctx.aqft_fragment.operations},
        )
        with pytest.raises(TimeSliceRequired, match="does not invert"):
            evaluate_zigzag(crippled, zz)


class TestContexts:
    def test_shipped_contexts_validate(self):
        for ctx in (chain_translation_context(), diamond_translation_context()):
            report = validate_translation_context(ctx)
            assert report.ok, report.failures
            by_check = {e.check: e for e in report.entries}
            assert by_check["context/composition"].witness["checked"] > 0

    @staticmethod
    def thinned_context() -> TranslationContext:
        ctx = chain_translation_context()
        thinned = dict(ctx.bridge)
        dropped = next(iter(thinned))
        del thinned[dropped]
        return TranslationContext(ctx.aqft_fragment, ctx.bordism_fragment,
                                  thinned, name="broken")

    def test_missing_bridge_entries_are_reported(self):
        report = validate_translation_context(self.thinned_context())
        assert not report.ok
        assert any(e.check == "context/bridge" and e.status == "fail"
                   for e in report.entries)

    def test_failing_report_is_pinned(self):
        report = validate_translation_context(self.thinned_context())
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == "be9abe1469327aad4d5b754af871e21bd9ad1cb7fb6fd026401976a9a9a4ed9f"

    def test_building_requires_collar_descriptions(self):
        M = CausalSet(("u", "v"), (("u", "v"),))
        base = prefactorization_operad((M,))
        ctx = build_translation_context(base, name="bare")
        assert validate_translation_context(ctx).ok

    def test_an_empty_region_color_is_rejected_at_build_time(self):
        base = prefactorization_operad([CausalSet([]), CausalSet("a")])
        with pytest.raises(NotFiltered, match="nonempty causal set"):
            build_translation_context(base)

    @given(poset_data(max_events=4))
    @settings(max_examples=10, deadline=None)
    def test_random_single_region_contexts_validate(self, data):
        events, relations = data
        M = CausalSet(events, relations)
        ctx = build_translation_context(prefactorization_operad((M,)))
        assert validate_translation_context(ctx).ok
        assert check_operad_axioms(ctx.bordism_fragment).ok


class TestAqftToFqft:
    def test_constant_models_translate_to_constants(self):
        for ctx in (chain_translation_context(), diamond_translation_context()):
            model = constant_aqft(ctx.aqft_fragment, Z2)
            translated = aqft_to_fqft(model, ctx, debug=True)
            assert validate_model(translated).ok
            for color in ctx.bordism_fragment.colors:
                assert translated.value(color) == Z2
            reference = constant_fqft(ctx.bordism_fragment, Z2)
            for cls in ctx.bordism_fragment.operations:
                assert translated.hom(cls) == reference.hom(cls)

    def test_trivial_monoid_translates_trivially(self):
        ctx = chain_translation_context()
        translated = aqft_to_fqft(constant_aqft(ctx.aqft_fragment, TRIV), ctx)
        assert all(translated.value(c) == TRIV
                   for c in ctx.bordism_fragment.colors)

    def test_identity_classes_map_to_identity_homs(self):
        ctx = diamond_translation_context()
        translated = aqft_to_fqft(skew_model(), ctx, debug=True)
        for color in ctx.bordism_fragment.colors:
            unit_cls = ctx.bordism_fragment.unit(color)
            assert translated.hom(unit_cls) == MonoidHom.identity(Z4)

    def test_representatives_agree_for_lawful_models(self):
        ctx = diamond_translation_context()
        model = skew_model()
        for cls in ctx.bordism_fragment.operations:
            images = {evaluate_zigzag(model, zz) for zz in ctx.bridge[cls]}
            assert len(images) == 1, str(cls)

    def test_skew_images(self):
        ctx = diamond_translation_context()
        model = skew_model()
        translated = aqft_to_fqft(model, ctx, debug=True)
        D = diamond_region(ctx)
        binary = next(cls for cls in ctx.bordism_fragment.operations
                      if len(cls.inputs) == 2)
        assert translated.hom(binary)(1, 1) == 0
        assert translated.hom(binary)(1, 0) == 2
        bottom = next(op for op in unary_ops_into(ctx.aqft_fragment, D, fs("a"))
                      if op.maps[0].dom.events == ("a",))
        cls = ctx.resolve(wrapper_bordism(bottom, (fs("a"),), fs("a")))
        assert translated.hom(cls) == times(3)

    def test_preserves_time_slice_and_additivity(self):
        cases = [
            (chain_translation_context(), None),
            (diamond_translation_context(), skew_model()),
        ]
        for ctx, model in cases:
            model = model or constant_aqft(ctx.aqft_fragment, Z3)
            translated = aqft_to_fqft(model, ctx)
            assert check_time_slice(translated).ok
            for color in ctx.bordism_fragment.colors:
                report = check_additivity_fqft(translated, color)
                assert not report.failures, (str(color), report.failures)

    def test_gate_rejects_broken_time_slice(self):
        ctx = diamond_translation_context()
        model = skew_model()
        D = diamond_region(ctx)
        ops = {op: model.hom(op) for op in ctx.aqft_fragment.operations}
        for op in unary_ops_into(ctx.aqft_fragment, D, fs("d")):
            ops[op] = times(2)
        broken = aqft_model(ctx.aqft_fragment,
                            {M: Z4 for M in ctx.aqft_fragment.colors}, ops)
        with pytest.raises(TimeSliceRequired, match="time-slice fails"):
            aqft_to_fqft(broken, ctx)

    def test_foreign_models_are_rejected(self):
        chain = chain_translation_context()
        diamond = diamond_translation_context()
        model = constant_aqft(chain.aqft_fragment, Z2)
        with pytest.raises(ValueError, match="different region fragment"):
            aqft_to_fqft(model, diamond)


class TestFqftToAqft:
    def test_constant_models_translate_to_constants(self):
        for ctx in (chain_translation_context(), diamond_translation_context()):
            model = constant_fqft(ctx.bordism_fragment, Z2)
            back = fqft_to_aqft(model, ctx, debug=True)
            assert validate_model(back).ok
            reference = constant_aqft(ctx.aqft_fragment, Z2)
            for M in ctx.aqft_fragment.colors:
                assert back.value(M) == Z2
            for op in ctx.aqft_fragment.operations:
                assert back.hom(op) == reference.hom(op)

    def test_cauchy_inclusions_land_on_conjugated_class_images(self):
        ctx = diamond_translation_context()
        surface_model = aqft_to_fqft(skew_model(), ctx, debug=True)
        back = fqft_to_aqft(surface_model, ctx, debug=True)
        D = diamond_region(ctx)
        bottom = next(op for op in unary_ops_into(ctx.aqft_fragment, D, fs("a"))
                      if op.maps[0].dom.events == ("a",))
        for later in later_surfaces(bottom, (fs("a"),)):
            cls = ctx.resolve(wrapper_bordism(bottom, (fs("a"),), later))
            assert back.hom(bottom) == surface_model.hom(cls)

    def test_binary_recipe_matches_every_presentation(self):
        ctx = diamond_translation_context()
        surface_model = aqft_to_fqft(skew_model(), ctx, debug=True)
        back = fqft_to_aqft(surface_model, ctx, debug=True)
        binary = next(op for op in ctx.aqft_fragment.operations
                      if len(op.maps) == 2)
        surfaces = tuple(m.preimage_of(m.image) for m in binary.maps)
        cls = ctx.resolve(wrapper_bordism(binary, surfaces, fs("d")))
        assert back.hom(binary) == surface_model.hom(cls)
        recomputed = MonoidHom(
            back.hom(binary).doms, back.value(binary.target),
            {args: surface_model.hom(cls)(*args)
             for args in itertools.product(*(m.elements
                                             for m in back.hom(binary).doms))},
        )
        assert recomputed == back.hom(binary)

    def test_outputs_stay_lawful_and_causal(self):
        ctx = diamond_translation_context()
        surface_model = aqft_to_fqft(skew_model(), ctx)
        back = fqft_to_aqft(surface_model, ctx)
        assert validate_model(back).ok
        assert check_time_slice(back).ok
        assert check_einstein_causality(back).ok
        for M in ctx.aqft_fragment.colors:
            report = check_additivity_aqft(back, M)
            assert not report.failures

    def test_conjugated_colimits_do_not_collapse(self):
        ctx = diamond_translation_context()
        model, _, _ = conjugated_model()
        D = diamond_region(ctx)
        colim = sigma_colimit(model, ctx, D)
        assert not colim.collapsed
        assert len(colim.monoid) == 4
        assert all(colim.legs[s].is_isomorphism
                   for s in ctx.surface_families[D])
        back = fqft_to_aqft(model, ctx, debug=True)
        assert validate_model(back).ok
        assert check_time_slice(back).ok

    def test_gate_rejects_broken_additivity(self):
        ctx = diamond_translation_context()
        reference = aqft_to_fqft(constant_aqft(ctx.aqft_fragment, Z2), ctx)
        zero = MonoidHom.unary(Z2, Z2, {0: 0, 1: 0})
        upper = next(c for c in ctx.bordism_fragment.colors
                     if len(c.carrier) == 4 and c.surface == fs("bc"))
        ops = {}
        for cls in ctx.bordism_fragment.operations:
            pinched = (cls.output == upper and len(cls.inputs) == 1
                       and cls.inputs[0].carrier.events == ("a",))
            ops[cls] = zero if pinched else reference.hom(cls)
        broken = fqft_model(ctx.bordism_fragment,
                            {c: Z2 for c in ctx.bordism_fragment.colors}, ops)
        with pytest.raises(AdditivityRequired, match="additivity fails"):
            fqft_to_aqft(broken, ctx)

    def test_pinched_top_surfaces_raise(self):
        D = CausalSet(("a", "b", "c", "d"),
                      (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")))
        open_top = D.induced({"a", "b", "c"})
        base = prefactorization_operad(
            (open_top, D.induced({"a"}), D.induced({"b"}), D.induced({"c"})))
        ctx = build_translation_context(base, name="open-top")
        assert validate_translation_context(ctx).ok
        model = constant_fqft(ctx.bordism_fragment, Z2)
        with pytest.raises(NoLaterSurface, match="no Cauchy antichain"):
            fqft_to_aqft(model, ctx)
        # the empty decoration is kept by the context and refused again
        with pytest.raises(NoLaterSurface, match="no Cauchy antichain"):
            fqft_to_aqft(model, ctx)

    def test_foreign_models_are_rejected(self):
        chain = chain_translation_context()
        diamond = diamond_translation_context()
        model = constant_fqft(chain.bordism_fragment, Z2)
        with pytest.raises(ValueError, match="different bordism window"):
            fqft_to_aqft(model, diamond)


class TestRoundTrips:
    @pytest.mark.parametrize("monoid", [TRIV, Z2, Z3, Z4], ids=str)
    def test_constant_region_round_trip_is_exact(self, monoid):
        for ctx in (chain_translation_context(), diamond_translation_context()):
            report = roundtrip_aqft(constant_aqft(ctx.aqft_fragment, monoid),
                                    ctx, debug=True)
            assert report.ok, report.failures

    def test_skew_round_trip_is_exact(self):
        ctx = diamond_translation_context()
        model = skew_model()
        report = roundtrip_aqft(model, ctx, debug=True)
        assert report.ok, report.failures
        back = fqft_to_aqft(aqft_to_fqft(model, ctx), ctx)
        for op in ctx.aqft_fragment.operations:
            assert back.hom(op) == model.hom(op)

    def test_region_transformations_survive_the_round_trip(self):
        ctx = diamond_translation_context()
        model = skew_model()
        doubling = {M: times(2) for M in ctx.aqft_fragment.colors}
        report = roundtrip_aqft(model, ctx, transformation=(model, doubling),
                                debug=True)
        assert report.ok, report.failures
        identity = {M: times(1) for M in ctx.aqft_fragment.colors}
        report = roundtrip_aqft(model, ctx, transformation=(model, identity))
        assert report.ok, report.failures

    def test_constant_surface_round_trip(self):
        for ctx in (chain_translation_context(), diamond_translation_context()):
            report = roundtrip_fqft(constant_fqft(ctx.bordism_fragment, Z2),
                                    ctx, debug=True)
            assert report.ok, report.failures
            rows = {e.check: e for e in report.entries}
            assert rows["roundtrip/base-diagram"].witness["outside-window"] == 0

    def test_translated_surface_models_round_trip_on_identity_legs(self):
        ctx = diamond_translation_context()
        surface_model = aqft_to_fqft(skew_model(), ctx)
        report = roundtrip_fqft(surface_model, ctx, debug=True)
        assert report.ok, report.failures
        colim = sigma_colimit(surface_model, ctx, diamond_region(ctx))
        assert colim.collapsed

    def test_conjugated_round_trip_has_iso_components(self):
        ctx = diamond_translation_context()
        model, translated, alpha = conjugated_model()
        inverse = {c: alpha[c].inverse() for c in ctx.bordism_fragment.colors}
        report = roundtrip_fqft(model, ctx, transformation=(translated, inverse),
                                debug=True)
        assert report.ok, report.failures

    def test_surface_transformations_keep_their_squares(self):
        ctx = diamond_translation_context()
        model, translated, alpha = conjugated_model()
        report = roundtrip_fqft(translated, ctx, transformation=(model, alpha),
                                debug=True)
        assert report.ok, report.failures

    def test_nonnatural_components_fail_the_mediator(self):
        ctx = diamond_translation_context()
        model, translated, alpha = conjugated_model()
        skewed = dict(alpha)
        skewed[next(iter(skewed))] = times(2)
        with pytest.raises(NonConstantCocone, match="not constant"):
            translate_transformation_f2a(skewed, translated, model, ctx)

    @given(poset_data(max_events=4))
    @settings(max_examples=10, deadline=None)
    def test_random_single_region_round_trips_exactly(self, data):
        events, relations = data
        M = CausalSet(events, relations)
        ctx = build_translation_context(prefactorization_operad((M,)))
        report = roundtrip_aqft(constant_aqft(ctx.aqft_fragment, Z2), ctx,
                                debug=True)
        assert report.ok, report.failures
