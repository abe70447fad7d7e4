"""Monoid-valued models: region categories, colimits, and the checkers."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalops.bordism import (
    Bordism,
    PointedObject,
    bordism_fragment,
    truncate_bordisms,
)
from causalops.causal_core import (
    CausalEmbedding,
    CausalSet,
    cauchy_antichains,
    chronological_past,
)
from causalops.errors import NonConstantCocone, NotFiltered
from causalops.operad_kernel import (
    EmbeddingTuple,
    check_operad_axioms,
    prefactorization_operad,
)
from causalops.qft_models import (
    Monoid,
    MonoidHom,
    QftModel,
    ThinCategory,
    ThinFunctor,
    _unbounded_pair,
    aqft_model,
    canonical_label,
    check_additivity_aqft,
    check_additivity_fqft,
    check_einstein_causality,
    check_time_slice,
    colimit_mediator,
    compose_monoid_homs,
    constant_aqft,
    constant_fqft,
    filtered_colimit_monoids,
    fqft_model,
    grothendieck,
    is_filtered,
    is_final,
    monoid_operad,
    permute_monoid_hom,
    product_monoid,
    q_category,
    rc_category,
    rc_pointed_category,
    region_forgetful,
    sigma_category,
    validate_model,
)
from causalops.report import DEGENERATE, FAIL, PASS, SKIP

import oracles

Z2 = Monoid.cyclic(2)
Z3 = Monoid.cyclic(3)
TRIV = Monoid.trivial()


def left_zero_monoid() -> Monoid:
    """Left-zero semigroup on {p, q} with an adjoined unit; noncommutative."""
    table = {("e", "e"): "e"}
    for s in ("p", "q"):
        table[("e", s)] = s
        table[(s, "e")] = s
        for t in ("p", "q"):
            table[(s, t)] = s
    return Monoid(("e", "p", "q"), table, "e", name="L")


def fs(text: str) -> frozenset:
    return frozenset(text)


def chain3() -> CausalSet:
    return CausalSet("xyz", [("x", "y"), ("y", "z")])


def diamond() -> CausalSet:
    return CausalSet("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


@st.composite
def poset_data(draw, max_events=6):
    n = draw(st.integers(min_value=1, max_value=max_events))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    bias = draw(st.sampled_from([0.15, 0.3, 0.5]))
    return oracles.random_poset_data(random.Random(seed), n, bias)


class TestMonoid:
    def test_cyclic_three_addition(self):
        assert Z3.mul(2, 2) == 1
        assert Z3.mul(1, 2) == 0
        assert Z3.unit == 0
        assert len(Z3) == 3

    def test_trivial_has_one_element(self):
        assert len(TRIV) == 1
        assert TRIV.mul("e", "e") == "e"

    def test_product_multiplies_componentwise(self):
        P = product_monoid(Z2, Z2)
        assert len(P) == 4
        assert P.unit == (0, 0)
        assert P.mul((1, 0), (1, 1)) == (0, 1)
        assert P.is_commutative

    def test_empty_product_is_the_unit_monoid(self):
        P = product_monoid()
        assert len(P) == 1 and P.unit == ()

    def test_broken_associativity_rejected(self):
        table = {("e", x): x for x in ("e", "a", "b")}
        table.update({(x, "e"): x for x in ("a", "b")})
        table.update({("a", "a"): "e", ("a", "b"): "a",
                      ("b", "a"): "b", ("b", "b"): "e"})
        with pytest.raises(ValueError, match="associativity"):
            Monoid(("e", "a", "b"), table, "e")

    def test_broken_unit_rejected(self):
        table = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
        with pytest.raises(ValueError, match="unit"):
            Monoid((0, 1), table, 0)

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            Monoid((0, 1), {(0, 0): 0}, 0)

    def test_left_zero_monoid_is_lawful_and_noncommutative(self):
        L = left_zero_monoid()
        assert L.mul("p", "q") == "p"
        assert L.mul("q", "p") == "q"
        assert not L.is_commutative

    def test_equality_ignores_construction_order_and_name(self):
        table = {(a, b): (a + b) % 2 for a in (1, 0) for b in (1, 0)}
        other = Monoid((1, 0), table, 0, name="different")
        assert other == Z2
        assert hash(other) == hash(Z2)


class TestMonoidHom:
    def test_identity_is_an_isomorphism(self):
        assert MonoidHom.identity(Z2).is_isomorphism

    def test_collapse_onto_trivial_is_not_an_isomorphism(self):
        collapse = MonoidHom.unary(Z2, TRIV, {0: "e", 1: "e"})
        assert not collapse.is_isomorphism

    def test_unit_embedding_is_not_an_isomorphism(self):
        embed = MonoidHom.unary(TRIV, Z2, {"e": 0})
        assert not embed.is_isomorphism

    def test_non_hom_table_rejected(self):
        with pytest.raises(ValueError, match="multiplication"):
            MonoidHom.unary(Z3, Z3, {0: 0, 1: 1, 2: 1})

    def test_unit_violation_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            MonoidHom.unary(Z2, Z2, {0: 1, 1: 0})

    def test_unchecked_skips_laws_but_not_shape(self):
        L = left_zero_monoid()
        raw = MonoidHom.unchecked(
            (L, L), L, {(x, y): L.mul(x, y) for x in L for y in L}
        )
        assert raw("p", "q") == "p"
        with pytest.raises(ValueError, match="cover"):
            MonoidHom.unchecked((Z2,), Z2, {(0,): 0})
        with pytest.raises(ValueError, match="^hom value 7 lies outside the codomain$"):
            MonoidHom.unchecked((Z3,), Z2, {(0,): 0, (1,): 7, (2,): 5})

    def test_inverse_round_trips(self):
        double = MonoidHom.unary(Z3, Z3, {0: 0, 1: 2, 2: 1})
        inv = double.inverse()
        assert all(inv(double(x)) == x for x in Z3)
        with pytest.raises(ValueError):
            MonoidHom.unary(Z2, TRIV, {0: "e", 1: "e"}).inverse()

    def test_inverse_undoes_a_hom_that_is_not_its_own_inverse(self):
        # every automorphism of Z1-Z4 is an involution; doubling on Z5 is not
        Z5 = Monoid.cyclic(5)
        double = MonoidHom.unary(Z5, Z5, {x: 2 * x % 5 for x in Z5})
        assert double.inverse() == MonoidHom.unary(Z5, Z5, {x: 3 * x % 5 for x in Z5})
        assert double.then(double.inverse()) == MonoidHom.identity(Z5)

    def test_composition_feeds_slots(self):
        add = MonoidHom((Z2, Z2), Z2,
                        {(a, b): (a + b) % 2 for a in Z2 for b in Z2})
        embed = MonoidHom.unary(TRIV, Z2, {"e": 0})
        comp = compose_monoid_homs(add, (MonoidHom.identity(Z2), embed))
        assert comp.doms == (Z2, TRIV)
        assert comp(1, "e") == 1
        assert comp(0, "e") == 0

    def test_permutation_transposes_the_table(self):
        proj = MonoidHom((Z2, Z3), Z2, {(a, b): a for a in Z2 for b in Z3})
        moved = permute_monoid_hom(proj, (1, 0))
        assert moved.doms == (Z3, Z2)
        assert moved(2, 1) == 1
        assert permute_monoid_hom(moved, (1, 0)) == proj

    @pytest.mark.parametrize("build, text", [
        pytest.param(lambda: compose_monoid_homs(MonoidHom.identity(Z2), ()),
                     "arity mismatch in hom composition", id="compose-arity"),
        pytest.param(lambda: compose_monoid_homs(MonoidHom.identity(Z2),
                                                 (MonoidHom.identity(Z3),)),
                     "inner codomain differs from the outer factor", id="compose-codomain"),
        pytest.param(lambda: permute_monoid_hom(MonoidHom.identity(Z2), ()),
                     "permutation arity mismatch", id="permute-arity"),
    ])
    def test_smallest_input_of_each_structure_map_raise(self, build, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            build()

    def test_text_lists_the_table_in_label_order(self):
        assert str(MonoidHom.unary(Z3, Z3, {0: 0, 1: 2, 2: 1})) == "hom[(0)>0;(1)>2;(2)>1](Z3)->Z3"
        proj = MonoidHom((Z2, Z3), Z2, {(a, b): a for a in Z2 for b in Z3})
        assert str(proj) == "hom[(0,0)>0;(0,1)>0;(0,2)>0;(1,0)>1;(1,1)>1;(1,2)>1](Z2,Z3)->Z2"

    def test_monoid_operad_satisfies_the_axioms(self):
        collapse = MonoidHom.unary(Z2, TRIV, {0: "e", 1: "e"})
        proj = MonoidHom((Z2, Z3), Z2, {(a, b): a for a in Z2 for b in Z3})
        O = monoid_operad((Z2, Z3, TRIV), (collapse, proj))
        assert check_operad_axioms(O).ok


class TestThinCategory:
    def test_reflexivity_is_required(self):
        with pytest.raises(ValueError, match="reflexive"):
            ThinCategory(("a", "b"), [("a", "a")])

    def test_predicate_and_pair_constructions_agree(self):
        objs = ("a", "b", "t")
        pairs = [("a", "a"), ("b", "b"), ("t", "t"), ("a", "t"), ("b", "t")]
        C1 = ThinCategory(objs, pairs)
        C2 = ThinCategory(objs, lambda x, y: x == y or y == "t")
        assert C1.hom_pairs == C2.hom_pairs

    def test_filtered_and_connectivity(self):
        top = ThinCategory(("a", "b", "t"),
                           lambda x, y: x == y or y == "t")
        assert is_filtered(top)
        assert top.is_connected()
        discrete = ThinCategory(("a", "b"), lambda x, y: x == y)
        assert not is_filtered(discrete)
        assert not discrete.is_connected()
        assert not is_filtered(ThinCategory((), ()))

    def test_upper_bounds_and_subcategory(self):
        top = ThinCategory(("a", "b", "t"), lambda x, y: x == y or y == "t")
        assert top.upper_bounds("a", "b") == ("t",)
        sub = top.full_subcategory(("a", "b"))
        assert sub.upper_bounds("a", "b") == ()

    def test_transitivity_is_reported_not_enforced(self):
        chainy = ThinCategory(
            ("a", "b", "c"),
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
        )
        assert not chainy.is_transitive
        assert chainy.transitivity_gaps == (("a", "b", "c"),)
        full = ThinCategory(("a", "b", "c"),
                            lambda x, y: ("abc".index(x) <= "abc".index(y)))
        assert full.is_transitive

    def test_functor_must_preserve_the_relation(self):
        dom = ThinCategory(("a", "b"),
                           [("a", "a"), ("b", "b"), ("a", "b")])
        cod = ThinCategory(("x", "y"), lambda p, q: p == q)
        with pytest.raises(ValueError, match="preserve"):
            ThinFunctor(dom, cod, {"a": "x", "b": "y"})
        with pytest.raises(ValueError, match="undefined"):
            ThinFunctor(dom, dom, {"a": "a"})

    def test_finality_detects_an_empty_comma(self):
        dom = ThinCategory(("a",), [("a", "a")])
        cod = ThinCategory(("x", "y"), lambda p, q: p == q)
        F = ThinFunctor(dom, cod, {"a": "x"})
        assert not is_final(F)
        G = ThinFunctor(dom, dom, {"a": "a"})
        assert is_final(G)


@st.composite
def reflexive_relation(draw):
    """Up to 6 objects and a reflexive relation on them."""
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=20))) if n else set()
    return n, pairs | {(i, i) for i in range(n)}


class TestFilteredness:
    @settings(max_examples=200, deadline=None)
    @given(reflexive_relation())
    def test_unbounded_pair_and_is_filtered_match_the_oracle(self, case):
        n, pairs = case
        C = ThinCategory(range(n), pairs)
        expected = oracles.brute_unbounded_pair(range(n), lambda a, b: (a, b) in pairs)
        assert _unbounded_pair(C) == expected
        assert is_filtered(C) == (n > 0 and expected is None)

    def test_the_first_unbounded_pair_is_named(self):
        C = ThinCategory("abcd", lambda x, y: x == y or (x, y) == ("a", "b"))
        assert _unbounded_pair(C) == ("a", "c")
        with pytest.raises(NotFiltered, match="no upper bound for a and c"):
            filtered_colimit_monoids(C, dict.fromkeys("abcd", Z2), {})


class TestRegionCategories:
    def test_three_chain_has_six_convex_regions(self):
        rc = rc_category(chain3())
        assert len(rc) == 6
        assert fs("xyz") in set(rc.objects)
        assert is_filtered(rc)

    def test_singleton_has_one_region(self):
        rc = rc_category(CausalSet("a", []))
        assert rc.objects == (fs("a"),)

    def test_diamond_excludes_non_convex_subsets(self):
        rc = rc_category(diamond())
        assert len(rc) == 12
        assert fs("ad") not in set(rc.objects)
        assert fs("abd") not in set(rc.objects)
        assert fs("bc") in set(rc.objects)

    def test_pointed_regions_of_the_three_chain(self):
        P = rc_pointed_category(PointedObject(chain3(), fs("z")))
        expected = {
            (fs("x"), fs("x")),
            (fs("y"), fs("y")),
            (fs("xy"), fs("x")),
            (fs("xy"), fs("y")),
        }
        assert set(P.objects) == expected
        assert P.has((fs("x"), fs("x")), (fs("xy"), fs("y")))
        assert not P.has((fs("y"), fs("y")), (fs("xy"), fs("x")))

    def test_pointed_regions_empty_below_a_minimal_surface(self):
        P = rc_pointed_category(PointedObject(chain3(), fs("x")))
        assert P.is_empty

    def test_surface_category_of_the_three_chain_is_a_chain(self):
        S = sigma_category(chain3())
        assert S.objects == (fs("x"), fs("y"), fs("z"))
        assert S.has(fs("x"), fs("y")) and S.has(fs("y"), fs("z"))
        assert not S.has(fs("y"), fs("x"))
        assert is_filtered(S)

    def test_surface_category_of_the_diamond(self):
        S = sigma_category(diamond())
        assert set(S.objects) == {fs("a"), fs("bc"), fs("d")}
        assert S.has(fs("a"), fs("bc")) and S.has(fs("bc"), fs("d"))

    def test_surface_category_rejects_the_empty_causal_set(self):
        with pytest.raises(ValueError, match="nonempty"):
            sigma_category(CausalSet([], []))

    def test_q_category_avoids_the_maximal_layer(self):
        Q = q_category(chain3())
        assert set(Q.objects) == {
            (fs("x"), fs("x")),
            (fs("y"), fs("y")),
            (fs("xy"), fs("x")),
            (fs("xy"), fs("y")),
        }

    def test_total_category_of_the_three_chain(self):
        M = chain3()
        total = grothendieck(
            sigma_category(M),
            lambda S: rc_pointed_category(PointedObject(M, S)),
        )
        assert len(total) == 5
        assert total.has(
            (fs("y"), (fs("x"), fs("x"))),
            (fs("z"), (fs("xy"), fs("y"))),
        )

    def test_forgetful_functor_is_surjective_and_final(self):
        for M in (chain3(), diamond()):
            F = region_forgetful(M)
            assert set(F.mapping.values()) == set(F.cod.objects)
            assert is_final(F)


class TestDiscreteArtifacts:
    def test_pinned_surface_breaks_filteredness(self):
        M = CausalSet("abct", [("a", "t"), ("b", "c"), ("c", "t")])
        P = rc_pointed_category(PointedObject(M, fs("t")))
        oa = (fs("a"), fs("a"))
        oc = (fs("c"), fs("c"))
        assert oa in set(P.objects) and oc in set(P.objects)
        assert P.upper_bounds(oa, oc) == ()
        assert not is_filtered(P)

    def test_unbounded_pairs_touch_the_maximal_layer(self):
        M = CausalSet("abct", [("a", "t"), ("b", "c"), ("c", "t")])
        region = chronological_past(M, fs("t"))
        layer = M.induced(region).maximal_events
        P = rc_pointed_category(PointedObject(M, fs("t")))
        for x, y in itertools.combinations(P.objects, 2):
            if not P.upper_bounds(x, y):
                assert (x[1] | y[1]) & layer

    def test_pointed_relation_can_fail_transitivity(self):
        M = CausalSet(
            "abcdT",
            [("a", "c"), ("b", "c"), ("b", "d"), ("c", "T"), ("d", "T")],
        )
        P = rc_pointed_category(PointedObject(M, fs("T")))
        lo = (fs("c"), fs("c"))
        mid = (fs("abc"), fs("c"))
        hi = (fs("abcd"), fs("cd"))
        assert P.has(lo, mid) and P.has(mid, hi)
        assert not P.has(lo, hi)
        assert not P.is_transitive

    def test_diamond_pointed_relation_also_gaps(self):
        P = rc_pointed_category(PointedObject(diamond(), fs("d")))
        lo = (fs("b"), fs("b"))
        mid = (fs("ab"), fs("b"))
        hi = (fs("abc"), fs("bc"))
        assert P.has(lo, mid) and P.has(mid, hi)
        assert not P.has(lo, hi)


class TestRegionProperties:
    @given(poset_data())
    @settings(max_examples=25, deadline=None)
    def test_region_and_surface_categories_are_filtered(self, data):
        events, relations = data
        M = CausalSet(events, relations)
        assert is_filtered(rc_category(M))
        assert rc_category(M).is_transitive
        assert is_filtered(sigma_category(M))

    @given(poset_data(max_events=5), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_unbounded_pointed_pairs_always_touch_the_layer(self, data, pick):
        events, relations = data
        M = CausalSet(events, relations)
        surfaces = list(cauchy_antichains(M))
        Sigma = surfaces[pick % len(surfaces)]
        region = chronological_past(M, Sigma)
        if not region:
            return
        layer = M.induced(region).maximal_events
        P = rc_pointed_category(PointedObject(M, Sigma))
        for x, y in itertools.combinations(P.objects, 2):
            if not P.upper_bounds(x, y):
                assert (x[1] | y[1]) & layer

    @given(poset_data(max_events=5))
    @settings(max_examples=15, deadline=None)
    def test_forgetful_functor_is_final_on_small_posets(self, data):
        events, relations = data
        M = CausalSet(events, relations)
        F = region_forgetful(M)
        assert is_final(F)
        assert set(F.mapping.values()) == set(F.cod.objects)


def chain_category() -> ThinCategory:
    return ThinCategory(("lo", "hi"),
                        [("lo", "lo"), ("hi", "hi"), ("lo", "hi")])


class TestColimits:
    def test_constant_identity_diagram_collapses_exactly(self):
        C = ThinCategory(("a", "b", "t"), lambda x, y: x == y or y == "t")
        monoids = {o: Z2 for o in C.objects}
        homs = {(a, b): MonoidHom.identity(Z2)
                for a, b in C.hom_pairs if a != b}
        col = filtered_colimit_monoids(C, monoids, homs)
        assert col.collapsed
        assert col.monoid == Z2
        assert all(leg == MonoidHom.identity(Z2) for leg in col.legs.values())

    def test_chain_of_inclusions_lands_on_the_last_monoid(self):
        C = chain_category()
        monoids = {"lo": TRIV, "hi": Z2}
        homs = {("lo", "hi"): MonoidHom.unary(TRIV, Z2, {"e": 0})}
        col = filtered_colimit_monoids(C, monoids, homs)
        assert not col.collapsed
        assert len(col.monoid) == 2
        assert col.legs["hi"].is_isomorphism

    def test_span_with_top_glues_isomorphic_copies(self):
        other = Monoid(("x", "y"), {("x", "x"): "x", ("x", "y"): "y",
                                    ("y", "x"): "y", ("y", "y"): "x"}, "x")
        C = ThinCategory(("l", "r", "t"), lambda a, b: a == b or b == "t")
        monoids = {"l": Z2, "r": other, "t": Z2}
        homs = {
            ("l", "t"): MonoidHom.identity(Z2),
            ("r", "t"): MonoidHom.unary(other, Z2, {"x": 0, "y": 1}),
        }
        col = filtered_colimit_monoids(C, monoids, homs)
        assert len(col.monoid) == 2
        assert all(leg.is_isomorphism for leg in col.legs.values())

    def test_unfiltered_diagram_is_rejected(self):
        discrete = ThinCategory(("a", "b"), lambda x, y: x == y)
        with pytest.raises(NotFiltered, match="upper bound"):
            filtered_colimit_monoids(discrete, {"a": Z2, "b": Z2}, {})

    def test_missing_edge_hom_is_an_error(self):
        with pytest.raises(ValueError, match="missing the hom"):
            filtered_colimit_monoids(chain_category(),
                                     {"lo": TRIV, "hi": Z2}, {})

    def test_wrong_endpoints_are_an_error(self):
        homs = {("lo", "hi"): MonoidHom.identity(Z2)}
        with pytest.raises(ValueError, match="endpoints"):
            filtered_colimit_monoids(chain_category(),
                                     {"lo": TRIV, "hi": Z2}, homs)

    def test_mediator_factors_a_compatible_cocone(self):
        C = chain_category()
        monoids = {"lo": TRIV, "hi": Z2}
        homs = {("lo", "hi"): MonoidHom.unary(TRIV, Z2, {"e": 0})}
        col = filtered_colimit_monoids(C, monoids, homs)
        med = colimit_mediator(
            col,
            {"lo": MonoidHom.unary(TRIV, Z2, {"e": 0}),
             "hi": MonoidHom.identity(Z2)},
            Z2,
        )
        assert med.is_isomorphism
        for o, leg in col.legs.items():
            assert leg.then(med) == (homs.get(("lo", "hi"))
                                     if o == "lo"
                                     else MonoidHom.identity(Z2))

    def test_mediator_rejects_a_cocone_that_is_not_constant(self):
        C = ThinCategory(("l", "r", "t"), lambda a, b: a == b or b == "t")
        monoids = {o: Z2 for o in C.objects}
        homs = {(a, b): MonoidHom.identity(Z2)
                for a, b in C.hom_pairs if a != b}
        col = filtered_colimit_monoids(C, monoids, homs)
        assert col.collapsed and len(col.class_members[1]) == 3
        zero = MonoidHom.unary(Z2, Z2, {0: 0, 1: 0})
        cocone = {"l": MonoidHom.identity(Z2), "r": zero,
                  "t": MonoidHom.identity(Z2)}
        with pytest.raises(NonConstantCocone, match="not constant on the class of 1"):
            colimit_mediator(col, cocone, Z2)

    @pytest.mark.parametrize("second", [Z3, Z2])
    def test_colimit_commutes_with_finite_products(self, second):
        C = chain_category()
        first = {"lo": TRIV, "hi": Z2}
        first_homs = {("lo", "hi"): MonoidHom.unary(TRIV, Z2, {"e": 0})}
        second_m = {"lo": TRIV, "hi": second}
        second_homs = {
            ("lo", "hi"): MonoidHom.unary(TRIV, second, {"e": second.unit})
        }
        prod_m = {o: product_monoid(first[o], second_m[o]) for o in C.objects}
        prod_homs = {
            ("lo", "hi"): MonoidHom.unary(
                prod_m["lo"],
                prod_m["hi"],
                {(x, y): (first_homs[("lo", "hi")](x),
                          second_homs[("lo", "hi")](y))
                 for x, y in prod_m["lo"].elements},
            )
        }
        col1 = filtered_colimit_monoids(C, first, first_homs)
        col2 = filtered_colimit_monoids(C, second_m, second_homs)
        col12 = filtered_colimit_monoids(C, prod_m, prod_homs)
        target = product_monoid(col1.monoid, col2.monoid)
        pairing = {
            o: MonoidHom.unary(
                prod_m[o],
                target,
                {(x, y): (col1.legs[o](x), col2.legs[o](y))
                 for x, y in prod_m[o].elements},
            )
            for o in C.objects
        }
        med = colimit_mediator(col12, pairing, target)
        assert med.is_isomorphism


def two_chain() -> tuple[CausalSet, CausalSet]:
    M2 = CausalSet("uv", [("u", "v")])
    return M2.induced({"u"}), M2


def unit_images(base, colors):
    """Forced images for the nullary and identity operations."""
    ops = {}
    for psi in base.operations:
        if len(psi.inputs) == 0:
            cod = colors[psi.output]
            ops[psi] = MonoidHom((), cod, {(): cod.unit})
        elif psi == base.unit(psi.output):
            ops[psi] = MonoidHom.identity(colors[psi.output])
    return ops


class TestAqftCheckers:
    def setup_method(self):
        self.Su, self.M2 = two_chain()
        self.base = prefactorization_operad((self.Su, self.M2))

    def all_identity_model(self) -> QftModel:
        colors = {self.Su: Z2, self.M2: Z2}
        ops = unit_images(self.base, colors)
        for psi in self.base.ops(1):
            ops.setdefault(psi, MonoidHom.identity(Z2))
        return aqft_model(self.base, colors, ops)

    def test_identity_model_validates_and_passes_time_slice(self):
        A = self.all_identity_model()
        assert validate_model(A).ok
        rep = check_time_slice(A)
        assert rep.ok
        assert {e.check for e in rep.entries} == {
            "timeslice/units", "timeslice/cauchy-isos",
        }

    def collapse_model(self) -> QftModel:
        colors = {self.Su: Z2, self.M2: TRIV}
        ops = unit_images(self.base, colors)
        collapse = MonoidHom.unary(Z2, TRIV, {0: "e", 1: "e"})
        for psi in self.base.ops(1):
            if psi not in ops:
                ops[psi] = (collapse if psi.inputs[0] == self.Su
                            else MonoidHom.identity(TRIV))
        return aqft_model(self.base, colors, ops)

    def twisted_unit_model(self) -> QftModel:
        colors = {self.Su: Z3, self.M2: Z3}
        double = MonoidHom.unary(Z3, Z3, {0: 0, 1: 2, 2: 1})
        ops = unit_images(self.base, colors)
        ops[self.base.unit(self.Su)] = double
        for psi in self.base.ops(1):
            ops.setdefault(psi, MonoidHom.identity(Z3))
        return aqft_model(self.base, colors, ops)

    def test_collapse_on_a_cauchy_inclusion_fails_time_slice(self):
        rep = check_time_slice(self.collapse_model())
        assert not rep.ok
        assert "non-invertible" in rep.failures[0].witness[0]

    def test_twisted_unit_image_fails_the_unit_entry(self):
        rep = check_time_slice(self.twisted_unit_model())
        by_check = {e.check: e.status for e in rep.entries}
        assert by_check["timeslice/units"] == FAIL
        assert by_check["timeslice/cauchy-isos"] == PASS

    def test_failing_time_slice_reports_are_pinned(self):
        digests = [
            hashlib.sha256(check_time_slice(A).dumps().encode()).hexdigest()
            for A in (self.collapse_model(), self.twisted_unit_model())
        ]
        assert digests == [
            "2defdd5b8f860c7d834e3cc8bd63902722cf76ed0427478f3cdd5bc12835391b",
            "69a196230260806a7884be43f73b36230720a94a68502dc2aa506c763d572be2",
        ]

    def test_unit_embedding_fails_additivity_comparison(self):
        colors = {self.Su: TRIV, self.M2: Z2}
        ops = unit_images(self.base, colors)
        embed = MonoidHom.unary(TRIV, Z2, {"e": 0})
        for psi in self.base.ops(1):
            if psi not in ops:
                ops[psi] = (embed if psi.inputs[0] == self.Su
                            else MonoidHom.identity(Z2))
        A = aqft_model(self.base, colors, ops)
        rep = check_additivity_aqft(A, self.M2)
        by_check = {e.check: e for e in rep.entries}
        assert by_check["additivity/region-category"].status == PASS
        assert by_check["additivity/comparison"].status == FAIL
        assert "not surjective" in by_check["additivity/comparison"].witness

    def test_comparison_legs_that_are_not_a_cocone_fail_additivity(self):
        # on the chain a < b < c, {a} and {a, b} form a filtered diagram whose
        # class of 1 holds both generators; the leg of {a, b} sends it to 0
        M = CausalSet("abc", [("a", "b"), ("b", "c")])
        AB = M.induced({"a", "b"})
        base = prefactorization_operad((M.induced({"a"}), AB, M))
        colors = {c: Z2 for c in base.colors}
        ops = unit_images(base, colors)
        top = EmbeddingTuple((CausalEmbedding(AB, M, {"a": "a", "b": "b"}),), M)
        ops[top] = MonoidHom.unary(Z2, Z2, {0: 0, 1: 0})
        for psi in base.ops(1):
            ops.setdefault(psi, MonoidHom.identity(Z2))
        rep = check_additivity_aqft(aqft_model(base, colors, ops), M)
        by_check = {e.check: e for e in rep.entries}
        assert by_check["additivity/region-category"].status == PASS
        assert by_check["additivity/comparison"].status == FAIL
        assert "not constant on the class of 1" in by_check["additivity/comparison"].witness

    def test_identity_model_passes_additivity(self):
        A = self.all_identity_model()
        assert check_additivity_aqft(A, self.M2).ok

    def test_constant_trivial_model_is_additive(self):
        A = constant_aqft(self.base, TRIV)
        assert validate_model(A).ok
        assert check_additivity_aqft(A, self.M2).ok

    def test_additivity_requires_a_known_color(self):
        A = self.all_identity_model()
        with pytest.raises(ValueError, match="color"):
            check_additivity_aqft(A, CausalSet("pq", [("p", "q")]))

    def test_missing_restriction_data_is_an_error(self):
        from causalops.operad_kernel import Operad

        units = {self.Su: self.base.unit(self.Su),
                 self.M2: self.base.unit(self.M2)}
        thin = Operad((self.Su, self.M2), tuple(units.values()), units,
                      {}, {}, name="units-only")
        colors = {self.Su: Z2, self.M2: Z2}
        ops = {psi: MonoidHom.identity(Z2) for psi in thin.operations}
        A = aqft_model(thin, colors, ops)
        with pytest.raises(ValueError, match="lacks the inclusion"):
            check_additivity_aqft(A, self.M2)

    def test_vacuous_causality_pass_without_binary_operations(self):
        A = self.all_identity_model()
        rep = check_einstein_causality(A)
        assert rep.ok
        assert rep.entries[0].witness == "no binary operations"


class TestEinsteinCausality:
    def setup_method(self):
        D = diamond()
        self.D = D
        self.base = prefactorization_operad(
            (D, D.induced({"b"}), D.induced({"c"}))
        )

    def test_window_contains_binary_operations(self):
        assert len(self.base.ops(2)) > 0

    def test_constant_commutative_model_passes(self):
        A = constant_aqft(self.base, Z2)
        assert validate_model(A).ok
        rep = check_einstein_causality(A)
        assert rep.ok and rep.entries[0].status == PASS

    def test_constant_model_rejects_noncommutative_monoids(self):
        with pytest.raises(ValueError, match="commutative"):
            constant_aqft(self.base, left_zero_monoid())

    def noncommutative_model(self) -> QftModel:
        L = left_zero_monoid()
        colors = {c: L for c in self.base.colors}
        ops = {
            psi: MonoidHom.unchecked(
                (L, L), L, {(x, y): L.mul(x, y) for x in L for y in L}
            )
            for psi in self.base.ops(2)
        }
        return aqft_model(self.base, colors, ops)

    def test_raw_noncommutative_assignment_fails(self):
        rep = check_einstein_causality(self.noncommutative_model())
        assert not rep.ok
        assert "do not commute" in rep.failures[0].witness[0]

    def test_failing_report_is_pinned(self):
        rep = check_einstein_causality(self.noncommutative_model())
        assert hashlib.sha256(rep.dumps().encode()).hexdigest() == "546d1bd59d6a39f6d98b09b51ecd85056c6bad939b5c5d72708cc04329b00720"

    def complete_noncommutative_model(self) -> QftModel:
        """The raw binary images, with identities on unaries and unit picks."""
        L = left_zero_monoid()
        fill = {0: MonoidHom((), L, {(): L.unit}), 1: MonoidHom.identity(L)}
        raw = self.noncommutative_model().assignment.on_ops
        ops = {psi: raw.get(psi, fill.get(len(psi.inputs)))
               for psi in self.base.operations}
        return aqft_model(self.base, {c: L for c in self.base.colors}, ops)

    def test_a_complete_raw_model_fails_equivariance(self):
        # permuting a raw binary image builds its transposed table without
        # the hom laws, so the checker reports instead of raising
        rep = validate_model(self.complete_noncommutative_model())
        assert [(e.check, e.status) for e in rep.entries] == [
            ("multifunctor/signatures", PASS), ("multifunctor/units", PASS),
            ("multifunctor/composition", PASS), ("multifunctor/equivariance", FAIL),
        ]
        assert hashlib.sha256(rep.dumps().encode()).hexdigest() == \
            "e814f5b16206543ddf1a3a889eb0f9d856242f958f549c4320be02978d3e8eb8"

    def test_unassigned_operations_are_named_as_uncovered(self):
        A = self.noncommutative_model()
        rep = validate_model(A)
        coverage = rep.entries[-1]
        assert (coverage.check, coverage.status) == ("multifunctor/assignment-coverage", SKIP)
        assert coverage.witness["operations"] == len(self.base.operations) - len(self.base.ops(2))
        assert coverage.witness["units"] == len(self.base.colors)
        assert hashlib.sha256(rep.dumps().encode()).hexdigest() == \
            "73d3e5080fa78573177bb4056e3d4235391fdf85853fbb007a2001ef84fa14b9"
        rep = check_time_slice(A)
        assert [(e.check, e.status) for e in rep.entries] == [
            ("timeslice/units", PASS), ("timeslice/cauchy-isos", PASS),
            ("timeslice/coverage", SKIP),
        ]
        assert rep.entries[-1].witness["units"] == len(self.base.colors)
        assert hashlib.sha256(rep.dumps().encode()).hexdigest() == \
            "9dc930d9eb55ca21e78c7e0cc95ae1af5cb617bf0adb53910971707348ddd673"

    def test_every_instance_that_needs_an_unassigned_operation_is_counted(self):
        base = self.base
        units = {base.unit(c) for c in base.colors}
        gone = {min((op for op in base.ops(1) if op not in units), key=str),
                min(base.ops(2), key=str)}
        ops = {psi: h for psi, h in constant_aqft(base, Z2).assignment.on_ops.items()
               if psi not in gone}
        rep = validate_model(aqft_model(base, {c: Z2 for c in base.colors}, ops))
        compositions = sum(
            bool(gone.intersection((psi, base.compose(psi, phis), *phis)))
            for psi in base.operations for phis in base.composable_inner_tuples(psi)
        )
        actions = sum(
            bool(gone.intersection((psi, base.act(psi, sigma))))
            for psi in base.operations
            for sigma in itertools.permutations(range(len(psi.inputs)))
        )
        assert compositions and actions > 2
        assert rep.ok
        assert rep.entries[-1].witness == {
            "unassigned": [str(op) for op in base.operations if op in gone],
            "operations": 2, "units": 0, "compositions": compositions, "actions": actions,
        }

    def test_unassigned_binary_operations_are_reported_as_skipped(self):
        L = left_zero_monoid()
        A = aqft_model(self.base, {c: L for c in self.base.colors}, {})
        rep = check_einstein_causality(A)
        by_check = {e.check: e for e in rep.entries}
        assert by_check["causality/commutation"].status == PASS
        assert by_check["causality/coverage"].status == SKIP


def chain_bordism_window():
    M2 = CausalSet("uv", [("u", "v")])
    src = PointedObject(M2.induced({"u"}), fs("u"))
    tgt = PointedObject(M2, fs("v"))
    wrapper = Bordism(
        (src,), tgt, M2,
        (CausalEmbedding(M2.induced({"u"}), M2, {"u": "u"}),),
        CausalEmbedding.identity(M2),
    )
    return src, tgt, truncate_bordisms(bordism_fragment([wrapper], depth=1))


class TestFqftCheckers:
    def setup_method(self):
        self.src, self.tgt, self.tau = chain_bordism_window()

    def identity_model(self):
        colors = {c: Z2 for c in self.tau.colors}
        ops = {psi: MonoidHom.identity(Z2) for psi in self.tau.operations}
        return fqft_model(self.tau, colors, ops)

    def test_identity_model_validates_with_window_coverage(self):
        F = self.identity_model()
        rep = validate_model(F)
        assert rep.ok
        checks = {e.check for e in rep.entries}
        assert "multifunctor/composition" in checks

    def test_identity_model_passes_time_slice(self):
        assert check_time_slice(self.identity_model()).ok

    def collapse_model(self) -> QftModel:
        colors = {c: (TRIV if c == self.tgt else Z2) for c in self.tau.colors}
        ops = {}
        for psi in self.tau.operations:
            source_m = colors[psi.inputs[0]]
            target_m = colors[psi.output]
            if source_m == target_m:
                ops[psi] = MonoidHom.identity(target_m)
            elif len(source_m) > len(target_m):
                ops[psi] = MonoidHom.unary(Z2, TRIV, {0: "e", 1: "e"})
            else:
                ops[psi] = MonoidHom.unary(TRIV, Z2, {"e": 0})
        return fqft_model(self.tau, colors, ops)

    def test_collapse_fails_time_slice(self):
        rep = check_time_slice(self.collapse_model())
        assert not rep.ok

    def test_failing_report_is_pinned(self):
        rep = check_time_slice(self.collapse_model())
        assert hashlib.sha256(rep.dumps().encode()).hexdigest() == "c0ef40feb7caa9abd3758ddb912e257c8c1efd6933719736c944d850c02f96b1"

    def test_additivity_passes_at_the_two_chain_target(self):
        F = self.identity_model()
        rep = check_additivity_fqft(F, self.tgt)
        assert rep.ok
        by_check = {e.check: e.status for e in rep.entries}
        assert by_check["additivity/comparison"] == PASS

    def test_additivity_degenerates_below_a_minimal_surface(self):
        F = self.identity_model()
        rep = check_additivity_fqft(F, self.src)
        statuses = {e.status for e in rep.entries}
        assert statuses == {DEGENERATE}
        witness = rep.entries[-1].witness
        assert witness == {"value-is-trivial": False}

    def test_constant_fqft_builder_assigns_everywhere(self):
        F = constant_fqft(self.tau, Z2)
        assert check_time_slice(F).ok

    def test_additivity_requires_a_known_color(self):
        F = self.identity_model()
        stranger = PointedObject(CausalSet("w", []), fs("w"))
        with pytest.raises(ValueError, match="color"):
            check_additivity_fqft(F, stranger)


class TestCanonicalLabel:
    def test_nested_containers_render_deterministically(self):
        assert canonical_label(frozenset({"b", "a"})) == "{a,b}"
        assert canonical_label((frozenset({"y", "x"}), 3)) == "({x,y},3)"
        assert canonical_label(Z2) == "Z2"
