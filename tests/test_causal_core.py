"""Causal set kernel: regions, convexity, Cauchy antichains, gluing."""

import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalops import (
    CausalEmbedding,
    CausalSet,
    cauchy_antichains,
    causal_future,
    causal_past,
    chronological_past,
    convex_hull,
    convex_subsets,
    glue_pushout,
    is_causally_convex,
    is_cauchy_antichain,
    is_cauchy_embedding,
)
from causalops.causal_core import _is_induced

import oracles
from oracles import OraclePoset


@st.composite
def poset_data(draw, max_events=7):
    n = draw(st.integers(min_value=0, max_value=max_events))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    bias = draw(st.sampled_from([0.15, 0.3, 0.5]))
    return oracles.random_poset_data(rng, n, bias)


@st.composite
def poset_with_subset(draw, max_events=7):
    events, relations = draw(poset_data(max_events=max_events))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    subset = oracles.random_subset(random.Random(seed), events)
    return events, relations, subset


@st.composite
def suborder_case(draw):
    """A poset, a subset of its events, and an order on that subset.

    The order is the induced one, or the induced one with one cover dropped
    or with one incomparable pair made comparable (then closed).
    """
    events, relations, subset = draw(poset_with_subset())
    M = CausalSet(events, relations)
    induced = M.induced(subset)
    covers = sorted(induced.covers)
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop":
        assume(covers)
        covers.remove(draw(st.sampled_from(covers)))
    elif change == "add":
        free = [(a, b) for a, b in itertools.permutations(induced.events, 2)
                if not induced.comparable(a, b)]
        assume(free)
        covers.append(draw(st.sampled_from(free)))
    return M, CausalSet(subset, covers), change


def as_oracle(M: CausalSet) -> OraclePoset:
    """The oracle poset of a causal set, read off its order."""
    return OraclePoset(M.events, frozenset((a, b) for a in M for b in M if M.lt(a, b)))


# left event names, shared with the right events so that they collide
# across pieces and with the right poset
GLUE_NAMES = ("e0", "e1", "e2", "e3", "x", "y", "z")


@dataclass(frozen=True)
class GluingCase:
    left: tuple[CausalSet, ...]
    mid: tuple[CausalSet, ...]
    right: CausalSet
    into_left: tuple[CausalEmbedding, ...]
    into_right: tuple[CausalEmbedding, ...]
    left_oracle: tuple[OraclePoset, ...]
    right_oracle: OraclePoset

    def permuted(self, perm) -> "GluingCase":
        def pick(seq):
            return tuple(seq[p] for p in perm)

        return GluingCase(pick(self.left), pick(self.mid), self.right, pick(self.into_left),
                          pick(self.into_right), pick(self.left_oracle), self.right_oracle)

    def glue(self):
        return glue_pushout(self.left, self.mid, self.right,
                            self.into_left, self.into_right)


@st.composite
def gluing_case(draw, empty_overlaps=True, above=False):
    """One to three pieces glued into a random right poset.

    The overlaps are convex and pairwise causally disjoint (with
    ``empty_overlaps``, possibly empty).  Each left piece is a copy of its
    overlap with up to two extra events below it (with ``above``, each one
    below or above it, and none above it below one under it), so both legs
    are causal embeddings; its names are drawn from ``GLUE_NAMES``.
    """
    events, relations = draw(poset_data(max_events=5))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    P = OraclePoset.build(events, relations)
    right = CausalSet(events, relations)
    regions: list[set[str]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        candidates = [
            s for s in map(set, _subsets(P.events))
            if (s or empty_overlaps) and oracles.brute_convex(P, s)
            and not any(P.le(a, b) or P.le(b, a) for r in regions for a in s for b in r)
        ]
        if not candidates:
            break
        regions.append(rng.choice(candidates))
    assume(regions)
    pieces = []
    for region in regions:
        overlap = sorted(region)
        names = rng.sample(GLUE_NAMES, len(overlap) + rng.randint(0, 2))
        copy = dict(zip(overlap, names))
        extras = names[len(overlap):]
        up = {a: above and rng.random() < 0.5 for a in extras}
        rels = [(copy[a], copy[b]) for a, b in P.strict if a in region and b in region]
        rels += [(a, b) for a, b in itertools.combinations(extras, 2)
                 if not (up[a] and not up[b]) and rng.random() < 0.4]
        rels += [(copy[m], a) if up[a] else (a, copy[m])
                 for a in extras for m in overlap if rng.random() < 0.4]
        mid = right.induced(region)
        left = CausalSet(names, rels)
        pieces.append((left, mid, CausalEmbedding(mid, left, copy),
                       CausalEmbedding.inclusion(right, region), OraclePoset.build(names, rels)))
    left, mid, into_left, into_right, left_oracle = zip(*pieces)
    return GluingCase(left, mid, right, into_left, into_right, left_oracle, P)


@st.composite
def embedding_pair(draw):
    """Embeddings ``f: A -> B`` and ``g: B -> C`` into a random poset C.

    Each domain is a convex region of the next poset, renamed, so every
    map is a causal embedding and no map is an identity on names.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    events, relations = oracles.random_poset_data(
        rng, draw(st.integers(min_value=2, max_value=6)), draw(st.sampled_from([0.3, 0.5])))

    def region_of(M: CausalSet) -> CausalEmbedding:
        members = convex_hull(M, oracles.random_subset(rng, M.events, 0.7))
        rename = dict(zip(sorted(members), rng.sample(GLUE_NAMES, len(members))))
        dom = CausalSet(rename.values(),
                        [(rename[a], rename[b]) for a, b in M.induced(members).covers])
        return CausalEmbedding(dom, M, {v: e for e, v in rename.items()})

    g = region_of(CausalSet(events, relations))
    return region_of(g.dom), g


def diamond() -> CausalSet:
    return CausalSet("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


class TestConstruction:
    def test_events_are_sorted_and_deduplicated_names_rejected(self):
        M = CausalSet(["z", "a", "m"], [("a", "z")])
        assert M.events == ("a", "m", "z")
        with pytest.raises(ValueError):
            CausalSet(["a", "a"], [])

    def test_cycles_are_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            CausalSet("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match="cycle"):
            CausalSet("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_relations_must_mention_known_events(self):
        with pytest.raises(ValueError):
            CausalSet("ab", [("a", "q")])

    def test_value_equality_ignores_relation_presentation(self):
        A = CausalSet("abc", [("a", "b"), ("b", "c")])
        B = CausalSet("abc", [("b", "c"), ("a", "b"), ("a", "c")])
        assert A == B
        assert hash(A) == hash(B)
        assert A != CausalSet("abc", [("a", "b")])

    def test_empty_causal_set(self):
        E = CausalSet([], [])
        assert len(E) == 0
        assert E.maximal_events == frozenset()
        assert is_cauchy_antichain(E, set())

    def test_transitivity_is_closed_at_construction(self):
        M = CausalSet("abc", [("a", "b"), ("b", "c")])
        assert M.le("a", "c")
        assert M.lt("a", "c")
        assert not M.le("c", "a")


class TestDiamondRegions:
    def test_covers_are_the_hasse_edges(self):
        D = diamond()
        assert set(D.covers) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}

    def test_extrema(self):
        D = diamond()
        assert D.maximal_events == frozenset({"d"})

    def test_past_and_future_cones(self):
        D = diamond()
        assert causal_past(D, {"b"}) == frozenset({"a", "b"})
        assert causal_future(D, {"b"}) == frozenset({"b", "d"})
        assert chronological_past(D, {"b"}) == frozenset({"a"})
        assert causal_past(D, {"b", "c"}) == frozenset({"a", "b", "c"})

    def test_hull_and_convexity(self):
        D = diamond()
        assert convex_hull(D, {"b", "c"}) == frozenset({"b", "c"})
        assert convex_hull(D, {"a", "d"}) == frozenset({"a", "b", "c", "d"})
        assert is_causally_convex(D, {"b", "c"})
        assert not is_causally_convex(D, {"a", "d"})

    def test_cauchy_antichains_of_the_diamond(self):
        D = diamond()
        cauchy = {
            frozenset(s)
            for s in [{"a"}, {"b", "c"}, {"d"}]
        }
        oracle = OraclePoset.build(D.events, [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        for anti in oracles.all_antichains(oracle):
            assert is_cauchy_antichain(D, set(anti)) == (anti in cauchy)


class TestPropertiesAgainstOracle:
    @given(poset_with_subset())
    @settings(max_examples=120, deadline=None)
    def test_cones_match_brute_force(self, data):
        events, relations, subset = data
        M = CausalSet(events, relations)
        P = OraclePoset.build(events, relations)
        assert causal_past(M, subset) == oracles.brute_past(P, subset)
        assert causal_future(M, subset) == oracles.brute_future(P, subset)
        assert chronological_past(M, subset) == oracles.brute_strict_past(P, subset)

    @given(poset_with_subset())
    @settings(max_examples=120, deadline=None)
    def test_hull_and_convexity_match_brute_force(self, data):
        events, relations, subset = data
        M = CausalSet(events, relations)
        P = OraclePoset.build(events, relations)
        assert convex_hull(M, subset) == oracles.brute_hull(P, subset)
        assert is_causally_convex(M, subset) == oracles.brute_convex(P, subset)

    @given(poset_with_subset())
    @settings(max_examples=120, deadline=None)
    def test_hull_is_the_least_convex_superset(self, data):
        events, relations, subset = data
        M = CausalSet(events, relations)
        hull = convex_hull(M, subset)
        assert subset <= hull
        assert is_causally_convex(M, hull)
        # no convex strict subset of the hull still contains the subset
        for dropped in hull - set(subset):
            smaller = hull - {dropped}
            assert not (set(subset) <= smaller and is_causally_convex(M, smaller))

    @given(poset_with_subset())
    @settings(max_examples=120, deadline=None)
    def test_antichain_and_cauchy_match_brute_force(self, data):
        events, relations, subset = data
        M = CausalSet(events, relations)
        P = OraclePoset.build(events, relations)
        assert is_cauchy_antichain(M, subset) == oracles.brute_is_cauchy(P, subset)

    @given(poset_data())
    @settings(max_examples=120, deadline=None)
    def test_maximal_events_are_cauchy_and_bound_every_cauchy_antichain(self, data):
        events, relations = data
        M = CausalSet(events, relations)
        top = M.maximal_events
        assert is_cauchy_antichain(M, top)
        P = OraclePoset.build(events, relations)
        for anti in oracles.all_antichains(P):
            if oracles.brute_is_cauchy(P, set(anti)):
                assert causal_future(M, anti) | causal_past(M, anti) == set(M.events)
                assert anti <= causal_past(M, top)

    @given(poset_with_subset())
    @settings(max_examples=100, deadline=None)
    def test_induced_subposet_matches_restriction(self, data):
        events, relations, subset = data
        M = CausalSet(events, relations)
        sub = M.induced(subset)
        P = oracles.sub_oracle(OraclePoset.build(events, relations), subset)
        assert set(sub.events) == subset
        for a in subset:
            for b in subset:
                assert sub.le(a, b) == P.le(a, b)
        # the same instance data as building the restriction from scratch,
        # also for an induced set of an induced set
        inner = set(sorted(subset)[::2])
        cases = (
            (sub, CausalSet(subset, P.strict)),
            (sub.induced(inner), CausalSet(inner, oracles.sub_oracle(P, inner).strict)),
        )
        for got, want in cases:
            assert got == want and hash(got) == hash(want)
            assert (got.events, got._index, got._up, got._down) == \
                (want.events, want._index, want._up, want._down)
            assert got.covers == want.covers and got._up_covers == want._up_covers
        with pytest.raises(ValueError) as raised:
            M.induced(subset | {"zz"})
        assert str(raised.value) == "event 'zz' is not an event of the causal set"
        # each instance hands out one sub-poset per member set, which its
        # order test knows as induced
        assert M.induced(list(subset)) is sub and sub.induced(inner) is sub.induced(inner)
        assert _is_induced(sub, M)
        if subset:
            assert not _is_induced(sub, M.induced(subset - {min(subset)}))

    @given(suborder_case())
    @settings(max_examples=200, deadline=None)
    def test_induced_order_test_matches_induced(self, case):
        M, sub, change = case
        answer = _is_induced(sub, M)
        assert answer == (sub == M.induced(sub.events))
        assert answer == (change == "none")


class TestRegionEnumerators:
    @given(poset_data())
    @settings(max_examples=120, deadline=None)
    def test_cauchy_antichains_match_brute_force(self, data):
        events, relations = data
        M = CausalSet(events, relations)
        P = OraclePoset.build(events, relations)
        found = list(cauchy_antichains(M))
        assert len(found) == len(set(found))
        assert set(found) == {
            anti for anti in oracles.all_antichains(P)
            if anti and oracles.brute_is_cauchy(P, set(anti))
        }

    @given(poset_with_subset())
    @settings(max_examples=120, deadline=None)
    def test_convex_subsets_match_brute_force_in_order(self, data):
        events, relations, subset = data
        M = CausalSet(events, relations)
        P = OraclePoset.build(events, relations)
        for within, pool in ((None, events), (subset, subset)):
            assert convex_subsets(M, within) == [
                frozenset(combo)
                for k in range(1, len(pool) + 1)
                for combo in itertools.combinations(sorted(pool), k)
                if oracles.brute_convex(P, set(combo))
            ]

    def test_a_stray_event_is_named_like_the_cones_name_it(self):
        D = diamond()
        with pytest.raises(ValueError) as expected:
            causal_past(D, {"a", "zz"})
        with pytest.raises(ValueError) as raised:
            convex_subsets(D, {"a", "zz"})
        assert str(raised.value) == str(expected.value)

    def test_the_empty_causal_set_has_no_nonempty_regions(self):
        E = CausalSet([], [])
        assert list(cauchy_antichains(E)) == []
        assert convex_subsets(E) == []


class TestMaps:
    def test_embedding_requires_reflection(self):
        chain = CausalSet("xy", [("x", "y")])
        pair = CausalSet("pq", [])
        with pytest.raises(ValueError):
            CausalEmbedding(pair, chain, {"p": "x", "q": "y"})

    def test_embedding_requires_convex_image(self):
        triple = CausalSet("xyz", [("x", "y"), ("y", "z")])
        pair = CausalSet("pq", [("p", "q")])
        with pytest.raises(ValueError):
            CausalEmbedding(pair, triple, {"p": "x", "q": "z"})
        ok = CausalEmbedding(pair, triple, {"p": "x", "q": "y"})
        assert ok.image == frozenset({"x", "y"})

    def test_identity_inclusion_composition(self):
        D = diamond()
        ident = CausalEmbedding.identity(D)
        assert ident.image == frozenset(D.events)
        incl = CausalEmbedding.inclusion(D, {"b", "c"})
        assert incl.dom.events == ("b", "c")
        again = incl.then(ident)
        assert again.pairs == incl.pairs

    @given(embedding_pair())
    @settings(max_examples=150, deadline=None)
    def test_a_composite_is_the_validated_embedding(self, maps):
        f, g = maps
        table = {e: g(f(e)) for e in f.dom.events}
        assert f.then(g) == CausalEmbedding(f.dom, g.cod, table)
        assert oracles.brute_map_error(as_oracle(f.dom), as_oracle(g.cod), table) is None
        if g.cod != f.dom:
            with pytest.raises(ValueError, match="^embeddings do not compose$"):
                g.then(f)

    @given(embedding_pair(), st.sampled_from(["induced", "antichain", "short"]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_a_restriction_is_the_validated_embedding(self, maps, kind, seed):
        _, g = maps
        rng = random.Random(seed)
        # members need not be convex (half the time the domain less an
        # event between two others); the target is the induced sub-poset on
        # a region holding their image, the same events with no order, or
        # the induced sub-poset missing one image event
        members = oracles.random_subset(rng, g.dom.events)
        middle = [e for e in g.dom.events
                  if any(g.dom.lt(a, e) for a in g.dom) and any(g.dom.lt(e, b) for b in g.dom)]
        if middle and rng.random() < 0.5:
            members = set(g.dom.events) - {rng.choice(middle)}
        region = g.image_of(members) | oracles.random_subset(rng, g.cod.events)
        if kind == "short" and members:
            region -= {g(rng.choice(sorted(members)))}
        target = g.cod.induced(region)
        if kind == "antichain":
            target = CausalSet(target.events, [])
        dom = g.dom.induced(members)
        table = {e: g(e) for e in members}
        try:
            want = CausalEmbedding(dom, target, table)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                g.restrict_into(members, target)
            assert str(raised.value) == str(exc)
        else:
            assert g.restrict_into(members, target) == want
            assert oracles.brute_map_error(as_oracle(dom), as_oracle(target), table) is None
        with pytest.raises(ValueError) as raised:
            g.restrict_into(members | {"zz"}, target)
        assert str(raised.value) == "event 'zz' is not an event of the causal set"

    @given(poset_data(max_events=5), poset_data(max_events=5))
    @settings(max_examples=60, deadline=None)
    def test_embedding_enumeration_matches_brute_force(self, dom_data, cod_data):
        dom = CausalSet(*dom_data)
        cod = CausalSet(*cod_data)
        P_dom = OraclePoset.build(*dom_data)
        P_cod = OraclePoset.build(*cod_data)
        expected = oracles.brute_embeddings(P_dom, P_cod)
        for table in expected:
            emb = CausalEmbedding(dom, cod, table)
            assert dict(emb.pairs) == table

    @given(poset_data(max_events=5), poset_data(max_events=5),
           st.sampled_from(["any", "injective", "inclusion"]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_map_validation_matches_the_pairwise_reference(self, dom_data, cod_data,
                                                           kind, seed):
        rng = random.Random(seed)

        def shuffled(events, relations):
            # names out of topological order, so both preserve directions occur
            rename = dict(zip(events, rng.sample(events, len(events))))
            return list(rename.values()), [(rename[a], rename[b]) for a, b in relations]

        cod_data = shuffled(*cod_data)
        assume(cod_data[0] or kind == "inclusion")
        P_cod = OraclePoset.build(*cod_data)
        if kind == "inclusion":
            # the identity on a random subset: rejected only when not convex
            members = oracles.random_subset(rng, cod_data[0])
            dom_data = (members, oracles.sub_oracle(P_cod, members).strict)
            table = {e: e for e in sorted(members)}
        else:
            dom_data = shuffled(*dom_data)
            if kind == "injective" and len(dom_data[0]) <= len(cod_data[0]):
                images = rng.sample(sorted(cod_data[0]), len(dom_data[0]))
            else:
                images = [rng.choice(sorted(cod_data[0])) for _ in dom_data[0]]
            table = dict(zip(sorted(dom_data[0]), images))
        dom, cod = CausalSet(*dom_data), CausalSet(*cod_data)
        P_dom = OraclePoset.build(*dom_data)
        expected = oracles.brute_map_error(P_dom, P_cod, table)
        if expected is None:
            assert CausalEmbedding(dom, cod, table).table == table
        else:
            with pytest.raises(ValueError) as raised:
                CausalEmbedding(dom, cod, table)
            assert str(raised.value) == expected


class TestCauchyEmbeddings:
    def test_image_containing_a_cauchy_antichain_qualifies(self):
        N = CausalSet("xym", [("x", "m"), ("y", "m")])
        sub = N.induced({"x", "m"})
        emb = CausalEmbedding.inclusion(N, {"x", "m"})
        assert sub.le("x", "m")
        assert is_cauchy_embedding(emb)  # {m} is a Cauchy antichain of N

    def test_blocked_chain_rejects(self):
        N = CausalSet("abcd", [("a", "c"), ("b", "c"), ("b", "d")])
        emb = CausalEmbedding.inclusion(N, {"b", "c"})
        assert not is_cauchy_embedding(emb)

    def test_identity_is_cauchy(self):
        D = diamond()
        assert is_cauchy_embedding(CausalEmbedding.identity(D))

    @given(poset_with_subset(max_events=6))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_antichain_scan(self, data):
        events, relations, subset = data
        M = CausalSet(events, relations)
        P = OraclePoset.build(events, relations)
        if not oracles.brute_convex(P, subset):
            return
        emb = CausalEmbedding.inclusion(M, subset)
        expected = any(
            anti and anti <= subset and oracles.brute_is_cauchy(P, set(anti))
            for anti in oracles.all_antichains(P)
        )
        if len(M) == 0:
            expected = True
        assert is_cauchy_embedding(emb) == expected


class TestGluing:
    def test_two_chains_glue_to_one(self):
        left = CausalSet("xy", [("x", "y")])
        right = CausalSet("yz", [("y", "z")])
        mid = CausalSet("y", [])
        glued = glue_pushout(
            [left], [mid], right,
            [CausalEmbedding(mid, left, {"y": "y"})],
            [CausalEmbedding(mid, right, {"y": "y"})],
        )
        assert glued.result == CausalSet("xyz", [("x", "y"), ("y", "z")])
        assert glued.right_leg.image == frozenset({"y", "z"})
        assert glued.left_legs[0].image == frozenset({"x", "y"})

    def test_identity_gluing_returns_the_same_poset(self):
        D = diamond()
        glued = glue_pushout(
            [D], [D], D,
            [CausalEmbedding(D, D, {e: e for e in D.events})],
            [CausalEmbedding(D, D, {e: e for e in D.events})],
        )
        assert glued.result == D

    def test_overlapping_right_images_are_rejected(self):
        left = CausalSet("xy", [("x", "y")])
        right = CausalSet("yz", [("y", "z")])
        mid = CausalSet("y", [])
        with pytest.raises(ValueError, match="disjoint"):
            glue_pushout(
                [left, left], [mid, mid], right,
                [CausalEmbedding(mid, left, {"y": "y"})] * 2,
                [CausalEmbedding(mid, right, {"y": "y"})] * 2,
            )

    @pytest.mark.parametrize("break_data, text", [
        (lambda d: {**d, "mid": d["mid"] * 2}, "mismatched gluing data lengths"),
        (lambda d: {**d, "into_left": d["into_right"]},
         "into_left[0] does not map mid[0] into left[0]"),
        (lambda d: {**d, "into_right": d["into_left"]},
         "into_right[0] does not map mid[0] into right"),
    ])
    def test_malformed_gluing_data_is_rejected(self, break_data, text):
        left = CausalSet("xy", [("x", "y")])
        right = CausalSet("yz", [("y", "z")])
        mid = CausalSet("y", [])
        data = {"left": [left], "mid": [mid], "right": right,
                "into_left": [CausalEmbedding(mid, left, {"y": "y"})],
                "into_right": [CausalEmbedding(mid, right, {"y": "y"})]}
        assert glue_pushout(**data).result == CausalSet("xyz", [("x", "y"), ("y", "z")])
        with pytest.raises(ValueError) as raised:
            glue_pushout(**break_data(data))
        assert str(raised.value) == text

    def test_disjoint_union_via_empty_overlap(self):
        left = CausalSet("a", [])
        right = CausalSet("b", [])
        mid = CausalSet([], [])
        glued = glue_pushout(
            [left], [mid], right,
            [CausalEmbedding(mid, left, {})],
            [CausalEmbedding(mid, right, {})],
        )
        assert set(glued.result.events) == {"a", "b"}
        assert not glued.result.comparable("a", "b")

    def test_name_collisions_get_suffixed(self):
        left = CausalSet(["a", "x"], [("a", "x")])  # x stays left-only
        right = CausalSet(["a", "x2"], [("a", "x2")])
        mid = CausalSet("a", [])
        # rename the right x2 so the left-only x collides with a right name
        right = CausalSet(["a", "x"], [("a", "x")])
        glued = glue_pushout(
            [left], [mid], right,
            [CausalEmbedding(mid, left, {"a": "a"})],
            [CausalEmbedding(mid, right, {"a": "a"})],
        )
        assert glued.result.events == ("a", "x", "x@a")  # the right x keeps its name
        assert glued.left_legs[0].table == {"a": "a", "x": "x@a"}

    def test_names_follow_the_piece_anchors(self):
        right = CausalSet("pq", [])
        mids = [right.induced({"p"}), right.induced({"q"})]
        lefts = [CausalSet(["p", "x"], [("x", "p")]), CausalSet(["q", "x"], [("x", "q")])]
        glued = glue_pushout(
            lefts, mids, right,
            [CausalEmbedding(m, L, {e: e for e in m.events}) for m, L in zip(mids, lefts)],
            [CausalEmbedding.inclusion(right, m.events) for m in mids],
        )
        # "x" is left-only in two pieces: each copy is named after its anchor
        assert glued.result.events == ("p", "q", "x@p", "x@q")
        assert [leg.table for leg in glued.left_legs] == [
            {"p": "p", "x": "x@p"}, {"q": "q", "x": "x@q"},
        ]

    @given(gluing_case())
    @settings(max_examples=100, deadline=None)
    def test_pushout_matches_the_union_find_oracle(self, case):
        glued = case.glue()
        name, Q = oracles.brute_pushout(
            case.left_oracle, case.right_oracle,
            [emb.table for emb in case.into_left],
            [emb.table for emb in case.into_right],
        )
        image = {("R", r): glued.right_leg(r) for r in case.right.events}
        for i, leg in enumerate(glued.left_legs):
            image.update((("L", i, e), leg(e)) for e in leg.dom.events)
        assert len(glued.result) == len(Q.events)
        for a, b in itertools.product(image, repeat=2):
            assert glued.result.le(image[a], image[b]) == Q.le(name[a], name[b]), (a, b)

    @given(gluing_case(above=True))
    @settings(max_examples=150, deadline=None)
    def test_cocones_on_embedding_legs_are_the_validated_embeddings(self, case):
        glued = case.glue()
        name, Q = oracles.brute_pushout(
            case.left_oracle, case.right_oracle,
            [emb.table for emb in case.into_left],
            [emb.table for emb in case.into_right],
        )
        legs = [(glued.right_leg, case.right_oracle, {r: ("R", r) for r in case.right.events})]
        legs += [(leg, case.left_oracle[i], {e: ("L", i, e) for e in leg.dom.events})
                 for i, leg in enumerate(glued.left_legs)]
        assert len(glued.result) == len(Q.events)
        for leg, dom, atoms in legs:
            assert leg == CausalEmbedding(leg.dom, leg.cod, leg.table)
            # the same map into the union-find quotient is an embedding too
            assert oracles.brute_map_error(
                dom, Q, {e: name[atom] for e, atom in atoms.items()}) is None
            for a, b in itertools.product(atoms, repeat=2):
                assert glued.result.le(leg(a), leg(b)) == Q.le(name[atoms[a]], name[atoms[b]])

    @given(gluing_case(empty_overlaps=False))
    @settings(max_examples=100, deadline=None)
    def test_permuting_the_pieces_permutes_the_left_legs(self, case):
        base = case.glue()
        for perm in itertools.permutations(range(len(case.mid))):
            glued = case.permuted(perm).glue()
            assert glued.result == base.result
            assert glued.right_leg == base.right_leg
            assert glued.left_legs == tuple(base.left_legs[p] for p in perm)


def _subsets(events):
    import itertools

    for k in range(len(events) + 1):
        for combo in itertools.combinations(events, k):
            yield combo
