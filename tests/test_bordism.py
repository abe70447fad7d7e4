"""Bordisms of pointed causal sets: validation, gluing, cells, fragments."""

import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalops.bordism as bordism_module
from causalops.bordism import (
    Bordism,
    PointedObject,
    TwoCell,
    bordism_fragment,
    cells_between,
    coherence_cells,
    companion_bordism,
    compose_bordisms,
    compose_bordisms_full,
    compose_two_cells,
    enumerate_germs,
    globular_cells_between,
    identity_cell,
    overhang_regions,
    permute_bordism,
    permute_cell,
    truncate_bordisms,
    unit_bordism,
    unitor_cells,
    validate_bordism,
)
from causalops.causal_core import (
    CausalEmbedding,
    CausalSet,
    _pinned_maps,
    cauchy_antichains,
    causal_future,
    causal_past,
    chronological_past,
    convex_hull,
    glue_pushout,
    is_cauchy_antichain,
)
from causalops.errors import FragmentCapExceeded, InvalidComposite, InvalidSurface
from causalops.operad_kernel import block_permutation
from causalops.pseudo_operad import (
    check_pseudo_operad,
    check_two_adjunction,
    find_companion,
    iota,
    tau_full,
)
from causalops.report import FAIL, PASS

import oracles
from oracles import OraclePoset, brute_least_representatives
from test_causal_core import as_oracle


def point(name: str) -> PointedObject:
    return PointedObject(CausalSet([name]), {name})


def chain_poset(*names: str) -> CausalSet:
    return CausalSet(names, list(zip(names, names[1:])))


def chain_bordism(*names: str) -> Bordism:
    """A linear interpolation from the first event up to the last."""
    M = chain_poset(*names)
    lo, hi = point(names[0]), point(names[-1])
    return Bordism(
        (lo,), hi, M,
        (CausalEmbedding(lo.carrier, M, {names[0]: names[0]}),),
        CausalEmbedding(hi.carrier, M, {names[-1]: names[-1]}),
    )


def merge_bordism() -> Bordism:
    """Two incomparable inputs joined into one top event."""
    V = CausalSet(["l", "r", "t"], [("l", "t"), ("r", "t")])
    return Bordism(
        (point("l"), point("r")), point("t"), V,
        (CausalEmbedding(point("l").carrier, V, {"l": "l"}),
         CausalEmbedding(point("r").carrier, V, {"r": "r"})),
        CausalEmbedding(point("t").carrier, V, {"t": "t"}),
    )


def adjunction_report(O, P=None):
    """``check_two_adjunction(O, P)``, after asserting that its counit row is
    the value walk's verdict on the collapse of ``iota(O)`` together with its
    token reuse, or fails with the reason that the collapse cannot be built."""
    report = check_two_adjunction(O, P)
    row = next(e for e in report.entries if e.check == "two-adjunction/counit-identity")
    try:
        collapsed = tau_full(iota(O))
    except ValueError as exc:
        assert (row.status, row.witness) == (FAIL, str(exc))
        return report
    same, why = oracles.brute_operads_equal(O, collapsed.operad)
    assert same == collapsed.token_reuse
    assert (row.status, row.witness) == ((PASS, None) if same else (FAIL, why))
    return report


class TestCollars:
    """Bordism construction refuses a collar that is not a sub-poset of its carrier."""

    def test_input_collar_must_carry_the_induced_order(self):
        loose = CausalSet("ab", [])
        ends = PointedObject(loose, {"a", "b"})
        source = PointedObject(chain_poset("a", "b"), {"b"})  # the collar drops a < b
        with pytest.raises(ValueError, match="input collar 0 does not carry the induced order"):
            Bordism((source,), ends, loose, (CausalEmbedding.identity(loose),),
                    CausalEmbedding.identity(loose))

    def test_output_collar_must_carry_the_induced_order(self):
        tight = chain_poset("a", "b")
        loose = CausalSet("ab", [])
        target = PointedObject(loose, {"a", "b"})  # the collar adds a < b
        with pytest.raises(ValueError, match="output collar does not carry the induced order"):
            Bordism((), target, tight, (), CausalEmbedding.identity(tight))

    def test_collar_events_must_lie_in_the_source(self):
        carrier = CausalSet("ax", [])
        ends = PointedObject(carrier, {"a", "x"})
        with pytest.raises(ValueError, match="input collar 0 uses events outside its causal set"):
            Bordism((point("a"),), ends, carrier, (CausalEmbedding.identity(carrier),),
                    CausalEmbedding.identity(carrier))


class TestPointedObject:
    def test_surface_must_be_cauchy(self):
        M = chain_poset("a", "b", "c")
        with pytest.raises(ValueError):
            PointedObject(M, {"a", "b"})  # comparable events
        with pytest.raises(ValueError):
            PointedObject(CausalSet("uv", []), {"u"})  # misses the v chain

    def test_core_is_hull_restriction(self):
        M = CausalSet("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
        obj = PointedObject(M, {"c", "d"})
        assert set(obj.core.events) == {"c", "d"}
        wide = PointedObject(M, {"b"})
        assert set(wide.core.events) == {"b"}


@st.composite
def pinned_map_case(draw):
    """Two posets of at most 5 events, with blocks and pins between them.

    Half the time the second poset is a relabelled copy of the first, so
    isomorphisms exist; blocks and pins then mostly follow the relabelling.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    bias = draw(st.sampled_from([0.15, 0.3, 0.5]))
    a_events, a_rels = oracles.random_poset_data(
        rng, draw(st.integers(min_value=0, max_value=5)), bias)
    if draw(st.booleans()):
        names = [f"f{i}" for i in range(len(a_events))]
        rng.shuffle(names)
        guide = dict(zip(a_events, names))
        b_events, b_rels = names, [(guide[x], guide[y]) for x, y in a_rels]
    else:
        raw, rels = oracles.random_poset_data(
            rng, draw(st.integers(min_value=0, max_value=5)), bias)
        b_events = ["f" + e[1:] for e in raw]
        b_rels = [("f" + x[1:], "f" + y[1:]) for x, y in rels]
        guide = {a: rng.choice(b_events) for a in a_events} if b_events else {}
    pins = {a: guide[a] for a in oracles.random_subset(rng, guide, 0.3)}
    blocks = tuple(
        (frozenset(s), frozenset(guide[a] for a in s))
        for s in (oracles.random_subset(rng, guide) for _ in range(rng.randint(0, 2)))
    )
    return (a_events, a_rels), (b_events, b_rels), blocks, pins


class TestPinnedMaps:
    @settings(max_examples=200, deadline=None)
    @given(pinned_map_case())
    def test_matches_permutation_brute_force(self, case):
        (a_events, a_rels), (b_events, b_rels), blocks, pins = case
        A, B = CausalSet(a_events, a_rels), CausalSet(b_events, b_rels)
        OA = OraclePoset.build(a_events, a_rels)
        OB = OraclePoset.build(b_events, b_rels)
        isos = list(_pinned_maps(A, B, iso=True, blocks=blocks, pins=pins))
        assert isos == oracles.brute_pinned_maps(OA, OB, True, blocks, pins)
        embeddings = list(_pinned_maps(A, B, iso=False, pins=pins))
        assert embeddings == oracles.brute_pinned_maps(OA, OB, False, (), pins)


class TestGerm:
    def test_identity_and_composition(self):
        X = point("p")
        g = identity_cell(X.unit)
        assert g.then(g) == g
        assert g.inverse() == g

    def test_enumeration_counts(self):
        assert len(enumerate_germs(point("p"), point("q"))) == 1
        pair = PointedObject(CausalSet("sy", []), {"s", "y"})
        assert len(enumerate_germs(pair, pair)) == 2  # identity and the swap
        assert enumerate_germs(pair, point("p")) == ()


class TestValidation:
    def test_a_non_convex_output_collar_fails_exactly_its_row(self):
        # the collar {a, c} of a < b < c holds the surface {a} but not b
        target = PointedObject(chain_poset("a", "b", "c"), {"a"})
        M = chain_poset("a", "c")
        b = Bordism((), target, M, (), CausalEmbedding(target.carrier.induced("ac"), M,
                                                       {"a": "a", "c": "c"}))
        report = validate_bordism(b)
        assert [(e.check, e.witness) for e in report.failures] == \
            [("bordism/out-collar", ["output collar is not causally convex"])]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == \
            "27b0f77f2a784e58ef32fdd51cb1721cefd93694e3cf78e8be0d9473b57ea20c"

    def test_unit_bordism_is_valid(self):
        rep = validate_bordism(unit_bordism(point("p")))
        assert rep.ok, rep.failures

    def test_chain_is_valid(self):
        rep = validate_bordism(chain_bordism("a", "b", "c"))
        assert rep.ok, rep.failures

    def test_inputs_on_the_output_surface_need_a_wide_collar(self):
        # a single input whose collar covers the carrier causally may sit
        # directly on the output surface
        M = CausalSet(["p"], [])
        P = point("p")
        ident = CausalEmbedding(M, M, {"p": "p"})
        assert validate_bordism(Bordism((P,), P, M, (ident,), ident)).ok

    def test_two_inputs_touching_the_output_surface_are_rejected(self):
        M = CausalSet("uv", [])
        out = PointedObject(M, {"u", "v"})
        b = Bordism(
            (point("u"), point("v")), out, M,
            (CausalEmbedding(point("u").carrier, M, {"u": "u"}),
             CausalEmbedding(point("v").carrier, M, {"v": "v"})),
            CausalEmbedding(M, M, {"u": "u", "v": "v"}),
        )
        rep = validate_bordism(b)
        assert not rep.ok
        assert [e.check for e in rep.failures] == ["bordism/surface-order"]

    def test_causally_related_inputs_are_rejected(self):
        M = chain_poset("a", "b", "c")
        b = Bordism(
            (point("a"), point("b")), point("c"), M,
            (CausalEmbedding(point("a").carrier, M, {"a": "a"}),
             CausalEmbedding(point("b").carrier, M, {"b": "b"}),),
            CausalEmbedding(point("c").carrier, M, {"c": "c"}),
        )
        rep = validate_bordism(b)
        assert "bordism/disjoint-inputs" in [e.check for e in rep.failures]

    def test_non_cauchy_output_is_rejected(self):
        M = CausalSet("uv", [])
        b = Bordism(
            (), point("u"), M, (),
            CausalEmbedding(point("u").carrier, M, {"u": "u"}),
        )
        rep = validate_bordism(b)
        assert "bordism/out-cauchy" in [e.check for e in rep.failures]

    def test_non_convex_input_collar_is_rejected(self):
        src_carrier = chain_poset("a0", "b0", "c0")
        src = PointedObject(src_carrier, {"a0"})
        M = chain_poset("a", "c")
        collar = src_carrier.induced({"a0", "c0"})
        b = Bordism(
            (src,), point("c"), M,
            (CausalEmbedding(collar, M, {"a0": "a", "c0": "c"}),),
            CausalEmbedding(point("c").carrier, M, {"c": "c"}),
        )
        rep = validate_bordism(b)
        assert "bordism/in-collars" in [e.check for e in rep.failures]

    def test_collar_must_carry_the_induced_order(self):
        M = chain_poset("a", "b")
        stray = CausalSet(["z"], [])
        with pytest.raises(ValueError):
            Bordism(
                (point("a"),), point("b"), M,
                (CausalEmbedding(stray, M, {"z": "a"}),),
                CausalEmbedding(point("b").carrier, M, {"b": "b"}),
            )


class TestComposition:
    def test_two_chains_concatenate(self):
        upper = chain_bordism("a", "b", "c")
        lower = chain_bordism("x", "y", "a")
        full = compose_bordisms_full(upper, (lower,))
        comp = full.bordism
        assert set(comp.carrier.events) == {"x", "y", "a", "b", "c"}
        assert set(comp.carrier.covers) == {
            ("x", "y"), ("y", "a"), ("a", "b"), ("b", "c"),
        }
        assert comp.maps_in[0].image == {"x"}
        assert comp.map_out.image == {"c"}
        assert validate_bordism(comp).ok

    def test_overhang_regions_of_concatenation(self):
        upper = chain_bordism("a", "b", "c")
        lower = chain_bordism("x", "y", "a")
        regions = overhang_regions(upper, (lower,))
        assert regions.upper == {"a", "b", "c"}
        assert regions.lower == (frozenset({"x", "y", "a"}),)
        assert regions.overlaps == (frozenset({"a"}),)

    def test_units_are_strict_on_both_sides(self):
        b = chain_bordism("a", "b", "c")
        assert compose_bordisms(unit_bordism(b.target), (b,)) == b
        assert compose_bordisms(b, (unit_bordism(b.sources[0]),)) == b

    def test_nullary_bordism_composes_with_nothing(self):
        M = chain_poset("o", "p")
        b = Bordism((), point("p"), M, (),
                    CausalEmbedding(point("p").carrier, M, {"p": "p"}))
        assert validate_bordism(b).ok
        assert compose_bordisms(b, ()) == b

    def test_merge_with_two_chains(self):
        psi = merge_bordism()
        left = chain_bordism("x1", "m", "l")
        right = chain_bordism("x2", "m", "r")
        comp = compose_bordisms(psi, (left, right))
        assert set(comp.carrier.events) == {
            "x1", "x2", "m@l", "m@r", "l", "r", "t",
        }
        assert set(comp.carrier.covers) == {
            ("x1", "m@l"), ("m@l", "l"), ("l", "t"),
            ("x2", "m@r"), ("m@r", "r"), ("r", "t"),
        }
        assert comp.sources == (left.sources[0], right.sources[0])

    def test_arity_mismatch_is_rejected(self):
        psi = merge_bordism()
        with pytest.raises(ValueError):
            compose_bordisms(psi, (chain_bordism("x", "l"),))

    def test_wrong_interface_is_rejected(self):
        psi = merge_bordism()
        wrong = chain_bordism("x", "q")
        with pytest.raises(ValueError):
            compose_bordisms(psi, (wrong, chain_bordism("y", "r")))

    def test_invalid_piece_is_named(self):
        M = CausalSet("uv", [])
        out = PointedObject(M, {"u", "v"})
        bad = Bordism(
            (point("u"), point("v")), out, M,
            (CausalEmbedding(point("u").carrier, M, {"u": "u"}),
             CausalEmbedding(point("v").carrier, M, {"v": "v"})),
            CausalEmbedding(M, M, {"u": "u", "v": "v"}),
        )
        with pytest.raises(InvalidComposite, match="outer bordism invalid"):
            compose_bordisms(bad, (unit_bordism(point("u")),
                                   unit_bordism(point("v"))))

    def test_associativity_of_stacked_chains(self):
        top = chain_bordism("e", "f")
        mid = chain_bordism("c", "d", "e")
        low = chain_bordism("a", "b", "c")
        one = compose_bordisms(compose_bordisms(top, (mid,)), (low,))
        other = compose_bordisms(top, (compose_bordisms(mid, (low,)),))
        # the two orders agree up to an invertible cell, found by tracing
        cell = coherence_cells(top, (mid,), ((low,),))
        assert cell.dom == one
        assert cell.cod == other


class TestEquivariance:
    def test_on_the_nose_with_colliding_names(self):
        psi = merge_bordism()
        left = chain_bordism("x1", "m", "l")
        right = chain_bordism("x2", "m", "r")
        comp = compose_bordisms(psi, (left, right))
        sigma = (1, 0)
        swapped = compose_bordisms(permute_bordism(psi, sigma), (right, left))
        assert swapped == permute_bordism(comp, block_permutation(sigma, (1, 1)))

    def test_permutation_action_is_functorial(self):
        psi = merge_bordism()
        assert permute_bordism(permute_bordism(psi, (1, 0)), (1, 0)) == psi
        assert permute_bordism(psi, (0, 1)) == psi

    def test_three_inputs_all_permutations(self):
        W = CausalSet(
            ["p0", "p1", "p2", "t"],
            [("p0", "t"), ("p1", "t"), ("p2", "t")],
        )
        psi = Bordism(
            (point("p0"), point("p1"), point("p2")), point("t"), W,
            tuple(
                CausalEmbedding(point(f"p{i}").carrier, W, {f"p{i}": f"p{i}"})
                for i in range(3)
            ),
            CausalEmbedding(point("t").carrier, W, {"t": "t"}),
        )
        inners = tuple(chain_bordism(f"x{i}", "m", f"p{i}") for i in range(3))
        base = compose_bordisms(psi, inners)
        for sigma in itertools.permutations(range(3)):
            lhs = compose_bordisms(
                permute_bordism(psi, sigma),
                tuple(inners[sigma[i]] for i in range(3)),
            )
            assert lhs == permute_bordism(base, block_permutation(sigma, (1, 1, 1)))


class TestTwoCells:
    def test_no_cell_joins_unequal_arities_or_ends(self):
        assert cells_between(unit_bordism(point("l")), merge_bordism()) == ()
        assert globular_cells_between(unit_bordism(point("l")), merge_bordism()) == ()
        # the same input, another output: cells exist, globular ones do not
        assert cells_between(chain_bordism("a", "b"), chain_bordism("a", "c"))
        assert globular_cells_between(chain_bordism("a", "b"), chain_bordism("a", "c")) == ()

    def test_must_cover_the_surface_hull(self):
        b = chain_bordism("a", "b", "c")
        with pytest.raises(ValueError):
            TwoCell(b, b, {"a": "a"})

    def test_must_match_surface_images_slotwise(self):
        pair = PointedObject(CausalSet("sy", []), {"s", "y"})
        u = unit_bordism(pair)
        swap = Bordism(
            (pair,), pair, pair.carrier,
            (CausalEmbedding(pair.carrier, pair.carrier, {"s": "y", "y": "s"}),),
            CausalEmbedding.identity(pair.carrier),
        )
        cells = cells_between(u, swap)
        assert len(cells) == 2
        assert globular_cells_between(u, swap) == ()

    def test_identity_cells_compose_to_identity(self):
        upper = chain_bordism("a", "b", "c")
        lower = chain_bordism("x", "y", "a")
        comp = compose_bordisms(upper, (lower,))
        pasted = compose_two_cells(identity_cell(upper), (identity_cell(lower),))
        assert pasted == identity_cell(comp)

    def test_vertical_composition_and_inverse(self):
        pair = PointedObject(CausalSet("sy", []), {"s", "y"})
        u = unit_bordism(pair)
        one, two = cells_between(u, u)
        assert one.then(one.inverse()) == identity_cell(u)
        assert two.then(two.inverse()) == identity_cell(u)

    def test_mismatched_interface_germs_are_rejected(self):
        pair = PointedObject(CausalSet("sy", []), {"s", "y"})
        u = unit_bordism(pair)
        _, swap_cell = cells_between(u, u)
        assert swap_cell.target_germ != identity_cell(u).source_germs[0]
        with pytest.raises(ValueError):
            compose_two_cells(identity_cell(u), (swap_cell,))

    def test_unitor_cells_have_the_right_boundaries(self):
        b = chain_bordism("a", "b", "c")
        left, right = unitor_cells(b)
        assert left.dom == compose_bordisms(unit_bordism(b.target), (b,))
        assert right.dom == compose_bordisms(b, (unit_bordism(b.sources[0]),))
        assert left.cod == b and right.cod == b

    def test_coherence_cell_is_globular(self):
        top = chain_bordism("e", "f")
        mid = chain_bordism("c", "d", "e")
        low = chain_bordism("a", "b", "c")
        cell = coherence_cells(top, (mid,), ((low,),))
        assert cell.source_germs == (identity_cell(low.sources[0].unit),)
        assert cell.target_germ == identity_cell(top.target.unit)


class TestRegions:
    def test_full_collar_upper_region_is_the_future_of_the_interface(self):
        M = chain_poset("a", "b", "c")
        src = PointedObject(M, {"a"})
        b = Bordism(
            (src,), point("c"), M,
            (CausalEmbedding.identity(M),),
            CausalEmbedding(point("c").carrier, M, {"c": "c"}),
        )
        regions = overhang_regions(b, (unit_bordism(src),))
        w_img = b.maps_in[0].image_of(regions.overlaps[0])
        assert regions.upper == causal_future(b.carrier, w_img)

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_interface_future_always_lands_in_the_upper_region(self, n, m):
        names_hi = [f"h{i}" for i in range(n)]
        names_lo = [f"l{i}" for i in range(m)] + [names_hi[0]]
        upper = chain_bordism(*names_hi)
        lower = chain_bordism(*names_lo)
        regions = overhang_regions(upper, (lower,))
        w_img = upper.maps_in[0].image_of(regions.overlaps[0])
        assert causal_future(upper.carrier, w_img) <= regions.upper
        comp = compose_bordisms(upper, (lower,))
        assert validate_bordism(comp).ok

    def test_hulls_survive_into_the_glued_regions(self):
        psi = merge_bordism()
        left = chain_bordism("x1", "m", "l")
        right = chain_bordism("x2", "m", "r")
        regions = overhang_regions(psi, (left, right))
        mid_images = set(psi.out_surface_image)
        for img in psi.surface_images:
            mid_images |= img
        assert convex_hull(psi.carrier, mid_images) <= regions.upper
        for inner, lower in zip((left, right), regions.lower):
            assert inner.surface_images[0] <= lower

    def test_two_layer_merge_keeps_inputs_strictly_below_the_output(self):
        psi = merge_bordism()
        left = chain_bordism("x1", "m", "l")
        right = chain_bordism("x2", "m", "r")
        comp = compose_bordisms(psi, (left, right))
        strict = chronological_past(comp.carrier, comp.out_surface_image)
        for img in comp.surface_images:
            assert img <= strict


# fresh event names, shared by all pieces so that the pushout has to rename
FRESH = ("a", "b", "x", "y")


def extend_around(rng: random.Random, base: CausalSet, names,
                  above: float = 0.5) -> CausalSet:
    """``base`` with up to two fresh events from ``names`` around it, each
    one above it with probability ``above``.

    Each fresh event lies below an up-set of ``base`` or above a down-set of
    it, and none above ``base`` lies below one under it, so no chain leaves
    ``base`` and comes back: ``base`` stays a convex, induced sub-poset.
    """
    pool = [n for n in names if n not in base]
    fresh = rng.sample(pool, min(rng.randint(0, 2), len(pool)))
    above = {f: rng.random() < above for f in fresh}
    relations = list(base.covers)
    for f in fresh:
        seed = oracles.random_subset(rng, base.events, 0.4)
        if above[f]:
            relations += [(e, f) for e in causal_past(base, seed)]
        else:
            relations += [(f, e) for e in causal_future(base, seed)]
    relations += [(f, g) for f, g in itertools.combinations(fresh, 2)
                  if not (above[f] and not above[g]) and rng.random() < 0.4]
    return CausalSet([*base.events, *fresh], relations)


def _random_interface(rng: random.Random, tag: str) -> PointedObject:
    events, relations = oracles.random_poset_data(rng, rng.randint(1, 3), 0.4)
    rename = {e: f"{n}{tag}" for e, n in zip(events, "uvw")}
    M = CausalSet(rename.values(), [(rename[a], rename[b]) for a, b in relations])
    return PointedObject(M, rng.choice(list(cauchy_antichains(M))))


def _hull_around(rng: random.Random, obj: PointedObject) -> frozenset[str]:
    """A convex region of the carrier holding the surface."""
    return convex_hull(obj.carrier, obj.surface | oracles.random_subset(rng, obj.carrier.events))


def _random_inner(rng: random.Random, target: PointedObject, arity: int) -> Bordism | None:
    """A bordism into ``target`` with ``arity`` inputs, or None when the
    drawn one is invalid.

    Each input is a fresh poset of one or two events, its maximal events
    pointed, glued below some events of the target surface; events of one
    input are then below the output surface and unrelated to the others.
    """
    collar = _hull_around(rng, target)
    names = iter(rng.sample(FRESH + ("p", "q", "r", "s"), 2 * arity))
    relations = list(target.carrier.induced(collar).covers)
    blocks = []
    for _ in range(arity):
        block = [next(names) for _ in range(rng.randint(1, 2))]
        if len(block) == 2 and rng.random() < 0.5:
            relations.append((block[0], block[1]))
        tops = set(block) - {a for a, b in relations if a in block and b in block}
        relations += [(t, e) for t in tops
                      for e in oracles.random_subset(rng, target.surface) or target.surface]
        blocks.append(block)
    base = CausalSet([*collar, *(e for block in blocks for e in block)], relations)
    N = extend_around(rng, base, FRESH, above=0.3)
    sources = []
    for block in blocks:
        carrier = N.induced(block)
        sources.append(PointedObject(carrier, carrier.maximal_events))
    b = Bordism(sources, target, N,
                [CausalEmbedding.inclusion(N, block) for block in blocks],
                CausalEmbedding(target.carrier.induced(collar), N,
                                {e: e for e in collar}))
    return b if validate_bordism(b).ok else None


def _random_outer(rng: random.Random, sources: list[PointedObject]) -> Bordism | None:
    """A bordism out of ``sources`` whose input collars are renamed apart,
    or None when the drawn one is invalid."""
    rename, relations = [], []
    for i, src in enumerate(sources):
        collar = _hull_around(rng, src)
        rename.append({e: f"{e}{i}" for e in collar})
        relations += [(rename[i][a], rename[i][b])
                      for a, b in src.carrier.induced(collar).covers]
    images = [rename[i][e] for i, src in enumerate(sources) for e in src.surface]
    events = [e for r in rename for e in r.values()]
    if rng.random() < 0.5:
        # one event above every input surface
        events.append("t")
        relations += [(e, "t") for e in images]
    M = extend_around(rng, CausalSet(events, relations), FRESH)
    P = as_oracle(M)
    # one input may reach the output surface; more must stay strictly below
    below = M.le if len(sources) == 1 else M.lt
    tops = [t for t in oracles.all_antichains(P) if t
            and all(any(below(s, e) for e in t) for s in images)]
    if not tops:
        return None
    top = rng.choice(tops)
    collar = convex_hull(M, top | oracles.random_subset(rng, M.events, 0.3))
    carrier = M.induced(collar)
    if rng.random() < 0.5:
        carrier = extend_around(rng, carrier, ("c", "d"))
    if not is_cauchy_antichain(carrier, top):
        return None
    target = PointedObject(carrier, top)
    b = Bordism(sources, target, M,
                [CausalEmbedding(src.carrier.induced(r), M, r)
                 for src, r in zip(sources, rename)],
                CausalEmbedding(carrier.induced(collar), M, {e: e for e in collar}))
    return b if validate_bordism(b).ok else None


@st.composite
def valid_pieces(draw):
    """An outer bordism of arity 0 to 2 and an inner one of arity 0 to 2 into
    each input, all valid.  The arities are drawn first; a piece that comes
    out invalid is drawn again, with the same arities, from the same seed."""
    arities = draw(st.integers(min_value=0, max_value=2).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    while True:
        sources = [_random_interface(rng, str(i)) for i in range(len(arities))]
        outer = _random_outer(rng, sources)
        inners = [next((b for b in (_random_inner(rng, src, n) for _ in range(20))
                        if b is not None), None)
                  for src, n in zip(sources, arities)]
        if outer is not None and None not in inners:
            return outer, tuple(inners)


class TestGluingValidPieces:
    """Composition checks its pieces and its composite, and nothing between.

    The region, collar and leg conditions it does not check are shown to
    hold on generated valid pieces by brute force; the composite is checked,
    because valid pieces can glue to an invalid composite.
    """

    @given(valid_pieces())
    @settings(max_examples=150, deadline=None)
    def test_valid_pieces_meet_every_region_condition(self, pieces):
        outer, inners = pieces
        regions = overhang_regions(outer, inners)
        O = as_oracle(outer.carrier)
        removed = set()
        for img in outer.surface_images:
            removed |= oracles.brute_past(O, img)
        added = set()
        for emb, w in zip(outer.maps_in, regions.overlaps):
            added |= emb.image_of(w)
        upper = regions.upper
        assert upper == (set(O.events) - removed) | added
        assert oracles.brute_convex(O, set(upper))
        assert upper >= outer.out_surface_image
        for i, inner in enumerate(inners):
            iface, w, lo = outer.sources[i], regions.overlaps[i], regions.lower[i]
            I, N = as_oracle(iface.carrier), as_oracle(inner.carrier)
            assert w == inner.out_collar & outer.in_collars[i]
            assert w >= iface.surface and oracles.brute_convex(I, set(w))
            assert upper >= outer.surface_images[i]
            assert lo == oracles.brute_past(N, inner.map_out.image_of(w))
            assert oracles.brute_convex(N, set(lo))
            assert all(lo >= img for img in inner.surface_images)
            # both collar restrictions are causal embeddings
            mid = oracles.sub_oracle(I, set(w))
            assert oracles.brute_map_error(
                mid, oracles.sub_oracle(N, set(lo)),
                {e: inner.map_out(e) for e in w}) is None
            assert oracles.brute_map_error(
                mid, oracles.sub_oracle(O, set(upper)),
                {e: outer.maps_in[i](e) for e in w}) is None

    @given(valid_pieces())
    @settings(max_examples=150, deadline=None)
    def test_valid_pieces_glue_like_the_validating_constructors(self, pieces):
        outer, inners = pieces
        regions = overhang_regions(outer, inners)
        mids = [src.carrier.induced(w) for src, w in zip(outer.sources, regions.overlaps)]
        lowers = [inner.carrier.induced(lo) for inner, lo in zip(inners, regions.lower)]
        upper = outer.carrier.induced(regions.upper)
        # every map goes through the validating constructor here
        glued = glue_pushout(
            lowers, mids, upper,
            [CausalEmbedding(mid, lo, {e: inner.map_out(e) for e in mid.events})
             for inner, mid, lo in zip(inners, mids, lowers)],
            [CausalEmbedding(mid, upper, {e: emb(e) for e in mid.events})
             for emb, mid in zip(outer.maps_in, mids)])
        Q = as_oracle(glued.result)
        for leg in (*glued.left_legs, glued.right_leg):
            assert oracles.brute_map_error(as_oracle(leg.dom), Q, leg.table) is None
        maps_in = []
        for inner, lo, leg in zip(inners, regions.lower, glued.left_legs):
            for emb in inner.maps_in:
                pre = emb.preimage_of(lo)
                maps_in.append(CausalEmbedding(emb.dom.induced(pre), glued.result,
                                               {e: leg(emb(e)) for e in pre}))
        pre = outer.map_out.preimage_of(regions.upper)
        map_out = CausalEmbedding(outer.map_out.dom.induced(pre), glued.result,
                                  {e: glued.right_leg(outer.map_out(e)) for e in pre})
        expected = Bordism([s for inner in inners for s in inner.sources], outer.target,
                           glued.result, maps_in, map_out)
        try:
            full = compose_bordisms_full(outer, inners)
        except InvalidComposite as exc:
            # the one check left between the pieces and the result
            assert str(exc).startswith("composite failed validation: ")
            assert not validate_bordism(expected).ok
        else:
            assert full.bordism == expected
            assert (full.lower_legs, full.upper_leg) == (glued.left_legs, glued.right_leg)

    def test_valid_pieces_can_glue_to_a_composite_without_a_cauchy_output(self):
        # x < s < t, x < y, z < t; the output collar {x, s, z, t} holds the
        # Cauchy antichain {x, z}, the surface {t} is not Cauchy, and the
        # glue along the input surface {s} cuts x away, which leaves y
        # alone and outside the collar
        O = CausalSet("stxyz", [("x", "s"), ("s", "t"), ("x", "y"), ("z", "t")])
        collar = O.induced("xszt")
        outer = Bordism((point("s"),), PointedObject(collar, {"t"}), O,
                        (CausalEmbedding.inclusion(O, {"s"}),),
                        CausalEmbedding.inclusion(O, collar.events))
        inner = unit_bordism(point("s"))
        assert validate_bordism(outer).ok and validate_bordism(inner).ok
        assert overhang_regions(outer, (inner,)).upper == {"s", "t", "y", "z"}
        with pytest.raises(InvalidComposite,
                           match="^composite failed validation: bordism/out-cauchy$"):
            compose_bordisms_full(outer, (inner,))


class TestUncheckedBuilds:
    """Germs and cells that are germs and cells by construction are built
    unchecked; each equals the validating constructor's build from the same
    ends and pairs, and the constructor checks that they rely on cannot fail
    on what the constructors accept."""

    @given(valid_pieces())
    @settings(max_examples=100, deadline=None)
    def test_searched_and_derived_cells_of_valid_pieces_are_validated_builds(self, pieces):
        outer, inners = pieces
        for b in (outer, *inners):
            for cell in (*cells_between(b, b), *globular_cells_between(b, b), identity_cell(b)):
                for x in (cell, cell.inverse(), cell.then(cell), *cell.source_germs,
                          cell.target_germ):
                    assert_validated(x)
            for obj in (*b.sources, b.target):
                for germ in enumerate_germs(obj, obj):
                    assert_validated(germ)

    @given(valid_pieces())
    @settings(max_examples=60, deadline=None)
    def test_germs_are_the_cells_between_unit_bordisms(self, pieces):
        objects = list(dict.fromkeys(obj for b in (pieces[0], *pieces[1])
                                     for obj in (*b.sources, b.target)))
        for a in objects:
            assert unit_bordism(a) is a.unit
        for a, b in itertools.product(objects, repeat=2):
            germs = enumerate_germs(a, b)
            assert germs == cells_between(a.unit, b.unit)
            for g in germs:
                assert_validated(g)
                assert validate_bordism(companion_bordism(g)).ok

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_a_germ_is_exactly_a_bijection_between_surfaces(self, seed):
        # so a germ the cell constructor accepts between unit bordisms
        # carries the surface onto the target surface
        rng = random.Random(seed)
        src, tgt = _random_interface(rng, "0"), _random_interface(rng, "1")
        table = {x: rng.choice(tgt.carrier.events) for x in src.surface}
        bijection = set(table.values()) == tgt.surface and len(table) == len(tgt.surface)
        try:
            germ = TwoCell(src.unit, tgt.unit, table)
        except ValueError:
            assert not bijection
        else:
            assert bijection and germ.embedding.image_of(src.surface) == tgt.surface

    @given(valid_pieces())
    @settings(max_examples=100, deadline=None)
    def test_pasted_cells_agree_on_every_shared_hull_event(self, pieces):
        # the pieces' cells send each composite hull event to at most one
        # event, so the glue makes no check that they agree
        outer, inners = pieces
        try:
            full = compose_bordisms_full(outer, inners)
        except InvalidComposite:
            return
        hull = full.bordism.surface_hull
        legs = [(full.upper_leg, outer.surface_hull)]
        legs += [(leg, inner.surface_hull) for leg, inner in zip(full.lower_legs, inners)]
        for alpha in cells_between(outer, outer):
            pools = [[c for c in cells_between(inner, inner) if c.target_germ == g]
                     for inner, g in zip(inners, alpha.source_germs)]
            for betas in itertools.product(*pools):
                images: dict = {x: set() for x in hull}
                for (leg, piece_hull), cell in zip(legs, (alpha, *betas)):
                    for e in piece_hull & set(leg.dom.events):
                        if leg(e) in hull:
                            images[leg(e)].add(leg(cell(e)))
                assert all(len(ys) <= 1 for ys in images.values())
                if all(images.values()):
                    assert compose_two_cells(alpha, betas) == TwoCell(
                        full.bordism, full.bordism, {x: ys.pop() for x, ys in images.items()})
                else:
                    with pytest.raises(InvalidComposite, match="not covered"):
                        compose_two_cells(alpha, betas)


class TestProvenancePairing:
    """Unitors and associators pair the hull events of two composites by the
    provenance of their events.  On valid pieces every tag on one hull has
    one owner on the other and the pairing is a bijection of the hulls, so
    the pairing makes no check of its own and the validating cell
    constructor that reads it is the one check."""

    @given(valid_pieces())
    @settings(max_examples=100, deadline=None)
    def test_unitors_and_associators_of_valid_pieces_pair_the_hulls(self, pieces):
        outer, inners = pieces
        units = tuple(tuple(s.unit for s in inner.sources) for inner in inners)
        stacks = [(outer, inners, units),
                  (outer, tuple(s.unit for s in outer.sources), tuple((i,) for i in inners))]
        builds = [lambda b=b: unitor_cells(b) for b in (outer, *inners)]
        builds += [lambda stack=stack: (coherence_cells(*stack),) for stack in stacks]
        for build in builds:
            try:
                cells = build()
            except InvalidComposite as exc:
                # a glue may fail its composite (the right unit law gap),
                # never the pairing
                assert str(exc).startswith("composite failed validation")
                continue
            for cell in cells:
                assert_validated(cell)


def uncovered_pieces() -> tuple[Bordism, Bordism]:
    """Valid pieces whose composite hull holds an event in neither piece
    hull: the outer one has m < s < t and m < u < t on the input collar
    m < s, the inner one a < m < s below it; the composite hull runs from a
    to t and holds u, which lies above no event of the outer hull {s, t}."""
    S = PointedObject(chain_poset("m", "s"), {"s"})
    M = CausalSet("mstu", [("m", "s"), ("s", "t"), ("m", "u"), ("u", "t")])
    outer = Bordism((S,), point("t"), M, (CausalEmbedding.inclusion(M, "ms"),),
                    CausalEmbedding(point("t").carrier, M, {"t": "t"}))
    N = chain_poset("a", "m", "s")
    inner = Bordism((point("a"),), S, N, (CausalEmbedding(point("a").carrier, N, {"a": "a"}),),
                    CausalEmbedding.inclusion(N, "ms"))
    return outer, inner


def paste_identity_cells(outer: Bordism, inner: Bordism) -> TwoCell:
    return compose_two_cells(identity_cell(outer), (identity_cell(inner),))


class TestRaises:
    """The smallest input for each raise of the pointed-object, bordism and
    cell constructors, of vertical composition and of the cell glue; the
    "germ" cases build cells between unit bordisms, which are the germs."""

    @staticmethod
    def pair() -> PointedObject:
        return PointedObject(CausalSet("sy", []), {"s", "y"})

    @pytest.mark.parametrize("build, error, text", [
        pytest.param(lambda: PointedObject(CausalSet("a"), {"b"}), InvalidSurface,
                     "surface names ['b'], which are not events of the carrier ['a']",
                     id="surface"),
        pytest.param(lambda: Bordism((point("a"),), point("a"), CausalSet("a"), (),
                                     CausalEmbedding.identity(CausalSet("a"))),
                     ValueError, "one input embedding per source is required", id="inputs"),
        pytest.param(lambda: Bordism((point("a"),), point("a"), CausalSet("a"),
                                     (CausalEmbedding.identity(CausalSet("b")),),
                                     CausalEmbedding.identity(CausalSet("a"))),
                     ValueError, "input embedding 0 does not land in the carrier",
                     id="input-carrier"),
        pytest.param(lambda: Bordism((), point("a"), CausalSet("a"), (),
                                     CausalEmbedding.identity(CausalSet("b"))),
                     ValueError, "output embedding does not land in the carrier",
                     id="output-carrier"),
        pytest.param(lambda: Bordism((point("a"),), point("a"), CausalSet("a"),
                                     (CausalEmbedding(CausalSet([]), CausalSet("a"), {}),),
                                     CausalEmbedding.identity(CausalSet("a"))),
                     ValueError, "input collar 0 misses its surface", id="input-surface"),
        pytest.param(lambda: Bordism((), point("a"), CausalSet([]), (),
                                     CausalEmbedding.identity(CausalSet([]))),
                     ValueError, "output collar misses its surface", id="output-surface"),
        pytest.param(lambda: TwoCell(point("p").unit, TestRaises.pair().unit, {"p": "s"}),
                     ValueError, "cell image must be exactly the surface hull", id="germ"),
        pytest.param(lambda: TwoCell(unit_bordism(point("p")),
                                     Bordism((), point("p"), CausalSet("p"), (),
                                             CausalEmbedding.identity(CausalSet("p"))),
                                     {"p": "p"}),
                     ValueError, "cells connect bordisms of equal arity", id="arity"),
        pytest.param(lambda: TwoCell(chain_bordism("a", "b", "c"), chain_bordism("a", "b", "c"),
                                     {"a": "a"}),
                     ValueError, "cell must be defined on exactly the surface hull", id="domain"),
        pytest.param(lambda: TwoCell(unit_bordism(point("p")), chain_bordism("a", "b", "c"),
                                     {"p": "a"}),
                     ValueError, "cell image must be exactly the surface hull", id="image"),
        pytest.param(lambda: TwoCell(merge_bordism(), merge_bordism(),
                                     {"l": "r", "r": "l", "t": "t"}),
                     ValueError, "cell does not match input surface image 0", id="input"),
        pytest.param(lambda: TwoCell(
            Bordism((point("s"),), point("y"), CausalSet("sy", []),
                    (CausalEmbedding(point("s").carrier, CausalSet("sy", []), {"s": "s"}),),
                    CausalEmbedding(point("y").carrier, CausalSet("sy", []), {"y": "y"})),
            Bordism((point("s"),), TestRaises.pair(), CausalSet("sy", []),
                    (CausalEmbedding(point("s").carrier, CausalSet("sy", []), {"s": "s"}),),
                    CausalEmbedding.identity(CausalSet("sy", []))),
            {"s": "s", "y": "y"}),
                     ValueError, "cell does not match the output surface image", id="output"),
        pytest.param(lambda: identity_cell(point("p").unit).then(
                         identity_cell(point("q").unit)),
                     ValueError, "cells do not compose", id="germ-then"),
        pytest.param(lambda: identity_cell(unit_bordism(point("p"))).then(
                         identity_cell(unit_bordism(point("q")))),
                     ValueError, "cells do not compose", id="cell-then"),
        pytest.param(lambda: compose_two_cells(identity_cell(merge_bordism()),
                                               (identity_cell(unit_bordism(point("l"))),)),
                     ValueError, "arity mismatch: one inner cell per input is required",
                     id="paste-arity"),
        pytest.param(lambda: compose_two_cells(
                         identity_cell(unit_bordism(TestRaises.pair())),
                         (cells_between(unit_bordism(TestRaises.pair()),
                                        unit_bordism(TestRaises.pair()))[1],)),
                     ValueError, "inner cell 0 does not feed the matching boundary germ",
                     id="paste-germ"),
        pytest.param(lambda: paste_identity_cells(*uncovered_pieces()),
                     InvalidComposite, "composite hull event not covered by any piece hull",
                     id="paste-cover"),
    ])
    def test_each_raise_is_reached(self, build, error, text):
        with pytest.raises(error) as raised:
            build()
        assert str(raised.value) == text

    def test_the_uncovered_pieces_are_valid_and_compose(self):
        outer, inner = uncovered_pieces()
        assert validate_bordism(outer).ok and validate_bordism(inner).ok
        composite = compose_bordisms(outer, (inner,))
        assert composite.surface_hull == {"a", "m", "s", "t", "u"}
        assert outer.surface_hull == {"s", "t"} and inner.surface_hull == {"a", "m", "s"}


class TestConditionStrictness:
    """A one-input bordism without a wide collar must sit strictly below.

    Weakening the strict-past requirement to the reflexive past admits a
    two-event antichain whose input points at the output surface itself;
    such a piece breaks every composition it enters, so the validator
    rejects it up front.
    """

    def witness(self) -> Bordism:
        N = CausalSet("tx", [])
        M = point("m")
        return Bordism(
            (M,), PointedObject(N, {"t", "x"}), N,
            (CausalEmbedding(M.carrier, N, {"m": "t"}),),
            CausalEmbedding.identity(N),
        )

    def test_strict_validation_rejects_the_witness(self):
        rep = validate_bordism(self.witness())
        assert [e.check for e in rep.failures] == ["bordism/surface-order"]

    def test_the_reflexive_variant_would_admit_it(self):
        b = self.witness()
        img = b.surface_images[0]
        assert img <= causal_past(b.carrier, b.out_surface_image)
        assert not img <= chronological_past(b.carrier, b.out_surface_image)

    def test_composition_refuses_the_witness(self):
        b = self.witness()
        with pytest.raises(InvalidComposite, match="outer bordism invalid"):
            compose_bordisms(b, (unit_bordism(b.sources[0]),))


class TestFragments:
    def test_point_fragment_satisfies_all_axioms(self):
        frag = bordism_fragment([point("p")], depth=1)
        rep = check_pseudo_operad(frag)
        assert rep.ok, rep.failures
        O = truncate_bordisms(frag)
        assert len(O.operations) == 1
        rep2 = adjunction_report(O, frag)
        assert rep2.ok, rep2.failures

    def test_chain_fragment_at_depth_two(self):
        frag = bordism_fragment([chain_bordism("a", "b", "c")], depth=2,
                                max_ops=64, max_cells=4096)
        rep = check_pseudo_operad(frag)
        assert rep.ok, rep.failures
        by_check = {e.check: e for e in rep.entries}
        assert by_check["pseudo-operad/pentagon"].witness["instances-checked"] > 0
        assert by_check["pseudo-operad/triangle"].witness["instances-checked"] > 0
        rep2 = adjunction_report(truncate_bordisms(frag), frag)
        assert rep2.ok, rep2.failures

    def test_merge_fragment_distinguishes_the_wide_sub_structure(self):
        frag = bordism_fragment([merge_bordism()], depth=1,
                                max_ops=128, max_cells=8192)
        rep = check_pseudo_operad(frag)
        assert rep.ok, rep.failures
        rep2 = adjunction_report(truncate_bordisms(frag), frag)
        assert rep2.ok, rep2.failures

    def test_chain_tables_match_standalone_calls(self):
        frag = bordism_fragment([chain_bordism("a", "b", "c")], depth=2,
                                max_ops=64, max_cells=4096)
        assert frag.compose_ops and frag.compose_cells and frag.associators
        assert frag.left_unitors and frag.right_unitors
        for (psi, phis), composite in frag.compose_ops.items():
            assert composite == compose_bordisms(psi, phis)
        for (alpha, betas), cell in frag.compose_cells.items():
            assert cell == compose_two_cells(alpha, betas)
        for (psi, phis, chis), cell in frag.associators.items():
            assert cell == coherence_cells(psi, phis, chis)
        for op, cell in frag.left_unitors.items():
            assert cell == unitor_cells(op)[0]
        for op, cell in frag.right_unitors.items():
            assert cell == unitor_cells(op)[1]

    def test_each_configuration_is_glued_once_per_build(self, monkeypatch):
        glued: list[tuple] = []

        def counting(outer, inners, **record):
            glued.append((outer, tuple(inners)))
            return compose_bordisms_full(outer, inners, **record)

        monkeypatch.setattr(bordism_module, "compose_bordisms_full", counting)
        chain = chain_bordism("a", "b", "c")
        bordism_fragment([chain], depth=2, max_ops=64, max_cells=4096)
        first = Counter(glued)
        assert first and max(first.values()) == 1
        glued.clear()
        bordism_fragment([chain], depth=2, max_ops=64, max_cells=4096)
        assert Counter(glued) == first

    @pytest.mark.parametrize("generator, depth, caps", [
        (merge_bordism(), 1, {"max_ops": 128, "max_cells": 8192}),
        (chain_bordism("a", "b", "c"), 2, {"max_ops": 64, "max_cells": 4096}),
    ])
    def test_each_value_is_validated_once_per_build(self, monkeypatch,
                                                    generator, depth, caps):
        checked: list[Bordism] = []

        def counting(b):
            checked.append(b)
            return validate_bordism(b)

        monkeypatch.setattr(bordism_module, "validate_bordism", counting)
        builds = []
        for _ in range(2):
            checked.clear()
            frag = bordism_fragment([generator], depth=depth, **caps)
            # the build validates each of its operations, and nothing else, once
            assert Counter(checked) == Counter(frag.all_ops())
            assert check_two_adjunction(truncate_bordisms(frag), frag).ok
            builds.append(Counter(checked))
        first, second = builds
        # the audit's glues on demand validate each new composite once
        assert len(first) > len(frag.all_ops()) and max(first.values()) == 1
        assert second == first

    def test_the_audits_validate_no_embedding_that_holds_by_construction(self, monkeypatch):
        counts: Counter = Counter()
        validate, induce = CausalEmbedding._validate, CausalSet._induce

        def validating(emb, table):
            counts["validations"] += 1
            return validate(emb, table)

        def inducing(M, mask):
            counts["inductions"] += 1
            return induce(M, mask)

        fragments = [(merge_bordism(), 1, {"max_ops": 128, "max_cells": 8192}),
                     (chain_bordism("a", "b", "c"), 2, {"max_ops": 64, "max_cells": 4096})]
        monkeypatch.setattr(CausalEmbedding, "_validate", validating)
        monkeypatch.setattr(CausalSet, "_induce", inducing)
        for generator, depth, caps in fragments:
            frag = bordism_fragment([generator], depth=depth, **caps)
            assert check_pseudo_operad(frag).ok
            assert check_two_adjunction(truncate_bordisms(frag), frag).ok
        # the glue's cells validate their embeddings; composites,
        # restrictions, collars, pushout legs and identities are embeddings
        # by construction, and so are searched, derived and boundary germs
        # and cells; each causal set builds each of its sub-posets once
        assert counts == {"validations": 1430, "inductions": 147}

    def test_a_window_glue_still_validates_a_broken_piece(self):
        frag = bordism_fragment([chain_bordism("a", "b", "c")], depth=1)
        psi = next(op for op in frag.all_ops(1) if op.sources[0].carrier.events == ("a",))
        good = frag.unit_op(psi.sources[0])
        # the same ends, but the output surface is not in the collar's past
        M = CausalSet("ax", [])
        src = PointedObject(CausalSet("a"), {"a"})
        broken = Bordism((src,), psi.sources[0], M,
                         (CausalEmbedding(src.carrier, M, {"a": "x"}),),
                         CausalEmbedding(psi.sources[0].carrier, M, {"a": "a"}))
        assert not validate_bordism(broken).ok
        assert frag.compose_op_fn(psi, (good,)) == compose_bordisms(psi, (good,))
        with pytest.raises(InvalidComposite, match="inner 0 bordism invalid"):
            frag.compose_op_fn(psi, (broken,))

    def test_every_vertical_has_a_companion(self):
        frag = bordism_fragment([chain_bordism("a", "b", "c")], depth=1)
        for g in frag.objects.morphisms:
            comp = find_companion(frag, g)
            assert comp.op == companion_bordism(g)

    def test_caps_are_enforced(self):
        with pytest.raises(FragmentCapExceeded):
            bordism_fragment([merge_bordism()], depth=1, max_ops=4)
        with pytest.raises(FragmentCapExceeded):
            bordism_fragment([merge_bordism()], depth=1, max_cells=8)
        with pytest.raises(FragmentCapExceeded, match="^object cap 1 exceeded$"):
            bordism_fragment([point("a"), point("b")], max_objects=1)

    def test_each_operation_cap_of_the_depth_loop_is_reached(self):
        # the chain window starts from 5 operations (2 units, the chain and
        # the companions of the germs a->b and b->a; those of the identity
        # germs are the units), so a cap of 5 stops the first new composite
        chain = chain_bordism("a", "b")
        start = bordism_fragment([chain], depth=0)
        assert len(start.all_ops()) == 5
        with pytest.raises(FragmentCapExceeded, match="^operation cap 5 exceeded$"):
            bordism_fragment([chain], depth=1, max_ops=5)
        # two stacked merges glue 161 distinct operations at depth 1, and the
        # input permutations of the ternary composites add 10 more, so a cap
        # of 161 passes the composition loop and stops the action closure
        V = CausalSet("xyl", [("x", "l"), ("y", "l")])
        below_l = Bordism((point("x"), point("y")), point("l"), V,
                          (CausalEmbedding(point("x").carrier, V, {"x": "x"}),
                           CausalEmbedding(point("y").carrier, V, {"y": "y"})),
                          CausalEmbedding(point("l").carrier, V, {"l": "l"}))
        stacked = [merge_bordism(), below_l]
        full = bordism_fragment(stacked, depth=1, max_ops=171, max_cells=10**5)
        glued = set(bordism_fragment(stacked, depth=0).all_ops()) | set(full.compose_ops.values())
        assert (len(glued), len(full.all_ops())) == (161, 171)
        with pytest.raises(FragmentCapExceeded, match="^operation cap 161 exceeded$"):
            bordism_fragment(stacked, depth=1, max_ops=161)

    def test_the_cell_cap_on_cell_composites_is_reached(self):
        # the chain window has 25 cells and 72 cell composites
        chain = chain_bordism("a", "b")
        full = bordism_fragment([chain], depth=1)
        assert (len(full.all_cells()), len(full.compose_cells)) == (25, 72)
        with pytest.raises(FragmentCapExceeded, match="^cell cap 25 exceeded$"):
            bordism_fragment([chain], depth=1, max_cells=25)

    def test_the_cell_cap_on_associators_is_reached(self):
        # a point made from nothing: 2 cells, 3 cell composites, 4 associators
        birth = Bordism((), point("a"), CausalSet("a"), (), CausalEmbedding.identity(CausalSet("a")))
        full = bordism_fragment([birth], depth=1)
        assert (len(full.all_cells()), len(full.compose_cells), len(full.associators)) == (2, 3, 4)
        with pytest.raises(FragmentCapExceeded, match="^cell cap 3 exceeded$"):
            bordism_fragment([birth], depth=1, max_cells=3)

    def test_generators_are_screened(self):
        with pytest.raises(TypeError):
            bordism_fragment(["not a bordism"])
        M = CausalSet("uv", [])
        bad = Bordism(
            (), point("u"), M, (),
            CausalEmbedding(point("u").carrier, M, {"u": "u"}),
        )
        with pytest.raises(ValueError, match="generator bordism 0 invalid"):
            bordism_fragment([bad])


@pytest.fixture(scope="module", params=["merge", "chain", "antichain"])
def window(request):
    """The merge fragment at depth 1, the chain fragment at depth 2, and the
    window of a two-event antichain surface, whose parallel cells (the
    identity and the swap) differ only in their pairs."""
    if request.param == "merge":
        return bordism_fragment([merge_bordism()], depth=1, max_ops=128, max_cells=8192)
    if request.param == "chain":
        return bordism_fragment([chain_bordism("a", "b", "c")], depth=2,
                                max_ops=64, max_cells=4096)
    return bordism_fragment([PointedObject(CausalSet("uv", []), {"u", "v"})], depth=1)


def held_instances(frag) -> dict:
    """Every germ, operation and cell that the window's groupoids hold, keyed by itself."""
    held = {g: g for g in frag.objects.morphisms}
    for G in frag.op_groupoids.values():
        held.update((op, op) for op in G.objects)
        held.update((c, c) for c in G.morphisms)
    return held


def assert_validated(x):
    """``x``, a cell (a germ is a cell between unit bordisms), equals what
    the validating constructor builds from its ends and pairs, embedding and
    hash included."""
    built = TwoCell(x.dom, x.cod, x.pairs)
    assert x == built and hash(x) == hash(built) and str(x) == str(built)
    assert x.embedding == built.embedding


def composable_pairs(G):
    """Every pair (g, f) of morphisms of G with g after f defined."""
    into: dict = {}
    for f in G.morphisms:
        into.setdefault(G.tgt(f), []).append(f)
    return [(g, f) for g in G.morphisms for f in into.get(G.src(g), ())]


class TestCanonicalInstances:
    TABLES = ("compose_ops", "act_ops", "unit_ops", "compose_cells", "act_cells",
              "unit_cells", "associators", "left_unitors", "right_unitors")

    def test_table_values_are_the_window_instances(self, window):
        held = held_instances(window)
        for name in self.TABLES:
            values = list(getattr(window, name).values())
            assert values, name
            for v in values:
                assert held.get(v) is v, f"{name} holds a copy of {v}"
        for cell in window.all_cells():
            for g in (*window.cell_inputs[cell], window.cell_output[cell]):
                assert held.get(g) is g, f"boundary of {cell} holds a copy of {g}"

    def test_each_germ_is_its_own_unit_cell(self, window):
        assert window.unit_cells
        for g in window.objects.morphisms:
            assert window.unit_cells[g] is g
            assert window.unit_ops[g.dom.target] is g.dom

    def test_groupoid_results_are_the_stored_morphisms(self, window):
        for G in (window.objects, *window.op_groupoids.values()):
            held = {m: m for m in G.morphisms}
            for obj in G.objects:
                assert held[G.id(obj)] is G.id(obj)
            for g in G.morphisms:
                assert held[G.inv(g)] is G.inv(g)
            for g, f in composable_pairs(G):
                gf = G.compose(g, f)
                assert held.get(gf) is gf
                assert G.compose(g, f) is gf

    def test_derived_germs_and_cells_equal_the_validated_builds(self, window):
        refused = 0
        for G in (window.objects, *window.op_groupoids.values()):
            derived = [*G.morphisms, *map(G.id, G.objects)]
            for g in G.morphisms:
                derived += [g.inverse(), G.inv(g)]
            for g, f in composable_pairs(G):
                derived += [f.then(g), G.compose(g, f)]
                assert G.compose(g, f) == f.then(g)
            for x in derived:
                assert_validated(x)
            # a pair that does not compose is refused by then
            for g, f in itertools.islice(
                    ((g, f) for f in G.morphisms for g in G.morphisms
                     if G.src(g) != G.tgt(f)), 3):
                refused += 1
                with pytest.raises(ValueError, match="^cells do not compose$"):
                    f.then(g)
        for cell in window.all_cells():
            for germ in (*cell.source_germs, cell.target_germ):
                assert_validated(germ)
        for g, cell in window.unit_cells.items():
            assert_validated(cell)
        assert refused > 0

    def test_permuted_cells_are_the_window_cells(self, window):
        held = held_instances(window)
        assert window.act_cells
        for (cell, sigma), moved in window.act_cells.items():
            assert moved == permute_cell(cell, sigma)
            assert held.get(moved) is moved


def _key_text(key) -> str:
    """A table key as text, joining tuples with ``str`` per element: the
    ``repr`` of the values inside would depend on ``PYTHONHASHSEED``."""
    if isinstance(key, tuple):
        return "(" + ",".join(_key_text(k) for k in key) + ")"
    return str(key)


class TestWindowNames:
    """Every composite a window holds, event names included, is pinned by a
    digest, so a change in how pushouts are named cannot go unseen."""

    DIGESTS = {
        "merge": (1247, "fdfe5b11e7b910ae47bfc97935bf7e2d39828c715beea5910bb5f1982f20bb47"),
        "chain": (222, "b264108dd2bb6bb901246bf52b99890a5464e58b523c5a9928f3c1dc75fce017"),
        "antichain": (44, "7f98d63909f54d6a33b3357ac50948cef9205af497cd297c2880e118d81d7b34"),
    }

    def test_composites_keep_their_names(self, window, request):
        lines = [
            f"{_key_text(key)}\t{value}\n"
            for name in ("compose_ops", "compose_cells", "associators")
            for key, value in getattr(window, name).items()
        ]
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == self.DIGESTS[request.node.callspec.params["window"]]

    def test_cell_composites_and_associators_follow_the_product_walk(self, window):
        # order included: the tables come in construction order, not sorted
        cells, associators = oracles.brute_window_cells(window)
        assert list(window.compose_cells) == list(cells)
        for key, (dom, cod) in cells.items():
            composite = window.compose_cells[key]
            G = window.groupoid_of_cell(composite)
            assert (G.src(composite), G.tgt(composite)) == (dom, cod)
        assert list(window.associators) == list(associators)


class TestTruncation:
    def test_collar_width_does_not_split_classes(self):
        S = PointedObject(chain_poset("a0", "b0"), {"a0"})
        M = chain_poset("a", "b", "c")
        narrow = Bordism(
            (S,), point("c"), M,
            (CausalEmbedding(S.carrier.induced({"a0"}), M, {"a0": "a"}),),
            CausalEmbedding(point("c").carrier, M, {"c": "c"}),
        )
        wide = Bordism(
            (S,), point("c"), M,
            (CausalEmbedding(S.carrier, M, {"a0": "a", "b0": "b"}),),
            CausalEmbedding(point("c").carrier, M, {"c": "c"}),
        )
        assert len(globular_cells_between(narrow, wide)) == 1
        frag = bordism_fragment([narrow, wide], depth=1,
                                max_ops=128, max_cells=8192)
        collapsed = tau_full(frag)
        assert collapsed.class_of[narrow] is collapsed.class_of[wide]

    def test_distinct_surface_configurations_stay_distinct(self):
        pair = PointedObject(CausalSet("sy", []), {"s", "y"})
        u = unit_bordism(pair)
        swap = Bordism(
            (pair,), pair, pair.carrier,
            (CausalEmbedding(pair.carrier, pair.carrier, {"s": "y", "y": "s"}),),
            CausalEmbedding.identity(pair.carrier),
        )
        frag = bordism_fragment([swap], depth=1, max_ops=64, max_cells=4096)
        collapsed = tau_full(frag)
        assert collapsed.class_of[u] is not collapsed.class_of[swap]

    def test_units_collapse_onto_operad_units(self):
        frag = bordism_fragment([chain_bordism("a", "b")], depth=1)
        collapsed = tau_full(frag)
        for color in frag.objects.objects:
            token = collapsed.class_of[unit_bordism(color)]
            assert collapsed.operad.unit(color) == token

    def test_linked_inners_give_linked_composites(self):
        S = PointedObject(chain_poset("a0", "b0"), {"a0"})
        M = chain_poset("a", "b", "c")
        narrow = Bordism(
            (S,), point("c"), M,
            (CausalEmbedding(S.carrier.induced({"a0"}), M, {"a0": "a"}),),
            CausalEmbedding(point("c").carrier, M, {"c": "c"}),
        )
        wide = Bordism(
            (S,), point("c"), M,
            (CausalEmbedding(S.carrier, M, {"a0": "a", "b0": "b"}),),
            CausalEmbedding(point("c").carrier, M, {"c": "c"}),
        )
        outer = chain_bordism("c", "d")
        one = compose_bordisms(outer, (narrow,))
        two = compose_bordisms(outer, (wide,))
        assert one != two
        assert len(globular_cells_between(one, two)) == 1

    def test_classes_are_the_components_of_the_globular_cells(self, window):
        links = [(G.src(c), G.tgt(c)) for G in window.op_groupoids.values()
                 for c in G.morphisms if window.is_globular(c)]
        least = brute_least_representatives(window.all_ops(), links, str)
        collapsed = tau_full(window)
        for op in window.all_ops():
            token = collapsed.class_of[op]
            assert token.rep == least[op]
            assert token.members == {x for x, rep in least.items() if rep == least[op]}

    def test_acting_on_a_fresh_class_runs_the_window_action_hook(self):
        frag = bordism_fragment([chain_bordism("a", "b", "c")], depth=1)
        hook, ran = frag.act_op_fn, []
        frag.act_op_fn = lambda op, sigma: ran.append((op, sigma)) or hook(op, sigma)
        T = truncate_bordisms(frag)
        composites = (T.compose(outer, inners) for outer in T.operations
                      for inners in T.composable_inner_tuples(outer))
        # the first composite of two classes that lies outside the window
        fresh = next(c for c in composites if c not in T.operations)
        assert fresh.members == {fresh.rep}
        assert fresh.rep not in frag.all_ops()
        sigma = tuple(range(len(fresh.inputs)))
        acted = T.act(fresh, sigma)
        assert ran == [(fresh.rep, sigma)]
        assert acted.rep == permute_bordism(fresh.rep, sigma)
