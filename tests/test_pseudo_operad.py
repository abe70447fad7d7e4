"""Pseudo-operads: fattening, companions, truncation, the strict adjunction."""

import functools
import hashlib
import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalops import CausalSet, NotFibrant
from causalops.bordism import (
    PointedObject,
    bordism_fragment,
    identity_cell,
    truncate_bordisms,
)
from causalops.causal_core import CausalEmbedding
from causalops.operad_kernel import (
    FiniteGroupoid,
    Operad,
    check_operad_axioms,
    enumerate_embeddings,
    prefactorization_operad,
)
from causalops.pseudo_operad import (
    PseudoOperadData,
    Square,
    TauOperation,
    _fatten,
    check_pseudo_operad,
    find_companion,
    iota,
    tau,
    tau_full,
)
from causalops.qft_models import Monoid, MonoidHom
from causalops.report import PASS
import oracles
from test_bordism import adjunction_report, chain_bordism, merge_bordism, point
from test_operad_kernel import (
    Operation,
    ROT0,
    ROT1,
    broken_unit_operad,
    commutative_fold_operad,
    cyclic_group_operad,
)


class TestIota:
    def test_group_operad_fattens_to_eight_squares(self):
        P = iota(cyclic_group_operad())
        assert len(P.objects.morphisms) == 2  # both unaries are invertible
        assert len(P.all_cells(1)) == 8
        report = check_pseudo_operad(P)
        assert report.ok, report.failures

    def test_fold_operad_fattens_cleanly(self):
        P = iota(commutative_fold_operad())
        report = check_pseudo_operad(P)
        assert report.ok, report.failures
        # pentagon and triangle instances actually ran
        by_check = {e.check: e for e in report.entries}
        assert by_check["pseudo-operad/pentagon"].witness["instances-checked"] > 0
        assert by_check["pseudo-operad/triangle"].witness["instances-checked"] > 0

    def test_prefactorization_fragment_fattens_cleanly(self):
        pt = CausalSet("p", [])
        V = CausalSet("bc", [])
        P = iota(prefactorization_operad([pt, V], max_arity=2))
        report = check_pseudo_operad(P)
        assert report.ok, report.failures

    @staticmethod
    def corrupted_associator() -> PseudoOperadData:
        P = iota(cyclic_group_operad())
        key = next(iter(P.associators))
        cells = [c for c in P.all_cells(1) if c.dom != c.cod]
        P.associators[key] = cells[0]  # wrong endpoints, not even globular
        return P

    def test_corrupted_associator_is_caught(self):
        report = check_pseudo_operad(self.corrupted_associator())
        assert not report.ok

    def test_failing_report_is_pinned(self):
        report = check_pseudo_operad(self.corrupted_associator())
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == "4f8fad2bfd7f683a40957b0d22ec084df845e2befa01b31e3d2fdc9b9fa6a969"


def assert_iota_matches_brute_walk(O) -> None:
    """iota's composites are those of O, and its cell composites and
    associators, order included, are the product walk's over its tables."""
    P = iota(O)
    assert list(P.compose_ops.items()) == list(oracles.brute_composites(O).items())
    cells, associators = oracles.brute_window_cells(P)
    assert [(key, (c.dom, c.cod, c.legs, c.out)) for key, c in P.compose_cells.items()] == [
        ((alpha, betas), (dom, cod, tuple(g for b in betas for g in b.legs), alpha.out))
        for (alpha, betas), (dom, cod) in cells.items()
    ]
    identities = [
        (key, (t, t, tuple(O.unit(c) for c in t.inputs), O.unit(t.output)))
        for key, t in associators.items()
    ]
    assert [(key, (a.dom, a.cod, a.legs, a.out)) for key, a in P.associators.items()] \
        == identities


@st.composite
def small_prefactorization_operad(draw):
    """A random poset of at most 4 events and up to two of its convex regions.

    Every color has at most two automorphisms: the cells of ``iota`` grow
    with the automorphisms of the colors, and the 4-event antichain alone
    fattens to about 8 million cell composites.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=4))
    events, relations = oracles.random_poset_data(rng, n, rng.choice([0.15, 0.3, 0.5]))
    M = CausalSet(events, relations)
    P = oracles.OraclePoset.build(events, relations)
    regions = [
        set(r) for k in range(1, n) for r in itertools.combinations(events, k)
        if oracles.brute_convex(P, set(r))
    ]
    picked = rng.sample(regions, min(len(regions), draw(st.integers(0, 2))))
    colors = [M] + [M.induced(r) for r in picked]
    assume(all(len(list(enumerate_embeddings(C, C))) <= 2 for C in colors))
    return prefactorization_operad(colors, max_arity=2)


class TestIotaJoin:
    @pytest.mark.parametrize("factory", [
        cyclic_group_operad,
        commutative_fold_operad,
        lambda: prefactorization_operad(
            [CausalSet("p", []), CausalSet("bc", [])], max_arity=2
        ),
    ])
    def test_fixture_operads_match_the_product_walk(self, factory):
        assert_iota_matches_brute_walk(factory())

    def test_merge_fragment_matches_the_product_walk(self):
        frag = bordism_fragment([merge_bordism()], depth=1, max_ops=128, max_cells=8192)
        assert_iota_matches_brute_walk(truncate_bordisms(frag))

    def test_chain_fragment_matches_the_product_walk(self):
        frag = bordism_fragment([chain_bordism("a", "b", "c")], depth=2,
                                max_ops=64, max_cells=4096)
        assert_iota_matches_brute_walk(truncate_bordisms(frag))

    @given(small_prefactorization_operad())
    @settings(max_examples=100, deadline=None)
    def test_random_prefactorization_operads_match_the_product_walk(self, O):
        assert_iota_matches_brute_walk(O)


def groupoid_values(G: FiniteGroupoid) -> tuple:
    """A groupoid's objects, morphisms, ends, identities, inverses and
    composites of composable pairs, as values in tuple order."""
    return (
        G.objects, G.morphisms,
        [(G.src(m), G.tgt(m), G.inv(m)) for m in G.morphisms],
        [G.id(obj) for obj in G.objects],
        [(f, g, G.compose(g, f)) for f in G.morphisms for g in G.morphisms
         if G.src(g) == G.tgt(f)],
    )


def assert_fatten_is_a_part_of_iota(O) -> tuple[int, int]:
    """Each table that _fatten(O) fills is iota(O)'s, order included, but the
    cell composites, which are the prefix of iota's whose outer cells have
    arity at most 1; the cell actions and associators are left empty.
    Returns the counts of _fatten's and of iota's cell composites."""
    part, full = _fatten(O), iota(O)
    assert groupoid_values(part.objects) == groupoid_values(full.objects)
    assert part.arities() == full.arities()
    for n in full.arities():
        assert groupoid_values(part.op_groupoids[n]) == groupoid_values(full.op_groupoids[n])
    for table in ("op_inputs", "op_output", "cell_inputs", "cell_output", "compose_ops",
                  "unit_ops", "unit_cells", "act_ops", "left_unitors", "right_unitors"):
        assert list(getattr(part, table).items()) == list(getattr(full, table).items()), table
    assert (part.name, part.op_link_fn) == (full.name, full.op_link_fn)
    assert (part.act_cells, part.associators) == ({}, {})
    composites = list(full.compose_cells.items())
    k = len(part.compose_cells)
    assert list(part.compose_cells.items()) == composites[:k]
    assert all(len(alpha.legs) <= 1 for (alpha, _), _ in composites[:k])
    assert all(len(alpha.legs) >= 2 for (alpha, _), _ in composites[k:])
    return k, len(composites)


class TestFatten:
    @pytest.mark.parametrize("factory", [
        cyclic_group_operad,
        commutative_fold_operad,
        lambda: prefactorization_operad(
            [CausalSet("p", []), CausalSet("bc", [])], max_arity=2
        ),
    ])
    def test_fixture_operads_fatten_to_a_part_of_iota(self, factory):
        assert_fatten_is_a_part_of_iota(factory())

    def test_merge_fragment_fattens_to_a_part_of_iota(self):
        frag = bordism_fragment([merge_bordism()], depth=1, max_ops=128, max_cells=8192)
        part, full = assert_fatten_is_a_part_of_iota(truncate_bordisms(frag))
        assert 0 < part < full  # both walks compose cells

    def test_chain_fragment_fattens_to_a_part_of_iota(self):
        frag = bordism_fragment([chain_bordism("a", "b", "c")], depth=2,
                                max_ops=64, max_cells=4096)
        assert_fatten_is_a_part_of_iota(truncate_bordisms(frag))

    @given(small_prefactorization_operad())
    @settings(max_examples=100, deadline=None)
    def test_random_prefactorization_operads_fatten_to_a_part_of_iota(self, O):
        assert_fatten_is_a_part_of_iota(O)


class TestCellIndex:
    def test_a_swapped_groupoid_is_noticed(self):
        P = iota(cyclic_group_operad())
        old = P.op_groupoids[1]
        cell = next(c for c in old.morphisms if c.dom != c.cod)
        assert P.groupoid_of_cell(cell) is old
        # same cells in a new object: the index must follow the swap
        same = FiniteGroupoid(
            old.objects, old.morphisms,
            {c: old.src(c) for c in old.morphisms},
            {c: old.tgt(c) for c in old.morphisms},
            old.compose, {op: old.id(op) for op in old.objects}, old.inv,
        )
        P.op_groupoids[1] = same
        assert P.groupoid_of_cell(cell) is same
        # fewer cells: the dropped one belongs nowhere any more
        kept = [old.id(op) for op in old.objects]
        P.op_groupoids[1] = FiniteGroupoid(
            old.objects, kept,
            {c: old.src(c) for c in kept}, {c: old.tgt(c) for c in kept},
            old.compose, {op: old.id(op) for op in old.objects}, old.inv,
        )
        with pytest.raises(ValueError, match="belongs to no operation groupoid"):
            P.groupoid_of_cell(cell)

    def test_only_listed_cells_are_found_and_the_last_arity_wins(self):
        P = iota(cyclic_group_operad())
        old = P.op_groupoids[1]
        cell = next(c for c in old.morphisms if c.dom != c.cod)
        # numbered the way a composite outside the morphisms is, but not listed
        old.numbers.number("numbered-only")
        with pytest.raises(ValueError, match="numbered-only belongs to no operation groupoid"):
            P.groupoid_of_cell("numbered-only")
        twin = FiniteGroupoid(
            old.objects, old.morphisms,
            {c: old.src(c) for c in old.morphisms},
            {c: old.tgt(c) for c in old.morphisms},
            old.compose, {op: old.id(op) for op in old.objects}, old.inv,
        )
        P.op_groupoids[2] = twin
        assert P.groupoid_of_cell(cell) is twin

    def test_an_unknown_cell_is_refused(self):
        P = iota(cyclic_group_operad())
        with pytest.raises(ValueError, match="cell nowhere belongs to no operation groupoid"):
            P.groupoid_of_cell("nowhere")


def _twice(build):
    return build, build


def _map_parts():
    return CausalSet("a"), CausalSet("ab", [("a", "b")]), {"a": "b"}


# two builders per hashed value class whose values are equal but built
# separately; the first CausalSet and MonoidHom builders bypass __init__
EQUAL_VALUES = {
    "CausalSet": (lambda: CausalSet("abc", [("a", "b"), ("b", "c")]).induced({"a", "b"}),
                  lambda: CausalSet("ab", [("a", "b")])),
    "CausalEmbedding": _twice(lambda: CausalEmbedding(*_map_parts())),
    "PointedObject": _twice(lambda: point("a")),
    "Germ": _twice(lambda: identity_cell(point("a").unit)),  # a cell of a unit bordism
    "Bordism": _twice(lambda: chain_bordism("a", "b")),
    "TwoCell": _twice(lambda: identity_cell(chain_bordism("a", "b"))),
    "Monoid": (lambda: Monoid.cyclic(2),
               lambda: Monoid((1, 0), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, 0)),
    "MonoidHom": (lambda: MonoidHom.unchecked((Monoid.cyclic(2),), Monoid.cyclic(2),
                                              {(0,): 0, (1,): 1}),
                  lambda: MonoidHom((Monoid.cyclic(2),), Monoid.cyclic(2),
                                    {(0,): 0, (1,): 1})),
}


class TestTokenHashes:
    @pytest.mark.parametrize("name", sorted(EQUAL_VALUES))
    def test_equal_values_hash_equally(self, name):
        build_a, build_b = EQUAL_VALUES[name]
        a, b = build_a(), build_b()
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert {a: name}[b] == name and {b: name}[a] == name

    def test_equal_squares_hash_equally(self):
        O = cyclic_group_operad()
        u, f = O.ops(1)
        a = Square(u, f, (f,), f)
        b = Square(u, f, (f,), f)
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert {a: "cell"}[b] == "cell"
        assert hash(a) != hash(Square(f, u, (f,), f))

    def test_equal_tau_operations_hash_equally(self):
        a = TauOperation("f1", frozenset({"f1", "f2"}), ("c",), "c")
        b = TauOperation("f1", frozenset({"f2", "f1"}), ("c",), "c")
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert {a: "class"}[b] == "class"


class TestCompanions:
    def test_every_vertical_of_a_fattened_operad_is_its_own_companion(self):
        O = cyclic_group_operad()
        P = iota(O)
        for g in P.objects.morphisms:
            comp = find_companion(P, g)
            assert comp.op == g
            assert P.cell_inputs[comp.unit_binding] == (g,)
            assert P.cell_output[comp.counit_binding] == g

    @pytest.mark.parametrize("table", ["left_unitors", "right_unitors", "compose_cells"])
    def test_a_companion_needs_its_recorded_unitors_and_zigzag(self, table):
        P = iota(cyclic_group_operad())
        g = next(v for v in P.objects.morphisms if not P.is_identity_vertical(v))
        # a candidate whose unitors or zigzag composite the window lacks is
        # no companion
        getattr(P, table).clear()
        with pytest.raises(NotFibrant, match=re.escape(f"no companion found for vertical {g}")):
            find_companion(P, g)

    def test_missing_horizontal_lift_raises_not_fibrant(self):
        objects = FiniteGroupoid(
            ["c", "d"], ["idc", "idd", "g", "ginv"],
            {"idc": "c", "idd": "d", "g": "c", "ginv": "d"},
            {"idc": "c", "idd": "d", "g": "d", "ginv": "c"},
            {
                ("idc", "idc"): "idc", ("g", "idc"): "g",
                ("idd", "g"): "g", ("ginv", "g"): "idc",
                ("idd", "idd"): "idd", ("ginv", "idd"): "ginv",
                ("idc", "ginv"): "ginv", ("g", "ginv"): "idd",
            },
            {"c": "idc", "d": "idd"},
            {"idc": "idc", "idd": "idd", "g": "ginv", "ginv": "g"},
        )
        ops1 = FiniteGroupoid(
            ["uc", "ud"], ["iuc", "iud", "ug", "uginv"],
            {"iuc": "uc", "iud": "ud", "ug": "uc", "uginv": "ud"},
            {"iuc": "uc", "iud": "ud", "ug": "ud", "uginv": "uc"},
            {
                ("iuc", "iuc"): "iuc", ("ug", "iuc"): "ug",
                ("iud", "ug"): "ug", ("uginv", "ug"): "iuc",
                ("iud", "iud"): "iud", ("uginv", "iud"): "uginv",
                ("iuc", "uginv"): "uginv", ("ug", "uginv"): "iud",
            },
            {"uc": "iuc", "ud": "iud"},
            {"iuc": "iuc", "iud": "iud", "ug": "uginv", "uginv": "ug"},
        )
        P = PseudoOperadData(
            objects=objects,
            op_groupoids={1: ops1},
            op_inputs={"uc": ("c",), "ud": ("d",)},
            op_output={"uc": "c", "ud": "d"},
            cell_inputs={"iuc": ("idc",), "iud": ("idd",), "ug": ("g",), "uginv": ("ginv",)},
            cell_output={"iuc": "idc", "iud": "idd", "ug": "g", "uginv": "ginv"},
            compose_ops={("uc", ("uc",)): "uc", ("ud", ("ud",)): "ud"},
            compose_cells={},
            unit_ops={"c": "uc", "d": "ud"},
            unit_cells={"idc": "iuc", "idd": "iud", "g": "ug", "ginv": "uginv"},
            act_ops={("uc", (0,)): "uc", ("ud", (0,)): "ud"},
            act_cells={},
            left_unitors={"uc": "iuc", "ud": "iud"},
            right_unitors={"uc": "iuc", "ud": "iud"},
            name="two-colors-no-lift",
        )
        assert check_pseudo_operad(P).ok
        with pytest.raises(NotFibrant):
            find_companion(P, "g")


def quotient_example() -> PseudoOperadData:
    """Three unaries over one color, two of them joined by a globular cell."""
    objects = FiniteGroupoid(
        ["c"], ["idc"], {"idc": "c"}, {"idc": "c"},
        {("idc", "idc"): "idc"}, {"c": "idc"}, {"idc": "idc"},
    )
    cells = ["iu", "if1", "if2", "al", "al_inv"]
    ops1 = FiniteGroupoid(
        ["u", "f1", "f2"], cells,
        {"iu": "u", "if1": "f1", "if2": "f2", "al": "f1", "al_inv": "f2"},
        {"iu": "u", "if1": "f1", "if2": "f2", "al": "f2", "al_inv": "f1"},
        {
            ("iu", "iu"): "iu", ("if1", "if1"): "if1", ("if2", "if2"): "if2",
            ("al", "if1"): "al", ("if2", "al"): "al",
            ("al_inv", "al"): "if1", ("al", "al_inv"): "if2",
            ("al_inv", "if2"): "al_inv", ("if1", "al_inv"): "al_inv",
        },
        {"u": "iu", "f1": "if1", "f2": "if2"},
        {"iu": "iu", "if1": "if1", "if2": "if2", "al": "al_inv", "al_inv": "al"},
    )
    ident = ("idc",)
    return PseudoOperadData(
        objects=objects,
        op_groupoids={1: ops1},
        op_inputs={"u": ("c",), "f1": ("c",), "f2": ("c",)},
        op_output={"u": "c", "f1": "c", "f2": "c"},
        cell_inputs={c: ident for c in cells},
        cell_output={c: "idc" for c in cells},
        compose_ops={
            ("u", ("u",)): "u", ("u", ("f1",)): "f1", ("u", ("f2",)): "f2",
            ("f1", ("u",)): "f1", ("f2", ("u",)): "f2",
            ("f1", ("f1",)): "u", ("f1", ("f2",)): "u",
            ("f2", ("f1",)): "u", ("f2", ("f2",)): "u",
        },
        compose_cells={("iu", ("iu",)): "iu"},
        unit_ops={"c": "u"},
        unit_cells={"idc": "iu"},
        act_ops={("u", (0,)): "u", ("f1", (0,)): "f1", ("f2", (0,)): "f2"},
        act_cells={},
        left_unitors={"u": "iu", "f1": "if1", "f2": "if2"},
        right_unitors={"u": "iu", "f1": "if1", "f2": "if2"},
        name="quotient-example",
    )


class TestTau:
    def test_collapsing_a_fattened_operad_reuses_tokens(self):
        O = cyclic_group_operad()
        result = tau_full(iota(O))
        assert result.token_reuse
        assert set(result.operad.operations) == set(O.operations)

    def test_globular_cells_merge_operations(self):
        P = quotient_example()
        assert check_pseudo_operad(P).ok
        result = tau_full(P)
        assert not result.token_reuse
        assert result.class_of["f1"] == result.class_of["f2"]
        assert result.class_of["u"] != result.class_of["f1"]
        T = result.operad
        assert len(T.operations) == 2
        f_class = result.class_of["f1"]
        assert f_class.rep == "f1"  # lexicographically least member
        assert T.compose(f_class, (f_class,)) == result.class_of["u"]

    def test_tau_returns_a_plain_operad(self):
        T = tau(quotient_example())
        assert {str(op) for op in T.operations} == {"[f1]", "[u]"}


class TestTwoAdjunction:
    @pytest.mark.parametrize("factory", [
        cyclic_group_operad,
        commutative_fold_operad,
        lambda: prefactorization_operad(
            [CausalSet("p", []), CausalSet("bc", [])], max_arity=2
        ),
    ])
    def test_adjunction_identities_hold(self, factory):
        O = factory()
        report = adjunction_report(O, iota(O))
        assert report.ok, report.failures

    def test_quotient_unit_is_strict(self):
        P = quotient_example()
        O = tau(P)
        report = adjunction_report(O, P)
        assert report.ok, report.failures

    def test_reports_on_the_chain_are_unchanged(self):
        # sha256 of Report.dumps() before the collapse of the fattened
        # operad was reused: once with P left out, once with P = iota(O)
        def chain_operad():
            return truncate_bordisms(bordism_fragment([chain_bordism("a", "b", "c")], depth=1))

        digest = "36f0e6197af66fc35c745f553b9a04565685df596bbe821f073fd274f879ae9d"
        O = chain_operad()
        alone = adjunction_report(O)
        assert hashlib.sha256(alone.dumps().encode()).hexdigest() == digest
        O = chain_operad()
        given = adjunction_report(O, iota(O))
        assert hashlib.sha256(given.dumps().encode()).hexdigest() == digest

    def test_a_unit_outside_the_window_fails_the_rows_that_collapse(self):
        P = iota(cyclic_group_operad())
        P.unit_ops["c"] = "stray-op"
        with pytest.raises(ValueError, match="^unit entry outside the window at c$"):
            tau(P)
        report = adjunction_report(tau(iota(cyclic_group_operad())), P)
        assert [(e.check, e.status, e.witness) for e in report.entries] == [
            ("two-adjunction/counit-identity", "pass", None),
            ("two-adjunction/unit-strict", "fail", ["unit entry outside the window at c"]),
            ("two-adjunction/unit-identity-on-iota", "pass", None),
            ("two-adjunction/tau-of-unit-identity", "fail", ["unit entry outside the window at c"]),
        ]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == \
            "fcf5c74ba1ec33e48bdcc3f51f1c8665c3cb2fcb5d4f19cb434e8ed489ff0c68"

    def test_a_fattening_that_does_not_collapse_fails_every_row(self):
        # rot0, the unit of c, is not listed, so iota's unit entry lies
        # outside its window and every row needs the collapse that fails
        report = adjunction_report(cyclic_group_operad(listed=(ROT1,)))
        why = "unit entry outside the window at c"
        assert [(e.check, e.status, e.witness) for e in report.entries] == [
            ("two-adjunction/counit-identity", "fail", why),
            ("two-adjunction/unit-strict", "fail", [why]),
            ("two-adjunction/unit-identity-on-iota", "fail", [why]),
            ("two-adjunction/tau-of-unit-identity", "fail", [why]),
        ]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == \
            "424e429543204b22047003cfe57ed31391b72a42fa76b171015f00ef2a22bb9e"

    def test_an_absorbing_unit_fails_three_rows(self):
        report = adjunction_report(broken_unit_operad())
        assert [(e.check, e.status, e.witness) for e in report.entries] == [
            ("two-adjunction/counit-identity", "fail", "operation sets differ"),
            ("two-adjunction/unit-strict", "fail", ["no companion found for vertical f:(c)->c"]),
            ("two-adjunction/unit-identity-on-iota", "fail",
             ["fattened operad has non-singleton classes"]),
            ("two-adjunction/tau-of-unit-identity", "pass", None),
        ]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == \
            "bd63023073191b3ba1e0ba574baf55723012dc53adfd0c96a6775e8e02b51d49"

    @staticmethod
    def signature_breaking_fold() -> Operad:
        """The fold operad up to arity 2 whose m2 of two m2s is m2 itself, a
        result of arity 2 where the flattened signature has arity 3."""
        O = commutative_fold_operad(2)
        m2 = O.ops(2)[0]

        def rule(outer, inners):
            return m2 if (outer, inners) == (m2, (m2, m2)) else O.compose(outer, inners)

        return Operad(O.colors, O.operations, {c: O.unit(c) for c in O.colors}, rule, O.act,
                      name="fold-broken")

    def test_a_composite_of_the_wrong_signature_fails_the_operad_laws(self):
        # no window operation has the signature (c,c,c)->c, so the adjunction
        # never composes that tuple and audits its window cleanly; the
        # broken composite is the operad audit's to find
        why = ["composition rule broke the signature at m2:(c,c)->c"]
        axioms = check_operad_axioms(self.signature_breaking_fold())
        assert [(e.check, e.witness) for e in axioms.failures] == [
            ("operad/associativity", why), ("operad/equivariance", why),
        ]
        assert hashlib.sha256(axioms.dumps().encode()).hexdigest() == \
            "5ca9bad0cc9488f848030aabedcc59667a5c947a4cd2051f86925677c2864576"
        adjunction = adjunction_report(self.signature_breaking_fold())
        assert [(e.status, e.witness) for e in adjunction.entries] == [(PASS, None)] * 4
        assert hashlib.sha256(adjunction.dumps().encode()).hexdigest() == \
            "3767afeb4f9a72a037b878b82399b5f2f85f737fe90987f59c5f9fd7e1ae0d3e"

    @staticmethod
    def quotient_with(key, value) -> tuple[Operad, PseudoOperadData]:
        P = quotient_example()
        P.compose_ops[key] = value
        return tau(quotient_example()), P

    @staticmethod
    def group_with_cell_output(cell, value) -> tuple[Operad, PseudoOperadData]:
        P = iota(cyclic_group_operad())
        P.cell_output[cell] = value
        return cyclic_group_operad(), P

    @staticmethod
    def no_listed_identity() -> tuple[Operad, PseudoOperadData]:
        """One color and its unit rot0, with no vertical listed, not even the
        identity of the color, and so no cell."""
        P = PseudoOperadData(
            objects=FiniteGroupoid(["c"], [], {}, {}, {}, {"c": ROT0}, {}),
            op_groupoids={1: FiniteGroupoid([ROT0], [], {}, {}, {}, {ROT0: "i"}, {})},
            op_inputs={ROT0: ("c",)}, op_output={ROT0: "c"}, cell_inputs={}, cell_output={},
            compose_ops={(ROT0, (ROT0,)): ROT0}, compose_cells={}, unit_ops={"c": ROT0},
            unit_cells={}, act_ops={(ROT0, (0,)): ROT0}, act_cells={}, name="no-identity")
        return cyclic_group_operad(listed=(ROT0,)), P

    @staticmethod
    def left_zeros_with_a_unit_that_moves_a() -> tuple[Operad, PseudoOperadData]:
        """The monoid of two left zeros a, b and a unit u, fattened; then a
        after u and u after a both read b.  Each identity square still maps
        to a square, but the collapse breaks the unit law at a, so its
        fattening has the globular square a => b."""
        U, A, B = (Operation(n, ("c",), "c") for n in "uab")

        def left_zeros() -> Operad:
            table = {(x, (y,)): y if x == U else x for x in (U, A, B) for y in (U, A, B)}
            return Operad(["c"], [U, A, B], {"c": U}, table,
                          {(x, (0,)): x for x in (U, A, B)}, name="left-zeros")

        P = iota(left_zeros())
        P.compose_ops[(A, (U,))] = P.compose_ops[(U, (A,))] = B
        return left_zeros(), P

    # the smallest corrupted window found for each failure text of the
    # two unit rows that no other test reaches; each fails exactly its row
    @pytest.mark.parametrize("build, row, witness, digest", [
        pytest.param(lambda: TestTwoAdjunction.quotient_with(("u", ("u",)), "f1"),
                     "two-adjunction/unit-strict",
                     ["unit not functorial on verticals at idc . idc"],
                     "5cb6aba3ccfb2597633bec934b6dac2c000c4b39e153841b4948725804f5dfe7",
                     id="functoriality"),
        pytest.param(no_listed_identity, "two-adjunction/unit-strict",
                     ["unit of c not sent to unit class"],
                     "5a0e39b86922133cc64b97a86b2cf3ab9f9ae546403ee9d40586a3f0cf0a3f35",
                     id="unit-class"),
        # u after f2, where f1 names the class of f2
        pytest.param(lambda: TestTwoAdjunction.quotient_with(("u", ("f2",)), "u"),
                     "two-adjunction/unit-strict", ["unit breaks composition at u"],
                     "a060ebab32ed4e9e1a0d5d5ed72b4977463afa3eec03bd54a46bb2b087fab067",
                     id="composition"),
        pytest.param(lambda: TestTwoAdjunction.group_with_cell_output(
                         Square(ROT0, ROT0, (ROT1,), ROT1), ROT0),
                     "two-adjunction/unit-strict",
                     ["cell image not a square at "
                      "Sq[rot0:(c)->c=>rot0:(c)->c|(rot1:(c)->c);rot1:(c)->c]"],
                     "b1e5fec4f38d2a3b45c857e7c7a4eb2ccb2e5044635035659167f6467667457d",
                     id="square"),
        pytest.param(left_zeros_with_a_unit_that_moves_a, "two-adjunction/tau-of-unit-identity",
                     ["collapse of refattened operad has non-singleton classes"],
                     "3aeccd24eeec78ba9b816bbff345315f36eeda01a02752b92b6a9007269a054c",
                     id="tau-of-unit"),
    ])
    def test_a_corrupted_window_fails_exactly_its_unit_row(self, build, row, witness, digest):
        O, P = build()
        report = adjunction_report(O, P)
        assert [(e.check, e.witness) for e in report.entries if e.status != PASS] == \
            [(row, witness)]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == digest

    # a leg or an output that names no listed vertical fails the unit row
    # with the text of the audit's boundaries row, instead of a KeyError
    @pytest.mark.parametrize("table, value", [("cell_inputs", ("stray",)),
                                              ("cell_output", "stray")], ids=["leg", "output"])
    def test_a_cell_on_an_unlisted_vertical_fails_the_unit_row(self, table, value):
        cell = Square(ROT0, ROT0, (ROT1,), ROT1)
        P = iota(cyclic_group_operad())
        getattr(P, table)[cell] = value
        why = [f"unknown vertical at {cell}"]
        audit = check_pseudo_operad(P)
        assert next(e.witness for e in audit.failures if e.check == "pseudo-operad/boundaries") \
            == why
        report = adjunction_report(cyclic_group_operad(), P)
        assert [(e.check, e.witness) for e in report.entries if e.status != PASS] == \
            [("two-adjunction/unit-strict", why)]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == \
            "08b060e6e1a76d874b8fe3d73dcf3134e8ad3074a8eae8aea55d1fe12e6bc3d4"

    # a composite entry that names an operation outside the window, or a cell
    # with no boundary entry, fails both rows that read the collapse with the
    # text of the audit, instead of raising from inside the collapse
    @pytest.mark.parametrize("corrupt, why, digest", [
        pytest.param(lambda P: P.compose_ops.__setitem__((ROT0, (ROT0,)), "stray"),
                     "composite entry outside the window at rot0:(c)->c",
                     "89fb8c4e76f643c9484450a523f76401a95964b48658ac568203f34c4b2e834c",
                     id="value"),
        pytest.param(lambda P: P.compose_ops.__setitem__(("stray", (ROT0,)), ROT0),
                     "composite entry outside the window at stray",
                     "76d4be2055e64a118828046a783d8f40a5d639ef56aa669d89ae1369d56bf923",
                     id="outer"),
        pytest.param(lambda P: P.cell_inputs.__delitem__(Square(ROT0, ROT0, (ROT1,), ROT1)),
                     "boundary entry missing at "
                     "Sq[rot0:(c)->c=>rot0:(c)->c|(rot1:(c)->c);rot1:(c)->c]",
                     "9c96108b3174d94c72dc96bbb69b78d88954798d62a40cebaf47791b40acf9bb",
                     id="boundary"),
    ])
    def test_an_entry_outside_the_window_fails_the_unit_rows(self, corrupt, why, digest):
        P = iota(cyclic_group_operad())
        corrupt(P)
        audit = check_pseudo_operad(P)
        assert any(e.witness[0] == why for e in audit.failures)
        report = adjunction_report(cyclic_group_operad(), P)
        assert [(e.check, e.witness) for e in report.entries if e.status != PASS] == \
            [("two-adjunction/unit-strict", [why]),
             ("two-adjunction/tau-of-unit-identity", [why])]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == digest

    @given(small_prefactorization_operad())
    @settings(max_examples=100, deadline=None)
    def test_random_counit_rows_match_the_value_walk(self, O):
        adjunction_report(O)

    def test_reports_on_the_merge_fragment_are_unchanged(self):
        # sha256 of Report.dumps() before the window tables held one
        # instance per value
        frag = bordism_fragment([merge_bordism()], depth=1, max_ops=128, max_cells=8192)
        audit = check_pseudo_operad(frag)
        assert hashlib.sha256(audit.dumps().encode()).hexdigest() == \
            "8f304491843bd755a93c09175b9d04bcf153877d204d2830d54d122a9ee8e7ed"
        adjunction = adjunction_report(truncate_bordisms(frag), frag)
        assert hashlib.sha256(adjunction.dumps().encode()).hexdigest() == \
            "bff634585acae4b558991ea9db3d477c38fe79b5bb744eb6656eb933b7938d99"


# every fixture whose audit is compared with the value-level walk of
# oracles.oracle_pseudo_operad_report; the last one fails some rows
AUDITED = {
    "merge": lambda: bordism_fragment([merge_bordism()], depth=1, max_ops=128, max_cells=8192),
    "chain-depth-1": lambda: bordism_fragment([chain_bordism("a", "b", "c")], depth=1),
    "chain-depth-2": lambda: bordism_fragment([chain_bordism("a", "b", "c")], depth=2,
                                              max_ops=64, max_cells=4096),
    "antichain": lambda: bordism_fragment(
        [PointedObject(CausalSet("uv", []), {"u", "v"})], depth=1),
    "iota-cyclic": lambda: iota(cyclic_group_operad()),
    "iota-fold": lambda: iota(commutative_fold_operad()),
    "iota-prefactorization": lambda: iota(prefactorization_operad(
        [CausalSet("p", []), CausalSet("bc", [])], max_arity=2)),
    "quotient": quotient_example,
    "corrupted-associator": TestIota.corrupted_associator,
}


# the tables whose entries the one-entry replacements draw from; the keys
# of all but the per-cell tables (where a new key only drops a cell's entry)
# are replaced too
REPLACEABLE = ("compose_cells", "cell_output", "cell_inputs", "act_cells", "compose_ops",
               "unit_ops", "act_ops", "unit_cells", "associators", "left_unitors",
               "right_unitors")


def _rekeyed(data, P, table_name, key):
    """``key`` with one part replaced by a value of the window of the same
    kind, or by a fresh one that no window holds."""
    def pick(kind, values):
        return data.draw(st.sampled_from(values) | st.just(f"stray-{kind}"))

    def swap(parts: tuple, i: int, value) -> tuple:
        return parts[:i] + (value,) + parts[i + 1:]

    if table_name == "unit_ops":
        return pick("color", P.objects.objects)
    if table_name == "unit_cells":
        return pick("vertical", P.objects.morphisms)
    if table_name in ("left_unitors", "right_unitors"):
        return pick("op", P.all_ops())
    if table_name in ("cell_inputs", "cell_output"):
        return pick("cell", P.all_cells())
    kind, values = ("op", P.all_ops()) if table_name in ("compose_ops", "act_ops",
                                                           "associators") \
        else ("cell", P.all_cells())
    if table_name in ("act_ops", "act_cells"):
        # the acted-on value, or a permutation of any length up to three
        if data.draw(st.booleans()):
            return pick(kind, values), key[1]
        n = data.draw(st.integers(min_value=0, max_value=3))
        return key[0], tuple(data.draw(st.permutations(range(n))))
    if table_name in ("compose_ops", "compose_cells"):
        outer, inners = key
        i = data.draw(st.integers(min_value=-1, max_value=len(inners) - 1))
        value = pick(kind, values)
        return (value, inners) if i < 0 else (outer, swap(inners, i, value))
    # an associator's outer, middle or inner operation
    psi, phis, chis = key
    flat = (psi, *phis, *itertools.chain.from_iterable(chis))
    flat = swap(flat, data.draw(st.integers(min_value=0, max_value=len(flat) - 1)),
                pick(kind, values))
    inner = iter(flat[1 + len(phis):])
    return flat[0], flat[1:1 + len(phis)], tuple(
        tuple(itertools.islice(inner, len(chi))) for chi in chis)


def _outcome(audit, P):
    """The report bytes of ``audit(P)``, or the type and text of what it raised."""
    try:
        return audit(P).dumps()
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc)


@functools.cache
def _shared(name: str) -> PseudoOperadData:
    return AUDITED[name]()


class TestNumberedAudit:
    """The audit walks numbers; the oracle walks the same laws on values."""

    @pytest.mark.parametrize("name", list(AUDITED))
    def test_reports_match_the_value_walk(self, name):
        got = check_pseudo_operad(AUDITED[name]()).dumps()
        assert got == oracles.oracle_pseudo_operad_report(AUDITED[name]()).dumps()

    @pytest.mark.parametrize("name", ["chain-depth-1", "iota-cyclic", "quotient"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_replaced_key_fails_like_the_value_walk(self, name, data):
        P = _shared(name)
        table_name = data.draw(st.sampled_from([t for t in REPLACEABLE if getattr(P, t)]))
        table = getattr(P, table_name)
        saved = dict(table)
        key = data.draw(st.sampled_from(list(table)))
        # the entry moves to the new key, at the end of the table
        table[_rekeyed(data, P, table_name, key)] = table.pop(key)
        try:
            got = _outcome(check_pseudo_operad, P)
            want = _outcome(oracles.oracle_pseudo_operad_report, P)
        finally:
            table.clear()
            table.update(saved)
        assert isinstance(got, str), got
        assert got == want

    @pytest.mark.parametrize("name", ["chain-depth-1", "iota-cyclic", "quotient"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_replaced_entry_fails_like_the_value_walk(self, name, data):
        P = _shared(name)
        table_name = data.draw(st.sampled_from([
            t for t in REPLACEABLE if getattr(P, t)]))
        table = getattr(P, table_name)
        key = data.draw(st.sampled_from(list(table)))
        # a value of the window, or a fresh one that no window holds
        stray = st.just(f"stray-{table_name}")
        verticals = st.sampled_from(P.objects.morphisms) | stray
        if table_name == "cell_output":
            value = data.draw(verticals)
        elif table_name == "cell_inputs":
            value = tuple(data.draw(verticals) for _ in table[key])
        elif table_name in ("compose_ops", "unit_ops", "act_ops"):
            value = data.draw(st.sampled_from(P.all_ops()) | stray)
        else:
            value = data.draw(st.sampled_from(P.all_cells()) | stray)
        old = table[key]
        table[key] = value
        try:
            got = _outcome(check_pseudo_operad, P)
            want = _outcome(oracles.oracle_pseudo_operad_report, P)
        finally:
            table[key] = old
        assert isinstance(got, str), got
        assert got == want


class TestDanglingReferences:
    """A reference to nothing in the window fails a row; it does not crash the audit."""

    @staticmethod
    def digest(report) -> str:
        return hashlib.sha256(report.dumps().encode()).hexdigest()

    def test_a_cell_from_a_stray_operation_is_a_dangling_morphism(self):
        P = iota(cyclic_group_operad())
        old = P.op_groupoids[1]
        stray = next(c for c in old.morphisms if c.dom != c.cod)
        P.op_groupoids[1] = FiniteGroupoid(
            old.objects, old.morphisms,
            {c: "stray-op" if c == stray else old.src(c) for c in old.morphisms},
            {c: old.tgt(c) for c in old.morphisms},
            old.compose, {op: old.id(op) for op in old.objects}, old.inv,
        )
        report = check_pseudo_operad(P)
        rows = {(e.check, e.target): e for e in report.entries}
        row = rows[("groupoid/endpoints", f"{P.name}/ops[1]")]
        assert (row.status, row.witness) == ("fail", [f"dangling morphism {stray}"])
        assert self.digest(report) == \
            "1fd9d02fe03c885ae524822accdf0cc4f13b2a52e33a4dfa5993dea250ec8dcf"

    def test_an_input_outside_the_colors_fails_the_boundaries(self):
        P = iota(cyclic_group_operad())
        op = P.op_groupoids[1].objects[0]
        P.op_inputs[op] = ("stray-color",)
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        row = next(e for e in report.entries if e.check == "pseudo-operad/boundaries")
        assert row.witness[0] == f"unknown color at {op}"
        assert self.digest(report) == \
            "96ad65fc538f57b278bb2c43c80e35c02b8438b9536f38e602940708afcf04e6"

    def test_a_cell_with_too_few_legs_fails_the_boundaries(self):
        P = iota(cyclic_group_operad())
        cell = next(c for c in P.all_cells(1) if c.dom != c.cod)
        P.cell_inputs[cell] = ()
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        row = next(e for e in report.entries if e.check == "pseudo-operad/boundaries")
        assert row.witness == [f"leg count at {cell}"]
        assert self.digest(report) == \
            "95ecbbbbfadc2c8a7bec5830503cfaf9cf073ed44bfc2b81e392f78855b3ce15"

    def test_a_leg_outside_the_verticals_fails_the_boundaries(self):
        P = iota(cyclic_group_operad())
        cell = next(c for c in P.all_cells(1) if c.dom != c.cod)
        P.cell_inputs[cell] = ("stray-vertical",)
        report = check_pseudo_operad(P)
        row = next(e for e in report.entries if e.check == "pseudo-operad/boundaries")
        assert (row.status, row.witness) == ("fail", [f"unknown vertical at {cell}"])
        assert self.digest(report) == \
            "7dc53a0cf0543ecf6ee42f9326efbba2a74e72e34fef19977221ce774a505637"

    def test_a_leg_with_the_wrong_endpoints_fails_the_boundaries(self):
        P = AUDITED["chain-depth-1"]()
        G, V = P.op_groupoids[1], P.objects
        cell = P.all_cells(1)[0]
        leg = next(g for g in V.morphisms if V.src(g) != P.op_inputs[G.src(cell)][0])
        P.cell_inputs[cell] = (leg,)
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        row = next(e for e in report.entries if e.check == "pseudo-operad/boundaries")
        assert (row.status, row.witness) == ("fail", [f"leg 0 endpoints at {cell}"])
        assert self.digest(report) == \
            "e1c028dfec08631c587ba2ff9a9ec9e281114f51821993f60d26b7341ec80fc0"

    def test_a_cell_composite_outside_the_window_fails_the_interchange(self):
        P = iota(cyclic_group_operad())
        key = next(iter(P.compose_cells))
        P.compose_cells[key] = "stray-cell"
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        row = next(e for e in report.entries if e.check == "pseudo-operad/interchange")
        # the entry was the identity cells' composite, so that check fails too
        assert (row.status, row.witness) == ("fail", [
            f"cell composite entry outside the window at {key[0]}",
            f"identity cells compose wrong at {key[0].dom}"])
        assert self.digest(report) == \
            "246bfbd542c11d15fa9700d5f64275a3930dd516764a709121a2388da1c5e404"

    def test_a_cell_composite_key_outside_the_window_fails_the_interchange(self):
        P = iota(cyclic_group_operad())
        (_, betas), result = next(iter(P.compose_cells.items()))
        P.compose_cells[("stray-cell", betas)] = result
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        row = next(e for e in report.entries if e.check == "pseudo-operad/interchange")
        assert (row.status, row.witness) == \
            ("fail", ["cell composite entry outside the window at stray-cell"])
        assert self.digest(report) == \
            "8c10b494f6d9b315ce7b3107f873d0d9da327e480a2bc9d7fece7ef384bc1d89"

    def test_a_cell_action_outside_the_window_fails_the_action(self):
        P = iota(cyclic_group_operad())
        key = next(iter(P.act_cells))
        P.act_cells[key] = "stray-cell"
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        row = next(e for e in report.entries if e.check == "pseudo-operad/action")
        assert (row.status, row.witness) == \
            ("fail", [f"cell action entry outside the window at {key[0]}"])
        assert self.digest(report) == \
            "c9ac5a54da1afe3a5bdfa036746b0d36fd8627d7304889c0337e788d742cf832"

    def test_a_composite_outside_the_window_fails_the_signatures(self):
        P = iota(cyclic_group_operad())
        key = next(iter(P.compose_ops))
        P.compose_ops[key] = "stray-op"
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        row = next(e for e in report.entries if e.check == "pseudo-operad/compose-signatures")
        assert (row.status, row.witness) == \
            ("fail", [f"composite entry outside the window at {key[0]}"])
        assert self.digest(report) == \
            "6539be26bf79a83dfba2b44097bf94ff9d576b67377ed4e6f57e65e7477e702c"

    def test_an_operation_short_of_inputs_fails_the_boundaries(self):
        P = quotient_example()
        P.op_inputs["f1"] = ()
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        row = next(e for e in report.entries if e.check == "pseudo-operad/boundaries")
        assert (row.status, row.witness) == \
            ("fail", ["arity mismatch at f1", "leg 0 endpoints at if1", "leg 0 endpoints at al"])
        assert self.digest(report) == \
            "5e9ace160e9e73b95b1d8246276644e57f85c5b30f16fb16886875c41a12bc7f"
        # a unary operation left with no inputs still finds its identity cell
        # in the triangle, through the groupoid that holds it
        P = iota(cyclic_group_operad())
        P.op_inputs[P.all_ops(1)[0]] = ()
        assert check_pseudo_operad(P).dumps() == oracles.oracle_pseudo_operad_report(P).dumps()

    def test_a_unit_outside_the_operations_fails_the_units(self):
        P = iota(cyclic_group_operad())
        P.unit_ops["c"] = "stray-op"
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        # the unit cells end elsewhere, and the unitors find no padded composite
        assert [(e.check, e.witness) for e in report.failures] == [
            ("pseudo-operad/units", ["unit entry outside the window at c",
                                     "unit cell endpoints of rot0:(c)->c",
                                     "unit cell endpoints of rot1:(c)->c"]),
            ("pseudo-operad/coherence-boundaries",
             ["left unitor over missing composite at rot0:(c)->c",
              "left unitor over missing composite at rot1:(c)->c",
              "right unitor over missing composite at rot0:(c)->c"]),
        ]
        assert self.digest(report) == \
            "55f9b0d2570ec334a26e16d5ee632485e9777caf34169c9fe46a9a5bc381598b"

    def test_an_action_outside_the_operations_fails_the_action(self):
        P = iota(cyclic_group_operad())
        key = next(iter(P.act_ops))
        P.act_ops[key] = "stray-op"
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        row = next(e for e in report.entries if e.check == "pseudo-operad/action")
        assert row.witness[0] == f"action entry outside the window at {key[0]}"
        assert self.digest(report) == \
            "4fce11d866067af073e4469075dbe8f083eecebb328dd9e4f6ab19c932eca775"

    def test_a_composite_outside_the_window_compares_by_value(self):
        P = iota(cyclic_group_operad())
        old = P.op_groupoids[1]
        # an identity cell after itself is a value outside the window, with
        # endpoints, and so is any composite with such a value
        outside = {old.id(op): ("outside", old.id(op)) for op in old.objects}
        inside = {v: i for i, v in outside.items()}

        def compose(g, f):
            if g in inside or f in inside:
                return outside[inside.get(g, inside.get(f))]
            return outside[g] if g == f and g in outside else old.compose(g, f)

        def ends(end):
            return {**{c: end(c) for c in old.morphisms},
                    **{v: end(i) for i, v in outside.items()}}

        P.op_groupoids[1] = FiniteGroupoid(
            old.objects, old.morphisms, ends(old.src), ends(old.tgt), compose,
            {op: old.id(op) for op in old.objects}, old.inv)
        # one triangle finds the outside value recorded as its right side
        (psi, (phi,)), total = next(iter(P.compose_ops.items()))
        moving = next(c for c in old.morphisms if c not in outside)
        P.right_unitors[psi] = moving
        P.compose_cells[(moving, (old.id(phi),))] = ("outside", old.id(total))
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        rows = {e.check: e for e in report.entries}
        # the rot0 triangle holds by value; the rot1 ones compare an outside
        # value with a window cell; every pentagon composes an outside value
        assert (rows["pseudo-operad/triangle"].status, rows["pseudo-operad/triangle"].witness) \
            == ("fail", ["triangle at rot1:(c)->c", "triangle at rot1:(c)->c"])
        assert rows["pseudo-operad/pentagon"].witness == {"instances-checked": 0}
        assert self.digest(report) == \
            "6d4ccc230be6be6cc027bcf026d73bd5ff6d30c86c85a9dbd57259915dcbd990"
        # recorded as another value, the rot0 triangle fails too
        P.compose_cells[(moving, (old.id(phi),))] = ("outside", "elsewhere")
        row = next(e for e in check_pseudo_operad(P).entries if e.check == "pseudo-operad/triangle")
        assert row.witness == ["triangle at rot0:(c)->c"] + ["triangle at rot1:(c)->c"] * 2

    @pytest.mark.parametrize("table, check, text, digest", [
        ("unit_cells", "pseudo-operad/units", "unit cell entry outside the window at {}",
         "3c9633044cbac98bc4540578c00ecf79588e782ad67d464797b89aa11b02aad0"),
        ("associators", "pseudo-operad/coherence-boundaries",
         "associator entry outside the window at {}",
         "dc4b5fe97f2b0fca5d51113174eacce91c0ed6673e436ee3e59480bf913972f4"),
        ("left_unitors", "pseudo-operad/coherence-boundaries",
         "left unitor entry outside the window at {}",
         "6a93e5e2358580d49cfc368635593521dcbd1356ac830dfb0cd67455dc24703d"),
        ("right_unitors", "pseudo-operad/coherence-boundaries",
         "right unitor entry outside the window at {}",
         "0296b0c5455870f87e84ab4d7d6a46defc4c30c45d5b320b22580f1c422da69e"),
    ])
    def test_a_unit_or_coherence_cell_outside_the_window_fails_its_row(
            self, table, check, text, digest):
        P = iota(cyclic_group_operad())
        key = next(iter(getattr(P, table)))
        getattr(P, table)[key] = "stray-cell"
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        # the functoriality, triangle and pentagon walks leave the entry out
        assert [(e.check, e.witness) for e in report.failures] == \
            [(check, [text.format(key[0] if table == "associators" else key)])]
        assert self.digest(report) == digest

    # each entry moves to a key that names nothing in the window; "{}" is the
    # first part of its old key
    @pytest.mark.parametrize("table, rekey, failures, digest", [
        ("unit_cells", lambda key: "stray-vertical",
         [("pseudo-operad/units", ["unit cell entry outside the window at stray-vertical"])],
         "e2903a09d41c94fd371a91afa18387a015df47871e3fd3bba915e09ff4d896b7"),
        ("act_ops", lambda key: ("stray-op", key[1]),
         [("pseudo-operad/action", ["action entry outside the window at stray-op"])],
         "679ad84aece38cdc1fce8fc08e667581b271d831f218f6d5687b7e5374c13b14"),
        ("act_cells", lambda key: (key[0], (0, 1)),
         [("pseudo-operad/action", ["cell action signature at {}"])],
         "b6c6a2ae95053a41b70b086eb0ac967c2a7775af9691090f117ff642de002f25"),
        # the associators over the entry's old key find no composite
        ("compose_ops", lambda key: (key[0], ("stray-op",)),
         [("pseudo-operad/compose-signatures", ["composite entry outside the window at {}"]),
          ("pseudo-operad/coherence-boundaries",
           ["associator over missing composites at {}"] * 3)],
         "3727b640909adb939c15445621ad9aa06be5219376f5e113c4a74fbd05dd11fb"),
        ("left_unitors", lambda key: "stray-op",
         [("pseudo-operad/coherence-boundaries",
           ["left unitor entry outside the window at stray-op"])],
         "9f25494dec570cbe54eef15bde74be1218ecd38febaee109ffd5b43013959d9a"),
        ("right_unitors", lambda key: "stray-op",
         [("pseudo-operad/coherence-boundaries",
           ["right unitor entry outside the window at stray-op"])],
         "69818194f69e042ee971dea3f9353cb4ad5d19bee165955ec2774fa7271c5b92"),
        # the color c is left with no unit, so its unit cells end elsewhere
        # and its unitors find no padded composite
        ("unit_ops", lambda key: "stray-color",
         [("pseudo-operad/units", ["unit entry outside the window at stray-color",
                                   "unit cell endpoints of rot0:(c)->c",
                                   "unit cell endpoints of rot1:(c)->c"]),
          ("pseudo-operad/coherence-boundaries",
           ["left unitor over missing composite at rot0:(c)->c",
            "left unitor over missing composite at rot1:(c)->c",
            "right unitor over missing composite at rot0:(c)->c"])],
         "a72cd21df2eac152f6d366067d515f335264c33817be6764adea4cb3718b987d"),
    ])
    def test_a_key_outside_the_window_fails_its_row(self, table, rekey, failures, digest):
        P = iota(cyclic_group_operad())
        entries = getattr(P, table)
        key = next(iter(entries))
        entries[rekey(key)] = entries.pop(key)
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        # the walks leave the entry out
        head = key[0] if isinstance(key, tuple) else key
        assert [(e.check, e.witness) for e in report.failures] == \
            [(check, [text.format(head) for text in texts]) for check, texts in failures]
        assert self.digest(report) == digest

    @pytest.mark.parametrize("table, digest", [
        ("cell_inputs", "d7e0c374ce96c667914ee7deaf687c1a62c12c7d32fe035ec3b6b2747a8e790a"),
        ("cell_output", "5479e3a23669ed1562286fcea11d4ade0a9ee093ec8522e2d0fe06b6f98d0498"),
    ])
    def test_a_cell_with_no_boundary_entry_is_unsound(self, table, digest):
        P = iota(cyclic_group_operad())
        entries = getattr(P, table)
        cell = next(iter(entries))
        entries["stray-cell"] = entries.pop(cell)
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        row = next(e for e in report.entries if e.check == "pseudo-operad/boundaries")
        assert row.witness == [f"boundary entry missing at {cell}"]
        assert self.digest(report) == digest

    def test_a_groupoid_not_closed_under_composition_fails_its_laws(self):
        P = iota(cyclic_group_operad())
        old = P.op_groupoids[1]
        # each identity cell after itself is a value outside the window with
        # no endpoints, which composes with nothing
        identities = {old.id(op) for op in old.objects}

        def compose(g, f):
            return ("outside", g) if g == f and g in identities else old.compose(g, f)

        P.op_groupoids[1] = FiniteGroupoid(
            old.objects, old.morphisms, {c: old.src(c) for c in old.morphisms},
            {c: old.tgt(c) for c in old.morphisms}, compose,
            {op: old.id(op) for op in old.objects}, old.inv)
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        row = next(e for e in report.entries if e.check == "groupoid/laws"
                   and e.target == f"{P.name}/ops[1]")
        rot0 = old.id(P.all_ops(1)[0])
        assert (row.status, row.witness) == ("fail", [
            f"right identity at {rot0}", f"left identity at {rot0}", f"left inverse at {rot0}"])
        assert self.digest(report) == \
            "acb8fb11535c725c61dc6ff9fde21ecd63f3965936e3cd118466424a7bb7e0c5"

    def test_an_action_that_does_not_compose_fails_the_action(self):
        # the identity acts as rot1: equivariant on the group, but acting
        # twice is not acting once
        P = iota(cyclic_group_operad())
        P.act_ops[(ROT0, (0,))], P.act_ops[(ROT1, (0,))] = ROT1, ROT0
        report = check_pseudo_operad(P)
        assert report.dumps() == oracles.oracle_pseudo_operad_report(P).dumps()
        assert [(e.check, e.witness) for e in report.failures] == [("pseudo-operad/action", [
            "identity permutation moved rot0:(c)->c", "action composition at rot0:(c)->c",
            "identity permutation moved rot1:(c)->c"])]
        assert self.digest(report) == \
            "7d2d0c63fd8bff30d76d26ce604c0f3d7d8ab5210a65938381e4f4318613875d"
