"""Operad kernel: permutations, table operads, prefactorization, functors."""

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Hashable

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalops import CausalEmbedding, CausalSet, FragmentCapExceeded
from causalops.operad_kernel import (
    EmbeddingTuple,
    FiniteGroupoid,
    Multifunctor,
    MultinaturalTransformation,
    Numbering,
    Operad,
    _least_representatives,
    apply_permutation,
    block_permutation,
    check_multifunctor,
    check_multinatural,
    check_operad_axioms,
    compose_multifunctors,
    compose_permutations,
    enumerate_embeddings,
    identity_permutation,
    invert_permutation,
    prefactorization_operad,
    sum_permutation,
    vertical_compose,
)
from causalops.report import FAIL, PASS, SKIP

import oracles


@dataclass(frozen=True)
class Operation:
    """Opaque named operation of an explicitly tabulated operad."""

    name: str
    inputs: tuple[Hashable, ...]
    output: Hashable

    def __str__(self) -> str:
        ins = ",".join(str(c) for c in self.inputs)
        return f"{self.name}:({ins})->{self.output}"


st_perm = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.permutations(list(range(n)))
)


@st.composite
def graph_case(draw):
    """Up to 6 items in a drawn order, a drawn ranking of them as the key,
    and edges with repeats and reversed copies."""
    n = draw(st.integers(min_value=0, max_value=6))
    items = draw(st.permutations([f"x{i}" for i in range(n)]))
    rank = dict(zip(items, draw(st.permutations(range(n)))))
    if not items:
        return items, [], rank
    node = st.sampled_from(items)
    pairs = draw(st.lists(st.tuples(node, node), max_size=8))
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=4))
        pairs += again + [(b, a) for a, b in again]
    return items, pairs, rank


class TestPermutations:
    def test_block_permutation_swapping_a_pair_and_a_singleton(self):
        # swapping blocks of sizes (2, 1) sends positions (0,1,2) to (2,0,1)
        assert block_permutation((1, 0), (2, 1)) == (2, 0, 1)

    def test_sum_permutation_concatenates_with_offsets(self):
        assert sum_permutation([(1, 0), (0,), (2, 0, 1)]) == (1, 0, 2, 5, 3, 4)

    @given(st_perm)
    def test_inverse_cancels(self, sigma):
        sigma = tuple(sigma)
        n = len(sigma)
        inv = invert_permutation(sigma)
        assert compose_permutations(sigma, inv) == identity_permutation(n)
        assert compose_permutations(inv, sigma) == identity_permutation(n)

    @given(st_perm, st.integers(min_value=0, max_value=2**32 - 1))
    def test_apply_respects_composition(self, sigma, seed):
        sigma = tuple(sigma)
        n = len(sigma)
        rng = random.Random(seed)
        tau = list(range(n))
        rng.shuffle(tau)
        tau = tuple(tau)
        items = tuple(f"i{k}" for k in range(n))
        assert apply_permutation(apply_permutation(items, sigma), tau) == \
            apply_permutation(items, compose_permutations(sigma, tau))

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=4))
    def test_block_permutation_of_identity_is_identity(self, arities):
        n = len(arities)
        total = sum(arities)
        assert block_permutation(identity_permutation(n), arities) == \
            identity_permutation(total)


def commutative_fold_operad(max_arity: int = 3) -> Operad:
    """One color, one operation per arity, fully symmetric."""
    color = "c"
    ops = {n: Operation(f"m{n}", (color,) * n, color) for n in range(max_arity + 1)}

    def compose_rule(outer, inners):
        total = sum(len(i.inputs) for i in inners)
        return ops.get(total, Operation(f"m{total}", (color,) * total, color))

    def action_rule(op, sigma):
        return op

    return Operad([color], ops.values(), {color: ops[1]}, compose_rule, action_rule,
                  name="fold")


def _changed(table: dict, changes) -> dict:
    """``table`` with ``changes`` applied; a change to ``None`` drops the entry."""
    out = {**table, **dict(changes)}
    return {key: value for key, value in out.items() if value is not None}


ROT0, ROT1 = Operation("rot0", ("c",), "c"), Operation("rot1", ("c",), "c")


def cyclic_group_operad(table=(), action=(), units=None, listed=(ROT0, ROT1)) -> Operad:
    """One color whose unary operations form the two-element group.

    ``table`` and ``action`` change entries of its tables, ``units`` replaces
    its units and ``listed`` its operations, to build corrupted copies.
    """
    u, f = ROT0, ROT1
    group = {
        (u, (u,)): u, (u, (f,)): f, (f, (u,)): f, (f, (f,)): u,
    }
    identities = {(u, (0,)): u, (f, (0,)): f}
    return Operad(["c"], listed, {"c": u} if units is None else units,
                  _changed(group, table), _changed(identities, action), name="rot2")


UC, UD, UE = (Operation(f"u{x}", (x,), x) for x in "cde")
B, BT = Operation("b", ("d", "e"), "c"), Operation("bt", ("e", "d"), "c")


def twist_operad(table=(), action=(), listed=(UC, B)) -> Operad:
    """A binary operation b: (d, e) -> c and its twist bt: (e, d) -> c.

    Only the unit of c and b are listed, and no listed operation outputs d
    or e; so b is composed only under that unit and with the units of d and
    e, and bt is acted on only by the right action.  ``table`` and
    ``action`` change entries of its tables, and ``listed`` replaces its
    operations.
    """
    compose = {(UC, (UC,)): UC, (UC, (B,)): B, (UC, (BT,)): BT, (B, (UD, UE)): B}
    act = {(UC, (0,)): UC, (B, (0, 1)): B, (B, (1, 0)): BT,
           (BT, (0, 1)): BT, (BT, (1, 0)): B}
    return Operad("cde", listed, {"c": UC, "d": UD, "e": UE},
                  _changed(compose, table), _changed(act, action), name="twist")


def broken_unit_operad() -> Operad:
    """The two-element group with a unit that absorbs instead of passing through."""
    color = "c"
    u = Operation("u", (color,), color)
    f = Operation("f", (color,), color)
    table = {
        (u, (u,)): u, (u, (f,)): u,  # unit absorbs instead of passing through
        (f, (u,)): f, (f, (f,)): u,
    }
    action = {(u, (0,)): u, (f, (0,)): f}
    return Operad([color], [u, f], {color: u}, table, action, name="broken")


def skew_operad() -> Operad:
    """Composition with g swaps two binaries but not their permuted twins."""
    # three colors keep the table finite: binaries land in a sink color
    uc = Operation("uc", ("c",), "c")
    ud = Operation("ud", ("d",), "d")
    ue = Operation("ue", ("e",), "e")
    g = Operation("g", ("c",), "c")
    b1 = Operation("b1", ("c", "d"), "e")
    b2 = Operation("b2", ("c", "d"), "e")
    b1s = Operation("b1s", ("d", "c"), "e")
    b2s = Operation("b2s", ("d", "c"), "e")
    ops = [uc, ud, ue, g, b1, b2, b1s, b2s]
    table = {
        (uc, (uc,)): uc, (uc, (g,)): g,
        (ud, (ud,)): ud,
        (g, (uc,)): g, (g, (g,)): uc,
        (ue, (ue,)): ue,
        (ue, (b1,)): b1, (ue, (b2,)): b2,
        (ue, (b1s,)): b1s, (ue, (b2s,)): b2s,
        (b1, (uc, ud)): b1,
        (b1, (g, ud)): b2,     # composing with g jumps tracks...
        (b2, (uc, ud)): b2, (b2, (g, ud)): b1,
        (b1s, (ud, uc)): b1s,
        (b1s, (ud, g)): b1s,   # ...but not on the permuted twin
        (b2s, (ud, uc)): b2s, (b2s, (ud, g)): b2s,
    }
    action = {}
    for op in [uc, ud, ue, g]:
        action[(op, (0,))] = op
    for plain, twisted in [(b1, b1s), (b2, b2s)]:
        action[(plain, (0, 1))] = plain
        action[(plain, (1, 0))] = twisted
        action[(twisted, (0, 1))] = twisted
        action[(twisted, (1, 0))] = plain
    return Operad(["c", "d", "e"], ops, {"c": uc, "d": ud, "e": ue},
                  table, action, name="skew")


class TestLeastRepresentatives:
    @settings(max_examples=200, deadline=None)
    @given(graph_case())
    def test_classes_are_components_named_by_their_least_member(self, case):
        items, pairs, rank = case
        got = _least_representatives(items, pairs, rank.__getitem__)
        assert got == oracles.brute_least_representatives(items, pairs, rank.__getitem__)
        assert list(got) == items

    def test_a_chain_of_links_is_named_by_its_least_member(self):
        got = _least_representatives("dcba", [("d", "c"), ("b", "a"), ("c", "b")], str)
        assert got == dict.fromkeys("dcba", "a")


class TestNumbering:
    def test_a_value_keeps_its_number_and_a_new_one_gets_the_next(self):
        N = Numbering(["a", "b"])
        assert [N.number(v) for v in "bcac"] == [1, 2, 0, 2]
        assert N == ["a", "b", "c"] and N.no == {"a": 0, "b": 1, "c": 2}

    def test_equal_values_given_up_front_are_all_kept(self):
        # a malformed window may list an operation twice; both places stay
        # numbered, and the value's number is its last place
        N = Numbering(["a", "b", "a"])
        assert N == ["a", "b", "a"] and N.no == {"a": 2, "b": 1}
        assert N.number("d") == 3

    def test_canonical_is_the_listed_instance(self):
        listed, copy = ROT1, Operation("rot1", ("c",), "c")
        N = Numbering([ROT0, listed])
        assert N.canonical(copy) is listed
        assert N.canonical(B) is B and B not in N


class TestOperadChecker:
    def test_fold_operad_satisfies_all_laws(self):
        report = check_operad_axioms(commutative_fold_operad())
        assert report.ok, report.failures

    def test_group_operad_satisfies_all_laws(self):
        report = check_operad_axioms(cyclic_group_operad())
        assert report.ok, report.failures

    def test_twist_operad_satisfies_all_laws(self):
        report = check_operad_axioms(twist_operad())
        assert report.ok, report.failures

    def test_broken_unit_law_is_caught_with_witness(self):
        report = check_operad_axioms(broken_unit_operad())
        assert not report.ok
        assert any(e.check == "operad/unit-laws" for e in report.failures)

    def test_broken_equivariance_is_caught(self):
        report = check_operad_axioms(skew_operad())
        assert not report.ok
        assert any(e.check == "operad/equivariance" for e in report.failures)

    @pytest.mark.parametrize("build", [commutative_fold_operad, cyclic_group_operad,
                                       twist_operad, broken_unit_operad, skew_operad])
    def test_reports_match_the_value_walk(self, build):
        assert check_operad_axioms(build()).dumps() == \
            oracles.brute_operad_axioms(build()).dumps()

    def test_failing_reports_are_pinned(self):
        digests = [
            hashlib.sha256(check_operad_axioms(O).dumps().encode()).hexdigest()
            for O in (broken_unit_operad(), skew_operad())
        ]
        assert digests == [
            "8b174ba989e7afc764ac849fb04eee02fba71b4355ff969bbde0add03e2e56b6",
            "fef8928e29ec3ac265da21ba829c251c251eb0fb951c2efd3038163ec49a771d",
        ]

    # one corrupted table operad per failure line of check_operad_axioms;
    # each fails exactly the one row
    @pytest.mark.parametrize("operad, check, witness, digest", [
        pytest.param(lambda: cyclic_group_operad(units={}), "operad/units-present",
                     ["missing unit for c"],
                     "cbd9678305fd2c3bba4b5bc7b4f624a5a092b6890f555ef43d0a90d5414e2923",
                     id="missing-unit"),
        pytest.param(lambda: cyclic_group_operad(units={"c": Operation("z", (), "c")}),
                     "operad/units-present", ["unit of c has wrong signature"],
                     "f312f24b196d4c377025a757daca3812dcb2be4c0aada2ae655c7db3e242b51e",
                     id="unit-signature"),
        # x.y = y: associative, with a left unit that is no right unit
        pytest.param(lambda: cyclic_group_operad(table={(ROT1, (ROT0,)): ROT0,
                                                        (ROT1, (ROT1,)): ROT1}),
                     "operad/unit-laws", ["rot1:(c)->c;units != rot1:(c)->c"],
                     "f3f810e6a09e94a6ee3db6fb32a3187ff64c76c8ebd19d05707a67ac4b4d5f0f",
                     id="right-unit-law"),
        # the unit is not listed, so only the unit laws compose with it
        pytest.param(lambda: cyclic_group_operad(table={(ROT1, (ROT0,)): None,
                                                        (ROT1, (ROT1,)): ROT1},
                                                 listed=(ROT1,)),
                     "operad/unit-laws",
                     ["composition not tabulated for rot1:(c)->c with 1 inners"],
                     "ad1a632a3edd46255f2cd3c2132ba6601bd4878511b49f10786818add67c542e",
                     id="unit-law-raises"),
        # rot1.rot1 is an unlisted g, composed only under an associativity
        pytest.param(lambda: cyclic_group_operad(
                         table={(ROT1, (ROT1,)): Operation("g", ("c",), "c")},
                         action={(Operation("g", ("c",), "c"), (0,)):
                                 Operation("g", ("c",), "c")}),
                     "operad/associativity",
                     ["composition not tabulated for rot0:(c)->c with 1 inners"],
                     "caf61e6caa121eb23d7b9094a578f18850e31080acac5940f242750ca0d12631",
                     id="associativity-raises"),
        # the identity acts as rot1 on the group: equivariant, but no action
        pytest.param(lambda: cyclic_group_operad(action={(ROT0, (0,)): ROT1,
                                                         (ROT1, (0,)): ROT0}),
                     "operad/right-action",
                     ["identity action moved rot0:(c)->c", "rot0:(c)->c under (0,) then (0,)",
                      "identity action moved rot1:(c)->c"],
                     "dba4091d6b473f7e025e72c9718303e6f30c13520bf9a96fa4232f547fecd269",
                     id="identity-action-moved"),
        pytest.param(lambda: twist_operad(action={(BT, (0, 1)): None}), "operad/right-action",
                     ["action not tabulated for bt:(e,d)->c by (0, 1)"],
                     "108db0db0466d8b4161855a8d3effbe292ca5763ab536851655dc6f3bd89ea2a",
                     id="right-action-raises"),
        pytest.param(lambda: twist_operad(table={(UC, (BT,)): Operation("bt2", ("e", "d"), "c")}),
                     "operad/equivariance", ["sum equivariance at (uc:(c)->c, ((1, 0),))"],
                     "9f5d2296063095871fabdc62938177d31e95d29e300908bc3aa560188c203696",
                     id="sum-equivariance"),
        pytest.param(lambda: twist_operad(table={(UC, (BT,)): None}), "operad/equivariance",
                     ["composition not tabulated for uc:(c)->c with 1 inners"],
                     "b998a3a7517a5e9a28370b05b112b7acc2421b13889e5cf47d9633058bbaa446",
                     id="equivariance-raises"),
    ])
    def test_a_corrupted_table_fails_exactly_its_row(self, operad, check, witness, digest):
        report = check_operad_axioms(operad())
        assert [(e.check, e.witness) for e in report.failures] == [(check, witness)]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == digest
        assert report.dumps() == oracles.brute_operad_axioms(operad()).dumps()

    def test_composition_signature_violations_are_rejected_eagerly(self):
        O = cyclic_group_operad()
        u, f = O.ops(1)
        with pytest.raises(ValueError, match="arity"):
            O.compose(u, (u, f))


class TestPrefactorization:
    def test_point_and_chain_fragment_has_no_binary_operations(self):
        pt = CausalSet("p", [])
        chain = CausalSet("xy", [("x", "y")])
        O = prefactorization_operad([pt, chain])
        assert len(O.ops(0)) == 2  # one empty tuple per color
        assert len(O.ops(1)) == 4  # both identities plus p->x, p->y, nothing chain->pt
        assert len(O.ops(2)) == 0  # every image pair in the chain is comparable

    def test_point_and_antichain_fragment_has_two_binary_operations(self):
        pt = CausalSet("p", [])
        V = CausalSet("bc", [])
        O = prefactorization_operad([pt, V])
        binaries = O.ops(2)
        assert len(binaries) == 2
        for op in binaries:
            assert {m.image for m in op.maps} == {frozenset({"b"}), frozenset({"c"})}
        report = check_operad_axioms(O)
        assert report.ok, report.failures

    def test_zero_ary_operations_are_unique_per_color(self):
        pt = CausalSet("p", [])
        V = CausalSet("bc", [])
        O = prefactorization_operad([pt, V])
        for color in O.colors:
            zero = [op for op in O.ops(0) if op.output == color]
            assert len(zero) == 1
            assert zero[0].maps == ()

    def test_composition_builds_flattened_tuples(self):
        pt = CausalSet("p", [])
        V = CausalSet("bc", [])
        O = prefactorization_operad([pt, V])
        binary = next(op for op in O.ops(2) if op.maps[0].image == frozenset({"b"}))
        zeros = [op for op in O.ops(0) if op.output == pt]
        unary = O.compose(binary, (O.unit(pt), zeros[0]))
        assert len(unary.inputs) == 1
        assert unary.maps[0].image == frozenset({"b"})

    def test_caps_are_enforced(self):
        pt = CausalSet("p", [])
        with pytest.raises(FragmentCapExceeded):
            prefactorization_operad([pt], max_colors=0)
        big = CausalSet([f"e{i}" for i in range(9)], [])
        with pytest.raises(FragmentCapExceeded):
            prefactorization_operad([big])

    def test_disjointness_is_validated_on_construction(self):
        chain = CausalSet("xy", [("x", "y")])
        pt = CausalSet("p", [])
        g_list = list(enumerate_embeddings(pt, chain))
        assert len(g_list) == 2
        with pytest.raises(ValueError, match="disjoint"):
            EmbeddingTuple((g_list[0], g_list[1]), chain)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_embedding_enumeration_matches_brute_force(self, seed):
        rng = random.Random(seed)
        dom_data = oracles.random_poset_data(rng, rng.randint(0, 4))
        cod_data = oracles.random_poset_data(rng, rng.randint(0, 5))
        dom, cod = CausalSet(*dom_data), CausalSet(*cod_data)
        # the order matters too: it fixes the operation order of
        # prefactorization_operad, and so every report byte
        found = list(enumerate_embeddings(dom, cod))
        # each map is built unchecked, and equals the validated one
        assert found == [CausalEmbedding(e.dom, e.cod, e.pairs) for e in found]
        got = [emb.pairs for emb in found]
        want = [
            tuple(sorted(t.items()))
            for t in oracles.brute_embeddings(
                oracles.OraclePoset.build(*dom_data),
                oracles.OraclePoset.build(*cod_data),
            )
        ]
        assert got == want

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_small_fragments_satisfy_the_operad_laws(self, seed):
        rng = random.Random(seed)
        colors = []
        for k in range(rng.randint(1, 2)):
            events, relations = oracles.random_poset_data(rng, rng.randint(1, 4))
            renamed = [f"c{k}_{e}" for e in events]
            table = dict(zip(events, renamed))
            colors.append(
                CausalSet(renamed, [(table[a], table[b]) for a, b in relations])
            )
        O = prefactorization_operad(colors, max_arity=2, max_ops=4000)
        report = check_operad_axioms(O, max_assoc_checks=20_000)
        assert report.ok, report.failures
        assert report.dumps() == oracles.brute_operad_axioms(O, max_assoc_checks=20_000).dumps()


class TestMultifunctors:
    def test_identity_multifunctor_and_transformation(self):
        O = cyclic_group_operad()
        ident = Multifunctor(O, O, {c: c for c in O.colors},
                             {op: op for op in O.operations})
        assert check_multifunctor(ident).ok
        u, f = O.ops(1)
        zeta = MultinaturalTransformation(ident, ident, {"c": f})
        assert check_multinatural(zeta).ok  # the group is abelian

    def test_naturality_failure_is_detected(self):
        color = "c"
        u = Operation("u", (color,), color)
        a = Operation("a", (color,), color)
        b = Operation("b", (color,), color)
        # the three unaries form the cyclic group of order three... but we
        # only need a non-commuting pair, so build the symmetric group S3
        # on names instead; simplest concrete non-abelian choice: compose
        # tracks string concatenation reduced by a non-commutative rule.
        table = {}
        elems = {"u": u, "a": a, "b": b}

        def mul(x, y):
            # left projection: a non-commutative, associative product
            return x if x != "u" else y

        for x, y in itertools.product(elems, repeat=2):
            table[(elems[x], (elems[y],))] = elems[mul(x, y)]
        action = {(op, (0,)): op for op in elems.values()}
        O = Operad([color], list(elems.values()), {color: u}, table, action,
                   name="leftproj")
        ident = Multifunctor(O, O, {color: color}, {op: op for op in O.operations})
        zeta = MultinaturalTransformation(ident, ident, {color: a})
        report = check_multinatural(zeta)
        assert not report.ok

    # one multifunctor per row of check_multifunctor that no lawful functor
    # reaches; each reports exactly that row as not passing
    @pytest.mark.parametrize("functor, check, status, witness, digest", [
        # b and its twist swapped: a functor on the listed twins, but each
        # image has the other's signature
        pytest.param(lambda: Multifunctor(
                         twist_operad(listed=(UC, B, BT)), twist_operad(listed=(UC, B, BT)),
                         {c: c for c in "cde"}, {UC: UC, UD: UD, UE: UE, B: BT, BT: B}),
                     "multifunctor/signatures", FAIL, ["b:(d,e)->c", "bt:(e,d)->c"],
                     "37c3b754a3ebad1e6a57275d6e3b61ed8e3f79362de6d963b27622507c945ed9",
                     id="signatures"),
        # into the group with rot1.rot1 = rot1
        pytest.param(lambda: Multifunctor(
                         cyclic_group_operad(), cyclic_group_operad(table={(ROT1, (ROT1,)): ROT1}),
                         {"c": "c"}, {ROT0: ROT0, ROT1: ROT1}),
                     "multifunctor/composition", FAIL, ["rot1:(c)->c"],
                     "805a7e3e4b2afd9b3756093bd3651430caacc0571a4a6703a0c665747b123221",
                     id="composition"),
        # the twist of b is not listed, so b's twisted action leaves the window
        pytest.param(lambda: Multifunctor(twist_operad(), twist_operad(), {c: c for c in "cde"},
                                          {op: op for op in (UC, UD, UE, B)}),
                     "multifunctor/equivariance-coverage", SKIP, {"outside-window": 1},
                     "bf53e24dc801774ce2adc4bba9354f05e8f1ce8cda4359cf051097475770dcf7",
                     id="equivariance-coverage"),
    ])
    def test_a_corrupted_functor_reaches_exactly_its_row(self, functor, check, status,
                                                          witness, digest):
        report = check_multifunctor(functor())
        assert [(e.check, e.status, e.witness) for e in report.entries
                if e.status != PASS] == [(check, status, witness)]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == digest

    @staticmethod
    def into_a_wrong_signature() -> Multifunctor:
        """rot1 sent to x: (d) -> c, which the target composes under rot0
        but never after itself, so composing the images raises."""
        x = Operation("x", ("d",), "c")
        T = Operad("cd", [ROT0, x], {"c": ROT0, "d": UD},
                   {(ROT0, (ROT0,)): ROT0, (ROT0, (x,)): x}, {(ROT0, (0,)): ROT0, (x, (0,)): x})
        return Multifunctor(cyclic_group_operad(), T, {"c": "c"}, {ROT0: ROT0, ROT1: x})

    # a target composite or action that raises fails its row with the error
    # text, and the rows after it are still written
    @pytest.mark.parametrize("functor, rows, digest", [
        pytest.param(into_a_wrong_signature,
                     [("multifunctor/signatures", ["rot1:(c)->c"]),
                      ("multifunctor/composition", ["input color mismatch in composition"])],
                     "9ae5060055d804100f111cba49f7ca1ed6b425232278c736c0e9027cc9be5a5c",
                     id="composition"),
        # the target does not tabulate the twist of b
        pytest.param(lambda: Multifunctor(
                         twist_operad(listed=(UC, B, BT)),
                         twist_operad(action={(B, (1, 0)): None}, listed=(UC, B, BT)),
                         {c: c for c in "cde"}, {op: op for op in (UC, UD, UE, B, BT)}),
                     [("multifunctor/equivariance",
                       ["action not tabulated for b:(d,e)->c by (1, 0)"])],
                     "50dcc313de5e080663f6ee08b187ec8c951f3a63ed556f099a52fbec41d4d94d",
                     id="action"),
    ])
    def test_a_target_that_raises_fails_the_row(self, functor, rows, digest):
        report = check_multifunctor(functor())
        assert [e.check for e in report.entries] == [
            "multifunctor/signatures", "multifunctor/units", "multifunctor/composition",
            "multifunctor/equivariance"]
        assert [(e.check, e.witness) for e in report.failures] == rows
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == digest

    @staticmethod
    def identity_functor(O: Operad) -> Multifunctor:
        return Multifunctor(O, O, {c: c for c in O.colors}, {op: op for op in O.operations})

    def test_a_component_of_the_wrong_signature_fails_exactly_its_row(self):
        # only uc is listed, so no naturality square reads the components
        # at d or e, and ue: (e) -> e stands at d
        ident = self.identity_functor(twist_operad(listed=(UC,)))
        report = check_multinatural(MultinaturalTransformation(
            ident, ident, {"c": UC, "d": UE, "e": UE}))
        assert [(e.check, e.status, e.witness) for e in report.entries] == [
            ("multinatural/components", FAIL, ["d"]), ("multinatural/naturality", PASS, None)]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == \
            "421c8148b0cbddc087c797b5167267bbdbbb5bb53d527cbe8f3828e942523e6a"

    # two equal operads that are not one object do not meet: functors and
    # transformations compose only along the very operads they name
    def test_transformations_between_other_operads_are_refused(self):
        O, O2 = cyclic_group_operad(), cyclic_group_operad()
        zeta = MultinaturalTransformation(self.identity_functor(O), self.identity_functor(O2),
                                          {"c": ROT1})
        with pytest.raises(ValueError, match="^transformation endpoints do not share operads$"):
            check_multinatural(zeta)

    def test_functors_that_do_not_meet_do_not_compose(self):
        F, G = self.identity_functor(cyclic_group_operad()), \
            self.identity_functor(cyclic_group_operad())
        with pytest.raises(ValueError, match="^multifunctors do not compose$"):
            compose_multifunctors(F, G)

    def test_transformations_that_do_not_meet_do_not_stack(self):
        F, G = self.identity_functor(cyclic_group_operad()), \
            self.identity_functor(cyclic_group_operad())
        zeta = MultinaturalTransformation(F, F, {"c": ROT1})
        xi = MultinaturalTransformation(G, G, {"c": ROT1})
        with pytest.raises(ValueError, match="^transformations do not stack$"):
            vertical_compose(zeta, xi)

    def test_composition_and_whiskering_plumbing(self):
        O = cyclic_group_operad()
        ident = Multifunctor(O, O, {c: c for c in O.colors},
                             {op: op for op in O.operations})
        twice = compose_multifunctors(ident, ident)
        assert check_multifunctor(twice).ok
        u, f = O.ops(1)
        zeta = MultinaturalTransformation(ident, ident, {"c": f})
        stacked = vertical_compose(zeta, zeta)
        assert stacked.components["c"] == u  # f after f is the unit


@st.composite
def groupoid_tables(draw, kind: str):
    """Raw tables of a small groupoid with its arrows in a drawn order.

    Either the pair groupoid (one arrow ``a>b`` for each ordered pair of
    objects) or the action groupoid of Z_m acting on the objects through a
    permutation p (arrows ``g@x: x -> p^g(x)``), on one to four objects.
    ``kind`` is "lawful"; "corrupt", where one composable pair of the dict
    composes to a wrong arrow, parallel to the right one where there is
    one; or "outside", where ``compose`` and the inverses are callables
    and only a drawn sub-list of the arrows is listed, so composites fall
    outside the list (one pair may be corrupt).
    Returns the arguments of ``FiniteGroupoid`` in order.
    """
    k = draw(st.integers(min_value=1, max_value=4))
    objects = [f"x{i}" for i in range(k)]
    src, tgt, inverses, compose = {}, {}, {}, {}
    if draw(st.booleans()):
        for a, b in itertools.product(objects, repeat=2):
            f = f"{a}>{b}"
            src[f], tgt[f], inverses[f] = a, b, f"{b}>{a}"
        for f, g in itertools.product(src, repeat=2):
            if tgt[f] == src[g]:
                compose[(g, f)] = f"{src[f]}>{tgt[g]}"
        identities = {a: f"{a}>{a}" for a in objects}
    else:
        p = draw(st.permutations(range(k)))
        powers = [list(range(k))]  # powers[g][i]: index of p^g(x_i)
        while (step := [p[i] for i in powers[-1]]) != powers[0]:
            powers.append(step)
        m = len(powers) * draw(st.integers(min_value=1, max_value=2))
        shift = {}
        for g in range(m):
            for i, x in enumerate(objects):
                f = f"{g}@{x}"
                src[f], tgt[f], shift[f] = x, objects[powers[g % len(powers)][i]], g
                inverses[f] = f"{-g % m}@{tgt[f]}"
        for f, g in itertools.product(src, repeat=2):
            if tgt[f] == src[g]:
                compose[(g, f)] = f"{(shift[f] + shift[g]) % m}@{src[f]}"
        identities = {x: f"0@{x}" for x in objects}
    order = draw(st.permutations(sorted(src)))
    if kind == "corrupt" or (kind == "outside" and draw(st.booleans())):
        assume(len(src) > 1)
        pair = draw(st.sampled_from(sorted(compose)))
        right = compose[pair]
        wrong = sorted(set(src) - {right})
        # a parallel wrong arrow or one whose ends do not meet the next
        # arrow's: both fail a law instance
        parallel = [f for f in wrong if (src[f], tgt[f]) == (src[right], tgt[right])]
        compose[pair] = draw(st.sampled_from(parallel or wrong))
    if kind != "outside":
        return objects, order, src, tgt, compose, identities, inverses
    listed = [f for f in order if draw(st.booleans())]
    assume(any(
        compose[(g, f)] not in listed
        for f, g in itertools.product(listed, repeat=2) if tgt[f] == src[g]
    ))
    return (objects, listed, src, tgt, lambda g, f: compose[(g, f)], identities,
            inverses.__getitem__)


@dataclass(frozen=True)
class Arrow:
    name: str


class TestFiniteGroupoid:
    def build_flip(self, bad: bool = False) -> FiniteGroupoid:
        compose = {
            ("id", "id"): "id", ("id", "s"): "s",
            ("s", "id"): "s", ("s", "s"): "s" if bad else "id",
        }
        return FiniteGroupoid(
            ["*"], ["id", "s"],
            {"id": "*", "s": "*"}, {"id": "*", "s": "*"},
            compose, {"*": "id"}, {"id": "id", "s": "s"},
        )

    def test_flip_groupoid_validates(self):
        assert self.build_flip().validate().ok

    def test_broken_inverse_is_reported(self):
        report = self.build_flip(bad=True).validate()
        assert not report.ok
        assert any("laws" in e.check for e in report.failures)

    def test_failing_report_is_pinned(self):
        report = self.build_flip(bad=True).validate()
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == "59dc2f568f557cbe9b72dca0d3e7556785ad918edbd505225e7f6af0b3e02e7c"

    def test_failing_report_matches_the_value_walk(self):
        report = self.build_flip(bad=True).validate()
        assert report.dumps() == oracles.oracle_groupoid_report(self.build_flip(bad=True)).dumps()

    def test_a_composite_with_no_endpoints_fails_the_laws(self):
        # s.s is no morphism and has no endpoints, so it composes with
        # nothing: its inverse laws fail, and so does the triple that needs it
        compose = {("id", "id"): "id", ("id", "s"): "s", ("s", "id"): "s", ("s", "s"): "out"}

        def build():
            return FiniteGroupoid(["*"], ["id", "s"], {"id": "*", "s": "*"},
                                  {"id": "*", "s": "*"}, compose, {"*": "id"},
                                  {"id": "id", "s": "s"})

        report = build().validate()
        assert report.dumps() == oracles.oracle_groupoid_report(build()).dumps()
        assert [(e.check, e.witness) for e in report.failures] == [("groupoid/laws", [
            "left inverse at s", "right inverse at s", "associativity at (s,s,id)"])]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == \
            "519b41748fe4fd5e4103d99f47878cbd756f95fee0f770f6d6476b71a70748b6"

    def test_an_identity_with_no_endpoints_fails_the_endpoints(self):
        # the identity "e" of * is no morphism and has no recorded endpoints
        def build():
            return FiniteGroupoid(["*"], ["s"], {"s": "*"}, {"s": "*"}, lambda g, f: "s",
                                  {"*": "e"}, lambda g: "s")

        report = build().validate()
        assert report.dumps() == oracles.oracle_groupoid_report(build()).dumps()
        assert [(e.check, e.witness) for e in report.failures] == [
            ("groupoid/endpoints", ["identity of * has wrong endpoints"]),
            ("groupoid/laws", ["right identity at s", "left identity at s", "left inverse at s"]),
        ]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == \
            "a0860a2adfb77a33676e007837d82829b5e39ccb7a0d4f37d19cee3ec2888690"

    def test_an_identity_with_wrong_endpoints_fails_the_laws(self):
        # the identity of x is f: x -> y, so f after it has no composite
        case = (["x", "y"], ["ix", "iy", "f"], {"ix": "x", "iy": "y", "f": "x"},
                {"ix": "x", "iy": "y", "f": "y"}, lambda g, f: g if f in ("ix", "iy") else f,
                {"x": "f", "y": "iy"}, lambda g: g)
        self.assert_laws_match_the_oracle(case)
        report = FiniteGroupoid(*case).validate()
        assert report.dumps() == oracles.oracle_groupoid_report(FiniteGroupoid(*case)).dumps()
        assert [(e.check, e.witness) for e in report.failures] == [
            ("groupoid/endpoints", ["identity of x has wrong endpoints"]),
            ("groupoid/laws", ["right identity at ix", "left identity at ix", "left inverse at ix"]),
        ]
        assert hashlib.sha256(report.dumps().encode()).hexdigest() == \
            "3e5247c358e304af0648a63853651c4629429567364fdd7ee01f9c5eef354a60"

    def test_results_are_the_stored_morphisms(self):
        # the tables build a fresh arrow on every call, equal to a stored one
        stored = {name: Arrow(name) for name in ("id", "s")}
        G = FiniteGroupoid(
            ["*"], stored.values(),
            {a: "*" for a in stored.values()}, {a: "*" for a in stored.values()},
            lambda g, f: Arrow("id" if g.name == f.name else "s"),
            {"*": Arrow("id")}, lambda g: Arrow(g.name),
        )
        assert G.id("*") is stored["id"]
        for g, f in itertools.product(stored.values(), repeat=2):
            assert G.compose(g, f) is stored["id" if g is f else "s"]
            assert G.compose(Arrow(g.name), Arrow(f.name)) is G.compose(g, f)
        for g in stored.values():
            assert G.inv(g) is g
        assert G.validate().ok

    @staticmethod
    def assert_laws_match_the_oracle(case) -> None:
        G = FiniteGroupoid(*case)
        want = oracles.brute_groupoid_law_witnesses(*case[1:])
        rows = [(e.status, e.witness) for e in G.validate().entries
                if e.check == "groupoid/laws"]
        assert rows == [(FAIL if want else PASS, want[:3] or None)]

    @settings(max_examples=150, deadline=None)
    @given(groupoid_tables("lawful"))
    def test_lawful_tables_pass_like_the_oracle(self, case):
        self.assert_laws_match_the_oracle(case)

    @settings(max_examples=300, deadline=None)
    @given(groupoid_tables("corrupt"))
    def test_a_corrupt_entry_fails_like_the_oracle(self, case):
        self.assert_laws_match_the_oracle(case)

    @settings(max_examples=300, deadline=None)
    @given(groupoid_tables("outside"))
    def test_composites_outside_the_list_compare_by_value(self, case):
        self.assert_laws_match_the_oracle(case)
