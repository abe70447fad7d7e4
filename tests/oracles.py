"""Independent brute-force reference implementations for the test suite.

Everything here works on raw (events, relations) data and recomputes
order-theoretic notions from first principles, so test expectations never
lean on the code under test.  Tests build a CausalSet and an OraclePoset
from the same primitive data and compare behaviors.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from causalops.bordism import (
    Bordism,
    PointedObject,
    cells_between,
    validate_bordism,
    wrapper_bordism,
)
from causalops.causal_core import CausalEmbedding
from causalops.operad_kernel import (
    all_permutations,
    apply_permutation,
    block_permutation,
    compose_permutations,
    identity_permutation,
    sum_permutation,
)
from causalops.report import DEGENERATE, FAIL, PASS, SKIP, Report


@dataclass
class OraclePoset:
    events: tuple[str, ...]
    strict: frozenset[tuple[str, str]]  # transitively closed, irreflexive

    @classmethod
    def build(cls, events, relations) -> "OraclePoset":
        closed = set(map(tuple, relations))
        changed = True
        while changed:
            changed = False
            for (a, b), (c, d) in itertools.product(list(closed), repeat=2):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
        if any(a == b for a, b in closed):
            raise ValueError("cyclic input")
        return cls(tuple(sorted(events)), frozenset(closed))

    def le(self, x: str, y: str) -> bool:
        return x == y or (x, y) in self.strict


def brute_past(P: OraclePoset, subset: set[str]) -> set[str]:
    return {x for x in P.events if any(P.le(x, a) for a in subset)}


def brute_future(P: OraclePoset, subset: set[str]) -> set[str]:
    return {x for x in P.events if any(P.le(a, x) for a in subset)}


def brute_strict_past(P: OraclePoset, subset: set[str]) -> set[str]:
    return {x for x in P.events if any(P.le(x, a) and x != a for a in subset)}


def brute_convex(P: OraclePoset, subset: set[str]) -> bool:
    for x, z in itertools.product(subset, repeat=2):
        for y in P.events:
            if P.le(x, y) and P.le(y, z) and y not in subset:
                return False
    return True


def brute_hull(P: OraclePoset, subset: set[str]) -> set[str]:
    return brute_past(P, subset) & brute_future(P, subset)


def brute_is_antichain(P: OraclePoset, subset: set[str]) -> bool:
    return not any(
        P.le(a, b) and a != b for a, b in itertools.permutations(subset, 2)
    )


def all_maximal_chains(P: OraclePoset) -> list[tuple[str, ...]]:
    chains: list[tuple[str, ...]] = []

    def is_cover(a: str, b: str) -> bool:
        if not (P.le(a, b) and a != b):
            return False
        return not any(
            P.le(a, m) and P.le(m, b) and m not in (a, b) for m in P.events
        )

    minima = [e for e in P.events if not any(P.le(o, e) and o != e for o in P.events)]

    def grow(chain: list[str]) -> None:
        nexts = [e for e in P.events if is_cover(chain[-1], e)]
        if not nexts:
            chains.append(tuple(chain))
            return
        for e in nexts:
            grow(chain + [e])

    for m in minima:
        grow([m])
    return chains


def brute_is_cauchy(P: OraclePoset, subset: set[str]) -> bool:
    if not brute_is_antichain(P, subset):
        return False
    if len(P.events) == 0:
        return not subset
    if not subset:
        return False
    return all(set(chain) & subset for chain in all_maximal_chains(P))


def all_antichains(P: OraclePoset) -> list[frozenset[str]]:
    out = []
    for k in range(len(P.events) + 1):
        for combo in itertools.combinations(P.events, k):
            if brute_is_antichain(P, set(combo)):
                out.append(frozenset(combo))
    return out


def sub_oracle(P: OraclePoset, members: set[str]) -> OraclePoset:
    strict = frozenset((a, b) for a, b in P.strict if a in members and b in members)
    return OraclePoset(tuple(sorted(members)), strict)


def brute_embeddings(dom: OraclePoset, cod: OraclePoset) -> list[dict[str, str]]:
    """All injections preserving and reflecting order, with convex image."""
    out = []
    for images in itertools.permutations(cod.events, len(dom.events)):
        table = dict(zip(dom.events, images))
        if all(
            dom.le(a, b) == cod.le(table[a], table[b])
            for a, b in itertools.product(dom.events, repeat=2)
        ) and brute_convex(cod, set(images)):
            out.append(table)
    return out


def brute_map_error(dom: OraclePoset, cod: OraclePoset, table: dict[str, str]) -> str | None:
    """The ``ValueError`` text causal embedding validation gives ``table``, or None.

    Plain pairwise checks by name, in a fixed order: totality, codomain,
    injectivity, preservation over ``itertools.combinations`` of the domain
    events, reflection over ``itertools.permutations`` and convexity of the
    image by :func:`brute_convex`.  The first failure found is the one named.
    """
    if sorted(table) != list(dom.events):
        return "map must be defined on exactly the domain events"
    for v in table.values():
        if v not in cod.events:
            return f"image event {v!r} not in codomain"
    if len(set(table.values())) != len(table):
        return "map is not injective"
    for a, b in itertools.combinations(dom.events, 2):
        if dom.le(a, b) and not cod.le(table[a], table[b]):
            return f"map does not preserve {a!r} < {b!r}"
        if dom.le(b, a) and not cod.le(table[b], table[a]):
            return f"map does not preserve {b!r} < {a!r}"
    for a, b in itertools.permutations(dom.events, 2):
        if cod.le(table[a], table[b]) and not dom.le(a, b):
            return (f"map does not reflect order: {table[a]!r} < {table[b]!r} "
                    f"but {a!r} not < {b!r}")
    if not brute_convex(cod, set(table.values())):
        return "image is not causally convex"
    return None


def random_poset_data(
    rng: random.Random, n_events: int, edge_bias: float = 0.3
) -> tuple[list[str], list[tuple[str, str]]]:
    """Raw data for a random strict poset on n_events labeled events.

    Events are topologically labeled, so drawing i < j edges keeps the
    relation acyclic by construction.
    """
    names = [f"e{i}" for i in range(n_events)]
    relations = [
        (names[i], names[j])
        for i in range(n_events)
        for j in range(i + 1, n_events)
        if rng.random() < edge_bias
    ]
    return names, relations


def random_subset(rng: random.Random, events, p: float = 0.5) -> set[str]:
    return {e for e in events if rng.random() < p}


def poset_isomorphic(A: OraclePoset, B: OraclePoset) -> bool:
    if len(A.events) != len(B.events):
        return False
    for images in itertools.permutations(B.events):
        table = dict(zip(A.events, images))
        if all(
            A.le(x, y) == B.le(table[x], table[y])
            for x, y in itertools.product(A.events, repeat=2)
        ):
            return True
    return False


def brute_pinned_maps(
    A: OraclePoset,
    B: OraclePoset,
    iso: bool,
    blocks=(),
    pins=None,
) -> list[dict[str, str]]:
    """Injections A -> B preserving and reflecting order that extend ``pins``.

    With ``iso`` only the bijections whose every block ``(s, t)`` satisfies
    ``a in s`` exactly when ``f(a) in t``.  Listed in lexicographic order of
    the image tuple over the sorted events of A.
    """
    pins = dict(pins or {})
    if iso and len(A.events) != len(B.events):
        return []
    out = []
    for images in itertools.permutations(B.events, len(A.events)):
        table = dict(zip(A.events, images))
        if any(table[a] != b for a, b in pins.items()):
            continue
        if iso and any(
            (a in s) != (table[a] in t) for a in A.events for s, t in blocks
        ):
            continue
        if all(
            A.le(x, y) == B.le(table[x], table[y])
            for x, y in itertools.product(A.events, repeat=2)
        ):
            out.append(table)
    return out


def brute_pushout(
    left: Sequence[OraclePoset],
    right: OraclePoset,
    into_left: Sequence[dict[str, str]],
    into_right: Sequence[dict[str, str]],
) -> tuple[dict[tuple, str], OraclePoset]:
    """The pushout of the star cospans ``left[i] <- mid[i] -> right``.

    The general quotient: a union-find over the atoms ``("R", r)`` and
    ``("L", i, e)`` merges ``into_left[i][x]`` with ``into_right[i][x]``
    for every middle event ``x``; the orders of all pieces are pushed
    forward and transitively closed.  Returns the class name of every atom
    and the quotient poset on those names.  A cyclic quotient, including
    one that merges two related events, raises ``ValueError``.
    """
    parent: dict[tuple, tuple] = {("R", r): ("R", r) for r in right.events}
    for i, P in enumerate(left):
        parent.update((("L", i, e), ("L", i, e)) for e in P.events)

    def find(atom: tuple) -> tuple:
        while parent[atom] != atom:
            atom = parent[atom]
        return atom

    for i, table in enumerate(into_left):
        for x, e in table.items():
            a, b = find(("L", i, e)), find(("R", into_right[i][x]))
            if a != b:
                parent[a] = b
    name = {atom: repr(find(atom)) for atom in parent}
    relations = [(name[("R", a)], name[("R", b)]) for a, b in right.strict]
    for i, P in enumerate(left):
        relations.extend((name[("L", i, a)], name[("L", i, b)]) for a, b in P.strict)
    return name, OraclePoset.build(set(name.values()), relations)


def brute_groupoid_law_witnesses(morphisms, src, tgt, compose, identities, inverses) -> list[str]:
    """The ``groupoid/laws`` witnesses of a finite groupoid, by plain loops on values.

    ``compose`` is a dict keyed ``(g, f)`` or a callable ``(g, f)``, both
    meaning g after f; ``inverses`` is a dict or a callable.  Identity and
    inverse laws come first, per morphism in the given order; then every
    triple (f, g, h) of ``morphisms`` with tgt f = src g and tgt g = src h,
    f slowest, is checked by comparing h.(g.f) with (h.g).f as values.
    A pair whose endpoints do not meet has no composite (None), and a law
    instance that needs one fails.
    """
    def comp(g, f):
        if f not in tgt or g not in src or tgt[f] != src[g]:
            return None
        return compose(g, f) if callable(compose) else compose[(g, f)]

    def inv(g):
        return inverses(g) if callable(inverses) else inverses[g]

    bad = []
    for g in morphisms:
        if comp(g, identities[src[g]]) != g:
            bad.append(f"right identity at {g}")
        if comp(identities[tgt[g]], g) != g:
            bad.append(f"left identity at {g}")
        if comp(inv(g), g) != identities[src[g]]:
            bad.append(f"left inverse at {g}")
        if comp(g, inv(g)) != identities[tgt[g]]:
            bad.append(f"right inverse at {g}")
    for f, g, h in itertools.product(morphisms, repeat=3):
        if tgt[f] != src[g] or tgt[g] != src[h]:
            continue
        lhs = comp(h, comp(g, f))
        if lhs is None or lhs != comp(comp(h, g), f):
            bad.append(f"associativity at ({h},{g},{f})")
    return bad


def brute_composites(O) -> dict:
    """Every composite of ``O.operations`` that lies among them, by a plain
    product walk: outer operations in order, inner tuples in
    ``itertools.product`` order over the operations with each input's color."""
    window = set(O.operations)
    composites = {}
    for psi in O.operations:
        pools = [[op for op in O.operations if op.output == c] for c in psi.inputs]
        for phis in itertools.product(*pools):
            composite = O.compose(psi, phis)
            if composite in window:
                composites[(psi, phis)] = composite
    return composites


def brute_operad_axioms(
    operad,
    max_assoc_checks: int | None = 200_000,
) -> Report:
    """The operad laws walked on values, the reference for
    ``check_operad_axioms``: every composite and action is asked of
    ``operad`` at each use, and inner tuples come from
    ``composable_inner_tuples``."""
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

    unit_law_bad = []
    if not unit_bad:
        try:
            for op in operad.operations:
                left = operad.compose(operad.unit(op.output), (op,))
                if left != op:
                    unit_law_bad.append(f"unit;{op} != {op}")
                right = operad.compose(op, tuple(operad.unit(c) for c in op.inputs))
                if right != op:
                    unit_law_bad.append(f"{op};units != {op}")
        except ValueError as exc:
            unit_law_bad.append(str(exc))
    rep.verdict("operad/unit-laws", target, unit_law_bad)

    assoc_bad = []
    checked = 0
    budget_hit = False
    try:
        for psi in operad.operations:
            for phis in operad.composable_inner_tuples(psi):
                middle = operad.compose(psi, phis)
                for chis in itertools.product(
                    *[tuple(operad.composable_inner_tuples(phi)) for phi in phis]
                ):
                    if max_assoc_checks is not None and checked >= max_assoc_checks:
                        budget_hit = True
                        break
                    checked += 1
                    flat = tuple(itertools.chain.from_iterable(chis))
                    lhs = operad.compose(middle, flat)
                    rhs = operad.compose(
                        psi, tuple(operad.compose(phi, chi) for phi, chi in zip(phis, chis))
                    )
                    if lhs != rhs:
                        assoc_bad.append(f"({psi}; {[str(p) for p in phis]})")
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
        for op in operad.operations:
            n = len(op.inputs)
            if operad.act(op, identity_permutation(n)) != op:
                action_bad.append(f"identity action moved {op}")
            for sigma in all_permutations(n):
                moved = operad.act(op, sigma)
                for tau in all_permutations(n):
                    lhs = operad.act(moved, tau)
                    rhs = operad.act(op, compose_permutations(sigma, tau))
                    if lhs != rhs:
                        action_bad.append(f"{op} under {sigma} then {tau}")
    except ValueError as exc:
        action_bad.append(str(exc))
    rep.verdict("operad/right-action", target, action_bad)

    try:
        for psi in operad.operations:
            n = len(psi.inputs)
            for phis in operad.composable_inner_tuples(psi):
                arities = tuple(len(phi.inputs) for phi in phis)
                composite = operad.compose(psi, phis)
                for sigma in all_permutations(n):
                    lhs = operad.compose(
                        operad.act(psi, sigma), apply_permutation(phis, sigma)
                    )
                    rhs = operad.act(composite, block_permutation(sigma, arities))
                    if lhs != rhs:
                        equiv_bad.append(f"block equivariance at ({psi}, {sigma})")
                for taus in itertools.product(*[tuple(all_permutations(k)) for k in arities]):
                    lhs = operad.compose(
                        psi, tuple(operad.act(phi, t) for phi, t in zip(phis, taus))
                    )
                    rhs = operad.act(composite, sum_permutation(taus))
                    if lhs != rhs:
                        equiv_bad.append(f"sum equivariance at ({psi}, {taus})")
    except ValueError as exc:
        equiv_bad.append(str(exc))
    rep.verdict("operad/equivariance", target, equiv_bad)
    return rep


def brute_operads_equal(A, B) -> tuple[bool, str | None]:
    """Whether ``B`` behaves as ``A`` on A's window, and the first difference.

    Compares the color tuples, the operation sets and the units of A's
    colors; then, for each of A's operations in order, the composites over
    every inner tuple of A's operations with matching colors, in
    ``itertools.product`` order, and the actions of every permutation.  A
    composition or action that raises counts as its error text, so two
    operads that refuse the same tuple the same way agree there.
    """

    def outcome(f, *args):
        try:
            return f(*args)
        except ValueError as exc:
            return ValueError, str(exc)

    if A.colors != B.colors:
        return False, "color tuples differ"
    if set(A.operations) != set(B.operations):
        return False, "operation sets differ"
    for c in A.colors:
        if A.unit(c) != B.unit(c):
            return False, f"units differ at {c}"
    for psi in A.operations:
        pools = [[op for op in A.operations if op.output == c] for c in psi.inputs]
        for phis in itertools.product(*pools):
            if outcome(A.compose, psi, phis) != outcome(B.compose, psi, phis):
                return False, f"composition differs at {psi}"
        for sigma in all_permutations(len(psi.inputs)):
            if outcome(A.act, psi, sigma) != outcome(B.act, psi, sigma):
                return False, f"action differs at {psi}"
    return True, None


def brute_window_cells(P) -> tuple[dict, dict]:
    """The cell composites and associators that a window's composites call
    for, by plain product walks over the window's own tables.

    An inner pick for a cell ``alpha`` takes, per slot ``i``, any cell of the
    window whose output vertical is leg ``i`` of alpha; picks are walked in
    ``itertools.product`` order over the cells in window order (by arity,
    then in groupoid order), and a pick is kept when alpha's domain with the
    picks' domains, and alpha's codomain with the picks' codomains, are both
    entries of ``compose_ops``.  Cells map ``(alpha, betas)`` to the two
    composites ``(dom, cod)``.  Associators map ``(psi, phis, chis)`` to the
    composite of ``(middle, flat)``, for each entry ``(psi, phis) -> middle``
    in table order and each pick of entries ``(phi_i, chis_i)`` in table
    order, such that ``(middle, flat)`` and psi with the composites of the
    ``(phi_i, chis_i)`` are both entries.
    """
    compose_ops = P.compose_ops
    ends = {c: (G.src(c), G.tgt(c)) for n in P.arities()
            for G in [P.op_groupoids[n]] for c in G.morphisms}
    cells = {}
    for alpha, (alpha_dom, alpha_cod) in ends.items():
        # slot i's pool: the cells in window order whose output is leg i and
        # whose ends are inner i of some entry of alpha's ends; no cell left
        # out can be in a kept pick
        doms = [phis for psi, phis in compose_ops if psi == alpha_dom]
        cods = [phis for psi, phis in compose_ops if psi == alpha_cod]
        pools = [
            [b for b, (d, c) in ends.items() if P.cell_output[b] == g
             and any(phis[i] == d for phis in doms) and any(phis[i] == c for phis in cods)]
            for i, g in enumerate(P.cell_inputs[alpha])
        ]
        for betas in itertools.product(*pools):
            dom = compose_ops.get((alpha_dom, tuple(ends[b][0] for b in betas)))
            cod = compose_ops.get((alpha_cod, tuple(ends[b][1] for b in betas)))
            if dom is not None and cod is not None:
                cells[(alpha, betas)] = (dom, cod)
    associators = {}
    for (psi, phis), middle in compose_ops.items():
        pools = [[inners for outer, inners in compose_ops if outer == phi] for phi in phis]
        for chis in itertools.product(*pools):
            total = compose_ops.get((middle, tuple(chi for inners in chis for chi in inners)))
            inner = tuple(compose_ops[(phi, c)] for phi, c in zip(phis, chis))
            if total is not None and (psi, inner) in compose_ops:
                associators[(psi, phis, chis)] = total
    return cells, associators


def brute_zigzag_table(left, middle, right_in, right_out) -> dict:
    """The table of a zig-zag's image, element by element from raw tables.

    Each argument maps argument tuples to values: one unary table per left
    leg, then the tables of the middle, right inward and right outward legs.
    The left and right inward tables are inverted by search.  An argument
    tuple holds one value of each left table; it goes back through the left
    inverses into ``middle``, back through ``right_in`` and out through
    ``right_out``.
    """

    def inverse(table: dict) -> dict:
        inv = {}
        for (x,), y in table.items():
            assert y not in inv, f"value {y!r} has two preimages"
            inv[y] = x
        return inv

    lefts = [inverse(table) for table in left]
    back = inverse(right_in)
    return {
        args: right_out[(back[middle[tuple(inv[a] for inv, a in zip(lefts, args))]],)]
        for args in itertools.product(*lefts)
    }


def brute_hom_law_error(doms, cod, table) -> str | None:
    """The first hom-law failure of a table on a product of monoids, or None.

    ``doms`` are the product factors and ``cod`` the codomain, both with
    ``unit``, ``mul`` and ``elements``; ``table`` maps every argument tuple
    to an element of ``cod``.  The unit tuple must go to the unit of
    ``cod``; then every ordered pair of argument tuples, in the table's own
    key order with the left one slowest, must multiply factor by factor to
    an argument tuple whose value is the product of the two values.
    """
    if table[tuple(m.unit for m in doms)] != cod.unit:
        return "hom must preserve the unit"
    for a, b in itertools.product(list(table), repeat=2):
        ab = tuple(m.mul(x, y) for m, x, y in zip(doms, a, b))
        if table[ab] != cod.mul(table[a], table[b]):
            return f"hom breaks multiplication at {a!r}*{b!r}"
    return None


def hand_built_collar_wrappers(b):
    """The four collar-restriction wrappers of a bordism, each built by hand.

    Returns ``(left, middle, right_in, right_out)``: one wrapper per input
    collar including it into its source, the carrier with the collars as
    inputs, the output collar into the carrier, and the output collar into
    the target.  Each is a full-collar bordism written out field by field,
    with no shared constructor; a leg that cannot be built raises
    ``ValueError``.
    """
    pointed_collars = [
        PointedObject(emb.dom, src.surface)
        for src, emb in zip(b.sources, b.maps_in)
    ]
    pointed_out = PointedObject(b.map_out.dom, b.target.surface)
    through = PointedObject(b.carrier, b.out_surface_image)
    left = tuple(
        Bordism(
            (collar,), src, src.carrier,
            (CausalEmbedding.inclusion(src.carrier, frozenset(emb.table)),),
            CausalEmbedding.identity(src.carrier),
        )
        for collar, src, emb in zip(pointed_collars, b.sources, b.maps_in)
    )
    middle = Bordism(
        tuple(pointed_collars), through, b.carrier, b.maps_in,
        CausalEmbedding.identity(b.carrier),
    )
    right_in = Bordism(
        (pointed_out,), through, b.carrier, (b.map_out,),
        CausalEmbedding.identity(b.carrier),
    )
    right_out = Bordism(
        (pointed_out,), b.target, b.target.carrier,
        (CausalEmbedding.inclusion(b.target.carrier, b.out_collar),),
        CausalEmbedding.identity(b.target.carrier),
    )
    return left, middle, right_in, right_out


def brute_least_representatives(items, pairs, key) -> dict:
    """Each item mapped to the least member, under ``key``, of its connected
    component in the undirected graph that ``pairs`` draws on ``items``."""
    items = list(items)
    neighbours: dict = {x: set() for x in items}
    for a, b in pairs:
        neighbours[a].add(b)
        neighbours[b].add(a)
    out: dict = {}
    for start in items:
        if start in out:
            continue
        component, frontier = {start}, [start]
        while frontier:
            x = frontier.pop(0)
            for y in neighbours[x]:
                if y not in component:
                    component.add(y)
                    frontier.append(y)
        least = min(component, key=key)
        for x in component:
            out[x] = least
    return {x: out[x] for x in items}


def brute_translation_classes(aqft) -> tuple[list, list]:
    """The pointed colors and wrapper classes of a region fragment's
    translation window, from a search of all its cells.

    A pointed color is a color with one of its Cauchy antichains, found by
    brute force.  The wrappers are every valid ``wrapper_bordism`` of an
    operation, its input surfaces and a later surface of its target.  Every
    cell between every same-arity pair of wrappers (a wrapper with itself
    included) is searched, a cell whose boundary germs all fix every point
    of their equal ends links its two wrappers, and each component is named
    by its least member under ``str``.  Returns the colors sorted by
    ``str`` and the ``(rep, members)`` of each class, wrappers ordered by
    arity and then by ``str``, each class at its first member.
    """
    def surfaces(M):
        P = OraclePoset.build(M.events, [(a, b) for a in M.events for b in M.events if M.lt(a, b)])
        return [a for a in all_antichains(P) if brute_is_cauchy(P, set(a))]

    colors = sorted((PointedObject(M, s) for M in aqft.colors for s in surfaces(M)), key=str)
    wrappers = set()
    for op in aqft.operations:
        for ins in itertools.product(*(surfaces(m.dom) for m in op.maps)):
            for later in surfaces(op.target):
                b = wrapper_bordism(op, ins, later)
                if validate_bordism(b).ok:
                    wrappers.add(b)
    by_text = sorted(wrappers, key=str)
    ops = [b for n in sorted({b.arity for b in by_text}) for b in by_text if b.arity == n]

    def fixes(germ) -> bool:
        return germ.dom == germ.cod and all(x == y for x, y in germ.pairs)

    links = [(a, b) for a, b in itertools.product(ops, repeat=2) if a.arity == b.arity
             for cell in cells_between(a, b)
             if all(map(fixes, cell.source_germs)) and fixes(cell.target_germ)]
    classes: dict = {}
    for op, least in brute_least_representatives(ops, links, str).items():
        classes.setdefault(least, set()).add(op)
    return colors, [(rep, frozenset(members)) for rep, members in classes.items()]


def brute_unbounded_pair(objects, has):
    """The first pair (a, b), a listed before b, with no object above both
    under the relation ``has``, or None."""
    objects = list(objects)
    for i, a in enumerate(objects):
        for b in objects[i + 1:]:
            if not any(has(a, o) and has(b, o) for o in objects):
                return a, b
    return None


def oracle_groupoid_report(G, name: str = "groupoid") -> Report:
    """``FiniteGroupoid.validate`` by value-level loops.

    The same rows and witnesses as the numbered walk, from a walk on
    values: each composable pair is composed once through the groupoid's own
    composition rule, memoized here by value, then every composable triple
    (f, g, h), f slowest, compares h.(g.f) with (h.g).f.  A value with no
    endpoints has no composite with anything, nor has a pair whose ends do
    not meet (None), and a law that needs one fails.
    """
    memo: dict = {}

    def compose(g, f):
        key = (g, f)
        if key not in memo:
            try:
                ends = G.tgt(f), G.src(g)
            except KeyError:
                return None
            if ends[0] != ends[1]:
                return None
            memo[key] = G._compose(g, f)  # the raw rule, not the numbered table
        return memo[key]

    rep = Report()
    bad: list[str] = []
    for g in G.morphisms:
        if G.src(g) not in G.objects or G.tgt(g) not in G.objects:
            bad.append(f"dangling morphism {g}")
    for obj in G.objects:
        i = G.id(obj)
        try:
            ends = G.src(i), G.tgt(i)
        except KeyError:  # no recorded endpoints
            ends = None
        if ends != (obj, obj):
            bad.append(f"identity of {obj} has wrong endpoints")
    rep.verdict("groupoid/endpoints", name, bad)

    law_bad: list[str] = []
    for g in G.morphisms:
        if compose(g, G.id(G.src(g))) != g:
            law_bad.append(f"right identity at {g}")
        if compose(G.id(G.tgt(g)), g) != g:
            law_bad.append(f"left identity at {g}")
        gi = G.inv(g)
        if compose(gi, g) != G.id(G.src(g)):
            law_bad.append(f"left inverse at {g}")
        if compose(g, gi) != G.id(G.tgt(g)):
            law_bad.append(f"right inverse at {g}")
    by_src: dict = {}
    for g in G.morphisms:
        by_src.setdefault(G.src(g), []).append(g)
    after = {f: by_src.get(G.tgt(f), ()) for f in G.morphisms}
    for f in G.morphisms:
        for g in after[f]:
            compose(g, f)
    for f in G.morphisms:
        for g in after[f]:
            for h in after[g]:
                lhs, rhs = compose(h, compose(g, f)), compose(compose(h, g), f)
                if lhs is None or lhs != rhs:
                    law_bad.append(f"associativity at ({h},{g},{f})")
    rep.verdict("groupoid/laws", name, law_bad)
    return rep


def _identity_cells(P) -> dict:
    """Each operation's identity cell, from the groupoid that holds it."""
    return {op: G.id(op) for G in P.op_groupoids.values() for op in G.objects}


def _ends(P, cell) -> tuple:
    G = P.groupoid_of_cell(cell)
    return G.src(cell), G.tgt(cell)


def _keyed_in_window(P) -> dict:
    """The ``compose_ops`` entries whose key names only window operations;
    the others fail compose-signatures and are read by no other walk."""
    ops = set(P.all_ops())
    return {key: result for key, result in P.compose_ops.items()
            if ops.issuperset((key[0], *key[1]))}


def _legs(P, cell) -> tuple:
    """The legs and output of ``cell``; a cell with no ``cell_inputs`` entry
    has no legs, and one with no ``cell_output`` entry has output None."""
    return P.cell_inputs.get(cell, ()), P.cell_output.get(cell)


def _oracle_cell_boundaries(P, rep: Report) -> set:
    """The boundaries and boundary-functoriality rows; returns the sound cells.

    A cell is sound when its legs and output are recorded, its ends are
    operations of its groupoid, it has one leg per input, and its legs and output are verticals that run between
    the colors its ends demand; only sound cells are composed.
    """
    bad: list[str] = []
    V = P.objects
    colors = set(V.objects)
    # a vertical with an end outside the colors runs between no colors
    runs = {g: (V.src(g), V.tgt(g)) for g in V.morphisms
            if V.src(g) in colors and V.tgt(g) in colors}
    sound: set = set()
    for n in P.arities():
        G = P.op_groupoids[n]
        for op in G.objects:
            ins = P.op_inputs[op]
            if len(ins) != n:
                bad.append(f"arity mismatch at {op}")
            if any(c not in colors for c in ins) or P.op_output[op] not in colors:
                bad.append(f"unknown color at {op}")
        for cell in G.morphisms:
            legs, out = _legs(P, cell)
            dom, cod = G.src(cell), G.tgt(cell)
            if cell not in P.cell_inputs or cell not in P.cell_output:
                bad.append(f"boundary entry missing at {cell}")
                continue
            if len(legs) != n:
                bad.append(f"leg count at {cell}")
                continue
            if any(g not in V.morphisms for g in legs + (out,)):
                bad.append(f"unknown vertical at {cell}")
                continue
            if dom not in G.objects or cod not in G.objects:
                continue  # named by the groupoid's endpoints row
            # an input that an end lacks is no color
            dom_ins, cod_ins = (P.op_inputs[op] + (None,) * n for op in (dom, cod))
            faults = [f"leg {i} endpoints at {cell}" for i, g in enumerate(legs)
                      if runs.get(g) != (dom_ins[i], cod_ins[i])]
            if runs.get(out) != (P.op_output[dom], P.op_output[cod]):
                faults.append(f"output leg endpoints at {cell}")
            bad += faults
            if not faults:
                sound.add(cell)
    rep.verdict("pseudo-operad/boundaries", P.name, bad)

    fun_bad: list[str] = []
    for n in P.arities():
        G = P.op_groupoids[n]
        for op in G.objects:
            i = G.id(op)
            if not P.is_globular(i):
                fun_bad.append(f"identity cell of {op} has moving boundary")
        by_src: dict = {}
        for b in G.morphisms:
            by_src.setdefault(G.src(b), []).append(b)
        for a in G.morphisms:
            for b in by_src.get(G.tgt(a), ()):
                if a not in sound or b not in sound:
                    continue
                c = G.compose(b, a)
                if c not in sound:
                    continue
                want_legs = tuple(
                    V.compose(g2, g1)
                    for g1, g2 in zip(P.cell_inputs[a], P.cell_inputs[b])
                )
                if P.cell_inputs[c] != want_legs or \
                        P.cell_output[c] != V.compose(P.cell_output[b], P.cell_output[a]):
                    fun_bad.append(f"boundary of vertical composite {b} . {a}")
    rep.verdict("pseudo-operad/boundary-functoriality", P.name, fun_bad)
    return sound


def _oracle_composition(P, sound: set, rep: Report) -> None:
    bad: list[str] = []
    for (psi, phis), result in P.compose_ops.items():
        if any(op not in P.op_inputs for op in (psi, *phis, result)):
            bad.append(f"composite entry outside the window at {psi}")
            continue
        if tuple(P.op_output[phi] for phi in phis) != P.op_inputs[psi]:
            bad.append(f"non-composable entry at {psi}")
            continue
        want_inputs = tuple(itertools.chain.from_iterable(P.op_inputs[p] for p in phis))
        if P.op_inputs[result] != want_inputs or P.op_output[result] != P.op_output[psi]:
            bad.append(f"composite signature at {psi}")
    rep.verdict("pseudo-operad/compose-signatures", P.name, bad)

    window = set(P.all_cells())
    cell_bad: list[str] = []
    interchanged = 0
    # entries naming a cell outside the window fail and are left out; the
    # others that pass their own checks on sound cells are stacked
    in_window: dict = {}
    stackable = []
    for (alpha, betas), result in P.compose_cells.items():
        if not window.issuperset((alpha, result, *betas)):
            cell_bad.append(f"cell composite entry outside the window at {alpha}")
            continue
        in_window[(alpha, betas)] = result
        if tuple(_legs(P, b)[1] for b in betas) != _legs(P, alpha)[0]:
            cell_bad.append(f"inner outputs do not feed the legs of {alpha}")
            continue
        faults = []
        (dom_a, cod_a), inner = _ends(P, alpha), [_ends(P, b) for b in betas]
        dom_op = P.compose_ops.get((dom_a, tuple(d for d, _ in inner)))
        cod_op = P.compose_ops.get((cod_a, tuple(c for _, c in inner)))
        if dom_op is not None and cod_op is not None and _ends(P, result) != (dom_op, cod_op):
            faults.append(f"cell composite endpoints at {alpha}")
        want_legs = tuple(itertools.chain.from_iterable(_legs(P, b)[0] for b in betas))
        if _legs(P, result) != (want_legs, _legs(P, alpha)[1]):
            faults.append(f"cell composite boundary at {alpha}")
        cell_bad += faults
        if not faults and sound.issuperset((alpha, result, *betas)):
            stackable.append((alpha, betas, result))
    by_dom_profile: dict = {}
    for a2, bs2, r2 in stackable:
        profile = (_ends(P, a2)[0], tuple(_ends(P, b)[0] for b in bs2))
        by_dom_profile.setdefault(profile, []).append((a2, bs2, r2))
    for a1, bs1, r1 in stackable:
        profile = (_ends(P, a1)[1], tuple(_ends(P, b)[1] for b in bs1))
        for a2, bs2, r2 in by_dom_profile.get(profile, ()):
            G = P.groupoid_of_cell(a1)
            stacked_key = (
                G.compose(a2, a1),
                tuple(P.groupoid_of_cell(b1).compose(b2, b1) for b1, b2 in zip(bs1, bs2)),
            )
            lhs = in_window.get(stacked_key)
            if lhs is None:
                continue
            interchanged += 1
            H = P.groupoid_of_cell(r1)
            rhs = H.compose(r2, r1) if H.tgt(r1) == H.src(r2) else None
            if lhs != rhs:
                cell_bad.append(f"interchange at {a1} / {a2}")

    # a value that is no operation has no identity cell
    identity = _identity_cells(P).get
    for (psi, phis), result in P.compose_ops.items():
        stacked = P.compose_cells.get((identity(psi), tuple(map(identity, phis))))
        if stacked is not None and stacked != identity(result):
            cell_bad.append(f"identity cells compose wrong at {psi}")
    rep.verdict("pseudo-operad/interchange", P.name, cell_bad, {"pairs-checked": interchanged})


def _oracle_units_and_action(P, rep: Report) -> None:
    bad: list[str] = []
    V = P.objects
    for color, u in P.unit_ops.items():
        if color not in V.objects or u not in P.op_inputs:
            bad.append(f"unit entry outside the window at {color}")
        elif P.op_inputs[u] != (color,) or P.op_output[u] != color:
            bad.append(f"unit of {color}")
    window = set(P.all_cells())
    # entries naming a cell or vertical outside the window fail and are left out
    unit_cells = {}
    for g, cell in P.unit_cells.items():
        if cell not in window or g not in V.morphisms:
            bad.append(f"unit cell entry outside the window at {g}")
            continue
        unit_cells[g] = cell
        G = P.groupoid_of_cell(cell)
        if G.src(cell) != P.unit_ops.get(V.src(g)) or G.tgt(cell) != P.unit_ops.get(V.tgt(g)):
            bad.append(f"unit cell endpoints of {g}")
        if _legs(P, cell) != ((g,), g):
            bad.append(f"unit cell boundary of {g}")
    for g1, g2 in itertools.product(unit_cells, repeat=2):
        if V.tgt(g1) != V.src(g2):
            continue
        g = V.compose(g2, g1)
        cells = [unit_cells.get(h) for h in (g, g2, g1)]
        if window.issuperset(cells):
            G = P.groupoid_of_cell(cells[0])
            # unit cells that do not compose in that groupoid have no composite
            composes = all(P.groupoid_of_cell(c) is G for c in cells[1:]) \
                and G.tgt(cells[2]) == G.src(cells[1])
            if not composes or G.compose(cells[1], cells[2]) != cells[0]:
                bad.append(f"unit cell functoriality at {g2} . {g1}")
    rep.verdict("pseudo-operad/units", P.name, bad)

    act_bad: list[str] = []
    for (op, sigma), moved in P.act_ops.items():
        if op not in P.op_inputs:
            act_bad.append(f"action entry outside the window at {op}")
            continue
        if moved not in P.op_inputs:
            act_bad.append(f"action entry outside the window at {op}")
        elif len(P.op_inputs[op]) != len(sigma) \
                or P.op_inputs[moved] != apply_permutation(P.op_inputs[op], sigma) \
                or P.op_output[moved] != P.op_output[op]:
            act_bad.append(f"action signature at {op}")
        if sigma == identity_permutation(len(sigma)) and moved != op:
            act_bad.append(f"identity permutation moved {op}")
        for tau_ in all_permutations(len(sigma)):
            first = P.act_ops.get((moved, tau_))
            total = P.act_ops.get((op, compose_permutations(sigma, tau_)))
            if first is not None and total is not None and first != total:
                act_bad.append(f"action composition at {op}")
    for (cell, sigma), moved in P.act_cells.items():
        if cell not in window or moved not in window:
            act_bad.append(f"cell action entry outside the window at {cell}")
            continue
        legs, out = _legs(P, cell)
        if len(sigma) != len(legs):
            act_bad.append(f"cell action signature at {cell}")
            continue
        if _legs(P, moved) != (apply_permutation(legs, sigma), out):
            act_bad.append(f"cell action boundary at {cell}")
        dom, cod = _ends(P, cell)
        moved_dom = P.act_ops.get((dom, sigma))
        moved_cod = P.act_ops.get((cod, sigma))
        if moved_dom is not None and moved_cod is not None \
                and _ends(P, moved) != (moved_dom, moved_cod):
            act_bad.append(f"cell action endpoints at {cell}")
    rep.verdict("pseudo-operad/action", P.name, act_bad)

    eq_bad: list[str] = []
    eq_checked = 0
    for (psi, phis), composite in _keyed_in_window(P).items():
        n = len(phis)
        arities = tuple(P.arity_of(p) for p in phis)
        for sigma in all_permutations(n):
            moved_psi = P.act_ops.get((psi, sigma))
            if moved_psi is None:
                continue
            lhs = P.compose_ops.get((moved_psi, apply_permutation(phis, sigma)))
            rhs = P.act_ops.get((composite, block_permutation(sigma, arities)))
            if lhs is not None and rhs is not None:
                eq_checked += 1
                if lhs != rhs:
                    eq_bad.append(f"block equivariance at {psi}")
        for taus in itertools.product(*[tuple(all_permutations(k)) for k in arities]):
            moved = tuple(P.act_ops.get((phi, t)) for phi, t in zip(phis, taus))
            if any(m is None for m in moved):
                continue
            lhs = P.compose_ops.get((psi, moved))
            rhs = P.act_ops.get((composite, sum_permutation(taus)))
            if lhs is not None and rhs is not None:
                eq_checked += 1
                if lhs != rhs:
                    eq_bad.append(f"sum equivariance at {psi}")
    rep.verdict("pseudo-operad/equivariance", P.name, eq_bad, {"instances-checked": eq_checked})


def _oracle_coherence(P, rep: Report, max_pentagons: int) -> None:
    """The coherence-boundaries, triangle and pentagon rows, walked on values.

    Every composite, unit, unitor, associator and cell composite is read from
    the window's own tables (composites keyed in the window only, and a
    unitor keyed outside it fails its row), and a key that a table lacks raises
    ``ValueError``; so does a composite entry that is no operation and a
    cell that belongs to no operation groupoid.  Two cells of the window
    compose through ``FiniteGroupoid.compose`` of the groupoid that holds
    them, each path of a pentagon in its own; a composite outside the window
    is compared by value and composed with nothing.  A triangle or pentagon
    instance that raises is skipped.
    """
    identities = _identity_cells(P)
    ops = set(P.all_ops())
    composites = _keyed_in_window(P)

    def vertical(G, g, f):
        if P.groupoid_of_cell(f) is not G or P.groupoid_of_cell(g) is not G:
            raise ValueError("cells of two groupoids do not compose")
        return G.compose(g, f)

    def entry(table, key):
        found = table.get(key)
        if found is None:
            raise ValueError(f"no entry at {key}")
        return found

    def composite(psi, phis):
        op = entry(composites, (psi, tuple(phis)))
        if op not in P.op_inputs:
            raise ValueError(f"composite entry outside the window at {psi}")
        return op

    bad: list[str] = []
    for (psi, phis, chis), cell in P.associators.items():
        flat = tuple(itertools.chain.from_iterable(chis))
        try:
            lhs = composite(composite(psi, phis), flat)
            rhs = composite(psi, tuple(composite(p, c) for p, c in zip(phis, chis)))
        except ValueError:
            bad.append(f"associator over missing composites at {psi}")
            continue
        try:
            G = P.groupoid_of_cell(cell)
        except ValueError:
            bad.append(f"associator entry outside the window at {psi}")
            continue
        if G.src(cell) != lhs or G.tgt(cell) != rhs:
            bad.append(f"associator endpoints at {psi}")
        if not P.is_globular(cell):
            bad.append(f"associator not globular at {psi}")
    def unit(color):
        return entry(P.unit_ops, color)

    sides = (
        ("left", P.left_unitors, lambda op: composite(unit(P.op_output[op]), (op,))),
        ("right", P.right_unitors,
         lambda op: composite(op, tuple(unit(c) for c in P.op_inputs[op]))),
    )
    for side, unitors, pad in sides:
        for op, cell in unitors.items():
            if op not in ops:
                bad.append(f"{side} unitor entry outside the window at {op}")
                continue
            try:
                padded = pad(op)
            except ValueError:
                bad.append(f"{side} unitor over missing composite at {op}")
                continue
            try:
                G = P.groupoid_of_cell(cell)
            except ValueError:
                bad.append(f"{side} unitor entry outside the window at {op}")
                continue
            if G.src(cell) != padded or G.tgt(cell) != op or not P.is_globular(cell):
                bad.append(f"{side} unitor at {op}")
    rep.verdict("pseudo-operad/coherence-boundaries", P.name, bad)

    tri_bad: list[str] = []
    tri_checked = 0
    for psi, phis in composites:
        try:
            units = tuple(entry(P.unit_ops, P.op_output[p]) for p in phis)
            assoc = entry(P.associators, (psi, units, tuple((p,) for p in phis)))
            left = entry(P.compose_cells, (entry(identities, psi),
                                           tuple(entry(P.left_unitors, p) for p in phis)))
            lhs = vertical(P.groupoid_of_cell(assoc), left, assoc)
            rhs = entry(P.compose_cells, (entry(P.right_unitors, psi),
                                          tuple(entry(identities, p) for p in phis)))
        except ValueError:
            continue
        tri_checked += 1
        if lhs != rhs:
            tri_bad.append(f"triangle at {psi}")
    rep.verdict("pseudo-operad/triangle", P.name, tri_bad, {"instances-checked": tri_checked})

    pent_bad: list[str] = []
    pent_checked = 0
    inners_of: dict = {}
    for outer, inners in composites:
        inners_of.setdefault(outer, []).append(inners)
    for (psi, phis, chis), a3 in P.associators.items():
        flat_chis = tuple(itertools.chain.from_iterable(chis))
        pools = [inners_of.get(chi, [])[:2] for chi in flat_chis]
        for omegas_flat in itertools.product(*pools):
            if pent_checked >= max_pentagons:
                break
            # omegas[i][j] is the inner tuple feeding chis[i][j]
            omegas, start = [], 0
            for block in chis:
                omegas.append(tuple(omegas_flat[start:start + len(block)]))
                start += len(block)
            try:
                # path one: reassociate the outer pair first, then the inner pair
                a1 = entry(P.associators, (composite(psi, phis), flat_chis, omegas_flat))
                chi_omega = tuple(tuple(composite(c, o) for c, o in zip(block, omega))
                                  for block, omega in zip(chis, omegas))
                a2 = entry(P.associators, (psi, phis, chi_omega))
                G = P.groupoid_of_cell(a1)
                path_one = vertical(G, a2, a1)
                # path two: through the middle association
                low = entry(P.compose_cells, (a3, tuple(
                    entry(identities, o) for inner in omegas_flat for o in inner)))
                phi_chi = tuple(composite(p, c) for p, c in zip(phis, chis))
                a4 = entry(P.associators, (psi, phi_chi, tuple(
                    tuple(itertools.chain.from_iterable(omega)) for omega in omegas)))
                high = entry(P.compose_cells, (entry(identities, psi), tuple(
                    entry(P.associators, (p, c, o)) for p, c, o in zip(phis, chis, omegas))))
                H = P.groupoid_of_cell(low)
                path_two = vertical(H, high, vertical(H, a4, low))
            except ValueError:
                continue
            pent_checked += 1
            if path_one != path_two:
                pent_bad.append(f"pentagon at {psi}")
        if pent_checked >= max_pentagons:
            break
    rep.verdict("pseudo-operad/pentagon", P.name, pent_bad, {"instances-checked": pent_checked})


def oracle_pseudo_operad_report(P, max_pentagons: int = 512) -> Report:
    """``check_pseudo_operad`` with its groupoid, boundary, composition, unit,
    action and coherence rows walked on values, the way they were before the
    audit walked numbers, reading every entry from the window's tables.  Only
    the coverage row is the package's own."""
    rep = Report()
    rep.extend(oracle_groupoid_report(P.objects, f"{P.name}/objects"))
    for n in P.arities():
        rep.extend(oracle_groupoid_report(P.op_groupoids[n], f"{P.name}/ops[{n}]"))
    _oracle_composition(P, _oracle_cell_boundaries(P, rep), rep)
    _oracle_units_and_action(P, rep)
    _oracle_coherence(P, rep, max_pentagons)
    cov = P.coverage()
    rep.add("pseudo-operad/coverage", P.name, PASS if cov["ops"] else DEGENERATE, witness=cov)
    return rep
