"""Pseudo-operads in finite groupoids, squares, and strict truncation.

A pseudo-operad here keeps its colors and vertical isomorphisms in one
finite groupoid, its n-ary operations and 2-cells in per-arity groupoids,
and all structure (composition, units, symmetric action, coherence cells)
in explicit, possibly partial tables.  The checker walks exactly the
recorded entries and reports coverage, so desk-scale fragments of large
structures can still be audited honestly.

``iota`` fattens an ordinary operad into this shape using commuting
squares as 2-cells; ``tau`` collapses a pseudo-operad back to an operad by
identifying operations connected by globular 2-cells.  Both keep token
identity whenever the mathematics allows, so the round trips demanded by
the strict 2-adjunction hold as equalities of data, not just up to
isomorphism.  ``check_two_adjunction`` fattens through ``_fatten``, which
builds every table of ``iota`` but the cell actions, the associators and
the cell composites whose outer cell has arity 2 or more; its rows read
none of those.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .causal_core import _cached_hash
from .errors import NotFibrant
from .operad_kernel import (
    FiniteGroupoid,
    Numbering,
    Operad,
    _least_representatives,
    all_permutations,
    apply_permutation,
    block_permutation,
    compose_permutations,
    identity_permutation,
    sum_permutation,
)
from .report import DEGENERATE, FAIL, PASS, Report

__all__ = [
    "PseudoOperadData",
    "Square",
    "Companion",
    "check_pseudo_operad",
    "find_companion",
    "iota",
    "tau",
    "tau_full",
    "TauResult",
    "TauOperation",
    "check_two_adjunction",
]


@dataclass
class PseudoOperadData:
    """Partial, table-backed presentation of a pseudo-operad."""

    objects: FiniteGroupoid
    op_groupoids: dict[int, FiniteGroupoid]
    op_inputs: dict
    op_output: dict
    cell_inputs: dict
    cell_output: dict
    compose_ops: dict
    compose_cells: dict
    unit_ops: dict
    unit_cells: dict
    act_ops: dict
    act_cells: dict
    associators: dict = field(default_factory=dict)
    left_unitors: dict = field(default_factory=dict)
    right_unitors: dict = field(default_factory=dict)
    name: str = "pseudo-operad"
    compose_op_fn: Callable | None = None
    act_op_fn: Callable | None = None
    op_link_fn: Callable | None = None

    # -- lookups with honest errors --

    def arities(self) -> tuple[int, ...]:
        return tuple(sorted(self.op_groupoids))

    def all_ops(self, arity: int | None = None) -> tuple:
        if arity is not None:
            return tuple(self.op_groupoids[arity].objects) if arity in self.op_groupoids else ()
        return tuple(
            op for n in self.arities() for op in self.op_groupoids[n].objects
        )

    def all_cells(self, arity: int | None = None) -> tuple:
        if arity is not None:
            return tuple(self.op_groupoids[arity].morphisms) if arity in self.op_groupoids else ()
        return tuple(
            c for n in self.arities() for c in self.op_groupoids[n].morphisms
        )

    def arity_of(self, op) -> int:
        return len(self.op_inputs[op])

    def _entry(self, table: dict, key, missing: str, subject, hook: Callable | None = None):
        """``table[key]``, else the hook's value at ``key``, else ValueError.

        Hook values are cached apart from ``table``: the tables are the
        audited window and must not grow while checkers walk them.
        """
        found = table.get(key)
        if found is not None:
            return found
        if hook is None:
            raise ValueError(missing.format(subject))
        cache = self.__dict__.setdefault("_hook_values", {})
        if (hook, key) not in cache:
            cache[(hook, key)] = hook(*key)
        return cache[(hook, key)]

    def compose_op(self, psi, phis: Sequence):
        return self._entry(self.compose_ops, (psi, tuple(phis)),
                           "operadic composite not materialized at {}", psi, self.compose_op_fn)

    def unit_op(self, color):
        return self._entry(self.unit_ops, color, "unit operation missing for color {}", color)

    def unit_cell(self, vertical):
        return self._entry(self.unit_cells, vertical, "unit cell missing for vertical {}", vertical)

    def act_op(self, op, sigma: Sequence[int]):
        return self._entry(self.act_ops, (op, tuple(sigma)),
                           "action not materialized at {}", op, self.act_op_fn)

    # -- structural helpers --

    def groupoid_of_cell(self, cell) -> FiniteGroupoid:
        """The operation groupoid listing ``cell`` as a morphism, the one of
        highest arity when several do; a value that is no cell raises
        ValueError.  A value a groupoid numbered without listing it (a
        composite outside its morphisms) is no cell of it."""
        for n in reversed(self.arities()):
            G = self.op_groupoids[n]
            if G.numbers.no.get(cell, len(G.morphisms)) < len(G.morphisms):
                return G
        raise ValueError(f"cell {cell} belongs to no operation groupoid")

    def is_identity_vertical(self, g) -> bool:
        try:
            return g == self.objects.id(self.objects.src(g))
        except KeyError:  # g is no vertical
            return False

    def is_globular(self, cell) -> bool:
        return all(self.is_identity_vertical(g) for g in self.cell_inputs.get(cell, ())) \
            and self.is_identity_vertical(self.cell_output.get(cell))

    def coverage(self) -> dict[str, int]:
        return {
            "ops": len(self.all_ops()),
            "cells": len(self.all_cells()),
            "compose-ops": len(self.compose_ops),
            "compose-cells": len(self.compose_cells),
            "associators": len(self.associators),
            "unitors": len(self.left_unitors) + len(self.right_unitors),
            "action-entries": len(self.act_ops) + len(self.act_cells),
        }


@dataclass(frozen=True)
class Square:
    """A 2-cell of the fattened operad: a commuting square of operations."""

    dom: Hashable
    cod: Hashable
    legs: tuple
    out: Hashable

    __hash__ = _cached_hash(lambda self: (Square, self.dom, self.cod, self.legs, self.out))

    def __str__(self) -> str:
        legs = ",".join(str(g) for g in self.legs)
        return f"Sq[{self.dom}=>{self.cod}|({legs});{self.out}]"


@dataclass(frozen=True)
class Companion:
    vertical: Hashable
    op: Hashable
    unit_binding: Hashable   # cell op => unit, over (vertical, id)
    counit_binding: Hashable  # cell unit => op, over (id, vertical)


# ---- tables derived from a window's composites ----------------------------------


def _inner_tuples(compose_ops: Mapping) -> dict:
    """Each outer operation's inner tuples, in table order."""
    inners_of: dict = {}
    for outer, inners in compose_ops:
        inners_of.setdefault(outer, []).append(inners)
    return inners_of


def _cell_composites(P: PseudoOperadData, compose_ops: Mapping,
                     arities: Iterable[int] | None = None) -> Iterator[tuple]:
    """The cell composites that ``compose_ops`` calls for, in window cell order.

    Yields ``(alpha, betas, dom, cod)`` for each cell alpha of ``P`` whose
    arity is among ``arities`` (all of ``P``'s by default), and each
    pick ``betas`` of one cell per input, whose output vertical is alpha's
    leg there, such that ``dom``, the composite of alpha's domain with the
    betas' domains, and ``cod``, that of the codomains, are entries of
    ``compose_ops``.  Ends, legs and output verticals are read from ``P``'s
    tables.  Inner cells are joined on the composites: the inner cells of
    each slot are walked in window order, and a branch is cut as soon as its
    inner doms, or its inner cods, begin no inner tuple of an entry.  So only
    picks that are kept are met, in the order of the full product walk.
    """
    # the composites as a trie over (outer, inner_1, ..., inner_n): the node
    # at the end of a path is the composite
    trie: dict = {}
    for (psi, phis), composite in compose_ops.items():
        node, path = trie, (psi, *phis)
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = composite
    # each cell with its ends, by arity in window order, and by output vertical
    cells: dict = {}
    feeding: dict = {}
    for n in P.arities():
        G = P.op_groupoids[n]
        cells[n] = [(c, G.src(c), G.tgt(c)) for c in G.morphisms]
        for cell in cells[n]:
            feeding.setdefault(P.cell_output[cell[0]], []).append(cell)

    def join(pools: list, dom, cod, betas: tuple) -> Iterator[tuple]:
        if len(betas) == len(pools):
            yield betas, dom, cod
            return
        for beta, beta_dom, beta_cod in pools[len(betas)]:
            d = dom.get(beta_dom)
            c = None if d is None else cod.get(beta_cod)
            if c is not None:
                yield from join(pools, d, c, betas + (beta,))

    outer = (alpha for n in (P.arities() if arities is None else arities)
             for alpha in cells.get(n, ()))
    for alpha, alpha_dom, alpha_cod in outer:
        dom, cod = trie.get(alpha_dom), trie.get(alpha_cod)
        if dom is not None and cod is not None:
            pools = [feeding.get(g, ()) for g in P.cell_inputs[alpha]]
            for betas, d, c in join(pools, dom, cod, ()):
                yield alpha, betas, d, c


def _associator_triples(compose_ops: Mapping) -> Iterator[tuple]:
    """The nestings of entries whose two bracketings are entries, in table order.

    Yields ``(psi, phis, chis, total)`` for each entry ``(psi, phis) ->
    middle`` and each pick of entries ``(phi_i, chis_i)``, such that
    ``(middle, chis joined) -> total`` and psi with the composites of the
    ``(phi_i, chis_i)`` are entries.
    """
    inners_of = _inner_tuples(compose_ops)
    for (psi, phis), middle in compose_ops.items():
        for chis in itertools.product(*[inners_of.get(phi, ()) for phi in phis]):
            total = compose_ops.get((middle, tuple(itertools.chain.from_iterable(chis))))
            if total is not None and \
                    (psi, tuple(map(compose_ops.get, zip(phis, chis)))) in compose_ops:
                yield psi, phis, chis, total


# ---- validity checking ---------------------------------------------------------


class _Numbered:
    """A pseudo-operad's verticals, operations, cells and tables as numbers.

    Verticals are numbered by ``P.objects.numbers``; operations (``ops``)
    and cells (``cells``) by a :class:`Numbering` each, in arity order, then
    in the tuple order of their groupoid, and then any other value, such as
    a cell's dangling end or a stray table entry, as it is met.  So two
    numbers are equal exactly when their values are, and the window's
    operations and cells are the numbers below ``op_count`` and
    ``cell_count``.  ``ins``, ``out``, ``dom`` and ``cod`` hold each cell's
    legs, output leg and ends, ``globular`` whether its legs and output are
    identities, and ``after[a][b]`` the vertical composite b.a when it is
    a window cell.  ``composites`` (less the
    entries keyed outside the window), ``cell_composites``, ``units`` (by
    color), ``associators`` and the unitors are ``P``'s tables on numbers,
    in table order, and ``identity`` maps each operation to its identity
    cell.

    A cell is ``sound`` when its ``cell_inputs`` and ``cell_output``
    entries are recorded, its ends are objects of its groupoid, it has one
    leg per input, and its legs and output are verticals that run between
    the colors its ends demand: leg i from input i of its domain to input i
    of its codomain, the output from output to output.  A missing entry
    reads as no legs, or as an output that is no vertical.  ``faults``
    are the ``pseudo-operad/boundaries`` texts in walk order; a cell with
    dangling ends is named by its groupoid's endpoints row instead.
    """

    def __init__(self, P: PseudoOperadData):
        V = P.objects
        color = {obj: i for i, obj in enumerate(V.objects)}
        vsrc, vtgt = V.ends()
        verticals = len(V.morphisms)
        # a vertical is an identity when it is the identity of its source
        identities = [V.numbers.number(V.id(obj)) for obj in V.objects]
        is_identity = [s < len(identities) and identities[s] == g for g, s in enumerate(vsrc)]
        self.vert_after = V.table()
        self.ops = Numbering(P.all_ops())
        self.op_count = len(self.ops)
        self.cells = Numbering(P.all_cells())
        self.cell_count = len(self.cells)
        self.ins: list[tuple[int, ...]] = []
        self.out: list[int] = []
        self.dom: list[int] = []
        self.cod: list[int] = []
        self.sound: list[bool] = []
        self.globular: list[bool] = []
        self.faults: list[str] = []
        self.after: list[dict[int, int]] = []
        self.home: list[tuple[FiniteGroupoid, int]] = []  # groupoid, its first cell
        self.identity: dict[int, int] = {}
        faults, op, cell = self.faults, self.ops.number, self.cells.number
        signature: list[tuple[tuple[int, ...], int]] = []  # by operation number
        for n in P.arities():
            G = P.op_groupoids[n]
            for o in G.objects:
                ins = tuple(color.get(c, -1) for c in P.op_inputs[o])
                out = color.get(P.op_output[o], -1)
                if len(ins) != n:
                    faults.append(f"arity mismatch at {o}")
                if min(ins + (out,)) < 0:
                    faults.append(f"unknown color at {o}")
                # an input that the operation lacks is no color, so no leg
                # runs from or to it
                signature.append(((ins + (-1,) * n)[:n], out))
            src, tgt = G.ends()
            base = len(self.ins)
            self.home += [(G, base)] * len(G.morphisms)
            for i, c in enumerate(G.morphisms):
                legs = tuple(map(V.numbers.number, P.cell_inputs.get(c, ())))
                out = V.numbers.number(P.cell_output.get(c))
                dom, cod = op(G.src(c)), op(G.tgt(c))
                self.ins.append(legs)
                self.out.append(out)
                self.dom.append(dom)
                self.cod.append(cod)
                self.globular.append(all(g < verticals and is_identity[g] for g in legs + (out,)))
                sound = False
                if c not in P.cell_inputs or c not in P.cell_output:
                    faults.append(f"boundary entry missing at {c}")
                elif len(legs) != n:
                    faults.append(f"leg count at {c}")
                elif max(legs + (out,)) >= verticals:
                    faults.append(f"unknown vertical at {c}")
                elif max(src[i], tgt[i]) < len(G.objects):
                    (dom_ins, dom_out), (cod_ins, cod_out) = signature[dom], signature[cod]
                    known = len(faults)
                    faults.extend(f"leg {k} endpoints at {c}" for k, g in enumerate(legs)
                                  if vsrc[g] != dom_ins[k] or vtgt[g] != cod_ins[k])
                    if vsrc[out] != dom_out or vtgt[out] != cod_out:
                        faults.append(f"output leg endpoints at {c}")
                    sound = len(faults) == known
                self.sound.append(sound)
            count = len(G.morphisms)
            self.after.extend({base + g: base + gf for g, gf in row.items() if gf < count}
                              for row in G.table())
            self.identity.update((op(o), cell(G.id(o))) for o in G.objects)
        # an entry keyed outside the window fails compose-signatures and is
        # read by no walk
        composites = {(op(psi), tuple(map(op, phis))): op(result)
                      for (psi, phis), result in P.compose_ops.items()}
        self.composites = {key: result for key, result in composites.items()
                           if max((key[0], *key[1])) < self.op_count}
        self.cell_composites = {(cell(alpha), tuple(map(cell, betas))): cell(result)
                                for (alpha, betas), result in P.compose_cells.items()}
        self.units = {c: op(u) for c, u in P.unit_ops.items()}
        self.associators = {
            (op(psi), tuple(map(op, phis)), tuple(tuple(map(op, chi)) for chi in chis)): cell(a)
            for (psi, phis, chis), a in P.associators.items()}
        self.left_unitors = {op(o): cell(c) for o, c in P.left_unitors.items()}
        self.right_unitors = {op(o): cell(c) for o, c in P.right_unitors.items()}

    def vertical(self, f: int | None, g: int | None) -> int | None:
        """The number of the vertical composite g.f, or None when f or g is no
        window cell or the two do not compose in one groupoid.  A composite
        outside the window is numbered by its value, like any other value a
        table names, so it compares by value and composes with nothing."""
        if f is None or g is None or max(f, g) >= self.cell_count:
            return None
        (G, base), (H, _) = self.home[f], self.home[g]
        src, tgt = G.ends()
        if G is not H or tgt[f - base] != src[g - base]:
            return None
        gf = G.composite(g - base, f - base)
        return base + gf if gf < len(G.morphisms) else self.cells.number(G.numbers[gf])


def _check_cell_boundaries(P: PseudoOperadData, N: _Numbered, rep: Report) -> None:
    rep.verdict("pseudo-operad/boundaries", P.name, N.faults)

    fun_bad: list[str] = []
    ins, out, sound, after, vert_after = N.ins, N.out, N.sound, N.after, N.vert_after
    getitem = dict.__getitem__
    base = 0
    for n in P.arities():
        G = P.op_groupoids[n]
        for op in G.objects:
            if not N.globular[N.identity[N.ops.no[op]]]:
                fun_bad.append(f"identity cell of {op} has moving boundary")
        cells = [c for c in range(base, base + len(G.morphisms)) if sound[c]]
        by_dom: dict[int, list[int]] = {}
        for c in cells:
            by_dom.setdefault(N.dom[c], []).append(c)
        for a in cells:
            # sound cells that compose have legs that compose
            leg_rows = [vert_after[g] for g in ins[a]]
            out_row = vert_after[out[a]]
            row = after[a]
            for b in by_dom.get(N.cod[a], ()):
                c = row.get(b)
                if c is None or not sound[c]:
                    continue
                if ins[c] != tuple(map(getitem, leg_rows, ins[b])) \
                        or out[c] != out_row[out[b]]:
                    fun_bad.append(f"boundary of vertical composite {N.cells[b]} . {N.cells[a]}")
        base += len(G.morphisms)
    rep.verdict("pseudo-operad/boundary-functoriality", P.name, fun_bad)


def _check_composition(P: PseudoOperadData, N: _Numbered, rep: Report) -> None:
    bad: list[str] = []
    for (psi, phis), result in P.compose_ops.items():
        if not all(op in P.op_inputs for op in (psi, *phis, result)):
            bad.append(f"composite entry outside the window at {psi}")
            continue
        if tuple(P.op_output[phi] for phi in phis) != P.op_inputs[psi]:
            bad.append(f"non-composable entry at {psi}")
            continue
        want_inputs = tuple(itertools.chain.from_iterable(P.op_inputs[p] for p in phis))
        if P.op_inputs[result] != want_inputs or P.op_output[result] != P.op_output[psi]:
            bad.append(f"composite signature at {psi}")
    rep.verdict("pseudo-operad/compose-signatures", P.name, bad)

    ins, out, dom, cod, sound = N.ins, N.out, N.dom, N.cod, N.sound
    composites, cell_composites, window = N.composites, N.cell_composites, N.cell_count
    cell_bad: list[str] = []
    # the entries whose cells all lie in the window and that pass their own
    # checks on sound cells are stacked
    stackable = []
    for (a, bs), r in cell_composites.items():
        if max(a, r, *bs) >= window:
            cell_bad.append(f"cell composite entry outside the window at {N.cells[a]}")
            continue
        alpha = N.cells[a]
        if tuple(out[b] for b in bs) != ins[a]:
            cell_bad.append(f"inner outputs do not feed the legs of {alpha}")
            continue
        known = len(cell_bad)
        dom_op = composites.get((dom[a], tuple(dom[b] for b in bs)))
        cod_op = composites.get((cod[a], tuple(cod[b] for b in bs)))
        if dom_op is not None and cod_op is not None and (dom[r], cod[r]) != (dom_op, cod_op):
            cell_bad.append(f"cell composite endpoints at {alpha}")
        want_legs = tuple(itertools.chain.from_iterable(ins[b] for b in bs))
        if ins[r] != want_legs or out[r] != out[a]:
            cell_bad.append(f"cell composite boundary at {alpha}")
        if len(cell_bad) == known and sound[a] and sound[r] and all(map(sound.__getitem__, bs)):
            stackable.append((a, bs, r))
    by_dom_profile: dict = {}
    for a2, bs2, r2 in stackable:
        profile = (dom[a2], tuple(dom[b] for b in bs2))
        by_dom_profile.setdefault(profile, []).append((a2, bs2, r2))
    after, get = N.after, dict.get
    interchanged = 0
    for a1, bs1, r1 in stackable:
        profile = (cod[a1], tuple(cod[b] for b in bs1))
        row_a1, rows_bs1 = after[a1], [after[b] for b in bs1]
        for a2, bs2, r2 in by_dom_profile.get(profile, ()):
            # a stacked cell, or its recorded composite, outside the window
            # has no entry
            lhs = cell_composites.get((row_a1.get(a2), tuple(map(get, rows_bs1, bs2))))
            if lhs is None or lhs >= window:
                continue
            interchanged += 1
            if lhs != after[r1].get(r2):
                cell_bad.append(f"interchange at {N.cells[a1]} / {N.cells[a2]}")
    identity = N.identity
    for (psi, phis), result in composites.items():
        stacked = cell_composites.get((identity.get(psi), tuple(map(identity.get, phis))))
        if stacked is not None and stacked != identity.get(result):
            cell_bad.append(f"identity cells compose wrong at {N.ops[psi]}")
    rep.verdict("pseudo-operad/interchange", P.name, cell_bad, {"pairs-checked": interchanged})


def _check_units_and_action(P: PseudoOperadData, N: _Numbered, rep: Report) -> None:
    bad: list[str] = []
    V = P.objects
    colors = set(V.objects)
    for color, u in P.unit_ops.items():
        if color not in colors or u not in P.op_inputs:
            bad.append(f"unit entry outside the window at {color}")
        elif P.op_inputs[u] != (color,) or P.op_output[u] != color:
            bad.append(f"unit of {color}")
    # a unit cell entry that names no window cell or vertical fails here and
    # is composed with nothing; cells that do not compose have no composite
    vsrc, vtgt = V.ends()
    units: dict[int, int] = {}  # vertical number -> unit cell number
    for g, cell in P.unit_cells.items():
        c, v = N.cells.number(cell), V.numbers.number(g)
        if c >= N.cell_count or v >= len(V.morphisms):
            bad.append(f"unit cell entry outside the window at {g}")
            continue
        units[v] = c
        if (N.dom[c], N.cod[c]) != (N.units.get(V.src(g)), N.units.get(V.tgt(g))):
            bad.append(f"unit cell endpoints of {g}")
        if N.ins[c] != (v,) or N.out[c] != v:
            bad.append(f"unit cell boundary of {g}")
    for v1, v2 in itertools.product(units, repeat=2):
        v = V.composite(v2, v1) if vtgt[v1] == vsrc[v2] else None
        if v in units and N.after[units[v1]].get(units[v2]) != units[v]:
            bad.append(f"unit cell functoriality at {V.morphisms[v2]} . {V.morphisms[v1]}")
    rep.verdict("pseudo-operad/units", P.name, bad)

    act_bad: list[str] = []
    for (op, sigma), moved in P.act_ops.items():
        # an entry keyed outside the window is read by no walk
        if op not in P.op_inputs:
            act_bad.append(f"action entry outside the window at {op}")
            continue
        ins = P.op_inputs[op]
        if moved not in P.op_inputs:
            act_bad.append(f"action entry outside the window at {op}")
        elif len(ins) != len(sigma) or P.op_inputs[moved] != apply_permutation(ins, sigma) \
                or P.op_output[moved] != P.op_output[op]:
            act_bad.append(f"action signature at {op}")
        if sigma == identity_permutation(len(sigma)) and moved != op:
            act_bad.append(f"identity permutation moved {op}")
        for tau_ in all_permutations(len(sigma)):
            first = P.act_ops.get((moved, tau_))
            total = P.act_ops.get((op, compose_permutations(sigma, tau_)))
            if first is not None and total is not None and first != total:
                act_bad.append(f"action composition at {op}")
    op_number, cell_number = N.ops.number, N.cells.number
    act_ops = {(op_number(op), sigma): op_number(moved)
               for (op, sigma), moved in P.act_ops.items()}
    for (cell, sigma), moved in P.act_cells.items():
        c, m = cell_number(cell), cell_number(moved)
        if max(c, m) >= N.cell_count:
            act_bad.append(f"cell action entry outside the window at {cell}")
            continue
        if len(sigma) != len(N.ins[c]):
            act_bad.append(f"cell action signature at {cell}")
            continue
        if N.ins[m] != apply_permutation(N.ins[c], sigma) or N.out[m] != N.out[c]:
            act_bad.append(f"cell action boundary at {cell}")
        moved_dom = act_ops.get((N.dom[c], sigma))
        moved_cod = act_ops.get((N.cod[c], sigma))
        if moved_dom is not None and moved_cod is not None \
                and (N.dom[m], N.cod[m]) != (moved_dom, moved_cod):
            act_bad.append(f"cell action endpoints at {cell}")
    rep.verdict("pseudo-operad/action", P.name, act_bad)

    eq_bad: list[str] = []
    eq_checked = 0
    for (psi, phis), composite in P.compose_ops.items():
        if max((N.ops.no[psi], *map(N.ops.no.__getitem__, phis))) >= N.op_count:
            continue  # keyed outside the window
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


def _check_coherence(P: PseudoOperadData, N: _Numbered, rep: Report, max_pentagons: int) -> None:
    associators, cell_composites, identity = N.associators, N.cell_composites, N.identity
    dom, cod, globular, window, ops = N.dom, N.cod, N.globular, N.cell_count, N.ops

    def composite(psi, phis: tuple) -> int | None:
        # a composite entry that is no operation fails compose-signatures and
        # is composed with nothing
        op = N.composites.get((psi, phis))
        return op if op is not None and op < N.op_count else None

    # an associator or unitor that is no window cell fails here; the triangle
    # and the pentagon find no composite with it and skip their instance
    bad: list[str] = []
    for (psi, phis, chis), c in associators.items():
        lhs = composite(composite(psi, phis), tuple(itertools.chain.from_iterable(chis)))
        rhs = composite(psi, tuple(map(composite, phis, chis)))
        if lhs is None or rhs is None:
            bad.append(f"associator over missing composites at {ops[psi]}")
        elif c >= window:
            bad.append(f"associator entry outside the window at {ops[psi]}")
        else:
            if (dom[c], cod[c]) != (lhs, rhs):
                bad.append(f"associator endpoints at {ops[psi]}")
            if not globular[c]:
                bad.append(f"associator not globular at {ops[psi]}")
    # a unitor runs from the operation padded by units to the operation; a
    # unit entry that is no operation begins no recorded composite
    unit = N.units.get
    sides = (
        ("left", N.left_unitors, lambda op: composite(unit(P.op_output[ops[op]]), (op,))),
        ("right", N.right_unitors,
         lambda op: composite(op, tuple(map(unit, P.op_inputs[ops[op]])))),
    )
    for side, unitors, pad in sides:
        for op, c in unitors.items():
            if op >= N.op_count:
                bad.append(f"{side} unitor entry outside the window at {ops[op]}")
                continue
            padded = pad(op)
            if padded is None:
                bad.append(f"{side} unitor over missing composite at {ops[op]}")
            elif c >= window:
                bad.append(f"{side} unitor entry outside the window at {ops[op]}")
            elif dom[c] != padded or cod[c] != op or not globular[c]:
                bad.append(f"{side} unitor at {ops[op]}")
    rep.verdict("pseudo-operad/coherence-boundaries", P.name, bad)

    # an instance whose cells are not all recorded, or do not compose, is
    # skipped
    tri_bad: list[str] = []
    tri_checked = 0
    for psi, phis in N.composites:
        units = tuple(unit(P.op_output[ops[p]]) for p in phis)
        assoc = associators.get((psi, units, tuple((p,) for p in phis)))
        lefts = tuple(map(N.left_unitors.get, phis))
        lhs = N.vertical(assoc, cell_composites.get((identity.get(psi), lefts)))
        rhs = cell_composites.get((N.right_unitors.get(psi), tuple(map(identity.get, phis))))
        if lhs is None or rhs is None:
            continue
        tri_checked += 1
        if lhs != rhs:
            tri_bad.append(f"triangle at {ops[psi]}")
    rep.verdict("pseudo-operad/triangle", P.name, tri_bad, {"instances-checked": tri_checked})

    # each associator extended downward by one more layer of recorded
    # composites, the first two inner tuples of each
    pent_bad: list[str] = []
    pent_checked = 0
    inners_of = _inner_tuples(N.composites)
    for (psi, phis, chis), a3 in associators.items():
        flat_chis = tuple(itertools.chain.from_iterable(chis))
        pools = [inners_of.get(chi, [])[:2] for chi in flat_chis]
        for flat_omegas in itertools.product(*pools):
            if pent_checked >= max_pentagons:
                break
            # omegas[i][j] is the inner tuple feeding chis[i][j]
            blocks = iter(flat_omegas)
            omegas = tuple(tuple(itertools.islice(blocks, len(chi))) for chi in chis)
            # path one: reassociate the outer pair first, then the inner pair
            a1 = associators.get((composite(psi, phis), flat_chis, flat_omegas))
            chi_omega = tuple(tuple(map(composite, chi, omega)) for chi, omega in zip(chis, omegas))
            path_one = N.vertical(a1, associators.get((psi, phis, chi_omega)))
            # path two: through the middle association
            low = cell_composites.get((a3, tuple(
                identity.get(o) for o in itertools.chain.from_iterable(flat_omegas))))
            a4 = associators.get((psi, tuple(map(composite, phis, chis)), tuple(
                tuple(itertools.chain.from_iterable(omega)) for omega in omegas)))
            high = cell_composites.get((identity.get(psi), tuple(
                associators.get(key) for key in zip(phis, chis, omegas))))
            path_two = N.vertical(N.vertical(low, a4), high)
            if path_one is None or path_two is None:
                continue
            pent_checked += 1
            if path_one != path_two:
                pent_bad.append(f"pentagon at {ops[psi]}")
    rep.verdict("pseudo-operad/pentagon", P.name, pent_bad, {"instances-checked": pent_checked})


def check_pseudo_operad(P: PseudoOperadData, max_pentagons: int = 512) -> Report:
    """Audit all materialized pseudo-operad structure, recording coverage.

    The groupoid, boundary, interchange and coherence rows, and the cell
    halves of the units and action rows, are walked on numbers: each call
    numbers P's verticals, operations, cells and tables once and reads
    vertical composites from the groupoids' tables.  The compose-signatures
    and equivariance rows, and the operation halves of the units and action
    rows, read ``compose_ops``, ``unit_ops`` and ``act_ops`` by value.  Only recorded entries are read, none through a
    hook, so an entry a table lacks leaves its instance unchecked.  Numbers
    are turned back into the objects only to write a witness, so the report
    is the one the same walk on values writes.  Soundness is decided once: a
    cell is sound when its legs and output are recorded, its ends are
    operations of its groupoid, it has one leg per input, and its legs and
    output are verticals that run between the colors its ends demand.  An
    unsound cell fails the boundaries row (or its groupoid's endpoints row)
    and the walks compose sound cells only.  A ``compose_cells`` or
    ``act_cells`` entry that names a cell outside the window fails its own
    row and is left out of the walks, and so does an entry of any table
    whose key names nothing in the window (an operation, color, vertical or
    cell outside it, or a cell permutation of the wrong length); a
    ``compose_cells`` entry that fails its own checks is not stacked in the
    interchange.  The triangle and the pentagon compose cells of one
    groupoid; a composite outside the window compares by value and is
    composed with nothing.
    """
    rep = Report()
    rep.extend(P.objects.validate(name=f"{P.name}/objects"))
    for n in P.arities():
        rep.extend(P.op_groupoids[n].validate(name=f"{P.name}/ops[{n}]"))
    N = _Numbered(P)
    _check_cell_boundaries(P, N, rep)
    _check_composition(P, N, rep)
    _check_units_and_action(P, N, rep)
    _check_coherence(P, N, rep, max_pentagons)
    cov = P.coverage()
    rep.add("pseudo-operad/coverage", P.name, PASS if cov["ops"] else DEGENERATE,
            witness=cov)
    return rep


# ---- companions -----------------------------------------------------------------


def find_companion(P: PseudoOperadData, vertical) -> Companion:
    """Locate a horizontal companion for a vertical isomorphism.

    Searches the materialized 1-ary cells for an operation with binding
    cells satisfying both companion identities; raises NotFibrant when the
    tables contain none.
    """
    c0, c1 = P.objects.src(vertical), P.objects.tgt(vertical)
    G = P.op_groupoids.get(1)
    if G is None:
        raise NotFibrant(f"no unary operations at all, no companion for {vertical}")
    u0, u1 = P.unit_op(c0), P.unit_op(c1)
    id0 = P.objects.id(c0)
    id1 = P.objects.id(c1)
    candidates = []
    for op in G.objects:
        if P.op_inputs[op] != (c0,) or P.op_output[op] != c1:
            continue
        pluses = [
            cell for cell in G.morphisms
            if G.src(cell) == op and G.tgt(cell) == u1
            and P.cell_inputs[cell] == (vertical,) and P.cell_output[cell] == id1
        ]
        minuses = [
            cell for cell in G.morphisms
            if G.src(cell) == u0 and G.tgt(cell) == op
            and P.cell_inputs[cell] == (id0,) and P.cell_output[cell] == vertical
        ]
        for plus, minus in itertools.product(pluses, minuses):
            if G.compose(plus, minus) != P.unit_cell(vertical):
                continue
            zigzag = P.compose_cells.get((plus, (minus,)))
            left, right = P.left_unitors.get(op), P.right_unitors.get(op)
            if zigzag is None or left is None or right is None:
                continue
            chain = G.compose(left, G.compose(zigzag, G.inv(right)))
            if chain == G.id(op):
                candidates.append(Companion(vertical, op, plus, minus))
    if not candidates:
        raise NotFibrant(f"no companion found for vertical {vertical}")
    return min(candidates, key=lambda comp: str(comp.op))


# ---- fattening an operad -----------------------------------------------------------


# how many squares of one arity iota may enumerate
_MAX_SQUARES_PER_ARITY = 100_000


def _invertible_unaries(O: Operad) -> dict:
    """Map each invertible 1-ary operation to its inverse."""
    unaries = O.ops(1)
    inverses: dict = {}
    for g in unaries:
        for h in unaries:
            if h.inputs != (g.output,) or h.output != g.inputs[0]:
                continue
            if O.compose(g, (h,)) == O.unit(g.output) and O.compose(h, (g,)) == O.unit(g.inputs[0]):
                inverses[g] = h
                break
    return inverses


def _record_square_composites(P: PseudoOperadData, arities: Iterable[int]) -> None:
    """Record in ``P.compose_cells`` the square composites of the cells of
    ``arities`` with their inner cells, in :func:`_cell_composites`' order."""
    for alpha, betas, dom, cod in _cell_composites(P, P.compose_ops, arities):
        legs = tuple(itertools.chain.from_iterable(b.legs for b in betas))
        P.compose_cells[(alpha, betas)] = Square(dom, cod, legs, alpha.out)


def _fatten(O: Operad) -> PseudoOperadData:
    """``iota(O)`` without the tables that the 2-adjunction never reads.

    The verticals, squares and operation groupoids, the cell ends,
    ``compose_ops``, the units and unit cells, ``act_ops`` and the unitors
    are ``iota(O)``'s.  The cell composites are those whose outer cell has
    arity at most 1: they begin :func:`_cell_composites`' walk, and they
    hold every zig-zag that :func:`find_companion` reads.  ``act_cells``
    and ``associators`` stay empty.
    """
    inverses = _invertible_unaries(O)
    verticals = tuple(inverses)
    objects = FiniteGroupoid(
        O.colors,
        verticals,
        {g: g.inputs[0] for g in verticals},
        {g: g.output for g in verticals},
        lambda g2, g1: O.compose(g2, (g1,)),
        {c: O.unit(c) for c in O.colors},
        inverses,
    )

    op_groupoids: dict[int, FiniteGroupoid] = {}
    cell_inputs: dict = {}
    cell_output: dict = {}
    op_inputs = {op: op.inputs for op in O.operations}
    op_output = {op: op.output for op in O.operations}
    verts_from: dict = {}
    for g in verticals:
        verts_from.setdefault(g.inputs[0], []).append(g)

    for n in O.arities:
        ops_n = O.ops(n)
        squares: list[Square] = []
        for dom, cod in itertools.product(ops_n, repeat=2):
            leg_pools = [[g for g in verts_from.get(a, []) if g.output == b]
                         for a, b in zip(dom.inputs, cod.inputs)]
            out_pool = [g for g in verts_from.get(dom.output, []) if g.output == cod.output]
            for legs in itertools.product(*leg_pools):
                for out in out_pool:
                    if O.compose(cod, legs) == O.compose(out, (dom,)):
                        squares.append(Square(dom, cod, tuple(legs), out))
                        if len(squares) > _MAX_SQUARES_PER_ARITY:
                            raise ValueError("square enumeration overflow in iota")
        ident = {
            op: Square(op, op, tuple(O.unit(c) for c in op.inputs), O.unit(op.output))
            for op in ops_n
        }

        def compose_squares(b: Square, a: Square) -> Square:
            legs = tuple(
                O.compose(g2, (g1,)) for g1, g2 in zip(a.legs, b.legs)
            )
            return Square(a.dom, b.cod, legs, O.compose(b.out, (a.out,)))

        def invert_square(a: Square) -> Square:
            return Square(a.cod, a.dom, tuple(inverses[g] for g in a.legs), inverses[a.out])

        op_groupoids[n] = FiniteGroupoid(
            ops_n,
            squares,
            {s: s.dom for s in squares},
            {s: s.cod for s in squares},
            compose_squares,
            ident,
            invert_square,
        )
        for s in squares:
            cell_inputs[s] = s.legs
            cell_output[s] = s.out

    window = set(O.operations)
    signatures = {(op.inputs, op.output) for op in O.operations}
    compose_ops: dict = {}
    for psi in O.operations:
        for phis in O.composable_inner_tuples(psi):
            flat = tuple(itertools.chain.from_iterable(phi.inputs for phi in phis))
            if (flat, psi.output) not in signatures:
                continue
            composite = O.compose(psi, phis)
            if composite in window:
                compose_ops[(psi, phis)] = composite

    unit_ops = {c: O.unit(c) for c in O.colors}
    unit_cells = {
        g: Square(O.unit(g.inputs[0]), O.unit(g.output), (g,), g) for g in verticals
    }

    act_ops = {(op, sigma): O.act(op, sigma)
               for op in O.operations for sigma in all_permutations(len(op.inputs))}

    unitors = {op: op_groupoids[len(op.inputs)].id(op) for op in O.operations}
    P = PseudoOperadData(
        objects=objects,
        op_groupoids=op_groupoids,
        op_inputs=op_inputs,
        op_output=op_output,
        cell_inputs=cell_inputs,
        cell_output=cell_output,
        compose_ops=compose_ops,
        compose_cells={},
        unit_ops=unit_ops,
        unit_cells=unit_cells,
        act_ops=act_ops,
        act_cells={},
        left_unitors=unitors,
        right_unitors=dict(unitors),
        name=f"iota({O.name})",
        compose_op_fn=lambda psi, phis: O.compose(psi, phis),
        act_op_fn=lambda op, sigma: O.act(op, sigma),
    )
    _record_square_composites(P, (0, 1))
    return P


def iota(O: Operad) -> PseudoOperadData:
    """Fatten an operad: vertical cells are invertible unaries, 2-cells are squares.

    Only the window ``O.operations`` is tabulated: a composite of operations,
    of cells or of nested operations is recorded when its operations lie in
    the window.  A tuple is composed only when some window operation has its
    flattened signature, the inner inputs joined with the outer output:
    ``O.compose`` refuses any result of another signature, so a tuple skipped
    this way has no composite in the window.  Cell composites and
    associators are read off the window's composites by
    :func:`_cell_composites` and :func:`_associator_triples`; an associator
    is the identity cell of its total composite.  :func:`_fatten` builds all
    but the cell actions, the associators and the cell composites whose outer
    cell has arity 2 or more, which are added here, so that the cell
    composites keep the walk's order.
    """
    P = _fatten(O)
    for n in P.arities():
        for s in P.op_groupoids[n].morphisms:
            for sigma in all_permutations(n):
                P.act_cells[(s, sigma)] = Square(
                    O.act(s.dom, sigma),
                    O.act(s.cod, sigma),
                    apply_permutation(s.legs, sigma),
                    s.out,
                )
    _record_square_composites(P, [n for n in P.arities() if n > 1])
    for psi, phis, chis, total in _associator_triples(P.compose_ops):
        P.associators[(psi, phis, chis)] = P.op_groupoids[len(total.inputs)].id(total)
    return P


# ---- truncation ----------------------------------------------------------------------


@dataclass(frozen=True)
class TauOperation:
    """An equivalence class of operations under globular 2-cells."""

    rep: Hashable
    members: frozenset
    inputs: tuple
    output: Hashable

    __hash__ = _cached_hash(
        lambda self: (TauOperation, self.rep, self.members, self.inputs, self.output))

    def __str__(self) -> str:
        return f"[{self.rep}]"


@dataclass(frozen=True)
class TauResult:
    operad: Operad
    class_of: Mapping
    token_reuse: bool


def tau_full(P: PseudoOperadData) -> TauResult:
    """Collapse a pseudo-operad along its globular 2-cells.

    The classes are the components of P's globular cells; :func:`_collapse`
    turns them into an operad over P's colors, with P's units, composition
    and action, and P's ``op_link_fn`` for composites outside the window.
    """
    links = []
    for n in P.arities():
        G = P.op_groupoids[n]
        links += [(G.src(c), G.tgt(c)) for c in G.morphisms if P.is_globular(c)]
    return _collapse(P.all_ops(), P.objects.objects, links,
                     signature=lambda op: (P.op_inputs[op], P.op_output[op]),
                     unit=P.unit_op, compose=P.compose_op, act=P.act_op,
                     link=P.op_link_fn, name=f"tau({P.name})")


def _collapse(ops: Sequence, colors: Sequence, links: Iterable[tuple], *,
              signature: Callable, unit: Callable, compose: Callable, act: Callable,
              link: Callable | None, name: str) -> TauResult:
    """The operad of the classes that ``links`` generate on ``ops``, each
    named by its least member under ``str`` and listed at its first member.

    ``signature`` gives an operation's ``(inputs, output)``.  When every
    class is a singleton and no ``link`` is given the original tokens are
    reused, so collapsing a freshly fattened operad returns it on the nose.
    Otherwise each class is wrapped in a :class:`TauOperation`, and an
    operation outside ``ops`` joins the first class of its signature, in
    ``str`` order, whose representative ``link`` joins it to, or mints a
    fresh singleton class.
    """
    classes: dict = {}
    for op, least in _least_representatives(ops, links, str).items():
        classes.setdefault(least, set()).add(op)
    token_reuse = all(len(members) == 1 for members in classes.values())

    wrap_tokens = not token_reuse or link is not None
    if not wrap_tokens:
        class_of = {op: op for op in ops}
    else:
        class_of = {}
        registry: dict = {}
        # class tokens by signature, each bucket in str order
        by_signature: dict = {}
        for rep, members in classes.items():
            token = TauOperation(rep, frozenset(members), *signature(rep))
            for m in members:
                class_of[m] = token
                registry[m] = token
            by_signature.setdefault((tuple(token.inputs), token.output),
                                    []).append(token)
        for bucket in by_signature.values():
            bucket.sort(key=str)

    operations = tuple(dict.fromkeys(class_of[op] for op in ops))
    units = {c: class_of.get(unit(c)) for c in colors}
    for c, u in units.items():
        if u is None:
            raise ValueError(f"unit entry outside the window at {c}")

    if not wrap_tokens:
        compose_rule, action_rule = compose, act
    else:
        def resolve(op):
            token = registry.get(op)
            if token is not None:
                return token
            # Every window operation is registered, so this one is a
            # composite or an action outside the window; such operations
            # expose their own signature through .inputs/.output.
            sig = tuple(op.inputs), op.output
            if link is not None:
                for token in by_signature.get(sig, ()):
                    if link(op, token.rep):
                        registry[op] = token
                        return token
            fresh = TauOperation(op, frozenset({op}), sig[0], sig[1])
            registry[op] = fresh
            insort(by_signature.setdefault(sig, []), fresh, key=str)
            return fresh

        def compose_rule(outer, inners):
            return resolve(compose(outer.rep, tuple(i.rep for i in inners)))

        def action_rule(op, sigma):
            return resolve(act(op.rep, sigma))

    operad = Operad(colors, operations, units, compose_rule, action_rule, name=name)
    return TauResult(operad, class_of, token_reuse)


def tau(P: PseudoOperadData) -> Operad:
    return tau_full(P).operad


# ---- the strict 2-adjunction ------------------------------------------------------------


def _unit_faults(P: PseudoOperadData, TP: TauResult) -> list[str]:
    """Why the unit of P, built through its collapse TP, is no strict map."""
    bad: list[str] = []
    # audit only the window materialized up front; driving the collapsed
    # operad below may cache further composites through the hooks
    window = tuple(P.compose_ops.items())
    eta_vertical: dict = {}
    try:
        for g in P.objects.morphisms:
            comp = find_companion(P, g)
            eta_vertical[g] = TP.class_of[comp.op]
        for g1, g2 in itertools.product(P.objects.morphisms, repeat=2):
            if P.objects.tgt(g1) != P.objects.src(g2):
                continue
            composite = P.objects.compose(g2, g1)
            image = TP.operad.compose(eta_vertical[g2], (eta_vertical[g1],))
            if image != eta_vertical[composite]:
                bad.append(f"unit not functorial on verticals at {g2} . {g1}")
        for c in P.objects.objects:
            if eta_vertical.get(P.objects.id(c)) != TP.operad.unit(c):
                bad.append(f"unit of {c} not sent to unit class")
        for (psi, phis), composite in window:
            lhs = TP.class_of[composite]
            rhs = TP.operad.compose(TP.class_of[psi], tuple(TP.class_of[p] for p in phis))
            if lhs != rhs:
                bad.append(f"unit breaks composition at {psi}")
        for n in P.arities():
            G = P.op_groupoids[n]
            for cell in G.morphisms:
                ends = (*P.cell_inputs[cell], P.cell_output[cell])
                if any(g not in eta_vertical for g in ends):
                    bad.append(f"unknown vertical at {cell}")
                    break
                legs = tuple(eta_vertical[g] for g in ends[:-1])
                out = eta_vertical[ends[-1]]
                dom = TP.class_of[G.src(cell)]
                cod = TP.class_of[G.tgt(cell)]
                if TP.operad.compose(cod, legs) != TP.operad.compose(out, (dom,)):
                    bad.append(f"cell image not a square at {cell}")
                    break
    except (NotFibrant, ValueError) as exc:
        bad.append(str(exc))
    return bad


def _tau_of_unit_faults(TP: TauResult) -> list[str]:
    """Why collapsing the unit through TP is not the identity.  A fattening has
    no link hook, so its collapse moves no operation or, with a class that is
    not a singleton, all of them."""
    try:
        recollapsed = tau_full(_fatten(TP.operad))
    except ValueError as exc:
        return [str(exc)]
    return [] if recollapsed.token_reuse else \
        ["collapse of refattened operad has non-singleton classes"]


def _stray_entries(P: PseudoOperadData) -> list[str]:
    """P's composite entries naming an operation outside the window, and its
    cells with no boundary entry, in the texts of :func:`check_pseudo_operad`."""
    bad = [f"composite entry outside the window at {psi}"
           for (psi, phis), result in P.compose_ops.items()
           if not all(op in P.op_inputs for op in (psi, *phis, result))]
    return bad + [f"boundary entry missing at {c}" for c in P.all_cells()
                  if c not in P.cell_inputs or c not in P.cell_output]


def _tau_or_why(P: PseudoOperadData) -> TauResult | str:
    """``tau_full(P)``, or the reason it cannot be built."""
    try:
        return tau_full(P)
    except ValueError as exc:
        return str(exc)


def _iota_unit_faults(fat: PseudoOperadData, collapsed: TauResult) -> list[str]:
    """Why the unit on a fattened operad is not the identity assignment."""
    if not collapsed.token_reuse:
        return ["fattened operad has non-singleton classes"]
    return [f"companion of {g} is not itself"
            for g in fat.objects.morphisms if find_companion(fat, g).op != g]


def check_two_adjunction(O: Operad, P: PseudoOperadData | None = None) -> Report:
    """Verify the collapse/fatten adjunction identities strictly.

    Checks, in order: collapsing the fattened operad returns it on the
    nose, which the counit row reads off the collapse's classes: when each
    is a singleton the collapse reuses the tokens, colors, units and tables
    of ``iota(O)``, which are O's own, and otherwise it has fewer operations
    than O; the unit of a pseudo-operad is a strict map built from companions
    of verticals and class tokens of operations; the unit of a fattened
    operad is the identity; and collapsing the unit yields an identity.
    A pseudo-operad that cannot be collapsed fails the two rows that use
    its collapse, with the reason; so does an operad whose fattening
    cannot be collapsed, in every row; and so does a pseudo-operad whose
    collapse would read an entry outside the window (:func:`_stray_entries`).

    Both fattenings, of O and of the collapse of P, are :func:`_fatten`'s:
    the rows read no cell action, no associator and no cell composite whose
    outer cell has arity 2 or more, so none is built.
    """
    rep = Report()
    fat = _fatten(O)
    P = fat if P is None else P
    collapsed = _tau_or_why(fat)
    TP = collapsed if P is fat else _tau_or_why(P)
    why = collapsed if isinstance(collapsed, str) else (
        None if collapsed.token_reuse else "operation sets differ")
    rep.add("two-adjunction/counit-identity", O.name, FAIL if why else PASS, witness=why)

    if isinstance(TP, str):  # no collapse: both rows that use it fail
        unit_bad = tau_unit_bad = [TP]
    elif stray := _stray_entries(P):
        unit_bad = tau_unit_bad = stray
    else:
        unit_bad, tau_unit_bad = _unit_faults(P, TP), _tau_of_unit_faults(TP)
    rep.verdict("two-adjunction/unit-strict", P.name, unit_bad)
    rep.verdict("two-adjunction/unit-identity-on-iota", O.name,
                [collapsed] if isinstance(collapsed, str)
                else _iota_unit_faults(fat, collapsed))
    rep.verdict("two-adjunction/tau-of-unit-identity", P.name, tau_unit_bad)
    return rep
