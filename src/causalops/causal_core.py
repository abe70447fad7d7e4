"""Finite causal sets and the order-theoretic kernel built on them.

A causal set here is a finite strict poset of named events.  The strict
relation plays the role of chronology (``I``-style operators) and its
reflexive closure the role of causality (``J``-style operators); all the
region calculus of the package (convexity, hulls, Cauchy antichains,
Cauchy embeddings, disjointness, gluing) reduces to reachability over it.

Events are opaque strings.  Lexicographic order is used only to make
serialization and quotient naming deterministic, never as causal data.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "CausalSet",
    "CausalEmbedding",
    "GluingResult",
    "causal_past",
    "causal_future",
    "chronological_past",
    "is_causally_convex",
    "convex_hull",
    "is_cauchy_antichain",
    "is_cauchy_embedding",
    "cauchy_antichains",
    "convex_subsets",
    "are_causally_disjoint",
    "glue_pushout",
]


def _cached_hash(key: Callable[[object], tuple]) -> Callable[[object], int]:
    """A ``__hash__`` that hashes ``key(self)`` once and keeps it in ``_hash``.

    Immutable values are hashed constantly as parts of composite keys, so
    the hash is computed on first use and cached in the instance dict.
    """

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(key(self))
            self.__dict__["_hash"] = h
        return h

    return __hash__


class CausalSet:
    """A finite set of events with an irreflexive transitive order.

    Instances are immutable values: two causal sets are equal when they
    have the same events and the same order.
    """

    __slots__ = ("events", "_index", "_up", "_down", "__dict__")

    def __init__(self, events: Iterable[str], relations: Iterable[tuple[str, str]] = ()):
        evs = tuple(sorted(events))
        if len(set(evs)) != len(evs):
            raise ValueError("duplicate event names")
        for e in evs:
            if not isinstance(e, str) or not e:
                raise ValueError(f"event names must be nonempty strings, got {e!r}")
        index = {e: i for i, e in enumerate(evs)}
        n = len(evs)
        succ = [0] * n
        for a, b in relations:
            if a not in index or b not in index:
                raise ValueError(f"relation ({a!r}, {b!r}) mentions unknown events")
            if a == b:
                raise ValueError(f"reflexive relation on {a!r}")
            succ[index[a]] |= 1 << index[b]
        self.events = evs
        self._index = index
        self._up = self._close(succ)
        down = [1 << i for i in range(n)]
        for i in range(n):
            for j in self._bits(self._up[i]):
                if j != i:
                    down[j] |= 1 << i
        self._down = tuple(down)

    @staticmethod
    def _bits(mask: int) -> Iterator[int]:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _close(self, succ: list[int]) -> tuple[int, ...]:
        # Reflexive-transitive closure in reverse topological order; a
        # leftover in Kahn's algorithm is a causal cycle.
        n = len(succ)
        indeg = [0] * n
        for i in range(n):
            for j in self._bits(succ[i]):
                indeg[j] += 1
        queue = [i for i in range(n) if indeg[i] == 0]
        order = []
        while queue:
            i = queue.pop()
            order.append(i)
            for j in self._bits(succ[i]):
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(order) != n:
            cyclic = sorted(self.events[i] for i in range(n) if indeg[i] > 0)
            raise ValueError(f"causal cycle among events {cyclic}")
        up = [0] * n
        for i in reversed(order):
            acc = 1 << i
            for j in self._bits(succ[i]):
                acc |= up[j]
            up[i] = acc
        return tuple(up)

    # ---- comparisons ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[str]:
        return iter(self.events)

    def __contains__(self, event: object) -> bool:
        return event in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalSet):
            return NotImplemented
        return self.events == other.events and self._up == other._up

    __hash__ = _cached_hash(lambda self: (self.events, self._up))

    def __repr__(self) -> str:
        return f"CausalSet({list(self.events)!r}, covers={sorted(self.covers)!r})"

    # ---- order queries ---------------------------------------------------

    def le(self, a: str, b: str) -> bool:
        """Causal precedence, reflexive."""
        return bool(self._up[self._idx(a)] & (1 << self._idx(b)))

    def lt(self, a: str, b: str) -> bool:
        return a != b and self.le(a, b)

    def comparable(self, a: str, b: str) -> bool:
        return self.le(a, b) or self.le(b, a)

    def _idx(self, event: str) -> int:
        try:
            return self._index[event]
        except KeyError:
            raise ValueError(f"event {event!r} not in this causal set") from None

    def _events_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.events[i] for i in self._bits(mask))

    @cached_property
    def _up_covers(self) -> tuple[int, ...]:
        """Mask of the events covering each event."""
        out = []
        for i, up in enumerate(self._up):
            strict = up & ~(1 << i)
            cover = strict
            for j in self._bits(strict):
                cover &= ~self._up[j] | (1 << j)
            out.append(cover)
        return tuple(out)

    @cached_property
    def covers(self) -> frozenset[tuple[str, str]]:
        """Transitive reduction as (lower, upper) pairs."""
        return frozenset(
            (self.events[i], self.events[j])
            for i, cover in enumerate(self._up_covers)
            for j in self._bits(cover)
        )

    @cached_property
    def maximal_events(self) -> frozenset[str]:
        return frozenset(
            e for i, e in enumerate(self.events) if self._up[i] == 1 << i
        )

    # ---- derived structure ------------------------------------------------

    def induced(self, members: Iterable[str]) -> "CausalSet":
        """Sub-poset on ``members`` with the restricted order; the value is
        immutable, so each instance builds it once per member set."""
        mask = _member_mask(self, frozenset(members))
        memo = self.__dict__.setdefault("_induced", {})
        if mask not in memo:
            memo[mask] = self._induce(mask)
        return memo[mask]

    def _induce(self, mask: int) -> "CausalSet":
        # a restriction of a closed order is closed, and the kept events stay
        # sorted, so the masks are restricted and compressed with no closure
        keep = tuple(self._bits(mask))

        def compress(mask: int) -> int:
            return sum(1 << k for k, i in enumerate(keep) if mask >> i & 1)

        sub = CausalSet.__new__(CausalSet)
        sub.events = tuple(self.events[i] for i in keep)
        sub._index = {e: k for k, e in enumerate(sub.events)}
        sub._up = tuple(compress(self._up[i]) for i in keep)
        sub._down = tuple(compress(self._down[i]) for i in keep)
        return sub


# ---- region operators ------------------------------------------------------


def _member_mask(M: CausalSet, members: Iterable[str]) -> int:
    mask = 0
    for e in members:
        i = M._index.get(e)
        if i is None:
            raise ValueError(f"event {e!r} is not an event of the causal set")
        mask |= 1 << i
    return mask


def _is_induced(sub: CausalSet, M: CausalSet) -> bool:
    """Does ``sub`` carry the order that ``M`` induces on ``sub``'s events?

    Not when an event of ``sub`` is no event of ``M``; yes when ``sub`` is
    what ``M.induced`` built.  Else both event tuples are sorted, so
    ``sub``'s k-th event sits at ``place[k]`` in ``M``; each up-mask of
    ``sub``, carried into ``M``, must equal ``M``'s up-mask of that event
    cut down to ``sub``'s events.  No causal set is built.
    """
    place = [M._index.get(e) for e in sub.events]
    if None in place:
        return False
    members = sum(1 << i for i in place)
    if M.__dict__.get("_induced", {}).get(members) is sub:
        return True
    for i, up in zip(place, sub._up):
        carried = 0
        for k in sub._bits(up):
            carried |= 1 << place[k]
        if carried != M._up[i] & members:
            return False
    return True


def causal_future(M: CausalSet, members: Iterable[str]) -> frozenset[str]:
    """Reflexive future J+: everything at or after some member."""
    mask = 0
    for i in M._bits(_member_mask(M, members)):
        mask |= M._up[i]
    return M._events_of(mask)


def causal_past(M: CausalSet, members: Iterable[str]) -> frozenset[str]:
    """Reflexive past J-."""
    mask = 0
    for i in M._bits(_member_mask(M, members)):
        mask |= M._down[i]
    return M._events_of(mask)


def chronological_past(M: CausalSet, members: Iterable[str]) -> frozenset[str]:
    """Strict past I-."""
    mask = 0
    for i in M._bits(_member_mask(M, members)):
        mask |= M._down[i] & ~(1 << i)
    return M._events_of(mask)


def _hull_mask(M: CausalSet, mask: int) -> int:
    up = down = 0
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        up |= M._up[i]
        down |= M._down[i]
        mask ^= low
    return up & down


def _is_antichain_mask(M: CausalSet, mask: int) -> bool:
    return all(M._up[i] & mask == 1 << i for i in M._bits(mask))


def _antichain_masks(M: CausalSet, pool: int) -> Iterator[int]:
    """Every antichain inside ``pool``, the empty one first, by backtracking.

    Events are added in index order, each one only when it is incomparable
    to all chosen so far, so every antichain is yielded exactly once.
    """

    def extend(chosen: int, free: int) -> Iterator[int]:
        yield chosen
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            yield from extend(chosen | low, free & ~(M._up[i] | M._down[i]))

    return extend(0, pool)


def _cover_path_avoids(M: CausalSet, blocked: int) -> bool:
    """Does a cover path from a minimal to a maximal event avoid ``blocked``?"""
    up_covers = M._up_covers
    covered = 0
    for cover in up_covers:
        covered |= cover
    frontier = seen = ((1 << len(M)) - 1) & ~covered & ~blocked
    while frontier:
        step = 0
        for i in M._bits(frontier):
            if not up_covers[i]:
                return True
            step |= up_covers[i]
        frontier = step & ~blocked & ~seen
        seen |= frontier
    return False


def convex_hull(M: CausalSet, members: Iterable[str]) -> frozenset[str]:
    """Least causally convex superset: J+(A) intersected with J-(A)."""
    return M._events_of(_hull_mask(M, _member_mask(M, members)))


def is_causally_convex(M: CausalSet, members: Iterable[str]) -> bool:
    """Interval-closed: equal to its own convex hull."""
    members = frozenset(members)
    return convex_hull(M, members) == members


def is_cauchy_antichain(M: CausalSet, members: Iterable[str]) -> bool:
    """Antichain met by every maximal chain.

    Decided as a cut condition on the cover digraph: the antichain is
    Cauchy iff no cover path from a minimal to a maximal event avoids it.
    Isolated events are one-event chains, so each must itself be a member.
    """
    mask = _member_mask(M, members)
    return _is_antichain_mask(M, mask) and not _cover_path_avoids(M, mask)


def cauchy_antichains(M: CausalSet) -> Iterator[frozenset[str]]:
    """The nonempty Cauchy antichains of M."""
    return (
        M._events_of(mask) for mask in _antichain_masks(M, (1 << len(M)) - 1)
        if mask and not _cover_path_avoids(M, mask)
    )


def convex_subsets(M: CausalSet,
                   within: Iterable[str] | None = None) -> list[frozenset[str]]:
    """The nonempty causally convex subsets of M, optionally inside a subset.

    Convexity is taken in M.  Subsets come by size, and within one size in
    ``itertools.combinations`` order over the sorted events.
    """
    pool = _member_mask(M, M.events if within is None else within)
    found = []
    sub = pool
    while sub:
        if _hull_mask(M, sub) == sub:
            found.append(tuple(M._bits(sub)))
        sub = (sub - 1) & pool
    found.sort(key=lambda bits: (len(bits), bits))
    return [frozenset(M.events[i] for i in bits) for bits in found]


def are_causally_disjoint(M: CausalSet, a: Iterable[str], b: Iterable[str]) -> bool:
    """No member of one region is comparable to a member of the other."""
    a, b = _member_mask(M, a), _member_mask(M, b)
    reach = 0
    for i in M._bits(a):
        reach |= M._up[i] | M._down[i]
    return not (reach & b)


# ---- maps between causal sets ----------------------------------------------


@dataclass(frozen=True)
class CausalEmbedding:
    """Order-reflecting injection with causally convex image.

    The image being convex makes the map an isomorphism onto a causally
    closed sub-region, which is what every construction downstream
    (germs, collars, gluing cocones) relies on.

    Validation runs on the bitmasks: per domain event, one mask test for
    preservation and reflection of the order, then one hull test on the
    image mask.  A rejected map raises ``ValueError`` saying that the map
    is partial, leaves the codomain or is not injective, or naming the
    first offending pair of domain events (``itertools.combinations``
    order for preservation, ``itertools.permutations`` order for
    reflection, with the image events for the latter), or saying that the
    image is not convex; the checks run in that order.
    """

    dom: CausalSet
    cod: CausalSet
    pairs: tuple[tuple[str, str], ...]

    __hash__ = _cached_hash(
        lambda self: (self.__class__.__name__, self.dom, self.cod, self.pairs))

    def __init__(self, dom: CausalSet, cod: CausalSet, mapping: dict[str, str] | Iterable[tuple[str, str]]):
        table = dict(mapping)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "pairs", tuple(sorted(table.items())))
        self._validate(table)

    def _validate(self, table: dict[str, str]) -> None:
        dom, cod = self.dom, self.cod
        if sorted(table) != list(dom.events):
            raise ValueError("map must be defined on exactly the domain events")
        for v in table.values():
            if v not in cod:
                raise ValueError(f"image event {v!r} not in codomain")
        f = [cod._index[table[e]] for e in dom.events]
        bits = [1 << k for k in f]
        image = 0
        for bit in bits:
            image |= bit
        if image.bit_count() != len(f):
            raise ValueError("map is not injective")
        # the image of each up-set must lie inside the image events above
        # f(i) to preserve the order, and be all of them to reflect it
        preserved = reflected = True
        for i, up in enumerate(dom._up):
            mapped = 0
            while up:
                low = up & -up
                mapped |= bits[low.bit_length() - 1]
                up ^= low
            allowed = cod._up[f[i]] & image
            if mapped != allowed:
                reflected = False
                if mapped & ~allowed:
                    preserved = False
        dom_up, cod_up, events = dom._up, cod._up, dom.events
        if not preserved:
            for i, j in itertools.combinations(range(len(f)), 2):
                if dom_up[i] >> j & 1 and not cod_up[f[i]] >> f[j] & 1:
                    raise ValueError(f"map does not preserve {events[i]!r} < {events[j]!r}")
                if dom_up[j] >> i & 1 and not cod_up[f[j]] >> f[i] & 1:
                    raise ValueError(f"map does not preserve {events[j]!r} < {events[i]!r}")
        if not reflected:
            for i, j in itertools.permutations(range(len(f)), 2):
                if cod_up[f[i]] >> f[j] & 1 and not dom_up[i] >> j & 1:
                    raise ValueError(
                        f"map does not reflect order: {table[events[i]]!r} < "
                        f"{table[events[j]]!r} but {events[i]!r} not < {events[j]!r}"
                    )
        if _hull_mask(cod, image) != image:
            raise ValueError("image is not causally convex")

    @cached_property
    def table(self) -> dict[str, str]:
        return dict(self.pairs)

    @cached_property
    def inverse_table(self) -> dict[str, str]:
        return {v: k for k, v in self.pairs}

    def __call__(self, event: str) -> str:
        try:
            return self.table[event]
        except KeyError:
            raise ValueError(f"event {event!r} not in domain") from None

    @cached_property
    def image(self) -> frozenset[str]:
        return frozenset(self.inverse_table)

    def image_of(self, members: Iterable[str]) -> frozenset[str]:
        return frozenset(self(e) for e in members)

    def preimage_of(self, members: Iterable[str]) -> frozenset[str]:
        inv = self.inverse_table
        return frozenset(inv[e] for e in members if e in inv)

    @classmethod
    def _unchecked(cls, dom: CausalSet, cod: CausalSet,
                   pairs: tuple[tuple[str, str], ...]) -> "CausalEmbedding":
        """The embedding with these ``pairs``, sorted by domain event, built
        unchecked for a caller whose map is one by construction."""
        emb = object.__new__(cls)
        emb.__dict__.update(dom=dom, cod=cod, pairs=pairs)
        return emb

    @classmethod
    def identity(cls, M: CausalSet) -> "CausalEmbedding":
        return cls._unchecked(M, M, tuple((e, e) for e in M.events))

    @classmethod
    def inclusion(cls, M: CausalSet, members: Iterable[str]) -> "CausalEmbedding":
        """Inclusion of the induced sub-poset; members must be convex in M."""
        sub = M.induced(members)
        return cls(sub, M, {e: e for e in sub.events})

    def then(self, other: "CausalEmbedding") -> "CausalEmbedding":
        """Composite self;other (apply self first).

        Only ``other.dom == self.cod`` is checked: injective order embeddings
        compose, and ``other`` maps the convex image of ``self`` onto a
        convex region, as its own image is convex and it reflects the order.
        """
        if other.dom != self.cod:
            raise ValueError("embeddings do not compose")
        table = other.table
        return CausalEmbedding._unchecked(
            self.dom, other.cod, tuple((e, table[v]) for e, v in self.pairs))

    def restrict_into(self, members: Iterable[str], target: CausalSet) -> "CausalEmbedding":
        """Restrict the domain to ``members`` and corestrict the codomain to
        ``target``; when ``members`` is the whole domain, the domain is kept.

        Only the preconditions are checked, on masks: ``members`` is convex,
        and ``target`` is induced by the codomain and holds their image.
        Then ``target`` orders the image as the codomain does, and an event
        of it between two image events lies in the convex image of ``self``
        with its preimage between two members, so the result is an
        embedding.  Otherwise the validating constructor names what is wrong.
        """
        members = frozenset(members)
        mask = _member_mask(self.dom, members)
        dom = self.dom if mask == (1 << len(self.dom)) - 1 else self.dom.induced(members)
        table = self.table
        pairs = tuple((e, table[e]) for e in dom.events)
        if (_hull_mask(self.dom, mask) == mask and all(v in target for _, v in pairs)
                and _is_induced(target, self.cod)):
            return CausalEmbedding._unchecked(dom, target, pairs)
        return CausalEmbedding(dom, target, pairs)


def is_cauchy_embedding(emb: CausalEmbedding) -> bool:
    """Does the image contain a Cauchy antichain of the codomain?

    Fast reject: a cover path from a minimal to a maximal event of the
    codomain avoiding the image is a maximal chain no antichain inside the
    image can meet.  When no such path exists the question is decided
    exactly by scanning the antichains inside the image; the fast test
    alone is not sufficient for a positive answer.
    """
    cod = emb.cod
    image = _member_mask(cod, emb.image)
    if _cover_path_avoids(cod, image):
        return False
    return any(not _cover_path_avoids(cod, anti)
               for anti in _antichain_masks(cod, image))


# ---- order embeddings and isomorphisms ---------------------------------------


def _iso_stats(M: CausalSet) -> list[tuple[int, int, int, int]]:
    """Invariants each event must preserve under any order isomorphism."""
    lower_covers = [0] * len(M)
    for cover in M._up_covers:
        for j in M._bits(cover):
            lower_covers[j] += 1
    return [
        (M._down[i].bit_count(), M._up[i].bit_count(), lower_covers[i],
         M._up_covers[i].bit_count())
        for i in range(len(M))
    ]


def _pinned_maps(
    A: CausalSet,
    B: CausalSet,
    *,
    iso: bool,
    blocks: Sequence[tuple[frozenset[str], frozenset[str]]] = (),
    pins: Mapping[str, str] | None = None,
) -> Iterator[dict[str, str]]:
    """Order embeddings A -> B extending exact pins, in sorted order.

    This is the one backtracking search for order embeddings.  With ``iso``
    only the order isomorphisms are searched, which must also respect the
    setwise ``blocks``; without it, every order-preserving and
    order-reflecting injection is.  Events of A are assigned in sorted
    order, each trying the events of B in sorted order.  A candidate is
    accepted by one mask test: the assigned events above and below it must
    be exactly the images of the assigned events above and below its
    preimage.
    """
    n, m = len(A), len(B)
    if iso:
        if n != m:
            return
        for s, t in blocks:
            if len(s) != len(t):
                return
        # events may only go to events with the same invariants and blocks
        key_a = [(stats, tuple(e in s for s, _ in blocks))
                 for e, stats in zip(A.events, _iso_stats(A))]
        key_b = [(stats, tuple(e in t for _, t in blocks))
                 for e, stats in zip(B.events, _iso_stats(B))]
    pinned = {A._index[a]: B._index.get(b) for a, b in (pins or {}).items()
              if a in A._index}
    a_up, a_down, b_up, b_down = A._up, A._down, B._up, B._down
    image = [0] * n  # image[k]: the bit of B assigned to event k of A

    def extend(i: int, used: int) -> Iterator[dict[str, str]]:
        if i == n:
            yield {A.events[k]: B.events[image[k].bit_length() - 1]
                   for k in range(n)}
            return
        want_up = want_down = 0
        for k in range(i):
            if a_up[i] >> k & 1:
                want_up |= image[k]
            elif a_down[i] >> k & 1:
                want_down |= image[k]
        if i in pinned:
            candidates = () if pinned[i] is None else (pinned[i],)
        else:
            candidates = range(m)
        for j in candidates:
            bit = 1 << j
            if (used & bit or b_up[j] & used != want_up
                    or b_down[j] & used != want_down
                    or iso and key_a[i] != key_b[j]):
                continue
            image[i] = bit
            yield from extend(i + 1, used | bit)

    yield from extend(0, 0)


# ---- gluing ------------------------------------------------------------------


@dataclass(frozen=True)
class GluingResult:
    result: CausalSet
    left_legs: tuple[CausalEmbedding, ...]
    right_leg: CausalEmbedding


def glue_pushout(
    left: Sequence[CausalSet],
    mid: Sequence[CausalSet],
    right: CausalSet,
    into_left: Sequence[CausalEmbedding],
    into_right: Sequence[CausalEmbedding],
) -> GluingResult:
    """Pushout of the star cospan left[i] <- mid[i] -> right.

    Events identified along the shared middles are merged, orders are
    pushed forward and transitively closed.  Images of distinct
    ``into_right`` legs must be pairwise causally disjoint.  Every leg is
    injective, so under that precondition a left event meets at most one
    right event: the image of its preimage in the middle.

    Names do not depend on the order of the pieces.  A right event keeps
    its name.  A left-only event keeps its own name unless that name is a
    right event or is left-only in more than one piece; then it becomes
    ``name@anchor``, with ``.2``, ``.3``, ... added on any remaining clash.
    The anchor is the smallest event of the piece's ``into_right`` image,
    and the piece index when that image is empty.

    Only the inputs are checked.  Under these checks the pushed-forward
    order has no cycle and every cocone map is a causal embedding, so
    neither is checked: a chain that leaves a piece and comes back passes
    through the convex image of its middle on both sides, and the right
    images are causally disjoint.
    """
    k = len(mid)
    if not (len(left) == len(into_left) == len(into_right) == k):
        raise ValueError("mismatched gluing data lengths")
    for i in range(k):
        if into_left[i].dom != mid[i] or into_left[i].cod != left[i]:
            raise ValueError(f"into_left[{i}] does not map mid[{i}] into left[{i}]")
        if into_right[i].dom != mid[i] or into_right[i].cod != right:
            raise ValueError(f"into_right[{i}] does not map mid[{i}] into right")
    for i, j in itertools.combinations(range(k), 2):
        if not are_causally_disjoint(right, into_right[i].image, into_right[j].image):
            raise ValueError(
                f"into_right images {i} and {j} are not causally disjoint"
            )

    # names[i] maps each event of left[i] to its event in the result
    names = [{into_left[i](x): into_right[i](x) for x in mid[i].events} for i in range(k)]
    left_only = [(e, i) for i in range(k) for e in left[i].events if e not in names[i]]
    pieces_of = Counter(e for e, _i in left_only)
    anchors = [min(into_right[i].image, default=str(i)) for i in range(k)]
    used = set(right.events)
    for e, i in sorted(left_only, key=lambda ei: (ei[0], anchors[ei[1]], ei[1])):
        name = e
        if e in right or pieces_of[e] > 1:
            name = f"{e}@{anchors[i]}"
        bump = 1
        while name in used:
            bump += 1
            name = f"{e}@{anchors[i]}.{bump}"
        names[i][e] = name
        used.add(name)

    relations = list(right.covers)
    for i in range(k):
        relations.extend((names[i][a], names[i][b]) for a, b in left[i].covers)
    result = CausalSet(used, relations)

    def leg(dom: CausalSet, mapping: dict[str, str]) -> CausalEmbedding:
        return CausalEmbedding._unchecked(
            dom, result, tuple((e, mapping[e]) for e in dom.events))

    left_legs = tuple(leg(left[i], names[i]) for i in range(k))
    right_leg = leg(right, {e: e for e in right.events})
    return GluingResult(result, left_legs, right_leg)
