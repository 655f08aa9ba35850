"""Union-based multi-sorted structures: bigroups, biloops, N-semigroups,
mixed glsg structures and their neutrosophic forms.

Components are disjoint-tagged: order is always the sum of component orders
even when labels coincide across components.  Kinds are declared by the
builder and verified at construction, never inferred, because one table can
satisfy several kinds and the classification depends on the declared role.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import partial
from itertools import chain, combinations, islice, permutations, product
from math import prod
from operator import eq
from typing import NamedTuple, Optional

from .classify import (CARRIER_KINDS, ClassReport, SKind, Witness,
                       _cauchy_verdict, _cauchy_witnesses, detect_s_kind,
                       sylow_verdict, verdict_of)
from .magma import (FiniteMagma, ParameterError, PartialMap, Subset,
                    _require_index, _require_indices, _species_subsets,
                    check_homomorphism, enumerate_closed_subsets,
                    evaluate_predicate, is_closed)


def _verifier(kind: str):
    """The base kinds' whole-carrier rules are CARRIER_KINDS; an s-* kind is
    the SKind of the same name and holds when detect_s_kind finds a witness."""
    if kind in CARRIER_KINDS:
        return CARRIER_KINDS[kind]
    s_kind = SKind(kind.replace("-", "_"))
    return lambda m: detect_s_kind(m, s_kind).holds


def _families(kind: str):
    """A declared kind's family buckets for the N-kind classifier, read from
    its name: the base species (its last word), then neutro-<base> for a
    neutrosophic kind, then s- before the last bucket for an s-* kind."""
    base = kind.rsplit("-", 1)[-1]
    families = (base,) + ("neutro-" + base,) * ("neutrosophic" in kind)
    return families + ("s-" + families[-1],) * kind.startswith(("s-", "strong-s-"))


# declared kind -> (verification predicate, family buckets)
KINDS = {kind: (_verifier(kind), _families(kind))
         for kind in [*CARRIER_KINDS, *(s.value.replace("_", "-") for s in SKind)]}


class NStructure:
    """An ordered union G_1 u ... u G_N of disjoint-tagged components."""

    __slots__ = ("components", "declared_kinds", "name")

    def __init__(self, components: Sequence[FiniteMagma],
                 declared_kinds: Sequence[str], name: str = ""):
        if type(name) is not str:
            raise ParameterError(f"N-structure name {name!r} is not a string")
        comps = tuple(components)
        kinds = tuple(declared_kinds)
        if len(comps) < 2:
            raise ParameterError("an N-structure needs at least two components")
        if len(kinds) != len(comps):
            raise ParameterError("one declared kind per component is required")
        for i, (c, k) in enumerate(zip(comps, kinds)):
            if k not in KINDS:
                raise ParameterError(f"unknown declared kind {k!r}")
            if not KINDS[k][0](c):
                raise ParameterError(
                    f"component {i} ({c.kind_tag}) fails verification for kind {k!r}")
        self.components = comps
        self.declared_kinds = kinds
        self.name = name

    @property
    def n(self):
        return len(self.components)

    @property
    def order(self):
        return sum(c.order for c in self.components)

    def __repr__(self):
        return f"NStructure({self.name!r}, N={self.n}, order={self.order})"


def build_n_structure(components, declared_kinds, name="") -> NStructure:
    return NStructure(components, declared_kinds, name)


class NSubset:
    """Per-component subsets of an NStructure; components may be empty."""

    __slots__ = ("parent", "per_component")

    def __init__(self, parent: NStructure, per_component):
        pcs = []
        if not isinstance(per_component, Sequence) or len(per_component) != parent.n:
            raise ParameterError("one NSubset member list per component is required")
        for comp, mem in zip(parent.components, per_component):
            mem = _require_indices(comp, mem, "NSubset member")
            pcs.append(tuple(sorted(set(mem))))
        self.parent = parent
        self.per_component = tuple(pcs)

    @classmethod
    def _of(cls, parent: NStructure, per_component: tuple):
        """Trusted construction, without the checks of __init__, for member
        tuples that are already sorted, duplicate-free and in range, such as
        combinations of _component_candidates."""
        self = object.__new__(cls)
        self.parent = parent
        self.per_component = per_component
        return self

    @property
    def order(self):
        return sum(len(p) for p in self.per_component)

    def __eq__(self, other):
        return (isinstance(other, NSubset) and other.parent is self.parent
                and other.per_component == self.per_component)

    def __hash__(self):
        return hash((id(self.parent), self.per_component))

    def __repr__(self):
        parts = []
        for c, p in zip(self.parent.components, self.per_component):
            parts.append("{" + ", ".join(c.labels[i] for i in p) + "}")
        return " u ".join(parts)


def _require_per_component(ns: NStructure, arg, what: str) -> None:
    """Raise ParameterError unless arg belongs to ns: an NSubset of ns, or of
    a structure with ns's component tables, whose member indices then name
    the same elements of ns; any other arg, such as a species list or primes,
    must be a sequence with one entry per component."""
    if isinstance(arg, NSubset):
        if arg.parent is not ns and ([c.table for c in arg.parent.components]
                                     != [c.table for c in ns.components]):
            raise ParameterError(f"{what} is not an N-subset of {ns.name or 'the N-structure'}")
    elif not isinstance(arg, Sequence) or len(arg) != ns.n:
        raise ParameterError(f"one {what} per component is required")


class NKindVerdict(NamedTuple):
    n_group: bool
    n_semigroup: bool
    n_loop: bool
    n_groupoid: bool
    n_group_semigroup: bool
    n_loop_groupoid: bool
    n_glsg: bool
    neutrosophic_n_group: bool
    neutrosophic_n_semigroup: bool
    neutrosophic_n_loop: bool
    neutrosophic_n_groupoid: bool
    s_n_group: bool
    s_n_semigroup: bool
    s_n_loop: bool
    s_n_groupoid: bool
    s_neutrosophic_n_group: bool
    s_neutrosophic_n_semigroup: bool
    s_neutrosophic_n_loop: bool
    s_neutrosophic_n_groupoid: bool
    mixed_neutrosophic: bool
    dual_mixed_neutrosophic: bool
    s_mixed_neutrosophic: bool
    dual_s_mixed_neutrosophic: bool

    def true_flags(self):
        return [name for name, flag in zip(self._fields, self) if flag]


def classify_n_kind(ns: NStructure) -> NKindVerdict:
    """Evaluate the family predicates from the verified declared kinds; the
    'or' clauses are non-exclusive and mixed families demand N >= 5."""
    fams = [set(KINDS[k][1]) for k in ns.declared_kinds]

    def every(f):
        return all(f in fs for fs in fams)

    def some(f):
        return any(f in fs for fs in fams)

    def some_other(f, g):
        return any(f in a and g in b for a, b in permutations(fams, 2))

    n5 = ns.n >= 5
    return NKindVerdict(
        n_group=every("group"),
        n_semigroup=every("semigroup"),
        n_loop=every("loop"),
        n_groupoid=some("groupoid") and some("semigroup")
                   and all(fs & {"groupoid", "semigroup"} for fs in fams),
        n_group_semigroup=some_other("group", "semigroup"),
        n_loop_groupoid=some_other("loop", "groupoid")
                        and all(fs & {"loop", "groupoid"} for fs in fams),
        n_glsg=(some("group") and some("loop") and some("semigroup")
                and some("groupoid")),
        neutrosophic_n_group=every("group") and some("neutro-group"),
        neutrosophic_n_semigroup=every("semigroup") and some("neutro-semigroup"),
        neutrosophic_n_loop=some("neutro-loop")
                            and all(fs & {"loop", "group"} for fs in fams),
        neutrosophic_n_groupoid=some("neutro-groupoid") and some("semigroup"),
        s_n_group=some("group") and some("s-semigroup"),
        s_n_semigroup=some("group") and some("s-semigroup"),
        s_n_loop=some("s-loop") or (some("loop") and some("group")),
        s_n_groupoid=all(fs & {"s-groupoid", "s-semigroup"} for fs in fams),
        s_neutrosophic_n_group=(some("s-semigroup") or some("s-neutro-semigroup"))
                               and some("group"),
        s_neutrosophic_n_semigroup=all(
            fs & {"s-semigroup", "s-neutro-semigroup"} for fs in fams),
        s_neutrosophic_n_loop=some("s-neutro-loop"),
        s_neutrosophic_n_groupoid=some("s-neutro-groupoid"),
        mixed_neutrosophic=n5 and some("neutro-group") and some("neutro-loop")
                           and some("neutro-semigroup") and some("neutro-groupoid"),
        dual_mixed_neutrosophic=n5 and some("group") and some("loop")
                               and some("semigroup") and some("groupoid")
                               and (some("neutro-group") or some("neutro-loop")
                                    or some("neutro-semigroup") or some("neutro-groupoid")),
        s_mixed_neutrosophic=n5 and some("s-neutro-group") and some("s-neutro-loop")
                             and some("s-neutro-semigroup") and some("s-neutro-groupoid"),
        dual_s_mixed_neutrosophic=n5 and some("s-loop") and some("s-semigroup")
                                  and some("s-groupoid") and some("group")
                                  and (some("neutro-group") or some("neutro-loop")
                                       or some("neutro-semigroup")
                                       or some("neutro-groupoid")),
    )


# ---------------------------------------------------------------------------
# substructure enumeration

def _component_candidates(comp: FiniteMagma, species, allow_empty: bool):
    """Closed subsets of one component passing its species.

    Unlike the magma-level enumeration, the full component and singletons are
    admitted: a proper N-subset may fill a component completely (the union
    stays proper as long as some other component does not)."""
    items = [s.members for s in enumerate_closed_subsets(comp, species,
                                                         include_full=True)]
    if allow_empty:
        items = [()] + items
    return items


def _candidates(ns: NStructure, per_component_species, require_nonempty_all: bool):
    _require_per_component(ns, per_component_species, "species")
    return [_component_candidates(comp, species, allow_empty=not require_nonempty_all)
            for comp, species in zip(ns.components, per_component_species)]


def _fulls(ns: NStructure):
    return tuple(tuple(range(c.order)) for c in ns.components)


def _excluded(ns: NStructure, cands):
    """The combinations of the product of candidate lists that no N-level
    enumeration holds: the all-empty one and the all-full one (not a proper
    subset), each where every list holds that combination's part."""
    return [combo for combo in (((),) * ns.n, _fulls(ns))
            if all(part in c for part, c in zip(combo, cands))]


def _rank(cands, combo):
    """combo's rank in the product of cands: the mixed-radix number whose
    digits are its parts' indices in their lists."""
    rank = 0
    for part, c in zip(combo, cands):
        rank = rank * len(c) + c.index(part)
    return rank


def _combinations(ns: NStructure, cands):
    """The per-component member tuples of the cartesian product of candidate
    lists, in product order, without the _excluded combinations.  A C
    pipeline: each exclusion is a filter."""
    combos = product(*cands)
    for combo in _excluded(ns, cands):
        combos = filter(combo.__ne__, combos)
    return combos


class _NSubsets(Sequence):
    """A read-only sequence over the _combinations of one or more products of
    candidate lists: the N-subsets of enumerate_n_substructures and
    deficit_substructures, or the witnesses of n_lagrange.

    Each product is held as (candidate lists, item count, excluded raw ranks),
    and the items in view as a range of ranks, so the length, negative indices
    and slices are range operations.  Item i is decoded from its rank by mixed
    radix over the candidate lists, after stepping past the excluded ranks;
    iteration with step 1 streams _combinations instead.  make, a partial over
    parent, makes an item from its member tuples when it is read, and `in` is
    answered by rank, with no scan."""

    __slots__ = ("parent", "_products", "_ranks", "_make")

    def __init__(self, parent: NStructure, products, ranks: range, make: partial):
        self.parent = parent
        self._products = products
        self._ranks = ranks
        self._make = make

    def __len__(self):
        return len(self._ranks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _NSubsets(self.parent, self._products, self._ranks[i], self._make)
        return self._make(self._decode(self._ranks[i]))

    def _decode(self, rank):
        for cands, count, excluded in self._products:
            if rank < count:
                for r in excluded:
                    rank += rank >= r
                parts = []
                for c in reversed(cands):
                    rank, k = divmod(rank, len(c))
                    parts.append(c[k])
                return tuple(reversed(parts))
            rank -= count

    def __contains__(self, x):
        parts = getattr(x.subset if isinstance(x, Witness) else x, "per_component", None)
        if parts is None:
            return False
        base = 0
        for cands, count, excluded in self._products:
            try:
                rank = _rank(cands, parts)
            except ValueError:                    # some part is not in its list
                base += count
                continue
            # an excluded rank steps to another item, which then differs from x
            rank = base + rank - sum(r < rank for r in excluded)
            return rank in self._ranks and self._make(self._decode(rank)) == x
        return False

    def _members(self):
        """The items' member tuples, in order."""
        ranks = self._ranks
        if ranks.step != 1:
            return map(self._decode, ranks)
        combos = chain.from_iterable(_combinations(self.parent, cands)
                                     for cands, _, _ in self._products)
        return islice(combos, ranks.start, ranks.stop)

    def __iter__(self):
        return map(self._make, self._members())

    def __eq__(self, other):
        if isinstance(other, _NSubsets):
            # make's function and arguments name the item type and the parent
            return ((other._make.func, other._make.args, len(other))
                    == (self._make.func, self._make.args, len(self))
                    and all(map(eq, self._members(), other._members())))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"_NSubsets(length={len(self)}, parent={self.parent!r})"


def _view(ns: NStructure, make: partial, *products):
    """The _combinations of each product of candidate lists, in turn, as one
    _NSubsets view: its length is the product sizes less their exclusions."""
    held = []
    for cands in products:
        excluded = sorted(_rank(cands, combo) for combo in _excluded(ns, cands))
        held.append((cands, prod(map(len, cands)) - len(excluded), excluded))
    return _NSubsets(ns, tuple(held), range(sum(count for _, count, _ in held)), make)


def enumerate_n_substructures(ns: NStructure, per_component_species,
                              require_nonempty_all: bool = True):
    """Cartesian combinations of per-component substructures, in product
    order, as a read-only sequence of NSubsets (not a list).

    Excludes the all-full combination (not a proper subset) and, when
    require_nonempty_all is set, any combination with an empty component.
    The sequence is a view of the candidate lists that stores nothing per
    combination, so none is capped: an item is decoded from its rank, and
    boxed as an NSubset, when read, and iteration streams the product again."""
    cands = _candidates(ns, per_component_species, require_nonempty_all)
    return _view(ns, partial(NSubset._of, ns), cands)


def n_subset_is_produced(ns: NStructure, candidate: NSubset,
                         per_component_species,
                         require_nonempty_all: bool = True) -> bool:
    """Whether the cartesian enumeration would emit this NSubset.

    Membership decomposes componentwise: each part must be one of its
    component's candidates, a non-empty closed subset passing the species
    (or empty, where empty parts are admitted).  So each part is tested on
    its own, and neither the product nor any component's closed subsets are
    enumerated."""
    _require_per_component(ns, candidate, "candidate")
    _require_per_component(ns, per_component_species, "species")
    p = candidate.per_component
    if p == _fulls(ns) or not any(p):
        return False
    for comp, mem, species in zip(ns.components, p, per_component_species):
        if not mem:
            if require_nonempty_all:
                return False
            continue
        s = Subset(comp, mem)
        if not (is_closed(s) and evaluate_predicate(species, s)):
            return False
    return True


def _order_sums(ns: NStructure, cands):
    """(head, suffix): suffix[i] maps each order sum of components i..N-1 to
    the number of their combinations with that sum, the product of their
    size-count polynomials, so suffix[N] = {0: 1}; head is suffix[0] less
    the all-full (sum = union order) and all-empty (sum 0) combinations."""
    suffix = [{0: 1}]
    for items in reversed(cands):
        sizes = Counter(map(len, items))
        poly = Counter()
        for a, ca in sizes.items():
            for b, cb in suffix[-1].items():
                poly[a + b] += ca * cb
        suffix.append(poly)
    suffix.reverse()
    head = Counter(suffix[0])
    for combo in _excluded(ns, cands):
        head[sum(map(len, combo))] -= 1
    return +head, suffix


def _witness(ns: NStructure, total: int, parts) -> Witness:
    size = sum(map(len, parts))
    # tuple.__new__ skips the NamedTuple's __new__, a Python call per witness
    return tuple.__new__(Witness, (NSubset._of(ns, parts), size, total % size == 0))


def n_lagrange(ns: NStructure, per_component_species,
               require_nonempty_all: bool = True) -> ClassReport:
    """The Lagrange engine on N-subsets: order sums against the union order.

    The verdict comes from the order sums alone, and the witnesses are a view
    like the result of enumerate_n_substructures."""
    cands = _candidates(ns, per_component_species, require_nonempty_all)
    head, _ = _order_sums(ns, cands)
    total = ns.order
    verdict = verdict_of(list({total % size == 0 for size in head}))
    return ClassReport(verdict, _view(ns, partial(_witness, ns, total), cands))


def _first_of_size(ns: NStructure, cands, suffix):
    """size -> the first combination in product order whose member counts
    sum to size, or None, for 0 < size < union order.  Built greedily:
    component i takes its first candidate that leaves a sum the components
    after it can reach.  Only the all-full (sum = union order) and all-empty
    (sum 0) combinations are left out of the product, so no size in that
    range is affected by the exclusions."""

    def first(size):
        if size not in suffix[0]:
            return None
        combo = []
        for items, rest in zip(cands, suffix[1:]):
            for t in items:
                if size - len(t) in rest:
                    combo.append(t)
                    size -= len(t)
                    break
        return NSubset._of(ns, tuple(combo))

    return first


def n_sylow(ns: NStructure, per_component_species, variant: str = "standard",
            require_nonempty_all: bool = True) -> ClassReport:
    """Seek N-subsets of total order p^a for each prime p with p^a exactly
    dividing the union order.

    Works from order sums alone, so no combination is enumerated: each
    witness is the first combination in product order of its size, and the
    verdict is vacuous when the product, less the all-full and all-empty
    combinations, is empty."""
    cands = _candidates(ns, per_component_species, require_nonempty_all)
    head, suffix = _order_sums(ns, cands)
    verdict, hits, notes = sylow_verdict(ns.order, variant,
                                         _first_of_size(ns, cands, suffix),
                                         not head)
    wits = tuple(Witness(h, h.order, True) for h in hits)
    return ClassReport(verdict, wits, tuple(notes))


def n_cauchy(ns: NStructure) -> ClassReport:
    """Element orders are taken inside each component (to its identity and
    neutrosophic identity); divisibility is against the union order."""
    wits = []
    notes = []
    for ci, comp in enumerate(ns.components):
        wits.extend(_cauchy_witnesses(comp, ns.order, lambda x: (ci, x)))
        if comp.identity is None:
            notes.append(f"component {ci}: no identity, real orders skipped")
    return ClassReport(_cauchy_verdict(wits), tuple(wits), tuple(notes))


class TupleSylowReport(NamedTuple):
    found: bool
    witness: Optional[NSubset]
    primes: tuple


def tuple_sylow(ns: NStructure, primes, per_component_species,
                within: Optional[NSubset] = None) -> TupleSylowReport:
    """A component-local Sylow tuple: for each i, the first species subset,
    in lexicographic order, of component i of order p_i^a_i where p_i^a_i
    exactly divides the ambient part's order: the whole component, searched
    and memoized as by enumerate_closed_subsets, or within's part of it."""
    _require_per_component(ns, primes, "prime")
    _require_per_component(ns, per_component_species, "species")
    if within is not None:
        _require_per_component(ns, within, "within")
    for p in primes:
        if type(p) is not int or p < 2:
            raise ParameterError(f"each prime must be an integer >= 2, got {p!r}")
    choices = []
    for i, (comp, p, species) in enumerate(zip(ns.components, primes,
                                               per_component_species)):
        ambient = range(comp.order) if within is None else within.per_component[i]
        target = 1            # p^a exactly dividing the ambient order, if not empty
        while ambient and len(ambient) % (target * p) == 0:
            target *= p
        found = _species_subsets(comp, species, ambient) if target > 1 else ()
        hit = next((s.members for s in found if len(s) == target), None)
        if hit is None:
            return TupleSylowReport(False, None, tuple(primes))
        choices.append(hit)
    return TupleSylowReport(True, NSubset(ns, choices), tuple(primes))


def deficit_substructures(ns: NStructure, t: int, per_component_species):
    """N-subsets with exactly N - t non-empty components, as a read-only
    sequence of NSubsets (not a list) like enumerate_n_substructures: for
    each choice of live components in itertools.combinations order, the
    product of their candidates with () for every other component.  One
    view covers every choice; nothing is stored per combination."""
    if type(t) is not int or not 1 <= t < ns.n:
        raise ParameterError(f"deficit t must be an int with 1 <= t < {ns.n}, got {t!r}")
    cands = _candidates(ns, per_component_species, True)
    return _view(ns, partial(NSubset._of, ns),
                 *([cands[i] if i in live else [()] for i in range(ns.n)]
                   for live in combinations(range(ns.n), ns.n - t)))


def n_coset(ns: NStructure, h: NSubset, a) -> NSubset:
    """Right-translate the component containing a; other components pass
    through unchanged."""
    _require_per_component(ns, h, "coset subset")
    if not isinstance(a, Sequence) or len(a) != 2:
        raise ParameterError(f"element {a!r} is not a (component index, element index) pair")
    ci, ei = a
    if type(ci) is not int or not 0 <= ci < ns.n:
        raise ParameterError(f"component index {ci!r} is not an index in [0,{ns.n})")
    comp = ns.components[ci]
    _require_index(comp, ei, "element")
    parts = list(h.per_component)
    parts[ci] = tuple(sorted({comp.table[x][ei] for x in parts[ci]}))
    return NSubset(ns, parts)


def n_homomorphism_check(maps: Sequence[PartialMap]) -> bool:
    """Every componentwise partial map is a homomorphism (with the
    neutrosophic-identity clause where applicable)."""
    if not maps:
        raise ParameterError("no component maps given")
    return all(check_homomorphism(f) for f in maps)
