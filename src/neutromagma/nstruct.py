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
from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from typing import Optional

from .classify import (CARRIER_KINDS, ClassReport, SKind, Witness,
                       _cauchy_verdict, _cauchy_witnesses, detect_s_kind,
                       sylow_verdict, verdict_of)
from .magma import (FiniteMagma, ParameterError, PartialMap,
                    ResourceLimitError, Subset, _require_index, _require_indices,
                    check_homomorphism, enumerate_closed_subsets,
                    evaluate_predicate, is_closed, submagma)

DEFAULT_COMBINATION_CAP = 10 ** 6


def _verifier(kind: str):
    """The base kinds' whole-carrier rules are CARRIER_KINDS; an s-* kind is
    the SKind of the same name and holds when detect_s_kind finds a witness."""
    if kind in CARRIER_KINDS:
        return CARRIER_KINDS[kind]
    s_kind = SKind(kind.replace("-", "_"))
    return lambda m: detect_s_kind(m, s_kind).holds


# declared kind -> (verification predicate, family buckets used by the
# N-kind classifier)
KINDS = {kind: (_verifier(kind), families) for kind, families in {
    "group": ("group",),
    "semigroup": ("semigroup",),
    "loop": ("loop",),
    "groupoid": ("groupoid",),
    "neutrosophic-group": ("group", "neutro-group"),
    "neutrosophic-semigroup": ("semigroup", "neutro-semigroup"),
    "neutrosophic-loop": ("loop", "neutro-loop"),
    "neutrosophic-groupoid": ("groupoid", "neutro-groupoid"),
    "s-semigroup": ("semigroup", "s-semigroup"),
    "s-loop": ("loop", "s-loop"),
    "s-groupoid": ("groupoid", "s-groupoid"),
    "s-neutrosophic-group": ("group", "neutro-group", "s-neutro-group"),
    "strong-s-neutrosophic-group": ("group", "neutro-group", "s-neutro-group"),
    "s-neutrosophic-semigroup": ("semigroup", "neutro-semigroup",
                                 "s-neutro-semigroup"),
    "s-neutrosophic-loop": ("loop", "neutro-loop", "s-neutro-loop"),
    "s-neutrosophic-groupoid": ("groupoid", "neutro-groupoid",
                                "s-neutro-groupoid"),
}.items()}


class NStructure:
    """An ordered union G_1 u ... u G_N of disjoint-tagged components."""

    __slots__ = ("components", "declared_kinds", "name")

    def __init__(self, components: Sequence[FiniteMagma],
                 declared_kinds: Sequence[str], name: str = ""):
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


@dataclass(frozen=True)
class NKindVerdict:
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
        from dataclasses import fields
        return [f.name for f in fields(self) if getattr(self, f.name)]


def classify_n_kind(ns: NStructure) -> NKindVerdict:
    """Evaluate the family predicates from the verified declared kinds; the
    'or' clauses are non-exclusive and mixed families demand N >= 5."""
    fams = [set(KINDS[k][1]) for k in ns.declared_kinds]

    def every(f):
        return all(f in fs for fs in fams)

    def some(f):
        return any(f in fs for fs in fams)

    def some_other(f, g):
        idx_f = [i for i, fs in enumerate(fams) if f in fs]
        idx_g = [i for i, fs in enumerate(fams) if g in fs]
        return any(i != j for i in idx_f for j in idx_g)

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


def _combinations(ns: NStructure, cands):
    """NSubsets of the cartesian product of per-component candidate lists, in
    product order, without the all-full combination (not a proper subset)
    and the all-empty one."""
    fulls = _fulls(ns)
    of = NSubset._of
    for combo in product(*cands):
        if combo != fulls and any(combo):
            yield of(ns, combo)


def check_combination_count(count: int):
    """Raise ResourceLimitError when a list of count N-subsets would exceed
    DEFAULT_COMBINATION_CAP."""
    cap = DEFAULT_COMBINATION_CAP
    if count > cap:
        raise ResourceLimitError(f"combination count exceeds the {cap} guard")


def _combination_list(ns: NStructure, cands):
    """_combinations as a list, refused before the first combination when the
    product exceeds the guard."""
    check_combination_count(prod(max(len(c), 1) for c in cands))
    return list(_combinations(ns, cands))


def enumerate_n_substructures(ns: NStructure, per_component_species,
                              require_nonempty_all: bool = True):
    """Cartesian combinations of per-component substructures, as a list.

    Excludes the all-full combination (not a proper subset) and, when
    require_nonempty_all is set, any combination with an empty component."""
    cands = _candidates(ns, per_component_species, require_nonempty_all)
    return _combination_list(ns, cands)


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
    head[ns.order] -= all(f in c for f, c in zip(_fulls(ns), cands))
    head[0] -= all(() in c for c in cands)
    return +head, suffix


class _LagrangeWitnesses:
    """The witnesses of n_lagrange, read-only: the length comes from the
    order sums, and each iteration streams them again in product order."""

    __slots__ = ("_ns", "_cands", "_count")

    def __init__(self, ns: NStructure, cands, count: int):
        self._ns = ns
        self._cands = cands
        self._count = count

    def __len__(self):
        return self._count

    def __iter__(self):
        total = self._ns.order
        for p in _combinations(self._ns, self._cands):
            size = sum(map(len, p.per_component))
            yield Witness(p, size, total % size == 0)


def n_lagrange(ns: NStructure, per_component_species,
               require_nonempty_all: bool = True) -> ClassReport:
    """The Lagrange engine on N-subsets: order sums against the union order.

    The verdict and the witness count come from the order sums alone, so no
    combination guard applies; the witnesses stream on iteration."""
    cands = _candidates(ns, per_component_species, require_nonempty_all)
    head, _ = _order_sums(ns, cands)
    total = ns.order
    verdict = verdict_of(list({total % size == 0 for size in head}))
    return ClassReport(verdict, _LagrangeWitnesses(ns, cands, sum(head.values())))


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

    Works from order sums alone, so no combination is enumerated and no
    combination guard applies: each witness is the first combination in
    product order of its size, and the verdict is vacuous when the product,
    less the all-full and all-empty combinations, is empty."""
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


@dataclass(frozen=True)
class TupleSylowReport:
    found: bool
    witness: Optional[NSubset]
    primes: tuple


def tuple_sylow(ns: NStructure, primes, per_component_species,
                within: Optional[NSubset] = None) -> TupleSylowReport:
    """A component-local Sylow tuple: for each i, a species subset of
    component i of order p_i^a_i where p_i^a_i exactly divides the ambient
    component order (the whole component, or within's component)."""
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
        ambient = tuple(range(comp.order)) if within is None \
            else within.per_component[i]
        if not ambient:
            return TupleSylowReport(False, None, tuple(primes))
        alpha = 0
        size = len(ambient)
        while size % p == 0:
            size //= p
            alpha += 1
        if alpha == 0:
            return TupleSylowReport(False, None, tuple(primes))
        target = p ** alpha
        sub = submagma(comp, ambient)
        hit = None
        for s in enumerate_closed_subsets(sub, species, include_full=True):
            if len(s) == target:
                hit = tuple(ambient[j] for j in s.members)
                break
        if hit is None:
            return TupleSylowReport(False, None, tuple(primes))
        choices.append(hit)
    return TupleSylowReport(True, NSubset(ns, choices), tuple(primes))


def deficit_substructures(ns: NStructure, t: int, per_component_species):
    """N-subsets with exactly N - t non-empty components."""
    if not (1 <= t < ns.n):
        raise ParameterError(f"deficit t must satisfy 1 <= t < {ns.n}, got {t}")
    cands = _candidates(ns, per_component_species, True)
    out = []
    for live in combinations(range(ns.n), ns.n - t):
        out.extend(_combination_list(
            ns, [cands[i] if i in live else [()] for i in range(ns.n)]))
    return out


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
