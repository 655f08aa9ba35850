"""Smarandache detection and the uniform Lagrange / Sylow / Cauchy engines.

The source text restates the Lagrange, Sylow and Cauchy notions separately
for each structure kind with identical logic; here each is one engine
parameterized by the substructure species to search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .constructors import factorize
from .magma import (FiniteMagma, IdentityLaw, PreconditionError, Subset,
                    SubsetPredicate, _close, _find_identity, _group_ground,
                    _is_latin, _require_subset, check_identity_law,
                    classify_basic, cosets, element_orders,
                    enumerate_closed_subsets, is_closed)
from .neutro import (NEUTRO_SUBSEMIGROUP, is_neutrosophic_subgroup,
                     is_pseudo_neutrosophic_subgroup)


class SKind(Enum):
    S_SEMIGROUP = "s_semigroup"
    S_LOOP = "s_loop"
    S_GROUPOID = "s_groupoid"
    S_NEUTROSOPHIC_GROUP = "s_neutrosophic_group"
    STRONG_S_NEUTROSOPHIC_GROUP = "strong_s_neutrosophic_group"
    S_NEUTROSOPHIC_SEMIGROUP = "s_neutrosophic_semigroup"
    S_NEUTROSOPHIC_LOOP = "s_neutrosophic_loop"
    S_NEUTROSOPHIC_GROUPOID = "s_neutrosophic_groupoid"


class Verdict3(Enum):
    FULL = "full"
    WEAK = "weak"
    FREE = "free"
    VACUOUS = "vacuous"


def verdict_of(flags) -> Verdict3:
    """Full / Weak / Free / Vacuous according to whether every / some / none
    of a sequence of booleans holds, Vacuous when it is empty."""
    if not flags:
        return Verdict3.VACUOUS
    if all(flags):
        return Verdict3.FULL
    if any(flags):
        return Verdict3.WEAK
    return Verdict3.FREE


def _neutro_loop(m: FiniteMagma) -> bool:
    # tagged doublings are not loops; the untagged part must be one: an
    # identity and a Latin square, which makes it closed
    if not m.has_neutro():
        return False
    reals = [i for i in range(m.order) if not m.neutro_mask[i]]
    return (len(reals) > 0 and _find_identity(m.table, reals) is not None
            and _is_latin(m, reals))


# declared carrier kind -> whether a whole carrier is of that kind
CARRIER_KINDS = {
    "group": lambda m: classify_basic(m).is_group,
    "semigroup": lambda m: classify_basic(m).is_semigroup,
    "loop": lambda m: classify_basic(m).is_loop,
    "groupoid": lambda m: True,
    # carries I and some purely-real subset is a group of size >= 2
    "neutrosophic-group": lambda m: is_neutrosophic_subgroup(m.full_subset()),
    "neutrosophic-semigroup": lambda m: (m.has_neutro()
                                         and classify_basic(m).is_semigroup),
    "neutrosophic-loop": _neutro_loop,
    "neutrosophic-groupoid": lambda m: m.has_neutro(),
}

# variant -> (the carrier kind it presumes, the richer species a proper
# closed subset must form)
S_KINDS = {
    SKind.S_SEMIGROUP: ("semigroup", SubsetPredicate.IS_GROUP),
    SKind.S_LOOP: ("loop", SubsetPredicate.IS_GROUP),
    SKind.S_GROUPOID: ("groupoid", SubsetPredicate.IS_SEMIGROUP),
    SKind.S_NEUTROSOPHIC_GROUP: ("neutrosophic-groupoid",
                                 SubsetPredicate.IS_PSEUDO_NEUTROSOPHIC_SUBGROUP),
    SKind.STRONG_S_NEUTROSOPHIC_GROUP: ("neutrosophic-groupoid",
                                        SubsetPredicate.IS_NEUTROSOPHIC_SUBGROUP),
    SKind.S_NEUTROSOPHIC_SEMIGROUP: ("neutrosophic-semigroup",
                                     SubsetPredicate.IS_GROUP),
    SKind.S_NEUTROSOPHIC_LOOP: ("neutrosophic-groupoid",
                                SubsetPredicate.IS_NEUTROSOPHIC_SUBGROUP),
    SKind.S_NEUTROSOPHIC_GROUPOID: ("neutrosophic-groupoid", NEUTRO_SUBSEMIGROUP),
}


@dataclass(frozen=True)
class SDetection:
    holds: bool
    witness: Optional[Subset]


def detect_s_kind(m: FiniteMagma, kind: SKind) -> SDetection:
    """Search a carrier of the variant's presumed kind for its witness
    substructure; returns the lexicographically first witness."""
    carrier, species = S_KINDS[kind]
    if CARRIER_KINDS[carrier](m):
        found = enumerate_closed_subsets(m, species)
        if found:
            return SDetection(True, found[0])
    return SDetection(False, None)


# ---------------------------------------------------------------------------
# the three classification engines

@dataclass(frozen=True, slots=True)
class Witness:
    subset: object        # a Subset, or an NSubset from the N-level engines
    order: int
    qualifies: bool

    def to_dict(self):
        s = self.subset
        doc = ({"members": list(s.members)} if isinstance(s, Subset)
               else {"per_component": [list(p) for p in s.per_component]})
        doc["order"] = self.order
        doc["qualifies"] = self.qualifies
        return doc


@dataclass(frozen=True)
class ClassReport:
    verdict: Verdict3
    witnesses: tuple      # Witnesses, or ElementWitnesses from the Cauchy engines
    notes: tuple = ()

    def to_dict(self):
        return {
            "verdict": self.verdict.value,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def lagrange_classify(m: FiniteMagma, species) -> ClassReport:
    """Full / Weak / Free / Vacuous according to whether every / some / no
    species substructure has order dividing o(m)."""
    found = enumerate_closed_subsets(m, species)
    wits = tuple(Witness(s, len(s), m.order % len(s) == 0) for s in found)
    return ClassReport(verdict_of([w.qualifies for w in wits]), wits)


def _sylow_targets(order: int, variant: str):
    """prime -> set of sought substructure orders."""
    targets = {}
    for p, alpha in factorize(order):
        if variant == "standard":
            targets[p] = {p ** alpha}
        elif variant == "super":
            t = set()
            v = p ** (alpha + 1)
            while v < order:
                t.add(v)
                v *= p
            targets[p] = t
        elif variant == "semi":
            targets[p] = {p ** t for t in range(1, alpha)}
        else:
            raise PreconditionError(f"unknown sylow variant {variant!r}")
    return targets


def sylow_verdict(order: int, variant: str, first_of_size, vacuous: bool):
    """The Sylow rule shared by the magma-level and N-level engines.

    For each prime p of order, the variant's sought sizes are tried smallest
    first; first_of_size(size) returns the first candidate of that size or
    None.  Sizes that are not proper are skipped with a note.  Returns
    (verdict, hits, notes): the verdict_of the primes served, or Vacuous when
    there is no candidate at all; hits holds the candidate serving each
    served prime, in prime order."""
    targets = _sylow_targets(order, variant)
    hits = []
    notes = []
    served = []
    for p, sizes in sorted(targets.items()):
        hit = None
        for size in sorted(sizes):
            if size >= order:
                notes.append(f"p={p}: sought order {size} is not proper; skipped")
                continue
            hit = first_of_size(size)
            if hit is not None:
                break
        served.append(hit is not None)
        if hit is not None:
            hits.append(hit)
    return Verdict3.VACUOUS if vacuous else verdict_of(served), hits, notes


def sylow_classify(m: FiniteMagma, species, variant: str = "standard") -> ClassReport:
    """For each prime p with p^a exactly dividing o(m), seek a species
    substructure of order p^a (standard), p^(a+t) (super) or p^t, t < a
    (semi), by sylow_verdict."""
    if m.order < 2:
        raise PreconditionError("sylow classification needs order >= 2")
    found = enumerate_closed_subsets(m, species)
    first = {}
    for s in found:
        first.setdefault(len(s), s)
    verdict, hits, notes = sylow_verdict(m.order, variant, first.get, not found)
    return ClassReport(verdict, tuple(Witness(h, len(h), True) for h in hits),
                       tuple(notes))


@dataclass(frozen=True)
class ElementWitness:
    index: object        # an element index, or (component, index) at N level
    flavor: str          # "real" or "neutro"
    order: int
    qualifies: bool

    def to_dict(self):
        return {"members": [self.index], "order": self.order,
                "qualifies": self.qualifies, "flavor": self.flavor}


def _cauchy_witnesses(m: FiniteMagma, denom: int, key):
    """Element torsion witnesses of m, indexed by key(x), against denom;
    trivial identities are not torsion."""
    for x in range(m.order):
        orders = element_orders(m, x)
        if m.identity is not None and x != m.identity and orders.real_order is not None:
            yield ElementWitness(key(x), "real", orders.real_order,
                                 denom % orders.real_order == 0)
        if (m.neutro_identity is not None and x != m.neutro_identity
                and orders.neutro_order is not None):
            yield ElementWitness(key(x), "neutro", orders.neutro_order,
                                 denom % orders.neutro_order == 0)


def _cauchy_verdict(wits):
    verdict = verdict_of([w.qualifies for w in wits])
    # weakly Cauchy: at least one qualifying element of each torsion flavor
    if verdict is Verdict3.WEAK and \
            {w.flavor for w in wits if w.qualifies} != {w.flavor for w in wits}:
        return Verdict3.FREE
    return verdict


def cauchy_classify(m: FiniteMagma, relative_to: Optional[Subset] = None) -> ClassReport:
    """Cauchy / Cauchy-neutrosophic element classification.

    An element is Cauchy when its order to the identity divides o(m) (or
    o(relative_to) in the relative mode), and Cauchy-neutrosophic when its
    order to the neutrosophic identity divides the same denominator."""
    if relative_to is not None:
        _require_subset(m, relative_to, "relative_to")
    denom = m.order if relative_to is None else len(relative_to)
    notes = []
    if m.identity is None:
        notes.append("no identity: real orders skipped")
    if m.neutro_identity is None and m.has_neutro():
        notes.append("no neutrosophic identity: neutrosophic orders skipped")
    wits = tuple(_cauchy_witnesses(m, denom, lambda x: x))
    return ClassReport(_cauchy_verdict(wits), wits, tuple(notes))


def s_identity_class(m: FiniteMagma, law: IdentityLaw, species) -> Verdict3:
    """Quantify an identity law over species substructures (never over the
    whole carrier): the verdict_of whether each substructure satisfies it."""
    return verdict_of([check_identity_law(m, law, domain=s).holds
                       for s in enumerate_closed_subsets(m, species)])


# ---------------------------------------------------------------------------
# hyper subsemigroups and cosets of Smarandache species

@dataclass(frozen=True)
class HyperReport:
    largest_group: Optional[Subset]
    hyper_subsemigroup: Optional[Subset]
    s_simple: bool
    notes: tuple = ()


def s_hyper_and_simple(m: FiniteMagma) -> HyperReport:
    """Largest subgroup, the smallest proper subsemigroup strictly above it,
    and the induced simplicity verdict (no hyper subsemigroup exists)."""
    if not classify_basic(m).is_semigroup:
        raise PreconditionError("hyper subsemigroups live in semigroup carriers")
    # in a semigroup G_e, the maximal subgroup at the idempotent e, is a group
    # holding every subgroup with identity e; max keeps the first of a size
    t = m.table
    groups = sorted(tuple(_group_ground(t, e)) for e in range(m.order) if t[e][e] == e)
    best = Subset._of_closed(m, max(groups, key=len))
    if len(best) < 2:
        return HyperReport(None, None, True,
                           ("no subgroup of size >= 2; trivially simple",))
    if len(best) == m.order:
        return HyperReport(best, None, True,
                           ("largest group is the whole carrier; no proper superset",))
    # every closed set of two or more elements is a subsemigroup.  A shortest
    # proper closed superset is minimal, so it is closure(best | {x}) for its
    # least new element x; a closure adding an element below x is skipped
    mask = sum(1 << x for x in best.members)
    shortest = range(m.order)    # the whole carrier: every proper set is shorter
    for x in range(m.order):
        if not mask >> x & 1:
            stop = ((1 << x) - 1) & ~mask
            d, members = _close(t, mask, best.members, (x,), stop)
            if not d & stop and len(members) < len(shortest):
                shortest = members
    hyper = Subset._of_closed(m, tuple(sorted(shortest))) if len(shortest) < m.order else None
    return HyperReport(best, hyper, hyper is None)


def s_cosets(m: FiniteMagma, h: Subset, a: int, flavor: str = "plain") -> Subset:
    """Right translate of an S-species subset; the flavor names which coset
    species is being formed and enforces its precondition."""
    if flavor == "plain":
        if not (is_neutrosophic_subgroup(h) or is_closed(h)):
            raise PreconditionError(
                "plain S-coset needs a neutrosophic subgroup or a closed subset")
    elif flavor == "pseudo":
        if not is_pseudo_neutrosophic_subgroup(h):
            raise PreconditionError(
                "pseudo S-coset needs a pseudo neutrosophic subgroup")
    else:
        raise PreconditionError(f"unknown coset flavor {flavor!r}")
    return cosets(m, h, a, "right")
