"""Union structures: construction, kind classification, N-level engines."""

import random
import tracemalloc
from itertools import combinations, product
from math import prod

import pytest

import neutromagma as nm
from neutromagma import SubsetPredicate as SP
from neutromagma import Verdict3, cli
from neutromagma.nstruct import KINDS, _component_candidates, _fulls


def biloop():
    return nm.build_n_structure([nm.extend_tagged(nm.ln(5, 2)), nm.cyclic(6)],
                                ["s-neutrosophic-loop", "group"], "b")


def test_build_validation():
    with pytest.raises(nm.ParameterError):
        nm.build_n_structure([nm.cyclic(3)], ["group"])        # N = 1
    with pytest.raises(nm.ParameterError, match="component 0"):
        nm.build_n_structure([nm.zmod_mult(6), nm.cyclic(2)], ["group", "group"])
    with pytest.raises(nm.ParameterError):
        nm.build_n_structure([nm.cyclic(2), nm.cyclic(2)], ["group"])


def test_orders_sum():
    ns = biloop()
    assert ns.order == 18 == sum(c.order for c in ns.components)
    ns2 = nm.build_n_structure(
        [nm.zn_units_neutro(5), nm.zn_line_neutro(6), nm.alternating(4)],
        ["s-neutrosophic-group", "s-neutrosophic-semigroup", "group"])
    assert ns2.order == 8 + 11 + 12


def test_classify_n_kind_basic():
    two_groups = nm.build_n_structure([nm.cyclic(2), nm.cyclic(3)],
                                      ["group", "group"])
    v = nm.classify_n_kind(two_groups)
    assert v.n_group and not v.n_group_semigroup
    gs = nm.build_n_structure([nm.cyclic(2), nm.zmod_mult(6)],
                              ["group", "semigroup"])
    v = nm.classify_n_kind(gs)
    assert v.n_group_semigroup and not v.n_group
    # the group and the semigroup may come in either order
    sg = nm.build_n_structure([nm.zmod_mult(6), nm.cyclic(2)], ["semigroup", "group"])
    assert nm.classify_n_kind(sg).n_group_semigroup
    glsg = nm.build_n_structure(
        [nm.cyclic(2), nm.ln(5, 2), nm.zmod_mult(6), nm.zn(5, 2, 3)],
        ["group", "loop", "semigroup", "groupoid"])
    assert nm.classify_n_kind(glsg).n_glsg


def test_kind_buckets_are_read_from_kind_names():
    # the hand-kept table that the name rule replaced, keys in their order
    assert [(kind, families) for kind, (_, families) in KINDS.items()] == [
        ("group", ("group",)),
        ("semigroup", ("semigroup",)),
        ("loop", ("loop",)),
        ("groupoid", ("groupoid",)),
        ("neutrosophic-group", ("group", "neutro-group")),
        ("neutrosophic-semigroup", ("semigroup", "neutro-semigroup")),
        ("neutrosophic-loop", ("loop", "neutro-loop")),
        ("neutrosophic-groupoid", ("groupoid", "neutro-groupoid")),
        ("s-semigroup", ("semigroup", "s-semigroup")),
        ("s-loop", ("loop", "s-loop")),
        ("s-groupoid", ("groupoid", "s-groupoid")),
        ("s-neutrosophic-group", ("group", "neutro-group", "s-neutro-group")),
        ("strong-s-neutrosophic-group", ("group", "neutro-group", "s-neutro-group")),
        ("s-neutrosophic-semigroup", ("semigroup", "neutro-semigroup",
                                      "s-neutro-semigroup")),
        ("s-neutrosophic-loop", ("loop", "neutro-loop", "s-neutro-loop")),
        ("s-neutrosophic-groupoid", ("groupoid", "neutro-groupoid",
                                     "s-neutro-groupoid")),
    ]


def test_kind_monotonicity():
    # upgrading a declared semigroup to s-semigroup keeps S-N-verdicts true
    a = nm.build_n_structure(
        [nm.cyclic(2), nm.zmod_mult(6), nm.cyclic(3), nm.ln(5, 2), nm.zn(12, 2, 4)],
        ["group", "semigroup", "group", "loop", "groupoid"])
    b = nm.build_n_structure(
        [nm.cyclic(2), nm.zmod_mult(6), nm.cyclic(3), nm.ln(5, 2), nm.zn(12, 2, 4)],
        ["group", "s-semigroup", "group", "s-loop", "s-groupoid"])
    va, vb = nm.classify_n_kind(a), nm.classify_n_kind(b)
    for name in va.true_flags():
        if name.startswith("s_"):
            assert getattr(vb, name)


def test_enumerate_n_substructures():
    ns = biloop()
    subs = nm.enumerate_n_substructures(ns, [nm.S_NEUTRO_SUBLOOP, SP.IS_GROUP])
    for p in subs:
        assert p.order == sum(len(c) for c in p.per_component)
        assert all(c for c in p.per_component)       # nonempty everywhere
        assert nm.is_s_neutrosophic_subloop(
            nm.Subset(ns.components[0], p.per_component[0]))
        assert nm.subset_is_group(nm.Subset(ns.components[1], p.per_component[1])) \
            or p.per_component[1] == tuple(range(6))
    # a species nothing satisfies empties the whole cartesian product
    none = lambda s: False
    subs = nm.enumerate_n_substructures(ns, [none, SP.IS_GROUP])
    assert subs == []


def test_enumeration_cap(monkeypatch):
    # the N level keeps no cap: with the CLI's guard set to 10, all 127
    # N-subsets of the biloop are still listed, the all-full one left out
    monkeypatch.setattr(cli, "DEFAULT_COMBINATION_CAP", 10)
    ns = biloop()
    cands = [_component_candidates(c, SP.IS_SUBGROUPOID, allow_empty=False)
             for c in ns.components]
    want = [combo for combo in product(*cands) if combo != _fulls(ns)]
    assert len(want) == prod(map(len, cands)) - 1 == 127
    check_sequence(nm.enumerate_n_substructures(ns, [SP.IS_SUBGROUPOID] * 2), want)


def test_deficit_counts_every_choice_of_live_components(monkeypatch):
    # each cyclic(4) has 3 closed subsets, so each of the 3 choices of two
    # live components gives 9 N-subsets, 27 in all, past a guard of 10
    monkeypatch.setattr(cli, "DEFAULT_COMBINATION_CAP", 10)
    ns = nm.build_n_structure([nm.cyclic(4)] * 3, ["group"] * 3)
    species = [SP.IS_SUBGROUPOID] * 3
    cands = _component_candidates(nm.cyclic(4), SP.IS_SUBGROUPOID, allow_empty=False)
    want = [combo for live in combinations(range(3), 2)
            for combo in product(*(cands if i in live else [()] for i in range(3)))]
    assert len(want) == 27
    check_sequence(nm.deficit_substructures(ns, 1, species), want)
    assert len(nm.deficit_substructures(ns, 2, species)) == 9


def test_n_lagrange_prime_order():
    ns = nm.build_n_structure(
        [nm.zmod_mult(10), nm.zn_line_neutro(6),
         nm.direct_product(nm.zmod_mult(2), nm.zmod_mult(5))],
        ["s-semigroup", "s-neutrosophic-semigroup", "s-semigroup"])
    assert ns.order == 31
    rep = nm.n_lagrange(ns, [nm.GROUP_OR_S_SUBSEMIGROUP, SP.IS_S_NEUTROSOPHIC_SUB,
                             nm.GROUP_OR_S_SUBSEMIGROUP])
    assert rep.verdict in (Verdict3.FREE, Verdict3.VACUOUS)
    srep = nm.n_sylow(ns, [nm.GROUP_OR_S_SUBSEMIGROUP, SP.IS_S_NEUTROSOPHIC_SUB,
                           nm.GROUP_OR_S_SUBSEMIGROUP])
    assert srep.verdict in (Verdict3.FREE, Verdict3.VACUOUS)
    assert nm.n_cauchy(ns).verdict in (Verdict3.FREE, Verdict3.VACUOUS)


def oracle_n_cauchy(ns):
    """n_cauchy's witnesses and notes from the left-associated powers
    x, x*x, (x*x)*x, ... of each element, taken inside its component."""
    wits, notes = [], []
    for ci, c in enumerate(ns.components):
        for x in range(c.order):
            powers = [x]
            while len(powers) < c.order:
                powers.append(c.table[powers[-1]][x])
            for flavor, e in (("real", c.identity), ("neutro", c.neutro_identity)):
                if e is not None and x != e and e in powers:
                    k = powers.index(e) + 1
                    wits.append(((ci, x), flavor, k, ns.order % k == 0))
        if c.identity is None:
            notes.append(f"component {ci}: no identity, real orders skipped")
    return wits, notes


@pytest.mark.parametrize("parts", [
    [(lambda: nm.zn(5, 2, 3), "groupoid"),
     (lambda: nm.zn_line_neutro(4), "neutrosophic-semigroup"),
     (lambda: nm.cyclic(6), "group")],
    [(lambda: nm.extend_tagged(nm.ln(5, 2)), "s-neutrosophic-loop"),
     (lambda: nm.zn_affine_neutro(3, 2, 1), "neutrosophic-groupoid"),
     (lambda: nm.zn_units_neutro(5), "s-neutrosophic-group")],
], ids=["zn-groupoid", "affine-groupoid"])
def test_n_cauchy_against_powers(parts):
    ns = nm.build_n_structure([build() for build, _ in parts],
                              [kind for _, kind in parts])
    assert any(c.identity is None for c in ns.components)
    rep = nm.n_cauchy(ns)
    got = [(w.index, w.flavor, w.order, w.qualifies) for w in rep.witnesses]
    assert (got, list(rep.notes)) == oracle_n_cauchy(ns)


def test_tuple_sylow_vacuous():
    ns = biloop()
    rep = nm.tuple_sylow(ns, (7, 7), [SP.IS_GROUP, SP.IS_GROUP])
    assert not rep.found                      # 7 divides neither 12 nor 6
    with pytest.raises(nm.ParameterError):
        nm.tuple_sylow(ns, (2,), [SP.IS_GROUP])
    with pytest.raises(nm.ParameterError):
        nm.tuple_sylow(ns, (2, 2), [SP.IS_GROUP])


def test_tuple_sylow_primes_are_ints_from_2():
    ns = nm.build_n_structure([nm.cyclic(4), nm.cyclic(6)], ["group", "group"])
    species = [SP.IS_GROUP, SP.IS_GROUP]
    # p = 1 once looped for ever and p = 0 divided by zero
    for bad in (1, 0, -2, 2.0, True):
        for primes in ((bad, 2), (2, bad)):
            with pytest.raises(nm.ParameterError, match="integer >= 2"):
                nm.tuple_sylow(ns, primes, species)
    # there is no primality rule: 4 = 4^1 exactly divides 4
    rep = nm.tuple_sylow(ns, (4, 2), species)
    assert rep.found and rep.witness.per_component == ((0, 1, 2, 3), (0, 3))


def test_tuple_sylow_found():
    ns = biloop()
    rep = nm.tuple_sylow(ns, (2, 3), [nm.S_NEUTRO_SUBLOOP, SP.IS_GROUP])
    assert rep.found
    w = rep.witness
    assert len(w.per_component[0]) == 4       # 2^2 exactly divides 12
    assert len(w.per_component[1]) == 3
    # cross-check: each component-level engine also finds that Sylow order
    for comp, prime, species, size in ((ns.components[0], 2, nm.S_NEUTRO_SUBLOOP, 4),
                                       (ns.components[1], 3, SP.IS_GROUP, 3)):
        crep = nm.sylow_classify(comp, species)
        assert any(v.order == size for v in crep.witnesses)


def test_tuple_sylow_species_read_the_whole_component():
    # S_NEUTRO_SUBLOOP pairs index i with i + order // 2 of its carrier, so it
    # is evaluated on the component: on a reindexed copy of within's part it
    # pairs the wrong elements and finds no witness
    ns = nm.build_n_structure([nm.extend_tagged(nm.ln(9, 2)), nm.cyclic(2)],
                              ["s-neutrosophic-loop", "group"])
    comp = ns.components[0]
    part = comp.subset(["e", "1"] + [x + "I" for x in comp.labels[:10]]).members
    rep = nm.tuple_sylow(ns, (2, 2), [nm.S_NEUTRO_SUBLOOP, SP.IS_GROUP],
                         within=nm.NSubset(ns, [part, (0, 1)]))
    assert rep.found
    assert nm.Subset(comp, rep.witness.per_component[0]).labels() == ["e", "1", "eI", "1I"]


def test_tuple_sylow_finds_subgroups_per_idempotent():
    # zmod_mult(60) has more than MAX_CLOSED_SUBSETS closed subsets, so its
    # subgroups are searched per idempotent, inside within's part too
    ns = nm.build_n_structure([nm.zmod_mult(60), nm.cyclic(2)], ["semigroup", "group"])
    first = next(s.members for s in nm.enumerate_closed_subsets(ns.components[0], SP.IS_GROUP)
                 if len(s) == 4)
    for within in (None, nm.NSubset(ns, [range(60), (0, 1)])):
        rep = nm.tuple_sylow(ns, (2, 2), GROUPS, within=within)
        assert rep.witness.per_component == (first, (0, 1))


@pytest.mark.parametrize("species", [SP.IS_GROUP, SP.IS_LOOP, SP.IS_SUBGROUPOID])
def test_tuple_sylow_keeps_the_whole_components_answer(species):
    # with no within each whole component is searched as
    # enumerate_closed_subsets(comp, species, include_full=True) searches it,
    # and the answer is kept in the component's memo
    ns = nm.build_n_structure([nm.ln(5, 2), nm.zmod_mult(12)], ["loop", "semigroup"])
    assert not any((species, True) in c._subset_cache for c in ns.components)
    rep = nm.tuple_sylow(ns, (2, 2), [species, species])
    assert rep.found
    assert all((species, True) in c._subset_cache for c in ns.components)
    assert rep.witness.per_component == tuple(
        next(s.members for s in nm.enumerate_closed_subsets(c, species, include_full=True)
             if len(s) == size) for c, size in zip(ns.components, (2, 4)))


def first_sylow_set(comp, species, part, p):
    """The first subset of part in lexicographic order, of the order p^a
    exactly dividing len(part), that is closed and satisfies species, by a
    scan of every subset of part of that order; None if there is none."""
    target = 1
    while part and len(part) % (target * p) == 0:
        target *= p
    t = comp.table
    return next((mem for mem in combinations(part, target) if target > 1
                 and all(t[x][y] in mem for x in mem for y in mem)
                 and nm.magma.evaluate_predicate(species, nm.Subset(comp, mem))), None)


def test_tuple_sylow_within_against_a_scan_of_the_part():
    rng = random.Random(30)

    def commutative(s):
        t = s.parent.table
        return all(t[x][y] == t[y][x] for x in s for y in s)

    found = 0
    for comp, kind in ((nm.ln(7, 3), "loop"), (nm.zmod_mult(12), "semigroup")):
        ns = nm.build_n_structure([comp, nm.cyclic(2)], [kind, "group"])
        # random parts, and each closed set with a few random elements added
        parts = [tuple(sorted(rng.sample(range(comp.order), size)))
                 for size in range(1, comp.order + 1) for _ in range(3)]
        parts += [tuple(sorted({*s, *rng.sample(range(comp.order), rng.randint(0, 3))}))
                  for s in nm.enumerate_closed_subsets(comp, include_full=True)]
        for species in (SP.IS_GROUP, SP.IS_LOOP, commutative):
            for part, p in product(parts, (2, 3)):
                within = nm.NSubset(ns, [part, (0, 1)])
                rep = nm.tuple_sylow(ns, (p, 2), [species, SP.IS_GROUP], within=within)
                want = first_sylow_set(comp, species, part, p)
                assert rep.found == (want is not None)
                assert rep.witness is None or rep.witness.per_component == (want, (0, 1))
                found += rep.found
    assert found > 100


def test_deficit_substructures():
    ns = biloop()
    with pytest.raises(nm.ParameterError):
        nm.deficit_substructures(ns, 2, [SP.IS_GROUP, SP.IS_GROUP])
    one_comp = nm.deficit_substructures(ns, 1, [nm.S_NEUTRO_SUBLOOP, SP.IS_GROUP])
    assert one_comp
    for p in one_comp:
        assert sum(1 for c in p.per_component if c) == 1


@pytest.mark.parametrize("t", [1.5, "1", None, True])
def test_deficit_t_must_be_an_int(t):
    with pytest.raises(nm.ParameterError, match="an int"):
        nm.deficit_substructures(biloop(), t, [SP.IS_GROUP, SP.IS_GROUP])


def test_n_coset():
    ns = biloop()
    comp0, comp1 = ns.components
    h = nm.NSubset(ns, [comp0.subset(["e", "eI", "3", "3I"]).members,
                        comp1.subset(["1", "g^3"]).members])
    # translating by a component identity changes nothing
    same = nm.n_coset(ns, h, (1, comp1.identity))
    assert same.per_component == h.per_component
    moved = nm.n_coset(ns, h, (1, comp1.index("g^3")))
    assert moved.per_component[0] == h.per_component[0]     # pass-through
    assert set(moved.per_component[1]) == {comp1.index("1"), comp1.index("g^3")}


@pytest.mark.parametrize("bad", [True, 1.0, -1, 12],
                         ids=["True", "1.0", "-1", "12"])
def test_n_level_indices_are_ints(bad):
    # member, component and element indices are ints in range, not bools
    # or floats, as for the subsets of one carrier
    ns = biloop()
    h = nm.NSubset(ns, [(0,), (0,)])
    with pytest.raises(nm.ParameterError, match="NSubset member"):
        nm.NSubset(ns, [(0, bad), (0,)])
    with pytest.raises(nm.ParameterError, match="component index"):
        nm.n_coset(ns, h, (bad, 1))
    with pytest.raises(nm.ParameterError, match="element"):
        nm.n_coset(ns, h, (0, bad))


# entry point -> (a call on biloop() and h = ({0}, {0}), the message it
# raises); each once raised a raw TypeError or ValueError from len() or from
# unpacking
MALFORMED_N_ARGUMENTS = {
    "NSubset-int": (lambda ns, h: nm.NSubset(ns, 5), "NSubset member"),
    "NSubset-iterator": (lambda ns, h: nm.NSubset(ns, iter([(0,), (0,)])), "NSubset member"),
    "NSubset-int-part": (lambda ns, h: nm.NSubset(ns, [5, (0,)]), "NSubset member"),
    "n_coset-int": (lambda ns, h: nm.n_coset(ns, h, 5), "element"),
    "n_coset-1-tuple": (lambda ns, h: nm.n_coset(ns, h, (0,)), "element"),
    "n_coset-3-tuple": (lambda ns, h: nm.n_coset(ns, h, (0, 1, 2)), "element"),
}


@pytest.mark.parametrize("call, match", MALFORMED_N_ARGUMENTS.values(),
                         ids=MALFORMED_N_ARGUMENTS.keys())
def test_malformed_n_level_arguments(call, match):
    ns = biloop()
    with pytest.raises(nm.ParameterError, match=match):
        call(ns, nm.NSubset(ns, [(0,), (0,)]))


def two_groups():
    return nm.build_n_structure([nm.cyclic(4), nm.cyclic(6)], ["group", "group"])


GROUPS = [SP.IS_GROUP, SP.IS_GROUP]
# entry point -> a call on two_groups() with w, an N-subset of a structure of
# other tables, or with a bare int where one entry per component is due
FOREIGN_ARGUMENTS = {
    "n_coset": lambda ns, w: nm.n_coset(ns, w, (0, 1)),
    "tuple_sylow-within": lambda ns, w: nm.tuple_sylow(ns, (2, 3), GROUPS, within=w),
    "tuple_sylow-primes": lambda ns, w: nm.tuple_sylow(ns, 5, GROUPS),
    "tuple_sylow-species": lambda ns, w: nm.tuple_sylow(ns, (2, 3), 5),
    "n_subset_is_produced": lambda ns, w: nm.n_subset_is_produced(ns, w, GROUPS),
    "n_subset_is_produced-species": lambda ns, w: nm.n_subset_is_produced(
        ns, nm.NSubset(ns, [(0, 2), (0, 3)]), 5),
    "n_lagrange": lambda ns, w: nm.n_lagrange(ns, 5),
    "n_sylow": lambda ns, w: nm.n_sylow(ns, 5),
    "enumerate_n_substructures": lambda ns, w: nm.enumerate_n_substructures(ns, 5),
    "deficit_substructures": lambda ns, w: nm.deficit_substructures(ns, 1, 5),
}


@pytest.mark.parametrize("call", FOREIGN_ARGUMENTS.values(), ids=FOREIGN_ARGUMENTS)
def test_n_level_arguments_belong_to_the_structure(call):
    # w's indices are in range for cyclic(4) and cyclic(6), but name other
    # elements there; they once answered or raised a raw IndexError/TypeError
    other = nm.build_n_structure([nm.cyclic(8), nm.cyclic(9)], ["group", "group"])
    w = nm.NSubset(other, [(0, 2), (0, 3)])
    with pytest.raises(nm.ParameterError, match="N-subset of|per component"):
        call(two_groups(), w)


def test_n_subsets_of_equal_tables_are_accepted():
    ns, twin = two_groups(), two_groups()
    w = nm.NSubset(twin, [(0, 2), (0, 3)])
    assert nm.n_coset(ns, w, (0, 1)).per_component == ((1, 3), (0, 3))
    assert nm.n_subset_is_produced(ns, w, GROUPS)
    rep = nm.tuple_sylow(ns, (2, 2), GROUPS, within=w)
    assert rep.found and rep.witness.per_component == ((0, 2), (0, 3))


def test_n_homomorphism_check():
    g = nm.cyclic(5)
    ident = nm.PartialMap(g, g, tuple((i, i) for i in range(5)))
    assert nm.n_homomorphism_check([ident, ident])
    bad = nm.PartialMap(g, g, ((1, 0), (2, 1)))
    assert not nm.n_homomorphism_check([ident, bad])
    with pytest.raises(nm.ParameterError):
        nm.n_homomorphism_check([])


def test_n_subset_is_produced_matches_enumeration():
    ns = biloop()
    species = [nm.S_NEUTRO_SUBLOOP, SP.IS_GROUP]
    subs = nm.enumerate_n_substructures(ns, species)
    emitted = {p.per_component for p in subs}
    for p in subs[:20]:
        assert nm.n_subset_is_produced(ns, p, species)
    fulls = nm.NSubset(ns, [tuple(range(ns.components[0].order)),
                            tuple(range(ns.components[1].order))])
    assert fulls.per_component not in emitted
    assert not nm.n_subset_is_produced(ns, fulls, species)


def test_public_nsubset_validates():
    ns = biloop()
    p = nm.NSubset(ns, [[3, 0, 3], ()])
    assert p.per_component == ((0, 3), ())
    with pytest.raises(nm.ParameterError):
        nm.NSubset(ns, [(0, 12), ()])              # component 0 has order 12
    with pytest.raises(nm.ParameterError):
        nm.NSubset(ns, [(0,)])


# ---------------------------------------------------------------------------
# the N-level engines against a brute-force product of component candidates

def product_oracle(ns, species, require_nonempty_all=True):
    """Every combination the engines range over, in product order."""
    cands = [_component_candidates(c, sp, allow_empty=not require_nonempty_all)
             for c, sp in zip(ns.components, species)]
    fulls = tuple(tuple(range(c.order)) for c in ns.components)
    return [combo for combo in product(*cands)
            if combo != fulls and any(combo)
            and (all(combo) or not require_nonempty_all)]


def oracle_verdict(flags):
    if not flags:
        return Verdict3.VACUOUS
    if all(flags):
        return Verdict3.FULL
    return Verdict3.WEAK if any(flags) else Verdict3.FREE


def sylow_oracle(ns, combos, variant):
    """(verdict, witnesses as (per_component, order), notes) from the first
    combination of each order sum."""
    order = ns.order
    first = {}
    for combo in combos:
        first.setdefault(sum(map(len, combo)), combo)
    wits, notes, served = [], [], []
    for p, a in nm.factorize(order):
        if variant == "standard":
            sizes = [p ** a]
        elif variant == "super":
            sizes = [p ** e for e in range(a + 1, order) if p ** e < order]
        else:
            sizes = [p ** e for e in range(1, a)]
        hit = None
        for size in sizes:
            if size >= order:
                notes.append(f"p={p}: sought order {size} is not proper; skipped")
                continue
            if size in first:
                hit = first[size]
                wits.append((hit, size))
                break
        served.append(hit is not None)
    if not combos:
        verdict = Verdict3.VACUOUS
    elif all(served):
        verdict = Verdict3.FULL
    else:
        verdict = Verdict3.WEAK if any(served) else Verdict3.FREE
    return verdict, wits, notes


C = SP.IS_SUBGROUPOID
UNIONS = {
    # order 18 = 2 * 3^2
    "biloop": lambda: (biloop(), [C, C]),
    # order 16, a prime power: the standard target is not proper
    "order16": lambda: (nm.build_n_structure(
        [nm.zn_units_neutro(5), nm.zmod_mult(8)],
        ["s-neutrosophic-group", "semigroup"]), [C, C]),
    # order 32 with the species of the book's example 2.3.3: 27,900 combinations
    "ngroup233": lambda: (nm.build_n_structure(
        [nm.zn_line_neutro(6), nm.symmetric_group(3), nm.zmod_mult(15)],
        ["s-neutrosophic-semigroup", "group", "s-semigroup"]),
        [SP.IS_S_NEUTROSOPHIC_SUB, SP.IS_GROUP, nm.GROUP_OR_S_SUBSEMIGROUP]),
    # order 17, prime: nothing divides it
    "prime17": lambda: (nm.build_n_structure(
        [nm.zn_line_neutro(4), nm.zmod_mult(6), nm.cyclic(4)],
        ["neutrosophic-semigroup", "semigroup", "group"]), [C, SP.IS_SEMIGROUP, C]),
}


@pytest.mark.parametrize("name", sorted(UNIONS))
@pytest.mark.parametrize("nonempty", [True, False])
def test_n_lagrange_against_product(name, nonempty):
    ns, species = UNIONS[name]()
    combos = product_oracle(ns, species, nonempty)
    want = [(c, sum(map(len, c)), ns.order % sum(map(len, c)) == 0) for c in combos]
    rep = nm.n_lagrange(ns, species, nonempty)
    wits = rep.witnesses
    first = list(wits)

    def fields(ws):
        return [(w.subset.per_component, w.order, w.qualifies) for w in ws]

    assert fields(first) == want
    assert rep.verdict == oracle_verdict([q for _, _, q in want])
    # read as a sequence: by index, negative index and slice
    assert len(wits) == len(want)
    for i in {0, len(want) // 3, len(want) - 1} if want else ():
        assert wits[i] == first[i] and wits[i - len(want)] == first[i]
        assert fields([wits[i]]) == want[i:i + 1]
    for sl in (slice(1, 4), slice(-3, None), slice(None, None, 7), slice(-2, 0, -3)):
        assert list(wits[sl]) == first[sl] and fields(wits[sl]) == want[sl]
        assert len(wits[sl]) == len(want[sl])


@pytest.mark.parametrize("name", sorted(UNIONS))
@pytest.mark.parametrize("nonempty", [True, False])
def test_n_sylow_against_product(name, nonempty):
    ns, species = UNIONS[name]()
    combos = product_oracle(ns, species, nonempty)
    for variant in ("standard", "super", "semi"):
        verdict, wits, notes = sylow_oracle(ns, combos, variant)
        rep = nm.n_sylow(ns, species, variant, nonempty)
        assert rep.verdict == verdict, variant
        assert [(w.subset.per_component, w.order) for w in rep.witnesses] == wits
        assert all(w.qualifies for w in rep.witnesses)
        assert list(rep.notes) == notes


def test_n_sylow_vacuous_and_species_count():
    ns = biloop()
    none = lambda s: False
    rep = nm.n_sylow(ns, [none, C])
    assert rep.verdict == Verdict3.VACUOUS and rep.witnesses == ()
    # empty components admitted: only the all-empty combination would be left
    assert nm.n_sylow(ns, [none, none], require_nonempty_all=False).verdict \
        == Verdict3.VACUOUS
    with pytest.raises(nm.ParameterError):
        nm.n_sylow(ns, [C])


def test_n_sylow_past_the_combination_guard():
    # 645 * 42 * 12 * 42 = 13,653,360 combinations, union order 44 = 4 * 11
    ns = nm.build_n_structure(
        [nm.zn_full_neutro(4), nm.zmod_mult(10), nm.zn_units_neutro(5),
         nm.zmod_mult(10)],
        ["neutrosophic-semigroup", "semigroup", "neutrosophic-group", "semigroup"])
    species = [C] * 4
    cands = [_component_candidates(c, C, allow_empty=False) for c in ns.components]
    # the enumeration holds all of them but the all-full one, past the CLI's
    # guard of 10^6, with no cap of its own
    subs = nm.enumerate_n_substructures(ns, species)
    assert len(subs) == 13_653_360 - 1 > cli.DEFAULT_COMBINATION_CAP
    assert nm.NSubset(ns, _fulls(ns)) not in subs
    assert subs[0].per_component == tuple(c[0] for c in cands)
    assert subs[-1].per_component == tuple(c[-1] for c in cands) != _fulls(ns)
    rep = nm.n_sylow(ns, species)
    assert rep.verdict == Verdict3.FULL
    for w in rep.witnesses:
        # the first combination of that order, found by a lazy product scan
        want = next(c for c in product(*cands) if sum(map(len, c)) == w.order)
        assert w.subset.per_component == want
    assert [w.order for w in rep.witnesses] == [4, 11]


@pytest.mark.parametrize("name, ts", [("biloop", (1,)), ("prime17", (1, 2))])
def test_deficit_against_product(name, ts):
    ns, species = UNIONS[name]()
    cands = [[()] + _component_candidates(c, sp, allow_empty=False)
             for c, sp in zip(ns.components, species)]
    for t in ts:
        want = {combo for combo in product(*cands)
                if sum(1 for part in combo if part) == ns.n - t}
        got = nm.deficit_substructures(ns, t, species)
        assert len(got) == len(want)
        assert {p.per_component for p in got} == want


@pytest.mark.parametrize("name", ["biloop", "prime17"])
def test_deficit_membership_decomposes(name):
    # for 1 <= t < N: exactly N - t non-empty parts, and produced by the
    # enumeration that admits empty parts
    ns, species = UNIONS[name]()
    cands = [[()] + _component_candidates(c, sp, allow_empty=False)
             for c, sp in zip(ns.components, species)]
    for t in range(1, ns.n):
        want = {p.per_component for p in nm.deficit_substructures(ns, t, species)}
        got = {combo for combo in product(*cands)
               if sum(1 for part in combo if part) == ns.n - t
               and nm.n_subset_is_produced(ns, nm.NSubset(ns, combo), species,
                                           require_nonempty_all=False)}
        assert got == want


@pytest.mark.parametrize("name", sorted(UNIONS))
def test_n_lagrange_witnesses_stream(name):
    ns, species = UNIONS[name]()
    wits = nm.n_lagrange(ns, species).witnesses
    first = [(w.subset.per_component, w.order, w.qualifies) for w in wits]
    again = [(w.subset.per_component, w.order, w.qualifies) for w in wits]
    assert len(wits) == len(first) and first == again


def test_n_lagrange_past_the_combination_guard():
    # the union of the Sylow test above: 645 * 42 * 12 * 42 = 13,653,360
    # combinations, union order 44
    ns = nm.build_n_structure(
        [nm.zn_full_neutro(4), nm.zmod_mult(10), nm.zn_units_neutro(5),
         nm.zmod_mult(10)],
        ["neutrosophic-semigroup", "semigroup", "neutrosophic-group", "semigroup"])
    rep = nm.n_lagrange(ns, [C] * 4)
    cands = [_component_candidates(c, C, allow_empty=False) for c in ns.components]
    assert [len(c) for c in cands] == [645, 42, 12, 42]
    # order sums over the distinct member counts of each component, weighted
    # by how many candidates have that count; all-full is the one left out
    counts = [{} for _ in cands]
    for cnt, items in zip(counts, cands):
        for t in items:
            cnt[len(t)] = cnt.get(len(t), 0) + 1
    sums = {}
    for choice in product(*(sorted(c.items()) for c in counts)):
        size = sum(s for s, _ in choice)
        weight = 1
        for _, n in choice:
            weight *= n
        sums[size] = sums.get(size, 0) + weight
    sums[ns.order] -= 1
    assert len(rep.witnesses) == 13_653_360 - 1 == sum(sums.values())
    flags = [ns.order % s == 0 for s, n in sums.items() if n]
    assert rep.verdict == oracle_verdict(flags)
    # the report's repr lists no witness
    tracemalloc.start()
    try:
        text = repr(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert f"_NSubsets(length=13653359, parent={ns!r})" in text


@pytest.mark.parametrize("name, nonempty", [
    ("biloop", True), ("biloop", False), ("prime17", True), ("prime17", False),
    ("ngroup233", True), ("unfiltered", True)])
def test_n_subset_is_produced_per_part(name, nonempty):
    # every subset of one component, the other parts fixed to a non-empty,
    # non-full candidate: produced exactly when that part is a candidate.
    # ngroup233's species reject some closed subsets of each component; with
    # no species, closure alone decides.
    if name == "unfiltered":
        ns, species = biloop(), [None, None]
    else:
        ns, species = UNIONS[name]()
    cands = [_component_candidates(c, sp, allow_empty=not nonempty)
             for c, sp in zip(ns.components, species)]
    base = [next(t for t in items if t and len(t) < c.order)
            for c, items in zip(ns.components, cands)]
    for i, comp in enumerate(ns.components):
        want = set(cands[i])
        for r in range(comp.order + 1):
            for part in combinations(range(comp.order), r):
                parts = base[:i] + [part] + base[i + 1:]
                got = nm.n_subset_is_produced(ns, nm.NSubset(ns, parts), species,
                                              nonempty)
                assert got == (part in want), (i, part)


# ---------------------------------------------------------------------------
# the combination lists: values and order against a filtered product

def every_exclusion():
    # every closed-subset list holds the full component, and with empty parts
    # admitted every candidate list holds () too, so the all-full and the
    # all-empty combinations both occur in the product
    return nm.build_n_structure([nm.cyclic(4), nm.zmod_mult(6), nm.zn_line_neutro(4)],
                                ["group", "semigroup", "neutrosophic-semigroup"])


def check_sequence(result, want):
    """result holds the N-subsets with the parts in want, in that order, and
    reads as a read-only sequence of them."""
    assert not isinstance(result, tuple)
    items = list(result)
    assert [p.per_component for p in items] == want
    assert [p.per_component for p in result] == want           # a second iteration
    assert len(result) == len(want)
    assert result == items and items == result and result == list(result)
    assert result != items[:-1] and result != items[1:] + items[:1]
    parent = items[0].parent
    assert all(p.parent is parent for p in items)
    assert result[0] == items[0] and result[-1] == items[-1]
    assert result[-len(want)] == items[0]
    for sl in (slice(1, 4), slice(None, None, -1), slice(-3, None), slice(5, 2),
               slice(None, None, 3), slice(-2, 0, -2)):
        part = result[sl]
        assert type(part) is type(result)
        assert list(part) == items[sl] and len(part) == len(items[sl])
    assert result[:] == result and result[1:] != result
    assert result[1:] != result[:-1]
    assert items[len(want) // 2] in result and items[-1] in result
    with pytest.raises(IndexError):
        result[len(want)]


@pytest.mark.parametrize("nonempty", [True, False])
def test_enumeration_order_against_product(nonempty):
    ns = every_exclusion()
    cands = [_component_candidates(c, C, allow_empty=not nonempty) for c in ns.components]
    fulls = tuple(tuple(range(c.order)) for c in ns.components)
    assert all(f in c for f, c in zip(fulls, cands))
    assert all(() in c for c in cands) is not nonempty
    want = [combo for combo in product(*cands) if combo != fulls and any(combo)]
    assert fulls not in want and ((),) * ns.n not in want
    result = nm.enumerate_n_substructures(ns, [C] * ns.n, nonempty)
    check_sequence(result, want)
    absent = nm.NSubset(ns, fulls)
    assert absent not in result


@pytest.mark.parametrize("name", ["biloop", "prime17", "every_exclusion"])
def test_deficit_order_against_product(name):
    # one filtered product per choice of live components, in the order of
    # itertools.combinations
    if name == "every_exclusion":
        ns, species = every_exclusion(), [C] * 3
    else:
        ns, species = UNIONS[name]()
    cands = [[()] + _component_candidates(c, sp, allow_empty=False)
             for c, sp in zip(ns.components, species)]
    for t in range(1, ns.n):
        want = [combo for live in combinations(range(ns.n), ns.n - t)
                for combo in product(*cands)
                if {i for i, part in enumerate(combo) if part} == set(live)]
        check_sequence(nm.deficit_substructures(ns, t, species), want)


@pytest.mark.parametrize("nonempty", [True, False])
def test_length_counts_only_the_combinations_held(monkeypatch, nonempty):
    # the product holds the all-full combination, and with empty parts
    # admitted the all-empty one too; the sequence holds neither, and its
    # length counts neither, with the CLI's guard one below that length
    ns = every_exclusion()
    cands = [_component_candidates(c, C, allow_empty=not nonempty) for c in ns.components]
    left_out = [_fulls(ns)] + [((),) * 3] * (not nonempty)
    want = [combo for combo in product(*cands) if combo not in left_out]
    assert len(want) == prod(map(len, cands)) - len(left_out)
    monkeypatch.setattr(cli, "DEFAULT_COMBINATION_CAP", len(want) - 1)
    subs = nm.enumerate_n_substructures(ns, [C] * 3, nonempty)
    check_sequence(subs, want)
    assert all(nm.NSubset(ns, combo) not in subs for combo in left_out)


def test_combination_sequence_stores_nothing_per_combination():
    # the four-component union of the CI "N-combination cost" step: with its
    # candidates found once, building its 76,776 deficit N-subsets at t = 2
    # allocates no memory per combination
    ns = nm.build_n_structure(
        [nm.zmod_mult(12), nm.zn_line_neutro(6), nm.zn_full_neutro(3), nm.zmod_mult(10)],
        ["semigroup", "neutrosophic-semigroup", "neutrosophic-semigroup", "semigroup"])
    species = [SP.IS_SUBGROUPOID] * 4
    nm.deficit_substructures(ns, 3, species)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        subs = nm.deficit_substructures(ns, 2, species)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(subs) == 76_776
    assert peak < 2 ** 20, peak


def test_combination_lists_of_one_structure_compare_by_value():
    ns = every_exclusion()
    a = nm.enumerate_n_substructures(ns, [C] * 3)
    b = nm.enumerate_n_substructures(ns, [C] * 3)
    assert a is not b and a == b and list(a) == list(b)
    assert a != nm.enumerate_n_substructures(ns, [C] * 3, False)
    assert a != nm.enumerate_n_substructures(every_exclusion(), [C] * 3)
    assert a != tuple(a)
    with pytest.raises(TypeError):
        hash(a)
    # the Lagrange witnesses over the same combinations are other items
    wits = nm.n_lagrange(ns, [C] * 3).witnesses
    assert wits == nm.n_lagrange(ns, [C] * 3).witnesses and wits != a and a != wits
    assert wits != nm.n_lagrange(every_exclusion(), [C] * 3).witnesses


def test_an_empty_candidate_list_leaves_no_combination(monkeypatch):
    # a component with no candidates leaves no combination in any product
    # that holds its list, with the CLI's guard set to 6
    monkeypatch.setattr(cli, "DEFAULT_COMBINATION_CAP", 6)
    ns = nm.build_n_structure([nm.cyclic(4)] * 3, ["group"] * 3)
    species = [lambda s: False, SP.IS_SUBGROUPOID, SP.IS_SUBGROUPOID]
    assert nm.enumerate_n_substructures(ns, species) == []
    cands = _component_candidates(nm.cyclic(4), SP.IS_SUBGROUPOID, allow_empty=False)
    # each cyclic(4) has 3 closed subsets; at t = 2 the choice of component 0
    # alone is empty, so 0 + 3 + 3 = 6 N-subsets
    check_sequence(nm.deficit_substructures(ns, 2, species),
                   [((), c, ()) for c in cands] + [((), (), c) for c in cands])
    # at t = 1 only the choice of components 1 and 2 is not empty: 9, past 6
    check_sequence(nm.deficit_substructures(ns, 1, species),
                   [((), a, b) for a, b in product(cands, cands)])


def test_membership_reads_one_item(monkeypatch):
    # `in` finds the item's rank from each part's index in its candidate
    # list: on the 76,776 deficit N-subsets of the CI union it boxes the
    # probe and the one item at that rank, not the whole sequence
    ns = nm.build_n_structure(
        [nm.zmod_mult(12), nm.zn_line_neutro(6), nm.zn_full_neutro(3), nm.zmod_mult(10)],
        ["semigroup", "neutrosophic-semigroup", "neutrosophic-semigroup", "semigroup"])
    boxed = []
    of = nm.NSubset._of

    def counting(parent, per_component):
        boxed.append(per_component)
        return of(parent, per_component)

    monkeypatch.setattr(nm.NSubset, "_of", counting)
    subs = nm.deficit_substructures(ns, 2, [SP.IS_SUBGROUPOID] * 4)
    assert len(subs) == 76_776 and not boxed
    assert subs[-1] in subs
    assert len(boxed) <= 2, len(boxed)


@pytest.mark.parametrize("nonempty", [True, False])
def test_membership_agrees_with_a_list(nonempty):
    ns = every_exclusion()
    result = nm.enumerate_n_substructures(ns, [C] * 3, nonempty)
    items = list(result)
    wits = nm.n_lagrange(ns, [C] * 3, nonempty).witnesses
    listed_wits = list(wits)
    fulls = tuple(tuple(range(c.order)) for c in ns.components)
    foreign = nm.enumerate_n_substructures(every_exclusion(), [C] * 3, nonempty)
    probes = [nm.NSubset(ns, fulls), nm.NSubset(ns, [()] * 3), foreign[0], foreign[-1],
              wits[0], wits[-1], wits[5]._replace(qualifies=not wits[5].qualifies),
              nm.lagrange_classify(ns.components[0], C).witnesses[0], fulls, None]
    probes += items[::97] + listed_wits[::97]
    assert not any(p in result for p in probes[:4])
    for view in (result, wits):
        listed = list(view)
        for sl in (slice(None), slice(None, None, 3), slice(-2, 0, -2), slice(5, 400, 7)):
            part, part_list = view[sl], listed[sl]
            for x in probes + part_list[::41]:
                assert (x in part) == (x in part_list), (sl, x)
