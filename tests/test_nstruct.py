"""Union structures: construction, kind classification, N-level engines."""

from itertools import combinations, product

import pytest

import neutromagma as nm
from neutromagma import SubsetPredicate as SP
from neutromagma import Verdict3
from neutromagma.nstruct import _component_candidates


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
    glsg = nm.build_n_structure(
        [nm.cyclic(2), nm.ln(5, 2), nm.zmod_mult(6), nm.zn(5, 2, 3)],
        ["group", "loop", "semigroup", "groupoid"])
    assert nm.classify_n_kind(glsg).n_glsg


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
    monkeypatch.setattr(nm.nstruct, "DEFAULT_COMBINATION_CAP", 10)
    ns = biloop()
    with pytest.raises(nm.ResourceLimitError, match="10 guard"):
        nm.enumerate_n_substructures(ns, [SP.IS_SUBGROUPOID, SP.IS_SUBGROUPOID])


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


def test_deficit_substructures():
    ns = biloop()
    with pytest.raises(nm.ParameterError):
        nm.deficit_substructures(ns, 2, [SP.IS_GROUP, SP.IS_GROUP])
    one_comp = nm.deficit_substructures(ns, 1, [nm.S_NEUTRO_SUBLOOP, SP.IS_GROUP])
    assert one_comp
    for p in one_comp:
        assert sum(1 for c in p.per_component if c) == 1


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
    got = [(w.subset.per_component, w.order, w.qualifies) for w in rep.witnesses]
    assert got == want
    assert rep.verdict == oracle_verdict([q for _, _, q in want])


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
    # 645 * 42 * 12 * 42 = 13,654,080 combinations, union order 44 = 4 * 11
    ns = nm.build_n_structure(
        [nm.zn_full_neutro(4), nm.zmod_mult(10), nm.zn_units_neutro(5),
         nm.zmod_mult(10)],
        ["neutrosophic-semigroup", "semigroup", "neutrosophic-group", "semigroup"])
    species = [C] * 4
    with pytest.raises(nm.ResourceLimitError):
        nm.enumerate_n_substructures(ns, species)
    rep = nm.n_sylow(ns, species)
    assert rep.verdict == Verdict3.FULL
    cands = [_component_candidates(c, C, allow_empty=False) for c in ns.components]
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
