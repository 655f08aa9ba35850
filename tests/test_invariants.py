"""Cross-cutting engine invariants on fixed carriers."""

import neutromagma as nm
from neutromagma import IdentityLaw as Law
from neutromagma import SubsetPredicate as SP


def fixed_pool():
    return [nm.zmod_mult(8), nm.dihedral(4), nm.zn(8, 3, 5), nm.cyclic(8),
            nm.ln(7, 3), nm.zn(6, 3, 4), nm.zn_line_neutro(4)]


def test_associativity_matches_triple_loop_up_to_order_8():
    for m in fixed_pool():
        t = m.table
        want = all(t[t[x][y]][z] == t[x][t[y][z]]
                   for x in range(m.order) for y in range(m.order)
                   for z in range(m.order))
        assert nm.check_identity_law(m, Law.ASSOCIATIVE).holds == want


def test_enumeration_matches_powerset_at_order_10():
    from itertools import combinations
    m = nm.zmod_mult(10)
    got = [s.members for s in nm.enumerate_closed_subsets(m)]
    want = []
    for r in range(1, 10):
        for mem in combinations(range(10), r):
            if mem == (1,):
                continue
            s = set(mem)
            if all(m.table[x][y] in s for x in s for y in s):
                want.append(mem)
    assert got == sorted(want)


def test_normality_quantifier_ranges_both_exposed():
    m = nm.zn(5, 2, 3)
    zero = nm.Subset(m, [0])
    # subgroupoid mode quantifies over the subset and accepts {0}; subloop
    # mode quantifies over the carrier and rejects it
    assert nm.is_normal(m, zero, "subgroupoid")
    assert not nm.is_normal(m, zero, "subloop")


def test_literal_xhy_normal_is_its_own_predicate():
    g = nm.symmetric_group(3)
    a3 = nm.Subset(g, sorted(g.index(l) for l in nm.alternating(3).labels))
    # A3 is normal in the classical sense but fails the literal condition
    assert nm.is_normal(g, a3, "subgroup")
    assert not nm.literal_xhy_normal(g, a3)
    # the full universe of a group trivially satisfies the literal condition
    assert nm.literal_xhy_normal(g, g.full_subset())


def test_detection_invariant_ssemigroup():
    for m in (nm.zmod_mult(7), nm.zmod_mult(6), nm.symmetric_semigroup(2)):
        det = nm.detect_s_kind(m, nm.SKind.S_SEMIGROUP)
        if det.holds:
            assert nm.classify_basic(m).is_semigroup
            assert nm.subset_is_group(det.witness)


def test_atlas_flags_equal_direct_engine_calls():
    from neutromagma.atlas import atlas_ln
    records, footer = atlas_ln([5])
    assert footer == [("n=5", 3, 3)]
    for rec, m in zip(records, nm.ln_class(5)):
        assert rec.flags["commutative"] == nm.classify_basic(m).is_commutative
        assert rec.flags["right_alt"] == \
            nm.check_identity_law(m, Law.RIGHT_ALTERNATIVE).holds
        assert rec.flags["moufang"] == any(
            nm.check_identity_law(m, l).holds
            for l in (Law.MOUFANG1, Law.MOUFANG2, Law.MOUFANG3))
        assert rec.s_flags["s_loop"] == nm.detect_s_kind(m, nm.SKind.S_LOOP).holds
        assert rec.lagrange_verdict == \
            nm.lagrange_classify(m, SP.IS_GROUP).verdict.value


def test_double_coset_assumption_flag():
    g = nm.cyclic(4)
    s = nm.Subset(g, [0, 2])
    assert nm.double_coset(g, s, s, 1).associativity_assumed
    loop = nm.ln(5, 2)
    s = nm.Subset(loop, [0, 1])
    assert not nm.double_coset(loop, s, s, 2).associativity_assumed
