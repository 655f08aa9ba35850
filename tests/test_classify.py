"""Smarandache detection and the Lagrange / Sylow / Cauchy engines."""

from math import gcd

import pytest

import neutromagma as nm
from neutromagma import SKind, Verdict3
from neutromagma import SubsetPredicate as SP


def test_detect_s_semigroup():
    det = nm.detect_s_kind(nm.zmod_mult(7), SKind.S_SEMIGROUP)
    assert det.holds and det.witness.members == (1, 2, 3, 4, 5, 6)
    # carrier gate: a loop is not a semigroup
    assert not nm.detect_s_kind(nm.ln(5, 2), SKind.S_SEMIGROUP).holds
    assert nm.classify_basic(nm.zmod_mult(7)).is_semigroup


@pytest.mark.parametrize("n, subgroups, verdict", [
    (60, 48, Verdict3.WEAK), (128, 16, Verdict3.FULL),
    (210, 180, Verdict3.WEAK), (256, 19, Verdict3.FULL),
])
def test_zmod_mult_subgroups_past_the_lattice_cap(n, subgroups, verdict):
    # Z_n under multiplication has more than MAX_CLOSED_SUBSETS closed
    # subsets here, so a search that filters the lattice raised; subgroups
    # are found per idempotent, and the unit group is the first witness
    m = nm.zmod_mult(n)
    det = nm.detect_s_kind(m, SKind.S_SEMIGROUP)
    assert det.holds and det.witness.members == tuple(x for x in range(n) if gcd(x, n) == 1)
    rep = nm.lagrange_classify(m, SP.IS_GROUP)
    assert len(rep.witnesses) == subgroups and rep.verdict is verdict
    assert "closed" not in m._subset_cache


def test_detect_s_loop_and_groupoid():
    det = nm.detect_s_kind(nm.ln(5, 2), SKind.S_LOOP)
    assert det.holds and len(det.witness) == 2        # {e, i} subgroups
    det = nm.detect_s_kind(nm.zn(12, 2, 4), SKind.S_GROUPOID)
    assert det.holds


def test_detect_neutrosophic_kinds():
    line6 = nm.zn_line_neutro(6)
    det = nm.detect_s_kind(line6, SKind.S_NEUTROSOPHIC_SEMIGROUP)
    assert det.holds and det.witness.labels() == ["1", "5"]
    t = nm.extend_tagged(nm.ln(7, 2))
    det = nm.detect_s_kind(t, SKind.S_NEUTROSOPHIC_LOOP)
    assert det.holds
    # no indeterminate elements: every neutrosophic kind is immediately false
    assert not nm.detect_s_kind(nm.zmod_mult(6), SKind.S_NEUTROSOPHIC_GROUP).holds
    full = nm.zn_full_neutro(5)
    assert nm.detect_s_kind(full, SKind.S_NEUTROSOPHIC_GROUP).holds
    assert nm.detect_s_kind(full, SKind.STRONG_S_NEUTROSOPHIC_GROUP).holds


def test_lagrange_classify():
    m = nm.zn_line_neutro(9)          # order 17, prime
    rep = nm.lagrange_classify(m, SP.IS_S_NEUTROSOPHIC_SUB)
    assert rep.verdict == Verdict3.FREE
    assert all(not w.qualifies for w in rep.witnesses)
    g = nm.cyclic(6)
    rep = nm.lagrange_classify(g, SP.IS_GROUP)
    assert rep.verdict == Verdict3.FULL               # classical Lagrange
    rep = nm.lagrange_classify(nm.cyclic(3), SP.IS_SEMIGROUP)
    assert rep.verdict == Verdict3.VACUOUS            # no proper subsemigroup


def test_lagrange_full_implies_weak_path():
    for m in (nm.cyclic(6), nm.zmod_mult(6), nm.zn_line_neutro(6)):
        rep = nm.lagrange_classify(m, SP.IS_GROUP)
        if rep.verdict == Verdict3.FULL:
            assert any(w.qualifies for w in rep.witnesses)


def test_sylow_classify():
    m = nm.zn_line_neutro(8)          # order 15 = 3 * 5
    rep = nm.sylow_classify(m, SP.IS_S_NEUTROSOPHIC_SUB)
    assert rep.verdict == Verdict3.WEAK
    assert all(w.order == 5 for w in rep.witnesses)
    # p^alpha equal to the order itself can never have a proper witness
    rep = nm.sylow_classify(nm.zn_full_neutro(5), SP.IS_PSEUDO_NEUTROSOPHIC_SUBGROUP)
    assert rep.verdict == Verdict3.FREE and rep.notes
    rep = nm.sylow_classify(nm.cyclic(12), SP.IS_GROUP)
    assert rep.verdict == Verdict3.FULL               # orders 4 and 3 exist
    # groups obey Lagrange, so the super variant can never be served there
    sup = nm.sylow_classify(nm.cyclic(12), SP.IS_GROUP, "super")
    assert sup.verdict == Verdict3.FREE
    # the unit group of Z20 has order 8 = 2^3 while 2^2 exactly divides 20
    sup = nm.sylow_classify(nm.zmod_mult(20), SP.IS_GROUP, "super")
    assert sup.verdict == Verdict3.WEAK
    assert any(w.order == 8 for w in sup.witnesses)
    with pytest.raises(nm.PreconditionError, match="order >= 2"):
        nm.sylow_classify(nm.cyclic(1), SP.IS_GROUP)
    with pytest.raises(nm.ParameterError, match="unknown sylow variant"):
        nm.sylow_classify(nm.cyclic(12), SP.IS_GROUP, "hyper")
    ns = nm.build_n_structure([nm.cyclic(2), nm.cyclic(3)], ["group", "group"])
    with pytest.raises(nm.ParameterError, match="unknown sylow variant"):
        nm.n_sylow(ns, [SP.IS_GROUP] * 2, "hyper")


def test_sylow_semi_variant():
    rep = nm.sylow_classify(nm.cyclic(8), SP.IS_GROUP, "semi")
    # seeks orders 2 and 4 (p^t with t < 3); both exist in C8
    assert rep.verdict == Verdict3.FULL
    assert sorted(w.order for w in rep.witnesses) == [2]  # first hit is order 2


def test_cauchy_classify():
    rep = nm.cauchy_classify(nm.cyclic(6))
    assert rep.verdict == Verdict3.FULL
    rep = nm.cauchy_classify(nm.zn_line_neutro(6))
    assert rep.verdict == Verdict3.FREE               # order 2 vs prime 11
    # relative mode against the full universe equals absolute mode
    m = nm.zn_full_neutro(5)
    assert nm.cauchy_classify(m).verdict == \
        nm.cauchy_classify(m, relative_to=m.full_subset()).verdict
    rel = nm.cauchy_classify(m, relative_to=m.subset(["1", "4", "I", "4I"]))
    abs_ = nm.cauchy_classify(m)
    fours = {w.index for w in abs_.witnesses if not w.qualifies}
    assert fours                                      # 2 and 4 never divide 25
    assert any(w.qualifies for w in rel.witnesses)    # but they divide 4


def test_cauchy_needs_each_torsion_flavor():
    # e, a, I, b: a*a = e, so a has real order 2, which divides 4; b*b = a
    # and a*b = I, so b has neutrosophic order 3, which does not
    table = [[0, 1, 2, 3], [1, 0, 2, 2], [2, 2, 2, 3], [3, 3, 3, 1]]
    mask = [False, False, True, True]
    m = nm.FiniteMagma(table, labels=["e", "a", "I", "b"], neutro_mask=mask,
                       neutro_identity=2)
    rep = nm.cauchy_classify(m)
    assert [(w.index, w.flavor, w.order, w.qualifies) for w in rep.witnesses] == \
        [(1, "real", 2, True), (3, "neutro", 3, False)]
    # some element qualifies, but no neutrosophic one: free, not weak
    assert rep.verdict == Verdict3.FREE and rep.notes == ()
    bare = nm.FiniteMagma(table, labels=["e", "a", "I", "b"], neutro_mask=mask)
    rep = nm.cauchy_classify(bare)
    assert rep.verdict == Verdict3.FULL and len(rep.witnesses) == 1
    assert rep.notes == ("no neutrosophic identity: neutrosophic orders skipped",)


def test_cauchy_relative_to_is_a_subset_of_the_carrier():
    m = nm.zn_full_neutro(5)
    labels = ["1", "4", "I", "4I"]
    assert nm.cauchy_classify(m, relative_to=nm.zn_full_neutro(5).subset(labels)) == \
        nm.cauchy_classify(m, relative_to=m.subset(labels))
    for foreign in (nm.zn_line_neutro(5).subset(["1", "4", "I", "4I"]),
                    nm.cyclic(4).full_subset(), [0, 1, 2, 3]):
        with pytest.raises(nm.ParameterError, match="relative_to"):
            nm.cauchy_classify(m, relative_to=foreign)


def test_prime_order_carriers_are_free():
    carriers = [nm.zn_line_neutro(6), nm.zn_line_neutro(7)]
    for m in carriers:
        for species in (SP.IS_GROUP, SP.IS_S_NEUTROSOPHIC_SUB):
            assert nm.lagrange_classify(m, species).verdict in \
                (Verdict3.FREE, Verdict3.VACUOUS)
            assert nm.sylow_classify(m, species).verdict in \
                (Verdict3.FREE, Verdict3.VACUOUS)
        assert nm.cauchy_classify(m).verdict in (Verdict3.FREE, Verdict3.VACUOUS)


def test_s_identity_class():
    t = nm.extend_tagged(nm.ln(5, 3))
    assert nm.s_identity_class(t, nm.IdentityLaw.MOUFANG1,
                               nm.S_NEUTRO_SUBLOOP) == Verdict3.FULL
    # a group carrier satisfies every listed law on every subgroup
    g = nm.symmetric_group(3)
    for law in (nm.IdentityLaw.MOUFANG1, nm.IdentityLaw.BOL,
                nm.IdentityLaw.BRUCK_IDENTITY):
        assert nm.s_identity_class(g, law, SP.IS_GROUP) == Verdict3.FULL
    assert nm.s_identity_class(g, nm.IdentityLaw.MOUFANG1,
                               SP.IS_PSEUDO_NEUTROSOPHIC_SUBGROUP) == Verdict3.VACUOUS


def test_law_or_kind_of_the_wrong_type_is_refused():
    # named in a ParameterError, also when no species subset would be scanned
    g = nm.symmetric_group(3)
    for species in (SP.IS_GROUP, SP.IS_PSEUDO_NEUTROSOPHIC_SUBGROUP):
        with pytest.raises(nm.ParameterError, match="'moufang1'"):
            nm.s_identity_class(g, "moufang1", species)
    for kind in ("s_loop", None):
        with pytest.raises(nm.ParameterError, match=repr(kind)):
            nm.detect_s_kind(g, kind)


def test_s_hyper_and_simple():
    assert nm.s_hyper_and_simple(nm.zmod_mult(7)).s_simple
    rep = nm.s_hyper_and_simple(nm.symmetric_semigroup(3))
    assert not rep.s_simple and len(rep.hyper_subsemigroup) == 9
    rep = nm.s_hyper_and_simple(nm.cyclic(6))
    assert rep.s_simple and rep.notes         # largest group is the carrier
    with pytest.raises(nm.PreconditionError):
        nm.s_hyper_and_simple(nm.ln(5, 2))
    # a left-zero semigroup, x*y = x, has no subgroup of two or more elements
    rep = nm.s_hyper_and_simple(nm.FiniteMagma([[x] * 3 for x in range(3)]))
    assert rep == nm.HyperReport(None, None, True,
                                 ("no subgroup of size >= 2; trivially simple",))


def test_s_cosets():
    m = nm.zn_full_neutro(5)
    P = m.subset(["1", "I", "4I"])
    M = m.subset(["1", "I", "4", "4I"])
    assert set(nm.s_cosets(m, P, m.index("3"), "pseudo").labels()) == {"3", "3I", "2I"}
    assert set(nm.s_cosets(m, M, m.index("I"), "plain").labels()) == {"I", "4I"}
    assert nm.s_cosets(m, M, m.identity, "plain") == M
    with pytest.raises(nm.PreconditionError):
        nm.s_cosets(m, M, 0, "pseudo")        # M has a real subgroup
    with pytest.raises(nm.PreconditionError, match="plain S-coset"):
        nm.s_cosets(m, m.subset(["2", "I"]), 0, "plain")    # 2 * 2 = 4
    with pytest.raises(nm.ParameterError, match="unknown coset flavor"):
        nm.s_cosets(m, M, 0, "strong")
