"""Neutrosophic carriers and subset species."""

from itertools import combinations

import pytest

import neutromagma as nm


def parse_residue(label):
    """The pair (a, b) of a residue label "3", "I", "4I" or "2+3I"."""
    a, plus, ib = label.partition("+")
    if not plus:
        if not label.endswith("I"):
            return int(label), 0
        a, ib = "0", label
    return int(a), int(ib[:-1] or 1)


def residue_product(n):
    # I^2 = I: (a+bI)(c+dI) = ac + (ad+bc+bd)I
    return lambda x, y: ((x[0] * y[0]) % n,
                         (x[0] * y[1] + x[1] * y[0] + x[1] * y[1]) % n)


def affine_product(n, t, u):
    return lambda x, y: ((t * x[0] + u * y[0]) % n, (t * x[1] + u * y[1]) % n)


def residue_carriers():
    for n in range(2, 13):
        yield nm.zn_full_neutro(n), residue_product(n)
        yield nm.zn_line_neutro(n), residue_product(n)
    for n in (2, 3, 5, 7, 11):
        yield nm.zn_units_neutro(n), residue_product(n)
    for n in range(2, 7):
        for t in range(n):
            for u in range(n):
                yield nm.zn_affine_neutro(n, t, u), affine_product(n, t, u)


def test_residue_formula():
    for m, product in residue_carriers():
        pairs = [parse_residue(l) for l in m.labels]
        index = {p: i for i, p in enumerate(pairs)}
        assert len(index) == m.order, m.kind_tag
        for x, px in enumerate(pairs):
            assert list(m.table[x]) == [index[product(px, py)] for py in pairs], m.kind_tag
        assert list(m.neutro_mask) == [b != 0 for _, b in pairs]
        assert m.labels[m.neutro_identity] == "I"
    m = nm.zn_full_neutro(5)
    i, x = m.index("I"), m.index("1+3I")
    assert m.op(i, i) == i                        # I * I = I
    assert m.labels[m.op(x, x)] == "1"            # (1+3I)^2 = 1 mod 5
    # elements run a-major, a + bI at index 5a + b
    assert [m.labels[5 * a + b] for a, b in ((2, 3), (0, 4), (3, 1))] == \
        ["2+3I", "4I", "3+I"]


def test_extend_tagged_structure():
    base = nm.ln(5, 3)
    t = nm.extend_tagged(base)
    assert t.order == 2 * base.order
    assert t.labels[t.neutro_identity] == "eI"
    k = base.order
    for x in range(t.order):
        for y in range(t.order):
            v = t.op(x, y)
            tagged = x >= k or y >= k
            assert (v >= k) == tagged             # tagging absorbs
            assert v % k == base.op(x % k, y % k) or (v >= k) == tagged
    # untagged restriction is the base loop itself
    sub = nm.submagma(t, range(k))
    assert sub.table == base.table and sub.labels == base.labels


def test_tagged_four_element_subsets():
    for n, m in [(5, 2), (5, 3), (7, 3)]:
        t = nm.extend_tagged(nm.ln(n, m))
        k = n + 1
        for i in range(1, k):
            s = nm.Subset(t, [0, i, k, k + i])
            assert nm.is_closed(s)
            assert t.op(i, k + i) == k            # t * tI = eI
            assert t.op(k, k + i) == k + i        # eI * tI = tI
            assert nm.is_neutrosophic_subgroup(s)


def test_zn_full_neutro():
    m = nm.zn_full_neutro(5)
    assert m.order == 25
    assert m.labels[m.identity] == "1"
    assert m.labels[m.neutro_identity] == "I"
    i = m.index("I")
    assert m.op(i, i) == i
    x = m.index("1+3I")
    assert m.labels[m.op(x, x)] == "1"
    for n in range(2, 8):
        c = nm.zn_full_neutro(n)
        b = nm.classify_basic(c)
        assert b.is_semigroup and b.is_commutative


def test_zn_line_neutro():
    assert nm.zn_line_neutro(6).order == 11
    assert nm.zn_line_neutro(7).order == 13
    m = nm.zn_line_neutro(6)
    five = m.index("5")
    assert m.op(five, five) == m.index("1")
    assert m.neutro_mask[m.index("3I")]
    assert not m.neutro_mask[m.index("3")]


def test_zn_units_neutro():
    m = nm.zn_units_neutro(5)
    assert m.order == 8
    assert "0" not in m.labels
    with pytest.raises(nm.ParameterError):
        nm.zn_units_neutro(6)                     # composite: 2*3I = 0 escapes


def test_neutrosophic_subset_species():
    full = nm.zn_full_neutro(5)
    P = full.subset(["1", "I", "4I"])
    L = full.subset(["1", "I", "4", "4I"])
    T = full.subset(["1", "1+3I"])
    assert nm.is_neutrosophic_subset(P)
    assert not nm.is_neutrosophic_subset(full.subset(["1", "4"]))
    assert nm.is_pseudo_neutrosophic_subgroup(P)
    assert nm.is_pseudo_neutrosophic_subgroup(T)
    assert nm.is_neutrosophic_subgroup(L)
    assert not nm.is_pseudo_neutrosophic_subgroup(L)
    assert not nm.is_neutrosophic_subgroup(P)
    line7 = nm.zn_line_neutro(7)
    assert nm.is_neutrosophic_subgroup(line7.subset(["1", "I", "6", "6I"]))


def test_pseudo_and_strong_are_exclusive():
    # the defining real-subgroup clause is negated between the two species
    for carrier in (nm.zn_full_neutro(3), nm.zn_line_neutro(6)):
        for r in range(2, carrier.order + 1):
            if r > 5:
                break
            for mem in combinations(range(carrier.order), r):
                s = nm.Subset(carrier, mem)
                assert not (nm.is_neutrosophic_subgroup(s)
                            and nm.is_pseudo_neutrosophic_subgroup(s))


def test_s_neutrosophic_subloop_species():
    t = nm.extend_tagged(nm.ln(15, 2))
    h = t.subset(["e", "1", "4", "7", "10", "13",
                  "eI", "1I", "4I", "7I", "10I", "13I"])
    assert nm.is_s_neutrosophic_subloop(h)
    assert nm.is_s_neutrosophic_subloop(t.subset(["e", "3", "eI", "3I"]))
    # a mixed subset (real subgroup with the full tagged half) is not a doubling
    mixed = t.subset(["e", "3"] + [l for l in t.labels if l.endswith("I")])
    assert nm.is_closed(mixed) and not nm.is_s_neutrosophic_subloop(mixed)


def test_neutrosophic_ideal_check():
    line6 = nm.zn_line_neutro(6)
    J = line6.subset(["0", "2", "4", "2I", "4I"])
    assert nm.neutrosophic_ideal_check(J, "plain")
    assert nm.neutrosophic_ideal_check(J, "principal")   # generated by 2
    with pytest.raises(nm.PreconditionError):
        nm.neutrosophic_ideal_check(nm.Subset(nm.zn(5, 2, 3), [0]), "plain")
    z6 = nm.zmod_mult(6)
    zero = nm.Subset(z6, [0])
    assert nm.is_ideal(z6, zero, "two_sided")            # {0} is an ideal here
    assert not nm.neutrosophic_ideal_check(zero, "plain")  # but not neutrosophic
    with pytest.raises(nm.ParameterError, match="mode"):
        nm.neutrosophic_ideal_check(J, "prime")
    # {0, 2I, 4I} is a neutrosophic ideal inside J
    assert nm.neutrosophic_ideal_check(J, "minimal") is False


def test_ideal_maximal_minimal_frozen():
    line6 = nm.zn_line_neutro(6)
    J = line6.subset(["0", "2", "4", "2I", "4I"])
    # frozen from the exhaustive enumeration of neutrosophic ideals
    assert nm.neutrosophic_ideal_check(J, "maximal") is False
    small = line6.subset(["0", "3", "3I"])
    assert nm.neutrosophic_ideal_check(small, "plain")
    assert nm.neutrosophic_ideal_check(small, "minimal") is False
    # a + bI is index 8a + b; more than MAX_CLOSED_SUBSETS closed sets lie
    # above pure and inside nonunits, so neither answer lists them
    full8 = nm.zn_full_neutro(8)
    pure = nm.Subset(full8, range(8))                   # {0, I, ..., 7I}
    assert nm.neutrosophic_ideal_check(pure, "maximal") is False
    # a + bI is a unit iff a and a + b are; the non-units are the ideal where
    # a or a + b is even
    nonunits = nm.Subset(full8, [8 * a + b for a in range(8) for b in range(8)
                                 if a % 2 == 0 or (a + b) % 2 == 0])
    assert nm.neutrosophic_ideal_check(nonunits, "maximal") is True
    assert nm.neutrosophic_ideal_check(nonunits, "minimal") is False


def test_affine_neutro_carrier():
    g = nm.zn_affine_neutro(8, 3, 5)
    assert g.order == 64
    assert g.has_neutro()
    det = nm.detect_s_kind(g, nm.SKind.S_NEUTROSOPHIC_GROUPOID)
    assert det.holds                                # {0, 4I} is one witness
