"""The executable verification corpus.

Each entry reconstructs one printed claim of the source text (a table cell,
a coset list, a divisibility fact, a classification verdict) and checks it
against the engines.  Entry ids encode chapter-example-assertion so a filter
maps straight to a book location.

status_on_mismatch is "fail" for ordinary entries.  "flag-discrepancy" is
reserved for places where the text conflicts with its own arithmetic (e.g.
a printed coset missing a product of its own elements); those entries report
the divergence without failing the run, and additionally pin the engine's
value so regressions are still caught.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import classify, nstruct
from .classify import SKind, Verdict3
from .constructors import (alternating, cyclic, dihedral, direct_product, ln,
                           ln_class, ln_count, symmetric_group,
                           symmetric_semigroup, zmod_mult, zn, zn_class_size)
from .magma import (IdentityLaw, PartialMap, Subset, SubsetPredicate,
                    associator_subloop, center, check_homomorphism,
                    check_identity_law, classify_basic, commutator_subloop,
                    conjugate_pair, conjugate_witnesses, element_orders,
                    enumerate_closed_subsets, is_closed, is_ideal,
                    is_isomorphic, is_simple, latin_square_check, nuclei,
                    principal_isotope, right_regular_representation)
from .neutro import (GROUP_OR_S_SUBSEMIGROUP, NEUTRO_SUBSEMIGROUP,
                     NEUTRO_UNITAL, NEUTRO_UNITAL_OR_SUBGROUP,
                     S_NEUTRO_SUBLOOP, extend_tagged,
                     is_neutrosophic_subgroup, is_pseudo_neutrosophic_subgroup,
                     is_s_neutrosophic_subloop, neutrosophic_ideal_check,
                     zn_affine_neutro, zn_full_neutro, zn_line_neutro,
                     zn_units_neutro)
from .nstruct import (build_n_structure, classify_n_kind, n_cauchy,
                      n_lagrange, n_sylow, NSubset, tuple_sylow)


class CheckResult(NamedTuple):
    ok: bool
    expected: str
    actual: str


# a dataclass, not a NamedTuple, while bench/tracing.py rebuilds entries with
# dataclasses.replace
@dataclass(frozen=True)
class CorpusEntry:
    id: str
    provenance: str            # book location the assertion reproduces
    run: Callable[[], CheckResult]
    status_on_mismatch: str = "fail"    # or "flag-discrepancy"
    note: str = ""


_ENTRIES: list = []


def entry(id, provenance, status="fail", note=""):
    def deco(fn):
        _ENTRIES.append(CorpusEntry(id, provenance, fn, status, note))
        return fn

    return deco


def _render(v) -> str:
    """repr, with set members sorted so the text does not follow hash order."""
    if isinstance(v, (set, frozenset)):
        return "{" + ", ".join(sorted(map(repr, v))) + "}"
    return repr(v)


def _eq(expected, actual) -> CheckResult:
    return CheckResult(expected == actual, _render(expected), _render(actual))


def _true(actual, desc="True") -> CheckResult:
    return CheckResult(bool(actual), desc, repr(actual))


# ---------------------------------------------------------------------------
# shared carriers (built lazily, memoized)

_CACHE = {}


def _get(key, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def full5():
    return _get("full5", lambda: zn_full_neutro(5))


def line6():
    return _get("line6", lambda: zn_line_neutro(6))


def tagged_l53():
    return _get("tl53", lambda: extend_tagged(ln(5, 3)))


def s3semi():
    return _get("s3semi", lambda: symmetric_semigroup(3))


# ---------------------------------------------------------------------------
# chapter 1: printed tables

PRINTED_TABLES = {
    "l5_2": [[0, 1, 2, 3, 4, 5],
             [1, 0, 3, 5, 2, 4],
             [2, 5, 0, 4, 1, 3],
             [3, 4, 1, 0, 5, 2],
             [4, 3, 5, 2, 0, 1],
             [5, 2, 4, 1, 3, 0]],
    "l5_3": [[0, 1, 2, 3, 4, 5],
             [1, 0, 4, 2, 5, 3],
             [2, 4, 0, 5, 3, 1],
             [3, 2, 5, 0, 1, 4],
             [4, 5, 3, 1, 0, 2],
             [5, 3, 1, 4, 2, 0]],
    "l5_4": [[0, 1, 2, 3, 4, 5],
             [1, 0, 5, 4, 3, 2],
             [2, 3, 0, 1, 5, 4],
             [3, 5, 4, 0, 2, 1],
             [4, 2, 1, 5, 0, 3],
             [5, 4, 3, 2, 1, 0]],
    "l7_3": [[0, 1, 2, 3, 4, 5, 6, 7],
             [1, 0, 4, 7, 3, 6, 2, 5],
             [2, 6, 0, 5, 1, 4, 7, 3],
             [3, 4, 7, 0, 6, 2, 5, 1],
             [4, 2, 5, 1, 0, 7, 3, 6],
             [5, 7, 3, 6, 2, 0, 1, 4],
             [6, 5, 1, 4, 7, 3, 0, 2],
             [7, 3, 6, 2, 5, 1, 4, 0]],
    "l7_4": [[0, 1, 2, 3, 4, 5, 6, 7],
             [1, 0, 5, 2, 6, 3, 7, 4],
             [2, 5, 0, 6, 3, 7, 4, 1],
             [3, 2, 6, 0, 7, 4, 1, 5],
             [4, 6, 3, 7, 0, 1, 5, 2],
             [5, 3, 7, 4, 1, 0, 2, 6],
             [6, 7, 4, 1, 5, 2, 0, 3],
             [7, 4, 1, 5, 2, 6, 3, 0]],
    "z3_1_2": [[0, 2, 1],
               [1, 0, 2],
               [2, 1, 0]],
}


def _table_entry(eid, prov, built, key):
    @entry(eid, prov)
    def _check(built=built, key=key):
        return _eq(PRINTED_TABLES[key], [list(r) for r in built().table])


_table_entry("ex-1.3.1-table-l5(2)", "Example 1.3.1", lambda: ln(5, 2), "l5_2")
_table_entry("ex-1.3.3-table-l5(3)", "Example 1.3.3", lambda: ln(5, 3), "l5_3")
_table_entry("ex-1.3.3-table-l5(4)", "Example 1.3.3", lambda: ln(5, 4), "l5_4")
_table_entry("ex-1.3.4-table-l7(3)", "Example 1.3.4", lambda: ln(7, 3), "l7_3")
_table_entry("ex-1.3.2-table-l7(4)", "Example 1.3.2", lambda: ln(7, 4), "l7_4")
_table_entry("ex-1.4.1-table-z3(1,2)", "Example 1.4.1", lambda: zn(3, 1, 2), "z3_1_2")


@entry("ex-1.3.2-product-2.4", "Example 1.3.2")
def _l74_product():
    return _eq(3, ln(7, 4).op(2, 4))


@entry("ex-1.3.3-class-size-5", "Example 1.3.3")
def _class5():
    return _eq(3, len(ln_class(5)))


@entry("thm-27-count-5", "loop-count formula")
def _count5():
    return _eq(3, ln_count(5))


@entry("thm-27-commutative-member", "unique commutative member at m=(n+1)/2")
def _comm53():
    b = classify_basic(ln(5, 3))
    return _true(b.is_loop and not b.is_group and b.is_commutative,
                 "loop, non-group, commutative")


@entry("thm-32-right-alternative-l5(2)", "right alternative only at m=2")
def _ra52():
    return _true(check_identity_law(ln(5, 2), IdentityLaw.RIGHT_ALTERNATIVE).holds)


@entry("thm-32-left-alternative-l5(4)", "left alternative only at m=n-1")
def _la54():
    return _true(check_identity_law(ln(5, 4), IdentityLaw.LEFT_ALTERNATIVE).holds)


@entry("thm-27-moufang-fails-l5(3)", "the class contains no Moufang loop")
def _moufang53():
    r = check_identity_law(ln(5, 3), IdentityLaw.MOUFANG1)
    return _true(not r.holds and r.witness is not None, "fails with witness")


@entry("thm-41-wip-l7(3)", "Example 1.3.4: L7(3) is a WIP loop")
def _wip73():
    return _true(check_identity_law(ln(7, 3), IdentityLaw.WIP).holds)


@entry("thm-27-associator-l5(2)", "associator subloop is the whole loop")
def _assoc52():
    m = ln(5, 2)
    return _eq(tuple(range(6)), associator_subloop(m).members)


@entry("derived-commutator-l5(3)", "commutators of a commutative loop")
def _comm_sub53():
    return _eq((0,), commutator_subloop(ln(5, 3)).members)


@entry("derived-commutator-l5(2)", "commutator subloop by brute force")
def _comm_sub52():
    return _eq(tuple(range(6)), commutator_subloop(ln(5, 2)).members)


@entry("derived-nucleus-l5(2)", "nucleus of a family loop is trivial")
def _nuc52():
    return _eq((0,), nuclei(ln(5, 2)).nucleus.members)


@entry("thm-27-commutant-l5(3)", "commutant of the commutative member")
def _commutant53():
    return _eq(tuple(range(6)), nuclei(ln(5, 3)).commutant.members)


@entry("ex-1.3.1-rrr-column1", "Example 1.3.1, column of element 1")
def _rrr52():
    m = ln(5, 2)
    perm = right_regular_representation(m, m.index("1"))
    return _eq(["1", "e", "5", "4", "3", "2"], [m.labels[i] for i in perm])


@entry("derived-latin-z3(1,2)", "row/column permutation check",
       note="both translations are units mod 3, so the table is a latin square")
def _latin_z312():
    return _eq(True, latin_square_check(zn(3, 1, 2)))


@entry("ex-1.4.1-classify", "Example 1.4.1: non-associative, non-commutative, order 3")
def _z312_classify():
    m = zn(3, 1, 2)
    b = classify_basic(m)
    return _true(m.order == 3 and not b.is_semigroup and not b.is_commutative)


@entry("derived-center-z3(1,2)", "center by brute force")
def _z312_center():
    return _eq((), center(zn(3, 1, 2)).members)


@entry("thm-1.4.1-semigroup-z6(3,4)", "t^2=t and u^2=u force associativity")
def _z634():
    return _true(check_identity_law(zn(6, 3, 4), IdentityLaw.ASSOCIATIVE).holds)


@entry("thm-1.4.2-idempotent-z5(2,4)", "t+u=1 mod n forces idempotency")
def _z524():
    return _true(check_identity_law(zn(5, 2, 4), IdentityLaw.IDEMPOTENT).holds)


@entry("thm-1.4.3-zero-not-ideal", "{0} is never an ideal in the coprime class")
def _zero_ideal():
    results = []
    for (n, t, u) in [(5, 2, 3), (7, 3, 4), (8, 3, 5)]:
        m = zn(n, t, u, "z")
        results.append(is_ideal(m, Subset(m, [0]), "two_sided"))
    return _eq([False, False, False], results)


@entry("thm-1.4.4-ideal-duality-z4", "left ideals of (t,u) are right ideals of (u,t)")
def _duality4():
    a, b = zn(4, 2, 3), zn(4, 3, 2)
    lefts = {s.members for s in enumerate_closed_subsets(a, SubsetPredicate.IS_LEFT_IDEAL)}
    rights = {s.members for s in enumerate_closed_subsets(b, SubsetPredicate.IS_RIGHT_IDEAL)}
    return _eq(sorted(lefts), sorted(rights))


@entry("thm-1.4.5-simple", "n = t + u with both prime gives a simple groupoid")
def _simple_all():
    got = [is_simple(zn(n, t, u)) for (n, t, u) in [(5, 2, 3), (7, 2, 5), (13, 2, 11)]]
    return _eq([True, True, True], got)


@entry("thm-1.4.6-class-size-5", "|Z*(5)| = 4*3")
def _zstar5():
    return _eq(12, zn_class_size(5, "zstar"))


@entry("thm-1.4.8-subgroupoids", "t.Zn is a subgroupoid of order n/t")
def _tzn():
    out = []
    for (n, t, u) in [(12, 4, 8), (12, 3, 9)]:
        m = zn(n, t, u)
        s = Subset(m, sorted({(t * x) % n for x in range(n)}))
        out.append((is_closed(s), len(s), n // t))
    return _eq([(True, 3, 3), (True, 4, 4)], out)


@entry("thm-1.2.2-s(3)-is-s-semigroup", "S(n) contains the symmetric group")
def _s3semi():
    m = s3semi()
    det = classify.detect_s_kind(m, SKind.S_SEMIGROUP)
    return _true(m.order == 27 and det.holds)


@entry("thm-1.2.4-zp-s-semigroup", "Z_p under multiplication is an S-semigroup")
def _zp():
    det = classify.detect_s_kind(zmod_mult(7), SKind.S_SEMIGROUP)
    ok = det.holds and det.witness.members == (1, 2, 3, 4, 5, 6)
    return _true(ok, "witness {1..6}")


@entry("thm-1.2.4-zp-s-simple", "Z_p is a Smarandache simple semigroup")
def _zp_simple():
    return _true(classify.s_hyper_and_simple(zmod_mult(7)).s_simple)


@entry("derived-s(3)-hyper", "the symmetric semigroup has a hyper subsemigroup")
def _s3_hyper():
    rep = classify.s_hyper_and_simple(s3semi())
    ok = (rep.largest_group is not None and len(rep.largest_group) == 6
          and rep.hyper_subsemigroup is not None
          and len(rep.hyper_subsemigroup) == 9 and not rep.s_simple)
    return _true(ok, "largest group order 6, hyper order 9")


@entry("derived-isotope-l5(2)", "principal isotopes preserve the latin property")
def _isotope52():
    iso = principal_isotope(ln(5, 2), 1, 2)
    return _true(iso.order == 6 and latin_square_check(iso))


@entry("trivial-isotope-group", "isotopes of a group are isomorphic to it")
def _isotope_c4():
    g = cyclic(4)
    iso = principal_isotope(g, 1, 2)
    return _true(is_isomorphic(g, iso) is not None)


@entry("derived-iso-l5(2)-l5(4)", "isomorphism search outcome, recorded",
       note="frozen from an exhaustive scan of all 720 bijections: none preserves the tables")
def _iso_52_54():
    phi = is_isomorphic(ln(5, 2), ln(5, 4))
    return _true(phi is None, "not isomorphic")


# ---------------------------------------------------------------------------
# chapter 2: neutrosophic groups, cosets

@entry("ex-2.1.3-order", "Example 2.1.3: o(N(G)) = 25")
def _full5_order():
    return _eq(25, full5().order)


@entry("ex-2.1.2-L-neutro-subgroup", "Example 2.1.2: L = {1, I, 4, 4I}")
def _L_sub():
    return _true(is_neutrosophic_subgroup(full5().subset(["1", "I", "4", "4I"])))


@entry("ex-2.1.2-P-pseudo", "Example 2.1.2: P = {1, I, 4I} is pseudo")
def _P_pseudo():
    s = full5().subset(["1", "I", "4I"])
    return _true(is_pseudo_neutrosophic_subgroup(s) and not is_neutrosophic_subgroup(s))


@entry("ex-2.1.2-T-pseudo", "Example 2.1.2: T = {1, 1+3I}, (1+3I)^2 = 1")
def _T_pseudo():
    m = full5()
    i = m.index("1+3I")
    ok = m.op(i, i) == m.index("1") and \
        is_pseudo_neutrosophic_subgroup(m.subset(["1", "1+3I"]))
    return _true(ok)


@entry("ex-2.1.2-divisibility", "Example 2.1.2 says o(P) does not divide o(N(G))",
       status="flag-discrepancy",
       note="the text asserts 3 does not divide 24, but 24 = 3 * 8; the engine reports divisibility")
def _div_flag():
    # printed claim: 3 does not divide 24.  Arithmetic: it does.
    printed = False
    actual = (24 % 3 == 0)
    return CheckResult(printed == actual, "o(P) ∤ o(N(G)) as printed", f"3 | 24 is {actual}")


@entry("ex-2.1.1-carrier", "Example 2.1.1: prime-order carrier with P = {1, I, 6, 6I}")
def _ex211():
    m = zn_line_neutro(7)
    P = m.subset(["1", "I", "6", "6I"])
    lag = classify.lagrange_classify(m, SubsetPredicate.IS_NEUTROSOPHIC_SUBGROUP)
    ok = (m.order == 13 and is_neutrosophic_subgroup(P)
          and lag.verdict in (Verdict3.FREE, Verdict3.VACUOUS))
    return _true(ok, "order 13, P strong witness, Lagrange free")


@entry("ex-2.1.1-pseudo-claim", "Example 2.1.1 says no pseudo neutrosophic subgroup exists",
       status="flag-discrepancy",
       note="subsets like {1, I} satisfy the operational pseudo predicate, which the "
            "same text's Example 2.1.2 forces (its P has the identical structure)")
def _ex211_pseudo():
    m = zn_line_neutro(7)
    found = enumerate_closed_subsets(m, SubsetPredicate.IS_PSEUDO_NEUTROSOPHIC_SUBGROUP)
    return CheckResult(len(found) == 0, "none as printed",
                       f"{len(found)} pseudo subsets, first {found[0].labels()}")


# the printed coset lists of Example 2.1.3; entries that contradict the
# book's own product rule carry the engine's value and flag the divergence
_P_COSETS = [
    ("0", {"0"}, None),
    ("1", {"1", "I", "4I"}, None),
    ("I", {"I", "4I"}, None),
    ("4I", {"4I"}, {"4I", "I"}),
    ("2", {"2", "2I", "3I"}, None),
    ("3", {"3", "3I", "2I"}, None),
    ("4", {"4", "4I"}, {"4", "4I", "I"}),
    ("2I", {"2I", "3I"}, None),
    ("3I", {"3I", "2I"}, None),
    ("1+I", {"1+I", "2I", "3I"}, None),
    ("2+I", {"2+I", "3I", "2I"}, None),
    ("3+I", {"3+I", "4I", "3I"}, {"3+I", "4I", "I"}),
    ("4+I", {"4+I", "0"}, None),
    ("1+2I", {"1+2I", "3I", "2I"}, None),
    ("2+2I", {"2+2I", "4I", "I"}, None),
    ("3+2I", {"3+2I", "0"}, None),
    ("4+2I", {"4+2I", "4I"}, {"4+2I", "4I", "I"}),
    ("1+3I", {"1+3I", "4I", "I"}, None),
    ("2+3I", {"2+3I", "0"}, None),
    ("3+3I", {"3+3I", "I", "4I"}, None),
    ("4+3I", {"4+3I", "2I", "3I"}, None),
    ("1+4I", {"1+4I", "0"}, None),
    ("2+4I", {"2+4I", "I", "3I"}, {"2+4I", "I", "4I"}),
    ("3+4I", {"3+4I", "2I", "3I"}, None),
    ("4+4I", {"4+4I", "3I", "2I"}, None),
]

_M_COSETS = [
    ("0", {"0"}, None),
    ("1", {"1", "I", "4", "4I"}, None),
    ("I", {"I", "4I"}, None),
    ("4", {"4", "4I"}, {"1", "4", "I", "4I"}),   # printed as the garbled "M.r"
    ("4I", {"4I", "I"}, None),
    ("1+I", {"1+I", "2I", "4+4I", "3I"}, None),
    ("2+I", {"2+I", "3I", "3+4I", "2I"}, None),
    ("3+I", {"3+I", "4I", "2+4I", "I"}, None),
    ("4+I", {"4+I", "0", "1+4I"}, None),
    ("1+2I", {"1+2I", "3I", "4+3I", "2I"}, None),
    ("2+2I", {"2+2I", "4I", "3+3I", "I"}, None),
    ("3+2I", {"3+2I", "0", "2+3I", "3I"}, {"3+2I", "0", "2+3I"}),
    ("4+2I", {"4+2I", "I", "3I", "4I"}, {"4+2I", "I", "4I", "1+3I"}),
    ("1+3I", {"1+3I", "4I", "4+2I", "I"}, None),
    ("2+3I", {"2+3I", "0", "3+2I"}, None),
    ("3+3I", {"3+3I", "I", "2+2I", "4I"}, None),
    ("4+3I", {"4+3I", "2I", "1+2I", "3I"}, None),
    ("1+4I", {"1+4I", "0", "4+I"}, None),
    ("2+4I", {"2+4I", "I", "3+I", "4I"}, None),
    ("3+4I", {"3+4I", "2I", "2+I", "3I"}, None),
    ("4+4I", {"4+4I", "3I", "1+I", "2I"}, None),
]


def _coset_entry(family, subset_labels, flavor, rep, printed, engine_value):
    eid = f"ex-2.1.3-{family}-{rep}"
    status = "fail" if engine_value is None else "flag-discrepancy"
    note = "" if engine_value is None else \
        "printed list conflicts with the carrier's own product rule"

    @entry(eid, "Example 2.1.3", status=status, note=note)
    def _check(subset_labels=subset_labels, flavor=flavor, rep=rep,
               printed=printed, engine_value=engine_value):
        m = full5()
        got = set(classify.s_cosets(m, m.subset(subset_labels), m.index(rep),
                                    flavor).labels())
        if engine_value is not None and got != engine_value:
            # regression: the engine left its independently frozen value
            raise AssertionError(
                f"coset changed: {sorted(got)} != frozen {sorted(engine_value)}")
        return CheckResult(got == printed, repr(sorted(printed)), repr(sorted(got)))


for rep, printed, engine in _P_COSETS:
    _coset_entry("P", ["1", "I", "4I"], "pseudo", rep, printed, engine)
for rep, printed, engine in _M_COSETS:
    _coset_entry("M", ["1", "I", "4", "4I"], "plain", rep, printed, engine)


@entry("ex-2.1.3-P-setproduct", "Example 2.1.3: P . P = {1, I, 4I}")
def _pp():
    m = full5()
    P = m.subset(["1", "I", "4I"])
    got = {m.labels[m.op(x, y)] for x in P.members for y in P.members}
    return _eq({"1", "I", "4I"}, got)


# ---------------------------------------------------------------------------
# chapter 3: neutrosophic semigroups

@entry("ex-3.1.3-s-neutro-semigroup", "P = {1, 5} is a group under mult mod 6")
def _ex313():
    det = classify.detect_s_kind(line6(), SKind.S_NEUTROSOPHIC_SEMIGROUP)
    return _true(det.holds and det.witness.labels() == ["1", "5"])


@entry("ex-3.1.8-ideal", "J = {0, 2, 4, 2I, 4I} is a neutrosophic ideal")
def _ex318():
    s = line6().subset(["0", "2", "4", "2I", "4I"])
    return _true(neutrosophic_ideal_check(s, "plain"))


@entry("ex-3.1.9-order-clash", "o(P) = 5 does not divide o(S) = 11")
def _ex319():
    m = line6()
    P = m.subset(["0", "2", "4", "2I", "4I"])
    return _true(m.order == 11 and len(P) == 5 and 11 % 5 != 0)


@entry("ex-3.1.10-lagrange-free", "prime order 17 forces Lagrange free")
def _ex3110():
    m = zn_line_neutro(9)
    T = m.subset(["0", "1", "I", "8", "8I"])
    rep = classify.lagrange_classify(m, SubsetPredicate.IS_S_NEUTROSOPHIC_SUB)
    return _true(m.order == 17 and is_neutrosophic_subgroup(T)
                 and rep.verdict == Verdict3.FREE)


@entry("ex-3.1.11-cauchy-free", "5^2 = 1 mod 6 but 2 does not divide 11")
def _ex3111():
    m = line6()
    eo = element_orders(m, m.index("5"))
    rep = classify.cauchy_classify(m)
    return _true(eo.real_order == 2 and 11 % 2 == 1 and rep.verdict == Verdict3.FREE)


@entry("ex-3.1.12-weak-sylow", "order-5 witness exists, no order-3 witness")
def _ex3112():
    m = zn_line_neutro(8)
    P = m.subset(["0", "1", "7", "I", "7I"])
    found = enumerate_closed_subsets(m, SubsetPredicate.IS_S_NEUTROSOPHIC_SUB)
    sizes = {len(s) for s in found}
    rep = classify.sylow_classify(m, SubsetPredicate.IS_S_NEUTROSOPHIC_SUB)
    ok = (is_neutrosophic_subgroup(P) and 5 in sizes and 3 not in sizes
          and rep.verdict == Verdict3.WEAK)
    return _true(ok, "P qualifies; sizes lack 3; verdict weak")


@entry("ex-3.1.13-conjugating-set", "V = {0, 3, 6, 9, 12, 3I, 6I, 9I, 12I}")
def _ex3113():
    m = zn_line_neutro(15)
    ws = conjugate_witnesses(m, m.subset(["1", "4"]), m.subset(["1", "14"]))
    got = {m.labels[w.index] for w in ws}
    return _eq({"0", "3", "6", "9", "12", "3I", "6I", "9I", "12I"}, got)


@entry("ex-3.1.13-full-carrier", "the witnesses persist in the full residue carrier")
def _ex3113_full():
    m = zn_full_neutro(15)
    ws = conjugate_witnesses(m, m.subset(["1", "4"]), m.subset(["1", "14"]))
    got = {m.labels[w.index] for w in ws}
    want = {"0", "3", "6", "9", "12", "3I", "6I", "9I", "12I"}
    return _true(want <= got, "superset of the printed nine")


@entry("ex-3.1.14-conjugate-pair", "3.5 = 1.3 mod 6; the least pair is (0,0)")
def _ex3114():
    m = line6()
    x, y = m.index("3"), m.index("5")
    a, b = m.index("1"), m.index("3")
    relation = m.op(a, x) == m.op(y, b)
    least = conjugate_pair(m, x, y)
    return _true(relation and least == (0, 0), "(1,3) satisfies a*x = y*b; least (0,0)")


@entry("ex-3.3.8-cauchy-full", "all torsion orders divide 24")
def _ex338():
    ns = build_n_structure(
        [zmod_mult(8), zn_line_neutro(4), direct_product(zmod_mult(3), zmod_mult(3))],
        ["s-semigroup", "s-neutrosophic-semigroup", "s-semigroup"],
        "nsemigroup-3.3.8")
    rep = n_cauchy(ns)
    return _true(ns.order == 24 and rep.verdict == Verdict3.FULL)


@entry("ex-3.3.5-lagrange-witness", "P of order 24 divides 48")
def _ex335():
    pairs3 = direct_product(zn_line_neutro(3), zn_line_neutro(3))
    ns = build_n_structure(
        [zmod_mult(12), line6(), pairs3],
        ["s-semigroup", "s-neutrosophic-semigroup", "s-neutrosophic-semigroup"],
        "nsemigroup-3.3.5")
    p = NSubset(ns, [
        tuple(range(12)),
        ns.components[1].subset(["0", "2", "4", "2I", "4I", "I"]).members,
        ns.components[2].subset(["(0,0)", "(0,1)", "(1,0)", "(2,0)", "(I,0)", "(2I,0)"]).members])
    produced = nstruct.n_subset_is_produced(
        ns, p, [SubsetPredicate.IS_SUBGROUPOID, SubsetPredicate.IS_S_NEUTROSOPHIC_SUB,
                SubsetPredicate.IS_S_NEUTROSOPHIC_SUB])
    return _true(ns.order == 48 and produced and p.order == 24 and 48 % 24 == 0,
                 "P produced with order 24 | 48")


def _ns336():
    return _get("ns336", lambda: build_n_structure(
        [zmod_mult(10), zn_line_neutro(6), direct_product(zmod_mult(2), zmod_mult(5))],
        ["s-semigroup", "s-neutrosophic-semigroup", "s-semigroup"],
        "nsemigroup-3.3.6"))


_336_SPECIES = [GROUP_OR_S_SUBSEMIGROUP, SubsetPredicate.IS_S_NEUTROSOPHIC_SUB,
                GROUP_OR_S_SUBSEMIGROUP]


@entry("ex-3.3.6-lagrange-free", "prime union order 31 forces Lagrange free")
def _ex336():
    ns = _ns336()
    t = (ns.components[0].subset(["0", "1", "9"]).members,
         ns.components[1].subset(["0", "2", "2I", "4", "4I"]).members,
         ns.components[2].subset(["(0,0)", "(1,1)", "(1,2)", "(1,3)", "(1,4)"]).members)
    produced = nstruct.n_subset_is_produced(ns, NSubset(ns, t), _336_SPECIES)
    rep = n_lagrange(ns, _336_SPECIES)
    return _true(ns.order == 31 and produced and rep.verdict == Verdict3.FREE)


# ---------------------------------------------------------------------------
# chapter 2/4 union structures

@entry("ex-2.2.7-lagrange", "H = {1, I} u {0, 2, 2I} has order 5 | 15")
def _ex227():
    ns = build_n_structure([zn_units_neutro(5), zn_line_neutro(4)],
                           ["s-neutrosophic-group", "s-neutrosophic-semigroup"],
                           "bigroup-2.2.7")
    h = NSubset(ns, (ns.components[0].subset(["1", "I"]).members,
                     ns.components[1].subset(["0", "2", "2I"]).members))
    produced = nstruct.n_subset_is_produced(ns, h, [NEUTRO_UNITAL, NEUTRO_SUBSEMIGROUP])
    return _true(ns.order == 15 and produced and h.order == 5 and 15 % 5 == 0)


@entry("ex-2.3.1-order", "a 3-component union of orders 8 + 11 + 12")
def _ex231():
    ns = build_n_structure(
        [zn_units_neutro(5), line6(), alternating(4)],
        ["s-neutrosophic-group", "s-neutrosophic-semigroup", "group"],
        "ngroup-2.3.1")
    return _eq(31, ns.order)


def _ns233():
    return _get("ns233", lambda: build_n_structure(
        [line6(), symmetric_group(3), zmod_mult(15)],
        ["s-neutrosophic-semigroup", "group", "s-semigroup"],
        "ngroup-2.3.3"))


_233_SPECIES = [SubsetPredicate.IS_S_NEUTROSOPHIC_SUB, SubsetPredicate.IS_GROUP,
                GROUP_OR_S_SUBSEMIGROUP]


@entry("ex-2.3.3-weak-lagrange", "P of order 12 fails, K of order 8 divides 32")
def _ex233():
    ns = _ns233()
    rep = n_lagrange(ns, _233_SPECIES)
    p = NSubset(ns, (ns.components[0].subset(["0", "2", "4", "2I", "4I"]).members,
                     ns.components[1].subset(["123", "213"]).members,
                     ns.components[2].subset(["0", "3", "6", "9", "12"]).members))
    k = NSubset(ns, (ns.components[0].subset(["1", "5", "I", "5I"]).members,
                     ns.components[1].subset(["123", "132"]).members,
                     ns.components[2].subset(["1", "14"]).members))
    # (order, qualifies) of each one the enumeration produces
    found = [(h.order, ns.order % h.order == 0) for h in (p, k)
             if nstruct.n_subset_is_produced(ns, h, _233_SPECIES)]
    ok = (ns.order == 32 and found == [(12, False), (8, True)]
          and rep.verdict == Verdict3.WEAK)
    return _true(ok, "12 fails, 8 divides, verdict weak")


def _ns234():
    return _get("ns234", lambda: build_n_structure(
        [zn_units_neutro(5), zmod_mult(10), zn_line_neutro(4)],
        ["s-neutrosophic-group", "s-semigroup", "s-neutrosophic-semigroup"],
        "ngroup-2.3.4"))


@entry("ex-2.3.4-non-cauchy-elements", "(4I)^2 = I with 2 not dividing 25")
def _ex234():
    ns = _ns234()
    c1, c2 = ns.components[0], ns.components[1]
    a = element_orders(c1, c1.index("4I")).neutro_order
    b = element_orders(c2, 3).real_order
    rep = n_cauchy(ns)
    ok = (ns.order == 25 and a == 2 and 25 % 2 == 1 and b == 4 and 25 % 4 != 0
          and rep.verdict == Verdict3.FREE)
    return _true(ok, "orders 2 and 4 fail against 25; verdict free")


def _ns235():
    return _get("ns235", lambda: build_n_structure(
        [zn_units_neutro(5), zn_full_neutro(4), zmod_mult(12)],
        ["s-neutrosophic-group", "s-neutrosophic-semigroup", "s-semigroup"],
        "ngroup-2.3.5"))


_235_SPECIES = [NEUTRO_UNITAL_OR_SUBGROUP, GROUP_OR_S_SUBSEMIGROUP,
                GROUP_OR_S_SUBSEMIGROUP]


@entry("ex-2.3.5-weak-sylow", "a 3-Sylow of order 9 exists, no 2-Sylow of order 4")
def _ex235():
    ns = _ns235()
    rep = n_sylow(ns, _235_SPECIES)
    nine = [w for w in rep.witnesses if w.order == 9]
    return _true(ns.order == 36 and rep.verdict == Verdict3.WEAK and nine,
                 "order-9 witness, weak verdict")


@entry("ex-2.3.6-tuple-sylow", "T carries (3,2,2) and (2,2,2) Sylow tuples")
def _ex236():
    g3 = direct_product(zn_full_neutro(3), zn_full_neutro(3))
    ns = build_n_structure(
        [symmetric_group(4), zn_units_neutro(5), g3],
        ["group", "s-neutrosophic-group", "neutrosophic-semigroup"],
        "ngroup-2.3.6")
    s4, u5 = ns.components[0], ns.components[1]
    a4 = tuple(sorted(s4.index(lab) for lab in alternating(4).labels))
    t = NSubset(ns, [a4,
                     u5.subset(["1", "4", "I", "4I"]).members,
                     g3.subset(["(1,1)", "(2,2)", "(1,2)", "(2,1)"]).members])
    species = [SubsetPredicate.IS_GROUP, NEUTRO_UNITAL_OR_SUBGROUP,
               SubsetPredicate.IS_GROUP]
    r322 = tuple_sylow(ns, (3, 2, 2), species, within=t)
    r222 = tuple_sylow(ns, (2, 2, 2), species, within=t)
    return _true(r322.found and r222.found, "both tuples found inside T")


@entry("ex-4.1.1-s-neutrosophic-loop", "{e, 2, eI, 2I} is a neutrosophic group")
def _ex411():
    m = tagged_l53()
    s = m.subset(["e", "2", "eI", "2I"])
    det = classify.detect_s_kind(m, SKind.S_NEUTROSOPHIC_LOOP)
    return _true(is_closed(s) and is_neutrosophic_subgroup(s) and det.holds)


@entry("ex-4.1.1-relabel", "the printed witness writes I for the tagged identity",
       status="flag-discrepancy",
       note="the text lists {e, 2, I, 2I} but the doubled universe has eI, not a bare I; "
            "the corpus maps I to eI")
def _ex411_relabel():
    m = tagged_l53()
    printed = {"e", "2", "I", "2I"}
    actual = {"e", "2", "eI", "2I"}
    ok = printed == actual   # records the relabeling as a divergence
    return CheckResult(ok, repr(sorted(printed)), repr(sorted(actual)))


@entry("thm-4.1.1-four-element-table", "{tI, e, eI, t} reproduces the printed table")
def _thm411():
    m = tagged_l53()
    e, t, eI, tI = (m.index(x) for x in ("e", "3", "eI", "3I"))
    rows = [[m.op(a, b) for b in (e, t, eI, tI)] for a in (e, t, eI, tI)]
    want = [[e, t, eI, tI], [t, e, tI, eI], [eI, tI, eI, tI], [tI, eI, tI, eI]]
    return _eq(want, rows)


@entry("def-1.3.64-order", "the doubled loop has order 2(n+1)")
def _doubling_order():
    return _eq(12, tagged_l53().order)


@entry("ex-4.1.2-homomorphism", "e->e, 3->5, eI->eI, 3I->5I preserves products")
def _ex412():
    src = tagged_l53()
    dst = _get("tl72", lambda: extend_tagged(ln(7, 2)))
    f = PartialMap.from_labels(src, dst,
                               [("e", "e"), ("3", "5"), ("eI", "eI"), ("3I", "5I")])
    return _true(check_homomorphism(f))


@entry("ex-4.1.5-weak-lagrange", "12 does not divide 32 but 4 does")
def _ex415():
    m = _get("tl15_2", lambda: extend_tagged(ln(15, 2)))
    h1 = m.subset(["e", "1", "4", "7", "10", "13",
                   "eI", "1I", "4I", "7I", "10I", "13I"])
    p = m.subset(["e", "3", "eI", "3I"])
    rep = classify.lagrange_classify(m, S_NEUTRO_SUBLOOP)
    ok = (m.order == 32 and is_s_neutrosophic_subloop(h1) and 32 % 12 != 0
          and is_s_neutrosophic_subloop(p) and 32 % 4 == 0
          and rep.verdict == Verdict3.WEAK)
    return _true(ok)


@entry("ex-4.1.8-strong-moufang", "every doubled subloop satisfies the Moufang identity")
def _ex418():
    v = classify.s_identity_class(tagged_l53(), IdentityLaw.MOUFANG1,
                                  S_NEUTRO_SUBLOOP)
    return _eq(Verdict3.FULL, v)


@entry("ex-4.2.4-lagrange", "P = {e, eI, 3, 3I} u {1, g^3} has order 6 | 18")
def _ex424():
    ns = build_n_structure([extend_tagged(ln(5, 2)), cyclic(6)],
                           ["s-neutrosophic-loop", "group"], "biloop-4.2.4")
    species = [SubsetPredicate.IS_NEUTROSOPHIC_SUBGROUP, SubsetPredicate.IS_GROUP]
    p = NSubset(ns, (ns.components[0].subset(["e", "eI", "3", "3I"]).members,
                     ns.components[1].subset(["1", "g^3"]).members))
    l = NSubset(ns, (ns.components[0].subset(["e", "eI", "3", "3I"]).members,
                     ns.components[1].subset(["1", "g^2", "g^4"]).members))
    produced = [nstruct.n_subset_is_produced(ns, x, species) for x in (p, l)]
    ok = (ns.order == 18 and all(produced) and p.order == 6 and 18 % 6 == 0
          and l.order == 7 and 18 % 7 != 0)
    return _true(ok, "orders 6 (divides) and 7 (does not)")


@entry("ex-4.2.6-cauchy-full", "every element order is 2 or 4, both divide 24")
def _ex426():
    ns = build_n_structure([extend_tagged(ln(7, 3)), dihedral(4)],
                           ["s-neutrosophic-loop", "group"], "biloop-4.2.6")
    rep = n_cauchy(ns)
    orders = sorted({w.order for w in rep.witnesses})
    return _true(ns.order == 24 and orders == [2, 4]
                 and rep.verdict == Verdict3.FULL)


# ---------------------------------------------------------------------------
# chapter 6: mixed structures

def _ns611():
    def build():
        return build_n_structure(
            [tagged_l53(), zn_units_neutro(5), line6(),
             zn_affine_neutro(8, 3, 5), alternating(5), s3semi()],
            ["s-neutrosophic-loop", "s-neutrosophic-group",
             "s-neutrosophic-semigroup", "s-neutrosophic-groupoid",
             "group", "s-semigroup"],
            "mixed-6.1.1")
    return _get("ns611", build)


@entry("ex-6.1.1-s-mixed", "six components form an S-mixed neutrosophic structure")
def _ex611():
    verdict = classify_n_kind(_ns611())
    return _true(verdict.s_mixed_neutrosophic)


@entry("ex-6.1.2-dual-s-mixed", "six components form a dual S-mixed structure")
def _ex612():
    ns = build_n_structure(
        [ln(5, 3), s3semi(), zn(12, 2, 4), alternating(4),
         extend_tagged(ln(7, 2)), line6()],
        ["s-loop", "s-semigroup", "s-groupoid", "group",
         "neutrosophic-loop", "neutrosophic-semigroup"],
        "mixed-6.1.2")
    verdict = classify_n_kind(ns)
    return _true(verdict.dual_s_mixed_neutrosophic)


@entry("ex-6.1.3-deficit", "W spans 3 of 6 components with order 4 + 4 + 4")
def _ex613():
    ns = build_n_structure(
        [tagged_l53(), line6(), zn_units_neutro(5),
         zn_affine_neutro(4, 2, 1), cyclic(4), zmod_mult(8)],
        ["s-neutrosophic-loop", "s-neutrosophic-semigroup",
         "s-neutrosophic-group", "neutrosophic-groupoid", "group", "s-semigroup"],
        "mixed-6.1.3")
    species = [SubsetPredicate.IS_NEUTROSOPHIC_SUBGROUP, NEUTRO_SUBSEMIGROUP,
               NEUTRO_UNITAL, NEUTRO_SUBSEMIGROUP, SubsetPredicate.IS_GROUP,
               SubsetPredicate.IS_SUBGROUPOID]
    w = (ns.components[0].subset(["e", "eI", "2", "2I"]).members,
         ns.components[1].subset(["1", "3", "3I", "I"]).members,
         (), (), (),
         ns.components[5].subset(["0", "2", "4", "6"]).members)
    # for 1 <= t < N, deficit_substructures(t) holds exactly the N-subsets
    # with N - t non-empty parts that the enumeration with empty parts emits
    h = NSubset(ns, w)
    produced = (sum(1 for part in w if part) == ns.n - 3
                and nstruct.n_subset_is_produced(ns, h, species,
                                                 require_nonempty_all=False))
    return _true(produced and h.order == 12, "W produced at t=3 with order 12")


# ---------------------------------------------------------------------------
# runner

class CorpusRow(NamedTuple):
    id: str
    status: str        # pass / fail / discrepancy
    provenance: str
    expected: str
    actual: str
    note: str


def all_entries():
    return sorted(_ENTRIES, key=lambda e: e.id)


def run_corpus(filter_glob: Optional[str] = None):
    rows = []
    for e in all_entries():
        if filter_glob and not fnmatch.fnmatch(e.id, filter_glob):
            continue
        try:
            res = e.run()
        except Exception as exc:   # an erroring entry is a failing entry
            rows.append(CorpusRow(e.id, "fail", e.provenance, "no error",
                                  f"{type(exc).__name__}: {exc}", e.note))
            continue
        if res.ok:
            status = "pass"
        elif e.status_on_mismatch == "flag-discrepancy":
            status = "discrepancy"
        else:
            status = "fail"
        rows.append(CorpusRow(e.id, status, e.provenance, res.expected,
                              res.actual, e.note))
    return rows


def summarize(rows):
    counts = {"pass": 0, "fail": 0, "discrepancy": 0}
    for r in rows:
        counts[r.status] += 1
    return counts


def format_rows(rows) -> str:
    lines = []
    width = max((len(r.id) for r in rows), default=10)
    for r in rows:
        lines.append(f"{r.status.upper():<12} {r.id:<{width}}  [{r.provenance}]")
        if r.status != "pass":
            lines.append(f"{'':12}   expected {r.expected}")
            lines.append(f"{'':12}   actual   {r.actual}")
            if r.note:
                lines.append(f"{'':12}   note: {r.note}")
    c = summarize(rows)
    lines.append(f"pass {c['pass']}  discrepancy {c['discrepancy']}  fail {c['fail']}")
    return "\n".join(lines) + "\n"
