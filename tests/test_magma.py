"""Core table operations, identity laws and substructure search."""

import gc
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import pytest

import neutromagma as nm
from neutromagma import IdentityLaw as Law
from neutromagma import SubsetPredicate as SP
from test_oracle_equivalence import random_loop_table


def trivial():
    return nm.FiniteMagma([[0]], labels=["e"])


def test_construction_validation():
    with pytest.raises(nm.ParameterError):
        nm.FiniteMagma([[0, 1], [2, 0]])          # entry out of range
    with pytest.raises(nm.ParameterError):
        nm.FiniteMagma([[0, 1], [1, 0]], labels=["a", "a"])   # dup labels
    m = nm.FiniteMagma([[0, 1], [1, 0]])
    assert m.identity == 0                        # found from the table
    for bad in ({"table": [[0.5]]}, {"table": [["a"]]},
                {"table": [[True, False], [False, True]]},
                {"table": [[0, 1], [1, 0]], "neutro_mask": [True, 7]},
                {"table": [[0, 1], [1, 0]], "neutro_mask": [True, True],
                 "neutro_identity": 1.0},
                {"table": []}, {"table": [[0, 1]]},
                {"table": [[0, 1], [1, 0]], "labels": ["a"]},
                {"table": [[0, 1], [1, 0]], "neutro_mask": [True]},
                {"table": [[0, 1], [1, 0]], "neutro_mask": [False, True],
                 "neutro_identity": 0}):
        with pytest.raises(nm.ParameterError):
            nm.FiniteMagma(**bad)
    with pytest.raises(nm.ParameterError, match="no element labeled 'x'"):
        m.index("x")
    # a declared identity must be the identity found from the table
    for bad in ({"table": [[1, 1], [1, 1]], "identity": 0},
                {"table": [[0]], "identity": "x"},
                {"table": [[0]], "identity": True}):
        with pytest.raises(nm.ParameterError):
            nm.magma_from_dict(bad)


def test_bytes_rows():
    # a bytes row holds ints in [0,256) already, so only its length and
    # largest entry are checked; the table stored is the one list rows give
    rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    m = nm.FiniteMagma([bytes(r) for r in rows])
    assert m.table == nm.FiniteMagma(rows).table == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert m.identity == 0
    with pytest.raises(nm.ParameterError) as err:
        nm.FiniteMagma([b"\x00\x01\x07"] * 3)
    assert str(err.value) == "table entry 7 is not an index in [0,3)"
    with pytest.raises(nm.ParameterError, match="table is not square"):
        nm.FiniteMagma([b"\x00\x01\x02", b"\x00\x01", b"\x00\x01\x02"])
    with pytest.raises(nm.ParameterError, match="table is not square"):
        nm.FiniteMagma([b"\x00\x01\x02\x00"] * 3)
    # list rows keep their per-cell type checks
    for bad, name in ((True, "True"), (1.0, "1.0"), (False, "False"), (0.0, "0.0")):
        with pytest.raises(nm.ParameterError, match=f"table entry {name} is not an index"):
            nm.FiniteMagma([[0, 1], [1, bad]])


@pytest.mark.parametrize("args, match", [
    (([5],), "table row 5 is not a sequence"),
    ((None,), "table None is not a sequence of rows"),
    (([[0]], 5), "labels 5 are not an iterable"),
    (([[0]], None, 5), "neutro_mask 5 is not an iterable"),
], ids=["int-row", "no-table", "int-labels", "int-mask"])
def test_construction_arguments_of_the_wrong_type(args, match):
    # each once raised a raw TypeError
    with pytest.raises(nm.ParameterError, match=match):
        nm.FiniteMagma(*args)


def test_order_cap():
    m = nm.cyclic(nm.magma.MAX_ORDER)
    for law in Law:
        assert nm.check_identity_law(m, law).holds is (law is not Law.IDEMPOTENT), law
    assert nm.check_identity_law(m, Law.IDEMPOTENT).witness == (1,)
    with pytest.raises(nm.ResourceLimitError):
        nm.FiniteMagma([[0] * 257 for _ in range(257)])
    for build in (lambda: nm.cyclic(257), lambda: nm.zn_full_neutro(17),
                  lambda: nm.extend_tagged(nm.cyclic(129)),
                  lambda: nm.direct_product(nm.cyclic(16), nm.cyclic(17)),
                  lambda: nm.symmetric_group(10 ** 9)):
        with pytest.raises(nm.ResourceLimitError):
            build()


def test_op_apply():
    assert nm.ln(5, 2).op(1, 2) == 3
    assert nm.ln(7, 4).op(2, 4) == 3
    g = nm.symmetric_group(3)
    e = g.identity
    assert all(g.op(e, x) == x for x in range(6))
    with pytest.raises(nm.ParameterError):
        g.op(0, 99)


def test_is_closed():
    full = nm.zn_full_neutro(5)
    assert nm.is_closed(full.subset(["1", "I", "4I"]))
    assert not nm.is_closed(full.subset(["1", "2"]))      # 2*2 = 4 escapes
    assert nm.is_closed(full.full_subset())


def test_subset_membership_reads_the_members():
    m = nm.cyclic(6)
    s = nm.Subset(m, [0, 2, 4])
    assert [x in s for x in range(-1, 7)] == [False, True, False, True, False,
                                              True, False, False]
    assert "0" not in s and m.labels[2] not in s
    # an unhashable probe is not a member either
    assert [0] not in s


def test_latin_square_check():
    assert nm.latin_square_check(nm.ln(5, 2))
    assert nm.latin_square_check(trivial())
    # both translation coefficients are units mod 3, so this is a latin square
    assert nm.latin_square_check(nm.zn(3, 1, 2))
    assert not nm.latin_square_check(nm.zmod_mult(6))


def test_classify_basic():
    r = nm.classify_basic(nm.zmod_mult(6))
    assert r.is_semigroup and not r.is_group and r.identity == 1
    assert not r.inverses_exist                           # 0 has no inverse
    r = nm.classify_basic(nm.ln(5, 3))
    assert r.is_loop and not r.is_group and r.is_commutative
    r = nm.classify_basic(nm.symmetric_group(3))
    assert r.is_group and not r.is_commutative
    r = nm.classify_basic(trivial())
    assert r.is_group and r.is_commutative


@pytest.mark.parametrize("law,holds", [
    (Law.WIP, True),              # m^2 - m + 1 = 7 = 0 mod 7
    (Law.RIGHT_ALTERNATIVE, False),
    (Law.MOUFANG1, False),
])
def test_identity_laws_l73(law, holds):
    assert nm.check_identity_law(nm.ln(7, 3), law).holds is holds


def test_identity_law_witness_is_first():
    res = nm.check_identity_law(nm.ln(5, 3), Law.MOUFANG1)
    assert not res.holds
    t = nm.ln(5, 3).table
    x, y, z = res.witness
    # nothing lexicographically earlier fails
    for a in range(6):
        for b in range(6):
            for c in range(6):
                if (a, b, c) == (x, y, z):
                    return
                assert t[t[a][b]][t[c][a]] == t[t[a][t[b][c]]][a]


def test_associative_carriers_satisfy_moufang_and_flexibility():
    for m in (nm.cyclic(12), nm.zmod_mult(20), nm.symmetric_semigroup(2)):
        for law in (Law.MOUFANG1, Law.MOUFANG2, Law.MOUFANG3, Law.P_GROUPOID):
            assert nm.check_identity_law(m, law).holds, (m.kind_tag, law)
    # on zn(5, 2, 3), (xy)x = 2x + y and x(yx) = x + y: first failure at x=1, y=0
    assert nm.check_identity_law(nm.zn(5, 2, 3), Law.P_GROUPOID).witness == (1, 0, 0)


def test_right_alternative_unique():
    assert nm.check_identity_law(nm.ln(5, 2), Law.RIGHT_ALTERNATIVE).holds
    assert nm.check_identity_law(nm.ln(5, 4), Law.LEFT_ALTERNATIVE).holds
    assert not nm.check_identity_law(nm.ln(5, 2), Law.LEFT_ALTERNATIVE).holds


def test_law_that_is_not_an_identity_law_is_refused():
    for law in ("associative", None, 3):
        with pytest.raises(nm.ParameterError, match=repr(law)):
            nm.check_identity_law(nm.cyclic(3), law)


def test_wip_requires_inverses():
    with pytest.raises(nm.PreconditionError) as err:
        nm.check_identity_law(nm.zmod_mult(6), Law.WIP)
    assert "0" in str(err.value)          # names the non-invertible element
    # tagged halves have no inverses either
    with pytest.raises(nm.PreconditionError):
        nm.check_identity_law(nm.extend_tagged(nm.ln(7, 3)), Law.WIP)
    # restricted to the invertible untagged part the law is decidable
    t = nm.extend_tagged(nm.ln(7, 3))
    dom = nm.Subset(t, range(8))
    assert nm.check_identity_law(t, Law.WIP, domain=dom).holds


def test_two_sided_inverses_are_computed_once_and_copied_out():
    # the whole-carrier map is kept per carrier for classify_basic and the
    # WIP and BRUCK_INVERSE preconditions; the public call hands out copies
    for m in (nm.zmod_mult(6), nm.ln(7, 3), nm.extend_tagged(nm.ln(5, 2))):
        t, e = m.table, m.identity
        want = {}
        for x in range(m.order):
            y = next((y for y in range(m.order) if t[x][y] == e == t[y][x]), None)
            if y is not None:
                want[x] = y
        got = nm.two_sided_inverses(m)
        assert got == want
        got[0] = -1
        got.clear()
        assert nm.two_sided_inverses(m) == want
        assert nm.classify_basic(m).inverses_exist is (len(want) == m.order)
        dom = [m.order - 1, 0, 0, 2]
        assert nm.two_sided_inverses(m, dom) == {x: want[x] for x in dom if x in want}
        assert list(nm.two_sided_inverses(m, dom)) == [x for x in dict.fromkeys(dom) if x in want]
    with pytest.raises(nm.PreconditionError, match="no identity"):
        nm.two_sided_inverses(nm.zn(5, 2, 3), [7])


def test_bruck_alternate_reading():
    assert not nm.check_identity_law(nm.ln(7, 3), Law.BRUCK_IDENTITY).holds


def test_bruck_inverse_takes_a_products_inverse_in_the_carrier():
    # products of domain members are taken in m, and so are their inverses:
    # g^3 and g^2 below have inverses in cyclic(6), outside the domain
    m = nm.cyclic(6)
    for members in ([1, 2], [1], [0, 1, 5]):
        assert nm.check_identity_law(m, Law.BRUCK_INVERSE, domain=m.subset(members)) == \
            nm.LawResult(True, None)
    # against the definition (xy)^-1 = x^-1 y^-1 over seeded domains
    rng = random.Random(5)
    for m in (nm.symmetric_group(3), nm.dihedral(4), nm.ln(7, 3), nm.cyclic(5)):
        t, e = m.table, m.identity
        inv = {x: next(y for y in range(m.order) if t[x][y] == e == t[y][x])
               for x in range(m.order)}
        for _ in range(20):
            dom = sorted(rng.sample(range(m.order), rng.randint(1, m.order)))
            fails = [(x, y) for x in dom for y in dom if inv[t[x][y]] != t[inv[x]][inv[y]]]
            assert nm.check_identity_law(m, Law.BRUCK_INVERSE, domain=nm.Subset(m, dom)) == \
                nm.LawResult(not fails, fails[0] if fails else None)
    # the domain's own members still need inverses
    z = nm.zmod_mult(6)
    with pytest.raises(nm.PreconditionError, match="element 2 has no two-sided inverse"):
        nm.check_identity_law(z, Law.BRUCK_INVERSE, domain=z.subset([1, 2]))
    with pytest.raises(nm.PreconditionError, match="element 0 has no two-sided inverse"):
        nm.check_identity_law(z, Law.BRUCK_INVERSE, domain=z.subset([5, 0]))


def test_lazy_caches_under_threads():
    # 8 threads fill the division tables, law maps, basic report and
    # closed-subset lattice of fresh carriers at once; each cache is one
    # assignment of a whole value
    def work(m):
        return ([m.right_division(c, b) for c in range(m.order) for b in range(m.order)],
                [nm.check_identity_law(m, law) for law in (Law.MOUFANG1, Law.P_GROUPOID)],
                nm.classify_basic(m),
                [s.members for s in nm.enumerate_closed_subsets(m)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for n in (5, 7, 9, 11, 13):
                m = nm.ln(n, 2)
                results = [f.result(timeout=60)
                           for f in [pool.submit(work, m) for _ in range(8)]]
                assert all(r == results[0] for r in results)
    finally:
        sys.setswitchinterval(interval)


def test_trivial_magma_all_laws_hold():
    m = trivial()
    for law in Law:
        assert nm.check_identity_law(m, law).holds


def test_generated_closure():
    m = nm.ln(5, 2)
    assert nm.generated_closure(m, [1]).members == (0, 1)     # 1*1 = e
    z = nm.zmod_mult(6)
    assert nm.generated_closure(z, [2]).members == (2, 4)
    assert nm.generated_closure(z, list(range(6))).members == tuple(range(6))
    with pytest.raises(nm.ParameterError):
        nm.generated_closure(z, [])


def test_generated_closure_is_least_closed_superset():
    for m in (nm.zmod_mult(6), nm.zn(5, 2, 3), nm.ln(5, 2)):
        closed = [set(s.members) for s in
                  nm.enumerate_closed_subsets(m, include_full=True)]
        for g in range(m.order):
            got = set(nm.generated_closure(m, [g]).members)
            want = set.intersection(*[c for c in closed if {g} <= c])
            assert got == want


def test_enumerate_closed_subsets():
    found = nm.enumerate_closed_subsets(nm.zmod_mult(7), SP.IS_GROUP)
    members = {s.members for s in found}
    assert (1, 2, 3, 4, 5, 6) in members
    assert nm.enumerate_closed_subsets(trivial()) == ()

    full = nm.zn_full_neutro(5)          # order 25
    found = nm.enumerate_closed_subsets(full, SP.IS_GROUP)
    members = {frozenset(s.labels()) for s in found}
    assert frozenset(["1", "4"]) in members
    assert frozenset(["1", "1+3I"]) in members
    assert len(nm.enumerate_closed_subsets(full)) == 201
    with pytest.raises(nm.ParameterError, match="not a subset predicate: 5"):
        nm.enumerate_closed_subsets(nm.cyclic(4), 5)


@pytest.mark.parametrize("build, count", [
    (lambda: nm.zn_line_neutro(15), 1766),
    (lambda: nm.symmetric_semigroup(3), 1296),
], ids=["zn_line_neutro(15)", "symmetric_semigroup(3)"])
def test_closed_subset_counts_above_order_16(build, count):
    assert len(nm.enumerate_closed_subsets(build())) == count


def test_closed_subset_cap_raises(monkeypatch):
    monkeypatch.setattr(nm.magma, "MAX_CLOSED_SUBSETS", 5)
    m = nm.zmod_mult(6)                  # 14 nonempty closed subsets
    with pytest.raises(nm.ResourceLimitError, match="more than 5"):
        nm.enumerate_closed_subsets(m)
    assert "closed" not in m._subset_cache
    with pytest.raises(nm.ResourceLimitError, match="more than 5"):
        nm.enumerate_closed_subsets(m, SP.IS_SEMIGROUP)
    assert m._subset_cache == {}


def test_species_memo_returns_fresh_equal_subsets():
    m = nm.zmod_mult(12)
    for pred, fn in nm.magma.PREDICATE_REGISTRY.items():
        for include_full in (False, True):
            first = nm.enumerate_closed_subsets(m, pred, include_full)
            again = nm.enumerate_closed_subsets(m, pred, include_full)
            assert first == again
            assert all(a is not b for a, b in zip(first, again))
            assert m._subset_cache[(pred, include_full)] == tuple(s.members for s in first)
            # a plain callable of the same species is never memoized
            fresh = nm.zmod_mult(12)
            assert ([s.members for s in nm.enumerate_closed_subsets(fresh, fn, include_full)]
                    == [s.members for s in first])
            assert list(fresh._subset_cache) == ["closed"]


def test_callable_species_is_evaluated_on_every_call():
    m = nm.zmod_mult(12)
    seen = []

    def species(s):
        seen.append(s.members)
        return nm.subset_is_group(s)

    first = nm.enumerate_closed_subsets(m, species)
    calls = len(seen)
    assert calls > 0 and first
    assert nm.enumerate_closed_subsets(m, species) == first
    assert len(seen) == 2 * calls
    assert list(m._subset_cache) == ["closed"]


def test_memoized_carrier_is_freed_without_the_cycle_collector():
    # the memo holds member tuples, not Subsets pointing back at the
    # carrier, so dropping the carrier frees it by reference counting alone
    class Tracked(nm.FiniteMagma):
        __slots__ = ("__weakref__",)

    enabled = gc.isenabled()
    gc.disable()
    try:
        m = Tracked(nm.zmod_mult(12).table)
        found = nm.enumerate_closed_subsets(m, SP.IS_GROUP)
        assert found and (SP.IS_GROUP, False) in m._subset_cache
        ref = weakref.ref(m)
        del m, found
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _brute_semigroup(t, mem):
    return len(mem) >= 2 and all(t[t[x][y]][z] == t[x][t[y][z]]
                                 for x in mem for y in mem for z in mem)


def _brute_group(t, mem):
    if not _brute_semigroup(t, mem):
        return False
    ids = [e for e in mem if all(t[e][x] == x == t[x][e] for x in mem)]
    return bool(ids) and all(any(t[x][y] == ids[0] == t[y][x] for y in mem) for x in mem)


@pytest.mark.parametrize("build, associative", [
    (lambda: nm.zmod_mult(12), True),
    (lambda: nm.symmetric_semigroup(2), True),
    (lambda: nm.cyclic(8), True),
    (lambda: nm.zn_full_neutro(3), True),
    (lambda: nm.ln(7, 2), False),
    (lambda: nm.zn(5, 2, 3), False),
], ids=["zmod_mult(12)", "symmetric_semigroup(2)", "cyclic(8)", "zn_full_neutro(3)",
        "ln(7,2)", "zn(5,2,3)"])
def test_group_and_semigroup_species_against_triple_loop(build, associative, monkeypatch):
    m = build()
    assert nm.classify_basic(m).is_semigroup is associative
    scans = []
    light_associative = nm.magma._light_associative

    def counted(*args):
        scans.append(args)
        return light_associative(*args)

    monkeypatch.setattr(nm.magma, "_light_associative", counted)
    for s in nm.enumerate_closed_subsets(m, include_full=True):
        assert nm.subset_is_semigroup(s) == _brute_semigroup(m.table, s.members), s
        assert nm.subset_is_group(s) == _brute_group(m.table, s.members), s
    # subsets of a semigroup inherit associativity without a test
    assert bool(scans) is not associative


def test_group_and_semigroup_species_against_triple_loop_on_random_tables():
    rng = random.Random(20061018)
    for _ in range(100):
        k = rng.randint(2, 6)
        m = nm.FiniteMagma([[rng.randrange(k) for _ in range(k)] for _ in range(k)])
        for s in nm.enumerate_closed_subsets(m, include_full=True):
            assert nm.subset_is_semigroup(s) == _brute_semigroup(m.table, s.members), m.table
            assert nm.subset_is_group(s) == _brute_group(m.table, s.members), m.table


def _loops_for_the_subloop_rule():
    for n in range(5, 22, 2):
        yield from nm.ln_class(n)
    yield nm.cyclic(4)
    yield nm.direct_product(nm.cyclic(2), nm.cyclic(2))
    rng = random.Random(20061029)
    for b in range(5, 9):
        for _ in range(12):
            yield nm.FiniteMagma(random_loop_table(rng, b))


def test_closed_sets_of_order_at_most_4_in_a_loop_skip_lights_test(monkeypatch):
    # a closed set of a loop is a subloop, and every loop of order <= 4 is
    # a group, so only larger closed sets of a non-associative loop reach
    # Light's test
    carriers = list(_loops_for_the_subloop_rule())
    found = [(m, nm.enumerate_closed_subsets(m, include_full=True)) for m in carriers]
    assert all(nm.classify_basic(m).is_loop for m in carriers)
    scans = []
    light_associative = nm.magma._light_associative

    def counted(m, dom):
        scans.append(len(dom))
        return light_associative(m, dom)

    monkeypatch.setattr(nm.magma, "_light_associative", counted)
    small = 0
    for m, subsets in found:
        for s in subsets:
            small += len(s) <= 4
            assert nm.subset_is_semigroup(s) == _brute_semigroup(m.table, s.members), s
            assert nm.subset_is_group(s) == _brute_group(m.table, s.members), s
    assert small > 500 and scans
    assert min(scans) > 4


def test_closed_subset_cap_on_constant_product():
    # every subset holding the product's value is closed: 2^23 of them
    m = nm.FiniteMagma([[0] * 24 for _ in range(24)])
    with pytest.raises(nm.ResourceLimitError,
                       match=f"more than {nm.magma.MAX_CLOSED_SUBSETS} closed subsets"):
        nm.enumerate_closed_subsets(m)


def test_lattice_subsets_answer_as_public_subsets():
    # Subsets from the closed-subset search and from generated_closure carry
    # a record that they are closed; a public Subset of the same members
    # does not, yet it compares, hashes and prints the same, and every
    # species gives the same answer on both
    species = [*nm.magma.PREDICATE_REGISTRY, nm.NEUTRO_UNITAL, nm.NEUTRO_SUBSEMIGROUP,
               nm.GROUP_OR_S_SUBSEMIGROUP, nm.NEUTRO_UNITAL_OR_SUBGROUP,
               nm.S_NEUTRO_SUBLOOP]
    for m in (nm.zmod_mult(6), nm.symmetric_group(3), nm.zn_full_neutro(3),
              nm.extend_tagged(nm.cyclic(4)), nm.ln(5, 3)):
        found = list(nm.enumerate_closed_subsets(m, include_full=True))
        found += [nm.generated_closure(m, [x]) for x in range(m.order)]
        for s in found:
            public = nm.Subset(m, s.members)
            assert public == s and hash(public) == hash(s) and repr(public) == repr(s)
            assert nm.is_closed(public) and nm.is_closed(s)
            for pred in species:
                assert (nm.magma.evaluate_predicate(pred, s)
                        == nm.magma.evaluate_predicate(pred, public)), (m, s, pred)
        closed = {s.members for s in found}
        for mem in combinations(range(m.order), 2):
            if mem not in closed:
                s = nm.Subset(m, mem)
                assert not nm.is_closed(s)
                assert not (nm.subset_is_group(s) or nm.subset_is_semigroup(s)
                            or nm.subset_is_loop(s))


def test_enumeration_exclusions_and_ordering():
    m = nm.zmod_mult(6)
    found = nm.enumerate_closed_subsets(m)
    mems = [s.members for s in found]
    assert tuple(range(6)) not in mems              # full universe excluded
    assert (m.identity,) not in mems                # {identity} excluded
    assert mems == sorted(mems)                     # lexicographic order
    # exact agreement with an independent power-set scan
    from itertools import combinations
    want = []
    for r in range(1, 6):
        for c in combinations(range(6), r):
            s = set(c)
            if c == (1,):
                continue
            if all(m.table[x][y] in s for x in s for y in s):
                want.append(tuple(sorted(c)))
    assert sorted(want) == mems


def test_center_and_nuclei():
    assert nm.center(nm.cyclic(5)).members == tuple(range(5))
    g = nm.symmetric_group(3)
    assert nm.center(g).members == (g.identity,)
    assert nm.center(nm.zn(3, 1, 2)).members == ()

    rep = nm.nuclei(nm.cyclic(4))
    assert rep.nucleus.members == tuple(range(4))
    assert rep.centre.members == tuple(range(4))
    rep = nm.nuclei(nm.ln(5, 2))
    assert rep.nucleus.members == (0,)
    rep = nm.nuclei(nm.ln(5, 3))
    assert rep.commutant.members == tuple(range(6))
    with pytest.raises(nm.PreconditionError):
        nm.nuclei(nm.zn(5, 2, 3))       # no identity


def test_associator_commutator():
    g = nm.symmetric_group(3)
    assert nm.associator_subloop(g).members == (g.identity,)
    assert nm.commutator_subloop(nm.cyclic(6)).members == (0,)
    assert nm.associator_subloop(nm.ln(7, 3)).members == tuple(range(8))
    assert nm.commutator_subloop(nm.ln(5, 3)).members == (0,)
    with pytest.raises(nm.PreconditionError):
        nm.associator_subloop(nm.zmod_mult(6))


def test_cosets():
    m = nm.zn_full_neutro(5)
    h = m.subset(["1", "I", "4I"])
    right = nm.cosets(m, h, m.index("2"), "right")
    assert set(right.labels()) == {"2", "2I", "3I"}
    assert nm.cosets(m, h, m.identity, "right") == h
    # size bound with equality iff the translation is injective on h
    for a in range(m.order):
        c = nm.cosets(m, h, a, "right")
        images = [m.op(x, a) for x in h.members]
        assert len(c) <= len(h)
        assert (len(c) == len(h)) == (len(set(images)) == len(images))
    # in S3 the left and right translates of a swap subgroup differ
    g = nm.symmetric_group(3)
    swap = g.subset(["123", "213"])
    for a in range(g.order):
        assert nm.cosets(g, swap, a, "left").members == \
            tuple(sorted({g.op(a, x) for x in swap.members}))
    a = g.index("132")
    assert nm.cosets(g, swap, a, "left") != nm.cosets(g, swap, a, "right")
    with pytest.raises(nm.ParameterError, match="side"):
        nm.cosets(g, swap, a, "up")


def test_division_needs_a_permutation():
    m = nm.zmod_mult(4)                # the row and column of 2 repeat 0
    assert m.left_division(3, 1) == 3 and m.right_division(1, 3) == 3
    with pytest.raises(nm.PreconditionError, match="row of 2"):
        m.left_division(2, 1)
    with pytest.raises(nm.PreconditionError, match="column of 2"):
        m.right_division(1, 2)
    # the row and column of 2 hold 0 twice: 2*y = 0 and x*2 = 0 each have
    # two solutions, so neither division is defined
    with pytest.raises(nm.PreconditionError, match="row of 2"):
        m.left_division(2, 0)
    with pytest.raises(nm.PreconditionError, match="column of 2"):
        m.right_division(0, 2)


@pytest.mark.parametrize("bad", [True, False, 3.0, "g", None],
                         ids=["True", "False", "3.0", "str", "None"])
def test_element_indices_are_ints(bad):
    # as for table entries, a bool, a float or a string is not an index
    m = nm.cyclic(6)
    h = nm.Subset(m, [0, 3])
    with pytest.raises(nm.ParameterError, match="subset member"):
        nm.Subset(m, [0, bad])
    if type(bad) is not str:        # FiniteMagma.subset reads a string as a label
        with pytest.raises(nm.ParameterError, match="subset member"):
            m.subset([0, bad])
    with pytest.raises(nm.ParameterError, match="generator"):
        nm.generated_closure(m, [bad])
    with pytest.raises(nm.ParameterError, match="coset representative"):
        nm.cosets(m, h, bad)
    for i in (-1, 6):
        with pytest.raises(nm.ParameterError):
            nm.Subset(m, [i])
        with pytest.raises(nm.ParameterError):
            nm.generated_closure(m, [i])
        with pytest.raises(nm.ParameterError):
            nm.cosets(m, h, i)
    # the element arguments of every other public entry point
    for i in (-1, 6, bad):
        for call in (lambda: m.op(i, 1), lambda: m.op(1, i),
                     lambda: m.left_division(i, 1), lambda: m.left_division(1, i),
                     lambda: m.right_division(i, 1), lambda: m.right_division(1, i),
                     lambda: nm.element_orders(m, i),
                     lambda: nm.right_regular_representation(m, i),
                     lambda: nm.conjugate_pair(m, i, 1), lambda: nm.conjugate_pair(m, 1, i),
                     lambda: nm.principal_isotope(m, i, 1),
                     lambda: nm.principal_isotope(m, 1, i),
                     lambda: nm.double_coset(m, h, h, i)):
            with pytest.raises(nm.ParameterError, match="is not an index"):
                call()
    assert m.subset(["1", 3, "g"]).members == (0, 1, 3)


# entry point -> (a call on cyclic(6) with a member list that is not iterable
# or names no element, the message it raises); each once raised a raw
# TypeError or IndexError
MALFORMED_MEMBER_LISTS = {
    "Subset": (lambda m: nm.Subset(m, 5), "subset member"),
    "FiniteMagma.subset": (lambda m: m.subset(5), "subset member"),
    "generated_closure": (lambda m: nm.generated_closure(m, 5), "generator"),
    "submagma": (lambda m: nm.submagma(m, 5), "submagma member"),
    "submagma-index": (lambda m: nm.submagma(m, [0, 6]), "submagma member 6"),
    "two_sided_inverses": (lambda m: nm.two_sided_inverses(m, 5), "domain member"),
    "two_sided_inverses-index": (lambda m: nm.two_sided_inverses(m, [6]),
                                 "domain member 6"),
}


@pytest.mark.parametrize("call, match", MALFORMED_MEMBER_LISTS.values(),
                         ids=MALFORMED_MEMBER_LISTS.keys())
def test_malformed_member_lists(call, match):
    with pytest.raises(nm.ParameterError, match=match):
        call(nm.cyclic(6))


def test_double_coset():
    g = nm.symmetric_group(3)
    e = g.identity
    one = nm.Subset(g, [e])
    x = g.index("213")
    res = nm.double_coset(g, one, one, x)
    assert res.members.members == (x,) and res.associativity_assumed
    a = g.subset(["123", "213"])
    res = nm.double_coset(g, a, a, g.index("321"))
    assert len(res.members) == 4
    res = nm.double_coset(nm.zn(5, 2, 3), one_s := nm.Subset(nm.zn(5, 2, 3), [0]),
                          one_s, 2)
    assert not res.associativity_assumed


SUBSET_ENTRY_POINTS = {
    "check_identity_law": lambda m, h: nm.check_identity_law(m, Law.ASSOCIATIVE, domain=h),
    "cosets": lambda m, h: nm.cosets(m, h, 1),
    "double_coset_left": lambda m, h: nm.double_coset(m, h, m.subset([0]), 1),
    "double_coset_right": lambda m, h: nm.double_coset(m, m.subset([0]), h, 1),
    "is_normal": lambda m, h: nm.is_normal(m, h, "subloop"),
    "literal_xhy_normal": lambda m, h: nm.literal_xhy_normal(m, h),
    "is_ideal": lambda m, h: nm.is_ideal(m, h),
    "conjugate_witnesses_first": lambda m, h: nm.conjugate_witnesses(m, h, m.subset([0])),
    "conjugate_witnesses_second": lambda m, h: nm.conjugate_witnesses(m, m.subset([0]), h),
}


@pytest.mark.parametrize("call", SUBSET_ENTRY_POINTS.values(), ids=SUBSET_ENTRY_POINTS.keys())
def test_subset_arguments_belong_to_the_carrier(call):
    m = nm.cyclic(4)
    own = call(m, m.subset([0, 2]))
    # a subset of a separately built carrier with m's table names the same elements
    assert call(m, nm.cyclic(4).subset([0, 2])) == own
    for foreign in (nm.cyclic(6).subset([0, 3]),      # another order
                    nm.zmod_mult(4).subset([0, 2]),    # the same order, another table
                    (0, 2)):                           # not a Subset
        with pytest.raises(nm.ParameterError, match="is not a subset of cyclic"):
            call(m, foreign)


def test_is_normal():
    g = nm.symmetric_group(3)
    a3 = nm.Subset(g, sorted(g.index(l) for l in nm.alternating(3).labels))
    assert nm.is_normal(g, a3, "subgroup")
    swap = g.subset(["123", "213"])
    assert not nm.is_normal(g, swap, "subgroup")
    with pytest.raises(nm.PreconditionError):
        nm.is_normal(g, g.subset(["213", "321"]), "subgroup")   # not closed
    # the prime-sum groupoids are simple (no nontrivial normal subgroupoid)
    for (n, t, u) in [(5, 2, 3), (7, 2, 5), (13, 2, 11)]:
        assert nm.is_simple(nm.zn(n, t, u))


def test_is_simple_checks_its_mode_and_carrier_first():
    # zn(5,2,3) has no closed subset that is_normal would be asked about
    with pytest.raises(nm.PreconditionError):
        nm.is_simple(nm.zn(5, 2, 3), "subgroup")
    with pytest.raises(nm.ParameterError):
        nm.is_simple(nm.zn(5, 2, 3), "bogus")
    assert nm.is_simple(nm.cyclic(5), "subgroup")
    assert not nm.is_simple(nm.symmetric_group(3), "subgroup")


def test_is_ideal():
    z6 = nm.zmod_mult(6)
    assert nm.is_ideal(z6, z6.subset(["0", "2", "4"]), "two_sided")
    for (n, t, u) in [(5, 2, 3), (7, 3, 4)]:
        m = nm.zn(n, t, u, "z")
        assert not nm.is_ideal(m, nm.Subset(m, [0]), "two_sided")
    with pytest.raises(nm.PreconditionError, match="closed"):
        nm.is_ideal(z6, z6.subset(["2"]))              # 2 * 2 = 4
    with pytest.raises(nm.ParameterError, match="side"):
        nm.is_ideal(z6, z6.subset(["0"]), "both")
    with pytest.raises(nm.ParameterError, match="side"):   # the side is checked first
        nm.is_ideal(z6, z6.subset(["2"]), "both")
    m = nm.zn(4, 2, 3)
    dual = nm.zn(4, 3, 2)
    lefts = {s.members for s in nm.enumerate_closed_subsets(m, SP.IS_LEFT_IDEAL)}
    rights = {s.members for s in nm.enumerate_closed_subsets(dual, SP.IS_RIGHT_IDEAL)}
    assert lefts == rights


def test_conjugate_witnesses_symmetry():
    m = nm.zn_line_neutro(15)
    h1, h2 = m.subset(["1", "4"]), m.subset(["1", "14"])
    fwd = nm.conjugate_witnesses(m, h1, h2)
    bwd = nm.conjugate_witnesses(m, h2, h1)
    flip = {"xA=Bx": "Ax=xB", "Ax=xB": "xA=Bx"}
    as_map = {w.index: set(w.equations) for w in fwd}
    for w in bwd:
        assert {flip[e] for e in w.equations} == as_map[w.index]
    # different-order subgroups of S3 are never conjugate
    g = nm.symmetric_group(3)
    a3 = nm.Subset(g, sorted(g.index(l) for l in nm.alternating(3).labels))
    swap = g.subset(["123", "213"])
    assert nm.conjugate_witnesses(g, a3, swap) == []


def test_conjugate_pair():
    c5 = nm.cyclic(5)
    assert nm.conjugate_pair(c5, 2, 2) == (0, 0)        # (e, e)
    l6 = nm.zn_line_neutro(6)
    assert nm.conjugate_pair(l6, l6.index("3"), l6.index("5")) == (0, 0)
    # (y, x) solves a*x = y*b, so a pair always exists and is at most it
    for m in (nm.zn(5, 2, 3), nm.symmetric_semigroup(2), nm.FiniteMagma([[1, 1], [0, 0]])):
        for x in range(m.order):
            for y in range(m.order):
                a, b = nm.conjugate_pair(m, x, y)
                assert m.op(a, x) == m.op(y, b) and (a, b) <= (y, x)


def test_element_orders():
    full = nm.zn_full_neutro(5)
    eo = nm.element_orders(full, full.index("4I"))
    assert eo.neutro_order == 2 and eo.real_order is None
    assert nm.element_orders(nm.zmod_mult(8), 3).real_order == 2
    g = nm.cyclic(6)
    assert nm.element_orders(g, g.identity).real_order == 1
    # classical oracle: orders divide the group order
    for x in range(6):
        assert 6 % nm.element_orders(g, x).real_order == 0
    # no Lagrange assumption outside groups: 5 has order 2 in the order-11 carrier
    l6 = nm.zn_line_neutro(6)
    assert nm.element_orders(l6, l6.index("5")).real_order == 2


def _powers_oracle(m, x):
    """(real, neutro) orders by every left-associated power x^1..x^k."""
    real = neutro = None
    p = x
    for j in range(1, m.order + 1):
        if real is None and p == m.identity:
            real = j
        if neutro is None and p == m.neutro_identity:
            neutro = j
        p = m.table[p][x]
    return real, neutro


def test_element_orders_against_every_power(monkeypatch):
    # x*y = x + 3y mod 8 has no identity; I = 4 is reached by some powers
    bare = nm.zn(8, 1, 3)
    neutro_only = nm.FiniteMagma(bare.table, neutro_mask=[x == 4 for x in range(8)],
                                 neutro_identity=4)
    carriers = {
        "zn(8,1,3)": (bare, False, False),
        "ln(9,2)": (nm.ln(9, 2), True, False),
        "zmod_mult(12)": (nm.zmod_mult(12), True, False),
        "zn_full_neutro(4)": (nm.zn_full_neutro(4), True, True),
        "zn_units_neutro(5)": (nm.zn_units_neutro(5), True, True),
        "neutro identity alone": (neutro_only, False, True),
    }
    orders = {}
    for name, (m, real, neutro) in carriers.items():
        assert (m.identity is not None, m.neutro_identity is not None) == (real, neutro), name
        orders[name] = [tuple(nm.element_orders(m, x)) for x in range(m.order)]
        assert orders[name] == [_powers_oracle(m, x) for x in range(m.order)], name
    # 2 in Z_12 never reaches 1; 2 reaches I = 4 at its fourth power
    assert orders["zmod_mult(12)"][2] == (None, None)
    assert orders["neutro identity alone"][2] == (None, 4)
    # with neither identity no order can be found, so none is asked for
    calls = []
    element_orders = nm.classify.element_orders
    monkeypatch.setattr(nm.classify, "element_orders",
                        lambda *args: calls.append(args) or element_orders(*args))
    assert nm.cauchy_classify(bare).witnesses == ()
    assert calls == []


def test_mismatch_against_the_first_differing_pair():
    def first_difference(a, b):
        return next(i for i, (u, v) in enumerate(zip(a, b)) if u != v)

    rng = random.Random(20061029)
    for n in range(1, 257):
        a = bytes(rng.randrange(256) for _ in range(n))
        picks = [[0], [n - 1], [n // 2], rng.sample(range(n), min(n, 3)),
                 rng.sample(range(n), rng.randint(1, n))]
        for at in picks:
            b = bytearray(a)
            for i in at:
                b[i] ^= rng.randrange(1, 256)
            b = bytes(b)
            assert nm.magma._mismatch(a, b) == first_difference(a, b) == min(at), (n, at)


def test_check_homomorphism():
    g = nm.cyclic(5)
    ident = nm.PartialMap(g, g, tuple((i, i) for i in range(5)))
    assert nm.check_homomorphism(ident)
    bad = nm.PartialMap(g, g, ((1, 0), (2, 1)))     # f(1*1) = f(2) != f(1)f(1)
    assert not nm.check_homomorphism(bad)
    const = nm.PartialMap(g, g, tuple((i, 0) for i in range(5)))
    assert nm.check_homomorphism(const)
    with pytest.raises(nm.PreconditionError, match="empty"):
        nm.check_homomorphism(nm.PartialMap(g, g, ()))
    with pytest.raises(nm.ParameterError, match="mapped twice"):
        nm.check_homomorphism(nm.PartialMap(g, g, ((1, 1), (1, 2))))


@pytest.mark.parametrize("pairs", [((0, 99),), ((99, 0),), ((-1, 0),), ((0.0, 0),),
                                   ((0, 1.0),), ((True, 0), (1, 1)), ((0, False),)],
                         ids=["target-99", "source-99", "source-negative", "source-float",
                              "target-float", "source-bool", "target-bool"])
def test_partial_map_indices_are_checked(pairs):
    # each once raised a raw IndexError or TypeError, or read True as index 1
    g = nm.cyclic(5)
    with pytest.raises(nm.ParameterError, match="is not an index"):
        nm.check_homomorphism(nm.PartialMap(g, g, pairs))


@pytest.mark.parametrize("pairs", [((0,),), ((0, 1, 2),), 5],
                         ids=["short-pair", "long-pair", "not-iterable"])
def test_partial_map_pairs_are_checked(pairs):
    # each once raised a raw ValueError or TypeError while unpacking
    g = nm.cyclic(5)
    with pytest.raises(nm.ParameterError, match="source, target"):
        nm.check_homomorphism(nm.PartialMap(g, g, pairs))


def test_homomorphism_neutro_identity_clause():
    src = nm.extend_tagged(nm.ln(5, 3))
    dst = nm.extend_tagged(nm.ln(7, 2))
    good = nm.PartialMap.from_labels(src, dst,
                                     [("e", "e"), ("3", "5"), ("eI", "eI"), ("3I", "5I")])
    assert nm.check_homomorphism(good)
    bad = nm.PartialMap.from_labels(src, dst, [("e", "e"), ("eI", "e")])
    assert not nm.check_homomorphism(bad)           # eI must map to eI


def test_principal_isotope():
    m = nm.ln(5, 2)
    same = nm.principal_isotope(m, 0, 0)
    assert same.table == m.table
    iso = nm.principal_isotope(m, 1, 2)
    assert iso.order == 6 and nm.latin_square_check(iso)
    assert iso.identity == m.op(2, 1)
    with pytest.raises(nm.PreconditionError):
        nm.principal_isotope(nm.zmod_mult(6), 1, 2)


def test_is_isomorphic():
    g = nm.cyclic(4)
    assert nm.is_isomorphic(g, g) == [0, 1, 2, 3]
    klein = nm.direct_product(nm.cyclic(2), nm.cyclic(2))
    assert nm.is_isomorphic(g, klein) is None
    assert nm.is_isomorphic(g, nm.cyclic(5)) is None        # unequal orders
    assert nm.is_isomorphic(nm.cyclic(6), nm.direct_product(nm.cyclic(2), nm.cyclic(3)))
    with pytest.raises(nm.ResourceLimitError):
        nm.is_isomorphic(nm.symmetric_group(4), nm.symmetric_group(4))
    iso = nm.principal_isotope(g, 1, 3)
    assert nm.is_isomorphic(g, iso) is not None     # groups are G-loops


def test_is_isomorphic_maps_neutro_identity():
    # the same table with 1+I as neutrosophic identity: the identity map is
    # table-preserving but sends I to I, which check_homomorphism rejects
    m = nm.zn_full_neutro(2)
    c = nm.FiniteMagma(m.table, labels=m.labels, neutro_mask=m.neutro_mask,
                       neutro_identity=m.index("1+I"))
    phi = nm.is_isomorphic(m, c)
    assert phi == [0, 3, 2, 1]
    assert nm.check_homomorphism(nm.PartialMap(m, c, tuple(enumerate(phi))))
    assert nm.is_isomorphic(c, m) == [0, 3, 2, 1]


def test_right_regular_representation():
    m = nm.ln(5, 2)
    assert nm.right_regular_representation(m, 0) == (0, 1, 2, 3, 4, 5)
    perm = nm.right_regular_representation(m, 1)
    assert [m.labels[i] for i in perm] == ["1", "e", "5", "4", "3", "2"]
    g = nm.cyclic(5)
    ra = nm.right_regular_representation(g, 2)
    rb = nm.right_regular_representation(g, 3)
    rba = nm.right_regular_representation(g, g.op(3, 2))
    composed = tuple(ra[rb[x]] for x in range(5))
    assert composed == rba
    with pytest.raises(nm.PreconditionError):
        nm.right_regular_representation(nm.zmod_mult(6), 0)


def test_submagma_requires_closure():
    m = nm.zmod_mult(6)
    sub = nm.submagma(m, [2, 4])
    assert sub.order == 2 and sub.labels == ("2", "4")
    with pytest.raises(nm.PreconditionError):
        nm.submagma(m, [2, 3])


def test_loop_iff_latin_and_identity():
    for m in (nm.ln(5, 2), nm.zmod_mult(6), nm.zn(5, 2, 3), nm.cyclic(4),
              nm.zn(3, 1, 2)):
        basic = nm.classify_basic(m)
        assert basic.is_loop == (nm.latin_square_check(m) and basic.identity is not None)
