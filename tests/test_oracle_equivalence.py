"""Agreement with independent naive oracles on random magmas.

The oracles below re-derive each property straight from its definition with
plain loops over the raw table, sharing no code path with the engines.
"""

import random
from itertools import combinations, permutations, product
from math import gcd

import pytest

import neutromagma as nm
from neutromagma import IdentityLaw as Law
from neutromagma import corpus, magma

SEED = 20060131
N_MAGMAS = 50


def random_magmas():
    rng = random.Random(SEED)
    out = []
    for _ in range(N_MAGMAS):
        k = rng.randint(2, 6)
        table = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.3:      # sometimes force an identity row/column
            e = rng.randrange(k)
            for x in range(k):
                table[e][x] = x
                table[x][e] = x
        out.append(nm.FiniteMagma(table, kind_tag="random"))
    return out


MAGMAS = random_magmas()


def oracle_closed_subsets(m):
    k = m.order
    out = []
    for r in range(1, k):
        for mem in combinations(range(k), r):
            s = set(mem)
            if m.identity is not None and mem == (m.identity,):
                continue
            if all(m.table[x][y] in s for x in s for y in s):
                out.append(mem)
    return sorted(out)


def oracle_is_ideal(m, mem, side):
    s = set(mem)
    if not all(m.table[x][y] in s for x in s for y in s):
        return None     # not closed: precondition territory
    left = all(m.table[x][a] in s for x in range(m.order) for a in s)
    right = all(m.table[a][x] in s for x in range(m.order) for a in s)
    return {"left": left, "right": right, "two_sided": left and right}[side]


def oracle_law(m, law, dom):
    """The first failing tuple over dom in lexicographic order, or None."""
    t = m.table
    eqs = {
        Law.ASSOCIATIVE: lambda x, y, z: t[t[x][y]][z] == t[x][t[y][z]],
        Law.MOUFANG1: lambda x, y, z: t[t[x][y]][t[z][x]] == t[t[x][t[y][z]]][x],
        Law.MOUFANG2: lambda x, y, z: t[t[t[x][y]][z]][y] == t[x][t[y][t[z][y]]],
        Law.MOUFANG3: lambda x, y, z: t[x][t[y][t[x][z]]] == t[t[t[x][y]][x]][z],
        Law.BOL: lambda x, y, z: t[t[t[x][y]][z]][y] == t[x][t[t[y][z]][y]],
        Law.BRUCK_IDENTITY: lambda x, y, z: t[t[x][t[y][x]]][z] == t[x][t[y][t[x][z]]],
        Law.P_GROUPOID: lambda x, y, z: t[t[x][y]][x] == t[x][t[y][x]],
        Law.COMMUTATIVE: lambda x, y: t[x][y] == t[y][x],
        Law.LEFT_ALTERNATIVE: lambda x, y: t[t[x][x]][y] == t[x][t[x][y]],
        Law.RIGHT_ALTERNATIVE: lambda x, y: t[t[x][y]][y] == t[x][t[y][y]],
        Law.IDEMPOTENT: lambda x: t[x][x] == x,
    }
    eq = eqs[law]
    for v in product(dom, repeat=eq.__code__.co_argcount):
        if not eq(*v):
            return v
    return None


EQUATIONAL_LAWS = [law for law in Law if law not in (Law.WIP, Law.BRUCK_INVERSE)]


def oracle_normal_subloop(m, mem, rng=None):
    """The three translate conditions, each scanned for all x, y in rng (the
    carrier by default), with no shortcut for associative carriers."""
    t = m.table
    ms = set(mem)
    rng = range(m.order) if rng is None else rng

    def lmul(x, s):
        return {t[x][v] for v in s}

    def rmul(s, x):
        return {t[v][x] for v in s}

    for x in rng:
        if lmul(x, ms) != rmul(ms, x):
            return False
        for y in rng:
            if {t[v][y] for v in rmul(ms, x)} != rmul(ms, t[x][y]):
                return False
            if {t[y][v] for v in lmul(x, ms)} != lmul(t[y][x], ms):
                return False
    return True


def test_enumerate_against_powerset_scan():
    for m in MAGMAS:
        got = [s.members for s in nm.enumerate_closed_subsets(m)]
        assert got == oracle_closed_subsets(m)


def oracle_nuclei(t):
    """The six fields of nuclei(), each read from its definition by a triple
    loop over the table t."""
    r = range(len(t))
    left = [a for a in r if all(t[t[a][x]][y] == t[a][t[x][y]] for x in r for y in r)]
    middle = [a for a in r if all(t[t[x][a]][y] == t[x][t[a][y]] for x in r for y in r)]
    right = [a for a in r if all(t[t[x][y]][a] == t[x][t[y][a]] for x in r for y in r)]
    nucleus = [a for a in left if a in middle and a in right]
    commutant = [a for a in r if all(t[a][x] == t[x][a] for x in r)]
    return (left, middle, right, nucleus, commutant,
            [a for a in nucleus if a in commutant])


def test_nuclei_against_definition():
    rng = random.Random(946)
    carriers = [nm.FiniteMagma(random_loop_table(rng, b)) for b in range(2, 9) for _ in range(6)]
    carriers += [nm.ln(7, 3), nm.symmetric_group(3)]
    proper = 0
    for m in carriers:
        got = [list(s.members) for s in nm.nuclei(m)]
        assert got == list(oracle_nuclei(m.table))
        proper += len(got[1]) < m.order
    assert proper > 20                    # the middle nucleus is often proper


def test_closed_lattice_against_powerset_scan():
    # every closed subset, full and {identity} included, up to order 7
    rng = random.Random(SEED + 7)
    for _ in range(200):
        k = rng.randint(1, 7)
        m = nm.FiniteMagma([[rng.randrange(k) for _ in range(k)] for _ in range(k)])
        want = [mem for r in range(1, k + 1) for mem in combinations(range(k), r)
                if all(m.table[x][y] in mem for x in mem for y in mem)]
        got = nm.enumerate_closed_subsets(m, include_full=True)
        assert [s.members for s in got] == sorted(want), m.table


def bfs_closed_lattice(m):
    """Every nonempty closed subset, by the breadth-first lattice search:
    from the empty set, closure(C | {x}) for every closed set C found and
    every x outside it, with a seen-set.  Every nonempty closed set is the
    closure of a chain of its own elements, so each one is reached."""
    t = m.table

    def close(members, x):
        s = set(members)
        s.add(x)
        work = [x]
        while work:
            a = work.pop()
            for b in list(s):
                for v in (t[a][b], t[b][a]):
                    if v not in s:
                        s.add(v)
                        work.append(v)
        return frozenset(s)

    seen = set()
    queue = [frozenset()]
    for c in queue:
        for x in range(m.order):
            if x not in c:
                d = close(c, x)
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
    return sorted(tuple(sorted(d)) for d in seen)


def lattice(m):
    found = nm.enumerate_closed_subsets(m, include_full=True)
    return [s.members for s in found]


@pytest.mark.parametrize("build", [
    lambda: nm.direct_product(nm.zn_line_neutro(3), nm.zn_line_neutro(3)),
    lambda: nm.zn_line_neutro(15),
    lambda: nm.symmetric_semigroup(3),
    lambda: nm.alternating(5),
    lambda: nm.zn_affine_neutro(8, 3, 5),
], ids=["zn_line_neutro(3)^2", "zn_line_neutro(15)", "symmetric_semigroup(3)",
        "alternating(5)", "zn_affine_neutro(8,3,5)"])
def test_closed_lattice_against_breadth_first_search(build):
    m = build()
    assert lattice(m) == bfs_closed_lattice(m)


def compare_random_lattices(n_tables):
    """Compare the lattice with the breadth-first search on n_tables seeded
    random tables of orders 8-12, whose products fall in a small image set,
    or half the time in {x, y} plus that set: many closed subsets, and (in
    the second kind) many failed canonicity tests inherited down the search
    tree.  Returns the number of closed sets compared."""
    rng = random.Random(SEED + 17)
    total = 0
    for i in range(n_tables):
        k = rng.randint(8, 12)
        image = rng.sample(range(k), rng.randint(1, 3))
        if i % 2:
            table = [[rng.choice((x, y, x, y, rng.choice(image))) for y in range(k)]
                     for x in range(k)]
        else:
            table = [[rng.choice(image) for _ in range(k)] for _ in range(k)]
        m = nm.FiniteMagma(table)
        want = bfs_closed_lattice(m)
        assert lattice(m) == want, m.table
        total += len(want)
    return total


def test_closed_lattice_against_breadth_first_search_on_random_tables():
    assert compare_random_lattices(40) > 10_000


def test_closed_lattice_against_breadth_first_search_on_each_closure_form():
    # seeded semigroups, commutative or not, and commutative tables of
    # orders 8-12 whose products fall in {x, y} plus a small image set: the
    # lattice closes over generators on a semigroup and takes one side on a
    # commutative carrier.  A random ground set cuts each lattice, as the
    # species walks do
    rng = random.Random(SEED + 29)
    forms = {}
    tables = semigroup_tables(rng, 90)
    for _ in range(20):
        k = rng.randint(8, 12)
        image = rng.sample(range(k), rng.randint(1, 3))
        t = [[0] * k for _ in range(k)]
        for x in range(k):
            for y in range(x, k):
                t[x][y] = t[y][x] = rng.choice((x, y, x, y, rng.choice(image)))
        tables.append(t)
    for table in tables:
        m = nm.FiniteMagma(table)
        basic = nm.classify_basic(m)
        form = (basic.is_semigroup, basic.is_commutative)
        forms[form] = forms.get(form, 0) + 1
        want = bfs_closed_lattice(m)
        assert lattice(m) == want, m.table
        ground = rng.getrandbits(m.order)
        assert nm.magma._closed_lattice(m, ground) == [
            c for c in want if all(ground >> v & 1 for v in c)], m.table
    assert min(forms.get(f, 0) for f in ((True, False), (True, True), (False, True))) >= 10, forms


def oracle_closure(t, members):
    """Least closed superset of members, by products until a fixed point."""
    s = set(members)
    while True:
        more = {t[a][b] for a in s for b in s} - s
        if not more:
            return s
        s |= more


def cut_closure_cuts(t, c, x, stops, gens=None, sided=True):
    """Check _close(t, C, (x,), stop, gens, sided) against the whole closure
    of C | {x} for each stop; returns how many of them it cut short."""
    mask = sum(1 << v for v in c)
    full = sum(1 << v for v in oracle_closure(t, c + [x]))
    cuts = 0
    for stop in stops:
        d, members = nm.magma._close(t, mask, c, (x,), stop, gens, sided)
        assert d == sum(1 << v for v in set(members)) and len(members) == len(set(members))
        assert d & full == d and mask | 1 << x == (mask | 1 << x) & d
        assert bool(d & stop) == bool(full & stop)
        if not full & stop:
            assert d == full
        cuts += d != full
    return cuts


def symmetric_table(rng, k):
    """A random commutative table of order k."""
    t = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            t[a][b] = t[b][a] = rng.randrange(k)
    return t


def semigroup_tables(rng, count):
    """count seeded semigroups of order <= 20, each relabelled at random, of
    three kinds in turn: subsemigroups of symmetric_semigroup(3) generated by
    2-3 random maps, mostly not commutative; subsemigroups of a product of
    two zmod_mult generated by 2-4 random elements; min or gcd semilattices.
    The last two kinds are commutative."""
    s3 = nm.symmetric_semigroup(3)
    out = []
    for i in range(count):
        if i % 3 < 2:
            g = ()
            while not 2 <= len(g) <= 20:
                p = s3 if i % 3 == 0 else nm.direct_product(
                    nm.zmod_mult(rng.randint(2, 8)), nm.zmod_mult(rng.randint(2, 8)))
                g = nm.generated_closure(p, rng.sample(range(p.order), rng.randint(2, 3 + i % 3)))
            table = nm.submagma(p, g.members).table
        elif rng.random() < 0.5:
            k = rng.randint(2, 12)
            table = [[min(a, b) for b in range(k)] for a in range(k)]
        else:
            nums = set(rng.sample(range(1, 200), rng.randint(2, 6)))
            while more := {gcd(a, b) for a in nums for b in nums} - nums:
                nums |= more
            nums = sorted(nums)
            table = [[nums.index(gcd(a, b)) for b in nums] for a in nums]
        out.append(relabelled(table, rng))
    return out


def test_cut_closure_against_full_closure():
    # _close(..., stop) may return a part of the closure, but it must hold a
    # stop bit exactly when the whole closure does, and it is the whole
    # closure whenever the closure holds no stop bit (stop = 0 included).
    # Each form is checked where it applies: both sides over every member on
    # any table; one side on commutative tables; over the generators of C
    # (gens) on semigroups, and on one side too on commutative ones
    rng = random.Random(SEED + 23)
    cuts = {"both sides": 0, "one side": 0, "gens": 0, "gens, one side": 0}

    def case(t, gen_count):
        k = len(t)
        gens = rng.sample(range(k), rng.randint(0, min(gen_count, k)))
        c = sorted(oracle_closure(t, gens))
        outside = [x for x in range(k) if x not in c]
        if not outside:
            return None
        mask = sum(1 << v for v in c)
        return gens, c, rng.choice(outside), (0, rng.getrandbits(k), rng.getrandbits(k) & ~mask)

    for _ in range(400):
        k = rng.randint(1, 12)
        t = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
        drawn = case(t, 2)
        if drawn:
            _, c, x, stops = drawn
            cuts["both sides"] += cut_closure_cuts(t, c, x, stops)
            mask = sum(1 << v for v in c)
            assert nm.magma._close(t, mask, c, (x,)) == nm.magma._close(t, mask, c, (x,), 0)
    for _ in range(300):
        t = symmetric_table(rng, rng.randint(1, 12))
        drawn = case(t, 2)
        if drawn:
            _, c, x, stops = drawn
            cuts["one side"] += cut_closure_cuts(t, c, x, stops, sided=False)
    for t in semigroup_tables(rng, 600):
        drawn = case(t, 3)
        if drawn:
            gens, c, x, stops = drawn
            cuts["gens"] += cut_closure_cuts(t, c, x, stops, tuple(gens))
            if all(t[a][b] == t[b][a] for a in range(len(t)) for b in range(a)):
                cuts["gens, one side"] += cut_closure_cuts(t, c, x, stops, tuple(gens), False)
    assert cuts["both sides"] > 100 and min(cuts.values()) > 50, cuts


def test_random_lattices_take_cut_closures_and_inherited_skips(monkeypatch):
    # run the breadth-first comparison on 60 random tables above with _close
    # wrapped: record every closure the lattice asks for, then rebuild the
    # FCbO tree from the canonical ones (a node reached by adding x scans
    # from x + 1) to count the pairs (C, x) it skipped.  A skipped pair is
    # put down to the product pre-check when x*w or w*x (w = y - 1, the
    # element that made C) falls in the canonicity stop set, and to an
    # inherited failure otherwise, so the inherited count is a lower bound
    # that no pre-check skip can make up.  60 tables, not the 40 of the
    # plain comparison, since the pre-check leaves fewer closures to cut
    close = nm.magma._close
    calls = []

    def recorded(t, mask, members, new, stop=0, gens=None, sided=True):
        d, d_members = close(t, mask, members, new, stop, gens, sided)
        calls.append((t, mask, new[0], d, stop, close(t, mask, members, new)[0]))
        return d, d_members

    monkeypatch.setattr(nm.magma, "_close", recorded)
    compare_random_lattices(60)
    cut = inherited = prechecked = 0
    scans = {}      # (table, node mask) -> (first x scanned, every x closed)
    for t, mask, x, d, stop, full in calls:
        scans.setdefault((id(t), 0), [0, set()])
        scans.setdefault((id(t), mask), [None, set()])[1].add(x)
        cut += d != full
        if not d & stop:        # canonical: d is a node that scans from x + 1
            scans.setdefault((id(t), d), [None, set()])[0] = x + 1
    tables = {id(t): t for t, *_ in calls}
    for (tid, mask), (y, closed) in scans.items():
        t = tables[tid]
        wanted = {x for x in range(y, len(t)) if not mask >> x & 1}
        assert closed <= wanted
        for x in wanted - closed:
            stop = ((1 << x) - 1) & ~mask
            if y and (stop >> t[x][y - 1] & 1 or stop >> t[y - 1][x] & 1):
                prechecked += 1
            else:
                inherited += 1
    assert cut > 100 and inherited > 1000 and prechecked > 1000, (cut, inherited, prechecked)


def test_isomorphism_finds_random_relabelings():
    # a copy relabelled by a random permutation pi has table
    # copy[pi(x)][pi(y)] = pi(x*y); the map found must be a bijective
    # homomorphism onto it
    rng = random.Random(SEED + 19)
    for _ in range(300):
        k = rng.randint(1, 7)
        table = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.5:      # an identity row/column pins the search
            e = rng.randrange(k)
            for x in range(k):
                table[e][x] = x
                table[x][e] = x
        pi = list(range(k))
        rng.shuffle(pi)
        copy = [[0] * k for _ in range(k)]
        for x in range(k):
            for y in range(k):
                copy[pi[x]][pi[y]] = pi[table[x][y]]
        m, c = nm.FiniteMagma(table), nm.FiniteMagma(copy)
        phi = nm.is_isomorphic(m, c)
        assert phi is not None, table
        assert sorted(phi) == list(range(k))
        assert nm.check_homomorphism(nm.PartialMap(m, c, tuple(enumerate(phi))))


def oracle_isomorphism(m1, m2):
    # the first permutation in lexicographic order that preserves the table
    k = m1.order
    t1, t2 = m1.table, m2.table
    for p in permutations(range(k)):
        if all(p[t1[x][y]] == t2[p[x]][p[y]] for x in range(k) for y in range(k)):
            return list(p)
    return None


def oracle_homomorphic_bijection(m1, m2):
    # the first permutation in lexicographic order that check_homomorphism
    # accepts, neutrosophic-identity clause included
    for p in permutations(range(m1.order)):
        if nm.check_homomorphism(nm.PartialMap(m1, m2, tuple(enumerate(p)))):
            return list(p)
    return None


def with_neutro_identity(table, rng):
    # a random neutrosophic identity, or none, over a random mask
    k = len(table)
    mask = [rng.random() < 0.5 for _ in range(k)]
    n = rng.choice([None] + list(range(k)))
    if n is not None:
        mask[n] = True
    return nm.FiniteMagma(table, neutro_mask=mask, neutro_identity=n)


def test_isomorphism_is_first_preserving_permutation():
    # relabelled copies, some with one entry changed, against the
    # permutation scan, in both directions
    rng = random.Random(SEED + 23)
    nrng = random.Random(SEED + 24)
    found = 0
    for _ in range(300):
        k = rng.randint(1, 6)
        table = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.5:
            e = rng.randrange(k)
            for x in range(k):
                table[e][x] = x
                table[x][e] = x
        pi = list(range(k))
        rng.shuffle(pi)
        copy = [[0] * k for _ in range(k)]
        for x in range(k):
            for y in range(k):
                copy[pi[x]][pi[y]] = pi[table[x][y]]
        if k > 1 and rng.random() < 0.3:
            x, y = rng.randrange(k), rng.randrange(k)
            copy[x][y] = rng.choice([v for v in range(k) if v != copy[x][y]])
        m, c = nm.FiniteMagma(table), nm.FiniteMagma(copy)
        want = oracle_isomorphism(m, c)
        assert nm.is_isomorphic(m, c) == want, (table, copy)
        assert nm.is_isomorphic(c, m) == oracle_isomorphism(c, m), (table, copy)
        assert (nm.is_isomorphic(c, m) is None) == (want is None)
        found += want is not None
        # with neutrosophic identities: the first bijection that
        # check_homomorphism accepts
        mn, cn = with_neutro_identity(table, nrng), with_neutro_identity(copy, nrng)
        assert nm.is_isomorphic(mn, cn) == oracle_homomorphic_bijection(mn, cn), \
            (table, copy, mn.neutro_identity, cn.neutro_identity)
        assert nm.is_isomorphic(cn, mn) == oracle_homomorphic_bijection(cn, mn)
    assert 150 < found < 300


def test_ideals_against_definition():
    for m in MAGMAS:
        for mem in oracle_closed_subsets(m):
            s = nm.Subset(m, mem)
            for side in ("left", "right", "two_sided"):
                assert nm.is_ideal(m, s, side) == oracle_is_ideal(m, mem, side)


def relabelled(table, rng):
    """The table under a random permutation of its elements."""
    k = len(table)
    perm = list(range(k))
    rng.shuffle(perm)
    out = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def law_tables(rng):
    """Random tables and relabelled cyclic groups, then relabelled
    associative carriers that are not commutative or not groups."""
    for i in range(400):
        k = rng.randint(1, 7)
        if i % 4 == 0:
            yield relabelled([[(a + b) % k for b in range(k)] for a in range(k)], rng)
        else:
            yield [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
    semigroups = [nm.symmetric_group(3), nm.symmetric_semigroup(2),
                  nm.direct_product(nm.symmetric_semigroup(2), nm.cyclic(2))]
    for m in semigroups + [nm.zmod_mult(k) for k in range(1, 8)]:
        yield relabelled(m.table, rng)


def test_laws_against_triple_loops():
    # (holds, witness) of every equational law, over the whole carrier and
    # over a random domain
    rng = random.Random(SEED + 13)
    for table in law_tables(rng):
        m = nm.FiniteMagma(table)
        k = m.order
        sub = nm.Subset(m, rng.sample(range(k), rng.randint(0, k)))
        for domain, dom in ((None, range(k)), (sub, sub.members)):
            for law in EQUATIONAL_LAWS:
                want = oracle_law(m, law, dom)
                got = nm.check_identity_law(m, law, domain=domain)
                assert (got.holds, got.witness) == (want is None, want), \
                    (table, law, dom)


def text_term(text):
    """One side of a law text as a nested pair of factors, by recursion on
    its top-level factors, each a letter or a bracketed side."""
    factors, i = [], 0
    while i < len(text):
        j = i + 1
        if text[i] == "(":
            depth = 1
            while depth:
                depth += {"(": 1, ")": -1}.get(text[j], 0)
                j += 1
            factors.append(text_term(text[i + 1:j - 1]))
        else:
            factors.append(text[i])
        i = j
    assert len(factors) in (1, 2), text
    return factors[0] if len(factors) == 1 else tuple(factors)


def text_value(term, t, env):
    if type(term) is str:
        return env[term]
    return t[text_value(term[0], t, env)][text_value(term[1], t, env)]


def oracle_text_law(m, text, dom):
    """The first failing tuple over dom in lexicographic order, its
    variables in order of first appearance in the text, or None."""
    lhs, rhs = (text_term(side.strip()) for side in text.split("="))
    names = list(dict.fromkeys(c for c in text if c.isalpha()))
    for values in product(dom, repeat=len(names)):
        env = dict(zip(names, values))
        if text_value(lhs, m.table, env) != text_value(rhs, m.table, env):
            return values
    return None


# four variables; the vector variable y in the middle (z occurs twice on each
# side); no variable occurring at most once on each side
OTHER_LAW_TEXTS = ["((xy)z)w = x(y(zw))", "(xy)(zz) = x(y(zz))", "(xx)(yy) = (yy)(xx)"]


def test_law_texts_against_recursive_evaluator():
    # the compiled scan of every law text against a recursive evaluation of
    # the same text, over the whole carrier and over a half-size domain
    laws = [(text, law) for law, text in magma._LAW_TEXTS.items()]
    laws += [(text, magma._compile(text)) for text in OTHER_LAW_TEXTS]
    assert len(laws) == 14
    assert [magma._compile(text)[1:3] for text in OTHER_LAW_TEXTS] == [(3, 3), (1, 2), (1, 1)]
    rng = random.Random(SEED + 19)
    holds = dict.fromkeys((text for text, _ in laws), 0)
    for i in range(300):
        k = rng.randint(1, 7)
        if i % 4 == 0:
            table = relabelled([[(a + b) % k for b in range(k)] for a in range(k)], rng)
        else:
            table = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
        m = nm.FiniteMagma(table)
        half = tuple(sorted(rng.sample(range(k), (k + 1) // 2)))
        for dom in (range(k), half):
            for text, law in laws:
                want = oracle_text_law(m, text, dom)
                assert magma._law_failure(m, law, dom) == want, (table, text, dom)
                holds[text] += want is None
    # every law both holds and fails somewhere
    assert all(0 < n < 600 for n in holds.values()), holds


def test_malformed_law_texts_are_refused():
    for text in ("xyz = x", "(xy = x", "x)(y = x", "xy", "x = y = z", "X = x",
                 "() = x", "x(yz)) = x", "x+y = x"):
        with pytest.raises(nm.ParameterError):
            magma._compile(text)


def test_bracketing_laws_derived_from_texts():
    assert magma._BRACKETING_LAWS == {
        Law.ASSOCIATIVE, Law.MOUFANG1, Law.MOUFANG2, Law.MOUFANG3, Law.BOL,
        Law.BRUCK_IDENTITY, Law.WIP, Law.LEFT_ALTERNATIVE, Law.RIGHT_ALTERNATIVE,
        Law.P_GROUPOID}


def oracle_inverse(m, x):
    """The first y with xy = yx = e, or None."""
    e, t = m.identity, m.table
    return next((y for y in range(m.order) if t[x][y] == e and t[y][x] == e), None)


def oracle_inverse_law(m, law, dom):
    """(holds, first witness in lexicographic order) of WIP or BRUCK_INVERSE
    over dom, on a carrier with an identity, or the message of the
    PreconditionError: a domain member
    without an inverse, or for BRUCK_INVERSE the first pair whose product
    has none, unless an earlier pair fails the law."""
    e, t = m.identity, m.table
    inv = {x: oracle_inverse(m, x) for x in range(m.order)}
    for x in dom:
        if inv[x] is None:
            return f"element {m.labels[x]} has no two-sided inverse"
    if law is Law.WIP:
        for x, y, z in product(dom, repeat=3):
            if t[t[x][y]][z] == e and t[x][t[y][z]] != e:
                return False, (x, y, z)
        return True, None
    for x, y in product(dom, repeat=2):
        p = t[x][y]
        if inv[p] is None:
            return f"element {m.labels[p]} has no two-sided inverse"
        if inv[p] != t[inv[x]][inv[y]]:
            return False, (x, y)
    return True, None


def inverse_law_answer(m, law, domain):
    try:
        got = nm.check_identity_law(m, law, domain=domain)
    except nm.PreconditionError as exc:
        return str(exc)
    return got.holds, got.witness


def identity_tables(rng):
    """Random tables with identity 0, each other element given a chance of
    a two-sided inverse, so products of invertible elements may have none."""
    for _ in range(300):
        k = rng.randint(2, 6)
        t = [[x if y == 0 else y if x == 0 else rng.randrange(k) for y in range(k)]
             for x in range(k)]
        for x in range(1, k):
            if rng.random() < 0.6:
                y = rng.randrange(1, k)
                t[x][y] = t[y][x] = 0
        yield t


def test_inverse_laws_against_definition():
    # WIP and BRUCK_INVERSE, on the whole carrier and on a seeded domain:
    # the law pool's carriers with an identity, family loops, relabelled
    # groups, random loops and random tables with identity
    rng = random.Random(SEED + 17)
    groups = [nm.FiniteMagma(relabelled(g.table, rng))
              for g in (nm.symmetric_group(3), nm.dihedral(4))]
    pool = [nm.FiniteMagma(t) for t in law_tables(random.Random(SEED + 13))]
    pool = [m for m in pool if m.identity is not None]
    pool += [nm.ln(5, 2), nm.ln(7, 3)] + groups
    pool += [nm.FiniteMagma(random_loop_table(rng, rng.randint(2, 6))) for _ in range(100)]
    pool += [nm.FiniteMagma(t) for t in identity_tables(rng)]
    # 1 and 2 are their own inverses, 1*2 = 3 has none and (0, 1, 2) is no
    # semigroup: (1*1)*2 = 2, 1*(1*2) = 3
    pool.append(nm.FiniteMagma([[0, 1, 2, 3], [1, 0, 3, 3], [2, 3, 0, 3], [3, 3, 3, 3]]))
    outcomes = dict.fromkeys(("holds", "fails", "fails first", "product", "domain member"), 0)
    for m in pool:
        invertible = [x for x in range(m.order) if oracle_inverse(m, x) is not None]
        members = invertible if invertible and rng.random() < 0.7 else range(m.order)
        sub = nm.Subset(m, rng.sample(members, rng.randint(1, len(members))))
        for domain, dom in ((None, range(m.order)), (sub, sub.members)):
            for law in (Law.WIP, Law.BRUCK_INVERSE):
                want = oracle_inverse_law(m, law, dom)
                assert inverse_law_answer(m, law, domain) == want, (m.table, law, dom)
            outcomes[bruck_outcome(m, dom, want)] += 1
    assert min(outcomes.values()) > 0, outcomes


def bruck_outcome(m, dom, want):
    """Which way the BRUCK_INVERSE answer want on dom was reached; "fails
    first" when a later pair's product has no inverse."""
    if type(want) is str:
        return "domain member" if any(oracle_inverse(m, x) is None for x in dom) else "product"
    if want[0]:
        return "holds"
    t = m.table
    later = any(oracle_inverse(m, t[x][y]) is None for x, y in product(dom, repeat=2))
    return "fails first" if later else "fails"


def test_bracketing_laws_answered_from_associativity(monkeypatch):
    # on a semigroup the ten laws that rebracket one word run no scan; the
    # other three each fail on S3 or Z2, so none of them may join the ten
    from neutromagma import magma
    s3, z2 = nm.symmetric_group(3), nm.cyclic(2)
    carriers = [s3, z2, nm.symmetric_semigroup(2), nm.zmod_mult(6)]
    for m in carriers:
        assert nm.classify_basic(m).is_semigroup    # its own scan, made once
    scans = []
    law_failure = magma._law_failure

    def counting(m, law, dom):
        scans.append(law)
        return law_failure(m, law, dom)

    monkeypatch.setattr(magma, "_law_failure", counting)
    others = {Law.COMMUTATIVE, Law.IDEMPOTENT, Law.BRUCK_INVERSE}
    for m in carriers:
        for domain in (None, nm.Subset(m, range(0, m.order, 2))):
            for law in set(Law) - others:
                if law is Law.WIP and not nm.classify_basic(m).is_group:
                    with pytest.raises(nm.PreconditionError):
                        nm.check_identity_law(m, law, domain=domain)
                    continue
                assert nm.check_identity_law(m, law, domain=domain) == \
                    nm.LawResult(True, None)
    assert scans == []
    assert not nm.check_identity_law(s3, Law.COMMUTATIVE).holds
    assert not nm.check_identity_law(z2, Law.IDEMPOTENT).holds
    assert not nm.check_identity_law(s3, Law.BRUCK_INVERSE).holds
    assert scans == [Law.COMMUTATIVE, Law.IDEMPOTENT]


# ---------------------------------------------------------------------------
# the associativity verdict on closed domains (Light's test)

def closed_domains(table):
    """Every nonempty closed subset of the table, the whole carrier included."""
    k = len(table)
    for r in range(1, k + 1):
        for mem in combinations(range(k), r):
            s = set(mem)
            if all(table[x][y] in s for x in mem for y in mem):
                yield mem


def band_and_null_tables():
    """Left-zero and right-zero bands (xy = x, xy = y), rectangular bands
    I x J with (i, j)(k, l) = (i, l), and null semigroups (every product 0),
    where every nonzero element is a generator."""
    for k in range(1, 6):
        yield [[x] * k for x in range(k)]
        yield [list(range(k)) for _ in range(k)]
    for i, j in product(range(1, 4), repeat=2):
        cells = list(product(range(i), range(j)))
        yield [[cells.index((a[0], b[1])) for b in cells] for a in cells]
    for k in range(1, 8):
        yield [[0] * k for _ in range(k)]


def product_table(a, b):
    """The componentwise product of two tables, (x1, x2) at x1 * len(b) + x2."""
    kb = len(b)
    return [[a[x1][y1] * kb + b[x2][y2] for y1 in range(len(a)) for y2 in range(kb)]
            for x1 in range(len(a)) for x2 in range(kb)]


def light_tables(rng):
    """Random tables of order <= 7, then built semigroups, each relabelled:
    cyclic groups, zmod_mult, bands, null semigroups, random transformation
    semigroups and direct products of pairs of them of order <= 9."""
    for _ in range(3000):
        k = rng.randint(1, 7)
        yield [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
    small = [nm.cyclic(k).table for k in range(1, 8)]
    small += [nm.zmod_mult(k).table for k in range(1, 8)]
    small += list(band_and_null_tables())
    small += [random_semigroup_table(rng) for _ in range(400)]
    for table in small:
        yield relabelled(table, rng)
    for _ in range(300):
        a, b = rng.sample([t for t in small if 2 <= len(t) <= 4], 2)
        if len(a) * len(b) <= 9:
            yield relabelled(product_table(a, b), rng)


def test_light_associativity_against_triple_loop():
    # on the whole carrier and on every closed subset
    rng = random.Random(SEED + 17)
    verdicts = {True: 0, False: 0}
    semigroups = 0
    for table in light_tables(rng):
        m = nm.FiniteMagma(table)
        t = m.table
        semigroup = nm.classify_basic(m).is_semigroup
        assert semigroup is (oracle_law(m, Law.ASSOCIATIVE, range(m.order)) is None), table
        semigroups += semigroup
        for mem in closed_domains(t):
            want = all(t[t[x][y]][z] == t[x][t[y][z]] for x in mem for y in mem for z in mem)
            dom = range(m.order) if len(mem) == m.order else mem
            assert nm.magma._light_associative(m, dom) is want, (table, mem)
            verdicts[want] += 1
    assert verdicts[True] > 12000 and verdicts[False] > 2500 and semigroups > 1200, \
        (verdicts, semigroups)


def test_normality_against_definition():
    for m in MAGMAS:
        for mem in oracle_closed_subsets(m):
            s = nm.Subset(m, mem)
            assert nm.is_normal(m, s, "subloop") == oracle_normal_subloop(m, mem)


def oracle_normal_conjugation(m, mem):
    """The classical rule for a group carrier: gHg^-1 = H for every g."""
    t, e, rng = m.table, m.identity, range(m.order)
    inv = {g: next(y for y in rng if t[g][y] == e == t[y][g]) for g in rng}
    return all({t[t[g][v]][inv[g]] for v in mem} == set(mem) for g in rng)


NORMALITY_CARRIERS = {
    "symmetric_group(3)": lambda: nm.symmetric_group(3),
    "symmetric_group(4)": lambda: nm.symmetric_group(4),
    "alternating(4)": lambda: nm.alternating(4),
    "dihedral(4)": lambda: nm.dihedral(4),
    "dihedral(5)": lambda: nm.dihedral(5),
    "cyclic(6)": lambda: nm.cyclic(6),
    "zmod_mult(12)": lambda: nm.zmod_mult(12),
    "symmetric_semigroup(2)": lambda: nm.symmetric_semigroup(2),
    "zn_full_neutro(3)": lambda: nm.zn_full_neutro(3),
    "ln(5, 2)": lambda: nm.ln(5, 2),
    "ln(7, 3)": lambda: nm.ln(7, 3),
    "zn(5, 2, 3)": lambda: nm.zn(5, 2, 3),
    "zn(8, 3, 5)": lambda: nm.zn(8, 3, 5),
}


@pytest.mark.parametrize("build", NORMALITY_CARRIERS.values(), ids=NORMALITY_CARRIERS)
def test_normality_modes_against_conjugation_and_full_scan(build):
    # subloop mode quantifies over the carrier, subgroupoid mode over the
    # subset; subgroup mode is subloop mode on a group carrier, where it
    # agrees with the conjugation rule
    m = build()
    group = nm.classify_basic(m).is_group
    for s in nm.enumerate_closed_subsets(m, include_full=True):
        mem = s.members
        over_carrier = oracle_normal_subloop(m, mem)
        assert nm.is_normal(m, s, "subloop") == over_carrier
        assert nm.is_normal(m, s, "subgroupoid") == oracle_normal_subloop(m, mem, mem)
        if group:
            assert nm.is_normal(m, s, "subgroup") == over_carrier \
                == oracle_normal_conjugation(m, mem)
        else:
            with pytest.raises(nm.PreconditionError, match="group carrier"):
                nm.is_normal(m, s, "subgroup")


def test_commutant_is_center():
    carriers = [build() for build in NORMALITY_CARRIERS.values()] + MAGMAS
    for m in carriers:
        if m.identity is not None:
            assert nm.nuclei(m).commutant == nm.center(m)


def oracle_neutro_loop(m):
    """The neutrosophic-loop kind as a loop test on the induced magma of
    the real part."""
    reals = [i for i in range(m.order) if not m.neutro_mask[i]]
    if not m.has_neutro() or not reals:
        return False
    try:
        return nm.classify_basic(nm.submagma(m, reals)).is_loop
    except nm.PreconditionError:
        return False


def test_neutro_loop_kind_against_induced_magma():
    from neutromagma.classify import _neutro_loop
    from test_kind_truth_table import CARRIERS
    for build in CARRIERS.values():
        m = build()
        assert _neutro_loop(m) == oracle_neutro_loop(m)
    # a real part of one element is a trivial loop exactly when idempotent
    mask = [False, True]
    assert _neutro_loop(nm.FiniteMagma([[0, 1], [1, 1]], neutro_mask=mask))
    assert not _neutro_loop(nm.FiniteMagma([[1, 1], [1, 1]], neutro_mask=mask))
    rng = random.Random(SEED)
    for m in MAGMAS:
        mask = [rng.random() < 0.4 for _ in range(m.order)]
        r = nm.FiniteMagma(m.table, neutro_mask=mask)
        assert _neutro_loop(r) == oracle_neutro_loop(r)


def oracle_identities(m, mem):
    s = set(mem)
    t = m.table
    return [e for e in sorted(s) if all(t[e][x] == x and t[x][e] == x for x in s)]


def oracle_group(m, mem):
    """Closed, an identity, two-sided inverses and associativity, each
    checked as written, of at least two elements."""
    s = set(mem)
    t = m.table
    if len(s) < 2 or not all(t[x][y] in s for x in s for y in s):
        return False
    es = oracle_identities(m, mem)
    if not es:
        return False
    e = es[0]
    if not all(any(t[x][y] == e and t[y][x] == e for y in s) for x in s):
        return False
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in s for y in s for z in s)


def oracle_loop(m, mem):
    """An identity in s, and every row and column restricted to s a
    permutation of s, of at least two elements; closure is not asked."""
    s = set(mem)
    t = m.table
    return (len(s) >= 2 and bool(oracle_identities(m, mem))
            and all(sorted(t[x][y] for y in s) == sorted(s)
                    and sorted(t[y][x] for y in s) == sorted(s) for x in s))


def test_group_subsets_against_definition():
    def oracle_associativity_failure(m, mem):
        t = m.table
        for x in mem:
            for y in mem:
                for z in mem:
                    if t[t[x][y]][z] != t[x][t[y][z]]:
                        return (x, y, z)
        return None

    for m in MAGMAS:
        for r in range(1, m.order + 1):
            for mem in combinations(range(m.order), r):
                s = nm.Subset(m, mem)
                assert nm.subset_is_group(s) == oracle_group(m, mem)
                assert nm.subset_is_loop(s) == oracle_loop(m, mem)
                closed = all(m.table[x][y] in mem for x in mem for y in mem)
                failure = oracle_associativity_failure(m, mem)
                assert nm.subset_is_semigroup(s) == (r >= 2 and closed and failure is None)
                law = nm.check_identity_law(m, Law.ASSOCIATIVE, domain=s)
                assert (law.holds, law.witness) == (failure is None, failure)
    # random tables hold few loops that are not groups; these loops hold many
    loops = 0
    for m in (nm.ln(5, 2), nm.ln(7, 3), nm.zn(5, 2, 3)):
        for r in range(1, m.order + 1):
            for mem in combinations(range(m.order), r):
                s = nm.Subset(m, mem)
                assert nm.subset_is_loop(s) == oracle_loop(m, mem)
                assert nm.subset_is_group(s) == oracle_group(m, mem)
                loops += oracle_loop(m, mem) and not oracle_group(m, mem)
    assert loops > 0


def test_closed_subloop_shortcut_against_latin_scan():
    # a closed set of two or more elements in a loop carrier is a subloop;
    # the scan it replaces must agree on every closed set
    from math import gcd
    from neutromagma.magma import _closed_lattice, _is_latin
    carriers = [nm.ln(n, m) for n in range(5, 16, 2) for m in range(2, n)
                if gcd(m, n) == gcd(m - 1, n) == 1]
    rng = random.Random(SEED + 31)
    carriers += [nm.FiniteMagma(random_loop_table(rng, rng.randint(1, 7)))
                 for _ in range(60)]
    checked = 0
    for m in carriers:
        assert nm.classify_basic(m).is_loop
        for mem in _closed_lattice(m):
            s = nm.Subset(m, mem)
            scan = (len(mem) >= 2 and nm.local_identity(s) is not None
                    and _is_latin(m, mem))
            assert nm.subset_is_loop(nm.Subset._of_closed(m, mem)) == scan, (m.table, mem)
            assert scan == oracle_loop(m, mem)
            checked += 1
    assert checked > 500, checked


def scan_real_subgroup(s):
    """The 2^r scan that has_real_subgroup replaced: every subset of the
    real part of size >= 2, tested as a group."""
    reals = nm.real_part(s)
    return any(oracle_group(s.parent, cand)
               for size in range(2, len(reals) + 1)
               for cand in combinations(reals, size))


def test_real_subgroup_against_subset_scan():
    # random tables of order <= 6 with random neutrosophic masks, every subset
    rng = random.Random(SEED + 11)
    positives = 0
    for _ in range(3000):
        k = rng.randint(1, 6)
        table = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.5:      # an identity row/column makes groups likelier
            e = rng.randrange(k)
            for x in range(k):
                table[e][x] = x
                table[x][e] = x
        mask = [rng.random() < 0.3 for _ in range(k)]
        m = nm.FiniteMagma(table, neutro_mask=mask)
        for r in range(1, k + 1):
            for mem in combinations(range(k), r):
                s = nm.Subset(m, mem)
                want = scan_real_subgroup(s)
                assert nm.has_real_subgroup(s) == want, (table, mask, mem)
                positives += want
                # the definitions: a closed neutrosophic set of two or more
                # elements, holding a real group (neutrosophic subgroup) or
                # with an identity and no real group (pseudo)
                base = (r >= 2 and any(mask[i] for i in mem)
                        and all(table[x][y] in mem for x in mem for y in mem))
                assert nm.is_neutrosophic_subgroup(s) == (base and want)
                assert nm.is_pseudo_neutrosophic_subgroup(s) == (
                    base and bool(oracle_identities(m, mem)) and not want)
    assert positives > 1000


DIRECTED = (nm.SubsetPredicate.IS_GROUP, nm.SubsetPredicate.IS_LOOP)


def check_directed_species(m):
    """For IS_GROUP and IS_LOOP, with include_full False and True, the answer
    on a fresh copy of m (walked per idempotent unless m is a loop) against
    m's lattice filtered by the plain callable, which walks the lattice once;
    and on a loop, the answer inside the part without the last element,
    walked per idempotent, against that part's lattice filtered the same
    way.  Returns the number of species subsets found."""
    fresh = nm.FiniteMagma(m.table)
    full = tuple(range(m.order))
    found = 0
    for pred in DIRECTED:
        keep = nm.magma.PREDICATE_REGISTRY[pred]
        want = [s.members for s in nm.enumerate_closed_subsets(m, keep, include_full=True)]
        assert [s.members for s in nm.enumerate_closed_subsets(fresh, pred, True)] == want
        proper = [mem for mem in want if mem not in (full, (m.identity,))]
        assert [s.members for s in nm.enumerate_closed_subsets(fresh, pred)] == proper
        if nm.classify_basic(m).is_loop:
            part = nm.magma._closed_lattice(m, (1 << m.order - 1) - 1)
            walked = nm.magma._species_subsets(m, pred, range(m.order - 1))
            assert [s.members for s in walked] == [
                mem for mem in part if keep(nm.Subset(m, mem))]
        found += len(want)
    assert ("closed" in fresh._subset_cache) == nm.classify_basic(m).is_loop
    return found


def oracle_semigroup_subgroups(m):
    """Every subgroup of a finite semigroup, from Green's theorem (Clifford
    and Preston I, 2.2): those with identity e are the subgroups of the
    H-class of e, the x with xS1 = eS1 and S1x = S1e, so they are found as
    closed subsets of that class taken as a carrier of its own."""
    t = m.table
    k = m.order
    right = [frozenset(t[x]) | {x} for x in range(k)]
    left = [frozenset(t[s][x] for s in range(k)) | {x} for x in range(k)]
    out = set()
    for e in range(k):
        if t[e][e] == e:
            h = [x for x in range(k) if right[x] == right[e] and left[x] == left[e]]
            for s in nm.enumerate_closed_subsets(nm.submagma(m, h), include_full=True):
                if len(s) >= 2:
                    out.add(tuple(h[i] for i in s.members))
    return sorted(out)


def corpus_carriers(monkeypatch):
    """Every distinct table the book corpus builds, from an empty carrier cache."""
    built = []
    init = nm.FiniteMagma.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(nm.FiniteMagma, "__init__", recorded)
    monkeypatch.setattr(corpus, "_CACHE", {})
    corpus.run_corpus()
    monkeypatch.undo()
    return list({m.table: m for m in built}.values())


def test_directed_species_on_corpus_carriers(monkeypatch):
    carriers = corpus_carriers(monkeypatch)
    assert len(carriers) > 50
    capped = 0
    for m in carriers:
        if nm.classify_basic(m).is_semigroup:
            fresh = nm.FiniteMagma(m.table)
            groups = nm.enumerate_closed_subsets(fresh, nm.SubsetPredicate.IS_GROUP, True)
            assert [s.members for s in groups] == oracle_semigroup_subgroups(m), m
        if m.order > 64:
            # the order-81 and order-225 residue carriers have more than
            # MAX_CLOSED_SUBSETS closed subsets, so no lattice to compare
            # with; the Green's-class oracle checked their subgroups
            capped += 1
            continue
        check_directed_species(m)
    assert capped == 2


def test_directed_species_on_atlas_members():
    found = 0
    members = [nm.ln(n, m) for n in range(5, 32, 2) for m in nm.ln_admissible(n)]
    members += [nm.zn(n, t, u) for n in range(3, 13) for t, u in nm.zn_params(n)]
    assert len(members) == 172 + 440
    for m in members:
        found += check_directed_species(m)
    assert found > 500


def test_directed_species_keeps_each_subset_once():
    # {1, 2} is a group with identity 1 inside the ground of the idempotent
    # 0, so the walk of 0 meets it too; it must be kept by the walk of 1 alone
    m = nm.FiniteMagma([[0, 1, 2, 3], [1, 1, 2, 0], [2, 2, 1, 0], [3, 0, 0, 0]])
    assert nm.magma._group_ground(m.table, 0) == [0, 1, 2, 3]
    assert check_directed_species(m) == 4
    groups = nm.enumerate_closed_subsets(m, nm.SubsetPredicate.IS_GROUP, True)
    assert [s.members for s in groups] == [(0, 3), (1, 2)]


@pytest.mark.parametrize("n", [6, 12, 20, 24, 30, 36, 48])
def test_directed_species_on_zmod_mult(n):
    m = nm.zmod_mult(n)
    assert check_directed_species(m) > 0
    groups = nm.enumerate_closed_subsets(m, nm.SubsetPredicate.IS_GROUP, True)
    assert [s.members for s in groups] == oracle_semigroup_subgroups(m)


def random_semigroup_table(rng, most=7):
    """A semigroup of order <= most by construction: the closure of one or
    two random self-maps of {0..d-1} under composition, half the time with an
    identity adjoined, relabelled at random."""
    while True:
        d = rng.randint(1, 4)
        gens = {tuple(rng.randrange(d) for _ in range(d)) for _ in range(rng.randint(1, 2))}
        maps = set(gens)
        todo = list(gens)
        while todo and len(maps) <= most:
            p = todo.pop()
            for q in list(maps):
                for r in (tuple(p[i] for i in q), tuple(q[i] for i in p)):
                    if r not in maps:
                        maps.add(r)
                        todo.append(r)
        if len(maps) <= most:
            break
    maps = sorted(maps)
    if len(maps) < most and rng.random() < 0.5:
        maps.append(None)            # the adjoined identity
    index = {p: i for i, p in enumerate(maps)}

    def compose(p, q):
        return q if p is None else p if q is None else tuple(p[i] for i in q)

    return relabelled([[index[compose(p, q)] for q in maps] for p in maps], rng)


def random_loop_table(rng, b):
    """A random loop on 0..b-1 with identity 0, by randomized backtracking."""
    t = [[i if r == 0 else r if i == 0 else None for i in range(b)] for r in range(b)]
    cells = [(r, c) for r in range(1, b) for c in range(1, b)]

    def fill(n):
        if n == len(cells):
            return True
        r, c = cells[n]
        for v in rng.sample(range(b), b):
            if v not in t[r] and all(row[c] != v for row in t):
                t[r][c] = v
                if fill(n + 1):
                    return True
                t[r][c] = None
        return False

    fill(0)
    return t


def random_magma_table(rng):
    """A random table of order <= 7, sometimes with an identity row and
    column and sometimes with a random loop of order <= 5 planted on a few
    elements (of order 5 it may be no group, or have one-sided inverses)."""
    k = rng.randint(1, 7)
    table = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
    if rng.random() < 0.3:
        e = rng.randrange(k)
        for x in range(k):
            table[e][x] = x
            table[x][e] = x
    if rng.random() < 0.5:
        block = rng.sample(range(k), rng.randint(1, min(5, k)))
        loop = random_loop_table(rng, len(block))
        for i, a in enumerate(block):
            for j, b in enumerate(block):
                table[a][b] = block[loop[i][j]]
    return table


def test_directed_species_on_random_tables():
    # 400 tables, the even draws associative by construction
    rng = random.Random(SEED + 29)
    found = semigroups = 0
    for i in range(400):
        table = random_semigroup_table(rng) if i % 2 == 0 else random_magma_table(rng)
        m = nm.FiniteMagma(table)
        semigroups += nm.classify_basic(m).is_semigroup
        found += check_directed_species(m)
    assert semigroups >= 200 and found > 250, (semigroups, found)


def test_directed_search_cap_raises_and_caches_nothing(monkeypatch):
    # zmod_mult(30) has 8 idempotents and 20 subgroups of two or more
    # elements, so a cap of 10 stops the directed search partway
    monkeypatch.setattr(nm.magma, "MAX_CLOSED_SUBSETS", 10)
    m = nm.zmod_mult(30)
    for pred in DIRECTED:
        with pytest.raises(nm.ResourceLimitError, match="more than 10 closed subsets"):
            nm.enumerate_closed_subsets(m, pred)
    assert m._subset_cache == {}
    monkeypatch.setattr(nm.magma, "MAX_CLOSED_SUBSETS", 100)
    assert len(nm.enumerate_closed_subsets(m, nm.SubsetPredicate.IS_GROUP)) == 20
    assert list(m._subset_cache) == [(nm.SubsetPredicate.IS_GROUP, False)]


# ---------------------------------------------------------------------------
# the questions about the sets around a known set, against the whole lattice
# filtered as the engines once answered them

def filtered_hyper_subsemigroup(m, best):
    """The shortest proper subsemigroup strictly above best, the first in
    lexicographic order among the shortest, from the carrier's lattice."""
    base = set(best.members)
    return min((s for s in nm.enumerate_closed_subsets(m, nm.SubsetPredicate.IS_SEMIGROUP)
                if base < set(s.members)), key=len, default=None)


def filtered_extremal_ideal(m):
    """check(s, mode) for the maximal and minimal modes: s is a plain
    neutrosophic ideal and no other one from the carrier's lattice, the full
    carrier and {identity} aside, lies strictly above / inside it.  ({e} is
    never a plain ideal of a carrier of two or more elements, since it would
    absorb x = xe.)"""
    plain = nm.neutro._plain_neutro_ideal
    found = [set(j.members) for j in nm.enumerate_closed_subsets(m, lambda x: plain(m, x))]

    def check(s, mode):
        if not plain(m, s):
            return False
        mem = set(s.members)
        if mode == "maximal":
            return not any(mem < j for j in found)
        return not any(j < mem for j in found)

    return check


def random_map_semigroups(count, seed):
    """count semigroups of order <= 24, each with a random neutrosophic mask."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        table = random_semigroup_table(rng, most=24)
        mask = [rng.random() < 0.5 for _ in table]
        out.append(nm.FiniteMagma(table, neutro_mask=mask))
    return out


def semigroups_around(monkeypatch):
    """The corpus semigroups, zmod_mult(n) for n <= 30, small residue and
    tagged carriers, and 100 random map semigroups of order <= 24."""
    out = [m for m in corpus_carriers(monkeypatch) if nm.classify_basic(m).is_semigroup]
    out += [nm.zmod_mult(n) for n in range(1, 31)]
    out += [nm.zn_full_neutro(n) for n in range(2, 5)]
    out += [nm.zn_line_neutro(n) for n in range(2, 11)]
    out += [nm.extend_tagged(nm.zmod_mult(n)) for n in range(2, 9)]
    out += random_map_semigroups(100, SEED + 31)
    return list({(m.table, m.neutro_mask): m for m in out}.values())


def test_hyper_subsemigroup_against_filtered_lattice(monkeypatch):
    compared = capped = hypers = 0
    for m in semigroups_around(monkeypatch):
        if m.order > 64:
            # the order-81 and order-225 corpus carriers have more than
            # MAX_CLOSED_SUBSETS closed subsets: no lattice to filter
            capped += 1
            continue
        rep = nm.s_hyper_and_simple(nm.FiniteMagma(m.table))
        groups = nm.enumerate_closed_subsets(m, nm.SubsetPredicate.IS_GROUP,
                                             include_full=True)
        best = max(groups, key=len, default=None)
        assert (rep.largest_group and rep.largest_group.members) == \
            (best and best.members), m
        if rep.largest_group is None or len(rep.largest_group) == m.order:
            continue
        want = filtered_hyper_subsemigroup(m, nm.Subset(m, rep.largest_group.members))
        got = rep.hyper_subsemigroup
        assert (got and got.members) == (want and want.members), m
        assert rep.s_simple is (want is None)
        compared += 1
        hypers += want is not None
    assert compared > 70 and hypers > 50 and capped == 2, (compared, hypers, capped)


def test_extremal_ideals_against_filtered_lattice(monkeypatch):
    answers = ideals = 0
    for m in semigroups_around(monkeypatch):
        if m.order > 64:
            continue            # past MAX_CLOSED_SUBSETS: no lattice to filter
        check = filtered_extremal_ideal(m)
        for s in nm.enumerate_closed_subsets(m, include_full=True):
            for mode in ("maximal", "minimal"):
                want = check(s, mode)
                assert nm.neutrosophic_ideal_check(s, mode) is want, (m, s, mode)
                answers += 1
                ideals += want
    assert answers > 10000 and ideals > 200, (answers, ideals)


def order_199_subsemigroup():
    """The subsemigroup of symmetric_semigroup(4) generated by 3144, 4431 and
    3124, as a carrier of its own."""
    s = nm.symmetric_semigroup(4)
    g = nm.generated_closure(s, [s.index(x) for x in ("3144", "4431", "3124")])
    return nm.FiniteMagma(nm.submagma(s, g.members).table)


def test_hyper_subsemigroup_past_the_lattice_cap():
    # every lattice here passes MAX_CLOSED_SUBSETS, and so does the one above
    # the largest subgroup of the order-199 carrier; the search closes that
    # group with one element at a time.  Each hyper subsemigroup is the group
    # and one element more, so it is the group with the least x that keeps
    # it closed
    sub = order_199_subsemigroup()
    assert sub.order == 199
    for m, size in ((nm.zn_full_neutro(6), 4), (nm.zn_full_neutro(16), 64),
                    (sub, 6), (nm.zmod_mult(60), 16)):
        rep = nm.s_hyper_and_simple(m)
        best = rep.largest_group.members
        assert len(best) == size and not rep.s_simple
        first = min(x for x in range(m.order) if x not in best
                    and nm.is_closed(nm.Subset(m, best + (x,))))
        assert rep.hyper_subsemigroup.members == tuple(sorted(best + (first,)))
    assert rep.hyper_subsemigroup.labels()[0] == "0"


# ---------------------------------------------------------------------------
# Sylow tuples inside a given N-subset

def sylow_size(size, p):
    """The largest power of p dividing size."""
    power = 1
    while size % p == 0:
        size //= p
        power *= p
    return power


def sylow_by_definition(comp, part, p, species):
    """The first subset of part in lexicographic order of the Sylow size that
    is closed and passes the species, evaluated on comp."""
    size = sylow_size(len(part), p)
    for c in combinations(part, size) if size > 1 else ():
        s = nm.Subset(comp, c)
        if nm.is_closed(s) and nm.magma.evaluate_predicate(species, s):
            return c
    return None


def sylow_by_copy(comp, part, p, species):
    """The same from the closed subsets of part reindexed as a carrier of its
    own: right only for a species that reads nothing but the table."""
    size = sylow_size(len(part), p)
    for s in nm.enumerate_closed_subsets(nm.submagma(comp, part), species,
                                         include_full=True):
        if size > 1 and len(s) == size:
            return tuple(part[j] for j in s.members)
    return None


TABLE_SPECIES = [nm.SubsetPredicate.IS_GROUP, nm.SubsetPredicate.IS_LOOP,
                 nm.SubsetPredicate.IS_SEMIGROUP, nm.SubsetPredicate.IS_SUBGROUPOID]
CARRIER_SPECIES = [nm.S_NEUTRO_SUBLOOP, nm.SubsetPredicate.IS_NEUTROSOPHIC_SUBGROUP,
                   nm.SubsetPredicate.IS_PSEUDO_NEUTROSOPHIC_SUBGROUP,
                   nm.NEUTRO_SUBSEMIGROUP, nm.NEUTRO_UNITAL,
                   nm.NEUTRO_UNITAL_OR_SUBGROUP, nm.GROUP_OR_S_SUBSEMIGROUP]


def test_tuple_sylow_against_definition_and_copy():
    # within's first part is a closed subset of a tagged loop or monoid; the
    # second component, cyclic(2), always serves p = 2 as a subgroupoid
    rng = random.Random(SEED + 41)
    carriers = [nm.extend_tagged(nm.ln(n, m)) for n in (5, 7, 9) for m in nm.ln_admissible(n)]
    carriers += [nm.extend_tagged(nm.zmod_mult(n)) for n in range(2, 7)]
    compared = found = 0
    for comp in carriers:
        ns = nm.build_n_structure([comp, nm.cyclic(2)], ["neutrosophic-groupoid", "group"])
        parts = [s.members for s in nm.enumerate_closed_subsets(comp, include_full=True)
                 if len(s) >= 2]
        for part in rng.sample(parts, min(len(parts), 12)):
            within = nm.NSubset(ns, [part, (0, 1)])
            for p in (2, 3):
                for species in TABLE_SPECIES + CARRIER_SPECIES:
                    rep = nm.tuple_sylow(ns, (p, 2), [species, nm.SubsetPredicate.IS_SUBGROUPOID],
                                         within=within)
                    got = rep.witness.per_component[0] if rep.found else None
                    assert got == sylow_by_definition(comp, part, p, species), (comp, part, p)
                    if species in TABLE_SPECIES:
                        assert got == sylow_by_copy(comp, part, p, species), (comp, part, p)
                    compared += 1
                    found += rep.found
    assert compared > 4000 and found > 500, (compared, found)


def ngroup_236():
    """The N-group of the book's example 2.3.6 and its N-subset T."""
    g3 = nm.direct_product(nm.zn_full_neutro(3), nm.zn_full_neutro(3))
    ns = nm.build_n_structure(
        [nm.symmetric_group(4), nm.zn_units_neutro(5), g3],
        ["group", "s-neutrosophic-group", "neutrosophic-semigroup"], "ngroup-2.3.6")
    s4, u5 = ns.components[0], ns.components[1]
    a4 = tuple(sorted(s4.index(lab) for lab in nm.alternating(4).labels))
    t = nm.NSubset(ns, [a4, u5.subset(["1", "4", "I", "4I"]).members,
                        g3.subset(["(1,1)", "(2,2)", "(1,2)", "(2,1)"]).members])
    return ns, t


def random_part(comp, rng):
    """A nonempty part of at most 12 elements: the closure of one or two
    random elements when it is that small, with a few random elements added
    half the time, or else a random subset."""
    closure = nm.generated_closure(comp, rng.sample(range(comp.order), rng.randint(1, 2)))
    part = set(closure.members) if len(closure) <= 12 else set()
    room = min(comp.order, 12) - len(part)
    if room > 0 and (not part or rng.random() < 0.5):
        part |= set(rng.sample(range(comp.order), rng.randint(1, room)))
    return tuple(sorted(part))


def test_tuple_sylow_inside_parts_of_ngroup_236():
    # against the first closed set of the Sylow size inside the part that
    # passes the species: the book's T, then seeded random parts of each
    # component, paired with cyclic(2) as in the test above
    ns, t = ngroup_236()
    book = [nm.SubsetPredicate.IS_GROUP, nm.NEUTRO_UNITAL_OR_SUBGROUP,
            nm.SubsetPredicate.IS_GROUP]
    for primes in ((3, 2, 2), (2, 2, 2)):
        rep = nm.tuple_sylow(ns, primes, book, within=t)
        assert rep.found and list(rep.witness.per_component) == [
            sylow_by_definition(comp, part, p, sp) for comp, part, p, sp
            in zip(ns.components, t.per_component, primes, book)]
    rng = random.Random(SEED + 43)
    species_pool = [nm.SubsetPredicate.IS_GROUP, nm.SubsetPredicate.IS_LOOP,
                    nm.SubsetPredicate.IS_SEMIGROUP, nm.NEUTRO_UNITAL_OR_SUBGROUP]
    compared = found = 0
    for comp in ns.components:
        pair = nm.build_n_structure([comp, nm.cyclic(2)], ["groupoid", "group"])
        for _ in range(30):
            part = random_part(comp, rng)
            within = nm.NSubset(pair, [part, (0, 1)])
            for p in (2, 3):
                for species in species_pool:
                    rep = nm.tuple_sylow(pair, (p, 2), [species, nm.SubsetPredicate.IS_GROUP],
                                         within=within)
                    got = rep.witness.per_component[0] if rep.found else None
                    assert got == sylow_by_definition(comp, part, p, species), (comp, part, p)
                    compared += 1
                    found += rep.found
    assert compared == 720 and found > 150, found
