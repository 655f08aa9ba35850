"""Table constructors against independent per-cell formulas.

Each oracle below computes every cell of a carrier from its defining
product, with no table of another carrier, and the constructor must give the
same table, labels, neutro_mask and neutro_identity.
"""

import random
from itertools import permutations, product

import pytest

import neutromagma as nm

SEED = 20260601


def carrier(m):
    return m.table, m.labels, m.neutro_mask, m.neutro_identity


def from_product(elems, mul, labels, mask=None, nid=None):
    """The (table, labels, mask, neutro_identity) of elems under mul."""
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(index[mul(x, y)] for y in elems) for x in elems)
    if mask is None:
        mask = [False] * len(elems)
    return table, tuple(labels), tuple(mask), nid


# ---------------------------------------------------------------------------
# cyclic and zmod_mult

@pytest.mark.parametrize("n", range(1, 65))
def test_cyclic_and_zmod_mult(n):
    elems = list(range(n))
    names = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    assert carrier(nm.cyclic(n)) == from_product(elems, lambda a, b: (a + b) % n, names)
    assert carrier(nm.zmod_mult(n)) == \
        from_product(elems, lambda a, b: a * b % n, [str(a) for a in elems])


# ---------------------------------------------------------------------------
# the linear groupoids and the loop family

# every (t, u) for n = 3..13, and a few at the largest orders
ZN_PARAMS = {n: [(t, u) for t in range(n) for u in range(n)] for n in range(3, 14)}
ZN_PARAMS.update({256: [(3, 5), (0, 255)], 255: [(254, 2)], 97: [(96, 0)]})


@pytest.mark.parametrize("n", sorted(ZN_PARAMS))
def test_zn(n):
    elems = list(range(n))
    for t, u in ZN_PARAMS[n]:
        assert carrier(nm.zn(n, t, u, "ztriplestar")) == \
            from_product(elems, lambda a, b: (t * a + u * b) % n, map(str, elems)), (t, u)


@pytest.mark.parametrize("n", list(range(5, 40, 2)) + [243, 253, 255])
def test_ln(n):
    ms = nm.ln_admissible(n)
    if n > 40:          # the first and last few at the largest orders
        ms = ms[:3] + ms[-3:]
    for m in ms:
        def mul(i, j):
            if i == 0 or j == 0:
                return i + j
            if i == j:
                return 0
            return (m * j - (m - 1) * i) % n or n
        assert carrier(nm.ln(n, m)) == from_product(
            range(n + 1), mul, ["e"] + [str(i) for i in range(1, n + 1)]), m


def test_dihedral():
    for n in list(range(1, 33)) + [64, 127, 128]:
        elems = [(i, j) for i in range(2) for j in range(n)]

        def mul(x, y):      # b^j a = a b^(-j)
            (i, j), (k, l) = x, y
            return (i + k) % 2, ((j if k == 0 else -j) + l) % n
        names = [("a" if i else "") + ("" if j == 0 else "b" if j == 1 else f"b^{j}")
                 for i, j in elems]
        names[0] = "e"
        assert carrier(nm.dihedral(n)) == from_product(elems, mul, names), n


# ---------------------------------------------------------------------------
# map semigroups, by tuple composition

def compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def one_line(p):
    return "".join(str(v + 1) for v in p)


def inversions(p):
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_and_alternating(n):
    perms = sorted(permutations(range(n)))
    assert carrier(nm.symmetric_group(n)) == \
        from_product(perms, compose, map(one_line, perms))
    even = [p for p in perms if inversions(p) % 2 == 0]
    assert carrier(nm.alternating(n)) == from_product(even, compose, map(one_line, even))


@pytest.mark.parametrize("n", range(1, 4))
def test_symmetric_semigroup(n):
    maps = sorted(product(range(n), repeat=n))
    assert carrier(nm.symmetric_semigroup(n)) == \
        from_product(maps, compose, map(one_line, maps))


# ---------------------------------------------------------------------------
# residue carriers, at every n the guards admit

def residue_label(a, b):
    if b == 0:
        return str(a)
    i = "I" if b == 1 else f"{b}I"
    return i if a == 0 else f"{a}+{i}"


def residue(n, elems):
    def mul(x, y):
        (a, b), (c, d) = x, y
        return a * c % n, (a * d + b * c + b * d) % n
    return from_product(elems, mul, [residue_label(a, b) for a, b in elems],
                        [b != 0 for _, b in elems], elems.index((0, 1)))


def test_residue_guards():
    # the tests below cover every n that each guard admits: n^2, 2n - 1 and
    # 2n - 2 at most 256, and n prime for the units carrier
    for build, top in ((nm.zn_full_neutro, 16), (nm.zn_line_neutro, 128),
                       (nm.zn_units_neutro, 129)):
        with pytest.raises(nm.ParameterError):
            build(1)
        with pytest.raises(nm.ResourceLimitError):
            build(top + 1)
    for n in (128, 129):
        with pytest.raises(nm.ParameterError, match="prime"):
            nm.zn_units_neutro(n)


@pytest.mark.parametrize("n", range(2, 17))
def test_zn_full_neutro(n):
    elems = [(a, b) for a in range(n) for b in range(n)]
    assert carrier(nm.zn_full_neutro(n)) == residue(n, elems)


@pytest.mark.parametrize("n", range(2, 17))
def test_zn_affine_neutro(n):
    elems = [(a, b) for a in range(n) for b in range(n)]
    rng = random.Random(SEED + n)
    pairs = {(0, 0), (1, 1), (n - 1, 0), (0, n - 1)}
    pairs |= {(rng.randrange(n), rng.randrange(n)) for _ in range(4)}
    for t, u in sorted(pairs):
        def mul(x, y):
            (a, b), (c, d) = x, y
            return (t * a + u * c) % n, (t * b + u * d) % n
        assert carrier(nm.zn_affine_neutro(n, t, u)) == from_product(
            elems, mul, [residue_label(a, b) for a, b in elems],
            [b != 0 for _, b in elems], 1), (t, u)


@pytest.mark.parametrize("n", range(2, 129))
def test_zn_line_and_units_neutro(n):
    line = [(a, 0) for a in range(n)] + [(0, b) for b in range(1, n)]
    assert carrier(nm.zn_line_neutro(n)) == residue(n, line)
    if all(n % d for d in range(2, n)):
        units = [(a, 0) for a in range(1, n)] + [(0, b) for b in range(1, n)]
        assert carrier(nm.zn_units_neutro(n)) == residue(n, units)


# ---------------------------------------------------------------------------
# the tagged doubling and the direct product, on seeded carriers

def random_carrier(rng, k):
    """A random table on k elements with a random mask and designated I."""
    table = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
    mask = [rng.random() < 0.5 for _ in range(k)]
    marked = [i for i in range(k) if mask[i]]
    nid = rng.choice(marked) if marked and rng.random() < 0.7 else None
    return nm.FiniteMagma(table, labels=[f"x{i}" for i in range(k)],
                          neutro_mask=mask, neutro_identity=nid, kind_tag="random")


def seeded_bases():
    rng = random.Random(SEED)
    bases = [random_carrier(rng, rng.randint(1, 9)) for _ in range(25)]
    return bases + [nm.cyclic(5), nm.symmetric_group(3), nm.ln(5, 2),
                    nm.zmod_mult(4), nm.FiniteMagma([[0]])]


def tagged(base):
    k = base.order
    t = base.table

    def mul(x, y):
        v = t[x % k][y % k]
        return v if x < k and y < k else v + k
    e = base.identity
    return from_product(range(2 * k), mul,
                        list(base.labels) + [l + "I" for l in base.labels],
                        [False] * k + [True] * k, None if e is None else e + k)


def paired(m1, m2):
    t1, t2 = m1.table, m2.table
    elems = [(x, y) for x in range(m1.order) for y in range(m2.order)]
    i1, i2 = m1.neutro_identity, m2.neutro_identity
    return from_product(
        elems, lambda p, q: (t1[p[0]][q[0]], t2[p[1]][q[1]]),
        [f"({m1.labels[x]},{m2.labels[y]})" for x, y in elems],
        [m1.neutro_mask[x] or m2.neutro_mask[y] for x, y in elems],
        None if i1 is None or i2 is None else elems.index((i1, i2)))


def test_extend_tagged():
    for base in seeded_bases():
        assert carrier(nm.extend_tagged(base)) == tagged(base)


def test_direct_product():
    bases = seeded_bases()
    bases += [nm.extend_tagged(b) for b in bases[:8]]
    rng = random.Random(SEED + 1)
    pairs = [tuple(rng.sample(bases, 2)) for _ in range(40)]
    pairs += [(nm.extend_tagged(nm.cyclic(3)), nm.zn_full_neutro(2)),
              (nm.zn_line_neutro(4), nm.extend_tagged(nm.zmod_mult(3))),
              (nm.cyclic(16), nm.cyclic(16)), (nm.FiniteMagma([[0]]), nm.cyclic(7))]
    for m1, m2 in pairs:
        if m1.order * m2.order <= 256:
            assert carrier(nm.direct_product(m1, m2)) == paired(m1, m2)
