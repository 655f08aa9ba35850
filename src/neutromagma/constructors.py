"""Constructors for the parameterized loop and groupoid families and the
standard reference structures (cyclic, symmetric, dihedral, map semigroups).

Counting formulas for the families are standalone functions so they can be
cross-checked against the enumerating constructors.
"""

from __future__ import annotations

from itertools import permutations, product, repeat
from math import factorial, gcd, prod

from .magma import MAX_ORDER, FiniteMagma, ParameterError, require_order


def factorize(n: int):
    """Prime factorization by trial division as [(p, alpha), ...]."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _phi(n: int) -> int:
    """Euler's totient: the product of (p-1)p^(a-1) over n's factorization."""
    return prod((p - 1) * p ** (a - 1) for p, a in factorize(n))


def _require_ints(what: str, **params):
    """Reject a family parameter that is not an int, or is a bool."""
    for name, v in params.items():
        if type(v) is not int:
            raise ParameterError(f"{what} needs an integer {name}, got {v!r}")


# The structured tables are built row by row as bytes, by slicing, joining
# and bytes.translate, so no Python expression runs per cell.  A translate map
# is padded to the 256 entries translate takes; the padding is never looked
# up, as every index is below MAX_ORDER = 256.

def _multiples(n: int, s: int) -> bytes:
    """s*d mod n for d = 0, 1, ..., n-1, as bytes: every s-th entry of
    0, 1, ..., n-1 repeated s times."""
    return (bytes(range(n)) * s)[::s] if s else bytes(n)


def _rotations(row: bytes) -> list:
    """Every rotation of row: rotation r, row[r:] + row[:r], is the translate
    map v -> row[(v + r) mod len(row)] once padded."""
    return [row[r:] + row[:r] for r in range(len(row))]


# ---------------------------------------------------------------------------
# the loop family of order n+1

def _ln_check(n: int, m: int):
    _require_ints("loop family", n=n, m=m)
    if n <= 3 or n % 2 == 0:
        raise ParameterError(f"loop family needs odd n > 3, got n={n}")
    if not (1 < m < n):
        raise ParameterError(f"loop family needs 1 < m < n, got m={m}")
    if gcd(m, n) != 1:
        raise ParameterError(f"gcd(m, n) = gcd({m},{n}) = {gcd(m, n)} != 1")
    if gcd(m - 1, n) != 1:
        raise ParameterError(f"gcd(m-1, n) = gcd({m-1},{n}) = {gcd(m - 1, n)} != 1")


def ln(n: int, m: int) -> FiniteMagma:
    """The loop on {e, 1, ..., n} with i*j = (mj - (m-1)i) mod n for distinct
    non-identity i, j (residue 0 rendered as n), i*i = e, and e the identity.

    Row i over j = 1..n is the multiples mj translated by v -> v - (m-1)i
    mod n, each residue sent to its element, with e put at j = i."""
    _ln_check(n, m)
    k = n + 1
    require_order(k, f"ln({n},{m})")
    mj = _multiples(n, m)[1:] + b"\0"                # mj mod n for j = 1..n
    adds = _rotations(bytes([n]) + bytes(range(1, n)))   # residue + r -> element
    table = [bytes(range(k))]
    for i in range(1, k):
        row = mj.translate(adds[(1 - m) * i % n].ljust(256))
        table.append(bytes([i]) + row[:i - 1] + b"\0" + row[i:])
    labels = ["e"] + [str(i) for i in range(1, k)]
    return FiniteMagma(table, labels=labels, kind_tag=f"ln({n},{m})")


def ln_admissible(n: int):
    _require_ints("loop family", n=n)
    if n <= 3 or n % 2 == 0:
        raise ParameterError(f"loop family needs odd n > 3, got n={n}")
    return [m for m in range(2, n) if gcd(m, n) == 1 and gcd(m - 1, n) == 1]


def ln_class(n: int):
    """All loops of the family for fixed n, in increasing m order."""
    return [ln(n, m) for m in ln_admissible(n)]


def ln_count(n: int) -> int:
    """Closed form for the family size: product of (p-2)p^(a-1) over n's factorization."""
    out = 1
    for p, a in factorize(n):
        out *= (p - 2) * p ** (a - 1)
    return out


def ln_strict_noncomm_count(n: int) -> int:
    """Closed form for the strictly non-commutative members: product of (p-3)p^(a-1)."""
    out = 1
    for p, a in factorize(n):
        out *= (p - 3) * p ** (a - 1)
    return out


# ---------------------------------------------------------------------------
# the linear groupoid families on Z_n

ZN_CLASSES = ("z", "zstar", "zdoublestar", "ztriplestar")


def _zn_check(n: int, t: int, u: int, cls: str):
    _require_ints("groupoid family", n=n, t=t, u=u)
    if n < 3:
        raise ParameterError(f"groupoid family needs n >= 3, got {n}")
    if cls not in ZN_CLASSES:
        raise ParameterError(f"class must be one of {ZN_CLASSES}, got {cls!r}")
    if not (0 <= t < n and 0 <= u < n):
        raise ParameterError(f"t, u must be residues mod {n}")
    if cls in ("z", "zstar", "zdoublestar") and (t == 0 or u == 0):
        raise ParameterError(f"class {cls} forbids zero coefficients")
    if cls in ("z", "zstar") and t == u:
        raise ParameterError(f"class {cls} requires t != u")
    if cls == "z" and gcd(t, u) != 1:
        raise ParameterError(f"class z requires gcd(t,u) = 1, got gcd({t},{u}) = {gcd(t, u)}")


def zn(n: int, t: int, u: int, cls: str = "zstar") -> FiniteMagma:
    """The groupoid on Z_n with a*b = (ta + ub) mod n: row a is the multiples
    ub translated by v -> v + ta mod n."""
    _zn_check(n, t, u, cls)
    require_order(n, f"zn({n},{t},{u})")
    adds = _rotations(bytes(range(n)))
    ub = _multiples(n, u)
    table = [ub.translate(adds[ta].ljust(256)) for ta in _multiples(n, t)]
    return FiniteMagma(table, kind_tag=f"zn({n},{t},{u})")


def zn_params(n: int, cls: str = "zstar"):
    """All admissible (t, u) pairs of the class, lexicographically."""
    _require_ints("groupoid family", n=n)
    if cls == "z":
        return [(t, u) for t in range(1, n) for u in range(1, n)
                if t != u and gcd(t, u) == 1]
    if cls == "zstar":
        return [(t, u) for t in range(1, n) for u in range(1, n) if t != u]
    if cls == "zdoublestar":
        return [(t, u) for t in range(1, n) for u in range(1, n)]
    if cls == "ztriplestar":
        return [(t, u) for t in range(n) for u in range(n)]
    raise ParameterError(f"unknown class {cls!r}")


def zn_class_size(n: int, cls: str = "zstar") -> int:
    """Class size by closed form.  The z class counts the ordered coprime
    pairs in [1, n-1]^2, twice the totients of 1..n-1 less the one pair with
    equal members, (1, 1)."""
    _require_ints("groupoid family", n=n)
    if n < 3:
        raise ParameterError(f"groupoid family needs n >= 3, got {n}")
    if cls == "zstar":
        return (n - 1) * (n - 2)
    if cls == "zdoublestar":
        return (n - 1) * (n - 1)
    if cls == "ztriplestar":
        return n * n
    if cls == "z":
        return 2 * sum(_phi(j) for j in range(1, n)) - 2
    raise ParameterError(f"unknown class {cls!r}")


# ---------------------------------------------------------------------------
# standard structures

def _check_n(n: int, order, what: str):
    """Reject an n that is not an int >= 1, or whose carrier of order(n) >= n
    elements would pass MAX_ORDER; n is capped first, so is never multiplied out."""
    if type(n) is not int or n < 1:
        raise ParameterError(f"{what} needs an integer n >= 1, got {n!r}")
    require_order(order(min(n, MAX_ORDER + 1)), f"{what}({n})")


def zmod_mult(n: int) -> FiniteMagma:
    """Z_n under multiplication modulo n (a monoid with identity 1)."""
    _check_n(n, lambda n: n, "zmod_mult")
    return FiniteMagma([_multiples(n, s) for s in range(n)], kind_tag=f"zmod_mult({n})")


def cyclic(n: int) -> FiniteMagma:
    """The cyclic group {g | g^n = 1}, labeled 1, g, g^2, ..."""
    _check_n(n, lambda n: n, "cyclic")
    table = _rotations(bytes(range(n)))
    labels = ["1"] + ["g" if i == 1 else f"g^{i}" for i in range(1, n)]
    return FiniteMagma(table, labels=labels, kind_tag=f"cyclic({n})")


def _composition(maps, kind_tag: str) -> FiniteMagma:
    """The maps of {0..n-1}, given as image tuples, under composition
    (p*q)(i) = p(q(i)), labeled by their images in one-line notation.  With
    each map as bytes, p*q is q translated by p."""
    maps = [bytes(p) for p in maps]
    index = {p: i for i, p in enumerate(maps)}
    table = [bytes(map(index.__getitem__, map(bytes.translate, maps, repeat(p.ljust(256)))))
             for p in maps]
    return FiniteMagma(table, labels=["".join(str(v + 1) for v in p) for p in maps],
                       kind_tag=kind_tag)


def symmetric_group(n: int) -> FiniteMagma:
    """S_n on one-line labels, composition (p*q)(i) = p(q(i))."""
    _check_n(n, factorial, "symmetric_group")
    return _composition(sorted(permutations(range(n))), f"symmetric_group({n})")


def _parity(p):
    seen = [False] * len(p)
    sign = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        sign += length - 1
    return sign % 2


def alternating(n: int) -> FiniteMagma:
    """A_n, even permutations only."""
    _check_n(n, lambda n: max(1, factorial(n) // 2), "alternating")
    return _composition(sorted(p for p in permutations(range(n)) if _parity(p) == 0),
                        f"alternating({n})")


def dihedral(n: int) -> FiniteMagma:
    """The dihedral group of order 2n: a^2 = b^n = 1, bab = a.

    Elements a^i b^j with i in {0,1}, j in [0,n); b^j a = a b^(-j).  So
    a^i b^j is element n*i + j, and its row is the elements a^i b^(j+l) and
    then a^(1-i) b^(l-j) for l in [0,n): two rotations of a coset."""
    _check_n(n, lambda n: 2 * n, "dihedral")
    cosets = [_rotations(bytes(range(i * n, i * n + n))) for i in range(2)]
    table = [cosets[i][j] + cosets[1 - i][-j % n] for i in range(2) for j in range(n)]
    elems = [(i, j) for i in range(2) for j in range(n)]

    def lab(e):
        i, j = e
        if i == 0 and j == 0:
            return "e"
        a = "a" if i else ""
        if j == 0:
            return a
        b = "b" if j == 1 else f"b^{j}"
        return a + b

    return FiniteMagma(table, labels=[lab(e) for e in elems], kind_tag=f"dihedral({n})")


def symmetric_semigroup(n: int) -> FiniteMagma:
    """S(n): all n^n self-maps of {1..n} under composition."""
    _check_n(n, lambda n: n ** n, "symmetric_semigroup")
    return _composition(sorted(product(range(n), repeat=n)),
                        f"symmetric_semigroup({n})")


def direct_product(m1: FiniteMagma, m2: FiniteMagma) -> FiniteMagma:
    """Componentwise product; labels are pairs, an element is neutrosophic when
    either coordinate is."""
    k2 = m2.order
    require_order(m1.order * k2, f"product({m1.kind_tag},{m2.kind_tag})")
    # (x, y) is element x*k2 + y, so the block of row (x, y) at column x2 is
    # row y of m2 shifted by t1[x][x2]*k2: blocks[y][j] is that shift by j*k2
    shifts = [bytes(range(j * k2, j * k2 + k2)).ljust(256) for j in range(m1.order)]
    blocks = [[bytes(row).translate(s) for s in shifts] for row in m2.table]
    table = [b"".join(map(blocks[y].__getitem__, row)) for row in m1.table for y in range(k2)]
    elems = [(x, y) for x in range(m1.order) for y in range(k2)]
    labels = [f"({m1.labels[x]},{m2.labels[y]})" for (x, y) in elems]
    mask = [m1.neutro_mask[x] or m2.neutro_mask[y] for (x, y) in elems]
    nid = None
    if m1.neutro_identity is not None and m2.neutro_identity is not None:
        nid = m1.neutro_identity * k2 + m2.neutro_identity
    return FiniteMagma(table, labels=labels, neutro_mask=mask, neutro_identity=nid,
                       kind_tag=f"product({m1.kind_tag},{m2.kind_tag})")

