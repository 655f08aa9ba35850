"""Neutrosophic extensions of finite magmas.

Two carriers realize <S u I>: the tagged doubling {x, xI} of an arbitrary
base magma, and residue carriers over Z_n built from elements a + bI with
I^2 = I, so (a+bI)(c+dI) = ac + (ad+bc+bd)I mod n.  The line carrier keeps
only reals and pure I-multiples, identifying 0I with 0.
"""

from __future__ import annotations

from .magma import (FiniteMagma, ParameterError, PreconditionError, Subset,
                    SubsetPredicate, PREDICATE_REGISTRY, _close, classify_basic,
                    is_closed, is_ideal, local_identity, require_order,
                    subset_is_group, subset_is_loop, subset_is_semigroup)


def extend_tagged(base: FiniteMagma) -> FiniteMagma:
    """The doubled carrier {x, xI}: untagged products follow the base table
    and any product with a tagged operand is the base product, tagged."""
    k = base.order
    require_order(2 * k, f"tagged({base.kind_tag})")
    table = [[0] * (2 * k) for _ in range(2 * k)]
    for x in range(k):
        for y in range(k):
            v = base.table[x][y]
            table[x][y] = v
            table[x][y + k] = v + k
            table[x + k][y] = v + k
            table[x + k][y + k] = v + k
    labels = list(base.labels) + [l + "I" for l in base.labels]
    mask = [False] * k + [True] * k
    e = base.identity
    return FiniteMagma(
        table, labels=labels, neutro_mask=mask,
        neutro_identity=(e + k) if e is not None else None,
        kind_tag=f"tagged({base.kind_tag})")


def _residue_check(n: int, order, what: str):
    """Reject an n that is not an int >= 2, or whose order(n) passes MAX_ORDER."""
    if type(n) is not int or n < 2:
        raise ParameterError(f"residue carrier needs an integer n >= 2, got {n!r}")
    require_order(order(n), what)


def _residue_label(a: int, b: int) -> str:
    """a + bI written as "3", "I", "4I" or "2+3I"."""
    if b == 0:
        return str(a)
    istr = "I" if b == 1 else f"{b}I"
    return istr if a == 0 else f"{a}+{istr}"


def _residue_carrier(elems, product, kind_tag: str) -> FiniteMagma:
    """The carrier on the (a, b) pairs elems under product(x, y), which gives
    x*y as an (a, b) pair; elems must be closed under it and hold I = (0, 1)."""
    index = {r: i for i, r in enumerate(elems)}
    table = [[index[product(x, y)] for y in elems] for x in elems]
    return FiniteMagma(
        table, labels=[_residue_label(a, b) for a, b in elems],
        neutro_mask=[b != 0 for _, b in elems],
        neutro_identity=index[(0, 1)],
        kind_tag=kind_tag)


def _residue_product(n: int):
    """The multiplicative residue product, as a product for _residue_carrier."""
    def product(x, y):
        (a, b), (c, d) = x, y
        return (a * c) % n, (a * d + b * c + b * d) % n
    return product


def zn_full_neutro(n: int) -> FiniteMagma:
    """The full multiplicative carrier {a + bI : a, b in Z_n} of order n^2."""
    tag = f"zn_full_neutro({n})"
    _residue_check(n, lambda n: n * n, tag)
    elems = [(a, b) for a in range(n) for b in range(n)]
    return _residue_carrier(elems, _residue_product(n), tag)


def zn_line_neutro(n: int) -> FiniteMagma:
    """The order 2n-1 carrier {0, 1, ..., n-1, I, 2I, ..., (n-1)I}; the
    identification 0I = 0 keeps it closed under the residue product."""
    tag = f"zn_line_neutro({n})"
    _residue_check(n, lambda n: 2 * n - 1, tag)
    elems = [(a, 0) for a in range(n)] + [(0, b) for b in range(1, n)]
    return _residue_carrier(elems, _residue_product(n), tag)


def zn_units_neutro(n: int) -> FiniteMagma:
    """The zero-free line carrier {1..n-1, I..(n-1)I}, closed only for prime n."""
    tag = f"zn_units_neutro({n})"
    _residue_check(n, lambda n: 2 * n - 2, tag)
    for d in range(2, n):
        if n % d == 0:
            raise ParameterError(f"zero-free carrier needs a prime modulus, got {n}")
    elems = [(a, 0) for a in range(1, n)] + [(0, b) for b in range(1, n)]
    return _residue_carrier(elems, _residue_product(n), tag)


def zn_affine_neutro(n: int, t: int, u: int) -> FiniteMagma:
    """The groupoid (a+bI) * (c+dI) = t(a+bI) + u(c+dI) on the full carrier."""
    tag = f"zn_affine_neutro({n},{t},{u})"
    _residue_check(n, lambda n: n * n, tag)
    if not all(type(c) is int and 0 <= c < n for c in (t, u)):
        raise ParameterError(f"{tag} needs integers t, u in [0,{n})")
    elems = [(a, b) for a in range(n) for b in range(n)]
    return _residue_carrier(
        elems, lambda x, y: ((t * x[0] + u * y[0]) % n, (t * x[1] + u * y[1]) % n), tag)


# ---------------------------------------------------------------------------
# neutrosophic subset species

def is_neutrosophic_subset(s: Subset) -> bool:
    mask = s.parent.neutro_mask
    return any(mask[i] for i in s.members)


def real_part(s: Subset):
    mask = s.parent.neutro_mask
    return [i for i in s.members if not mask[i]]


def has_real_subgroup(s: Subset) -> bool:
    """Some subset of the purely-real members forms a group of size >= 2.

    Such a group H contains the cyclic group generated by each of its
    non-identity elements, so it is enough to test, for each real x, whether
    the closure of {x} stays inside the real part and is a group of size >= 2:
    r closures instead of 2^r subsets.  Each closure stops at the first
    element it adds outside the real part, where it has already failed."""
    m = s.parent
    reals = real_part(s)
    if len(reals) < 2:
        return False
    stop = ((1 << m.order) - 1) ^ sum(1 << x for x in reals)
    for x in reals:
        mask, members = _close(m.table, 0, (), (x,), stop)
        if not mask & stop and subset_is_group(Subset._of_closed(m, tuple(sorted(members)))):
            return True
    return False


def is_neutrosophic_subgroup(s: Subset) -> bool:
    """Closed, carries an indeterminate element, and contains a purely-real
    group of size >= 2 under the induced operation.  This is also the witness
    species behind the per-chapter 'S-neutrosophic sub' notions."""
    if len(s) < 2 or not is_closed(s) or not is_neutrosophic_subset(s):
        return False
    return has_real_subgroup(s)


def is_pseudo_neutrosophic_subgroup(s: Subset) -> bool:
    """Neutro-unital, |s| >= 2, and no purely-real group of size >= 2
    (operational reading)."""
    return len(s) >= 2 and is_neutro_unital(s) and not has_real_subgroup(s)


def is_neutro_subsemigroup(s: Subset) -> bool:
    """Closed, neutrosophic, associative under the induced operation."""
    return is_neutrosophic_subset(s) and subset_is_semigroup(s)


def is_neutro_unital(s: Subset) -> bool:
    """Closed neutrosophic subset with an internal identity (the weakest
    'neutrosophic group' reading, admitting carriers like {1, I})."""
    return is_closed(s) and is_neutrosophic_subset(s) and local_identity(s) is not None


def is_s_neutrosophic_subloop(s: Subset) -> bool:
    """In a tagged doubling: s = P u PI with P a subloop of the untagged part
    containing a group of size >= 2 (the subloop species of the doubled
    carriers, symmetric between the real and tagged halves)."""
    m = s.parent
    reals = real_part(s)
    if len(reals) < 2:
        return False
    tagged = [i for i in s.members if m.neutro_mask[i]]
    half = m.order // 2
    # doubled carriers pair index i with i + half
    if sorted(i + half for i in reals) != sorted(tagged):
        return False
    p = Subset(m, reals)
    return is_closed(s) and subset_is_loop(p) and has_real_subgroup(s)


PREDICATE_REGISTRY[SubsetPredicate.IS_NEUTROSOPHIC_SUBGROUP] = is_neutrosophic_subgroup
PREDICATE_REGISTRY[SubsetPredicate.IS_PSEUDO_NEUTROSOPHIC_SUBGROUP] = is_pseudo_neutrosophic_subgroup


def group_or_s_subsemigroup(s: Subset) -> bool:
    """A group, or a semigroup that properly contains a purely-real group of
    size >= 2 without being a group itself."""
    if subset_is_group(s):
        return True
    return subset_is_semigroup(s) and has_real_subgroup(s)


def neutro_unital_or_subgroup(s: Subset) -> bool:
    return is_neutro_unital(s) or subset_is_group(s)


# the species handles of the book's union structures
NEUTRO_UNITAL = is_neutro_unital
NEUTRO_SUBSEMIGROUP = is_neutro_subsemigroup
GROUP_OR_S_SUBSEMIGROUP = group_or_s_subsemigroup
NEUTRO_UNITAL_OR_SUBGROUP = neutro_unital_or_subgroup
S_NEUTRO_SUBLOOP = is_s_neutrosophic_subloop


# ---------------------------------------------------------------------------
# neutrosophic ideals

def _plain_neutro_ideal(m: FiniteMagma, s: Subset) -> bool:
    return is_neutrosophic_subset(s) and is_closed(s) and is_ideal(m, s)


def ideal_closure(m: FiniteMagma, g: int):
    """Smallest two-sided absorptive closed set containing g; in a semigroup
    the principal ideal S1gS1."""
    t = m.table
    seen = {g}
    work = [g]
    while work:
        a = work.pop()
        new = {row[a] for row in t}.union(t[a]).difference(seen)
        seen |= new
        work += new
    return tuple(sorted(seen))


def neutrosophic_ideal_check(s: Subset, mode: str = "plain") -> bool:
    """Neutrosophic ideal tests on a semigroup carrier.

    plain: neutrosophic, closed, absorbs two-sidedly.  principal: a plain one
    that is the ideal_closure of one of its elements.  maximal / minimal: a
    plain one with no other strictly above / inside it but the whole carrier.
    """
    m = s.parent
    if not classify_basic(m).is_semigroup:
        raise PreconditionError("neutrosophic ideals are defined on semigroup carriers")
    if mode not in ("plain", "principal", "maximal", "minimal"):
        raise ParameterError(f"unknown ideal mode {mode!r}")
    if not _plain_neutro_ideal(m, s):
        return False
    mem = s.members
    if mode == "principal":
        return any(ideal_closure(m, g) == mem for g in mem)
    if mode == "maximal":
        # an ideal J with s < J < S holds some g outside s, and so the ideal
        # s u S1gS1, which is neutrosophic as s is
        return all(len(set(mem).union(ideal_closure(m, g))) == m.order
                   for g in set(range(m.order)).difference(mem))
    if mode == "minimal":
        # a neutrosophic ideal J < s holds some neutrosophic h, and so the
        # neutrosophic ideal S1hS1
        return all(ideal_closure(m, g) == mem for g in mem if m.neutro_mask[g])
    return True
