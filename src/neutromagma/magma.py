"""Finite magma core: Cayley tables, subsets, identity laws and substructure search.

Every structure in the library (loop, groupoid, semigroup, neutrosophic
extension) is normalized to a FiniteMagma: an immutable k x k table of
element indices with a label per index.  All searches scan lexicographically
and all set-valued results are returned sorted, so first-witness semantics
are reproducible across runs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Optional


class ParameterError(ValueError):
    """Invalid construction or call parameters."""


class PreconditionError(ValueError):
    """An operation's structural precondition does not hold."""


class ResourceLimitError(RuntimeError):
    """A search exceeded an explicit size guard."""


# Largest carrier order: the identity-law scan keeps rows and columns as
# 256-entry byte maps, so every element index must fit in a byte.
MAX_ORDER = 256

# Most distinct closed subsets one carrier may have before the search stops:
# a carrier whose products all equal one element has 2^(k-1) of them.
MAX_CLOSED_SUBSETS = 100_000

# Largest order is_isomorphic searches: the backtracking is factorial in it.
MAX_ISOMORPHISM_ORDER = 8


class FiniteMagma:
    """Immutable Cayley table over an indexed, labeled universe.

    table[x][y] is the index of x*y.  `identity` is the two-sided identity
    index found from the table, or None.  `neutro_mask[i]` marks elements
    carrying an indeterminate component; `neutro_identity` is the designated
    element playing the role of I (eI in tagged extensions, 0+1I in residue
    carriers).
    """

    __slots__ = ("order", "table", "labels", "identity", "neutro_mask",
                 "neutro_identity", "kind_tag", "_label_index",
                 "_divs", "_maps", "_basic", "_subset_cache")

    # Lazy caches are filled by one assignment of a complete value, so a
    # thread that reads one sees either nothing or all of it.

    def __init__(self, table, labels=None, neutro_mask=None,
                 neutro_identity=None, kind_tag=""):
        k = len(table)
        if k == 0:
            raise ParameterError("empty table")
        require_order(k, f"a table of order {k}")
        self.order = k
        self.table = tuple(tuple(row) for row in table)
        for row in self.table:
            if len(row) != k:
                raise ParameterError("table is not square")
            for v in row:
                if type(v) is not int or not 0 <= v < k:
                    raise ParameterError(f"table entry {v!r} is not an index in [0,{k})")
        if labels is None:
            labels = [str(i) for i in range(k)]
        self.labels = tuple(str(l) for l in labels)
        if len(self.labels) != k:
            raise ParameterError("label count does not match order")
        if len(set(self.labels)) != k:
            raise ParameterError("labels are not pairwise distinct")
        self.identity = _find_identity(self.table, range(k))
        if neutro_mask is None:
            neutro_mask = [False] * k
        self.neutro_mask = tuple(neutro_mask)
        if len(self.neutro_mask) != k:
            raise ParameterError("neutro_mask length does not match order")
        for b in self.neutro_mask:
            if type(b) is not bool:
                raise ParameterError(f"neutro_mask entry {b!r} is not a bool")
        if neutro_identity is not None:
            if type(neutro_identity) is not int or not 0 <= neutro_identity < k:
                raise ParameterError(
                    f"neutro_identity {neutro_identity!r} is not an index in [0,{k})")
            if not self.neutro_mask[neutro_identity]:
                raise ParameterError("neutro_identity must have neutro_mask set")
        self.neutro_identity = neutro_identity
        self.kind_tag = kind_tag
        self._label_index = {l: i for i, l in enumerate(self.labels)}
        self._divs = None         # (rows, columns): each one's inverse permutation, or None
        self._maps = None         # (row maps, column maps) for the law scan
        self._basic = None        # the BasicReport of classify_basic
        # pure memo: "closed" -> the closed-subset lattice; (SubsetPredicate,
        # include_full) -> the member tuples that species keeps.  Tuples, not
        # Subsets, so the cache holds no reference back to this carrier.
        self._subset_cache = {}

    def op(self, x: int, y: int) -> int:
        _require_index(self, x, "operand")
        _require_index(self, y, "operand")
        return self.table[x][y]

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise ParameterError(f"no element labeled {label!r} in {self.kind_tag or 'magma'}")

    def subset(self, members: Iterable) -> "Subset":
        """Build a Subset from indices or labels."""
        if isinstance(members, Iterable):    # else Subset raises
            members = [self.index(m) if type(m) is str else m for m in members]
        return Subset(self, members)

    def full_subset(self) -> "Subset":
        return Subset._of_closed(self, tuple(range(self.order)))

    def has_neutro(self) -> bool:
        return any(self.neutro_mask)

    def __repr__(self):
        return f"FiniteMagma(order={self.order}, kind={self.kind_tag!r})"

    # loops: unique division
    def _divisions(self):
        if self._divs is None:
            k = self.order
            def inverse(perm):    # None when perm repeats an entry: no unique division
                return sorted(range(k), key=perm.__getitem__) if len(set(perm)) == k else None
            self._divs = ([inverse(row) for row in self.table],
                          [inverse(col) for col in zip(*self.table)])
        return self._divs

    def left_division(self, a: int, c: int) -> int:
        """The unique y with a*y = c (requires the row of a to be a permutation)."""
        _require_index(self, a, "operand")
        _require_index(self, c, "operand")
        inv = self._divisions()[0][a]
        if inv is None:
            raise PreconditionError(f"row of {self.labels[a]} is not a permutation; division undefined")
        return inv[c]

    def right_division(self, c: int, b: int) -> int:
        """The unique x with x*b = c (requires the column of b to be a permutation)."""
        _require_index(self, c, "operand")
        _require_index(self, b, "operand")
        inv = self._divisions()[1][b]
        if inv is None:
            raise PreconditionError(f"column of {self.labels[b]} is not a permutation; division undefined")
        return inv[c]


def require_order(k: int, what: str) -> None:
    """Raise ResourceLimitError when a carrier of k elements would pass MAX_ORDER.

    Constructors call this before they allocate; k may be any lower bound on
    the order that is past the cap whenever the order is."""
    if k > MAX_ORDER:
        raise ResourceLimitError(f"{what} has more than MAX_ORDER = {MAX_ORDER} elements")


def _require_index(m: FiniteMagma, i, what: str) -> None:
    """Raise ParameterError unless i is an element index of m: an int, not a
    bool or a float, in [0, order), as the table validator requires."""
    if type(i) is not int or not 0 <= i < m.order:
        raise ParameterError(f"{what} {i!r} is not an index in [0,{m.order})")


def _require_indices(m: FiniteMagma, items, what: str) -> list:
    """items as a list, each checked by _require_index; raise ParameterError
    also when items is not iterable."""
    if not isinstance(items, Iterable):
        raise ParameterError(f"{what}s {items!r} are not an iterable")
    items = list(items)
    for i in items:
        _require_index(m, i, what)
    return items


def _find_identity(t, dom) -> Optional[int]:
    """First e in dom with e*x = x*e = x for every x in dom, or None."""
    for e in dom:
        row = t[e]
        if all(row[x] == x and t[x][e] == x for x in dom):
            return e
    return None


class Subset:
    """A canonical index set referencing a parent magma."""

    __slots__ = ("parent", "members", "_closed")

    def __init__(self, parent: FiniteMagma, members: Iterable[int]):
        mem = _require_indices(parent, members, "subset member")
        self.parent = parent
        self.members = tuple(sorted(set(mem)))
        self._closed = False      # closedness is not known; is_closed scans

    @classmethod
    def _of_closed(cls, parent: FiniteMagma, members: tuple):
        """Trusted construction, without the checks of __init__, for a sorted
        member tuple of a set that _close returned, and so known closed."""
        self = object.__new__(cls)
        self.parent = parent
        self.members = members
        self._closed = True
        return self

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, i):
        return i in set(self.members)

    def __eq__(self, other):
        return (isinstance(other, Subset) and other.parent is self.parent
                and other.members == self.members)

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def labels(self):
        return [self.parent.labels[i] for i in self.members]

    def __repr__(self):
        return f"Subset({{{', '.join(self.labels())}}})"


def _require_subset(m: FiniteMagma, s, what: str) -> None:
    """Raise ParameterError unless s is a Subset of m, or of a carrier with
    m's table, whose member indices then name the same elements of m."""
    if not isinstance(s, Subset) or (s.parent is not m and s.parent.table != m.table):
        raise ParameterError(f"{what} is not a subset of {m.kind_tag or 'the magma'}")


def is_closed(s: Subset) -> bool:
    if s._closed:
        return True
    t = s.parent.table
    mem = set(s.members)
    return all(t[x][y] in mem for x in mem for y in mem)


def submagma(m: FiniteMagma, members: Iterable[int], kind_tag: str = "") -> FiniteMagma:
    """The induced magma on a closed subset, reindexed; labels preserved."""
    mem = sorted(set(_require_indices(m, members, "submagma member")))
    pos = {v: i for i, v in enumerate(mem)}
    table = []
    for x in mem:
        row = []
        for y in mem:
            v = m.table[x][y]
            if v not in pos:
                raise PreconditionError("subset is not closed; no induced magma")
            row.append(pos[v])
        table.append(row)
    nid = m.neutro_identity
    return FiniteMagma(
        table,
        labels=[m.labels[i] for i in mem],
        neutro_mask=[m.neutro_mask[i] for i in mem],
        neutro_identity=pos[nid] if nid in pos else None,
        kind_tag=kind_tag or f"sub({m.kind_tag})",
    )


# ---------------------------------------------------------------------------
# identity laws

class IdentityLaw(Enum):
    ASSOCIATIVE = "associative"
    COMMUTATIVE = "commutative"
    IDEMPOTENT = "idempotent"
    MOUFANG1 = "moufang1"
    MOUFANG2 = "moufang2"
    MOUFANG3 = "moufang3"
    BOL = "bol"
    BRUCK_IDENTITY = "bruck_identity"
    BRUCK_INVERSE = "bruck_inverse"
    WIP = "wip"
    LEFT_ALTERNATIVE = "left_alternative"
    RIGHT_ALTERNATIVE = "right_alternative"
    P_GROUPOID = "p_groupoid"


@dataclass(frozen=True)
class LawResult:
    holds: bool
    witness: Optional[tuple]   # first counterexample in lex order, or None


# law -> (arity, sides): sides(t, R, C, V)(*outer) gives both sides of the law
# as byte vectors over V, the domain as bytes, for the innermost variable;
# outer holds the other variables (none, x, or x and y).  R[a] and C[b] are
# the bytes.translate maps v -> a*v and v -> v*b of the carrier.
_LAWS = {
    # (xy)z = x(yz)
    IdentityLaw.ASSOCIATIVE: (3, lambda t, R, C, V: lambda x, y: (
        V.translate(R[t[x][y]]), V.translate(R[y]).translate(R[x]))),
    # xy = yx
    IdentityLaw.COMMUTATIVE: (2, lambda t, R, C, V: lambda x: (
        V.translate(R[x]), V.translate(C[x]))),
    # xx = x
    IdentityLaw.IDEMPOTENT: (1, lambda t, R, C, V: lambda: (
        bytes(t[v][v] for v in V), V)),
    # (xy)(zx) = (x(yz))x
    IdentityLaw.MOUFANG1: (3, lambda t, R, C, V: lambda x, y: (
        V.translate(C[x]).translate(R[t[x][y]]),
        V.translate(R[y]).translate(R[x]).translate(C[x]))),
    # ((xy)z)y = x(y(zy))
    IdentityLaw.MOUFANG2: (3, lambda t, R, C, V: lambda x, y: (
        V.translate(R[t[x][y]]).translate(C[y]),
        V.translate(C[y]).translate(R[y]).translate(R[x]))),
    # x(y(xz)) = ((xy)x)z
    IdentityLaw.MOUFANG3: (3, lambda t, R, C, V: lambda x, y: (
        V.translate(R[x]).translate(R[y]).translate(R[x]),
        V.translate(R[t[t[x][y]][x]]))),
    # ((xy)z)y = x((yz)y)
    IdentityLaw.BOL: (3, lambda t, R, C, V: lambda x, y: (
        V.translate(R[t[x][y]]).translate(C[y]),
        V.translate(R[y]).translate(C[y]).translate(R[x]))),
    # (x(yx))z = x(y(xz))
    IdentityLaw.BRUCK_IDENTITY: (3, lambda t, R, C, V: lambda x, y: (
        V.translate(R[t[x][t[y][x]]]),
        V.translate(R[x]).translate(R[y]).translate(R[x]))),
    # (xx)y = x(xy)
    IdentityLaw.LEFT_ALTERNATIVE: (2, lambda t, R, C, V: lambda x: (
        V.translate(R[t[x][x]]), V.translate(R[x]).translate(R[x]))),
    # (xy)y = x(yy)
    IdentityLaw.RIGHT_ALTERNATIVE: (2, lambda t, R, C, V: lambda x: (
        bytes(t[a][v] for a, v in zip(V.translate(R[x]), V)),
        bytes(t[v][v] for v in V).translate(R[x]))),
    # (xy)x = x(yx)
    IdentityLaw.P_GROUPOID: (2, lambda t, R, C, V: lambda x: (
        V.translate(R[x]).translate(C[x]), V.translate(C[x]).translate(R[x]))),
}


# Laws equating two bracketings of one word (WIP: (xy)z = e gives x(yz) = e): by
# general associativity each holds on any domain of a semigroup.  Commutativity,
# idempotence and the Bruck inverse law stay out: they fail in S3, Z2 and S3.
_BRACKETING_LAWS = frozenset(IdentityLaw[name] for name in (
    "ASSOCIATIVE", "MOUFANG1", "MOUFANG2", "MOUFANG3", "BOL", "BRUCK_IDENTITY", "WIP",
    "LEFT_ALTERNATIVE", "RIGHT_ALTERNATIVE", "P_GROUPOID"))


def _byte_maps(m: FiniteMagma) -> tuple:
    """(R, C): R[a] and C[b] are the bytes.translate maps v -> a*v and
    v -> v*b of the carrier, built once per carrier."""
    if m._maps is None:
        pad = bytes(256 - m.order)    # bytes past the order are never looked up
        m._maps = ([bytes(row) + pad for row in m.table],
                   [bytes(col) + pad for col in zip(*m.table)])
    return m._maps


def _law_failure(m: FiniteMagma, law: IdentityLaw, dom) -> Optional[tuple]:
    """First tuple over dom (a tuple or range) in lexicographic order at which
    an equational law fails, or None when it holds on dom."""
    arity, sides = _LAWS[law]
    R, C = _byte_maps(m)
    at = sides(m.table, R, C, bytes(dom))
    for outer in product(dom, repeat=arity - 1):
        lhs, rhs = at(*outer)
        if lhs != rhs:
            i = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            return outer + (dom[i],)
    return None


def _light_associative(m: FiniteMagma, dom) -> bool:
    """Whether the operation is associative on dom, a closed domain (a tuple
    or range), by Light's test (Clifford and Preston I, 1961).  The
    middle nucleus {a : (xa)y = x(ay) for all x, y in dom} is closed under
    the product, as (x(ab))y = (xa)(by) = x((ab)y), so it is enough that a set
    generating dom lies in it.  An element joins the generators, and is
    checked, only when no left-bracketed word over the earlier ones reaches
    it: k^2 products per generator instead of k^3 in all."""
    t = m.table
    R, C = _byte_maps(m)
    V = bytes(dom)
    reached = bytearray(256)
    words = []              # reached elements, each once
    gens = []
    for a in dom:
        if reached[a]:
            continue
        ay = V.translate(R[a])
        for x, xa in zip(dom, V.translate(C[a])):
            if V.translate(R[xa]) != ay.translate(R[x]):
                return False
        done = len(words)   # words already multiplied by every earlier generator
        gens.append(a)
        reached[a] = 1
        words.append(a)
        i = 0
        while i < len(words):
            row = t[words[i]]
            for g in (gens if i >= done else (a,)):
                v = row[g]
                if not reached[v]:
                    reached[v] = 1
                    words.append(v)
            i += 1
    return True


def two_sided_inverses(m: FiniteMagma, domain=None) -> dict:
    """Map x -> inverse for every x in domain with a two-sided inverse."""
    if m.identity is None:
        raise PreconditionError("no identity element; inverses undefined")
    e = m.identity
    dom = range(m.order) if domain is None else _require_indices(m, domain, "domain member")
    t = m.table
    inv = {}
    for x in dom:
        row = t[x]
        try:        # the first y with xy = e that has yx = e too
            y = row.index(e)
            while t[y][x] != e:
                y = row.index(e, y + 1)
        except ValueError:
            continue
        inv[x] = y
    return inv


def _all_inverses(m: FiniteMagma, dom) -> dict:
    """two_sided_inverses on dom; PreconditionError naming the first element
    of dom without one."""
    inv = two_sided_inverses(m, dom)
    for x in dom:
        if x not in inv:
            raise PreconditionError(f"element {m.labels[x]} has no two-sided inverse")
    return inv


def check_identity_law(m: FiniteMagma, law: IdentityLaw,
                       domain: Optional[Subset] = None) -> LawResult:
    """Exhaustively quantify one identity law, returning the first counterexample.

    `domain` restricts the quantifiers (default: full universe); intermediate
    products are always taken in m.  BRUCK_INVERSE and WIP require m.identity
    and two-sided inverses on the domain.  On a semigroup the bracketing laws
    hold without a scan.
    """
    t = m.table
    if domain is not None:
        _require_subset(m, domain, "domain")
    dom = tuple(range(m.order)) if domain is None else tuple(domain.members)

    if law in (IdentityLaw.BRUCK_INVERSE, IdentityLaw.WIP):
        inv = _all_inverses(m, dom)     # raises before the semigroup shortcut
    if law is IdentityLaw.BRUCK_INVERSE:
        for x in dom:
            for y in dom:
                p = t[x][y]
                if p not in inv:
                    raise PreconditionError(f"element {m.labels[p]} has no two-sided inverse")
                if inv[p] != t[inv[x]][inv[y]]:
                    return LawResult(False, (x, y))
        return LawResult(True, None)
    if law in _BRACKETING_LAWS and classify_basic(m).is_semigroup:
        return LawResult(True, None)
    if law is IdentityLaw.WIP:
        e = m.identity
        for x in dom:
            for y in dom:
                for z in dom:
                    if t[t[x][y]][z] == e and t[x][t[y][z]] != e:
                        return LawResult(False, (x, y, z))
        return LawResult(True, None)

    witness = _law_failure(m, law, dom)
    if witness is not None and law is IdentityLaw.P_GROUPOID:
        witness += (dom[0],)     # the law has no z; its witnesses keep z = dom[0]
    return LawResult(witness is None, witness)


def _is_latin(m: FiniteMagma, dom) -> bool:
    """Whether every row and column of m, restricted to dom, is a
    permutation of dom.  Such a dom is closed: each product lies in dom."""
    R, C = _byte_maps(m)
    V = bytes(dom)
    want = set(V)
    return all(set(V.translate(R[x])) == want and set(V.translate(C[x])) == want
               for x in dom)


def latin_square_check(m: FiniteMagma) -> bool:
    """Whether every row and column of the table is a permutation of the
    carrier: its entries lie in the carrier, so k distinct ones suffice.
    On whole carriers this pass measured faster than _is_latin, which
    compares each translated row with the domain as a set."""
    k = m.order
    return (all(len(set(row)) == k for row in m.table)
            and all(len(set(col)) == k for col in zip(*m.table)))


@dataclass(frozen=True)
class BasicReport:
    is_semigroup: bool
    is_commutative: bool
    is_loop: bool
    is_group: bool
    identity: Optional[int]
    inverses_exist: bool


def classify_basic(m: FiniteMagma) -> BasicReport:
    """Semigroup, loop and group flags of the carrier, computed once per carrier."""
    if m._basic is not None:
        return m._basic
    # check_identity_law reads this report
    assoc = _light_associative(m, range(m.order))
    comm = _law_failure(m, IdentityLaw.COMMUTATIVE, range(m.order)) is None
    e = m.identity
    loop = e is not None and latin_square_check(m)
    inverses = e is not None and len(two_sided_inverses(m)) == m.order
    m._basic = BasicReport(
        is_semigroup=assoc,
        is_commutative=comm,
        is_loop=loop,
        is_group=loop and assoc,
        identity=e,
        inverses_exist=inverses,
    )
    return m._basic


# ---------------------------------------------------------------------------
# substructure machinery

def _close(t, mask, members, new, stop=0):
    """Least closed superset of a closed set plus `new`, as (bitmask, member list).

    `members` lists the bits of `mask` and is closed already, so only pairs
    with at least one added element are multiplied: each added element meets
    every member before it in the list, on both sides.

    The closure returns early, as a part of the least closed superset, once a
    product adds an element whose bit is in `stop`; so the result holds a bit
    of `stop` exactly when the whole closure does.
    """
    members = list(members)
    i = len(members)
    for g in new:
        if not mask >> g & 1:
            mask |= 1 << g
            members.append(g)
    while i < len(members):
        a = members[i]
        row = t[a]
        for b in members[:i + 1]:
            v = row[b]
            if not mask >> v & 1:
                mask |= 1 << v
                members.append(v)
                if stop >> v & 1:
                    return mask, members
            v = t[b][a]
            if not mask >> v & 1:
                mask |= 1 << v
                members.append(v)
                if stop >> v & 1:
                    return mask, members
        i += 1
    return mask, members


def generated_closure(m: FiniteMagma, gens: Sequence[int]) -> Subset:
    """Least superset of gens closed under the operation."""
    gens = _require_indices(m, gens, "generator")
    if not gens:
        raise ParameterError("generator list is empty")
    return Subset._of_closed(m, tuple(sorted(_close(m.table, 0, (), gens)[1])))


class SubsetPredicate(Enum):
    """Uniform handle for the per-chapter substructure species."""
    IS_GROUP = "group"
    IS_SEMIGROUP = "semigroup"
    IS_LOOP = "loop"
    IS_SUBGROUPOID = "subgroupoid"
    IS_NEUTROSOPHIC_SUBGROUP = "neutrosophic_subgroup"
    IS_PSEUDO_NEUTROSOPHIC_SUBGROUP = "pseudo_neutrosophic_subgroup"
    # another name for IS_NEUTROSOPHIC_SUBGROUP
    IS_S_NEUTROSOPHIC_SUB = "neutrosophic_subgroup"
    IS_IDEAL = "ideal"
    IS_LEFT_IDEAL = "left_ideal"
    IS_RIGHT_IDEAL = "right_ideal"


# variant -> callable(Subset) -> bool; each entry is registered beside its test
PREDICATE_REGISTRY: dict = {}


def local_identity(s: Subset) -> Optional[int]:
    """Two-sided identity of the induced operation on s, if any."""
    return _find_identity(s.parent.table, s.members)


def subset_is_group(s: Subset) -> bool:
    """An associative loop, so |s| >= 2.  In a finite loop with identity e
    each x has a right inverse y (xy = e) and a left inverse z (zx = e), and
    associativity gives z = z(xy) = (zx)y = y.

    Trivial one-element groups never witness a Smarandache property
    ("the identity element alone is never taken as a proper subgroup").
    """
    return subset_is_loop(s) and _is_associative_on(s)


def subset_is_semigroup(s: Subset) -> bool:
    """Closed and associative under the induced operation, |s| >= 2."""
    return len(s) >= 2 and is_closed(s) and _is_associative_on(s)


def _is_associative_on(s: Subset) -> bool:
    """Whether the operation is associative on s.  Every subset of a
    semigroup inherits the law, which is universal, so only subsets of a
    non-associative carrier are tested."""
    return (classify_basic(s.parent).is_semigroup
            or _light_associative(s.parent, s.members))


def subset_is_loop(s: Subset) -> bool:
    """|s| >= 2, an internal identity and a Latin-square induced table,
    which makes s closed."""
    return (len(s) >= 2 and local_identity(s) is not None
            and _is_latin(s.parent, s.members))


PREDICATE_REGISTRY[SubsetPredicate.IS_GROUP] = subset_is_group
PREDICATE_REGISTRY[SubsetPredicate.IS_SEMIGROUP] = subset_is_semigroup
PREDICATE_REGISTRY[SubsetPredicate.IS_LOOP] = subset_is_loop
PREDICATE_REGISTRY[SubsetPredicate.IS_SUBGROUPOID] = is_closed


def evaluate_predicate(pred, s: Subset) -> bool:
    """A species is None (every subset), a SubsetPredicate or any callable
    from Subset to bool."""
    if pred is None:
        return True
    if isinstance(pred, SubsetPredicate):
        return PREDICATE_REGISTRY[pred](s)
    if callable(pred):
        return pred(s)
    raise ParameterError(f"not a subset predicate: {pred!r}")


def _closed_lattice(m: FiniteMagma, ground=None, budget=None):
    """Every nonempty closed set inside `ground`, a bitmask of elements (the
    whole carrier when None), as sorted member tuples in lexicographic order.

    Fast Close-by-One (Kuznetsov 1993; Outrata and Vychodil, Information
    Sciences 185, 2012), depth first from the empty set.  A closed set C
    reached by adding element w is extended by each x > w in the ground set
    and outside C to D = closure(C | {x}).  D is emitted only from the C that
    agrees with it below x (the canonicity test), so each closed set is made
    exactly once, and only if it stays in the ground set.  The closure stops
    at the first element it adds below x and outside C, or outside the
    ground set, where D has already failed.  That partial closure, a subset
    of D holding such an element, is stored as N[x] and inherited by C's
    children: a child's closure with x would hold it too, so the child skips
    x without a closure.  Dropping the sets that leave the ground set loses
    none inside it: FCbO reaches a closed D from a parent that is a closed
    subset of D.  Raises ResourceLimitError past `budget` sets
    (MAX_CLOSED_SUBSETS when None).
    """
    t = m.table
    k = m.order
    outside = 0 if ground is None else ((1 << k) - 1) & ~ground
    if budget is None:
        budget = MAX_CLOSED_SUBSETS
    found = []
    stack = [(0, (), 0, [0] * k)]
    while stack:
        mask, members, y, inherited = stack.pop()
        fails = list(inherited)
        skip = mask | outside
        for x in range(y, k):
            if skip >> x & 1:
                continue
            low = (1 << x) - 1
            stop = low & ~mask | outside
            if fails[x] & stop:
                continue
            d, d_members = _close(t, mask, members, (x,), stop)
            if d & stop:
                fails[x] = d
                continue
            if len(found) >= budget:
                raise ResourceLimitError(
                    f"more than {MAX_CLOSED_SUBSETS} closed subsets in a carrier "
                    f"of order {k}")
            found.append(d_members)
            # popped only after this loop ends, so it inherits every failure
            stack.append((d, d_members, x + 1, fails))
    return sorted(tuple(sorted(members)) for members in found)


def _loop_ground(t, e, domain=None):
    """The x of domain (the whole carrier when None) with ex = xe = x that have
    a right and a left inverse to e among those elements: every subloop
    inside domain with identity e lies among them, since xy = e and zx = e
    are solvable in it."""
    near = [x for x in (range(len(t)) if domain is None else domain)
            if t[e][x] == x and t[x][e] == x]
    return [x for x in near if any(t[x][y] == e for y in near)
            and any(t[z][x] == e for z in near)]


def _group_ground(t, e, domain=None):
    """G_e, the x of _loop_ground(t, e, domain) with a two-sided inverse
    there: every subgroup inside domain with identity e lies in it.  In a
    semigroup, with no domain, G_e is the maximal subgroup at e, Green's
    H-class of e (Clifford and Preston I, 1961, 2.2)."""
    near = _loop_ground(t, e, domain)
    return [x for x in near if any(t[x][y] == e and t[y][x] == e for y in near)]


# species -> the elements a species subset with idempotent identity e lies in
_GROUNDS = {
    SubsetPredicate.IS_GROUP: _group_ground,
    SubsetPredicate.IS_LOOP: _loop_ground,
}


def _directed_subsets(m: FiniteMagma, ground_of):
    """The closed sets inside ground_of(table, e) for some idempotent e, sorted,
    counted toward MAX_CLOSED_SUBSETS together.  A species subset with identity
    e is among e's; a set there without e fails the species or is another e's."""
    t = m.table
    found = set()
    searched = 0
    for e in range(m.order):
        if t[e][e] == e:
            ground = sum(1 << x for x in ground_of(t, e))
            sets = _closed_lattice(m, ground, MAX_CLOSED_SUBSETS - searched)
            searched += len(sets)
            found.update(sets)
    return sorted(found)


def enumerate_closed_subsets(m: FiniteMagma, pred=None,
                             include_full: bool = False) -> tuple:
    """All proper nontrivial closed subsets satisfying pred, as a tuple of
    Subsets in lexicographic order of their member lists.

    Excludes the empty set, the full universe and the singleton {identity}
    unless include_full re-admits the latter two (used by the
    union-structure machinery, where a component of a proper N-subset may
    coincide with the whole component).

    The search is complete at every order.  IS_GROUP and IS_LOOP on a
    carrier that is not a loop are searched per idempotent e, inside the
    elements their subsets with identity e can hold (_GROUNDS); every other
    species filters the carrier's lattice of closed subsets.  More than
    MAX_CLOSED_SUBSETS closed subsets searched raises ResourceLimitError.
    The answer for a SubsetPredicate is memoized per carrier; a callable
    species is evaluated afresh on every call, since it may hold state.
    """
    cache = m._subset_cache
    key = (pred, include_full) if isinstance(pred, SubsetPredicate) else None
    if key in cache:
        return tuple(Subset._of_closed(m, mem) for mem in cache[key])
    if key is not None and pred in _GROUNDS and not classify_basic(m).is_loop:
        # in a loop e is the only idempotent and every nonempty closed set
        # holds it, so the lattice, built once per carrier, serves instead
        candidates = _directed_subsets(m, _GROUNDS[pred])
    else:
        candidates = cache.get("closed")
        if candidates is None:
            candidates = cache["closed"] = _closed_lattice(m)
    full = tuple(range(m.order))
    trivial = (m.identity,)
    items = []
    for mem in candidates:
        if not include_full and (mem == full or mem == trivial):
            continue
        s = Subset._of_closed(m, mem)
        if evaluate_predicate(pred, s):
            items.append(s)
    if key is not None:
        cache[key] = tuple(s.members for s in items)
    return tuple(items)


# ---------------------------------------------------------------------------
# centers, nuclei, associators

def center(m: FiniteMagma) -> Subset:
    t = m.table
    k = m.order
    mem = [x for x in range(k) if all(t[a][x] == t[x][a] for a in range(k))]
    return Subset(m, mem)


@dataclass(frozen=True)
class NucleiReport:
    left: Subset
    middle: Subset
    right: Subset
    nucleus: Subset
    commutant: Subset
    centre: Subset


def nuclei(m: FiniteMagma) -> NucleiReport:
    """Left/middle/right nuclei, their intersection, the commutant and centre."""
    if m.identity is None:
        raise PreconditionError("nuclei require an identity element")
    t = m.table
    rng = range(m.order)
    left = [a for a in rng if all(t[t[a][x]][y] == t[a][t[x][y]] for x in rng for y in rng)]
    middle = [a for a in rng if all(t[t[x][a]][y] == t[x][t[a][y]] for x in rng for y in rng)]
    right = [a for a in rng if all(t[t[x][y]][a] == t[x][t[y][a]] for x in rng for y in rng)]
    nucleus = sorted(set(left) & set(middle) & set(right))
    commutant = center(m)
    centre = sorted(set(nucleus) & set(commutant.members))
    return NucleiReport(
        left=Subset(m, left), middle=Subset(m, middle), right=Subset(m, right),
        nucleus=Subset(m, nucleus), commutant=commutant,
        centre=Subset(m, centre))


def _require_loop(m: FiniteMagma, what: str):
    if not classify_basic(m).is_loop:
        raise PreconditionError(f"{what} requires a loop (latin square with identity)")


def associator_subloop(m: FiniteMagma) -> Subset:
    """Closure of all associators w with (xy)z = (x(yz))*w."""
    _require_loop(m, "associator subloop")
    t = m.table
    rng = range(m.order)
    assoc = set()
    for x in rng:
        for y in rng:
            for z in rng:
                lhs = t[t[x][y]][z]
                base = t[x][t[y][z]]
                assoc.add(m.left_division(base, lhs))
    return generated_closure(m, sorted(assoc))


def commutator_subloop(m: FiniteMagma) -> Subset:
    """Closure of all commutators c with xy = (yx)*c."""
    _require_loop(m, "commutator subloop")
    t = m.table
    rng = range(m.order)
    comms = set()
    for x in rng:
        for y in rng:
            comms.add(m.left_division(t[y][x], t[x][y]))
    return generated_closure(m, sorted(comms))


# ---------------------------------------------------------------------------
# cosets, normality, ideals, conjugacy

def cosets(m: FiniteMagma, h: Subset, a: int, side: str = "right") -> Subset:
    """The translate {h*a} (right) or {a*h} (left); no partition is assumed."""
    _require_subset(m, h, "coset subset")
    _require_index(m, a, "coset representative")
    t = m.table
    if side == "right":
        return Subset(m, {t[x][a] for x in h.members})
    if side == "left":
        return Subset(m, {t[a][x] for x in h.members})
    raise ParameterError(f"side must be 'left' or 'right', got {side!r}")


@dataclass(frozen=True)
class DoubleCosetResult:
    members: Subset
    associativity_assumed: bool   # False when the carrier is not a semigroup


def double_coset(m: FiniteMagma, a: Subset, b: Subset, x: int) -> DoubleCosetResult:
    """All left-associated products (ai*x)*bj."""
    _require_subset(m, a, "left subset")
    _require_subset(m, b, "right subset")
    _require_index(m, x, "double coset element")
    t = m.table
    vals = {t[t[ai][x]][bj] for ai in a.members for bj in b.members}
    return DoubleCosetResult(Subset(m, vals), classify_basic(m).is_semigroup)


def _set_right(t, mem, x):
    return frozenset(t[v][x] for v in mem)


def _set_left(t, x, mem):
    return frozenset(t[x][v] for v in mem)


def _check_normality_mode(m: FiniteMagma, mode: str) -> BasicReport:
    """classify_basic(m), once the mode and its carrier precondition are checked."""
    if mode not in ("subgroup", "subloop", "subgroupoid"):
        raise ParameterError(f"unknown normality mode {mode!r}")
    basic = classify_basic(m)
    if mode == "subgroup" and not basic.is_group:
        raise PreconditionError("subgroup normality requires a group carrier")
    return basic


def is_normal(m: FiniteMagma, h: Subset, mode: str) -> bool:
    """Normality of a closed subset H: xH = Hx, (Hx)y = H(xy) and
    y(xH) = (yx)H for all x, y in the range of the mode.  subloop: x and y
    range over the carrier; subgroupoid: over H itself; subgroup: as subloop,
    on a group carrier only, where xH = Hx is the classical gHg^-1 = H."""
    _require_subset(m, h, "normality subset")
    if not is_closed(h):
        raise PreconditionError("normality is only defined for closed subsets")
    basic = _check_normality_mode(m, mode)
    t = m.table
    mem = h.members
    dom = mem if mode == "subgroupoid" else range(m.order)
    for x in dom:
        hx, xh = _set_right(t, mem, x), _set_left(t, x, mem)
        if hx != xh:
            return False
        # on a semigroup the other two conditions follow from associativity
        if not basic.is_semigroup and any(
                frozenset(t[v][y] for v in hx) != _set_right(t, mem, t[x][y])
                or frozenset(t[y][v] for v in xh) != _set_left(t, t[y][x], mem)
                for y in dom):
            return False
    return True


def literal_xhy_normal(m: FiniteMagma, h: Subset) -> bool:
    """The literal two-sided translate condition {(x*v)*y} = H for all x, y.

    Kept under its own name and deliberately not equated with is_normal: as
    written the condition forces near-degenerate subsets, so the engine
    implements it verbatim rather than guessing intent."""
    _require_subset(m, h, "translate subset")
    t = m.table
    memset = frozenset(h.members)
    for x in range(m.order):
        for y in range(m.order):
            if frozenset(t[t[x][v]][y] for v in h.members) != memset:
                return False
    return True


def is_simple(m: FiniteMagma, mode: str = "subgroupoid") -> bool:
    """No nontrivial (size >= 2) proper normal closed subset exists."""
    _check_normality_mode(m, mode)
    for s in enumerate_closed_subsets(m):
        if len(s) >= 2 and is_normal(m, s, mode):
            return False
    return True


def is_ideal(m: FiniteMagma, p: Subset, side: str = "two_sided") -> bool:
    """Ideal test; p must be closed (the subgroupoid condition)."""
    _require_subset(m, p, "ideal subset")
    if side not in ("left", "right", "two_sided"):
        raise ParameterError(f"side must be left/right/two_sided, got {side!r}")
    if not is_closed(p):
        raise PreconditionError("ideal test requires a closed subset")
    t = m.table
    mem = set(p.members)
    if side != "right" and not all(t[x][a] in mem for x in range(m.order) for a in mem):
        return False
    return side == "left" or all(t[a][x] in mem for x in range(m.order) for a in mem)


PREDICATE_REGISTRY[SubsetPredicate.IS_IDEAL] = lambda s: is_ideal(s.parent, s, "two_sided")
PREDICATE_REGISTRY[SubsetPredicate.IS_LEFT_IDEAL] = lambda s: is_ideal(s.parent, s, "left")
PREDICATE_REGISTRY[SubsetPredicate.IS_RIGHT_IDEAL] = lambda s: is_ideal(s.parent, s, "right")


@dataclass(frozen=True)
class ConjugateWitness:
    index: int
    equations: tuple   # subset of ("xA=Bx", "Ax=xB")


def conjugate_witnesses(m: FiniteMagma, h1: Subset, h2: Subset):
    """All x with x*h1 = h2*x or h1*x = x*h2 (setwise), annotated per equation."""
    for h in (h1, h2):
        _require_subset(m, h, "conjugacy subset")
        if not is_closed(h):
            raise PreconditionError("conjugacy witnesses need closed subsets")
    t = m.table
    out = []
    for x in range(m.order):
        eqs = []
        if _set_left(t, x, h1.members) == _set_right(t, h2.members, x):
            eqs.append("xA=Bx")
        if _set_right(t, h1.members, x) == _set_left(t, x, h2.members):
            eqs.append("Ax=xB")
        if eqs:
            out.append(ConjugateWitness(x, tuple(eqs)))
    return out


def conjugate_pair(m: FiniteMagma, x: int, y: int):
    """Least (a, b) in lexicographic order with a*x = y*b; (y, x) is one."""
    _require_index(m, x, "element")
    _require_index(m, y, "element")
    t = m.table
    for a in range(m.order):
        ax = t[a][x]
        for b in range(m.order):
            if ax == t[y][b]:
                return (a, b)


@dataclass(frozen=True)
class ElementOrders:
    real_order: Optional[int]
    neutro_order: Optional[int]


def element_orders(m: FiniteMagma, x: int) -> ElementOrders:
    """Least k with x^k hitting the identity / the neutrosophic identity.

    Powers are left-associated: x^(j+1) = x^j * x.  An order is absent when
    no such k <= m.order exists or the respective identity is not set.
    """
    _require_index(m, x, "element")
    t = m.table
    real = None
    neutro = None
    p = x
    for k in range(1, m.order + 1):
        if m.identity is not None and p == m.identity and real is None:
            real = k
        if m.neutro_identity is not None and p == m.neutro_identity and neutro is None:
            neutro = k
        if real is not None and neutro is not None:
            break
        p = t[p][x]
    return ElementOrders(real, neutro)


# ---------------------------------------------------------------------------
# maps, isotopes, isomorphism, representation

@dataclass(frozen=True)
class PartialMap:
    """A partial map between magmas, injectively keyed by source index."""
    source: FiniteMagma
    target: FiniteMagma
    pairs: tuple    # ((src, dst), ...)

    @staticmethod
    def from_labels(source, target, mapping):
        return PartialMap(source, target,
                          tuple((source.index(a), target.index(b)) for a, b in mapping))

    def as_dict(self):
        d = {}
        for a, b in self.pairs:
            _require_index(self.source, a, "source")
            _require_index(self.target, b, "target")
            if a in d:
                raise ParameterError(f"source index {a} mapped twice")
            d[a] = b
        return d


def check_homomorphism(f: PartialMap) -> bool:
    """f(x*y) = f(x)*f(y) wherever defined; the neutrosophic identity, when in
    the domain and present on both sides, must map to the neutrosophic identity."""
    d = f.as_dict()
    if not d:
        raise PreconditionError("empty partial map")
    ts, tt = f.source.table, f.target.table
    for x in d:
        for y in d:
            xy = ts[x][y]
            if xy in d and d[xy] != tt[d[x]][d[y]]:
                return False
    ns, nt = f.source.neutro_identity, f.target.neutro_identity
    if ns is not None and nt is not None and ns in d and d[ns] != nt:
        return False
    return True


def principal_isotope(m: FiniteMagma, a: int, b: int) -> FiniteMagma:
    """The isotope x o y = (x/a) * (b\\y); its identity is b*a."""
    _require_loop(m, "principal isotope")
    k = m.order
    table = [[m.table[m.right_division(x, a)][m.left_division(b, y)]
              for y in range(k)] for x in range(k)]
    return FiniteMagma(
        table, labels=m.labels, neutro_mask=m.neutro_mask, neutro_identity=None,
        kind_tag=f"isotope({m.kind_tag},{m.labels[a]},{m.labels[b]})")


def is_isomorphic(m1: FiniteMagma, m2: FiniteMagma):
    """The lexicographically first table-preserving bijection as an index
    list, or None.

    Elements are mapped in index order, each to the least unused target that
    keeps consistent every pair whose operands and product are all mapped.
    When both magmas have a neutrosophic identity, the one maps to the other,
    as check_homomorphism requires.  Raises ResourceLimitError above
    MAX_ISOMORPHISM_ORDER."""
    if m1.order != m2.order:
        return None
    k = m1.order
    if k > MAX_ISOMORPHISM_ORDER:
        raise ResourceLimitError(
            f"isomorphism search capped at order {MAX_ISOMORPHISM_ORDER}, got {k}")
    t1, t2 = m1.table, m2.table
    due = [[] for _ in range(k)]     # due[i]: pairs decided once 0..i are mapped
    for x in range(k):
        for y in range(k):
            due[max(x, y, t1[x][y])].append((x, y))
    phi = [0] * k
    used = [False] * k
    n1, n2 = m1.neutro_identity, m2.neutro_identity
    pinned = n1 is not None and n2 is not None

    def extend(i):
        if i == k:
            return True
        for v in range(k):
            if used[v] or (pinned and (i == n1) != (v == n2)):
                continue
            phi[i] = v
            if all(phi[t1[x][y]] == t2[phi[x]][phi[y]] for x, y in due[i]):
                used[v] = True
                if extend(i + 1):
                    return True
                used[v] = False
        return False

    return phi if extend(0) else None


def right_regular_representation(m: FiniteMagma, a: int):
    """The column permutation x -> x*a as an index tuple."""
    _require_index(m, a, "element")
    col = tuple(m.table[x][a] for x in range(m.order))
    if len(set(col)) != m.order:
        raise PreconditionError(
            f"column of {m.labels[a]} is not a permutation; no representation")
    return col
