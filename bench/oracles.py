"""Independent checks for the benchmark's workloads.

Nothing here calls into neutromagma: every expected value comes from a
computation written apart from the library (a closure-lattice search over int
bitmasks, direct power and product loops) or from a theorem about the inputs.
Each check returns (operations attempted, operations failed, mismatch
descriptions); an empty mismatch list passes.
"""

from math import gcd

# ---------------------------------------------------------------------------
# closure-lattice oracle over int bitmasks


def _rows_as_masks(table):
    return [[1 << v for v in row] for row in table]


def closure_mask(table, bits, mask):
    """Least closed superset of `mask`, multiplying only new elements."""
    new = mask
    while new:
        members = [i for i in range(len(table)) if (mask >> i) & 1]
        fresh = [i for i in members if (new >> i) & 1]
        add = 0
        for x in fresh:
            bx = bits[x]
            for y in members:
                add |= bx[y] | bits[y][x]
        new = add & ~mask
        mask |= new
    return mask


def closed_masks(table):
    """Every nonempty closed subset of the table, as a set of bitmasks,
    by breadth-first search over closure(C | {x})."""
    k = len(table)
    bits = _rows_as_masks(table)
    seen = set()
    frontier = []
    for x in range(k):
        c = closure_mask(table, bits, 1 << x)
        if c not in seen:
            seen.add(c)
            frontier.append(c)
    while frontier:
        nxt = []
        for c in frontier:
            for x in range(k):
                if (c >> x) & 1:
                    continue
                d = closure_mask(table, bits, c | (1 << x))
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    return seen


def members(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def is_associative_on(table, mem):
    for x in mem:
        tx = table[x]
        for y in mem:
            xy = tx[y]
            ty = table[y]
            txy = table[xy]
            for z in mem:
                if txy[z] != tx[ty[z]]:
                    return False
    return True


def semigroup_masks(table, masks):
    """Closed subsets of size >= 2 that are associative under the product."""
    return [c for c in masks
            if c & (c - 1) and is_associative_on(table, members(c))]


def size_poly(masks):
    """size -> number of subsets of that size."""
    poly = {}
    for c in masks:
        s = bin(c).count("1")
        poly[s] = poly.get(s, 0) + 1
    return poly


def _poly_mul(a, b):
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[i + j] = out.get(i + j, 0) + ca * cb
    return out


def _factor(n):
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


# ---------------------------------------------------------------------------
# corpus: the book's values

CORPUS_ENTRIES = 121
# entries where the printed text conflicts with its own arithmetic; every
# other entry reproduces the book exactly
CORPUS_DISCREPANCIES = frozenset({
    "ex-2.1.1-pseudo-claim", "ex-2.1.2-divisibility", "ex-2.1.3-M-3+2I",
    "ex-2.1.3-M-4", "ex-2.1.3-M-4+2I", "ex-2.1.3-P-2+4I", "ex-2.1.3-P-3+I",
    "ex-2.1.3-P-4", "ex-2.1.3-P-4+2I", "ex-2.1.3-P-4I", "ex-4.1.1-relabel",
})


def check_corpus(rows):
    """rows: [(entry id, status)].  Returns (attempted, failed, mismatches)."""
    bad = []
    failed = sum(1 for _, s in rows if s == "fail")
    if len(rows) != CORPUS_ENTRIES or len({i for i, _ in rows}) != CORPUS_ENTRIES:
        bad.append(f"corpus has {len(rows)} rows, want {CORPUS_ENTRIES} distinct entries")
    for eid, status in rows:
        want = "discrepancy" if eid in CORPUS_DISCREPANCIES else "pass"
        if status not in ("fail", want):
            bad.append(f"{eid}: status {status}, want {want}")
    counts = {s: sum(1 for _, x in rows if x == s) for s in ("pass", "discrepancy")}
    if failed == 0 and counts != {"pass": CORPUS_ENTRIES - len(CORPUS_DISCREPANCIES),
                                  "discrepancy": len(CORPUS_DISCREPANCIES)}:
        bad.append(f"corpus summary {counts}")
    return len(rows), failed, bad


# ---------------------------------------------------------------------------
# atlas: closed-form counts and theorems of the two families


def ln_members(n):
    return [m for m in range(2, n) if gcd(m, n) == 1 and gcd(m - 1, n) == 1]


def expected_ln_record(n, m):
    """Flags of the loop L_n(m) that follow from its defining formula."""
    return {
        "order": n + 1,
        "associative": False, "moufang": False, "bol": False, "bruck": False,
        "right_alt": m == 2,
        "left_alt": m == n - 1,
        "commutative": (2 * m) % n == 1,
        "wip": (m * m - m + 1) % n == 0,
        "s_loop": True,
        "cauchy_verdict": "full",
    }


def expected_zn_record(n, t, u):
    """Flags of the groupoid a*b = ta + ub on Z_n (class Z*: t != u, both
    nonzero): associative iff t and u are idempotent mod n, idempotent iff
    t + u = 1, never commutative (a=1, b=0 gives t = u); with no identity
    and no indeterminate there is no Cauchy witness at all."""
    return {
        "order": n,
        "associative": (t * t - t) % n == 0 and (u * u - u) % n == 0,
        "idempotent": (t + u) % n == 1,
        "commutative": False,
        "cauchy_verdict": "vacuous",
    }


def check_atlas(ln_ns, zn_ns, records):
    """records: [(family, params, {field: value})] from atlas_ln / atlas_zn.
    Returns (attempted, failed, mismatches)."""
    bad = []
    want = {}
    for n in ln_ns:
        for m in ln_members(n):
            want[("ln", f"n={n},m={m}")] = expected_ln_record(n, m)
    for n in zn_ns:
        for t in range(1, n):
            for u in range(1, n):
                if t != u:
                    want[("zn:zstar", f"n={n},t={t},u={u}")] = expected_zn_record(n, t, u)
    seen = set()
    for family, params, fields in records:
        key = (family, params)
        if key in seen or key not in want:
            bad.append(f"unexpected atlas member {key}")
            continue
        seen.add(key)
        for f, v in want[key].items():
            if fields.get(f) != v:
                bad.append(f"{family} {params}: {f} = {fields.get(f)!r}, want {v!r}")
    missing = set(want) - seen
    if missing:
        bad.append(f"{len(missing)} atlas members missing, e.g. {sorted(missing)[0]}")
    return len(records), 0, bad


# ---------------------------------------------------------------------------
# tables: facts of algebra per carrier

LAWS = ("associative", "commutative", "idempotent", "moufang1", "moufang2",
        "moufang3", "bol", "bruck_identity", "bruck_inverse", "wip",
        "left_alternative", "right_alternative", "p_groupoid")
PRECONDITION = "precondition"
# ((xy)z)y = x(y(zy)) holds in every semigroup, but the library's formula
# for it tests ((xy)z)y = x(y(zx)); these verdicts are counted as failed
# operations until the formula is mended
KNOWN_FAULT = "moufang2"


def expected_laws(fact):
    """Expected verdict per law from what the carrier is known to be.

    fact is ("semigroup", commutative, kind) with kind one of "group",
    "monoid" (identity, some element without inverse) or "plain" (no
    identity); ("ln", n, m) for the loop family; ("tagged", base fact) for
    the doubling {x, xI}, which is the base times the two-element
    semilattice and so satisfies exactly the base's laws in which both sides
    use the same variables (all laws here), while its tagged elements have
    no inverse."""
    tag = fact[0]
    if tag == "semigroup":
        _, comm, kind = fact
        out = {law: True for law in LAWS}
        out["commutative"] = comm
        out["idempotent"] = False
        # a group satisfies (xy)^-1 = x^-1 y^-1 exactly when it is abelian
        out["bruck_inverse"] = comm if kind == "group" else PRECONDITION
        out["wip"] = True if kind == "group" else PRECONDITION
        return out
    if tag == "ln":
        _, n, m = fact
        out = {law: False for law in LAWS}
        out["commutative"] = (2 * m) % n == 1
        out["wip"] = (m * m - m + 1) % n == 0
        out["left_alternative"] = m == n - 1
        out["right_alternative"] = m == 2
        # every element is its own inverse, so (xy)^-1 = xy = x^-1 y^-1
        out["bruck_inverse"] = True
        # (ij)i = i(ji): both sides reduce to (m^2-m+1)i - m(m-1)j mod n
        out["p_groupoid"] = True
        return out
    if tag == "tagged":
        out = expected_laws(fact[1])
        out["bruck_inverse"] = PRECONDITION
        out["wip"] = PRECONDITION
        return out
    raise ValueError(f"unknown carrier fact {fact!r}")


def expected_basic(fact):
    """(is_semigroup, is_commutative, is_loop, is_group)."""
    laws = expected_laws(fact)
    loop = fact[0] == "ln" or (fact[0] == "semigroup" and fact[2] == "group")
    return (laws["associative"], laws["commutative"], loop,
            loop and laws["associative"])


def check_tables(carriers):
    """carriers: [(name, fact, order, basic, {law: verdict})] with a verdict
    True / False / PRECONDITION.  One operation per (carrier, law)."""
    bad = []
    attempted = failed = 0
    for name, fact, order, basic, verdicts in carriers:
        if tuple(basic) != expected_basic(fact):
            bad.append(f"{name}: classify_basic {basic}, want {expected_basic(fact)}")
        want = expected_laws(fact)
        if set(verdicts) != set(LAWS):
            bad.append(f"{name}: laws checked {sorted(verdicts)}")
        for law in LAWS:
            attempted += 1
            got = verdicts.get(law)
            if got == want[law]:
                continue
            if law == KNOWN_FAULT and want[law] is True and got is False:
                failed += 1
                continue
            bad.append(f"{name}: {law} = {got!r}, want {want[law]!r}")
    return attempted, failed, bad


# ---------------------------------------------------------------------------
# nstruct: per-component counts from the closure-lattice oracle


class ComponentCounts:
    """Closed subsets of one component passing a species, by size."""

    def __init__(self, table, species):
        masks = closed_masks(table)
        if species == "semigroup":
            masks = semigroup_masks(table, masks)
        elif species != "closed":
            raise ValueError(f"no oracle for species {species!r}")
        self.masks = set(masks)
        self.poly = size_poly(masks)
        self.count = len(masks)
        self.full_passes = (1 << len(table)) - 1 in self.masks


def union_poly(comps):
    """Order-sum polynomial of all combinations, less the all-full one."""
    poly = {0: 1}
    for c in comps:
        poly = _poly_mul(poly, c.poly)
    if all(c.full_passes for c in comps):
        total = sum(max(c.poly) for c in comps)
        poly[total] -= 1
    return {k: v for k, v in poly.items() if v}


def lagrange_expectation(comps, order):
    poly = union_poly(comps)
    total = sum(poly.values())
    qualifying = sum(v for k, v in poly.items() if order % k == 0)
    if total == 0:
        verdict = "vacuous"
    elif qualifying == total:
        verdict = "full"
    elif qualifying:
        verdict = "weak"
    else:
        verdict = "free"
    return total, qualifying, verdict


def sylow_expectation(comps, order):
    """(verdict, sought orders that some combination reaches)."""
    poly = union_poly(comps)
    served = {}
    hits = set()
    for p, a in _factor(order):
        size = p ** a
        served[p] = size < order and poly.get(size, 0) > 0
        if served[p]:
            hits.add(size)
    if not poly:
        verdict = "vacuous"
    elif served and all(served.values()):
        verdict = "full"
    elif any(served.values()):
        verdict = "weak"
    else:
        verdict = "free"
    return verdict, hits


def deficit_expectation(comps, t):
    from itertools import combinations
    total = 0
    for live in combinations(comps, len(comps) - t):
        prod = 1
        for c in live:
            prod *= c.count
        total += prod
    return total


def element_orders(table, identity, neutro_identity, x):
    """Least k <= order with x^k (left-associated) at each identity."""
    real = neutro = None
    p = x
    for k in range(1, len(table) + 1):
        if identity is not None and real is None and p == identity:
            real = k
        if neutro_identity is not None and neutro is None and p == neutro_identity:
            neutro = k
        p = table[p][x]
    return real, neutro


def cauchy_expectation(components, order):
    """components: [(table, identity, neutro_identity)].  Every non-identity
    element's order to each identity is checked against the union order;
    full if all divide, weak if each kind of order has a divisor, else free."""
    wits = []
    for table, e, ne in components:
        for x in range(len(table)):
            real, neutro = element_orders(table, e, ne, x)
            if e is not None and x != e and real is not None:
                wits.append(("real", order % real == 0))
            if ne is not None and x != ne and neutro is not None:
                wits.append(("neutro", order % neutro == 0))
    if not wits:
        return "vacuous"
    if all(q for _, q in wits):
        return "full"
    flavors = {f for f, _ in wits}
    if all(any(q for f, q in wits if f == fl) for fl in flavors):
        return "weak"
    return "free"


def check_nstruct(structures, results):
    """structures: name -> (components, species) with components as
    [(table, identity, neutro_identity)]; results: observations of the engine
    calls.  One operation per engine call."""
    counts = {}
    bad = []

    def comps_of(name):
        if name not in counts:
            components, species = structures[name]
            counts[name] = [ComponentCounts(c[0], s) for c, s in zip(components, species)]
        return counts[name]

    for obs in results:
        kind, name = obs[0], obs[1]
        components = structures[name][0]
        order = sum(len(c[0]) for c in components)
        if kind == "lagrange":
            got = tuple(obs[2:])
            want = lagrange_expectation(comps_of(name), order)
            if got != want:
                bad.append(f"n_lagrange {name}: (count, qualifying, verdict) {got}, want {want}")
        elif kind == "sylow":
            verdict, witnesses = obs[2], obs[3]
            want_verdict, hits = sylow_expectation(comps_of(name), order)
            orders = {sum(len(p) for p in w) for w in witnesses}
            if verdict != want_verdict or orders != hits or len(witnesses) != len(hits):
                bad.append(f"n_sylow {name}: {verdict} with orders {sorted(orders)}, "
                           f"want {want_verdict} with {sorted(hits)}")
            for w in witnesses:
                for part, c in zip(w, comps_of(name)):
                    if sum(1 << i for i in part) not in c.masks:
                        bad.append(f"n_sylow {name}: witness part {part} is not of the species")
        elif kind == "deficit":
            t, got = obs[2], obs[3]
            want = deficit_expectation(comps_of(name), t)
            if got != want:
                bad.append(f"deficit {name} t={t}: {got} N-subsets, want {want}")
        elif kind == "cauchy":
            want = cauchy_expectation(components, order)
            if obs[2] != want:
                bad.append(f"n_cauchy {name}: {obs[2]}, want {want}")
        else:
            bad.append(f"unknown nstruct observation {kind!r}")
    return len(results), 0, bad
