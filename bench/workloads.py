"""The benchmark's workloads.

Each workload draws its inputs from the seed in `setup` (untimed, counted in
setup_s), lists its operations as (call, observe) pairs whose calls are the
timed region, and checks the observations with the independent oracles.
Library functions are always reached through their module at call time, so
a traced run sees the rebound names.  `corruptions` damages the
observations in one way per kind of check, for the checks' self-test: each
damaged copy must be rejected.
"""

import json
import random

import oracles
from oracles import PRECONDITION


def relabeled(doc, perm):
    """A magma document with element i moved to index perm[i]."""
    k = len(perm)
    table = [[0] * k for _ in range(k)]
    for x, row in enumerate(doc["table"]):
        px = table[perm[x]]
        for y, v in enumerate(row):
            px[perm[y]] = perm[v]
    out = dict(doc)
    out["table"] = table
    out["labels"] = [None] * k
    out["neutro_mask"] = [None] * k
    for i in range(k):
        out["labels"][perm[i]] = doc["labels"][i]
        out["neutro_mask"][perm[i]] = doc["neutro_mask"][i]
    for key in ("identity", "neutro_identity"):
        if doc[key] is not None:
            out[key] = perm[doc[key]]
    return out


def _permutation(rng, k):
    perm = list(range(k))
    rng.shuffle(perm)
    return perm


class Corpus:
    """Every entry of the book corpus, as `verify-corpus` runs it.  The
    inputs are the book's own examples, so the seed does not enter."""

    def setup(self, seed):
        from neutromagma import corpus
        return corpus

    def operations(self, corpus):
        return [(corpus.run_corpus, lambda rows: [(r.id, r.status) for r in rows])]

    def check(self, corpus, observations):
        return oracles.check_corpus(observations[0])

    def corruptions(self, observations):
        rows = list(observations[0])
        eid, status = rows[0]
        rows[0] = (eid, "discrepancy" if status == "pass" else "pass")
        return [[rows], [observations[0][:-1]]]


class Atlas:
    """`atlas_ln` over odd n in 5..21 (orders 6 to 22, both sides of the
    order-16 power-set bound) and `atlas_zn` over class Z* for n in 3..10:
    311 small fresh carriers, each searched once and then queried by every
    species.  The seed shuffles the order of the n values."""

    LN = list(range(5, 22, 2))
    ZN = list(range(3, 11))

    def setup(self, seed):
        from neutromagma import atlas
        rng = random.Random(seed)
        ln_ns, zn_ns = list(self.LN), list(self.ZN)
        rng.shuffle(ln_ns)
        rng.shuffle(zn_ns)
        return atlas, ln_ns, zn_ns

    def operations(self, state):
        atlas, ln_ns, zn_ns = state
        return [(lambda: atlas.atlas_ln(ln_ns), self._observe),
                (lambda: atlas.atlas_zn(zn_ns), self._observe)]

    @staticmethod
    def _observe(result):
        records, _footer = result
        out = []
        for r in records:
            fields = dict(r.flags)
            fields.update(r.s_flags)
            fields["order"] = r.order
            fields["cauchy_verdict"] = r.cauchy_verdict
            out.append((r.family, r.params, fields))
        return out

    def check(self, state, observations):
        _, ln_ns, zn_ns = state
        return oracles.check_atlas(ln_ns, zn_ns, observations[0] + observations[1])

    def corruptions(self, observations):
        out = []
        for i, field in ((0, "commutative"), (1, "associative"), (1, "cauchy_verdict")):
            family, params, fields = observations[i][0]
            fields = dict(fields, **{field: "free" if field == "cauchy_verdict"
                                     else not fields[field]})
            damaged = list(observations)
            damaged[i] = [(family, params, fields)] + observations[i][1:]
            out.append(damaged)
        return out + [[observations[0][1:], observations[1]]]


def _carriers(C, N):
    """(name, order, build, fact) for the tables workload; facts as in
    oracles.expected_laws."""
    return [
        ("zmod_mult(120)", 120, lambda: C.zmod_mult(120), ("semigroup", True, "monoid")),
        ("cyclic(96)", 96, lambda: C.cyclic(96), ("semigroup", True, "group")),
        ("symmetric_group(4) x cyclic(3)", 72,
         lambda: C.direct_product(C.symmetric_group(4), C.cyclic(3)),
         ("semigroup", False, "group")),
        ("dihedral(5) x zmod_mult(6)", 60,
         lambda: C.direct_product(C.dihedral(5), C.zmod_mult(6)),
         ("semigroup", False, "monoid")),
        ("dihedral(24)", 48, lambda: C.dihedral(24), ("semigroup", False, "group")),
        ("symmetric_semigroup(3)", 27, lambda: C.symmetric_semigroup(3),
         ("semigroup", False, "monoid")),
        ("zn_full_neutro(8)", 64, lambda: N.zn_full_neutro(8), ("semigroup", True, "monoid")),
        ("tagged(cyclic(32))", 64, lambda: N.extend_tagged(C.cyclic(32)),
         ("tagged", ("semigroup", True, "group"))),
        ("ln(127,2)", 128, lambda: C.ln(127, 2), ("ln", 127, 2)),
        ("ln(63,62)", 64, lambda: C.ln(63, 62), ("ln", 63, 62)),
        ("tagged(ln(31,2))", 64, lambda: N.extend_tagged(C.ln(31, 2)),
         ("tagged", ("ln", 31, 2))),
    ]


class Tables:
    """Large associative carriers and large loops: construct, round-trip
    through JSON, then classify_basic and all 13 identity laws.  No subset
    search.  The seed shuffles the carriers and relabels each one by a
    random permutation on the way through JSON; no verdict depends on the
    labelling."""

    def setup(self, seed):
        from neutromagma import constructors, magma, neutro, serialize
        rng = random.Random(seed)
        carriers = _carriers(constructors, neutro)
        rng.shuffle(carriers)
        plan = [(name, build, fact, _permutation(rng, order))
                for name, order, build, fact in carriers]
        return magma, serialize, plan

    def operations(self, state):
        magma, serialize, plan = state

        def run(build, perm):
            doc = serialize.magma_to_dict(build())
            m = serialize.magma_from_dict(json.loads(json.dumps(relabeled(doc, perm))))
            basic = magma.classify_basic(m)
            verdicts = {}
            for law in magma.IdentityLaw:
                try:
                    verdicts[law.value] = magma.check_identity_law(m, law).holds
                except magma.PreconditionError:
                    verdicts[law.value] = PRECONDITION
            return m.order, basic, verdicts

        def observer(name, fact):
            def observe(result):
                order, b, verdicts = result
                basic = (b.is_semigroup, b.is_commutative, b.is_loop, b.is_group)
                return name, fact, order, basic, verdicts
            return observe

        return [(lambda b=build, p=perm: run(b, p), observer(name, fact))
                for name, build, fact, perm in plan]

    def check(self, state, observations):
        return oracles.check_tables(observations)

    def corruptions(self, observations):
        name, fact, order, basic, verdicts = observations[0]
        flipped = dict(verdicts, associative=not verdicts["associative"])
        return [[(name, fact, order, basic, flipped)] + observations[1:],
                [(name, fact, order, (not basic[0],) + basic[1:], verdicts)]
                + observations[1:]]


def _structures(C, N):
    """name -> ([(build, declared kind)], species, engine calls)."""
    return {
        # 645 * 42 * 12 closed subsets: 325,080 combinations, union order 34
        "lagrange": ([(lambda: N.zn_full_neutro(4), "neutrosophic-semigroup"),
                      (lambda: C.zmod_mult(10), "semigroup"),
                      (lambda: N.zn_units_neutro(5), "neutrosophic-group")],
                     "closed", [("lagrange",), ("cauchy",)]),
        # 203 * 54 * 10 subsemigroups: 109,620 combinations, union order 33
        "sylow": ([(lambda: N.zn_line_neutro(6), "neutrosophic-semigroup"),
                   (lambda: C.zmod_mult(14), "semigroup"),
                   (lambda: N.zn_units_neutro(5), "neutrosophic-group")],
                  "semigroup", [("sylow",), ("cauchy",)]),
        # 168, 210, 61 and 42 closed subsets: 76,776 N-subsets on two live
        # components, 481 on one
        "deficit": ([(lambda: C.zmod_mult(12), "semigroup"),
                     (lambda: N.zn_line_neutro(6), "neutrosophic-semigroup"),
                     (lambda: N.zn_full_neutro(3), "neutrosophic-semigroup"),
                     (lambda: C.zmod_mult(10), "semigroup")],
                    "closed", [("deficit", 2), ("deficit", 3), ("cauchy",)]),
    }


class NStruct:
    """N-combination engines on unions of components of order <= 16.  The
    seed permutes each union's components and relabels each component."""

    def setup(self, seed):
        from neutromagma import constructors, magma, neutro, nstruct, serialize
        rng = random.Random(seed)
        species_of = {"closed": magma.SubsetPredicate.IS_SUBGROUPOID,
                      "semigroup": magma.SubsetPredicate.IS_SEMIGROUP}
        built = {}
        for name, (parts, species, calls) in _structures(constructors, neutro).items():
            parts = list(parts)
            rng.shuffle(parts)
            comps = []
            for build, _kind in parts:
                doc = serialize.magma_to_dict(build())
                comps.append(serialize.magma_from_dict(
                    relabeled(doc, _permutation(rng, doc["order"]))))
            ns = nstruct.build_n_structure(comps, [kind for _, kind in parts], name)
            built[name] = (ns, [species_of[species]] * len(comps), species, calls)
        return nstruct, built

    def operations(self, state):
        nstruct, built = state
        ops = []
        for name, (ns, species, _, calls) in built.items():
            for call in calls:
                if call[0] == "lagrange":
                    ops.append((lambda ns=ns, sp=species: nstruct.n_lagrange(ns, sp),
                                lambda r, name=name: (
                                    "lagrange", name, len(r.witnesses),
                                    sum(1 for w in r.witnesses if w.qualifies),
                                    r.verdict.value)))
                elif call[0] == "sylow":
                    ops.append((lambda ns=ns, sp=species: nstruct.n_sylow(ns, sp),
                                lambda r, name=name: (
                                    "sylow", name, r.verdict.value,
                                    [w.subset.per_component for w in r.witnesses])))
                elif call[0] == "deficit":
                    t = call[1]
                    ops.append((lambda ns=ns, sp=species, t=t:
                                nstruct.deficit_substructures(ns, t, sp),
                                lambda r, name=name, t=t: ("deficit", name, t, len(r))))
                else:
                    ops.append((lambda ns=ns: nstruct.n_cauchy(ns),
                                lambda r, name=name: ("cauchy", name, r.verdict.value)))
        return ops

    def check(self, state, observations):
        _, built = state
        structures = {
            name: ([(c.table, c.identity, c.neutro_identity) for c in ns.components],
                   [species] * ns.n)
            for name, (ns, _, species, _) in built.items()}
        return oracles.check_nstruct(structures, observations)

    def corruptions(self, observations):
        """One damaged copy per observation: a count off by one, a verdict
        changed or a Sylow witness dropped."""
        out = []
        for i, obs in enumerate(observations):
            if obs[0] == "lagrange":
                bad = obs[:3] + (obs[3] + 1, obs[4])
            elif obs[0] == "deficit":
                bad = obs[:3] + (obs[3] + 1,)
            elif obs[0] == "sylow":
                bad = obs[:3] + (obs[3][1:],)
            else:
                bad = obs[:2] + ("full" if obs[2] != "full" else "free",)
            out.append(observations[:i] + [bad] + observations[i + 1:])
        return out


WORKLOADS = {"corpus": Corpus(), "atlas": Atlas(), "nstruct": NStruct(), "tables": Tables()}
