"""Every identity law on large carriers answers as recorded in tests/data/laws.json.

The file holds (holds, witness), or the precondition message, of all 13 laws
on each carrier and on one seeded random subset domain of it.  Regenerate it
with `PYTHONPATH=src python tests/test_law_golden.py` only when a verdict is
meant to change.
"""

import json
import random
from pathlib import Path

import neutromagma as nm

GOLDEN = Path(__file__).parent / "data" / "laws.json"
SEED = 20061018

# the carriers of the benchmark's tables workload, the order-64 affine
# groupoid of the corpus, then loops and semigroups of order MAX_ORDER;
# append new carriers at the end, so the seeded domains before them stay put
CARRIERS = [
    ("zmod_mult(120)", lambda: nm.zmod_mult(120)),
    ("cyclic(96)", lambda: nm.cyclic(96)),
    ("symmetric_group(4) x cyclic(3)",
     lambda: nm.direct_product(nm.symmetric_group(4), nm.cyclic(3))),
    ("dihedral(5) x zmod_mult(6)",
     lambda: nm.direct_product(nm.dihedral(5), nm.zmod_mult(6))),
    ("dihedral(24)", lambda: nm.dihedral(24)),
    ("symmetric_semigroup(3)", lambda: nm.symmetric_semigroup(3)),
    ("zn_full_neutro(8)", lambda: nm.zn_full_neutro(8)),
    ("tagged(cyclic(32))", lambda: nm.extend_tagged(nm.cyclic(32))),
    ("ln(127,2)", lambda: nm.ln(127, 2)),
    ("ln(63,62)", lambda: nm.ln(63, 62)),
    ("tagged(ln(31,2))", lambda: nm.extend_tagged(nm.ln(31, 2))),
    ("zn_affine_neutro(8,3,5)", lambda: nm.zn_affine_neutro(8, 3, 5)),
    ("ln(255,2)", lambda: nm.ln(255, 2)),
    ("ln(255,254)", lambda: nm.ln(255, 254)),
    ("cyclic(256)", lambda: nm.cyclic(256)),
    ("zmod_mult(256)", lambda: nm.zmod_mult(256)),
]


def _answer(m, law, domain):
    try:
        r = nm.check_identity_law(m, law, domain=domain)
    except nm.PreconditionError as exc:
        return {"error": str(exc)}
    return {"holds": r.holds, "witness": None if r.witness is None else list(r.witness)}


def record():
    rng = random.Random(SEED)
    doc = {}
    for name, build in CARRIERS:
        m = build()
        members = sorted(rng.sample(range(m.order), rng.randint(1, m.order)))
        sub = nm.Subset(m, members)
        doc[name] = {
            "domain": members,
            "carrier": {law.value: _answer(m, law, None) for law in nm.IdentityLaw},
            "subset": {law.value: _answer(m, law, sub) for law in nm.IdentityLaw},
        }
    return doc


def test_laws_match_golden():
    assert record() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
