"""Closed-subset lattices answer as recorded in tests/data/lattices.json.

The file holds, for each carrier, the count and a sha256 of every closed
subset (`enumerate_closed_subsets(m, include_full=True)`) and of every
subgroup (`IS_GROUP`), as member lists.  The carriers cover each closure
path of the search: a non-commutative semigroup, a group, commutative
semigroups and non-associative carriers.  Regenerate the file with
`PYTHONPATH=src python tests/test_lattice_golden.py` only when a lattice is
meant to change.
"""

import hashlib
import json
from pathlib import Path

import neutromagma as nm

GOLDEN = Path(__file__).parent / "data" / "lattices.json"

CARRIERS = [
    ("symmetric_semigroup(3)", lambda: nm.symmetric_semigroup(3)),
    ("symmetric_group(4)", lambda: nm.symmetric_group(4)),
    ("zmod_mult(36)", lambda: nm.zmod_mult(36)),
    ("zn_line_neutro(15)", lambda: nm.zn_line_neutro(15)),
    ("zn_full_neutro(5)", lambda: nm.zn_full_neutro(5)),
    ("ln(21,5)", lambda: nm.ln(21, 5)),
    ("tagged(ln(15,2))", lambda: nm.extend_tagged(nm.ln(15, 2))),
    ("zn(12,2,4)", lambda: nm.zn(12, 2, 4)),
    ("zn_affine_neutro(8,3,5)", lambda: nm.zn_affine_neutro(8, 3, 5)),
]


def _digest(subsets):
    members = [list(s.members) for s in subsets]
    text = json.dumps(members, separators=(",", ":"))
    return {"count": len(members), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def record():
    doc = {}
    for name, build in CARRIERS:
        m = build()
        doc[name] = {
            "closed": _digest(nm.enumerate_closed_subsets(m, include_full=True)),
            "groups": _digest(nm.enumerate_closed_subsets(m, nm.SubsetPredicate.IS_GROUP)),
        }
    return doc


def test_lattices_match_golden():
    assert record() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
