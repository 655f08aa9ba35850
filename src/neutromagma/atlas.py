"""Atlas generation: one classification record per family member, with a
footer cross-checking counts the records imply against closed forms.

Every flag is computed by a direct engine call on the member's table; no
formula shortcut ever fills a column.
"""

from __future__ import annotations

import csv
import io
import json
from typing import NamedTuple

from .classify import SKind, cauchy_classify, detect_s_kind, lagrange_classify, sylow_classify
from .constructors import (_phi, factorize, ln, ln_admissible, ln_count, zmod_mult,
                           zn, zn_class_size, zn_params)
from .magma import (FiniteMagma, IdentityLaw, ParameterError,
                    PreconditionError, SubsetPredicate, check_identity_law,
                    classify_basic)

ATLAS_COLUMNS = [
    "family", "params", "order",
    "associative", "commutative", "idempotent",
    "left_alt", "right_alt", "wip",
    "moufang", "bol", "bruck",
    "p_groupoid",
    *(k.value for k in SKind),
    "lagrange_verdict", "sylow_verdict", "cauchy_verdict",
]


class AtlasRecord(NamedTuple):
    """A loop or groupoid family member: its law flags and S-kind flags, keyed
    by their columns, and its Lagrange, Sylow and Cauchy verdicts."""
    family: str
    params: str
    order: int
    flags: dict
    s_flags: dict
    lagrange_verdict: str
    sylow_verdict: str
    cauchy_verdict: str


class ZmodRecord(NamedTuple):
    """zmod_mult(n): its idempotent count, the order of its largest subgroup
    holding 1, whether it is an S-semigroup, and its group-species Lagrange
    witness count and verdict."""
    family: str
    params: str
    order: int
    idempotents: int
    unit_group: int
    s_semigroup: bool
    subgroups: int
    lagrange_verdict: str


def _cells(record, columns):
    """The record's CSV cells under columns: a dict field gives one cell per
    key, and a bool is written as 0 or 1."""
    named = {}
    for field, v in record._asdict().items():
        named.update(v if isinstance(v, dict) else {field: v})
    return [int(named[c]) if type(named[c]) is bool else named[c] for c in columns]


def _law_flag(m, law):
    try:
        return check_identity_law(m, law).holds
    except PreconditionError:
        return False   # inverse-dependent law on a carrier without inverses


def classify_member(family: str, params: str, m: FiniteMagma) -> AtlasRecord:
    basic = classify_basic(m)
    flags = {
        "associative": basic.is_semigroup,
        "commutative": basic.is_commutative,
        "idempotent": check_identity_law(m, IdentityLaw.IDEMPOTENT).holds,
        "left_alt": check_identity_law(m, IdentityLaw.LEFT_ALTERNATIVE).holds,
        "right_alt": check_identity_law(m, IdentityLaw.RIGHT_ALTERNATIVE).holds,
        "wip": _law_flag(m, IdentityLaw.WIP),
        "moufang": any(_law_flag(m, l) for l in
                       (IdentityLaw.MOUFANG1, IdentityLaw.MOUFANG2, IdentityLaw.MOUFANG3)),
        "bol": _law_flag(m, IdentityLaw.BOL),
        "bruck": (_law_flag(m, IdentityLaw.BRUCK_IDENTITY)
                  and _law_flag(m, IdentityLaw.BRUCK_INVERSE)),
        "p_groupoid": _law_flag(m, IdentityLaw.P_GROUPOID),
    }
    s_flags = {k.value: detect_s_kind(m, k).holds for k in SKind}
    species = SubsetPredicate.IS_GROUP if basic.is_loop else SubsetPredicate.IS_SEMIGROUP
    lag = lagrange_classify(m, species).verdict.value
    syl = sylow_classify(m, species).verdict.value
    cau = cauchy_classify(m).verdict.value
    return AtlasRecord(family, params, m.order, flags, s_flags, lag, syl, cau)


def atlas_ln(n_values):
    """Records for every admissible member over the given n values, plus the
    per-n (count, formula) footer pairs."""
    records = []
    footer = []
    for n in n_values:
        ms = ln_admissible(n)
        for m in ms:
            records.append(classify_member("ln", f"n={n},m={m}", ln(n, m)))
        footer.append((f"n={n}", len(ms), ln_count(n)))
    return records, footer


def atlas_zn(n_values, cls="zstar"):
    records = []
    footer = []
    for n in n_values:
        params = zn_params(n, cls)
        for (t, u) in params:
            records.append(classify_member(
                f"zn:{cls}", f"n={n},t={t},u={u}", zn(n, t, u, cls)))
        footer.append((f"n={n}", len(params), zn_class_size(n, cls)))
    return records, footer


def atlas_zmod(n_values):
    """Records for zmod_mult(n) over the given n, plus two footer pairs per n
    from the Chinese remainder theorem: Z_n has 2^omega(n) idempotents, and
    its largest subgroup holding 1 is the unit group, of order phi(n).  For
    n >= 2 the carrier is no loop, so both species queries are directed."""
    records = []
    footer = []
    for n in n_values:
        m = zmod_mult(n)
        s_semigroup = detect_s_kind(m, SKind.S_SEMIGROUP).holds
        rep = lagrange_classify(m, SubsetPredicate.IS_GROUP)
        idempotents = sum(m.table[x][x] == x for x in range(n))
        # a subgroup holding 1 has identity 1; {1} alone is no witness
        units = max((w.order for w in rep.witnesses if 1 % n in w.subset), default=1)
        records.append(ZmodRecord("zmod", f"n={n}", n, idempotents, units, s_semigroup,
                                  len(rep.witnesses), rep.verdict.value))
        footer.append((f"n={n} idempotents", idempotents, 2 ** len(factorize(n))))
        footer.append((f"n={n} unit_group", units, _phi(n)))
    return records, footer


def render_csv(records, footer, columns=ATLAS_COLUMNS) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(columns)
    for r in records:
        w.writerow(_cells(r, columns))
    for name, count, formula in footer:
        w.writerow([f"#count {name}", count, formula,
                    "match" if count == formula else "MISMATCH"])
    return buf.getvalue()


def render_json(records, footer) -> str:
    doc = {
        "records": [r._asdict() for r in records],
        "footer": [
            {"name": n, "count": c, "formula": f, "match": c == f}
            for n, c, f in footer],
    }
    return json.dumps(doc, indent=1) + "\n"


def counts_match(footer) -> bool:
    return all(c == f for _, c, f in footer)


def parse_range(spec: str):
    """'5..25' -> range, '5,7,9' or '7' -> list of ints; ParameterError otherwise."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            return range(int(lo), int(hi) + 1)
        return [int(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        raise ParameterError(f"range {spec!r} is not like 5..25, 5,7,9 or 7") from None
