"""Command-line surface.

Exit codes: 0 success, 1 corpus failure, 2 usage or parameter error,
3 IO failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import atlas as atlas_mod
from .classify import (SKind, cauchy_classify, detect_s_kind,
                       lagrange_classify, sylow_classify)
from .constructors import (alternating, cyclic, dihedral, direct_product, ln,
                           symmetric_group, symmetric_semigroup, zmod_mult, zn)
from .magma import (IdentityLaw, ParameterError, PreconditionError,
                    ResourceLimitError, SubsetPredicate,
                    check_identity_law, classify_basic, conjugate_witnesses,
                    cosets, enumerate_closed_subsets, require_order)
from .neutro import (extend_tagged, zn_affine_neutro, zn_full_neutro,
                     zn_line_neutro, zn_units_neutro)
from .nstruct import classify_n_kind, n_cauchy, n_lagrange, n_sylow
from .serialize import (load_magma, load_nstructure, magma_to_dict,
                        save_magma)

# the most Lagrange witnesses a JSON document of `nstruct` lists
DEFAULT_COMBINATION_CAP = 10 ** 6

# the species names: each member name without "IS_", aliases included
SPECIES = {name[3:].lower().replace("_", "-"): p
           for name, p in SubsetPredicate.__members__.items()}


def _product(args):
    if not (args.left and args.right):
        raise ParameterError("family product needs --left and --right")
    return direct_product(load_magma(args.left), load_magma(args.right))


# family name -> builder from the parsed arguments
FAMILIES = {
    "ln": lambda a: ln(a.n, a.m),
    "zn": lambda a: zn(a.n, a.t, a.u, a.zclass),
    "zmod": lambda a: zmod_mult(a.n),
    "cyclic": lambda a: cyclic(a.n),
    "sym": lambda a: symmetric_group(a.n),
    "alt": lambda a: alternating(a.n),
    "dihedral": lambda a: dihedral(a.n),
    "symsemi": lambda a: symmetric_semigroup(a.n),
    "zn-full-neutro": lambda a: zn_full_neutro(a.n),
    "zn-line-neutro": lambda a: zn_line_neutro(a.n),
    "zn-units-neutro": lambda a: zn_units_neutro(a.n),
    "zn-affine-neutro": lambda a: zn_affine_neutro(a.n, a.t, a.u),
    "product": _product,
}


def _emit(doc) -> int:
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


def _construct(args) -> int:
    build = FAMILIES.get(args.family)
    if build is None:
        raise ParameterError(f"unknown family {args.family!r}")
    m = build(args)
    if args.tagged:
        m = extend_tagged(m)
    if args.out:
        save_magma(m, args.out)
        return 0
    return _emit(magma_to_dict(m))


def _classify(args) -> int:
    m = load_magma(args.path)
    basic = classify_basic(m)
    laws = {}
    for law in IdentityLaw:
        try:
            laws[law.value] = check_identity_law(m, law).holds
        except PreconditionError as exc:
            laws[law.value] = f"undefined ({exc})"
    s_flags = {k.value: detect_s_kind(m, k).holds for k in SKind}
    return _emit({
        "kind": m.kind_tag,
        "order": m.order,
        "is_semigroup": basic.is_semigroup,
        "is_commutative": basic.is_commutative,
        "is_loop": basic.is_loop,
        "is_group": basic.is_group,
        "identity": None if basic.identity is None else m.labels[basic.identity],
        "inverses_exist": basic.inverses_exist,
        "laws": laws,
        "s_flags": s_flags,
    })


def _subset_from_args(m, spec):
    labels = [s for s in spec.split(",") if s]
    return m.subset(labels)


def _subsets(args) -> int:
    m = load_magma(args.path)
    found = enumerate_closed_subsets(m, SPECIES[args.species])
    return _emit({"species": args.species, "subsets": [s.labels() for s in found]})


def _cosets(args) -> int:
    m = load_magma(args.path)
    h = _subset_from_args(m, args.subset)
    c = cosets(m, h, m.index(args.element), args.side)
    return _emit({"coset": c.labels()})


def _conjugate(args) -> int:
    m = load_magma(args.path)
    ws = conjugate_witnesses(m, _subset_from_args(m, args.h1),
                             _subset_from_args(m, args.h2))
    return _emit({"witnesses": [{"element": m.labels[w.index],
                                 "equations": list(w.equations)} for w in ws]})


def _engine(args) -> int:
    m = load_magma(args.path)
    if args.command == "lagrange":
        rep = lagrange_classify(m, SPECIES[args.species])
    elif args.command == "sylow":
        rep = sylow_classify(m, SPECIES[args.species], args.variant)
    else:
        rep = cauchy_classify(m)
    return _emit(rep.to_dict())


def _nstruct(args) -> int:
    ns = load_nstructure(args.path)
    verdict = classify_n_kind(ns)
    doc = {"name": ns.name, "n": ns.n, "order": ns.order,
           "kinds": verdict.true_flags()}
    if args.engine:
        if args.engine == "cauchy":
            doc["report"] = n_cauchy(ns).to_dict()
        else:
            names = [s for s in args.species.split(",") if s]
            if not names:
                names = ["subgroupoid"] * ns.n
            if len(names) != ns.n:
                raise ParameterError(
                    f"need {ns.n} species (one per component), got {len(names)}")
            unknown = [s for s in names if s not in SPECIES]
            if unknown:
                raise ParameterError(f"unknown species {unknown[0]!r}; "
                                     f"choose from {', '.join(sorted(SPECIES))}")
            species = [SPECIES[s] for s in names]
            if args.engine == "lagrange":
                rep = n_lagrange(ns, species)
                if len(rep.witnesses) > DEFAULT_COMBINATION_CAP:
                    raise ResourceLimitError("combination count exceeds the "
                                             f"{DEFAULT_COMBINATION_CAP} guard")
                doc["report"] = rep.to_dict()
            else:
                doc["report"] = n_sylow(ns, species).to_dict()
    return _emit(doc)


# atlas family -> (its sweep from the n values and the arguments, its columns)
_ATLAS = {
    "ln": (lambda ns, a: atlas_mod.atlas_ln(n for n in ns if n > 3 and n % 2 == 1),
           atlas_mod.ATLAS_COLUMNS),
    "zn": (lambda ns, a: atlas_mod.atlas_zn(ns, a.zclass), atlas_mod.ATLAS_COLUMNS),
    "zmod": (lambda ns, a: atlas_mod.atlas_zmod(ns), atlas_mod.ZmodRecord._fields),
}


def _atlas(args) -> int:
    ns = atlas_mod.parse_range(args.n)
    if args.family not in _ATLAS:
        raise ParameterError(
            f"atlas supports families {', '.join(_ATLAS)}, got {args.family!r}")
    sweep, columns = _ATLAS[args.family]
    # refused before anything is built; ln(n, m) has order n + 1, the others n
    top = max(ns[-1:] if isinstance(ns, range) else ns, default=0)
    require_order(top + (args.family == "ln"), f"the {args.family} member for n={top}")
    records, footer = sweep(ns, args)
    text = atlas_mod.render_json(records, footer) if args.format == "json" \
        else atlas_mod.render_csv(records, footer, columns)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if atlas_mod.counts_match(footer) else 1


def _verify_corpus(args) -> int:
    # imported here, so the other commands do not load the corpus
    from . import corpus as corpus_mod
    rows = corpus_mod.run_corpus(args.filter)
    sys.stdout.write(corpus_mod.format_rows(rows))
    counts = corpus_mod.summarize(rows)
    return 1 if counts["fail"] else 0


def build_parser():
    p = argparse.ArgumentParser(prog="neutromagma")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a family member as a JSON magma")
    c.add_argument("--family", required=True)
    c.add_argument("--n", type=int, default=0)
    c.add_argument("--m", type=int, default=0)
    c.add_argument("--t", type=int, default=0)
    c.add_argument("--u", type=int, default=0)
    c.add_argument("--class", dest="zclass", default="zstar")
    c.add_argument("--left")
    c.add_argument("--right")
    c.add_argument("--tagged", action="store_true",
                   help="apply the neutrosophic tagged doubling")
    c.add_argument("--out")
    c.set_defaults(fn=_construct)

    d = sub.add_parser("classify", help="basic flags, identity laws, S-detections")
    d.add_argument("path")
    d.set_defaults(fn=_classify)

    s = sub.add_parser("subsets", help="enumerate closed subsets of a species")
    s.add_argument("path")
    s.add_argument("--species", default="subgroupoid", choices=sorted(SPECIES))
    s.set_defaults(fn=_subsets)

    co = sub.add_parser("cosets", help="translate a subset by an element")
    co.add_argument("path")
    co.add_argument("--subset", required=True, help="comma separated labels")
    co.add_argument("--element", required=True)
    co.add_argument("--side", default="right", choices=["left", "right"])
    co.set_defaults(fn=_cosets)

    cj = sub.add_parser("conjugate", help="conjugating witnesses for two subsets")
    cj.add_argument("path")
    cj.add_argument("--h1", required=True)
    cj.add_argument("--h2", required=True)
    cj.set_defaults(fn=_conjugate)

    for name in ("lagrange", "sylow", "cauchy"):
        e = sub.add_parser(name, help=f"{name} classification report")
        e.add_argument("path")
        if name != "cauchy":
            e.add_argument("--species", default="group", choices=sorted(SPECIES))
        if name == "sylow":
            e.add_argument("--variant", default="standard",
                           choices=["standard", "super", "semi"])
        e.set_defaults(fn=_engine)

    n = sub.add_parser("nstruct", help="classify an N-structure manifest")
    n.add_argument("path")
    n.add_argument("--engine", choices=["lagrange", "sylow", "cauchy"])
    n.add_argument("--species", default="",
                   help="comma separated species, one per component")
    n.set_defaults(fn=_nstruct)

    a = sub.add_parser("atlas", help="sweep a family and emit records")
    a.add_argument("--family", required=True)
    a.add_argument("--n", required=True, help="range like 5..25 or 5,7,9")
    a.add_argument("--class", dest="zclass", default="zstar")
    a.add_argument("--format", default="csv", choices=["csv", "json"])
    a.add_argument("--out")
    a.set_defaults(fn=_atlas)

    v = sub.add_parser("verify-corpus", help="run the book-example corpus")
    v.add_argument("--filter", help="id glob, e.g. 'ex-2.1.3*'")
    v.set_defaults(fn=_verify_corpus)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParameterError, PreconditionError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
