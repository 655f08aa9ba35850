"""A seeded mutation fuzzer for the command-line document boundary.

Valid magma and N-structure documents of small carriers are mutated one
field at a time (dropped, duplicated or retyped) and fed to every command
that reads a document.  Each call must answer (exit 0) or refuse with a
parameter error (exit 2); no exception may escape.
"""

import copy
import json
import random

import neutromagma as nm
from neutromagma.cli import main
from neutromagma.serialize import magma_to_dict, nstructure_to_dict

SEED = 20060131
CASES = 300
# values of other JSON types that a field is retyped to
RETYPES = [None, True, False, 0, -1, 7, 10 ** 6, 1.5, "", "x", "0", [], [0], {}, {"x": 0}]

MAGMAS = [nm.cyclic(4), nm.zmod_mult(4), nm.zn_line_neutro(3), nm.extend_tagged(nm.cyclic(2))]
NSTRUCTURES = [nm.build_n_structure([nm.cyclic(2), nm.zn_line_neutro(3)],
                                    ["group", "neutrosophic-semigroup"], "pair")]


def magma_commands(path, labels):
    """Every command on a magma document, with subsets named by its labels."""
    h, x = ",".join(labels[:2]), labels[-1]
    return [["classify", path], ["subsets", path, "--species", "group"],
            ["cosets", path, "--subset", h, "--element", x],
            ["conjugate", path, "--h1", h, "--h2", labels[0]],
            ["lagrange", path], ["sylow", path, "--variant", "semi"], ["cauchy", path]]


def nstruct_commands(path, labels):
    return [["nstruct", path], ["nstruct", path, "--engine", "cauchy"],
            ["nstruct", path, "--engine", "lagrange"],
            ["nstruct", path, "--engine", "sylow", "--species", "group,semigroup"]]


def fields(node, path=()):
    """The path of every value below the document root."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from fields(value, path + (key,))


def mutate(doc, rng):
    """doc with one random field dropped, duplicated or retyped."""
    doc = copy.deepcopy(doc)
    *head, key = rng.choice(list(fields(doc)))
    box = doc
    for k in head:
        box = box[k]
    how = rng.choice(["drop", "duplicate", "retype"])
    if how == "drop":
        del box[key]
    elif how == "retype":
        box[key] = copy.deepcopy(rng.choice(RETYPES))
    elif isinstance(box, list):
        box.insert(key, copy.deepcopy(box[key]))
    else:       # a dict: the value also takes the place of a sibling field
        box[rng.choice(list(box))] = copy.deepcopy(box[key])
    return doc


def test_mutated_documents_answer_or_refuse(tmp_path, capsys):
    rng = random.Random(SEED)
    seeds = [(magma_to_dict(m), m.labels, magma_commands) for m in MAGMAS]
    seeds += [(nstructure_to_dict(ns), ns.components[0].labels, nstruct_commands)
              for ns in NSTRUCTURES]
    path = tmp_path / "doc.json"
    codes = {0: 0, 2: 0}
    for case in range(CASES):
        doc, labels, commands = rng.choice(seeds)
        path.write_text(json.dumps(mutate(doc, rng)))
        argv = rng.choice(commands(str(path), labels))
        code = main(argv)
        err = capsys.readouterr().err
        assert code in codes, (case, argv, path.read_text(), err)
        assert "Traceback" not in err
        codes[code] += 1
    # both outcomes occur, so the mutations neither all break nor all pass
    assert codes[0] > 10 and codes[2] > 100, codes
