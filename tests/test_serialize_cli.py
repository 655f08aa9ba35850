"""JSON round-trips and the command-line surface."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import neutromagma as nm
from neutromagma import atlas, cli, constructors
from neutromagma.cli import main
from neutromagma.serialize import (load_magma, magma_from_dict, magma_to_dict,
                                   nstructure_from_dict, nstructure_to_dict,
                                   save_nstructure)


def test_magma_round_trip():
    for m in (nm.ln(5, 2), nm.zn_full_neutro(3), nm.extend_tagged(nm.ln(5, 3)),
              nm.zn(5, 2, 3)):
        back = magma_from_dict(magma_to_dict(m))
        assert back.table == m.table
        assert back.labels == m.labels
        assert back.neutro_mask == m.neutro_mask
        assert back.identity == m.identity
        assert back.neutro_identity == m.neutro_identity


def test_magma_round_trip_on_random_tables():
    # random tables of order <= 7 with random labels, masks and designated
    # elements, through the dict and through JSON text
    rng = random.Random(20060131)
    pool = ["0", "1", "10", "-1", "e", "I", "1+2I", "\u00e9", "a b", "x,y", '"q"', ""]
    for _ in range(300):
        k = rng.randint(1, 7)
        table = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.5:      # an identity row/column
            e = rng.randrange(k)
            for x in range(k):
                table[e][x] = x
                table[x][e] = x
        mask = [rng.random() < 0.4 for _ in range(k)]
        masked = [i for i in range(k) if mask[i]]
        nid = rng.choice(masked) if masked and rng.random() < 0.7 else None
        m = nm.FiniteMagma(table, labels=rng.sample(pool, k), neutro_mask=mask,
                           neutro_identity=nid, kind_tag=rng.choice(["", "random"]))
        doc = magma_to_dict(m)
        for back in (magma_from_dict(doc), magma_from_dict(json.loads(json.dumps(doc)))):
            assert back.table == m.table
            assert back.labels == m.labels
            assert back.identity == m.identity
            assert back.neutro_mask == m.neutro_mask
            assert back.neutro_identity == m.neutro_identity
            assert back.kind_tag == m.kind_tag


def test_null_identity_is_found_from_the_table(tmp_path, capsys):
    c4 = nm.cyclic(4)
    doc = magma_to_dict(c4)
    doc["identity"] = None
    m = magma_from_dict(doc)
    assert m.identity == 0
    assert nm.classify_basic(m).is_group
    assert nm.is_isomorphic(m, c4) == nm.is_isomorphic(c4, m) == [0, 1, 2, 3]
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["identity"] == "1" and out["is_group"]


def test_nstructure_round_trip(tmp_path):
    ns = nm.build_n_structure([nm.extend_tagged(nm.ln(5, 2)), nm.cyclic(6)],
                              ["s-neutrosophic-loop", "group"], "demo")
    back = nstructure_from_dict(nstructure_to_dict(ns))
    assert back.order == 18 and back.declared_kinds == ns.declared_kinds
    path = tmp_path / "ns.json"
    save_nstructure(ns, path)
    assert nm.load_nstructure(path).name == "demo"


def test_malformed_document():
    with pytest.raises(nm.ParameterError):
        magma_from_dict({"labels": ["a"]})
    with pytest.raises(nm.ParameterError):
        magma_from_dict({"table": [[0]], "order": 5})


def test_cli_construct_classify(tmp_path, capsys):
    out = tmp_path / "l52.json"
    assert main(["construct", "--family", "ln", "--n", "5", "--m", "2",
                 "--out", str(out)]) == 0
    m = load_magma(out)
    assert m.kind_tag == "ln(5,2)" and m.order == 6
    assert main(["classify", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_loop"] and not doc["is_group"]
    assert doc["laws"]["right_alternative"] is True
    assert doc["s_flags"]["s_loop"] is True


def test_cli_parameter_errors(capsys):
    assert main(["construct", "--family", "ln", "--n", "6", "--m", "2"]) == 2
    assert main(["construct", "--family", "nosuch", "--n", "3"]) == 2
    capsys.readouterr()


def test_cli_io_error():
    assert main(["classify", "/nonexistent/path.json"]) == 3


def test_cli_subsets_and_cosets(tmp_path, capsys):
    out = tmp_path / "z7.json"
    main(["construct", "--family", "zmod", "--n", "7", "--out", str(out)])
    assert main(["subsets", str(out), "--species", "group"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert ["1", "2", "3", "4", "5", "6"] in doc["subsets"]
    assert main(["cosets", str(out), "--subset", "1,6", "--element", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["coset"]) == {"3", "4"}
    # in S3, 132 * {123, 213} = {132, 312} but {123, 213} * 132 = {132, 231}
    s3 = tmp_path / "s3.json"
    main(["construct", "--family", "sym", "--n", "3", "--out", str(s3)])
    for side, coset in (("left", ["132", "312"]), ("right", ["132", "231"])):
        assert main(["cosets", str(s3), "--subset", "123,213", "--element", "132",
                     "--side", side]) == 0
        assert json.loads(capsys.readouterr().out) == {"coset": coset}


def test_cli_engines(tmp_path, capsys):
    out = tmp_path / "line8.json"
    main(["construct", "--family", "zn-line-neutro", "--n", "8", "--out", str(out)])
    assert main(["sylow", str(out), "--species", "s-neutrosophic-sub"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "weak"
    assert main(["lagrange", str(out), "--species", "s-neutrosophic-sub"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["cauchy", str(out)]) == 0
    json.loads(capsys.readouterr().out)
    # the Cauchy engine reads element orders, not a species: no --species
    with pytest.raises(SystemExit) as exc:
        main(["cauchy", str(out), "--species", "group"])
    assert exc.value.code == 2
    assert "--species" in capsys.readouterr().err


def test_cli_conjugate(tmp_path, capsys):
    out = tmp_path / "line15.json"
    main(["construct", "--family", "zn-line-neutro", "--n", "15", "--out", str(out)])
    assert main(["conjugate", str(out), "--h1", "1,4", "--h2", "1,14"]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = {w["element"] for w in doc["witnesses"]}
    assert got == {"0", "3", "6", "9", "12", "3I", "6I", "9I", "12I"}


def test_cli_nstruct(tmp_path, capsys):
    ns = nm.build_n_structure([nm.extend_tagged(nm.ln(7, 3)), nm.dihedral(4)],
                              ["s-neutrosophic-loop", "group"], "biloop")
    path = tmp_path / "ns.json"
    save_nstructure(ns, path)
    assert main(["nstruct", str(path), "--engine", "cauchy"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 24 and doc["report"]["verdict"] == "full"


@pytest.mark.parametrize("engine", ["lagrange", "sylow"])
def test_cli_nstruct_subset_engines(tmp_path, engine):
    # N-level witnesses are NSubsets: one member list per component
    ns = nm.build_n_structure([nm.zn_units_neutro(5), nm.zn_line_neutro(4)],
                              ["s-neutrosophic-group", "s-neutrosophic-semigroup"],
                              "bi")
    path = tmp_path / "bi.json"
    save_nstructure(ns, path)
    proc = subprocess.run([sys.executable, "-m", "neutromagma.cli", "nstruct",
                           str(path), "--engine", engine],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["report"]
    species = [nm.SubsetPredicate.IS_SUBGROUPOID] * 2
    rep = (nm.n_lagrange if engine == "lagrange" else nm.n_sylow)(ns, species)
    assert report["witnesses"] == [
        {"per_component": [list(p) for p in w.subset.per_component],
         "order": w.order, "qualifies": w.qualifies} for w in rep.witnesses]
    if engine == "sylow":           # order 15: one witness each for 3 and 5
        assert report == {"verdict": "full", "witnesses": [
            {"per_component": [[0], [0, 1]], "order": 3, "qualifies": True},
            {"per_component": [[0], [0, 1, 2, 3]], "order": 5, "qualifies": True}],
            "notes": []}
    else:
        assert report["verdict"] == "weak" and len(report["witnesses"]) == 407
        assert report["witnesses"][0] == {"per_component": [[0], [0]],
                                          "order": 2, "qualifies": False}
        assert sum(w["qualifies"] for w in report["witnesses"]) == 79


def test_cli_nstruct_lagrange_guard(tmp_path, capsys, monkeypatch):
    # the JSON document lists every witness, so the CLI keeps the guard that
    # n_lagrange itself no longer needs: 407 witnesses against a guard of 406
    ns = nm.build_n_structure([nm.zn_units_neutro(5), nm.zn_line_neutro(4)],
                              ["s-neutrosophic-group", "s-neutrosophic-semigroup"])
    path = tmp_path / "bi.json"
    save_nstructure(ns, path)
    monkeypatch.setattr(cli, "DEFAULT_COMBINATION_CAP", 406)
    assert main(["nstruct", str(path), "--engine", "lagrange"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "406 guard" in err
    monkeypatch.setattr(cli, "DEFAULT_COMBINATION_CAP", 407)
    assert main(["nstruct", str(path), "--engine", "lagrange"]) == 0
    assert len(json.loads(capsys.readouterr().out)["report"]["witnesses"]) == 407


def test_cli_atlas(tmp_path, capsys):
    out = tmp_path / "atlas.csv"
    assert main(["atlas", "--family", "ln", "--n", "5..7", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("family,params,order")
    assert sum(1 for l in lines if l.startswith("ln,")) == 8       # 3 + 5 members
    assert lines[-1].endswith("match")
    assert main(["atlas", "--family", "zn", "--n", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["records"]) == 12 and doc["footer"][0]["match"]
    # empty range: header and footer only, exit 0
    assert main(["atlas", "--family", "zn", "--n", ""]) == 0
    assert capsys.readouterr().out.startswith("family,")


def test_cli_atlas_zmod(tmp_path, capsys, monkeypatch):
    # every zmod_mult(n), n >= 2, is searched per idempotent only, inside a
    # ground set, and the footer checks 2^omega(n) idempotents and a unit
    # group of order phi(n)
    lattice = nm.magma._closed_lattice
    grounds = []

    def recorded(m, ground=None, *args):
        grounds.append(ground)
        return lattice(m, ground, *args)

    monkeypatch.setattr(nm.magma, "_closed_lattice", recorded)
    out = tmp_path / "zmod.csv"
    assert main(["atlas", "--family", "zmod", "--n", "2..30", "--out", str(out)]) == 0
    assert grounds and None not in grounds
    lines = out.read_text().splitlines()
    assert lines[0] == ("family,params,order,idempotents,unit_group,s_semigroup,"
                        "subgroups,lagrange_verdict")
    assert lines[11] == "zmod,n=12,12,4,4,1,6,full"
    assert lines[29] == "zmod,n=30,30,8,8,1,20,weak"
    footer = lines[30:]
    assert len(footer) == 58 and all(l.endswith(",match") for l in footer)
    assert footer[20:22] == ["#count n=12 idempotents,4,4,match",
                             "#count n=12 unit_group,4,4,match"]
    assert main(["atlas", "--family", "zmod", "--n", "60", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"] == [{"family": "zmod", "params": "n=60", "order": 60,
                               "idempotents": 8, "unit_group": 16, "s_semigroup": True,
                               "subgroups": 48, "lagrange_verdict": "weak"}]
    assert [f["formula"] for f in doc["footer"]] == [8, 16]
    assert main(["atlas", "--family", "zmod", "--n", "257"]) == 2


def test_cli_atlas_z_class_footer_is_a_closed_form(capsys, monkeypatch):
    # the footer checks the enumerated z class against 2 * sum phi(j) - 2,
    # so an enumeration that drops a pair reads MISMATCH and exits 1
    params = constructors.zn_params

    def short(n, cls="zstar"):
        return params(n, cls)[:-1]

    monkeypatch.setattr(constructors, "zn_params", short)
    monkeypatch.setattr(atlas, "zn_params", short)
    assert main(["atlas", "--family", "zn", "--class", "z", "--n", "5"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "#count n=5,9,10,MISMATCH"


def test_cli_subgroups_of_zmod_mult_60(tmp_path, capsys):
    # more than MAX_CLOSED_SUBSETS closed subsets, 48 of them groups
    path = tmp_path / "zmod60.json"
    nm.save_magma(nm.zmod_mult(60), path)
    assert main(["subsets", str(path), "--species", "group"]) == 0
    found = json.loads(capsys.readouterr().out)["subsets"]
    assert len(found) == 48 and found[0][:3] == ["1", "7", "11"]


@pytest.mark.parametrize("family, spec, golden", [
    ("ln", "5..31", "atlas_ln_5_31.csv"),
    ("zn", "3..12", "atlas_zn_3_12.csv"),
])
def test_cli_atlas_matches_golden_csv(tmp_path, family, spec, golden):
    # every flag and verdict of 172 loops L_n(m) and 440 groupoids Z_n(t,u),
    # byte for byte as recorded before closures stopped at their first
    # canonicity failure, species were memoized and subsets of a semigroup
    # inherited associativity
    out = tmp_path / golden
    assert main(["atlas", "--family", family, "--n", spec, "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / golden).read_bytes()


@pytest.mark.parametrize("spec", ["x", "5..x", "5..", "5..21..2"])
def test_cli_atlas_malformed_range(capsys, spec):
    assert main(["atlas", "--family", "ln", "--n", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("family, spec", [("zn", "2000"), ("zmod", "3,257,5"),
                                          ("ln", "5..257"), ("ln", f"5..{10 ** 18}")])
def test_cli_atlas_refuses_oversized_n_before_building(capsys, monkeypatch, family, spec):
    # the whole sweep is refused when one n passes MAX_ORDER: a range is
    # never listed, and no member or parameter list is built
    def built(*args):
        raise AssertionError("a member or parameter list was built")

    for name in ("ln", "ln_admissible", "zn", "zn_params", "zmod_mult"):
        monkeypatch.setattr(atlas, name, built)
    assert main(["atlas", "--family", family, "--n", spec]) == 2
    err = capsys.readouterr().err
    assert "member for n=" in err and "MAX_ORDER = 256" in err


def test_cli_verify_corpus_filter(capsys):
    assert main(["verify-corpus", "--filter", "ex-1.3.*"]) == 0
    out = capsys.readouterr().out
    assert "ex-1.3.1-table-l5(2)" in out and "fail 0" in out


def test_cli_verify_corpus_deterministic():
    cmd = [sys.executable, "-m", "neutromagma.cli", "verify-corpus",
           "--filter", "ex-2.1.3*"]
    a = subprocess.run(cmd, capture_output=True).stdout
    b = subprocess.run(cmd, capture_output=True).stdout
    assert a == b and b


def test_cli_construct_zn_and_product(tmp_path, capsys):
    out = tmp_path / "z524.json"
    assert main(["construct", "--family", "zn", "--class", "zstar",
                 "--n", "5", "--t", "2", "--u", "4", "--out", str(out)]) == 0
    m = load_magma(out)
    assert nm.check_identity_law(m, nm.IdentityLaw.IDEMPOTENT).holds
    a, b = tmp_path / "c2.json", tmp_path / "c3.json"
    main(["construct", "--family", "cyclic", "--n", "2", "--out", str(a)])
    main(["construct", "--family", "cyclic", "--n", "3", "--out", str(b)])
    assert main(["construct", "--family", "product",
                 "--left", str(a), "--right", str(b)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 6


# family -> (its construct arguments, the library call they stand for)
FAMILY_CASES = {
    "ln": (["--n", "7", "--m", "3"], lambda: nm.ln(7, 3)),
    "zn": (["--n", "6", "--t", "3", "--u", "4", "--class", "zdoublestar"],
           lambda: nm.zn(6, 3, 4, "zdoublestar")),
    "zmod": (["--n", "6"], lambda: nm.zmod_mult(6)),
    "cyclic": (["--n", "5"], lambda: nm.cyclic(5)),
    "sym": (["--n", "3"], lambda: nm.symmetric_group(3)),
    "alt": (["--n", "4"], lambda: nm.alternating(4)),
    "dihedral": (["--n", "4"], lambda: nm.dihedral(4)),
    "symsemi": (["--n", "2"], lambda: nm.symmetric_semigroup(2)),
    "zn-full-neutro": (["--n", "3"], lambda: nm.zn_full_neutro(3)),
    "zn-line-neutro": (["--n", "4"], lambda: nm.zn_line_neutro(4)),
    "zn-units-neutro": (["--n", "5"], lambda: nm.zn_units_neutro(5)),
    "zn-affine-neutro": (["--n", "3", "--t", "2", "--u", "1"],
                         lambda: nm.zn_affine_neutro(3, 2, 1)),
    "product": (["--left", "{c2}", "--right", "{c3}"],
                lambda: nm.direct_product(nm.cyclic(2), nm.cyclic(3))),
}


def test_every_family_has_a_construct_case():
    assert sorted(FAMILY_CASES) == sorted(cli.FAMILIES)


@pytest.mark.parametrize("family, tagged",
                         [(f, False) for f in FAMILY_CASES] + [("cyclic", True)])
def test_cli_construct_prints_the_library_magma(tmp_path, capsys, family, tagged):
    c2, c3 = tmp_path / "c2.json", tmp_path / "c3.json"
    nm.save_magma(nm.cyclic(2), c2)
    nm.save_magma(nm.cyclic(3), c3)
    args, build = FAMILY_CASES[family]
    args = [a.format(c2=c2, c3=c3) for a in args] + ["--tagged"] * tagged
    assert main(["construct", "--family", family, *args]) == 0
    m = nm.extend_tagged(build()) if tagged else build()
    assert capsys.readouterr().out == json.dumps(magma_to_dict(m), indent=1) + "\n"


def test_cli_species_names():
    assert sorted(cli.SPECIES) == [
        "group", "ideal", "left-ideal", "loop", "neutrosophic-subgroup",
        "pseudo-neutrosophic-subgroup", "right-ideal", "s-neutrosophic-sub",
        "semigroup", "subgroupoid"]


def test_species_alias_answers_as_its_target(tmp_path, capsys):
    # s-neutrosophic-sub is another name for neutrosophic-subgroup: the same
    # subsets and Lagrange report, and one memo entry between the two names
    out = tmp_path / "line8.json"
    nm.save_magma(nm.zn_line_neutro(8), out)
    docs = {}
    for name in ("s-neutrosophic-sub", "neutrosophic-subgroup"):
        assert main(["subsets", str(out), "--species", name]) == 0
        subsets = json.loads(capsys.readouterr().out)["subsets"]
        assert main(["lagrange", str(out), "--species", name]) == 0
        docs[name] = (subsets, capsys.readouterr().out)
    assert docs["s-neutrosophic-sub"] == docs["neutrosophic-subgroup"]
    assert docs["s-neutrosophic-sub"][0]
    m = nm.zn_line_neutro(8)
    for name in ("s-neutrosophic-sub", "neutrosophic-subgroup"):
        nm.enumerate_closed_subsets(m, cli.SPECIES[name])
    assert [k for k in m._subset_cache if k != "closed"] == [
        (nm.SubsetPredicate.IS_NEUTROSOPHIC_SUBGROUP, False)]


def test_tagged_flag(tmp_path):
    out = tmp_path / "t.json"
    assert main(["construct", "--family", "ln", "--n", "5", "--m", "3",
                 "--tagged", "--out", str(out)]) == 0
    m = load_magma(out)
    assert m.order == 12 and m.labels[m.neutro_identity] == "eI"


@pytest.mark.parametrize("command, text", [
    ("classify", '{"table": [[0.5]]}'),
    ("classify", '{"table": [["a"]]}'),
    ("classify", '{"table": [[0]], "identity": "x"}'),
    ("classify", '{"table": [[true, false], [false, true]]}'),
    ("classify", '{"table": [[0, 1], [1, 0]], "neutro_mask": [true, 7]}'),
    ("classify", '{"table": [[0]], "labels": 5}'),
    ("classify", '{"table": [[0]] '),
    ("classify", '{"table": [5]}'),
    ("nstruct", '{"declared_kinds": ["group", "group"]}'),
    ("nstruct", '{"components": 5, "declared_kinds": []}'),
    ("nstruct", "no json"),
    ("classify", '{"table": [[0, 1], [1, 0]], "kind": 5}'),
    ("nstruct", '{"name": 5, "components": [{"table": [[0]]}, {"table": [[0]]}], '
                '"declared_kinds": ["group", "group"]}'),
], ids=["float-entry", "str-entry", "str-identity", "bool-table", "int-in-mask",
        "int-labels", "truncated-json", "int-row", "no-components",
        "int-components", "not-json", "int-kind", "int-name"])
def test_cli_malformed_documents(tmp_path, capsys, command, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("bad", [5, None, b"x"])
def test_non_string_kind_or_name_is_refused_at_construction(bad):
    # refused when built, so that whatever saves also loads
    with pytest.raises(nm.ParameterError, match=f"magma kind {bad!r} is not a string"):
        nm.FiniteMagma([[0]], kind_tag=bad)
    with pytest.raises(nm.ParameterError, match=f"N-structure name {bad!r} is not a string"):
        nm.NStructure([nm.cyclic(2), nm.cyclic(3)], ["group", "group"], name=bad)


@pytest.mark.parametrize("args, message", [
    (["sylow", "c8.json"], "p=2: sought order 8 is not proper; skipped"),
    (["cauchy", "zn.json"], "no identity: real orders skipped"),
], ids=["sylow-cyclic-8", "cauchy-zn-5-2-3"])
def test_cli_reports_carry_their_notes(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    nm.save_magma(nm.cyclic(8), "c8.json")
    nm.save_magma(nm.zn(5, 2, 3), "zn.json")
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["verdict", "witnesses", "notes"]
    assert message in doc["notes"]


@pytest.mark.parametrize("probe", ["product-no-operands", "product-no-right",
                                   "product-no-left", "unknown-species",
                                   "affine-coefficient", "species-count",
                                   "atlas-family"])
def test_cli_usage_errors(tmp_path, capsys, probe):
    c2, ns = tmp_path / "c2.json", tmp_path / "ns.json"
    nm.save_magma(nm.cyclic(2), c2)
    save_nstructure(nm.build_n_structure([nm.cyclic(2), nm.cyclic(3)],
                                         ["group", "group"]), ns)
    operands = "family product needs --left and --right"
    args, message = {
        "product-no-operands": (["construct", "--family", "product"], operands),
        "product-no-right": (["construct", "--family", "product", "--left", str(c2)],
                             operands),
        "product-no-left": (["construct", "--family", "product", "--right", str(c2)],
                            operands),
        "unknown-species": (["nstruct", str(ns), "--engine", "lagrange",
                             "--species", "group,bogus"],
                            "unknown species 'bogus'; choose from "
                            + ", ".join(sorted(cli.SPECIES))),
        "affine-coefficient": (["construct", "--family", "zn-affine-neutro",
                                "--n", "3", "--t", "5", "--u", "1"],
                               "zn_affine_neutro(3,5,1) needs integers t, u in [0,3)"),
        "species-count": (["nstruct", str(ns), "--engine", "lagrange", "--species", "group"],
                          "need 2 species (one per component), got 1"),
        "atlas-family": (["atlas", "--family", "bogus", "--n", "3"],
                         f"atlas supports families {', '.join(cli._ATLAS)}, got 'bogus'"),
    }[probe]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("args", [
    ["--family", "cyclic", "--n", "257"],
    ["--family", "zn-full-neutro", "--n", "17"],
    ["--family", "sym", "--n", "6"],
    ["--family", "cyclic", "--n", "129", "--tagged"],
])
def test_cli_order_cap(capsys, args):
    assert main(["construct", *args]) == 2
    err = capsys.readouterr().err
    assert "MAX_ORDER" in err and "Traceback" not in err


def test_cli_oversized_order_rejected_before_allocation():
    proc = subprocess.run([sys.executable, "-m", "neutromagma.cli", "construct",
                           "--family", "cyclic", "--n", "100000"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "MAX_ORDER" in proc.stderr and "Traceback" not in proc.stderr
