"""The result records: immutable, with a Name(field=value, ...) repr."""

import pytest

import neutromagma as nm
from neutromagma import corpus

RECORDS = [nm.BasicReport, nm.ClassReport, nm.ConjugateWitness, nm.DoubleCosetResult,
           nm.ElementOrders, nm.HyperReport, nm.LawResult, nm.NKindVerdict,
           nm.NucleiReport, nm.PartialMap, nm.SDetection, nm.TupleSylowReport,
           nm.Witness]


def test_every_exported_record_is_listed():
    exported = {c for c in vars(nm).values() if isinstance(c, type) and issubclass(c, tuple)}
    assert exported == set(RECORDS)


@pytest.mark.parametrize("record", RECORDS, ids=[r.__name__ for r in RECORDS])
def test_record_is_immutable_with_field_repr(record):
    names = list(record.__annotations__)
    values = [f"v{i}" for i in range(len(names))]
    rec = record(*values)
    assert repr(rec) == f"{record.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)) + ")"
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        assert getattr(rec, name) == value


def test_true_flags_of_a_corpus_n_structure():
    verdict = nm.classify_n_kind(corpus._ns611())
    assert verdict.true_flags() == [
        "n_group_semigroup", "n_glsg", "neutrosophic_n_groupoid", "s_n_group",
        "s_n_semigroup", "s_n_loop", "s_neutrosophic_n_group",
        "s_neutrosophic_n_loop", "s_neutrosophic_n_groupoid",
        "mixed_neutrosophic", "dual_mixed_neutrosophic", "s_mixed_neutrosophic"]
