"""Declared-kind and Smarandache-kind verdicts on fixed carriers, pinned.

For each carrier, the first string lists the declared kinds (in
nstruct.KINDS order) under which it is accepted as a component beside
cyclic(2); the dict maps each SKind that detect_s_kind finds to the members
of its first witness.  Every other SKind does not hold.
"""

import pytest

import neutromagma as nm
from neutromagma.nstruct import KINDS

CARRIERS = {
    "ln(5, 2)": lambda: nm.ln(5, 2),
    "ln(5, 3)": lambda: nm.ln(5, 3),
    "zn(5, 2, 3)": lambda: nm.zn(5, 2, 3),
    "zn(6, 3, 4)": lambda: nm.zn(6, 3, 4),
    "zmod_mult(6)": lambda: nm.zmod_mult(6),
    "cyclic(1)": lambda: nm.cyclic(1),
    "cyclic(4)": lambda: nm.cyclic(4),
    "symmetric_group(3)": lambda: nm.symmetric_group(3),
    "symmetric_semigroup(2)": lambda: nm.symmetric_semigroup(2),
    "zn_full_neutro(3)": lambda: nm.zn_full_neutro(3),
    "zn_line_neutro(6)": lambda: nm.zn_line_neutro(6),
    "zn_units_neutro(5)": lambda: nm.zn_units_neutro(5),
    "zn_affine_neutro(4, 2, 1)": lambda: nm.zn_affine_neutro(4, 2, 1),
    "extend_tagged(ln(5, 3))": lambda: nm.extend_tagged(nm.ln(5, 3)),
    "extend_tagged(cyclic(3))": lambda: nm.extend_tagged(nm.cyclic(3)),
    "extend_tagged(zn(5, 2, 3))": lambda: nm.extend_tagged(nm.zn(5, 2, 3)),
    "extend_tagged(zmod_mult(4))": lambda: nm.extend_tagged(nm.zmod_mult(4)),
    "direct_product(zn_line_neutro(3), cyclic(2))":
        lambda: nm.direct_product(nm.zn_line_neutro(3), nm.cyclic(2)),
}

# recorded from the engine and committed as a literal
TRUTH = {
    'ln(5, 2)': (
        'loop groupoid s-loop s-groupoid',
        {'s_loop': (0, 1),
         's_groupoid': (0, 1)}),
    'ln(5, 3)': (
        'loop groupoid s-loop s-groupoid',
        {'s_loop': (0, 1),
         's_groupoid': (0, 1)}),
    'zn(5, 2, 3)': (
        'groupoid',
        {}),
    'zn(6, 3, 4)': (
        'semigroup groupoid s-groupoid',
        {'s_groupoid': (0, 1, 3, 4)}),
    'zmod_mult(6)': (
        'semigroup groupoid s-semigroup s-groupoid',
        {'s_semigroup': (1, 5),
         's_groupoid': (0, 1)}),
    'cyclic(1)': (
        'group semigroup loop groupoid',
        {}),
    'cyclic(4)': (
        'group semigroup loop groupoid s-semigroup s-loop s-groupoid',
        {'s_semigroup': (0, 2),
         's_loop': (0, 2),
         's_groupoid': (0, 2)}),
    'symmetric_group(3)': (
        'group semigroup loop groupoid s-semigroup s-loop s-groupoid',
        {'s_semigroup': (0, 1),
         's_loop': (0, 1),
         's_groupoid': (0, 1)}),
    'symmetric_semigroup(2)': (
        'semigroup groupoid s-semigroup s-groupoid',
        {'s_semigroup': (1, 2),
         's_groupoid': (0, 1)}),
    'zn_full_neutro(3)': (
        'semigroup groupoid neutrosophic-group neutrosophic-semigroup '
        'neutrosophic-groupoid s-semigroup s-groupoid s-neutrosophic-group '
        'strong-s-neutrosophic-group s-neutrosophic-semigroup '
        's-neutrosophic-loop s-neutrosophic-groupoid',
        {'s_semigroup': (1, 2),
         's_groupoid': (0, 1),
         's_neutrosophic_group': (0, 1),
         'strong_s_neutrosophic_group': (0, 1, 2, 3, 4, 6, 8),
         's_neutrosophic_semigroup': (1, 2),
         's_neutrosophic_loop': (0, 1, 2, 3, 4, 6, 8),
         's_neutrosophic_groupoid': (0, 1)}),
    'zn_line_neutro(6)': (
        'semigroup groupoid neutrosophic-group neutrosophic-semigroup '
        'neutrosophic-groupoid s-semigroup s-groupoid s-neutrosophic-group '
        'strong-s-neutrosophic-group s-neutrosophic-semigroup '
        's-neutrosophic-loop s-neutrosophic-groupoid',
        {'s_semigroup': (1, 5),
         's_groupoid': (0, 1),
         's_neutrosophic_group': (0, 1, 3, 4, 6, 7, 8, 9),
         'strong_s_neutrosophic_group': (0, 1, 2, 3, 4, 5, 7, 8, 9),
         's_neutrosophic_semigroup': (1, 5),
         's_neutrosophic_loop': (0, 1, 2, 3, 4, 5, 7, 8, 9),
         's_neutrosophic_groupoid': (0, 1, 2, 3, 4, 5, 7, 8, 9)}),
    'zn_units_neutro(5)': (
        'semigroup groupoid neutrosophic-group neutrosophic-semigroup '
        'neutrosophic-loop neutrosophic-groupoid s-semigroup s-groupoid '
        's-neutrosophic-group strong-s-neutrosophic-group '
        's-neutrosophic-semigroup s-neutrosophic-loop '
        's-neutrosophic-groupoid',
        {'s_semigroup': (0, 1, 2, 3),
         's_groupoid': (0, 1, 2, 3),
         's_neutrosophic_group': (0, 4),
         'strong_s_neutrosophic_group': (0, 3, 4, 5, 6, 7),
         's_neutrosophic_semigroup': (0, 1, 2, 3),
         's_neutrosophic_loop': (0, 3, 4, 5, 6, 7),
         's_neutrosophic_groupoid': (0, 3, 4, 5, 6, 7)}),
    'zn_affine_neutro(4, 2, 1)': (
        'groupoid neutrosophic-groupoid s-groupoid s-neutrosophic-groupoid',
        {'s_groupoid': (0, 2),
         's_neutrosophic_groupoid': (0, 2)}),
    'extend_tagged(ln(5, 3))': (
        'groupoid neutrosophic-group neutrosophic-loop '
        'neutrosophic-groupoid s-groupoid s-neutrosophic-group '
        'strong-s-neutrosophic-group s-neutrosophic-loop '
        's-neutrosophic-groupoid',
        {'s_groupoid': (0, 1),
         's_neutrosophic_group': (0, 6),
         'strong_s_neutrosophic_group': (0, 1, 6, 7),
         's_neutrosophic_loop': (0, 1, 6, 7),
         's_neutrosophic_groupoid': (0, 1, 6, 7)}),
    'extend_tagged(cyclic(3))': (
        'semigroup groupoid neutrosophic-group neutrosophic-semigroup '
        'neutrosophic-loop neutrosophic-groupoid s-semigroup s-groupoid '
        's-neutrosophic-group s-neutrosophic-semigroup '
        's-neutrosophic-groupoid',
        {'s_semigroup': (0, 1, 2),
         's_groupoid': (0, 1, 2),
         's_neutrosophic_group': (0, 3),
         's_neutrosophic_semigroup': (0, 1, 2),
         's_neutrosophic_groupoid': (0, 3)}),
    'extend_tagged(zn(5, 2, 3))': (
        'groupoid neutrosophic-groupoid s-groupoid s-neutrosophic-group '
        's-neutrosophic-groupoid',
        {'s_groupoid': (0, 5),
         's_neutrosophic_group': (0, 5),
         's_neutrosophic_groupoid': (0, 5)}),
    'extend_tagged(zmod_mult(4))': (
        'semigroup groupoid neutrosophic-group neutrosophic-semigroup '
        'neutrosophic-groupoid s-semigroup s-groupoid s-neutrosophic-group '
        'strong-s-neutrosophic-group s-neutrosophic-semigroup '
        's-neutrosophic-loop s-neutrosophic-groupoid',
        {'s_semigroup': (1, 3),
         's_groupoid': (0, 1),
         's_neutrosophic_group': (0, 1, 2, 4),
         'strong_s_neutrosophic_group': (0, 1, 2, 3, 4),
         's_neutrosophic_semigroup': (1, 3),
         's_neutrosophic_loop': (0, 1, 2, 3, 4),
         's_neutrosophic_groupoid': (0, 1, 2, 3, 4)}),
    'direct_product(zn_line_neutro(3), cyclic(2))': (
        'semigroup groupoid neutrosophic-group neutrosophic-semigroup '
        'neutrosophic-groupoid s-semigroup s-groupoid s-neutrosophic-group '
        'strong-s-neutrosophic-group s-neutrosophic-semigroup '
        's-neutrosophic-loop s-neutrosophic-groupoid',
        {'s_semigroup': (0, 1),
         's_groupoid': (0, 1),
         's_neutrosophic_group': (0, 2, 6),
         'strong_s_neutrosophic_group': (0, 1, 2, 3, 6, 7),
         's_neutrosophic_semigroup': (0, 1),
         's_neutrosophic_loop': (0, 1, 2, 3, 6, 7),
         's_neutrosophic_groupoid': (0, 1, 2, 3, 6, 7)}),
}

def _accepted(c):
    accepted = []
    for kind in KINDS:
        try:
            nm.build_n_structure([c, nm.cyclic(2)], [kind, "group"])
        except nm.ParameterError:
            continue
        accepted.append(kind)
    return " ".join(accepted)


@pytest.mark.parametrize("name", list(TRUTH))
def test_declared_and_s_kinds(name):
    c = CARRIERS[name]()
    kinds, witnesses = TRUTH[name]
    assert _accepted(c) == kinds
    for kind in nm.SKind:
        d = nm.detect_s_kind(c, kind)
        want = witnesses.get(kind.value)
        assert d.holds == (want is not None), kind
        assert (d.witness.members if d.holds else d.witness) == want, kind


def test_table_size():
    assert sorted(TRUTH) == sorted(CARRIERS) and len(KINDS) == 16
    assert sum(len(k.split()) for k, _ in TRUTH.values()) == 128
