"""The README's library tour runs, and the values its comments state hold."""

import re
from enum import Enum
from pathlib import Path

import neutromagma as nm

README = Path(__file__).resolve().parents[1] / "README.md"

# an expression of the tour -> the value its comment states
CLAIMS = {
    "nm.check_identity_law(l, nm.IdentityLaw.RIGHT_ALTERNATIVE).holds": "True",
    "nm.is_simple(g)": "True",
    "nm.is_pseudo_neutrosophic_subgroup(P)": "True",
    'nm.cosets(full, P, full.index("2"), "right")': "{2, 2I, 3I}",
    "nm.lagrange_classify(t, nm.S_NEUTRO_SUBLOOP).verdict": "weak",
}


def shown(value):
    """A value as the tour's comments write it, a subset in label order."""
    if isinstance(value, nm.Subset):
        return "{" + ", ".join(sorted(value.labels())) + "}"
    if isinstance(value, Enum):
        return value.value
    return repr(value)


def test_library_tour_runs_as_commented():
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S)
    code = tour.group(1)
    env = {}
    exec(compile(code, "README.md", "exec"), env)
    comments = dict(line.split("#", 1) for line in code.splitlines() if "#" in line)
    comments = {expr.strip(): note.strip() for expr, note in comments.items()}
    for expr, value in CLAIMS.items():
        assert comments[expr].startswith(value), (expr, comments[expr])
        assert shown(eval(expr, env)) == value, expr
    # "loop, not a group, not commutative"
    basic = nm.classify_basic(env["l"])
    assert basic.is_loop and not basic.is_group and not basic.is_commutative
