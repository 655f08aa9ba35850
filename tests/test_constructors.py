"""Family constructors, admissibility guards and counting formulas."""

import pytest

import neutromagma as nm


def test_ln_rejects_bad_parameters():
    with pytest.raises(nm.ParameterError):
        nm.ln(6, 2)            # even n
    with pytest.raises(nm.ParameterError):
        nm.ln(3, 2)            # n too small
    with pytest.raises(nm.ParameterError, match="gcd"):
        nm.ln(9, 3)            # gcd(m, n) = 3
    with pytest.raises(nm.ParameterError, match="gcd"):
        nm.ln(9, 4)            # gcd(m-1, n) = 3
    with pytest.raises(nm.ParameterError):
        nm.ln(5, 1)


def test_ln_structure():
    for n, m in [(5, 2), (7, 3), (9, 2), (15, 8)]:
        loop = nm.ln(n, m)
        assert loop.order == n + 1
        assert nm.latin_square_check(loop)
        assert loop.identity == 0
        assert all(loop.op(i, i) == 0 for i in range(1, n + 1))


def test_ln_class_and_counts():
    assert [m.kind_tag for m in nm.ln_class(5)] == ["ln(5,2)", "ln(5,3)", "ln(5,4)"]
    assert len(nm.ln_class(7)) == 5
    assert nm.ln_admissible(15) == [2, 8, 14]
    for n in (5, 7, 9, 15, 21, 25):
        assert len(nm.ln_class(n)) == nm.ln_count(n)


def _strictly_noncommutative(loop):
    # no distinct non-identity pair commutes
    k = loop.order
    return all(loop.op(x, y) != loop.op(y, x)
               for x in range(1, k) for y in range(1, k) if x != y)


def test_strict_noncommutative_count():
    # brute-force sweeps over the class agree with both closed forms
    for n in (5, 7, 9, 15):
        cls = nm.ln_class(n)
        comm = [m for m in cls if nm.classify_basic(m).is_commutative]
        assert len(comm) == 1
        assert comm[0].kind_tag == f"ln({n},{(n + 1) // 2})"
        strict = sum(1 for m in cls if _strictly_noncommutative(m))
        assert strict == nm.ln_strict_noncomm_count(n)
    assert nm.ln_strict_noncomm_count(5) == 2
    assert nm.ln_strict_noncomm_count(9) == 0     # 3 | n kills strictness


def test_zn_class_invariants():
    with pytest.raises(nm.ParameterError):
        nm.zn(5, 2, 2, "zstar")        # t = u forbidden
    with pytest.raises(nm.ParameterError):
        nm.zn(6, 2, 4, "z")            # gcd(t, u) = 2
    with pytest.raises(nm.ParameterError):
        nm.zn(5, 0, 2, "zstar")        # zero coefficient
    nm.zn(5, 2, 2, "zdoublestar")      # t = u allowed here
    nm.zn(5, 0, 2, "ztriplestar")      # zeros allowed here
    with pytest.raises(nm.ParameterError):
        nm.zn(2, 1, 1, "ztriplestar")  # n too small


def test_zn_class_sizes():
    assert nm.zn_class_size(5, "zstar") == 12
    assert nm.zn_class_size(3, "zstar") == 2
    # the coprime class is a strict subfamily: (2,4) and (4,2) drop out
    assert nm.zn_class_size(5, "z") == 10
    assert nm.zn_class_size(5, "z") <= nm.zn_class_size(5, "zstar")
    # the atlas footer pairs, in every class
    for n in range(3, 13):
        for cls in nm.constructors.ZN_CLASSES:
            assert len(nm.zn_params(n, cls)) == nm.zn_class_size(n, cls), (n, cls)
    for n in range(13, 80):
        assert len(nm.zn_params(n, "z")) == nm.zn_class_size(n, "z"), n


def test_zn_idempotent_example():
    m = nm.zn(5, 2, 4)                 # 2 + 4 = 6 = 1 mod 5
    assert nm.check_identity_law(m, nm.IdentityLaw.IDEMPOTENT).holds


def test_standard_constructors():
    s3 = nm.symmetric_semigroup(3)
    assert s3.order == 27
    inner = sorted(s3.index(l) for l in nm.symmetric_group(3).labels)
    assert nm.subset_is_group(nm.Subset(s3, inner))

    d4 = nm.dihedral(4)
    assert d4.order == 8
    orders = {nm.element_orders(d4, x).real_order for x in range(8)}
    assert orders == {1, 2, 4}

    assert nm.classify_basic(nm.alternating(4)).is_group
    assert nm.is_isomorphic(nm.direct_product(nm.cyclic(2), nm.cyclic(3)),
                            nm.cyclic(6)) is not None


def test_size_guards():
    with pytest.raises(nm.ResourceLimitError):
        nm.symmetric_group(6)
    with pytest.raises(nm.ResourceLimitError):
        nm.symmetric_semigroup(5)
    with pytest.raises(nm.ResourceLimitError):
        nm.alternating(6)


@pytest.mark.parametrize("build, args", [
    (nm.cyclic, (2.0,)), (nm.zmod_mult, (2.5,)), (nm.dihedral, (True,)),
    (nm.symmetric_group, ("3",)), (nm.zn_full_neutro, (2.0,)),
    (nm.zn_line_neutro, (True,)), (nm.zn_units_neutro, ("5",)),
    (nm.zn_affine_neutro, (3, 5, 1)), (nm.zn_affine_neutro, (3, 1.5, 1)),
    (nm.zn_affine_neutro, (3, 1, -1)), (nm.zn_affine_neutro, (3, 1, True)),
])
def test_constructors_reject_non_integer_parameters(build, args):
    with pytest.raises(nm.ParameterError):
        build(*args)


@pytest.mark.parametrize("build, args", [
    (nm.zn, (5.0, 2, 3)), (nm.zn, ("5", 2, 3)), (nm.zn, (5, 2.0, 3)),
    (nm.zn, (5, 2, True)), (nm.ln, (5.0, 2)), (nm.ln, (5, 2.0)),
    (nm.ln, (True, 2)), (nm.ln_class, (5.0,)), (nm.ln_admissible, (5.0,)),
    (nm.zn_params, (5.0,)), (nm.zn_params, (5.0, "z")),
    (nm.zn_class_size, (5.0,)), (nm.zn_class_size, (True,)),
])
def test_family_parameters_must_be_ints(build, args):
    # each once raised a raw TypeError or reached the table validator
    with pytest.raises(nm.ParameterError, match="needs an integer"):
        build(*args)


@pytest.mark.parametrize("build, args, message", [
    (nm.ln_admissible, (4,), "loop family needs odd n > 3, got n=4"),
    (nm.zn, (5, 1, 2, "bogus"), "class must be one of"),
    (nm.zn, (5, 7, 1), "t, u must be residues mod 5"),
    (nm.zn_params, (5, "bogus"), "unknown class 'bogus'"),
    (nm.zn_class_size, (2,), "groupoid family needs n >= 3, got 2"),
    (nm.zn_class_size, (5, "bogus"), "unknown class 'bogus'"),
])
def test_family_parameters_out_of_range(build, args, message):
    with pytest.raises(nm.ParameterError, match=message):
        build(*args)


def test_factorize():
    assert nm.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert nm.factorize(31) == [(31, 1)]
