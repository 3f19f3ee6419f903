import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunres.betti import tor_betti
from prunres.ideals import parse_ideal
from prunres.monomials import (
    AmbientError,
    Monomial,
    MonomialIdeal,
    divides,
    ideal,
    lcm,
    minimal_generators,
    monomial_str,
    polarize,
)


def m(*exps):
    return Monomial(tuple(exps))


def test_lcm_examples():
    assert lcm(m(1, 1, 0), m(0, 1, 1)) == m(1, 1, 1)
    assert lcm(m(2, 0, 3), m(2, 0, 3)) == m(2, 0, 3)
    # generators from the eleven-generator benchmark
    a = m(4, 0, 0, 0, 0)
    b = m(1, 0, 0, 2, 1)
    assert lcm(a, b) == m(4, 0, 0, 2, 1)


def test_divides_examples():
    assert divides(m(0, 1), m(1, 1))
    assert not divides(m(1, 1, 0), m(0, 1, 1))
    assert divides(m(0, 2, 2, 0), m(0, 2, 2, 2))


def test_ambient_mismatch():
    with pytest.raises(AmbientError):
        lcm(m(1), m(1, 2))
    with pytest.raises(AmbientError):
        divides(m(1), m(1, 2))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Monomial((1, -1))


def test_minimal_generators():
    I = ideal(["x", "y"], [(1, 0), (1, 1)])
    assert minimal_generators(I).generators == (m(1, 0),)

    J = ideal(["x1", "x2", "x3"], [(1, 1, 0), (0, 1, 1)])
    assert minimal_generators(J) == J

    K = ideal(["x1", "x2", "x3"], [(1, 1, 0), (1, 1, 1), (0, 1, 1), (0, 1, 1)])
    assert minimal_generators(K).generators == (m(1, 1, 0), m(0, 1, 1))


def test_polarize_squarefree_identity():
    I = ideal(["x", "y"], [(1, 1), (0, 1)])
    J, mapping = polarize(I)
    assert J == I
    assert mapping == {0: 0, 1: 1}


def test_polarize_square():
    I = ideal(["x"], [(2,)])
    J, mapping = polarize(I)
    assert J.variables == ("x_1", "x_2")
    assert J.generators == (m(1, 1),)
    assert mapping == {0: 0, 1: 0}


def test_polarize_skips_taken_names():
    # x_1 is a variable of the ring, so the copies of x are x_2 and x_3;
    # they were once named x_1 and x_2, and x_1*x printed as x_1*x_1
    I = parse_ideal("ring x x_1; gens x^2, x_1*x")
    J, mapping = polarize(I)
    assert J.variables == ("x_2", "x_3", "x_1")
    assert mapping == {0: 0, 1: 0, 2: 1}
    assert J.generator_strs() == ["x_2*x_3", "x_2*x_1"]
    for p in (0, 2):
        assert tor_betti(I, p).totals() == tor_betti(J, p).totals()


def test_repeated_variable_name_rejected():
    with pytest.raises(AmbientError, match="repeated variable"):
        MonomialIdeal(("x", "y", "x"), ())
    with pytest.raises(AmbientError, match="repeated variable"):
        ideal(["x_1", "x_1"], [(1, 0)])


def test_polarize_betti_agreement():
    I = ideal(["x", "y"], [(2, 0), (1, 1)])
    J, _ = polarize(I)
    assert J.generator_strs() == ["x_1*x_2", "x_1*y"]
    for p in (0, 2, 3):
        assert tor_betti(I, p).totals() == tor_betti(J, p).totals()


def test_monomial_str():
    assert monomial_str(m(2, 0, 1), ("x1", "x2", "x3")) == "x1^2*x3"
    assert monomial_str(m(0, 0), ("x", "y")) == "1"


small_exps = st.lists(st.integers(0, 4), min_size=3, max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(small_exps, small_exps, small_exps)
def test_lcm_properties(a, b, c):
    ma, mb, mc = Monomial(a), Monomial(b), Monomial(c)
    assert lcm(ma, mb) == lcm(mb, ma)
    assert lcm(ma, lcm(mb, mc)) == lcm(lcm(ma, mb), mc)
    assert lcm(ma, ma) == ma
    assert divides(ma, lcm(ma, mb))


gen_lists = st.lists(
    st.lists(st.integers(0, 3), min_size=3, max_size=3)
    .map(tuple)
    .filter(any),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(gen_lists)
def test_minimal_generators_properties(rows):
    I = ideal(["x", "y", "z"], rows)
    M = minimal_generators(I)
    assert minimal_generators(M) == M
    # every dropped generator is divisible by a kept one
    for g in I.generators:
        assert any(divides(h, g) for h in M.generators)


@settings(max_examples=40, deadline=None)
@given(gen_lists)
def test_polarize_is_squarefree(rows):
    I = ideal(["x", "y", "z"], rows)
    J, mapping = polarize(I)
    assert all(g.is_squarefree for g in J.generators)
    assert set(mapping.values()) <= set(range(I.nvars))
    # total degrees are preserved generator by generator
    for g, h in zip(I.generators, J.generators):
        assert g.total_degree == h.total_degree
