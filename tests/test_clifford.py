"""Generator relations, product signs, and paravector arithmetic in Cl(0,n)."""

import random
from fractions import Fraction

import pytest

from cliffex.clifford import Multivector, Paravector, paravector_power


def random_multivector(rng, n, max_terms=4):
    coeffs = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        mask = rng.randrange(1 << n)
        coeffs[mask] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return Multivector(n, coeffs)


def test_generators_square_to_minus_one():
    for n in (3, 5, 7):
        for i in range(1, n + 1):
            e = Multivector.basis_vector(n, i)
            assert e * e == Multivector.scalar(n, -1)


def test_generators_anticommute():
    n = 5
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            a = Multivector.basis_vector(n, i)
            b = Multivector.basis_vector(n, j)
            assert a * b == -(b * a)


def test_product_is_associative_on_random_inputs():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice((3, 5))
        a = random_multivector(rng, n)
        b = random_multivector(rng, n)
        c = random_multivector(rng, n)
        assert (a * b) * c == a * (b * c)


def test_product_distributes_over_addition():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.choice((3, 5))
        a = random_multivector(rng, n)
        b = random_multivector(rng, n)
        c = random_multivector(rng, n)
        assert a * (b + c) == a * b + a * c


def test_blade_product_example():
    # e1 e2 * e2 e3 = e1 (e2 e2) e3 = -e1 e3
    n = 3
    e12 = Multivector(n, {0b011: 1})
    e23 = Multivector(n, {0b110: 1})
    assert e12 * e23 == Multivector(n, {0b101: -1})


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Multivector.scalar(3, 1) + Multivector.scalar(5, 1)
    with pytest.raises(ValueError):
        Multivector.basis_vector(3, 4)
    with pytest.raises(ValueError):
        Multivector(3, {0b1000: 1})


def test_paravector_square_stays_in_the_plane():
    # x^2 = (x0^2 - |x|^2) + 2 x0 x, so powers never leave span{1, x}
    x = Paravector(Fraction(2), (Fraction(1), Fraction(-1), Fraction(3)))
    sq = paravector_power(x, 2)
    norm = x.vector_norm_sq()
    expected = Multivector(
        3,
        {
            0: x.x0 * x.x0 - norm,
            0b001: 2 * x.x0 * x.vec[0],
            0b010: 2 * x.x0 * x.vec[1],
            0b100: 2 * x.x0 * x.vec[2],
        },
    )
    assert sq == expected


def test_paravector_powers_have_grade_at_most_one():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.choice((3, 5))
        x = Paravector(
            Fraction(rng.randrange(-3, 4)),
            tuple(Fraction(rng.randrange(-3, 4)) for _ in range(n)),
        )
        for k in range(6):
            assert paravector_power(x, k).max_grade() <= 1


def test_conjugate_gives_squared_norm():
    x = Paravector(Fraction(1), (Fraction(2), Fraction(0), Fraction(-1)))
    conjugate = Paravector(x.x0, tuple(-c for c in x.vec))
    product = x.to_multivector() * conjugate.to_multivector()
    assert product == Multivector.scalar(3, Fraction(1 + 4 + 0 + 1))


def test_pure_vector_square_is_minus_norm():
    x = Paravector(0, (1, 2, 2))
    assert paravector_power(x, 2) == Multivector.scalar(3, -9)


def test_multivector_text():
    mv = Multivector(3, {0: Fraction(1, 2), 0b001: -1, 0b011: Fraction(2)})
    assert str(mv) == "1/2 - e1 + 2 e12"
    assert str(Multivector.zero(3)) == "0"
