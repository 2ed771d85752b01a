"""The integer routes of the identity checks against the composed operators.

Each check that only asks "is it zero?" or "are they equal?" works over
one common denominator.  These tests hold every such route to the
Fraction composition it replaced, on seeded random axial polynomials
with mixed denominators, monogenic and non-monogenic inputs, residual
keys that cancel, an empty A or B, and rescaled polynomials.
"""

import random
from fractions import Fraction

import pytest

from cliffex.appell import AppellPropertyReport, appell_property_report, appell_sequence
from cliffex.axial import AxialPolynomial, BivariatePoly, vekua_residual
from cliffex.clifford import Multivector
from cliffex.fueter import alpha_monomial, fueter_sce_monomial
from cliffex.polycheck import CliffordPolynomial, cauchy_riemann_apply, from_axial, is_monogenic

F = Fraction
DIMS = (3, 5, 7, 9)


def composed_residual(G):
    A, B, n = G.A, G.B, G.n
    return (A.diff_x0() - B.diff_r() - (n - 1) * B.divide_r(), B.diff_x0() + A.diff_r())


def random_coefficient(rng):
    den = rng.choice((1, 2, 3, 7, 12, 35, rng.randrange(1, 400)))
    return F(rng.choice((-1, 1)) * rng.randrange(1, 60), den)


def random_axial(rng, n, degree):
    a_terms, b_terms = {}, {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if rng.random() < 0.6:
                (b_terms if j % 2 else a_terms)[(i, j)] = random_coefficient(rng)
    return AxialPolynomial(BivariatePoly(a_terms), BivariatePoly(b_terms), n)


def perturbed(G, rng):
    """G with one coefficient moved: most residual keys of a monogenic G still cancel."""
    part = "A" if G.B.is_zero or (not G.A.is_zero and rng.random() < 0.5) else "B"
    terms = dict(getattr(G, part).terms())
    key = rng.choice(sorted(terms))
    terms[key] += F(1, rng.randrange(2, 9))
    A = BivariatePoly(terms) if part == "A" else G.A
    B = BivariatePoly(terms) if part == "B" else G.B
    return AxialPolynomial(A, B, G.n)


def residual_cases(rng, n, degree):
    appell = appell_sequence(n, degree)
    cases = [random_axial(rng, n, d) for d in (0, 1, 3, degree)]
    cases += appell[:: max(1, degree // 4)]
    cases += [fueter_sce_monomial(n, k + n - 1) for k in (0, 2, degree)]
    cases += [fueter_sce_monomial(n, k + n - 1, normalized=False) for k in (1, degree)]
    cases += [perturbed(P, rng) for P in appell[1:]]
    G = random_axial(rng, n, degree)
    cases += [
        AxialPolynomial(G.A, BivariatePoly.zero(), n),
        AxialPolynomial(BivariatePoly.zero(), G.B, n),
        AxialPolynomial.zero(n),
        AxialPolynomial(BivariatePoly({(0, 0): F(-5, 3)}), BivariatePoly.zero(), n),
        G * F(1, 2),
        appell[degree] * F(-3, 2),
        AxialPolynomial(G.A * F(1, 4), G.B, n),
    ]
    return cases


@pytest.mark.parametrize("n", DIMS)
def test_vekua_residual_equals_the_composed_operators(n):
    rng = random.Random(5000 + n)
    monogenic = 0
    for G in residual_cases(rng, n, 14):
        first, second = vekua_residual(G)
        ref_first, ref_second = composed_residual(G)
        assert first == ref_first and second == ref_second, G
        assert all(c for _, c in first.terms()) and all(c for _, c in second.terms())
        monogenic += first.is_zero and second.is_zero
    assert monogenic >= 6  # the Appell and transform cases


def oracle_cases(rng, n):
    top = 5 if n <= 5 else 3
    cases = [from_axial(P) for P in appell_sequence(n, top)]
    cases += [from_axial(random_axial(rng, n, d)) for d in (1, 2, top)]
    cases += [from_axial(perturbed(P, rng)) for P in appell_sequence(n, top)[1:]]
    cases += [from_axial(appell_sequence(n, 2)[2] * F(1, 2)), CliffordPolynomial.zero(n)]
    # right multiplication by a constant keeps D P = 0 and fills higher-grade blades
    M = Multivector(n, {0: F(2, 3), 0b11: F(-1, 5), 0b101: 1, (1 << n) - 1: F(7, 4)})
    for P in appell_sequence(n, top)[1:]:
        Q = from_axial(P)
        cases.append(CliffordPolynomial(n, {e: mv * M for e, mv in Q.terms()}))
    for _ in range(4):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            expo = tuple(rng.randrange(3) for _ in range(n + 1))
            blades = {rng.randrange(1 << n): random_coefficient(rng) for _ in range(3)}
            terms[expo] = Multivector(n, blades)
        cases.append(CliffordPolynomial(n, terms))
    return cases


@pytest.mark.parametrize("n", DIMS)
def test_is_monogenic_equals_the_expanded_operator(n):
    rng = random.Random(6000 + n)
    verdicts = []
    for P in oracle_cases(rng, n):
        verdict = is_monogenic(P)
        assert verdict == cauchy_riemann_apply(P).is_zero
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def reference_report(polys):
    K = len(polys) - 1
    for k in range(1, K + 1):
        if polys[k].diff_x0() != k * polys[k - 1]:
            return AppellPropertyReport(polys[0].n, K, False, first_failure=k)
    return AppellPropertyReport(polys[0].n, K, True)


def edits(P):
    """Every one-coefficient change of P: shift, drop, sign flip, and one extra key."""
    for part in ("A", "B"):
        terms = dict(getattr(P, part).terms())
        for key in terms:
            for value in (terms[key] + F(1, 7), None, -terms[key]):
                changed = dict(terms)
                if value is None:
                    del changed[key]
                else:
                    changed[key] = value
                yield part, changed
        extra = dict(terms)
        extra[(0, 2 if part == "A" else 1)] = extra.get((0, 2 if part == "A" else 1), 0) + 1
        yield part, extra


@pytest.mark.parametrize("n", DIMS)
def test_appell_property_report_equals_the_derivative_loop(n):
    K = 12
    polys = appell_sequence(n, K)
    assert appell_property_report(polys) == reference_report(polys) == AppellPropertyReport(n, K, True)
    failures = set()
    for k in range(K + 1):
        for part, terms in edits(polys[k]):
            P = polys[k]
            A = BivariatePoly(terms) if part == "A" else P.A
            B = BivariatePoly(terms) if part == "B" else P.B
            broken = polys[:k] + [AxialPolynomial(A, B, n)] + polys[k + 1 :]
            report = appell_property_report(broken)
            assert report == reference_report(broken), (k, part, terms)
            failures.add(report.first_failure)
    assert failures >= set(range(1, K + 1))


def test_appell_property_report_compares_dimensions():
    polys = appell_sequence(3, 4)
    mixed = polys[:2] + [AxialPolynomial(polys[2].A, polys[2].B, 5)] + polys[3:]
    assert appell_property_report(mixed) == reference_report(mixed)
    assert appell_property_report(mixed).first_failure == 2


@pytest.mark.parametrize("n", DIMS)
def test_normalized_transform_is_alpha_times_the_raw_one(n):
    for k in range(n - 1, n + 45):
        normalized = fueter_sce_monomial(n, k)
        scaled = alpha_monomial(n, k) * fueter_sce_monomial(n, k, normalized=False)
        assert normalized == scaled
        assert list(normalized.A.terms()) == list(scaled.A.terms())
        assert list(normalized.B.terms()) == list(scaled.B.terms())
    for k in range(n - 1):
        assert fueter_sce_monomial(n, k).is_zero
