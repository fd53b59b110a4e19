"""Property tests of the exact polynomial algebra in pwkit.weyl.

Run with derandomize=True: the examples are a fixed function of each test,
so the suite is deterministic.
"""

import math
from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from pwkit import (MultivariatePolynomial, ObstructionHit,  # noqa: E402
                   RootSystemSpec, SignedPermutation, ow1_lift,
                   surjectivity_certificate, weyl_group)
from pwkit.weyl import _combination, _solve_combination  # noqa: E402

P = MultivariatePolynomial

deterministic = settings(derandomize=True, database=None, deadline=None,
                         max_examples=60)

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def polynomials(draw, nvars):
    exponent = st.tuples(*[st.integers(0, 4)] * nvars)
    return P(nvars, draw(st.dictionaries(exponent, coefficients,
                                         max_size=6)))


@st.composite
def signed_permutations(draw, k):
    perm = draw(st.permutations(range(k)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    return SignedPermutation(perm, signs)


@st.composite
def poly_and_perms(draw):
    k = draw(st.integers(1, 4))
    return (draw(polynomials(k)), draw(signed_permutations(k)),
            draw(signed_permutations(k)))


def evaluate(p, x):
    """p at the integer point x, exactly."""
    return sum(c * math.prod(xi**a for xi, a in zip(x, e))
               for e, c in p.terms.items())


def pull_back(w, x):
    """w^{-1} x: coordinate j is signs[j] x_{perm[j]}, as w e_j =
    signs[j] e_{perm[j]}."""
    return [s * x[i] for s, i in zip(w.signs, w.perm)]


@deterministic
@given(poly_and_perms())
def test_apply_is_a_left_action(args):
    # (w.p)(x) = p(w^{-1} x), so a.(b.p) is p at b^{-1} a^{-1} x.  Every
    # exponent is at most 4, and a polynomial of degree <= 4 in each
    # variable that vanishes on {-2..2}^k is zero: agreement on that grid
    # is equality as polynomials
    p, a, b = args
    ap, abp = p.apply(a), p.apply(b).apply(a)
    for x in product(range(-2, 3), repeat=p.nvars):
        assert evaluate(ap, x) == evaluate(p, pull_back(a, x))
        assert evaluate(abp, x) == evaluate(p, pull_back(b, pull_back(a, x)))


@deterministic
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_restrict_and_embed(n, extra, data):
    m = n + extra
    big = data.draw(polynomials(m))
    other = data.draw(polynomials(m))
    # setting trailing variables to zero is a ring homomorphism
    assert (big + other).restrict(n) == big.restrict(n) + other.restrict(n)
    assert (big * other).restrict(n) == big.restrict(n) * other.restrict(n)
    # what restriction keeps, embedded back with zero trailing exponents,
    # is exactly the terms free of trailing variables
    pad = (0,) * extra
    assert {e + pad: c for e, c in big.restrict(n).terms.items()} == {
        e: c for e, c in big.terms.items() if not any(e[n:])}


@deterministic
@given(st.integers(1, 4).flatmap(
    lambda k: st.dictionaries(st.tuples(*[st.integers(0, 3)] * k),
                              coefficients, max_size=6).map(
        lambda terms: (k, terms))))
def test_constructor_drops_zeros_and_checks_arity(args):
    k, terms = args
    p = P(k, terms)
    assert all(c != 0 for c in p.terms.values())
    assert p.terms == {e: c for e, c in terms.items() if c}
    with pytest.raises(ValueError):
        P(k + 1, {(1,) * k: Fraction(1)})
    with pytest.raises(ValueError):
        p + P.zero(k + 1)


integer_coefficients = st.integers(-6, 6)


@st.composite
def integer_polynomials(draw, nvars):
    exponent = st.tuples(*[st.integers(0, 3)] * nvars)
    return P(nvars, draw(st.dictionaries(exponent, integer_coefficients,
                                         max_size=6)))


def as_fractions(p):
    """p with every coefficient a Fraction, built past the constructor,
    which would store the integral ones as ints."""
    return P._from_terms(p.nvars, {e: Fraction(c) for e, c in p.terms.items()})


@deterministic
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    integer_polynomials(k), st.integers(0, k))))
def test_restrict_substitutes_zero(args):
    # p restricted to the first nkeep variables is p with the others set
    # to zero.  Every exponent is at most 3, so agreement on {-2..1}^nkeep
    # is equality as polynomials
    p, nkeep = args
    r = p.restrict(nkeep)
    assert r.nvars == nkeep and all(c != 0 for c in r.terms.values())
    pad = (0,) * (p.nvars - nkeep)
    for x in product(range(-2, 2), repeat=nkeep):
        assert evaluate(r, x) == evaluate(p, x + pad)


@deterministic
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    integer_polynomials(k), integer_polynomials(k), signed_permutations(k),
    st.integers(0, k))))
def test_integer_arithmetic_matches_fractions(args):
    p, q, w, nkeep = args
    pf, qf = as_fractions(p), as_fractions(q)
    for got, want in ((p * q, pf * qf), (p + q, pf + qf),
                      (p.apply(w), pf.apply(w)),
                      (p.restrict(nkeep), pf.restrict(nkeep))):
        assert got == want
        assert all(type(c) is int for c in got.terms.values())


@deterministic
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.lists(integer_polynomials(k), min_size=1, max_size=4),
    st.lists(integer_coefficients, min_size=4, max_size=4),
    integer_polynomials(k), st.booleans())))
def test_integer_solve_matches_fractions(args):
    candidates, coeffs, extra, in_span = args
    nvars = candidates[0].nvars
    target = _combination(coeffs, candidates, nvars)
    if not in_span:
        target = target + extra
    sol, = _solve_combination(candidates, [target])
    assert [sol] == _solve_combination([as_fractions(c) for c in candidates],
                                       [as_fractions(target)])
    if in_span:
        assert sol is not None
    if sol is not None:
        assert all(type(v) is int or (type(v) is Fraction
                                      and v.denominator != 1) for v in sol)
        assert _combination(sol, candidates, nvars) == target


LIFTS = [(surjectivity_certificate(RootSystemSpec(fam, k),
                                   RootSystemSpec(fam, n), d),
          weyl_group(RootSystemSpec(fam, k)))
         for fam, k, n, d in (("A", 3, 2, 6), ("B", 3, 2, 8), ("D", 5, 4, 6))]
# every pair is drawn off its obstruction, and the D pair also with a
# nonzero coefficient on it, so that both outcomes occur
CASES = ([(cert, group, False) for cert, group in LIFTS]
         + [(cert, group, True) for cert, group in LIFTS if cert.obstruction])


@st.composite
def lift_and_coefficients(draw):
    cert, group, obstructed = draw(st.sampled_from(CASES))
    size = len(cert.downstairs_basis)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    if obstructed:
        i = draw(st.sampled_from(cert.obstruction))
        coeffs[i] = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    else:
        coeffs = [0 if i in cert.obstruction else c
                  for i, c in enumerate(coeffs)]
    return cert, group, coeffs


@deterministic
@given(lift_and_coefficients())
def test_lift_fails_exactly_on_the_certified_obstruction(args):
    cert, group, coeffs = args
    target = P.zero(cert.downstairs_basis[0].nvars)
    for c, b in zip(coeffs, cert.downstairs_basis):
        target = target + b.scale(c)
    if any(coeffs[i] for i in cert.obstruction):
        with pytest.raises(ObstructionHit):
            ow1_lift(target, cert.spec_k, cert.spec_n)
        return
    H = ow1_lift(target, cert.spec_k, cert.spec_n)
    assert H.restrict(target.nvars) == target
    assert all(H.apply(w) == H for w in group)
