"""Property tests of the exact polynomial algebra in pwkit.weyl.

Run with derandomize=True: the examples are a fixed function of each test,
so the suite is deterministic.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from pwkit import (MultivariatePolynomial, ObstructionHit,  # noqa: E402
                   RootSystemSpec, SignedPermutation, ow1_lift,
                   surjectivity_certificate, weyl_group)

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


@deterministic
@given(poly_and_perms())
def test_apply_is_a_left_action(args):
    p, a, b = args
    assert p.apply(a.compose(b)) == p.apply(b).apply(a)
    assert p.apply(SignedPermutation.identity(p.nvars)) == p
    assert p.apply(a).apply(a.inverse()) == p


@deterministic
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_restrict_and_embed(n, extra, data):
    p = data.draw(polynomials(n))
    q = data.draw(polynomials(n))
    m = n + extra
    assert p.embed(m).restrict(n) == p
    big = data.draw(polynomials(m))
    other = data.draw(polynomials(m))
    # setting trailing variables to zero is a ring homomorphism
    assert (big + other).restrict(n) == big.restrict(n) + other.restrict(n)
    assert (big * other).restrict(n) == big.restrict(n) * other.restrict(n)
    assert (p * q).embed(m) == p.embed(m) * q.embed(m)
    # what restriction keeps is exactly the terms free of trailing variables
    assert big.restrict(n).embed(m) == P(m, {
        e: c for e, c in big.terms.items() if not any(e[n:])})


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
