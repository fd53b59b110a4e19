"""Weyl groups as signed permutations, restriction of invariants, the
type-D obstruction, and the lift of invariants.

Restricting the subgroup that stabilizes an embedded coordinate subspace
recovers the smaller Weyl group for families A, B, C; for family D the
image is strictly larger (all sign changes), and correspondingly the
restriction of invariant polynomials misses the odd Pfaffian span.  For
the surjective families every invariant downstairs lifts to an invariant
upstairs, by one exact rational solve through the restricted invariant
basis.
"""

from fractions import Fraction

from pwkit import (MultivariatePolynomial, ObstructionHit, RootSystemSpec,
                   chevalley_generators, ow1_lift, restricted_group,
                   stabilizer, surjectivity_certificate, weyl_group)

b4, b2 = RootSystemSpec("B", 4), RootSystemSpec("B", 2)
d5, d4 = RootSystemSpec("D", 5), RootSystemSpec("D", 4)

print("group orders: |W(B4)| = %d, |W(D5)| = %d"
      % (len(weyl_group(b4)), len(weyl_group(d5))))
print("stabilizer of the first 2 coordinates in W(B4): %d elements"
      % len(stabilizer(b4, 2)))
print("restricted to the plane: %d elements (= |W(B2)| = %d)"
      % (len(restricted_group(b4, 2)), len(weyl_group(b2))))
print("restricted D5 stabilizer on 4 letters: %d elements (|W(D4)| = %d)"
      % (len(restricted_group(d5, 4)), len(weyl_group(d4))))

cert = surjectivity_certificate(b4, b2, 6)
print("\nB4 -> B2 restriction of invariants (degree <= 6): surjective =",
      cert.surjective)
target_idx = 3
print("example witness for downstairs basis element %d:" % target_idx)
print(cert.preimage(target_idx).to_text().strip())

cert_d = surjectivity_certificate(d5, d4, 6)
print("\nD5 -> D4: surjective =", cert_d.surjective)
print("unreachable basis elements (the odd Pfaffian span):")
for i in cert_d.obstruction:
    print("  " + cert_d.downstairs_basis[i].to_text().strip().replace("\n", " + "))

# the lift: one exact solve through the restricted W(B4)-invariant basis
x1sq_plus_x2sq = chevalley_generators(b2)[0]
H = ow1_lift(x1sq_plus_x2sq, b4, b2)
print("\nlift of x1^2 + x2^2 to a W(B4)-invariant:")
print(H.to_text().strip())
print("restriction check:", H.restrict(2) == x1sq_plus_x2sq)

pf = MultivariatePolynomial(4, {(1, 1, 1, 1): Fraction(1)})
try:
    ow1_lift(pf, d5, d4)
except ObstructionHit as exc:
    # no restricted W(D5)-invariant has odd Pfaffian content
    print("\nlifting the D4 Pfaffian fails as the theory demands:")
    print("  ObstructionHit:", exc)
