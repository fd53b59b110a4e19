import gc
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pwkit import weyl
from pwkit import (DegreeTooLarge, GroupTooLarge, MultivariatePolynomial,
                   NotInvariant, ObstructionHit, RootSystemSpec,
                   SignedPermutation, chevalley_generators, group_order,
                   invariant_basis, ow1_lift, restricted_group, stabilizer,
                   surjectivity_certificate, weyl_group)
from pwkit.weyl import _simple_reflections

P = MultivariatePolynomial


def var(i, nv):
    """The coordinate x_{i+1} in nv variables."""
    return P(nv, {tuple(int(j == i) for j in range(nv)): 1})


def exponents(nvars, d):
    """Every exponent tuple in nvars variables of total degree <= d."""
    return [e for e in product(range(d + 1), repeat=nvars) if sum(e) <= d]


def separating(k):
    """x1 + 2 x2 + ... + k xk.  Only the identity among the signed
    permutations of k coordinates fixes it, so a group acts on its orbit
    as on itself: one orbit element per group element, and w p = v p only
    for w = v."""
    return P(k, {tuple(int(j == i) for j in range(k)): i + 1
                 for i in range(k)})


def key(p):
    """A hashable stand-in for the polynomial p."""
    return tuple(sorted(p.terms.items()))


def orbit(p, group):
    return {key(p.apply(w)) for w in group}


def evaluate(p, x):
    """p at the integer point x, exactly."""
    return sum(c * math.prod(xi**a for xi, a in zip(x, e))
               for e, c in p.terms.items())


class TestGroups:
    @pytest.mark.parametrize("family,rank,order", [
        ("B", 2, 8), ("A", 2, 6), ("D", 4, 192), ("C", 3, 48), ("A", 3, 24),
    ])
    def test_orders(self, family, rank, order):
        g = weyl_group(RootSystemSpec(family, rank))
        assert len(g) == order == group_order(RootSystemSpec(family, rank))
        assert len(set(g)) == order

    def test_d4_closed_under_composition(self):
        # a (b p) = c p for some c in the group, for all a, b: the orbit of
        # every orbit element is the orbit itself
        g = weyl_group(RootSystemSpec("D", 4))
        p = separating(4)
        whole = orbit(p, g)
        assert len(whole) == len(g)
        for w in g:
            assert orbit(p.apply(w), g) == whole

    def test_inverses(self):
        # every element is undone by some element of the group
        g = weyl_group(RootSystemSpec("B", 3))
        p = separating(3)
        for w in g:
            wp = p.apply(w)
            assert any(wp.apply(v) == p for v in g)

    def test_too_large(self):
        with pytest.raises(GroupTooLarge):
            weyl_group(RootSystemSpec("B", 8))

    def test_d_signs_even(self):
        for w in weyl_group(RootSystemSpec("D", 4)):
            assert w.signs.count(-1) % 2 == 0


class TestSimpleReflections:
    @pytest.mark.parametrize("family,rank", [
        ("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2), ("B", 3), ("C", 3),
        ("D", 1), ("D", 2), ("D", 3), ("D", 4), ("D", 5),
    ])
    def test_generate_the_group(self, family, rank):
        # the closure of {p} under the reflections is the orbit of the
        # group, so the reflections generate it (p separates, see above)
        spec = RootSystemSpec(family, rank)
        p = separating(spec.ambient_vars)
        closure, frontier = {key(p)}, [p]
        while frontier:
            new = {key(q): q for q in (f.apply(s) for f in frontier
                                       for s in _simple_reflections(spec))
                   if key(q) not in closure}
            closure |= set(new)
            frontier = list(new.values())
        assert closure == orbit(p, weyl_group(spec))


class TestStabilizer:
    def test_whole_group_when_n_equals_k(self):
        spec = RootSystemSpec("B", 3)
        assert len(stabilizer(spec, 3)) == 48

    def test_b3_n1(self):
        assert len(stabilizer(RootSystemSpec("B", 3), 1)) == 16

    def test_a2_n0_whole_group(self):
        assert len(stabilizer(RootSystemSpec("A", 2), 0)) == 6


class TestRestrictedGroup:
    def test_b4_to_b2(self):
        img = set(restricted_group(RootSystemSpec("B", 4), 2))
        full = set(weyl_group(RootSystemSpec("B", 2)))
        assert img == full

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_b_pairs_setwise(self, k):
        for n in range(2, k):
            img = set(restricted_group(RootSystemSpec("B", k), n))
            assert img == set(weyl_group(RootSystemSpec("B", n)))

    @pytest.mark.parametrize("k", [4, 5])
    def test_d_pairs_full_hyperoctahedral(self, k):
        for n in range(2, k):
            img = restricted_group(RootSystemSpec("D", k), n)
            assert len(img) == 2**n * math.factorial(n)
            if n >= 2:
                assert len(img) > group_order(RootSystemSpec("D", n))

    def test_a3_to_a2(self):
        img = set(restricted_group(RootSystemSpec("A", 3), 2))
        assert img == set(weyl_group(RootSystemSpec("A", 2)))

    def test_a_rank_zero_has_no_block(self):
        # every element fixes the origin, but most move coordinate 1
        with pytest.raises(ValueError):
            restricted_group(RootSystemSpec("A", 2), 0)

    @pytest.mark.parametrize("family,k,n", [
        ("A", 3, 1), ("B", 4, 2), ("C", 3, 3), ("D", 5, 3), ("B", 3, 0),
    ])
    def test_enumerated_elements_pass_validation(self, family, k, n):
        # the enumeration skips the constructor's checks, so every element
        # it makes must pass them
        spec = RootSystemSpec(family, k)
        for w in weyl_group(spec) + restricted_group(spec, n):
            assert type(w.perm) is tuple and type(w.signs) is tuple
            assert SignedPermutation(w.perm, w.signs) == w


class TestInvariantBasis:
    def test_b2_degree_two(self):
        basis = invariant_basis(RootSystemSpec("B", 2), 2)
        one = P.constant(2, 1)
        e1 = chevalley_generators(RootSystemSpec("B", 2))[0]
        assert one in basis and e1 in basis and len(basis) == 2

    def test_d4_contains_pfaffian(self):
        basis = invariant_basis(RootSystemSpec("D", 4), 4)
        pf = P(4, {(1, 1, 1, 1): Fraction(1)})
        assert pf in basis

    def test_dimensions_match_molien(self):
        # Molien oracle: dim of degree-d invariants equals the group average
        # of the trace of w acting on degree-d monomials
        spec = RootSystemSpec("B", 2)
        group = weyl_group(spec)
        for d in range(7):
            monos = [e for e in exponents(2, d) if sum(e) == d]
            dim = Fraction(0)
            for w in group:
                tr = Fraction(0)
                for e in monos:
                    img = P(2, {e: Fraction(1)}).apply(w)
                    tr += img.terms.get(e, Fraction(0))
                dim += tr
            dim /= len(group)
            got = sum(1 for b in invariant_basis(spec, 6) if b.degree() == d)
            assert got == dim

    def test_degree_cap(self):
        with pytest.raises(DegreeTooLarge):
            invariant_basis(RootSystemSpec("B", 2), 13)
        # the exact solves stop at degree 10, below the basis cap
        with pytest.raises(DegreeTooLarge):
            surjectivity_certificate(RootSystemSpec("B", 3),
                                     RootSystemSpec("B", 2), 11)
        e2, e3 = chevalley_generators(RootSystemSpec("A", 2))
        target = e2 * e2 * e2 * e2 * e3
        assert target.degree() == 11
        with pytest.raises(DegreeTooLarge):
            ow1_lift(target, RootSystemSpec("A", 3), RootSystemSpec("A", 2))


class TestRestrictPoly:
    def test_elementary_symmetric(self):
        e2_3 = chevalley_generators(RootSystemSpec("B", 3))[1]
        e2_2 = chevalley_generators(RootSystemSpec("B", 2))[1]
        assert e2_3.restrict(2) == e2_2

    def test_pfaffian_dies(self):
        pf = P(4, {(1, 1, 1, 1): Fraction(1)})
        assert pf.restrict(2) == P.zero(2)

    def test_restriction_is_invariant_downstairs(self):
        rng = np.random.default_rng(4)
        basis = [b for b in invariant_basis(RootSystemSpec("B", 4), 4)
                 if b.degree() == 4]
        p = P.zero(4)
        for b in basis:
            p = p + b.scale(Fraction(int(rng.integers(-3, 4))))
        r = p.restrict(2)
        b2 = weyl_group(RootSystemSpec("B", 2))
        assert all(r.apply(w) == r for w in b2)


class TestSurjectivity:
    def test_b4_to_b2_witnesses(self):
        cert = surjectivity_certificate(RootSystemSpec("B", 4),
                                        RootSystemSpec("B", 2), 6)
        assert cert.surjective
        for t, q in enumerate(cert.downstairs_basis):
            assert cert.preimage(t).restrict(2) == q

    def test_d5_to_d4_pfaffian_unreachable(self):
        cert = surjectivity_certificate(RootSystemSpec("D", 5),
                                        RootSystemSpec("D", 4), 4)
        assert not cert.surjective
        pf = P(4, {(1, 1, 1, 1): Fraction(1)})
        blocked = [cert.downstairs_basis[i] for i in cert.obstruction]
        assert pf in blocked

    def test_d_obstruction_is_odd_pfaffian_span(self):
        cert = surjectivity_certificate(RootSystemSpec("D", 5),
                                        RootSystemSpec("D", 4), 6)
        # restricted invariants are even in every coordinate, so the
        # unreachable basis elements are exactly those with an odd Pfaffian
        # exponent, whose monomials are odd in every coordinate
        odd = {i for i, b in enumerate(cert.downstairs_basis)
               if all(all(a % 2 == 1 for a in e) for e in b.terms)
               and b != P.zero(4) and b.degree() > 0}
        assert set(cert.obstruction) == odd
        assert odd  # the span is nontrivial at this degree

    def test_identity_restriction(self):
        cert = surjectivity_certificate(RootSystemSpec("B", 3),
                                        RootSystemSpec("B", 3), 6)
        assert cert.surjective

    def test_d_image_even_under_all_sign_changes(self):
        # every restricted upstairs invariant is fixed by every single sign
        # change downstairs, not just the even-sign ones
        cert = surjectivity_certificate(RootSystemSpec("D", 5),
                                        RootSystemSpec("D", 4), 6)
        flips = [SignedPermutation(tuple(range(4)),
                                   tuple(-1 if j == i else 1 for j in range(4)))
                 for i in range(4)]
        for b in cert.upstairs_basis:
            r = b.restrict(4)
            for w in flips:
                assert r.apply(w) == r

    def test_a_pair(self):
        cert = surjectivity_certificate(RootSystemSpec("A", 3),
                                        RootSystemSpec("A", 2), 4)
        assert cert.surjective
        for t, q in enumerate(cert.downstairs_basis):
            assert cert.preimage(t).restrict(3) == q


ALGEBRA_CERTIFICATES = [("B", 4, 2, 6), ("B", 5, 3, 8), ("C", 4, 3, 6),
                        ("A", 4, 2, 6), ("D", 5, 4, 6)]


class TestOneElimination:
    """A certificate eliminates its restricted basis once for the whole
    downstairs basis, and a lift once for its target; the result is the
    one-column solve of each downstairs element."""

    @staticmethod
    def count_solves(monkeypatch):
        calls = []
        solve = weyl._solve_exact

        def counted(rows, columns, nunknowns):
            calls.append(len(columns))
            return solve(rows, columns, nunknowns)
        monkeypatch.setattr(weyl, "_solve_exact", counted)
        return calls

    def test_certificate_solves_once(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        cert = surjectivity_certificate(RootSystemSpec("B", 4),
                                        RootSystemSpec("B", 2), 6)
        assert calls == [len(cert.downstairs_basis)]

    def test_lift_solves_once(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        spec_n = RootSystemSpec("B", 2)
        ow1_lift(chevalley_generators(spec_n)[1], RootSystemSpec("B", 4),
                 spec_n)
        assert calls == [1]

    @pytest.mark.parametrize("family,k,n,d", ALGEBRA_CERTIFICATES)
    def test_certificate_matches_one_column_solves(self, family, k, n, d):
        cert = surjectivity_certificate(RootSystemSpec(family, k),
                                        RootSystemSpec(family, n), d)
        nkeep = cert.spec_n.ambient_vars
        restricted = [b.restrict(nkeep) for b in cert.upstairs_basis]
        obstruction = []
        for t, q in enumerate(cert.downstairs_basis):
            sol, = weyl._solve_combination(restricted, [q])
            if sol is None:
                obstruction.append(t)
            else:
                assert cert.witnesses[t] == sol
                assert [type(v) for v in cert.witnesses[t]] == [
                    type(v) for v in sol]
        assert cert.obstruction == obstruction
        assert sorted(cert.witnesses) == [
            t for t in range(len(cert.downstairs_basis))
            if t not in obstruction]
        assert bool(obstruction) == (family == "D")


class TestOw1Lift:
    SPEC_K = RootSystemSpec("B", 4)
    SPEC_N = RootSystemSpec("B", 2)

    def test_simple_target(self):
        target = chevalley_generators(self.SPEC_N)[0]  # x1^2 + x2^2
        H = ow1_lift(target, self.SPEC_K, self.SPEC_N)
        assert H.restrict(2) == target
        full = weyl_group(self.SPEC_K)
        assert all(H.apply(w) == H for w in full)

    def test_constant_target(self):
        H = ow1_lift(P.constant(2, 1), self.SPEC_K, self.SPEC_N)
        assert H == P.constant(4, 1)

    def test_random_targets_exact(self):
        rng = np.random.default_rng(7)
        basis = invariant_basis(self.SPEC_N, 6)
        group = weyl_group(self.SPEC_K)
        for _ in range(5):
            target = P.zero(2)
            for b in basis:
                c = int(rng.integers(-4, 5))
                if c:
                    target = target + b.scale(Fraction(c))
            H = ow1_lift(target, self.SPEC_K, self.SPEC_N)
            assert H.restrict(2) == target
            assert all(H.apply(w) == H for w in group[:48])

    def test_d_pair_odd_target_obstructed(self):
        pf = P(4, {(1, 1, 1, 1): Fraction(1)})
        with pytest.raises(ObstructionHit):
            ow1_lift(pf, RootSystemSpec("D", 5), RootSystemSpec("D", 4))

    def test_not_invariant_target_rejected(self):
        with pytest.raises(NotInvariant):
            ow1_lift(var(0, 2), self.SPEC_K, self.SPEC_N)

    @pytest.mark.parametrize("k,n,exponents", [
        (2, 1, (2, 2)), (3, 1, (3, 3)), (3, 2, (2, 2, 2)),
    ], ids=["A2-A1", "A3-A1", "A3-A2"])
    def test_family_a_products_lift(self, k, n, exponents):
        # products of all n+1 downstairs coordinates: the certificate lifts
        # them, so the lift must too
        spec_k, spec_n = RootSystemSpec("A", k), RootSystemSpec("A", n)
        target = P(n + 1, {exponents: Fraction(1)})
        H = ow1_lift(target, spec_k, spec_n)
        assert H.restrict(n + 1) == target
        assert all(H.apply(w) == H for w in weyl_group(spec_k))

    @pytest.mark.xfail(raises=ObstructionHit, strict=True,
                       reason="the family-A invariant basis omits e1")
    def test_family_a_target_with_e1_lifts(self):
        # x1^2 + x2^2 + x3^2 is W(A2)-invariant and restricts to the target
        spec_k, spec_n = RootSystemSpec("A", 2), RootSystemSpec("A", 1)
        target = P(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
        H = ow1_lift(target, spec_k, spec_n)
        assert H.restrict(2) == target
        assert all(H.apply(w) == H for w in weyl_group(spec_k))


class TestPolynomialAlgebra:
    def test_text_format(self):
        p = P(2, {(1, 2): Fraction(1, 2)})
        assert p.to_text().strip() == "1/2 * x1^1 x2^2"

    @staticmethod
    def acts_by_pull_back(p, group):
        """(w.p)(x) == p(w^{-1} x), with (w^{-1} x)_j = signs[j] x_{perm[j]},
        for every w in the group.  No exponent of p exceeds 3, and a
        polynomial of degree <= 4 in each variable that vanishes on
        {-2..2}^k is zero, so agreement there is equality.  The grid is
        closed under signed permutations, so p is evaluated on it once."""
        grid = list(product(range(-2, 3), repeat=p.nvars))
        values = {x: evaluate(p, x) for x in grid}
        for w in group:
            wp = p.apply(w)
            for x in grid:
                y = tuple(s * x[i] for s, i in zip(w.signs, w.perm))
                if evaluate(wp, x) != values[y]:
                    return False
        return True

    def test_apply_respects_composition(self):
        p = P(3, {(1, 2, 0): Fraction(2), (0, 1, 3): Fraction(-1, 3),
                  (1, 1, 1): 1})
        assert self.acts_by_pull_back(p, weyl_group(RootSystemSpec("B", 3)))

    @pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
    def test_apply_in_every_family(self, family, rank):
        # W(A3) permutes 4 ambient coordinates and flips none; W(D4) flips
        # an even number.  Every sign change of W(D4) other than the
        # identity's flips the sign of some term of p and keeps another's
        p = P(4, {(1, 2, 0, 3): 2, (0, 1, 3, 1): Fraction(-1, 3),
                  (1, 1, 0, 0): 1, (2, 0, 2, 2): -5, (0, 0, 0, 1): 7})
        spec = RootSystemSpec(family, rank)
        assert spec.ambient_vars == 4
        assert self.acts_by_pull_back(p, weyl_group(spec))


class TestSolveExact:
    """`_solve_exact` against systems with a planted solution: the result
    must satisfy every equation exactly, and be None exactly when a row
    contradicts the others."""

    @staticmethod
    def planted(rng, m, n, rank):
        # A = B C with sparse integer factors, so rank(A) <= rank; rows are
        # dicts without zero entries, as _solve_combination builds them
        def sparse(shape):
            a = rng.integers(-3, 4, size=shape)
            a[rng.random(shape) < 0.5] = 0
            return a
        A = sparse((m, rank)) @ sparse((rank, n))
        x0 = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
              for _ in range(n)]
        rows = [{c: Fraction(int(v)) for c, v in enumerate(r) if v}
                for r in A]
        rhs = [sum((row.get(c, 0) * x0[c] for c in range(n)), Fraction(0))
               for row in rows]
        return rows, rhs

    @staticmethod
    def row_combination(rng, rows):
        """Random integer weights of the rows and their weighted sum."""
        lam = [int(v) for v in rng.integers(-2, 3, size=len(rows))]
        bad = {}
        for l, row in zip(lam, rows):
            for c, v in row.items():
                bad[c] = bad.get(c, 0) + l * v
        return lam, {c: v for c, v in bad.items() if v}

    @staticmethod
    def residual_free(rows, rhs, sol):
        return all(sum((v * sol[c] for c, v in row.items()), Fraction(0)) == b
                   for row, b in zip(rows, rhs))

    @pytest.mark.parametrize("seed", range(12))
    def test_planted_systems(self, seed):
        from pwkit.weyl import _solve_exact
        rng = np.random.default_rng(seed)
        m, n = (int(v) for v in rng.integers(1, 16, size=2))
        rank = int(rng.integers(1, min(m, n) + 1))
        rows, rhs = self.planted(rng, m, n, rank)
        sol, = _solve_exact(rows, [rhs], n)
        assert sol is not None and len(sol) == n
        # exact values: an int or a Fraction, never a numpy scalar or bool
        assert all(type(v) in (int, Fraction) for v in sol)
        assert self.residual_free(rows, rhs, sol)
        # a particular solution: free unknowns are 0, so at most rank(A)
        # entries are nonzero
        assert sum(1 for v in sol if v) <= rank

        # a combination of the rows with its right-hand side moved by one
        # contradicts every solution of the others
        lam, bad = self.row_combination(rng, rows)
        bad_rhs = sum((l * b for l, b in zip(lam, rhs)), Fraction(0)) + 1
        pos = int(rng.integers(0, m + 1))
        assert _solve_exact(rows[:pos] + [bad] + rows[pos:],
                            [rhs[:pos] + [bad_rhs] + rhs[pos:]], n) == [None]

    @pytest.mark.parametrize("seed", range(6))
    def test_many_columns(self, seed):
        # three right-hand sides of one planted system in one call, one of
        # them contradicted by an extra row that the other two satisfy
        from pwkit.weyl import _solve_exact
        rng = np.random.default_rng(100 + seed)
        m, n = (int(v) for v in rng.integers(2, 16, size=2))
        rank = int(rng.integers(1, min(m, n) + 1))
        rows, first = self.planted(rng, m, n, rank)
        columns = [first]
        for _ in range(2):
            x0 = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                  for _ in range(n)]
            columns.append([sum((v * x0[c] for c, v in row.items()),
                                Fraction(0)) for row in rows])
        lam, bad = self.row_combination(rng, rows)
        contradicted = int(rng.integers(0, 3))
        pos = int(rng.integers(0, m + 1))
        rows = rows[:pos] + [bad] + rows[pos:]
        for t, column in enumerate(columns):
            b = sum((l * v for l, v in zip(lam, column)), Fraction(0))
            column.insert(pos, b + (t == contradicted))

        sols = _solve_exact(rows, columns, n)
        assert len(sols) == 3
        for t, (column, sol) in enumerate(zip(columns, sols)):
            alone, = _solve_exact(rows, [column], n)
            if t == contradicted:
                assert sol is None and alone is None
            else:
                assert sol == alone and self.residual_free(rows, column, sol)
                assert [type(v) for v in sol] == [type(v) for v in alone]

    def test_zero_right_hand_side(self):
        from pwkit.weyl import _solve_exact
        rng = np.random.default_rng(3)
        rows, _ = self.planted(rng, 9, 7, 4)
        assert _solve_exact(rows, [[Fraction(0)] * 9], 7) == [[0] * 7]

    def test_empty_rows(self):
        from pwkit.weyl import _solve_exact
        assert _solve_exact([], [[]], 3) == [[0, 0, 0]]
        assert _solve_exact([{}, {}], [[Fraction(0)] * 2], 2) == [[0, 0]]
        assert _solve_exact([{}], [[Fraction(1)]], 2) == [None]
        # an empty row after a pivot row, and a row that cancels to empty
        rows = [{0: Fraction(2), 1: Fraction(1)}, {},
                {0: Fraction(4), 1: Fraction(2)}]
        assert _solve_exact(rows, [[Fraction(3), 0, Fraction(6)]], 2) == [
            [Fraction(3, 2), 0]]
        assert _solve_exact(rows, [[Fraction(3), 0, Fraction(7)]],
                            2) == [None]


def exact_types(values):
    """Every value is an int, or a Fraction that is not integral."""
    return all(type(v) is int
               or (type(v) is Fraction and v.denominator != 1
                   and type(v.numerator) is int)
               for v in values)


class TestExactCoefficients:
    """Coefficients are ints where integral; a Fraction only where it is
    not, and never a numpy scalar or a bool."""

    def test_numpy_integer_does_not_overflow(self):
        # 3**39 fits in an int64 and its square does not: the coefficient
        # must be a Python int, so the product is 3**78 exactly
        big = np.int64(3) ** 39
        for p in (P(1, {(1,): big}), P(1, {(1,): Fraction(big)}),
                  P.constant(1, big) * var(0, 1), var(0, 1).scale(big)):
            sq = p * p
            assert sq.terms == {(2,): 3**78}
            assert type(sq.terms[(2,)]) is int

    def test_normalised_coefficients(self):
        p = P(2, {(1, 0): Fraction(4, 2), (0, 1): np.int32(-3),
                  (1, 1): True, (2, 0): Fraction(np.int64(3), 4),
                  (0, 2): 0.5})
        assert p.terms == {(1, 0): 2, (0, 1): -3, (1, 1): 1,
                           (2, 0): Fraction(3, 4), (0, 2): Fraction(1, 2)}
        assert exact_types(p.terms.values())
        assert exact_types(p.scale(Fraction(6, 3)).terms.values())
        assert p.to_text() == P(2, {e: Fraction(c) for e, c in
                                    p.terms.items()}).to_text()

    def test_invariant_bases_are_integer(self):
        for family in "ABCD":
            for rank in (1, 2, 3, 4):
                for b in invariant_basis(RootSystemSpec(family, rank), 8):
                    assert all(type(c) is int for c in b.terms.values())

    @pytest.mark.parametrize("family,k,n,d", [
        ("A", 4, 2, 6), ("B", 5, 3, 8), ("C", 4, 3, 6), ("D", 5, 4, 6),
    ])
    def test_certificate_witnesses(self, family, k, n, d):
        cert = surjectivity_certificate(RootSystemSpec(family, k),
                                        RootSystemSpec(family, n), d)
        assert cert.witnesses
        for t, coeffs in cert.witnesses.items():
            assert exact_types(coeffs)
            assert exact_types(cert.preimage(t).terms.values())

    def test_lifts(self):
        # halves and thirds on the basis: a lift's coefficients are sums of
        # Fractions, and the integral ones must come back as ints
        rng = np.random.default_rng(5)
        for family, k, n, d in (("B", 4, 2, 6), ("A", 3, 2, 4),
                                ("C", 4, 2, 4), ("D", 5, 4, 4)):
            spec_k, spec_n = RootSystemSpec(family, k), RootSystemSpec(
                family, n)
            target = P.zero(spec_n.ambient_vars)
            for b in invariant_basis(spec_n, d):
                odd_pfaffian = family == "D" and b.degree() > 0 and all(
                    all(a % 2 for a in e) for e in b.terms)
                if not odd_pfaffian:
                    target = target + b.scale(Fraction(
                        int(rng.integers(-4, 5)), int(rng.integers(1, 4))))
            H = ow1_lift(target, spec_k, spec_n)
            assert H.restrict(spec_n.ambient_vars) == target
            assert exact_types(H.terms.values())
            assert any(type(c) is int for c in H.terms.values())

    def test_no_cyclic_garbage(self):
        # reference counting frees everything the exact layer builds; a
        # cycle would keep a basis alive until the collector's next pass
        spec_k, spec_n = RootSystemSpec("B", 5), RootSystemSpec("B", 3)
        gc.collect()
        gc.disable()
        try:
            surjectivity_certificate(spec_k, spec_n, 8)
            ow1_lift(chevalley_generators(spec_n)[1], spec_k, spec_n)
            restricted_group(RootSystemSpec("D", 5), 3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_pivot_division(self):
        from pwkit.weyl import _solve_exact
        assert _solve_exact([{0: 2, 1: 4}], [[6]], 2) == [[3, 0]]
        sol, = _solve_exact([{0: 2}, {1: -3}], [[1, 6]], 2)
        assert sol == [Fraction(1, 2), -2] and exact_types(sol)


class TestLiftScaling:
    def test_b6_to_b3_degree_10(self):
        spec_k, spec_n = RootSystemSpec("B", 6), RootSystemSpec("B", 3)
        rng = np.random.default_rng(11)
        target = P.zero(3)
        for b in invariant_basis(spec_n, 10):
            c = (int(rng.choice([-3, -2, -1, 1, 2, 3])) if b.degree() == 10
                 else int(rng.integers(-3, 4)))
            target = target + b.scale(c)
        assert target.degree() == 10
        H = ow1_lift(target, spec_k, spec_n)
        assert H.restrict(3) == target
        group = weyl_group(spec_k)
        for j in rng.choice(len(group), size=48, replace=False):
            w = group[int(j)]
            assert H.apply(w) == H

    def test_no_group_enumeration_upstairs_per_lift(self, monkeypatch):
        spec_k, spec_n = RootSystemSpec("B", 4), RootSystemSpec("B", 2)
        calls = []
        enumerate_group = weyl.weyl_group

        def counted(spec):
            calls.append((spec.family, spec.rank))
            return enumerate_group(spec)
        monkeypatch.setattr(weyl, "weyl_group", counted)
        gens = chevalley_generators(spec_n)
        target = gens[0] * gens[1] + gens[1] * gens[1]
        H = ow1_lift(target, spec_k, spec_n)
        assert H.restrict(2) == target
        assert calls.count(("B", 4)) == 0

    def test_invariance_checked_without_enumeration(self, monkeypatch):
        # the input check runs on the simple reflections of W(n): neither an
        # accepted, an obstructed nor a rejected target enumerates a group
        calls = []
        enumerate_group = weyl.weyl_group

        def counted(spec):
            calls.append((spec.family, spec.rank))
            return enumerate_group(spec)
        monkeypatch.setattr(weyl, "weyl_group", counted)
        spec_k, spec_n = RootSystemSpec("B", 4), RootSystemSpec("B", 2)
        ow1_lift(chevalley_generators(spec_n)[1], spec_k, spec_n)
        with pytest.raises(NotInvariant):
            ow1_lift(var(0, 2), spec_k, spec_n)
        with pytest.raises(ObstructionHit):
            ow1_lift(P(4, {(1, 1, 1, 1): Fraction(1)}),
                     RootSystemSpec("D", 5), RootSystemSpec("D", 4))
        assert calls == []
