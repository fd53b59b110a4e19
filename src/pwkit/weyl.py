"""Weyl groups of the classical families as signed permutation groups,
subspace stabilizers, restriction of invariant polynomials, surjectivity
certificates with the type-D obstruction, and the lift of invariants from
a subspace through one exact solve.

All polynomial algebra is exact over the rationals: surjectivity and
obstruction are rank statements and must not depend on floating-point
thresholds.  A coefficient is a Python int when it is integral and a
Fraction only when it is not.  The invariant bases, their restrictions and
the group action are integer arithmetic; a Fraction first appears where the
exact solve divides by a pivot other than 1.  Type A is realized in k+1
ambient coordinates acting on the sum-zero hyperplane; the subspace
embeddings append trailing zeros.

Linear systems (one row per monomial, one unknown per candidate
polynomial) are solved by Gauss-Jordan elimination on sparse row dicts:
each row is reduced against the pivot rows found so far and pivoted on its
smallest remaining column, so no dense matrix is built.
`MultivariatePolynomial.apply` is the one group action; `ow1_lift` checks
a target's invariance through it.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from operator import add, itemgetter

__all__ = [
    "SignedPermutation",
    "RootSystemSpec",
    "MultivariatePolynomial",
    "GroupTooLarge",
    "DegreeTooLarge",
    "NotInvariant",
    "ObstructionHit",
    "weyl_group",
    "group_order",
    "stabilizer",
    "restricted_group",
    "chevalley_generators",
    "invariant_basis",
    "surjectivity_certificate",
    "SurjectivityCertificate",
    "ow1_lift",
]

MAX_GROUP_ORDER = 10**6
MAX_BASIS_DEGREE = 12


class GroupTooLarge(ValueError):
    pass


class DegreeTooLarge(ValueError):
    pass


class NotInvariant(ValueError):
    pass


class ObstructionHit(ValueError):
    """The target lies outside the image of the restriction map."""


class SignedPermutation:
    """Signed permutation acting linearly by w e_j = signs[j] e_{perm[j]}.

    perm is the 0-indexed image list; signs is a tuple over {+1, -1}.
    Family A elements carry all-plus signs.
    """

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs=None):
        self.perm = tuple(perm)
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a permutation of 0..k-1")
        self.signs = tuple(signs) if signs is not None else (1,) * len(self.perm)
        if len(self.signs) != len(self.perm) or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be a +-1 vector matching perm")

    @classmethod
    def _from_tuples(cls, perm, signs):
        """Trusted constructor: `perm` is a tuple permuting 0..k-1 and
        `signs` a matching tuple over {+1, -1}; nothing is checked."""
        out = cls.__new__(cls)
        out.perm = perm
        out.signs = signs
        return out

    @classmethod
    def identity(cls, k):
        return cls(tuple(range(k)))

    def __len__(self):
        return len(self.perm)

    def __eq__(self, other):
        return self.perm == other.perm and self.signs == other.signs

    def __hash__(self):
        return hash((self.perm, self.signs))

    def __repr__(self):
        return "SignedPermutation(%r, %r)" % (self.perm, self.signs)

    def compose(self, other):
        """self o other as linear maps."""
        perm = tuple(self.perm[other.perm[j]] for j in range(len(other)))
        signs = tuple(other.signs[j] * self.signs[other.perm[j]]
                      for j in range(len(other)))
        return SignedPermutation._from_tuples(perm, signs)

    def inverse(self):
        k = len(self.perm)
        inv = [0] * k
        sg = [1] * k
        for j in range(k):
            inv[self.perm[j]] = j
            sg[self.perm[j]] = self.signs[j]
        return SignedPermutation._from_tuples(tuple(inv), tuple(sg))

    def sign_product(self):
        out = 1
        for s in self.signs:
            out *= s
        return out


class RootSystemSpec:
    """Classical family (A, B, C or D) and rank."""

    def __init__(self, family, rank):
        family = family.upper()
        if family not in "ABCD" or len(family) != 1:
            raise ValueError("family must be one of A, B, C, D")
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.family = family
        self.rank = int(rank)

    @property
    def ambient_vars(self):
        """Number of polynomial variables the group acts on."""
        return self.rank + 1 if self.family == "A" else self.rank

    def __repr__(self):
        return "RootSystemSpec(%s%d)" % (self.family, self.rank)


def group_order(spec):
    k = spec.rank
    fact = 1
    for j in range(2, k + 2 if spec.family == "A" else k + 1):
        fact *= j
    if spec.family == "A":
        return fact
    if spec.family in "BC":
        return 2**k * fact
    return 2 ** (k - 1) * fact


def weyl_group(spec):
    """Complete duplicate-free enumeration of the Weyl group.

    Orders: |W(A_k)| = (k+1)!, |W(B_k)| = |W(C_k)| = 2^k k!,
    |W(D_k)| = 2^{k-1} k!.  Raises GroupTooLarge beyond 10^6 elements.
    """
    if group_order(spec) > MAX_GROUP_ORDER:
        raise GroupTooLarge("order %d exceeds %d" % (group_order(spec),
                                                     MAX_GROUP_ORDER))
    k = spec.ambient_vars
    new = SignedPermutation._from_tuples
    if spec.family == "A":
        plus = (1,) * k
        return [new(p, plus) for p in permutations(range(k))]
    signings = list(product((1, -1), repeat=k))
    if spec.family == "D":
        signings = [s for s in signings if s.count(-1) % 2 == 0]
    return [new(p, s) for p in permutations(range(k)) for s in signings]


def _simple_reflections(spec):
    """The simple reflections of W(spec) over its ambient coordinates.

    They generate the group, so invariance under them is invariance under
    W(spec): the adjacent transpositions, for B/C also the sign change of
    the last coordinate, for D also the swap of the last two coordinates
    with both signs flipped (W(D_1) is trivial and has none).
    """
    k = spec.ambient_vars
    out = []
    for i in range(k - 1):
        perm = list(range(k))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        out.append(SignedPermutation(perm))
    if spec.family in "BC":
        out.append(SignedPermutation(range(k), (1,) * (k - 1) + (-1,)))
    elif spec.family == "D" and k > 1:
        # the last transposition, with both signs flipped
        out.append(SignedPermutation(out[-1].perm, (1,) * (k - 2) + (-1, -1)))
    return out


def _block_size(spec, n):
    """Coordinates spanned by the embedded rank-n subspace."""
    return n + 1 if spec.family == "A" else n


def stabilizer(spec, n):
    """Elements of W(k) mapping the embedded subspace of rank n to itself.

    With the trailing-zero embedding this means the index block of the
    first n coordinates (n+1 ambient coordinates for family A) is
    preserved setwise; n = 0 gives the whole group.
    """
    if n > spec.rank:
        raise ValueError("n must be <= rank")
    group = weyl_group(spec)
    block = _block_size(spec, n)
    if n == 0:
        return group
    return [w for w in group
            if all(w.perm[j] < block for j in range(block))]


def restricted_group(spec, n):
    """Duplicate-free restriction of the stabilizer to the subspace block.

    For families A, B, C this recovers W(n) on the block exactly; for
    family D (n < k) the image is the full hyperoctahedral group of order
    2^n n!, strictly larger than W(D_n): the spare coordinates absorb the
    sign-product constraint.
    """
    if spec.family == "A" and n == 0:
        # the whole group stabilizes the origin, but not coordinate 1
        raise ValueError("the type-A subspace of rank 0 has no block")
    block = _block_size(spec, n)
    seen = set()
    out = []
    for w in stabilizer(spec, n):
        # the stabilizer permutes the block within itself
        r = SignedPermutation._from_tuples(w.perm[:block], w.signs[:block])
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def _exact(c):
    """The rational c as an int when it is integral, else as a Fraction.

    Both are built from Python-int parts, so a numpy integer (or a Fraction
    of one) becomes an int and cannot overflow inside the exact layer."""
    if type(c) is int:
        return c
    c = Fraction(c)
    num, den = int(c.numerator), int(c.denominator)
    return num if den == 1 else Fraction(num, den)


class MultivariatePolynomial:
    """Sparse exact-rational polynomial: exponent tuple -> coefficient.

    The constructor and `scale` store a coefficient as an int where it is
    integral and as a Fraction otherwise (see `_exact`), so integer
    polynomials stay integer through +, * and the group action.  A sum or
    product of Fraction coefficients can leave an integral Fraction, which
    equals the int; the exact solve and `ow1_lift` return ints for it.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = _exact(c)
                if c:
                    if len(e) != nvars:
                        raise ValueError("exponent arity mismatch")
                    self.terms[tuple(int(a) for a in e)] = c

    @classmethod
    def _from_terms(cls, nvars, terms):
        """Trusted constructor: `terms` maps exponent tuples of arity
        nvars to ints and Fractions; zero coefficients are dropped."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i, nvars):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return (isinstance(other, MultivariatePolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def _same_ring(self, other):
        if other.nvars != self.nvars:
            raise ValueError("exponent arity mismatch")

    def __add__(self, other):
        self._same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultivariatePolynomial._from_terms(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, MultivariatePolynomial):
            self._same_ring(other)
            out = {}
            right = list(other.terms.items())
            for e1, c1 in self.terms.items():
                for e2, c2 in right:
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
            return MultivariatePolynomial._from_terms(self.nvars, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = _exact(c)
        return MultivariatePolynomial._from_terms(
            self.nvars, {e: _exact(cc * c) for e, cc in self.terms.items()})

    def apply(self, w):
        """Group action (w . p)(x) = p(w^{-1} x).

        Under w e_j = signs[j] e_{perm[j]} the monomial prod x_j^{a_j}
        pulls back to prod (signs[j] x_{perm[j]})^{a_j}: the exponent at
        perm[j] is a_j, and the sign is negative when the exponents at the
        flipped coordinates have an odd sum.
        """
        source = [0] * len(w.perm)
        for j, i in enumerate(w.perm):
            source[i] = j
        # itemgetter of one index returns the entry, not a 1-tuple
        pull = itemgetter(*source) if len(source) > 1 else tuple
        flips = [j for j, s in enumerate(w.signs) if s < 0]
        out = {}
        for e, c in self.terms.items():
            odd = 0
            for j in flips:
                odd ^= e[j]
            out[pull(e)] = -c if odd & 1 else c
        return MultivariatePolynomial._from_terms(self.nvars, out)

    def restrict(self, nkeep):
        """Substitute x_{nkeep+1} = ... = 0; result lives in nkeep variables."""
        if nkeep > self.nvars:
            raise ValueError("cannot restrict to more variables")
        return MultivariatePolynomial._from_terms(
            nkeep, {e[:nkeep]: c for e, c in self.terms.items()
                    if not any(e[nkeep:])})

    def embed(self, nvars):
        """View in a larger variable ring (trailing exponents zero)."""
        if nvars < self.nvars:
            raise ValueError("embedding must not drop variables")
        pad = (0,) * (nvars - self.nvars)
        return MultivariatePolynomial._from_terms(
            nvars, {e + pad: c for e, c in self.terms.items()})

    def to_text(self):
        """One term per line: `coeff * x1^a1 x2^a2 ...` (zero powers omitted)."""
        if not self.terms:
            return "0\n"
        lines = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            factors = ["x%d^%d" % (i + 1, a) for i, a in enumerate(e) if a]
            lines.append(str(c) + (" * " + " ".join(factors) if factors else ""))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "MultivariatePolynomial(%d vars, %d terms)" % (
            self.nvars, len(self.terms))


def _elementary_symmetric(j, nvars, power):
    """e_j(x_1^power, ..., x_nvars^power)."""
    terms = {}
    for comb in combinations(range(nvars), j):
        e = [0] * nvars
        for i in comb:
            e[i] = power
        terms[tuple(e)] = 1
    return MultivariatePolynomial(nvars, terms)


def chevalley_generators(spec):
    """Free generators of the invariant algebra.

    B/C: e_j(x_1^2, ..., x_k^2), j = 1..k.
    D:   e_j(x^2) for j < k together with the Pfaffian x_1 ... x_k.
    A:   e_2, ..., e_{k+1} of the k+1 ambient coordinates (e_1 vanishes on
         the sum-zero hyperplane and is omitted).
    """
    k = spec.rank
    nv = spec.ambient_vars
    if spec.family in "BC":
        return [_elementary_symmetric(j, nv, 2) for j in range(1, k + 1)]
    if spec.family == "D":
        gens = [_elementary_symmetric(j, nv, 2) for j in range(1, k)]
        gens.append(MultivariatePolynomial(nv, {(1,) * nv: 1}))
        return gens
    return [_elementary_symmetric(j, nv, 1) for j in range(2, k + 2)]


def _generator_products(gens, d):
    """All monomials in the generators with total degree <= d, ordered by
    their exponent vectors, the first generator's exponent first."""
    # (degree left, product) of every exponent prefix, extended by one
    # generator at a time
    level = [(d, MultivariatePolynomial.constant(gens[0].nvars, 1))]
    for g in gens:
        deg = g.degree()
        extended = []
        for remaining, p in level:
            extended.append((remaining, p))
            for left in range(remaining - deg, -1, -deg):
                p = p * g
                extended.append((left, p))
        level = extended
    return [p for _, p in level]


def invariant_basis(spec, d):
    """Vector-space basis of the invariants of degree <= d: the generator
    monomials (the invariant ring is free on the Chevalley generators, so
    these are linearly independent)."""
    if d > MAX_BASIS_DEGREE:
        raise DegreeTooLarge("degree cap is %d" % MAX_BASIS_DEGREE)
    return _generator_products(chevalley_generators(spec), d)


def _solve_exact(rows, rhs, nunknowns):
    """Solve sum_col rows[i][col] x_col = rhs[i] exactly over Q.

    rows: list of sparse {col: int or Fraction} dicts over columns
    0..nunknowns-1.  Sparse Gauss-Jordan elimination: the right-hand side
    rides in each row under the key `nunknowns`, past every unknown.  Each
    incoming row is reduced against the pivot rows found so far, pivoted on
    its smallest remaining column and normalized, and that column is then
    eliminated from the earlier pivot rows, so they stay fully reduced.  A
    row left with only its right-hand side makes the system inconsistent.
    Integer rows stay integer until a pivot other than 1 divides them.

    Returns a particular solution (free unknowns at 0), each value an int
    where integral and a Fraction otherwise, or None.
    """
    pivots = {}     # pivot column -> its normalized, fully reduced row
    for row, b in zip(rows, rhs):
        r = {c: v for c, v in row.items() if v}
        if b:
            r[nunknowns] = _exact(b)
        for col in [c for c in r if c in pivots]:
            _subtract_row(r, r.pop(col), pivots[col], col)
        if not r:
            continue
        col = min(r)
        if col == nunknowns:
            return None
        pv = r[col]
        if pv != 1:
            r = {c: _divide(v, pv) for c, v in r.items()}
        for prow in pivots.values():
            f = prow.pop(col, 0)
            if f:
                _subtract_row(prow, f, r, col)
        pivots[col] = r
    sol = [0] * nunknowns
    for col, r in pivots.items():
        sol[col] = _exact(r.get(nunknowns, 0))
    return sol


def _divide(a, b):
    """a / b exactly: an int when the quotient is integral."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _subtract_row(r, f, pivot_row, col):
    """r -= f * pivot_row on every column but the pivot column `col`
    (already removed from r), dropping entries that cancel."""
    for c, v in pivot_row.items():
        if c != col:
            x = r.get(c, 0) - f * v
            if x:
                r[c] = x
            else:
                del r[c]


def _solve_combination(candidates, target):
    """Exact coefficients c with sum c_i candidates[i] == target, or None."""
    rows_by_mono = {}
    for i, poly in enumerate(candidates):
        for e, c in poly.terms.items():
            row = rows_by_mono.setdefault(e, {})
            row[i] = row.get(i, 0) + c
    for e in target.terms:
        rows_by_mono.setdefault(e, {})
    monos = sorted(rows_by_mono)
    rows = [rows_by_mono[e] for e in monos]
    rhs = [target.terms.get(e, 0) for e in monos]
    return _solve_exact(rows, rhs, len(candidates))


class SurjectivityCertificate:
    """Outcome of the invariant-restriction rank computation.

    witnesses maps each reachable downstairs basis element (by index) to
    the exact coefficient vector of an upstairs invariant preimage over
    `upstairs_basis`; obstruction lists the indices of unreachable
    downstairs basis elements (their span is the cokernel).
    """

    def __init__(self, spec_k, spec_n, degree, upstairs_basis,
                 downstairs_basis, witnesses, obstruction):
        self.spec_k = spec_k
        self.spec_n = spec_n
        self.degree = degree
        self.upstairs_basis = upstairs_basis
        self.downstairs_basis = downstairs_basis
        self.witnesses = witnesses
        self.obstruction = obstruction

    @property
    def surjective(self):
        return not self.obstruction

    def preimage(self, index):
        """The upstairs invariant whose restriction is downstairs basis
        element `index`."""
        return _combination(self.witnesses[index], self.upstairs_basis,
                            self.spec_k.ambient_vars)


def _combination(coeffs, basis, nvars):
    """sum_i coeffs[i] basis[i] in nvars variables, accumulated into one
    dict; an integral sum of Fractions is stored as an int."""
    acc = {}
    for c, b in zip(coeffs, basis):
        if c:
            for e, v in b.terms.items():
                acc[e] = acc.get(e, 0) + c * v
    return MultivariatePolynomial._from_terms(
        nvars, {e: _exact(v) for e, v in acc.items()})


def surjectivity_certificate(spec_k, spec_n, d):
    """Decide, degree <= d, whether restriction of W(k)-invariants covers
    all W(n)-invariants, producing witnesses or the unreachable span.

    Families A/B/C pairs are surjective; a D -> D pair with n < k leaves
    exactly the downstairs invariants with odd Pfaffian exponent
    unreachable (the upstairs Pfaffian restricts to zero and every
    restricted invariant is even in each coordinate).
    """
    if spec_k.family != spec_n.family:
        raise ValueError("restriction is defined within one family")
    if spec_n.rank > spec_k.rank:
        raise ValueError("need n <= k")
    if d > 10:
        raise DegreeTooLarge("certificate degree cap is 10")
    nkeep = spec_n.ambient_vars
    up = invariant_basis(spec_k, d)
    down = invariant_basis(spec_n, d)
    restricted = [b.restrict(nkeep) for b in up]
    witnesses = {}
    obstruction = []
    for t, q in enumerate(down):
        sol = _solve_combination(restricted, q)
        if sol is None:
            obstruction.append(t)
        else:
            witnesses[t] = sol
    return SurjectivityCertificate(spec_k, spec_n, d, up, down,
                                   witnesses, obstruction)


def ow1_lift(target, spec_k, spec_n):
    """Extend a W(n)-invariant polynomial to a W(k)-invariant one with
    exact restriction.

    The target is written, by one exact solve, as a combination of the
    restricted W(k)-invariant basis of degree <= its degree (which starts
    with the constant 1), and the same combination of the unrestricted
    basis is the lift.  For families A, B, C restriction maps the
    invariants onto the span of the smaller invariant basis, so the solve
    succeeds on it.  For a D-family pair with n < k every restricted
    invariant is even in each coordinate, so a target with odd Pfaffian
    content has no preimage; this raises ObstructionHit, on exactly the
    span that `surjectivity_certificate` reports as obstructed.

    The target's W(n)-invariance is checked on the simple reflections of
    W(n), which generate it; the group is not enumerated.
    """
    if spec_k.family != spec_n.family:
        raise ValueError("lift is defined within one family")
    nkeep = spec_n.ambient_vars
    if target.nvars != nkeep:
        raise ValueError("target arity does not match the downstairs spec")
    if any(target.apply(w) != target for w in _simple_reflections(spec_n)):
        raise NotInvariant("target is not invariant downstairs")

    d = target.degree()
    if d > 10:
        raise DegreeTooLarge("lift degree cap is 10")
    up = invariant_basis(spec_k, d)
    sol = _solve_combination([b.restrict(nkeep) for b in up], target)
    if sol is None:
        raise ObstructionHit("target has no W(%s%d)-invariant preimage"
                             % (spec_k.family, spec_k.rank))
    H = _combination(sol, up, spec_k.ambient_vars)
    if H.restrict(nkeep) != target:
        raise AssertionError("lift failed to restrict to the target")
    return H
