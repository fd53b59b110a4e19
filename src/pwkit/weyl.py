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
smallest remaining column, so no dense matrix is built.  All right-hand
sides of one candidate set ride in the same rows, so a surjectivity
certificate eliminates its restricted basis once for the whole downstairs
basis; every column gets the solution a one-column solve would give.
Nothing is kept between calls.  `MultivariatePolynomial.apply` is the one
group action; `ow1_lift` checks a target's invariance through it.
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
MAX_SOLVE_DEGREE = 10     # of a surjectivity certificate and of a lift target


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

    def __len__(self):
        return len(self.perm)

    def __eq__(self, other):
        return self.perm == other.perm and self.signs == other.signs

    def __hash__(self):
        return hash((self.perm, self.signs))

    def __repr__(self):
        return "SignedPermutation(%r, %r)" % (self.perm, self.signs)



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
    return [w for w in group if max(w.perm[:block]) < block]


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
    # the stabilizer permutes the block within itself; the first of equal
    # restrictions is kept, in stabilizer order
    restrictions = dict.fromkeys((w.perm[:block], w.signs[:block])
                                 for w in stabilizer(spec, n))
    return [SignedPermutation._from_tuples(*r) for r in restrictions]


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
        return cls._from_nonzero_terms(
            nvars, {e: c for e, c in terms.items() if c})

    @classmethod
    def _from_nonzero_terms(cls, nvars, terms):
        """Trusted constructor for terms with no zero coefficient: the dict
        becomes the polynomial's own."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

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
        flipped coordinates have an odd sum.  The terms are only permuted,
        so no coefficient becomes zero.
        """
        source = [0] * len(w.perm)
        for j, i in enumerate(w.perm):
            source[i] = j
        pull = _tuple_getter(source)
        flipped = _tuple_getter([j for j, s in enumerate(w.signs) if s < 0])
        return MultivariatePolynomial._from_nonzero_terms(self.nvars, {
            pull(e): -c if sum(flipped(e)) & 1 else c
            for e, c in self.terms.items()})

    def restrict(self, nkeep):
        """Substitute x_{nkeep+1} = ... = 0; result lives in nkeep variables."""
        if nkeep > self.nvars:
            raise ValueError("cannot restrict to more variables")
        # a subset of the terms, so no coefficient is zero
        return MultivariatePolynomial._from_nonzero_terms(
            nkeep, {e[:nkeep]: c for e, c in self.terms.items()
                    if not any(e[nkeep:])})

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


def _tuple_getter(indices):
    """The function e -> (e[i] for i in indices) as a tuple, by itemgetter.

    itemgetter of one index returns the bare entry, so no index or one
    index becomes a slice, which returns a tuple."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices
                      else slice(0))


def _elementary_symmetric(j, nvars, power):
    """e_j(x_1^power, ..., x_nvars^power); every coefficient is 1."""
    terms = {}
    for comb in combinations(range(nvars), j):
        e = [0] * nvars
        for i in comb:
            e[i] = power
        terms[tuple(e)] = 1
    return MultivariatePolynomial._from_nonzero_terms(nvars, terms)


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
    these are linearly independent).  Raises ValueError for d < 0, an
    empty degree range."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d > MAX_BASIS_DEGREE:
        raise DegreeTooLarge("degree cap is %d" % MAX_BASIS_DEGREE)
    return _generator_products(chevalley_generators(spec), d)


def _solve_exact(rows, columns, nunknowns):
    """Solve sum_col rows[i][col] x_col = column[i] exactly over Q for every
    right-hand-side column in `columns`, by one elimination.

    rows: list of sparse {col: int or Fraction} dicts over columns
    0..nunknowns-1; each column is a list with one entry per row.  Sparse
    Gauss-Jordan elimination: right-hand-side column t rides in each row
    under the key `nunknowns + t`, past every unknown.  Each incoming row is
    reduced against the pivot rows found so far, pivoted on its smallest
    remaining unknown and normalized, and that unknown is then eliminated
    from the earlier pivot rows, so they stay fully reduced.  A row left
    with no unknown makes every column still nonzero in it inconsistent,
    and is dropped.  The pivots do not depend on the right-hand sides, so
    each column gets exactly the solution that solving it alone gives.
    Integer rows stay integer until a pivot other than 1 divides them.

    Returns one entry per column: a particular solution (free unknowns at
    0), each value an int where integral and a Fraction otherwise, or None.
    """
    pivots = {}     # pivot column -> its normalized, fully reduced row
    inconsistent = set()
    for row, rhs in zip(rows, zip(*columns)):
        r = {c: v for c, v in row.items() if v}
        for t, b in enumerate(rhs, nunknowns):
            if b:
                r[t] = _exact(b)
        for col in [c for c in r if c in pivots]:
            _subtract_row(r, r.pop(col), pivots[col], col)
        if not r:
            continue
        col = min(r)
        if col >= nunknowns:
            inconsistent.update(r)
            continue
        pv = r[col]
        if pv != 1:
            r = {c: _divide(v, pv) for c, v in r.items()}
        for prow in pivots.values():
            f = prow.pop(col, 0)
            if f:
                _subtract_row(prow, f, r, col)
        pivots[col] = r
    solutions = []
    for t in range(nunknowns, nunknowns + len(columns)):
        if t in inconsistent:
            solutions.append(None)
            continue
        sol = [0] * nunknowns
        for col, r in pivots.items():
            sol[col] = _exact(r.get(t, 0))
        solutions.append(sol)
    return solutions


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


def _solve_combination(candidates, targets):
    """For each target, exact coefficients c with sum c_i candidates[i] ==
    target, or None; the candidates' rows are built and eliminated once."""
    rows_by_mono = {}
    for i, poly in enumerate(candidates):
        for e, c in poly.terms.items():
            row = rows_by_mono.setdefault(e, {})
            row[i] = row.get(i, 0) + c
    for target in targets:
        for e in target.terms:
            rows_by_mono.setdefault(e, {})
    monos = sorted(rows_by_mono)
    rows = [rows_by_mono[e] for e in monos]
    columns = [[target.terms.get(e, 0) for e in monos] for target in targets]
    return _solve_exact(rows, columns, len(candidates))


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
    if d > MAX_SOLVE_DEGREE:
        raise DegreeTooLarge("certificate degree cap is %d" % MAX_SOLVE_DEGREE)
    nkeep = spec_n.ambient_vars
    up = invariant_basis(spec_k, d)
    down = invariant_basis(spec_n, d)
    restricted = [b.restrict(nkeep) for b in up]
    witnesses = {}
    obstruction = []
    for t, sol in enumerate(_solve_combination(restricted, down)):
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
    if d > MAX_SOLVE_DEGREE:
        raise DegreeTooLarge("lift degree cap is %d" % MAX_SOLVE_DEGREE)
    up = invariant_basis(spec_k, d)
    sol, = _solve_combination([b.restrict(nkeep) for b in up], [target])
    if sol is None:
        raise ObstructionHit("target has no W(%s%d)-invariant preimage"
                             % (spec_k.family, spec_k.rank))
    H = _combination(sol, up, spec_k.ambient_vars)
    if H.restrict(nkeep) != target:
        raise AssertionError("lift failed to restrict to the target")
    return H
