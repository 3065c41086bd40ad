"""Positive braid monoid with Garside normal form and good-element certificates.

Positive braids over a finite Coxeter system have W itself as the simple
elements; a braid is canonically a left-weighted sequence of simples (each
pair (x, y) satisfying L(y) contained in R(x), identities dropped).  Equality
of positive braids is equality of these sequences, which is the decision
procedure behind every certificate here.  Factors are GroupTable indices, so
the transfer step "move s from the left of y to the right of x" is two table
lookups guided by descent bitmasks.  BraidContext.normalize is the one
algorithm that restores left-weighting, for products and for words alike.

The lift of w in W is a single simple factor, so lift returns its normal
form and powers of lifts multiply normal forms by squaring.  The twisted
extension <d> x| B+ keeps the twist as a prefix exponent: in a product
d^k x . d^l y every factor of x is conjugated by d^-l, one root-permutation
conjugation and one table lookup per factor.  TwistedBraid is the word-level
input: a twist prefix and Artin generators, pushed through words eagerly
(d sigma_i = sigma_{d(i)} d).

Goodness: for w of order d with the fundamental chamber in good position for
an admissible angle sequence, the d-th power of the lift equals a twist times
a telescoping product of even powers of lifted parabolic longest elements
over a strictly decreasing chain of subsets.  certify_good derives the chain
from the filtration, validates the exponent arithmetic, and compares normal
forms; good_min_element runs the whole construction from a conjugacy class.
The certificate keeps the infimum of the power, which is all the
quasi-elliptic Delta^2-divisibility corollary reads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .conjugacy import ConjugacyClassRecord
from .coxeter import (Chamber, CoxeterSystem, DiagramTwist, GroupElement,
                      TwistedElement, conjugate_by_chamber, parabolic_max)
from .eigen import (Filtration, admissible_filtration,
                    closure_holds_regular_point, eigen_decomposition,
                    good_position_chamber, hyperplanes_containing, order)
from .errors import (HypothesisFailed, IdentityFailed, NotGoodPosition,
                     TheoremViolation)


class BraidContext:
    """Normal-form machinery bound to one system's group table."""

    def __init__(self, system: CoxeterSystem, twist: DiagramTwist | None = None):
        self.system = system
        self.twist = twist if twist is not None else DiagramTwist(
            system.matrix, tuple(range(system.rank)))
        self.table = system.table()

    # -- the left-weighting transfer ---------------------------------------

    def transfer(self, x: int, y: int) -> tuple[int, int, bool]:
        """Move letters from the head of y to the tail of x until left-weighted."""
        t = self.table
        moved = False
        while True:
            mask = t.ldesc[y] & ~t.rdesc[x]
            if not mask:
                return x, y, moved
            i = (mask & -mask).bit_length() - 1
            x = t.right[i][x]
            y = t.left[i][y]
            moved = True

    def normalize(self, factors: Sequence[int]) -> tuple[int, ...]:
        fs = [f for f in factors if f != 0]
        i = 0
        while i < len(fs) - 1:
            x, y, moved = self.transfer(fs[i], fs[i + 1])
            if moved:
                fs[i] = x
                if y == 0:
                    del fs[i + 1]
                else:
                    fs[i + 1] = y
                i = max(i - 1, 0)
            else:
                i += 1
        return tuple(fs)


@dataclass(frozen=True)
class TwistedBraid:
    """A twist prefix d^k and a positive word in the Artin generators."""
    context: BraidContext
    k: int
    word: tuple[int, ...]

    def __mul__(self, other: "TwistedBraid") -> "TwistedBraid":
        if other.context is not self.context:
            raise ValueError("braids of different contexts multiplied")
        # d^k u d^l v = d^{k+l} (d^-l u d^l) v; letters twist by d^{-l}.
        perm = self.context.twist.power_perm(-other.k % self.context.twist.order)
        shifted = tuple(perm[i] for i in self.word)
        return TwistedBraid(self.context, self.k + other.k, shifted + other.word)

    def power(self, k: int) -> "TwistedBraid":
        if k < 0:
            raise ValueError(f"negative braid power {k}")
        out = TwistedBraid(self.context, 0, ())
        for _ in range(k):
            out = out * self
        return out

    def normal_form(self) -> "GarsideNormalForm":
        ctx = self.context
        right = ctx.table.right  # right[i][0] is the index of s_i
        return GarsideNormalForm(ctx, self.k % ctx.twist.order,
                                 ctx.normalize([right[i][0] for i in self.word]))

    def __repr__(self):
        word = ".".join(f"s{i}" for i in self.word) or "e"
        return f"B(d^{self.k} {word})" if self.k else f"B({word})"


@dataclass(frozen=True)
class GarsideNormalForm:
    """Twist exponent plus the left-weighted sequence of simple factors."""
    context: BraidContext = field(compare=False)
    k: int
    factors: tuple[int, ...]

    def infimum(self) -> int:
        w0 = self.context.table.w0
        count = 0
        for f in self.factors:
            if f != w0:
                break
            count += 1
        return count

    def letter_count(self) -> int:
        t = self.context.table
        return sum(t.length[f] for f in self.factors)

    def mul(self, other: "GarsideNormalForm") -> "GarsideNormalForm":
        ctx = self.context
        if other.context is not ctx:
            raise ValueError("normal forms of different contexts multiplied")
        # d^k x d^l y = d^{k+l} (d^-l x d^l) y: each factor twists by d^-l.
        factors = self.factors
        if other.k:
            t, system = ctx.table, ctx.system
            factors = [t.index[system.twist_conj(t.perms[f], ctx.twist, -other.k)]
                       for f in factors]
        return GarsideNormalForm(ctx, (self.k + other.k) % ctx.twist.order,
                                 ctx.normalize([*factors, *other.factors]))

    def power(self, k: int) -> "GarsideNormalForm":
        """self^k by squaring: bit_length(k) - 1 squarings and popcount(k) - 1
        products, starting from the base."""
        if k < 0:
            raise ValueError(f"negative normal form power {k}")
        if not k:
            return GarsideNormalForm(self.context, 0, ())
        base, out = self, None
        while True:
            if k & 1:
                out = base if out is None else out.mul(base)
            k >>= 1
            if not k:
                return out
            base = base.mul(base)

    def digest(self) -> str:
        payload = f"{self.k}|" + ",".join(map(str, self.factors))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __repr__(self):
        t = self.context.table
        words = ["".join(map(str, t.element(f).to_word())) for f in self.factors]
        head = f"d^{self.k} " if self.k else ""
        return f"NF({head}{' | '.join(words) if words else 'e'})"


def lift(w: GroupElement | TwistedElement,
         context: BraidContext) -> GarsideNormalForm:
    """The canonical injection of W (or its twisted extension) into B+.

    The lift of d^k x is the one simple factor x after the twist d^k, which
    is already its normal form (no factor when x = 1).
    """
    k, body = (w.k, w.body) if isinstance(w, TwistedElement) else (0, w)
    x = context.table.index[body.perm]
    return GarsideNormalForm(context, k % context.twist.order, (x,) if x else ())


def delta_squared(context: BraidContext) -> GarsideNormalForm:
    w0 = context.table.w0
    return GarsideNormalForm(context, 0, (w0, w0))


def divisible_by_delta_squared(b: TwistedBraid | GarsideNormalForm) -> bool:
    nf = b.normal_form() if isinstance(b, TwistedBraid) else b
    return nf.infimum() >= 2


# ---------------------------------------------------------------------------
# Good elements.


@dataclass
class GoodCertificate:
    """A verified instance of the good-element power identity.

    subsets: strictly decreasing S_0 > S_1 > ... (simple-reflection index
    tuples); exponents: the matching even positive powers; the identity
    (lift w)^d = sigma * prod lift(w_{S_j})^{e_j} holds at normal-form level.
    When d is even the half-power identity is verified too and recorded.
    lhs_infimum is the number of leading Delta factors of (lift w)^d.
    """
    element: TwistedElement
    d: int
    subsets: tuple[tuple[int, ...], ...]
    exponents: tuple[int, ...]
    sigma_exponent: int
    lhs_digest: str
    rhs_digest: str
    very_good: bool
    lhs_infimum: int
    half_sigma_exponent: int | None = None
    half_lhs_digest: str | None = None

    def to_json(self, type_label: str | None = None,
                class_id: int | None = None) -> dict:
        row = {
            "schema": "coxmin/good-certificate-v1",
            "twist": list(self.element.twist.perm),
            "twist_exponent": self.element.k,
            "word": self.element.body.to_word(),
            "order": self.d,
            "subsets": [list(s) for s in self.subsets],
            "exponents": list(self.exponents),
            "sigma_exponent": self.sigma_exponent,
            "very_good": self.very_good,
            "nf_digest_lhs": self.lhs_digest,
            "nf_digest_rhs": self.rhs_digest,
        }
        if type_label is not None:
            row["type"] = type_label
        if class_id is not None:
            row["class_id"] = class_id
        return row


def _parabolic_chain(filtration: Filtration) -> list[tuple[int, ...]]:
    """Simple-index sets of W_{F_i} along the irredundant chain.

    Good position makes every W_{F_i} a standard parabolic; the check is
    that the hyperplanes through F_i are exactly the positive roots of the
    parabolic generated by the simple roots orthogonal to F_i.
    """
    system = filtration.system
    chain: list[tuple[int, ...]] = []
    for i in (0,) + filtration.irredundant_indices:
        hset = filtration.hyperplane_sets[i]
        simple = tuple(sorted(j for j in range(system.rank) if j in hset))
        para_roots = _parabolic_positive_roots(system, simple)
        if para_roots != hset:
            raise NotGoodPosition(
                f"W_K at level {i} is not the standard parabolic on {simple}")
        chain.append(simple)
    return chain


def _parabolic_positive_roots(system: CoxeterSystem, J: Sequence[int]) -> frozenset[int]:
    """Positive roots lying in the span of the simple roots indexed by J."""
    J = set(J)
    out = []
    for r in range(system.npos):
        v = system.pos_roots[r]
        if all(v[j].is_zero() for j in range(system.rank) if j not in J):
            out.append(r)
    return frozenset(out)


def certify_good(w: TwistedElement, filtration: Filtration,
                 context: BraidContext | None = None) -> GoodCertificate:
    """Verify the power identity of a good element at normal-form level.

    Requires the fundamental chamber to be in good position with respect to
    (w, filtration.angles); the derived subgroup chain must then be standard
    parabolic, which is checked and reported as NotGoodPosition otherwise.
    """
    system = filtration.system
    if context is None:
        context = BraidContext(system, w.twist)
    if w.system is not system:
        raise ValueError("element and filtration must share one system")
    d = order(w)
    for q in filtration.angles:
        if (Fraction(q) * d / 2).denominator != 1:
            raise HypothesisFailed(f"d*theta/(2*pi) not integral at angle {q}")

    chain = _parabolic_chain(filtration)  # S_0 = S, then the retained levels
    retained = filtration.irredundant
    # Telescoping exponents d(theta_{j+1} - theta_j)/pi over retained angles.
    qs = (Fraction(0),) + retained
    subsets: list[tuple[int, ...]] = []
    exponents: list[int] = []
    for j in range(len(retained)):
        e = (qs[j + 1] - qs[j]) * d
        if e.denominator != 1 or e < 0 or e % 2:
            raise TheoremViolation(
                f"good-element exponent {e} is not a non-negative even integer")
        e = int(e)
        if e == 0:
            continue  # a leading zero angle contributes an empty factor
        subsets.append(chain[j])
        exponents.append(e)
    if not all(len(a) > len(b) for a, b in zip(subsets, subsets[1:])):
        raise TheoremViolation(
            f"parabolic chain {subsets} does not strictly decrease")

    lhs = lift(w, context).power(d)
    sigma = (w.k * d) % w.twist.order
    rhs = GarsideNormalForm(context, sigma, ())
    maxes = [context.table.index_of(parabolic_max(system, s)) for s in subsets]
    for m, e in zip(maxes, exponents):
        rhs = rhs.mul(GarsideNormalForm(context, 0, (m,)).power(e))
    # Letter-count conservation: both sides spell d*l(w) letters.
    if lhs.letter_count() != d * w.length():
        raise TheoremViolation("the power w^d does not spell d*l(w) letters")
    if rhs.letter_count() != d * w.length():
        raise IdentityFailed("exponent arithmetic does not conserve letters")
    if lhs != rhs:
        raise IdentityFailed("good-element braid identity failed at normal form")

    very_good = False
    half_sigma = None
    half_digest = None
    if d % 2 == 0:
        half_lhs = lift(w, context).power(d // 2)
        half_sigma = (w.k * (d // 2)) % w.twist.order
        half_rhs = GarsideNormalForm(context, half_sigma, ())
        for m, e in zip(maxes, exponents):
            half_rhs = half_rhs.mul(GarsideNormalForm(context, 0, (m,)).power(e // 2))
        if half_lhs != half_rhs:
            raise IdentityFailed("very-good half-power identity failed")
        very_good = True
        half_digest = half_lhs.digest()

    return GoodCertificate(
        element=w, d=d, subsets=tuple(subsets), exponents=tuple(exponents),
        sigma_exponent=sigma, lhs_digest=lhs.digest(), rhs_digest=rhs.digest(),
        very_good=very_good, lhs_infimum=lhs.infimum(),
        half_sigma_exponent=half_sigma,
        half_lhs_digest=half_digest)


def good_min_element(record: ConjugacyClassRecord, angles=None,
                     start_index: int = 0) -> tuple[TwistedElement, GoodCertificate]:
    """A good element of minimal length in the class, with its certificate.

    Conjugates a representative into a chamber in good position with respect
    to the full angle sequence (or a supplied admissible subsequence, e.g.
    the nonzero angles for the quasi-elliptic divisibility corollary).  The
    filtration of w_A = x^-1 w x is carried from w's by the chamber's x
    (Filtration.conjugate_by).  The result is memoized on the record per
    (angles, start_index); the class-minimum length check of the full
    sequence runs on every call.
    """
    rep = record.representative
    eig = eigen_decomposition(rep, dft_check=False)
    rep = eig.owner  # possibly viewed over a larger field
    use_angles = tuple(eig.angles) if angles is None else tuple(angles)
    key = (use_angles, start_index)
    found = record._good.get(key)
    if found is None:
        filt = admissible_filtration(rep, use_angles, eig=eig)
        chamber = good_position_chamber(filt, start_index)
        w_a = conjugate_by_chamber(rep, chamber)
        filt_a = filt.conjugate_by(chamber.x)
        context = BraidContext(filt_a.system, w_a.twist)
        found = record._good[key] = (w_a, certify_good(w_a, filt_a, context))
    w_a, cert = found
    if angles is None and w_a.length() != record.min_length:
        raise TheoremViolation(
            f"good-position conjugate has length {w_a.length()}, class minimum "
            f"is {record.min_length}")
    return w_a, cert


def verify_rotation_identity(w: TwistedElement, q) -> bool:
    """The single-eigenspace power identity for K = V^theta, theta = q*pi.

    Hypotheses (verified, HypothesisFailed otherwise): C and w(C) in the same
    H_K-chamber, the closure of C contains a regular point of K, W_K standard
    parabolic on I(K, C) (the simple roots in H_K: a regular point of K
    lies on no other wall), and d*q/2 integral, d the order of w.  Then
    with w1 the longest element of W_K and w0 the longest element of W:

        lift(w)^d = sigma (lift(w1 w0) lift(w0 w1))^{d q / 2}

    and, when d is even and dq/2 odd, the half-power variant.
    """
    q = Fraction(q)
    eig = eigen_decomposition(w, dft_check=False)
    system, w = eig.system, eig.owner
    context = BraidContext(system, w.twist)
    d = order(w)
    if (q * d / 2).denominator != 1:
        raise HypothesisFailed("d*theta/(2*pi) is not an integer")
    basis = eig.basis_of(q)
    if not basis:
        raise HypothesisFailed(f"{q}*pi is not an angle of the element")

    h_k = hyperplanes_containing(system, basis)
    fund = Chamber.fundamental(system)
    if fund.separating_set(fund.image_under(w)) & h_k:
        raise HypothesisFailed("C and w(C) lie in different H_K-components")
    if not closure_holds_regular_point(system, basis, fund):
        raise HypothesisFailed("no regular point of K in the closed chamber")
    J = tuple(i for i in range(system.rank) if i in h_k)
    if _parabolic_positive_roots(system, J) != h_k:
        raise HypothesisFailed("W_K is not the standard parabolic on I(K, C)")

    w1 = parabolic_max(system, J)
    w0 = context.table.element(context.table.w0)
    exp = int(q * d / 2)
    lhs = lift(w, context).power(d)
    sigma = (w.k * d) % w.twist.order
    block = lift(w1 * w0, context).mul(lift(w0 * w1, context))
    rhs = GarsideNormalForm(context, sigma, ()).mul(block.power(exp))
    if lhs != rhs:
        raise IdentityFailed("rotation identity failed at normal form")

    if d % 2 == 0 and exp % 2 == 1:
        half = lift(w, context).power(d // 2)
        half_sigma = (w.k * (d // 2)) % w.twist.order
        half_rhs = GarsideNormalForm(context, half_sigma, ()).mul(
            lift(w0 * w1, context)).mul(block.power((exp - 1) // 2))
        if half != half_rhs:
            raise IdentityFailed("rotation half-power identity failed")
    return True


def verify_quasi_elliptic_divisibility(record: ConjugacyClassRecord) -> bool:
    """Corollary: quasi-elliptic classes have w^d left-divisible by Delta^2."""
    if not record.quasi_elliptic:
        raise ValueError(f"class {record.class_id} is not quasi-elliptic")
    rep = record.representative
    eig = eigen_decomposition(rep, dft_check=False)
    nonzero = [q for q in eig.angles if q != 0]
    _, cert = good_min_element(record, angles=nonzero)
    if cert.lhs_infimum < 2:
        raise TheoremViolation(
            f"class {record.class_id}: w^d has infimum {cert.lhs_infimum} < 2")
    return True
