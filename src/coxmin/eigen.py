"""Exact spectral data of a twisted element acting on V.

Angles are rationals q in [0, 1] standing for theta = q*pi.  The eigenspace
V^theta = ker(M + M^-1 - 2cos(theta) I) is computed by exact Gaussian
elimination at the angles 2k/d, d the order of w.  A float DFT of the trace
sequence tr(M^j) guides the order: the angles where it finds eigenvalues
are solved first, and the scan stops as soon as the kernel dimensions sum
to n, since eigenspaces of distinct angles are independent and that sum
proves no other angle has a kernel.  A wrong guide only makes the scan go
on over the other angles, so exactness never rests on floats.  The guide
evaluates the traces from their numerators with math.cos, never by float()
of a scalar, which would refine the field's shared isolating interval that
the walk's guidance floats read.

Expressing 2cos(2*pi*k/d) may require a larger field, in which case the
element is carried over to the system's view at level lcm(L, e), e the
denominator of 2/d (d/2 for even d: 2cos(2*pi*k/d) lies in the real
subfield of the d-th cyclotomic field, of degree phi(d)/2)
(CoxeterSystem.with_field_level: the same roots embedded in the larger field,
the same root indices and group table).  Every vector the decomposition
returns lives in that view's field.

The kernel ranks are the primary multiplicities.  A redundant cross-check
recomputes them as the discrete Fourier transform of the trace sequence
tr(M^j), exactly in the same field: every 2cos(2*pi*jk/d) is a polynomial
in 2cos(2*pi/d).  A disagreement signals an arithmetic bug, not a property
of the input.  The traces, for the check and the guide alike, are read off
root-permutation powers: column i of M^j is the root w^j(alpha_i), so
tr(M^j) is n field additions (Springer, Regular elements of finite
reflection groups, Invent. Math. 1974, for the eigenvalues of w).

Also here: deterministic regular points of subspaces, the test whether a
closed chamber holds one, the reflection subgroup of a subspace, the
elliptic and quasi-elliptic predicates, admissible filtrations and
good-position chambers.

The pure geometric constructions are memoized on the system view they are
called with, in plain dicts set up by CoxeterSystem.__init__: the
decomposition of an element (with a flag recording whether its DFT check
has run, so a later call that asks for the check still runs it once), the
regular point of a basis and start index, the closed-chamber verdict of a
basis and chamber, the hyperplanes containing a basis, and the reduced
basis (RREF) of a basis that span tests reduce against (linalg.in_span).
A lift has its own dicts, as its vectors live in another field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from operator import mul
from typing import Sequence

from .coxeter import (Chamber, CoxeterSystem, GroupElement, TwistedElement,
                      compose)
from .errors import (FieldTooSmall, MultiplicityMismatch, NoRegularPoint,
                     NotAdmissible, TheoremViolation)
from .linalg import (Cone, Matrix, Vector, cone_from_constraints, kernel_basis,
                     mat_inverse, rational_tuples, rref, vec_add,
                     vec_dot, vec_is_zero, vec_scale, zero_vector)
from .scalars import AlgebraicScalar, _normal

Angle = Fraction  # q in [0, 1], theta = q*pi


def order(w: TwistedElement) -> int:
    """The least d >= 1 with w^d = identity in the extended group."""
    d = 1
    acc = w
    while not acc.is_identity():
        acc = acc * w
        d += 1
    return d


@dataclass
class EigenDecomposition:
    """Angles of w on V with exact eigenspace bases.

    entries: (angle q, dim V^{q*pi}, basis), ascending in q, zero dims absent.
    theta0 is the least angle with V^theta != V^W; v_wt is the corresponding
    V_w = V^{theta0} & (V^W)-perp.  For the ambient group V^W = 0, so v_wt is
    simply the first eigenspace.
    """
    owner: TwistedElement
    system: CoxeterSystem
    entries: list[tuple[Angle, int, Matrix]]
    theta0: Angle
    v_wt: Matrix
    # Rows of the inverse of the matrix whose columns are full_basis(),
    # built by the first project() and kept with the memoized decomposition.
    _inverse: Matrix | None = dataclass_field(default=None, init=False,
                                              repr=False, compare=False)

    @property
    def angles(self) -> list[Angle]:
        return [q for q, _, _ in self.entries]

    def basis_of(self, q: Angle) -> Matrix:
        for qq, _, basis in self.entries:
            if qq == q:
                return basis
        return []

    def full_basis(self) -> Matrix:
        out: Matrix = []
        for _, _, basis in self.entries:
            out.extend(basis)
        return out

    def project(self, v: Vector) -> dict[Angle, Vector]:
        """Exact eigencomponents of v, indexed by angle.

        The coordinates of v in full_basis() are one matrix-vector product
        with the inverse of the basis matrix, computed once per
        decomposition; a basis that does not span V raises TheoremViolation.
        """
        field = self.system.field
        basis = self.full_basis()
        if self._inverse is None:
            n = self.system.rank
            if len(basis) == n:
                self._inverse = mat_inverse(list(zip(*basis)), field)
            if self._inverse is None:
                raise TheoremViolation("the eigenspaces do not span V")
        coords = [vec_dot(row, v) for row in self._inverse]
        out: dict[Angle, Vector] = {}
        pos = 0
        for q, dim, _ in self.entries:
            comp = zero_vector(field, self.system.rank)
            for j in range(pos, pos + dim):
                comp = vec_add(comp, vec_scale(coords[j], basis[j]))
            pos += dim
            out[q] = comp
        return out


def eigen_decomposition(w: TwistedElement, dft_check: bool = True) -> EigenDecomposition:
    """Exact eigen-angle decomposition, raising the field level as needed.

    `owner` and `system` are w and its system, viewed over the raised field
    when 2cos(2pi/d) is not in the current one.  Memoized on w.system; the
    same object is returned for the same element, so callers must not
    mutate it.  A hit still runs the DFT check if it is asked for and has
    not run on that entry.
    """
    key = (w.twist.perm, w.k, w.body.perm)
    cache = w.system._eigen
    entry = cache.get(key)
    if entry is None:
        entry = cache[key] = [_decompose(w), False]
    eig, checked = entry
    if dft_check and not checked:
        _dft_crosscheck(eig.owner, eig.system, order(eig.owner), eig.entries)
        entry[1] = True
    return eig


def _decompose(w: TwistedElement) -> EigenDecomposition:
    d = order(w)
    system = w.system
    try:
        system.field.two_cos(Fraction(2, d))
    except FieldTooSmall:
        # Every angle 2k/d has its denominator dividing that of 2/d.
        system = system.with_field_level(Fraction(2, d).denominator)
        w = w.over(system)
    field = system.field
    n = system.rank
    s = [tuple(a + b for a, b in zip(ra, rb))
         for ra, rb in zip(w.matrix(), w.inverse().matrix())]

    # The guided angles first, then the rest, each group ascending.  The
    # eigenspaces of distinct angles are independent, so once the
    # dimensions sum to n no other angle has a kernel.
    angles = [Fraction(2 * k, d) for k in range(d // 2 + 1)]
    guided = set(_angle_guide(_traces(w, d), d))
    entries: list[tuple[Angle, int, Matrix]] = []
    total = 0
    for q in sorted(angles, key=lambda q: q not in guided):
        if total == n:
            break
        c2 = field.two_cos(q)
        rows = [tuple(s[i][j] - (c2 if i == j else field.zero) for j in range(n))
                for i in range(n)]
        basis = kernel_basis(rows, n, field)
        if basis:
            entries.append((q, len(basis), basis))
            total += len(basis)
    if total != n:
        raise MultiplicityMismatch(
            f"eigenspace dimensions sum to {total}, expected {n}")
    entries.sort(key=lambda entry: entry[0])

    theta0 = entries[0][0]
    v_wt = entries[0][2]
    return EigenDecomposition(owner=w, system=system, entries=entries,
                              theta0=theta0, v_wt=v_wt)


def _traces(w: TwistedElement, d: int) -> list[AlgebraicScalar]:
    """tr(M^j) for j = 0..d-1, read off root permutations.

    Column i of M^j is the root w^j(alpha_i), so the trace is the sum of
    coordinate i of root perm_j[i] over i: n field additions per power.
    """
    system = w.system
    n, npos, roots = system.rank, system.npos, system.pos_roots
    perm = w.root_perm()
    acc = system._identity_perm
    traces = []
    for _ in range(d):
        tr = system.field.zero
        for i, r in enumerate(acc[:n]):
            if r < npos:
                tr = tr + roots[r][i]
            else:
                tr = tr - roots[r - npos][i]
        traces.append(tr)
        acc = compose(perm, acc)
    return traces


def _angle_guide(traces: list[AlgebraicScalar], d: int) -> list[Angle]:
    """The angles 2k/d at which a float DFT of the traces finds eigenvalues.

    A guide only: it orders the exact kernel solves, and a wrong answer
    makes the scan go on over the other angles.  Each trace is evaluated
    from its numerator at c = 2cos(pi/L) by math.cos, never by float() of
    the scalar, which would refine the field's shared isolating interval.
    """
    field = traces[0].field
    c = 2.0 * math.cos(math.pi / field.L)
    vals = [sum(x * c ** i for i, x in enumerate(t.num)) / t.den for t in traces]
    return [Fraction(2 * k, d) for k in range(d // 2 + 1)
            if sum(t * math.cos(2.0 * math.pi * j * k / d)
                   for j, t in enumerate(vals)) > d / 2]


def _dft_crosscheck(w: TwistedElement, system: CoxeterSystem, d: int,
                    entries: list[tuple[Angle, int, Matrix]]) -> None:
    """Recompute multiplicities from tr(M^j) by an exact DFT.

    The eigenvalue e^{2 pi i k/d} has multiplicity
    (1/d) sum_j tr(M^j) cos(2 pi jk/d), so each k is checked as the field
    identity sum_j tr(M^j) 2cos(2 pi jk/d) = 2d * multiplicity.  No field
    raise is needed: the field already holds 2cos(2 pi/d), hence every
    2cos(2 pi jk/d).
    """
    field = system.field
    traces = _traces(w, d)
    by_angle = {q: dim for q, dim, _ in entries}
    for k in range(d // 2 + 1):
        q = Fraction(2 * k, d)
        dim = by_angle.get(q, 0)
        # For 0 < q < 1 the kernel holds the conjugate pair e^{+-i q pi}.
        target = 2 * d * dim if q in (0, 1) else d * dim
        total = field.zero
        for j, t in enumerate(traces):
            total = total + t * field.two_cos(Fraction(2 * j * k, d))
        if total != field.from_rational(target):
            raise MultiplicityMismatch(
                f"DFT sum {total!r} != {target} for kernel rank {dim} at angle {q}")


# ---------------------------------------------------------------------------
# Regular points and reflection subgroups.


def hyperplanes_containing(system: CoxeterSystem, basis: Matrix) -> frozenset[int]:
    """Positive-root indices of hyperplanes containing span(basis).

    Memoized on `system` per basis.
    """
    key = tuple(basis)
    cached = system._hyperplanes.get(key)
    if cached is None:
        pairs = [system.root_pairings(b) for b in basis]
        cached = system._hyperplanes[key] = frozenset(
            r for r in range(system.npos)
            if not any(any(p[r][0]) for p in pairs))
    return cached


def reduced_basis(system: CoxeterSystem, basis: Matrix) -> tuple[Matrix, list[int]]:
    """rref(basis), the form linalg.in_span tests against.

    Memoized on `system` per basis; callers must not mutate the result.
    """
    key = tuple(basis)
    cached = system._reduced.get(key)
    if cached is None:
        cached = system._reduced[key] = rref(basis)
    return cached


def reflection_subgroup(system: CoxeterSystem, basis: Matrix) -> list[int]:
    """Generating reflections of W_K as sorted positive-root indices."""
    return sorted(hyperplanes_containing(system, basis))


def regular_point(system: CoxeterSystem, basis: Matrix,
                  start_index: int = 0) -> Vector:
    """A deterministic regular point of K = span(basis).

    For each hyperplane H either K lies inside H or the point avoids H.  It
    is sum_i c_i b_i for the first tuple c of rational_tuples(m,
    start_index) that avoids every H missing K.  Rings 0..R of the
    enumerator form an (R+1)^m grid, on which each avoided root's nonzero
    form c -> <alpha_r, sum c_i b_i> vanishes at most (R+1)^(m-1) times; the
    roots span V, so #avoid > 0 and R + 1 = #avoid + start_index + 1 leaves
    more than start_index good grid points.  So (R+1)^m - start_index
    tuples suffice.  Running past that bound raises TheoremViolation; a
    negative `start_index` raises ValueError, as the count needs
    start_index >= 0.  Points are memoized per (basis, start_index).
    """
    if start_index < 0:
        raise ValueError(f"start_index must be >= 0, got {start_index}")
    field = system.field
    if not basis or all(vec_is_zero(b) for b in basis):
        raise NoRegularPoint("the zero subspace has no regular points")
    key = (tuple(basis), start_index)
    cached = system._regular_points.get(key)
    if cached is not None:
        return cached
    m = len(basis)
    # rows[r][i] = <alpha_r, b_i> as (num, den); H_K is the set of roots
    # with a zero row.
    rows = list(zip(*[system.root_pairings(b) for b in basis]))
    forms = [_integer_forms(row) for row in rows if any(any(num) for num, _ in row)]
    count = (len(forms) + start_index + 1) ** m - start_index
    tuples = itertools.islice(rational_tuples(m, start_index), count)
    found = next((c for c in tuples
                  if not _meets_a_hyperplane(_cleared(c), forms)), None)
    if found is None:
        raise TheoremViolation(f"no regular point among {count} tuples")
    v = _combination(field, [field.from_rational(c) for c in found], basis)
    system._regular_points[key] = v
    return v


def closure_holds_regular_point(system: CoxeterSystem, basis: Matrix,
                                chamber: Chamber) -> bool:
    """Whether the closed chamber holds a regular point of K = span(basis).

    K & closure(A) is the cone that the walls of A missing K cut out of K
    (_chamber_cone).  The sum p of its lines and rays lies in its relative
    interior, so in one open facet of closure(A); each reflecting
    hyperplane leaves closure(A) on one side, so one through p holds the
    whole cone (Bourbaki, Lie V, §1.4-1.6).  The answer is therefore
    whether p avoids every hyperplane missing K, read off one pass of
    integer pairings.  A p outside the closed chamber means a wrong double
    description: TheoremViolation.  The zero subspace has no regular point.
    Verdicts are memoized per (basis, chamber).
    """
    if not basis or all(vec_is_zero(b) for b in basis):
        return False
    key = (tuple(basis), chamber.x.perm)
    cached = system._closure_verdicts.get(key)
    if cached is not None:
        return cached
    cone = _chamber_cone(system, basis, [chamber])
    coords = zero_vector(system.field, len(basis))
    for g in [*cone.lines, *cone.rays]:
        coords = vec_add(coords, g)
    pairs = system.root_pairings(_combination(system.field, coords, basis))
    sign_of = system.field.sign_of
    if any(sign_of(pairs[r][0]) * chamber.sign(r) < 0 for r in chamber.walls()):
        raise TheoremViolation("the sum of the cone's generators leaves "
                               "the closed chamber")
    h_k = hyperplanes_containing(system, basis)
    holds = system._closure_verdicts[key] = all(
        any(pairs[r][0]) for r in range(system.npos) if r not in h_k)
    return holds


def _chamber_cone(system: CoxeterSystem, basis: Matrix,
                  chambers: Sequence[Chamber]) -> Cone:
    """K & the closures of the chambers, in basis coordinates of K.

    A closed chamber is the meet of its n wall half-spaces, and a wall that
    contains K constrains nothing on K, so the walls that miss K, each with
    its sign on its chamber, cut out the cone.
    """
    field = system.field
    rows = list(zip(*[system.root_pairings(b) for b in basis]))
    walls = dict.fromkeys((r, ch.sign(r)) for ch in chambers for r in ch.walls())
    constraints = []
    for r, s in walls:
        if any(any(num) for num, _ in rows[r]):
            row = tuple(_normal(field, num, den) for num, den in rows[r])
            constraints.append(row if s > 0 else tuple(-x for x in row))
    return cone_from_constraints(field, len(basis), constraints)


def _combination(field, coeffs: Sequence, basis: Matrix) -> Vector:
    """sum_i coeffs[i] basis[i]."""
    v = zero_vector(field, len(basis[0]))
    for c, bvec in zip(coeffs, basis):
        if not c.is_zero():
            v = vec_add(v, vec_scale(c, bvec))
    return v


# The free regular point's zero test.  <alpha_r, sum c_i b_i> vanishes iff
# each of its power-basis coefficients does.  Over E_r, the lcm of the row's
# denominators, these are the integer forms c -> sum_i c_i num_ri[k] E_r /
# den_ri; clearing the tuple's denominators keeps every zero.  So each test
# is a few integer dot products, exact as the field sum is.


def _integer_forms(row: Sequence[tuple[tuple[int, ...], int]]) -> list[tuple[int, ...]]:
    """The nonzero integer forms of a row of (num, den) pairings."""
    e = math.lcm(*[den for _, den in row])
    scaled = [[x * (e // den) for x in num] for num, den in row]
    return [f for f in zip(*scaled) if any(f)]


def _cleared(coeffs: Sequence[Fraction]) -> list[int]:
    """The tuple times the lcm of its denominators."""
    q = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (q // c.denominator) for c in coeffs]


def _meets_a_hyperplane(ints: list[int], forms: list[list[tuple[int, ...]]]) -> bool:
    """Whether every form of some row vanishes at the cleared tuple."""
    return any(not any(sum(map(mul, ints, f)) for f in row) for row in forms)


def fixed_space(w: TwistedElement) -> Matrix:
    """Basis of the fixed space of w on V."""
    system = w.system
    field = system.field
    n = system.rank
    m = w.matrix()
    rows = [tuple(m[i][j] - (field.one if i == j else field.zero) for j in range(n))
            for i in range(n)]
    return kernel_basis(rows, n, field)


def is_elliptic(w: TwistedElement) -> bool:
    """Fixed points of w lie in V^W (= 0 for the ambient group)."""
    return not fixed_space(w)


def elliptic_parabolic_certificate(w: TwistedElement,
                                   class_bodies: list[int],
                                   table) -> bool:
    """The parabolic criterion: the class misses every proper twisted parabolic.

    `class_bodies` are table indices of the bodies of the class of w (all in
    the same twist coset).  A body x lies in W_J iff its support (the letter
    set of a reduced word, table.support) is inside J (Bourbaki, Lie IV,
    §1.8).  The least d-stable J that holds the support is the union of the
    d-orbits of its letters, so x lies in a proper d-stable W_J iff that
    union is proper.  Returns the criterion's verdict; callers check agreement with is_elliptic.
    """
    n = w.system.rank
    orbit = [sum({1 << w.twist.apply_index(j, k) for k in range(w.twist.order)})
             for j in range(n)]
    for supp in {table.support[x] for x in class_bodies}:
        closure = 0
        for j in range(n):
            if supp >> j & 1:
                closure |= orbit[j]
        if closure != (1 << n) - 1:
            return False
    return True


def is_quasi_elliptic(w: TwistedElement) -> bool:
    """(V^w)-perp contains a regular point of V."""
    return _elliptic_kinds(w)[1]


def _elliptic_kinds(w: TwistedElement) -> tuple[bool, bool]:
    """(is_elliptic(w), is_quasi_elliptic(w)) from one fixed-space basis."""
    system = w.system
    field = system.field
    n = system.rank
    fix = fixed_space(w)
    if not fix:
        return True, True  # complement is all of V
    rows = [tuple(system.inner(f, tuple(field.one if j == i else field.zero
                                        for j in range(n))) for i in range(n))
            for f in fix]
    comp = kernel_basis([tuple(r) for r in rows], n, field)
    return False, bool(comp) and not hyperplanes_containing(system, comp)


# ---------------------------------------------------------------------------
# Admissible filtrations and good-position chambers.


@dataclass
class Filtration:
    """Cumulative eigenspace filtration of an increasing angle sequence."""
    owner: TwistedElement
    system: CoxeterSystem
    angles: tuple[Angle, ...]
    f_bases: list[Matrix]              # F_0 = 0, F_1, ..., F_r
    hyperplane_sets: list[frozenset[int]]  # H_{F_i} as positive root indices
    admissible: bool
    irredundant_indices: tuple[int, ...]   # i with W_{F_i} != W_{F_{i-1}}

    @property
    def irredundant(self) -> tuple[Angle, ...]:
        return tuple(self.angles[i - 1] for i in self.irredundant_indices)

    def conjugate_by(self, x: GroupElement) -> "Filtration":
        """The filtration of x^-1 w x for the same angles, from this one.

        x^-1 maps V^theta(w) onto V^theta(x^-1 w x), so the new F_i is
        x^-1(F_i): each basis is mapped and reduced (the RREF of a subspace
        is unique, so the bases are those admissible_filtration builds).
        <alpha_r, x^-1 v> = <x alpha_r, v>, so H_r contains x^-1(F_i) iff
        the hyperplane of x(alpha_r) contains F_i; the irredundant indices
        and admissibility carry over unchanged.
        """
        system = self.system
        npos = system.npos
        x_inv = x.inverse()
        f_bases = [rref([x_inv.apply(b) for b in basis])[0] for basis in self.f_bases]
        moved = [p if p < npos else p - npos for p in x.perm[:npos]]
        hsets = [frozenset(r for r in range(npos) if moved[r] in h)
                 for h in self.hyperplane_sets]
        return Filtration(owner=self.owner.conjugate_by(x), system=system,
                          angles=self.angles, f_bases=f_bases,
                          hyperplane_sets=hsets, admissible=self.admissible,
                          irredundant_indices=self.irredundant_indices)


def admissible_filtration(w: TwistedElement, angles,
                          eig: EigenDecomposition | None = None) -> Filtration:
    """Build F_i = sum of V^theta_j for j <= i and the W_{F_i} chain."""
    qs = tuple(Fraction(q) for q in angles)
    if not all(a < b for a, b in zip(qs, qs[1:])):
        raise ValueError(f"angles {qs} must strictly increase")
    if eig is None or eig.owner != w:
        eig = eigen_decomposition(w, dft_check=False)
    system = eig.system
    f_bases: list[Matrix] = [[]]
    cur: Matrix = []
    for q in qs:
        cur = cur + [v for v in eig.basis_of(q)]
        red, _ = rref(cur)
        cur = list(red)
        f_bases.append(list(cur))
    hsets = [hyperplanes_containing(system, b) if b else
             frozenset(range(system.npos)) for b in f_bases]
    admissible = not hsets[-1]
    irred = tuple(i for i in range(1, len(f_bases))
                  if hsets[i] != hsets[i - 1])
    return Filtration(owner=eig.owner, system=system, angles=qs,
                      f_bases=f_bases, hyperplane_sets=hsets,
                      admissible=admissible, irredundant_indices=irred)


def good_position_chamber(filtration: Filtration,
                          start_index: int = 0) -> Chamber:
    """A chamber whose H_{F_i}-component closures reach regular points of F_{i+1}.

    Built by lexicographic sign perturbation: a chamber of the point
    p = x_1 + eps x_2 + eps^2 x_3 + ... for regular points x_i of the growth
    levels F_i (dim F_i > dim F_{i-1}), with eps treated symbolically (first
    nonzero sign wins).  The filtration is admissible, so no hyperplane
    holds the last level and its point is regular in V: no root's sign at p
    is zero.  Each root's sign at p is read once, from the pairings of the
    x_i.  The walk of p into the fundamental chamber then moves only g: the
    sign of <alpha_i, g p> is the sign of <g^-1 alpha_i, p>, since the form
    is W-invariant, so a step s_i composes root permutations.
    """
    if not filtration.admissible:
        raise NotAdmissible("filtration does not reach a regular point of V")
    system = filtration.system
    n, npos = system.rank, system.npos
    sign_of = system.field.sign_of

    f_bases = filtration.f_bases
    points = [regular_point(system, basis, start_index=start_index)
              for prev, basis in zip(f_bases, f_bases[1:]) if len(basis) > len(prev)]
    pairs = [system.root_pairings(p) for p in points]

    # The sign at p of each positive root, on first use.
    lex: dict[int, int] = {}

    def lex_sign(root_idx: int) -> int:
        r = root_idx if root_idx < npos else root_idx - npos
        s = lex.get(r)
        if s is None:
            s = next(filter(None, (sign_of(p[r][0]) for p in pairs)), 0)
            if not s:
                raise TheoremViolation(f"root {r} has no nonzero sign at the "
                                       "growth levels' regular points")
            lex[r] = s
        return s if root_idx < npos else -s

    # y is g^-1 as a root permutation, and (s_i g)^-1 = g^-1 s_i.  Each step
    # lowers the number of roots negative at g p, so at most npos steps.
    y = system._identity_perm
    for _ in range(npos + 1):
        i = next((i for i in range(n) if lex_sign(y[i]) < 0), None)
        if i is None:
            break
        y = compose(y, system.reflections[i])
    else:
        raise TheoremViolation("lexicographic sign walk failed to terminate")
    chamber = Chamber(system, GroupElement(system, y))

    # With regular points x_i the construction is in good position; the
    # exact witness check confirms it.
    if not _good_position_holds(chamber, filtration, pairs):
        raise TheoremViolation("lexicographic chamber is not in good position")
    return chamber


def _good_position_holds(chamber: Chamber, filtration: Filtration,
                         witness_pairings: list[list[tuple[tuple[int, ...], int]]]) -> bool:
    """Exact witness check of the good-position property.

    witness_pairings holds system.root_pairings of the regular point of
    each growth level F_i (dim F_i > dim F_{i-1}), in level order.
    """
    system = filtration.system
    sign_of = system.field.sign_of
    pairs_iter = iter(witness_pairings)
    pairs_of_level: dict[int, list] = {}
    for i in range(1, len(filtration.f_bases)):
        if len(filtration.f_bases[i]) > len(filtration.f_bases[i - 1]):
            pairs_of_level[i] = next(pairs_iter)
    for i in range(len(filtration.f_bases) - 1):
        # Some regular point of F_{i+1} must lie in the closure of the
        # H_{F_i}-component of the chamber.  When F_{i+1} = F_j for the last
        # growth level j <= i, the witness x_j pairs to zero against every
        # H in H_{F_i} (those hyperplanes contain F_j), so the condition is
        # automatic and only growth levels need checking.
        pairs = pairs_of_level.get(i + 1)
        if pairs is None:
            continue
        for r in filtration.hyperplane_sets[i]:
            s = sign_of(pairs[r][0])
            if s != 0 and s != chamber.sign(r):
                return False
    return True
