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

Also here: the test whether a closed chamber holds a regular point of a
subspace, the reflection subgroup of a subspace, the elliptic and
quasi-elliptic predicates, admissible filtrations and good-position
chambers.  A good-position chamber needs no exact regular point: each
level's point is symbolic, x_i(s + delta) = sum_j (s + delta)^j b_j over
the eigenbases, and a root's sign there is read off the pairing tables of
the b_j (_level_signs).

The pure geometric constructions are memoized on the system view they are
called with, in plain dicts set up by CoxeterSystem.__init__: the
decomposition of an element (with a flag recording whether its DFT check
has run, so a later call that asks for the check still runs it once), the
pairing table of each eigenbasis vector a filtration reads, the
closed-chamber verdict of a basis and chamber, and the hyperplanes
containing a basis.  A lift has its own dicts, as its vectors live in
another field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Callable, Sequence

from .coxeter import (Chamber, CoxeterSystem, GroupElement, TwistedElement,
                      compose)
from .errors import (FieldTooSmall, MultiplicityMismatch, NotAdmissible,
                     TheoremViolation)
from .linalg import (Cone, Matrix, Vector, cone_from_constraints, kernel_basis,
                     mat_inverse, vec_add, vec_dot, vec_is_zero, vec_scale,
                     vec_sub, zero_vector)
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

        The coordinates of v in full_basis() are rows of the inverse of the
        basis matrix, computed once per decomposition, times v; a basis
        that does not span V raises TheoremViolation.  The components sum
        to v, so the last angle's is v minus the others, and its coordinate
        rows are never read.
        """
        field = self.system.field
        basis = self.full_basis()
        if self._inverse is None:
            n = self.system.rank
            if len(basis) == n:
                self._inverse = mat_inverse(list(zip(*basis)), field)
            if self._inverse is None:
                raise TheoremViolation("the eigenspaces do not span V")
        out: dict[Angle, Vector] = {}
        last = v
        pos = 0
        for q, dim, _ in self.entries[:-1]:
            comp = zero_vector(field, self.system.rank)
            for j in range(pos, pos + dim):
                comp = vec_add(comp, vec_scale(vec_dot(self._inverse[j], v), basis[j]))
            pos += dim
            out[q] = comp
            last = vec_sub(last, comp)
        out[self.entries[-1][0]] = last
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
# Pairing tables, hyperplane sets, regular points and reflection subgroups.


# A pairing table is root_pairings(v): (num, den) with <alpha_r, v> =
# num / den for each positive root r.
PairingTable = list[tuple[tuple[int, ...], int]]


def _pairing_tables(system: CoxeterSystem, basis: Matrix) -> list[PairingTable]:
    """The pairing table of each basis vector, kept or fresh.

    The memo on `system` holds only the eigenbasis vectors of filtrations
    (_eigenbasis_tables), so the good-position signs, hyperplanes_containing
    and the chamber cones pair each such vector once per view, while walks
    and class scans keep no tables.
    """
    kept = system._pairing_tables
    return [kept.get(b) or system.root_pairings(b) for b in basis]


def _eigenbasis_tables(system: CoxeterSystem, basis: Matrix) -> list[PairingTable]:
    """_pairing_tables of an eigenbasis, memoized on `system` per vector."""
    kept = system._pairing_tables
    for b in basis:
        if b not in kept:
            kept[b] = system.root_pairings(b)
    return [kept[b] for b in basis]


def hyperplanes_containing(system: CoxeterSystem, basis: Matrix) -> frozenset[int]:
    """Positive-root indices of hyperplanes containing span(basis).

    Memoized on `system` per basis.
    """
    key = tuple(basis)
    cached = system._hyperplanes.get(key)
    if cached is None:
        tables = _pairing_tables(system, basis)
        cached = system._hyperplanes[key] = frozenset(
            r for r in range(system.npos)
            if not any(any(t[r][0]) for t in tables))
    return cached


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

    The same test answers whether K & closure(A) spans K, which is what
    walk.strongly_connected_step asks of P = H_0 & K.  A cone that spans K
    is full-dimensional in K, and a full-dimensional piece of K minus the
    finitely many proper subspaces H_r & K, r outside H_K, is not empty.
    Conversely a regular point x of K in closure(A) lies on exactly the
    hyperplanes of H_K, so the points of their meet near x keep x's sign
    at every other root and lie in closure(A) too; that meet holds K, so
    the cone holds a neighbourhood of x in K and spans K.
    """
    if not basis or all(vec_is_zero(b) for b in basis):
        return False
    key = (tuple(basis), chamber.x.perm)
    cached = system._closure_verdicts.get(key)
    if cached is not None:
        return cached
    cone = _chamber_cone(system, basis, chamber)
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


def _chamber_cone(system: CoxeterSystem, basis: Matrix, chamber: Chamber) -> Cone:
    """K & the closure of the chamber, in basis coordinates of K.

    A closed chamber is the meet of its n wall half-spaces, and a wall that
    contains K constrains nothing on K, so the walls that miss K, each with
    its sign on the chamber, cut out the cone.
    """
    field = system.field
    tables = _pairing_tables(system, basis)
    constraints = []
    for r in chamber.walls():
        if any(any(t[r][0]) for t in tables):
            row = tuple(_normal(field, *t[r]) for t in tables)
            constraints.append(row if chamber.sign(r) > 0
                               else tuple(-x for x in row))
    return cone_from_constraints(field, len(basis), constraints)


def _combination(field, coeffs: Sequence, basis: Matrix) -> Vector:
    """sum_i coeffs[i] basis[i]."""
    v = zero_vector(field, len(basis[0]))
    for c, bvec in zip(coeffs, basis):
        if not c.is_zero():
            v = vec_add(v, vec_scale(c, bvec))
    return v


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
    """(V^w)-perp contains a regular point of V: w fixes no root.

    A subspace holds a regular point iff it lies in no reflecting
    hyperplane, and (V^w)-perp lies in H_r iff alpha_r lies in
    ((V^w)-perp)-perp = V^w, that is iff w fixes alpha_r.  The identity
    fixes every root, matching its zero complement.
    """
    perm = w.root_perm()
    return all(perm[r] != r for r in range(w.system.npos))


# ---------------------------------------------------------------------------
# Admissible filtrations and good-position chambers.


@dataclass
class Filtration:
    """Cumulative eigenspace filtration of an increasing angle sequence.

    F_i is the sum of the eigenspaces of the first i angles.  A hyperplane
    contains F_i iff it contains each of them, so H_{F_i} is the meet of
    their hyperplane sets.  `bases` holds each angle's eigenbasis (empty
    for an angle that is no eigen-angle), which good_position_chamber
    reads; a filtration carried by conjugate_by has none, since only
    certify_good reads it.
    """
    owner: TwistedElement
    system: CoxeterSystem
    angles: tuple[Angle, ...]
    hyperplane_sets: list[frozenset[int]]  # H_{F_0} = all roots, H_{F_1}, ...
    admissible: bool
    irredundant_indices: tuple[int, ...]   # i with W_{F_i} != W_{F_{i-1}}
    bases: tuple[Matrix, ...] | None = None

    @property
    def irredundant(self) -> tuple[Angle, ...]:
        return tuple(self.angles[i - 1] for i in self.irredundant_indices)

    def conjugate_by(self, x: GroupElement) -> "Filtration":
        """The filtration of x^-1 w x for the same angles, from this one.

        x^-1 maps V^theta(w) onto V^theta(x^-1 w x), so the new F_i is
        x^-1(F_i).  <alpha_r, x^-1 v> = <x alpha_r, v>, so H_r contains
        x^-1(F_i) iff the hyperplane of x(alpha_r) contains F_i: the
        hyperplane sets move by x's root permutation, and the irredundant
        indices and admissibility carry over unchanged.  No vector is
        mapped, so the result has no bases.
        """
        npos = self.system.npos
        moved = [p if p < npos else p - npos for p in x.perm[:npos]]
        hsets = [frozenset(r for r in range(npos) if moved[r] in h)
                 for h in self.hyperplane_sets]
        return Filtration(owner=self.owner.conjugate_by(x), system=self.system,
                          angles=self.angles, hyperplane_sets=hsets,
                          admissible=self.admissible,
                          irredundant_indices=self.irredundant_indices)


def admissible_filtration(w: TwistedElement, angles,
                          eig: EigenDecomposition | None = None) -> Filtration:
    """The eigenbases of the angles and the H_{F_i} chain, with no elimination."""
    qs = tuple(Fraction(q) for q in angles)
    if not all(a < b for a, b in zip(qs, qs[1:])):
        raise ValueError(f"angles {qs} must strictly increase")
    if eig is None or eig.owner != w:
        eig = eigen_decomposition(w, dft_check=False)
    system = eig.system
    bases = tuple(eig.basis_of(q) for q in qs)
    hsets = [frozenset(range(system.npos))]
    for basis in bases:
        # Keep the tables first, so hyperplanes_containing reads them too.
        _eigenbasis_tables(system, basis)
        hsets.append(hsets[-1] & hyperplanes_containing(system, basis))
    irred = tuple(i for i in range(1, len(hsets)) if hsets[i] != hsets[i - 1])
    return Filtration(owner=eig.owner, system=system, angles=qs,
                      hyperplane_sets=hsets, admissible=not hsets[-1],
                      irredundant_indices=irred, bases=bases)


def good_position_chamber(filtration: Filtration,
                          start_index: int = 0) -> Chamber:
    """A chamber whose H_{F_i}-component closures reach regular points of F_{i+1}.

    The chamber of p = x_1 + eps x_2 + eps^2 x_3 + ..., eps symbolic (the
    first nonzero sign wins), for symbolic regular points x_i of the levels
    F_i (_level_signs): root r's sign at p is its sign at x_i for the first
    level i whose F_i its hyperplane misses.  The filtration is admissible,
    so every root has such a level and no sign at p is zero.  The walk of p
    into the fundamental chamber then moves only g: the sign of
    <alpha_i, g p> is the sign of <g^-1 alpha_i, p>, since the form is
    W-invariant, so a step s_i composes root permutations.
    """
    if not filtration.admissible:
        raise NotAdmissible("filtration does not reach a regular point of V")
    if filtration.bases is None:
        raise ValueError("a carried filtration has no eigenbases")
    system = filtration.system
    n, npos = system.rank, system.npos
    hsets = filtration.hyperplane_sets
    sign = _level_signs(filtration, start_index)

    def lex_sign(root_idx: int) -> int:
        """The sign at p of a root, read at its first level."""
        r = root_idx if root_idx < npos else root_idx - npos
        s = sign(r, next(i for i, h in enumerate(hsets) if r not in h))
        if not s:
            raise TheoremViolation(f"root {r} has no nonzero sign at the "
                                   "levels' symbolic regular points")
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
    if not _good_position_holds(chamber, filtration, sign):
        raise TheoremViolation("lexicographic chamber is not in good position")
    return chamber


def _level_signs(filtration: Filtration,
                 start_index: int) -> Callable[[int, int], int]:
    """sign(r, i): the sign of <alpha_r, x_i(s + delta)>, delta > 0 small.

    With b_0, b_1, ... the angles' eigenbases in order and m_i = dim F_i,
    level i's symbolic point is x_i(t) = sum_{j < m_i} t^j b_j at t = s +
    delta, s = start_index (Simulation of Simplicity: Edelsbrunner and
    Muecke, ACM TOG 9, 1990).  <alpha_r, x_i(t)> vanishes identically iff
    H_r holds F_i; otherwise, for every small enough delta, its sign is
    that of its first nonzero Taylor coefficient at s, sum_{j >= k}
    C(j, k) s^(j-k) <alpha_r, b_j> (for s = 0, the first nonzero pairing),
    an integer combination of the tables' numerators over their lcm
    denominator.  Fixing such a delta makes every x_i a real point of F_i
    on exactly the hyperplanes of H_{F_i}.  Signs are kept per (r, i).
    """
    system = filtration.system
    sign_of = system.field.sign_of
    s = start_index
    tables = [t for basis in filtration.bases
              for t in _eigenbasis_tables(system, basis)]
    ends = [0]
    for basis in filtration.bases:
        ends.append(ends[-1] + len(basis))
    known: dict[tuple[int, int], int] = {}

    def sign(r: int, i: int) -> int:
        out = known.get((r, i))
        if out is not None:
            return out
        column = [t[r] for t in tables[:ends[i]]]
        if s == 0:
            out = next((sign_of(num) for num, _ in column if any(num)), 0)
        else:
            e = math.lcm(*[den for _, den in column])
            nums = [[x * (e // den) for x in num] for num, den in column]
            out = 0
            for k in range(len(nums)):
                coeff = [sum(math.comb(j, k) * s ** (j - k) * num[c]
                             for j, num in enumerate(nums[k:], k))
                         for c in range(len(nums[k]))]
                if any(coeff):
                    out = sign_of(coeff)
                    break
        known[(r, i)] = out
        return out

    return sign


def _good_position_holds(chamber: Chamber, filtration: Filtration,
                         sign: Callable[[int, int], int]) -> bool:
    """Exact witness check of the good-position property.

    For each i some regular point of F_{i+1} must lie in the closure of the
    H_{F_i}-component of the chamber.  The witness x_{i+1} (_level_signs's
    sign(r, i + 1)) pairs to zero against H_{F_{i+1}}, so it must have the
    chamber's sign at every root of H_{F_i} outside H_{F_{i+1}}.  When
    F_{i+1} = F_i those sets are equal and there is nothing to check.
    """
    hsets = filtration.hyperplane_sets
    return all(sign(r, i + 1) == chamber.sign(r)
               for i in range(len(hsets) - 1)
               for r in hsets[i] - hsets[i + 1])
