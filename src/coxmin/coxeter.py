"""Finite Coxeter systems in their exact reflection representation.

A system is built from a Coxeter matrix.  V is the span of the simple roots
with the bilinear form B(a_i, a_j) = -cos(pi/m_ij); positive definiteness of
B is the finiteness test.  The full root set is the orbit closure of the
simple roots under the simple reflections, stored as exact vectors over
Q(2cos(pi/L)) with L = lcm of the bond labels m >= 4 (2cos(pi/2) = 0 and
2cos(pi/3) = 1 are rational; see CoxeterMatrix.field_level).  Orbit closure, sign
coherence and positive definiteness are proved once per matrix: a larger
field is a view of the same system (with_field_level), its roots embedded
coordinate by coordinate, with the base's reflection tables, twist
permutations and group table.

Group elements are stored as permutations of the root index set (positive
roots first, the negative of root r at index r + N).  This gives O(1)
equality, O(N) length (inversion count), and composition by table lookup.
Reduced words are derived on demand by descent walking.

A diagram twist d extends the group to the semidirect product <d> x W; a
twisted element is a twist exponent plus a body, with l(d^k w) = l(w).

For enumeration-scale work (conjugacy classes, braid normal forms) a
GroupTable indexes every element of W and tabulates multiplication by the
generators on both sides, descent masks and lengths.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import cached_property, partial
from itertools import islice
from operator import itemgetter, methodcaller, mul
from typing import Iterable, Sequence

from .errors import NotFinite, TheoremViolation, TooLarge
from .linalg import Matrix, Vector, mat_inverse
from .scalars import AlgebraicScalar, ScalarField, _normal, get_field

ROOT_BOUND_DEFAULT = 5000


# ---------------------------------------------------------------------------
# Coxeter matrices and classification of finite types.


class CoxeterMatrix:
    """A symmetric integer matrix with 1 on the diagonal, entries >= 2 off it."""

    def __init__(self, entries: Sequence[Sequence[int]]):
        # Entries may come from a user's JSON file: a float, bool or null is
        # refused, never rounded or coerced to an int.
        if not all(isinstance(row, (list, tuple))
                   and all(type(x) is int for x in row) for row in entries):
            raise ValueError("a Coxeter matrix is a list of rows of integers")
        m = tuple(map(tuple, entries))
        n = len(m)
        if n == 0:
            raise ValueError("empty Coxeter matrix")
        for i in range(n):
            if len(m[i]) != n:
                raise ValueError("Coxeter matrix must be square")
            if m[i][i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if i != j and m[i][j] < 2:
                    raise ValueError("off-diagonal entries must be >= 2")
        self.entries = m
        self.rank = n

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return isinstance(other, CoxeterMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"CoxeterMatrix({list(map(list, self.entries))})"

    def components(self) -> list[list[int]]:
        """Connected components of the Coxeter graph (bond label > 2)."""
        n = self.rank
        seen = [False] * n
        comps = []
        for start in range(n):
            if seen[start]:
                continue
            comp, stack = [], [start]
            seen[start] = True
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(n):
                    if not seen[j] and self.entries[i][j] > 2:
                        seen[j] = True
                        stack.append(j)
            comps.append(sorted(comp))
        return comps

    def classify(self) -> list[tuple[str, int]]:
        """Irreducible type and order of each component; NotFinite otherwise."""
        return [_classify_component(self, comp) for comp in self.components()]

    def group_order(self) -> int:
        order = 1
        for _, o in self.classify():
            order *= o
        return order

    def field_level(self) -> int:
        """Least L with every 2cos(pi/m) of a bond label m in Q(2cos(pi/L)).

        2cos(pi/2) = 0 and 2cos(pi/3) = 1 are rational, so only labels
        m >= 4 count: A/D/E give 1, B/F 4, H 5, G2 6 and I2(m) m.
        """
        L = 1
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if self.entries[i][j] >= 4:
                    L = math.lcm(L, self.entries[i][j])
        return L


def _classify_component(m: CoxeterMatrix, comp: list[int]) -> tuple[str, int]:
    n = len(comp)
    labels = {}
    deg = {i: 0 for i in comp}
    for a in range(n):
        for b in range(a + 1, n):
            i, j = comp[a], comp[b]
            if m[i, j] > 2:
                labels[(i, j)] = m[i, j]
                deg[i] += 1
                deg[j] += 1
    if n == 1:
        return "A1", 2
    if n == 2:
        mm = next(iter(labels.values()))
        name = {3: "A2", 4: "B2", 6: "G2"}.get(mm, f"I2({mm})")
        return name, 2 * mm
    if len(labels) != n - 1:
        raise NotFinite("Coxeter graph of a finite component must be a tree")
    degs = sorted(deg.values())
    if degs[-1] == 2:  # a path
        ends = [i for i in comp if deg[i] == 1]
        path = _trace_path(comp, labels, ends[0])
        lbl = [labels[tuple(sorted((path[k], path[k + 1])))] for k in range(n - 1)]
        pattern = sorted((lbl, lbl[::-1]))[0]
        if all(x == 3 for x in lbl):
            return f"A{n}", math.factorial(n + 1)
        if pattern == [3] * (n - 2) + [4] or pattern == [4] + [3] * (n - 2):
            return f"B{n}", (2 ** n) * math.factorial(n)
        if n == 3 and pattern in ([3, 5], [5, 3]):
            return "H3", 120
        if n == 4 and pattern in ([3, 3, 5], [5, 3, 3]):
            return "H4", 14400
        if n == 4 and lbl in ([3, 4, 3],):
            return "F4", 1152
        raise NotFinite(f"unrecognized path labels {lbl}")
    if degs[-1] == 3 and degs.count(3) == 1 and all(v == 3 for v in labels.values()):
        branch = next(i for i in comp if deg[i] == 3)
        legs = sorted(_leg_lengths(comp, labels, branch))
        if legs[0] == 1 and legs[1] == 1:
            return f"D{n}", (2 ** (n - 1)) * math.factorial(n)
        if legs == [1, 2, 2]:
            return "E6", 51840
        if legs == [1, 2, 3]:
            return "E7", 2903040
        if legs == [1, 2, 4]:
            return "E8", 696729600
    raise NotFinite("Coxeter graph is not of finite type")


def _trace_path(comp, labels, start):
    adj = {i: [] for i in comp}
    for (i, j) in labels:
        adj[i].append(j)
        adj[j].append(i)
    path, prev, cur = [start], None, start
    while len(path) < len(comp):
        nxt = next(x for x in adj[cur] if x != prev)
        path.append(nxt)
        prev, cur = cur, nxt
    return path


def _leg_lengths(comp, labels, branch):
    adj = {i: [] for i in comp}
    for (i, j) in labels:
        adj[i].append(j)
        adj[j].append(i)
    lens = []
    for nb in adj[branch]:
        ln, prev, cur = 1, branch, nb
        while True:
            nxts = [x for x in adj[cur] if x != prev]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            ln += 1
        lens.append(ln)
    return lens


_NAMED_CACHE: dict[str, CoxeterMatrix] = {}


def named_matrix(name: str) -> CoxeterMatrix:
    """Coxeter matrix of a named type: A_n, B_n, D_n, E6-8, F4, G2, H3, H4, I2(m)."""
    key = name.strip().upper().replace("_", "")
    if key in _NAMED_CACHE:
        return _NAMED_CACHE[key]

    def chain(n, special=None):
        e = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            e[i][i + 1] = e[i + 1][i] = 3
        if special:
            pos, val = special
            e[pos][pos + 1] = e[pos + 1][pos] = val
        return e

    if key.startswith("I2(") and key.endswith(")"):
        family, num = "I2", key[3:-1]
    else:
        family, num = key[:1], key[1:]
    try:
        n = int(num) if num else 0
    except ValueError:
        raise ValueError(f"unknown Coxeter type {name!r}") from None
    if family == "I2":
        if n < 3:
            raise ValueError("I2(m) needs m >= 3")
        mat = CoxeterMatrix([[1, n], [n, 1]])
    elif family == "A" and n >= 1:
        mat = CoxeterMatrix(chain(n))
    elif family in ("B", "C") and n >= 2:
        mat = CoxeterMatrix(chain(n, (0, 4)))
    elif family == "D" and n >= 4:
        e = chain(n - 1)
        for row in e:
            row.append(2)
        e.append([2] * (n - 1) + [1])
        e[n - 3][n - 1] = e[n - 1][n - 3] = 3
        mat = CoxeterMatrix(e)
    elif family == "E" and n in (6, 7, 8):
        e = chain(n - 1)
        for row in e:
            row.append(2)
        e.append([2] * (n - 1) + [1])
        e[2][n - 1] = e[n - 1][2] = 3
        mat = CoxeterMatrix(e)
    elif family == "F" and n == 4:
        mat = CoxeterMatrix(chain(4, (1, 4)))
    elif family == "G" and n == 2:
        mat = CoxeterMatrix([[1, 6], [6, 1]])
    elif family == "H" and n in (3, 4):
        mat = CoxeterMatrix(chain(n, (0, 5)))
    else:
        raise ValueError(f"unknown Coxeter type {name!r}")
    _NAMED_CACHE[key] = mat
    return mat


# ---------------------------------------------------------------------------
# The system: roots, reflection tables, bilinear form.


class CoxeterSystem:
    """A finite Coxeter group in its exact geometric representation."""

    def __init__(self, matrix: CoxeterMatrix, field: ScalarField,
                 pos_roots: Matrix, reflections: list[tuple[int, ...]]):
        self.matrix = matrix
        self.rank = matrix.rank
        self.field = field
        self.pos_roots = pos_roots          # index r in [0, N): vector of root r
        self.npos = len(pos_roots)
        self.nroots = 2 * self.npos
        self.bilinear = _bilinear_matrix(matrix, field)
        self._identity_perm = tuple(range(self.nroots))
        self._root_lookup: dict[Vector, int] = {}
        for idx, v in enumerate(pos_roots):
            self._root_lookup[v] = idx
            self._root_lookup[tuple(-c for c in v)] = idx + self.npos
        self.reflections = reflections      # generator i -> permutation of all roots
        # Field-independent data lives on the base system and is shared by
        # every lift of it to a larger field (see with_field_level).
        self._base = self
        self._lifts: dict[int, CoxeterSystem] = {}
        self._table: GroupTable | None = None
        self._kernel: list[tuple[tuple[int, ...], int]] | None = None
        self._float_rows: list[tuple[float, ...]] | None = None
        self._twist_root_perms: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
        # Geometry memoized per view, since its vectors live in the view's
        # field (see eigen.eigen_decomposition, eigen.regular_point,
        # eigen.closure_holds_regular_point, eigen.hyperplanes_containing,
        # eigen.reduced_basis and walk._angle_of_invariant_subspace).
        self._eigen: dict[tuple, list] = {}
        self._regular_points: dict[tuple, Vector] = {}
        self._closure_verdicts: dict[tuple, bool] = {}
        self._hyperplanes: dict[tuple, frozenset[int]] = {}
        self._reduced: dict[tuple, tuple[Matrix, list[int]]] = {}
        self._invariant_angles: dict[tuple, Fraction] = {}
        self._weights: tuple[Matrix, Vector] | None = None

    # -- roots ----------------------------------------------------------------

    def root_vector(self, idx: int) -> Vector:
        if idx < self.npos:
            return self.pos_roots[idx]
        return tuple(-c for c in self.pos_roots[idx - self.npos])

    def inner(self, u: Vector, v: Vector) -> AlgebraicScalar:
        acc = self.field.zero
        for i, ui in enumerate(u):
            if not ui.is_zero():
                row = self.bilinear[i]
                for j, vj in enumerate(v):
                    if not vj.is_zero():
                        acc = acc + ui * row[j] * vj
        return acc

    # -- root pairings -----------------------------------------------------------
    #
    # <alpha_r, v> = sum_j a_rj v_j with a_rj = (B alpha_r)_j, which lies in
    # the base field in every view.  Over one denominator per root and per
    # vector, a_rj = p_rj(b) / e_r with b the base field's generator, and
    # v_j = q_j(c) / D with c this view's generator, p_rj and q_j integer
    # polynomials.  b is an algebraic integer of every field that holds it,
    # so the images of its powers b^k here are integral
    # (ScalarField.embed_powers: the powers of c itself on the base).  With
    # P_rjk the coefficients of p_rj, the numerator of <alpha_r, v> over
    # e_r D is sum_{j,k} P_rjk (q_j b^k)(c): the n m_b products q_j b^k
    # (m_b the base degree) are computed once per vector, and each root
    # then costs m integer dot products of length n m_b against its row
    # P_r (m this view's degree), no field arithmetic.  The rows, the
    # pairing kernel, are built on the base system alone and shared by
    # every lift.  e_r D > 0, so the numerator alone decides zero and sign
    # tests; the numerator need not be in lowest terms, as a positive
    # factor scales field.sign_of's intervals and leaves its refinements
    # unchanged.  The walk's guidance reads the same rows as floats
    # (float_pairings).

    def _pairing_kernel(self) -> list[tuple[tuple[int, ...], int]]:
        """(P_r, e_r) per positive root, P_r j-major, built on the base
        system on first use and shared by its lifts."""
        base = self._base
        if base._kernel is None:
            field, n = base.field, base.rank
            kernel = []
            for alpha in base.pos_roots:
                row = [sum((alpha[i] * base.bilinear[i][j] for i in range(n)
                            if not alpha[i].is_zero()), field.zero)
                       for j in range(n)]
                e = math.lcm(*[a.den for a in row])
                kernel.append((tuple([x * (e // a.den) for a in row for x in a.num]), e))
            base._kernel = kernel
        return base._kernel

    def _spread(self, v: Vector) -> tuple[list[tuple[int, ...]], int]:
        """(cols, D): cols[l][j m_b + k] is coefficient l of (q_j b^k)(c),
        with D v_j = q_j(c) and D the lcm of v's denominators."""
        field = self.field
        powers = field.embed_powers(self._base.field)
        D = math.lcm(*[x.den for x in v])
        prods = []
        for x in v:
            q = tuple([c * (D // x.den) for c in x.num])
            prods.append(q)
            # powers[0] is one; any other power means degree >= 2 here.
            prods.extend([field.mul_num(q, p) for p in powers[1:]])
        return list(zip(*prods)), D

    def root_pairings(self, v: Vector) -> list[tuple[tuple[int, ...], int]]:
        """(num, den) with <alpha_r, v> = num / den, den > 0, for every
        positive root r in index order; num need not be in lowest terms."""
        cols, D = self._spread(v)
        return [(tuple([sum(map(mul, row, col)) for col in cols]), e * D)
                for row, e in self._pairing_kernel()]

    def pairing(self, r: int, v: Vector) -> tuple[tuple[int, ...], int]:
        """(num, den) of <alpha_r, v> for one positive root, as root_pairings."""
        row, e = self._pairing_kernel()[r]
        cols, D = self._spread(v)
        return tuple([sum(map(mul, row, col)) for col in cols]), e * D

    def float_pairings(self, v: Vector) -> list[float]:
        """Floats of <alpha_r, v> for every positive root, a guide only.

        The float rows a_rj are the kernel's numerators evaluated at
        2cos(pi/L) by math.cos, built once on the base system; the n
        coordinates of v are read by field.float_of.  Only those n calls
        may refine the field's isolating interval.
        """
        base = self._base
        if base._float_rows is None:
            m = base.field.degree
            c = 2.0 * math.cos(math.pi / base.field.L)
            powers = [c ** k for k in range(m)]
            base._float_rows = [
                tuple([sum(map(mul, row[j:j + m], powers)) / e
                       for j in range(0, len(row), m)])
                for row, e in base._pairing_kernel()]
        float_of = self.field.float_of
        fv = [float_of(x.num, x.den) for x in v]
        return [sum(map(mul, row, fv)) for row in base._float_rows]

    def pair_root(self, r: int, v: Vector) -> AlgebraicScalar:
        """<alpha_r, v> for a positive root, through the pairing kernel."""
        return _normal(self.field, *self.pairing(r, v))

    def root_index(self, v: Vector) -> int:
        key = tuple(v)
        idx = self._root_lookup.get(key)
        if idx is None:
            raise KeyError("vector is not a root")
        return idx

    # -- elements ---------------------------------------------------------------

    @property
    def identity(self) -> "GroupElement":
        return GroupElement(self, self._identity_perm)

    def generator(self, i: int) -> "GroupElement":
        return GroupElement(self, self.reflections[i])

    def element_from_word(self, word: Iterable[int]) -> "GroupElement":
        e = self.identity
        for i in word:
            e = e * self.generator(i)
        return e

    def table(self, max_order: int = 10 ** 6) -> "GroupTable":
        """The group table of the base system, shared by all its lifts."""
        base = self._base
        if base._table is None:
            order = self.matrix.group_order()
            if order > max_order:
                raise TooLarge(f"group order {order} exceeds bound {max_order}")
            base._table = GroupTable(base)
        return base._table

    def with_field_level(self, L: int) -> "CoxeterSystem":
        """This system viewed over the field of level lcm(L, current).

        The view (a lift) is built once per level and memoized on the base
        system; lifting a lift resolves through the base.  Its roots are the
        base roots embedded coordinate by coordinate (the fields nest), so
        root indices, reflection tables, twist permutations and the group
        table are the base's own and group elements carry over verbatim.
        """
        base = self._base
        target = math.lcm(self.field.L, L)
        if target == base.field.L:
            return base
        lift = base._lifts.get(target)
        if lift is None:
            field = get_field(target)
            roots = [tuple(field.embed_from(c) for c in v) for v in base.pos_roots]
            lift = CoxeterSystem(base.matrix, field, roots, base.reflections)
            lift._base = base
            base._lifts[target] = lift
        return lift

    def twist_root_perm(self, twist: "DiagramTwist", m: int = 1) -> tuple[int, ...]:
        """Root permutation of d^m, memoized on the base system."""
        m %= twist.order
        key = (twist.perm, m)
        cache = self._base._twist_root_perms
        cached = cache.get(key)
        if cached is None:
            if m == 0:
                cached = self._identity_perm
            elif m == 1:
                inv = invert_perm(twist.perm)
                cached = tuple(
                    self.root_index(tuple(v[inv[i]] for i in range(self.rank)))
                    for v in map(self.root_vector, range(self.nroots)))
            else:
                cached = compose(self.twist_root_perm(twist),
                                 self.twist_root_perm(twist, m - 1))
            cache[key] = cached
        return cached

    def twist_conj(self, perm: tuple[int, ...], twist: "DiagramTwist",
                   m: int) -> tuple[int, ...]:
        """Permutation of d^m w d^-m for the body permutation of w."""
        if m % twist.order == 0:
            return perm
        return compose(self.twist_root_perm(twist, m),
                       compose(perm, self.twist_root_perm(twist, -m)))

    def __repr__(self):
        names = "x".join(name for name, _ in self.matrix.classify())
        return f"CoxeterSystem({names}, L={self.field.L}, roots={self.nroots})"


def _bilinear_matrix(matrix: CoxeterMatrix, field: ScalarField) -> Matrix:
    n = matrix.rank
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            m = matrix[i, j]
            if i == j:
                row.append(field.one)
            elif m == 2:
                row.append(field.zero)
            else:
                row.append(-(field.two_cos(Fraction(1, m)) / 2))
        rows.append(tuple(row))
    return rows


def _leading_minors_positive(b: Matrix, field: ScalarField) -> bool:
    n = len(b)
    # Gaussian elimination without pivoting tracks the leading minors as
    # products of pivots; for a symmetric matrix a zero pivot on the way with
    # all previous positive already refutes positive definiteness.
    work = [list(row) for row in b]
    for k in range(n):
        piv = work[k][k]
        if piv.sign() <= 0:
            return False
        for i in range(k + 1, n):
            f = work[i][k] / piv
            if not f.is_zero():
                for j in range(k, n):
                    work[i][j] = work[i][j] - f * work[k][j]
    return True


def build_system(matrix: CoxeterMatrix) -> CoxeterSystem:
    """The root system over the matrix's own field, by orbit closure of the
    simple roots (CoxeterSystem.with_field_level views it over a larger one)."""
    field = get_field(matrix.field_level())
    b = _bilinear_matrix(matrix, field)
    if not _leading_minors_positive(b, field):
        raise NotFinite("bilinear form is not positive definite")

    n = matrix.rank
    simple: Matrix = [tuple(field.one if i == j else field.zero for j in range(n))
                      for i in range(n)]

    def refl(i: int, v: Vector) -> Vector:
        c = field.zero
        for j, vj in enumerate(v):
            if not vj.is_zero():
                c = c + b[i][j] * vj
        out = list(v)
        out[i] = out[i] - (c + c)
        return tuple(out)

    pos: Matrix = []
    lookup: dict[Vector, int] = {}

    def root_sign(v: Vector) -> int:
        signs = {c.sign() for c in v if not c.is_zero()}
        if signs not in ({1}, {-1}):
            raise TheoremViolation("root is not sign-coherent")
        return 1 if signs == {1} else -1

    # Track positive roots only; a reflection image landing on the negative
    # side is recorded through its positive counterpart.  Roots are reflected
    # in index order, so images[i][r] is s_i(alpha_r): its index, or ~index
    # for the negative of a positive root.
    images: list[list[int]] = [[] for _ in range(n)]
    frontier = []
    for i in range(n):
        lookup[tuple(simple[i])] = i
        pos.append(simple[i])
        frontier.append(simple[i])
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                img = refl(i, v)
                negative = root_sign(img) < 0
                if negative:
                    img = tuple(-c for c in img)
                idx = lookup.get(img)
                if idx is None:
                    if len(pos) >= ROOT_BOUND_DEFAULT:
                        raise NotFinite(f"orbit closure exceeded {ROOT_BOUND_DEFAULT} roots")
                    idx = lookup[img] = len(pos)
                    pos.append(img)
                    nxt.append(img)
                images[i].append(~idx if negative else idx)
        frontier = nxt
    # Index the negative roots after the positive ones: -alpha_r is r + N,
    # and s_i(-alpha_r) = -s_i(alpha_r).
    npos = len(pos)
    reflections = []
    for row in images:
        perm = [r if r >= 0 else ~r + npos for r in row]
        reflections.append(tuple(perm + [r + npos if r < npos else r - npos
                                         for r in perm]))
    return CoxeterSystem(matrix, field, pos, reflections)


# ---------------------------------------------------------------------------
# Group elements.


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation of the product: apply b, then a (a root permutation has
    at least two entries, so the getter returns a tuple)."""
    return itemgetter(*b)(a)


def invert_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


class GroupElement:
    """A group element as a permutation of the root index set."""

    __slots__ = ("system", "perm", "_inv", "_len")

    def __init__(self, system: CoxeterSystem, perm: tuple[int, ...]):
        self.system = system
        self.perm = perm
        self._inv = None
        self._len = None

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.system, compose(self.perm, other.perm))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.system, self.inv_perm)

    @property
    def inv_perm(self) -> tuple[int, ...]:
        if self._inv is None:
            self._inv = invert_perm(self.perm)
        return self._inv

    def length(self) -> int:
        if self._len is None:
            npos = self.system.npos
            self._len = sum(1 for r in range(npos) if self.perm[r] >= npos)
        return self._len

    def is_identity(self) -> bool:
        return self.perm == self.system._identity_perm

    def right_descents(self) -> set[int]:
        npos = self.system.npos
        return {i for i in range(self.system.rank) if self.perm[i] >= npos}

    def left_descents(self) -> set[int]:
        npos = self.system.npos
        return {i for i in range(self.system.rank) if self.inv_perm[i] >= npos}

    def to_word(self) -> list[int]:
        """Lexicographically smallest reduced word.

        Strips the least left descent i of x, x -> s_i x, until none is
        left, on root permutations alone: y is the permutation of the
        current x^-1, i is a left descent iff y[i] is negative, and
        (s_i x)^-1 = x^-1 s_i composes y with s_i.  No group table is read.
        """
        sys = self.system
        npos, rank, refl = sys.npos, sys.rank, sys.reflections
        y = self.inv_perm
        word = []
        while True:
            i = next((i for i in range(rank) if y[i] >= npos), None)
            if i is None:
                return word
            word.append(i)
            y = tuple([y[k] for k in refl[i]])

    def apply(self, v: Vector) -> Vector:
        sys = self.system
        out = list(v)
        acc = None
        for j, vj in enumerate(v):
            if vj.is_zero():
                continue
            rv = sys.root_vector(self.perm[j])
            term = tuple(vj * c for c in rv)
            acc = term if acc is None else tuple(a + t for a, t in zip(acc, term))
        return acc if acc is not None else tuple(sys.field.zero for _ in v)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"W[{','.join(map(str, self.to_word())) or 'e'}]"


# ---------------------------------------------------------------------------
# Diagram twists and twisted elements.


class DiagramTwist:
    """A permutation of the simple reflections preserving the Coxeter matrix."""

    def __init__(self, matrix: CoxeterMatrix, perm: Sequence[int]):
        p = tuple(perm)
        n = matrix.rank
        if sorted(p) != list(range(n)):
            raise ValueError(f"twist {p} is not a permutation of 0..{n - 1}")
        for i in range(n):
            for j in range(n):
                if matrix[p[i], p[j]] != matrix[i, j]:
                    raise ValueError("permutation does not preserve the Coxeter matrix")
        self.matrix = matrix
        self.perm = p
        order, q = 1, p
        ident = tuple(range(n))
        while q != ident:
            q = tuple(p[x] for x in q)
            order += 1
        self.order = order

    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.matrix.rank))

    def power_perm(self, k: int) -> tuple[int, ...]:
        k %= self.order
        q = tuple(range(self.matrix.rank))
        for _ in range(k):
            q = tuple(self.perm[x] for x in q)
        return q

    def apply_index(self, i: int, k: int = 1) -> int:
        return self.power_perm(k)[i]

    def __eq__(self, other):
        return (isinstance(other, DiagramTwist) and self.perm == other.perm
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"DiagramTwist{self.perm}"


def enumerate_twists(matrix: CoxeterMatrix) -> list[DiagramTwist]:
    """All Coxeter-matrix automorphisms, as a group (identity first)."""
    n = matrix.rank
    found: list[tuple[int, ...]] = []

    def extend(partial: list[int], used: set[int]):
        i = len(partial)
        if i == n:
            found.append(tuple(partial))
            return
        for cand in range(n):
            if cand in used:
                continue
            if all(matrix[partial[j], cand] == matrix[j, i] for j in range(i)):
                partial.append(cand)
                used.add(cand)
                extend(partial, used)
                partial.pop()
                used.remove(cand)

    extend([], set())
    found.sort(key=lambda p: (p != tuple(range(n)), p))
    return [DiagramTwist(matrix, p) for p in found]


class TwistedElement:
    """An element d^k w of the extended group <d> x| W."""

    __slots__ = ("system", "twist", "k", "body")

    def __init__(self, system: CoxeterSystem, twist: DiagramTwist, k: int,
                 body: GroupElement):
        self.system = system
        self.twist = twist
        self.k = k % twist.order
        self.body = body

    def twist_conj_body(self, g: GroupElement, m: int) -> GroupElement:
        """d^m g d^-m."""
        return GroupElement(self.system, self.system.twist_conj(g.perm, self.twist, m))

    def __mul__(self, other: "TwistedElement") -> "TwistedElement":
        if other.twist != self.twist:
            raise ValueError("twisted elements of different twists multiplied")
        body = self.twist_conj_body(self.body, -other.k) * other.body
        return TwistedElement(self.system, self.twist, self.k + other.k, body)

    def inverse(self) -> "TwistedElement":
        body = self.twist_conj_body(self.body.inverse(), self.k)
        return TwistedElement(self.system, self.twist, -self.k, body)

    def length(self) -> int:
        return self.body.length()

    def is_identity(self) -> bool:
        return self.k == 0 and self.body.is_identity()

    def conjugate_by_simple(self, i: int) -> "TwistedElement":
        """s_i * self * s_i."""
        sys = self.system
        j = self.twist.apply_index(i, -self.k)
        body = sys.generator(j) * self.body * sys.generator(i)
        return TwistedElement(sys, self.twist, self.k, body)

    def conjugate_by(self, x: GroupElement) -> "TwistedElement":
        """x^-1 * self * x."""
        body = self.twist_conj_body(x.inverse(), -self.k) * self.body * x
        return TwistedElement(self.system, self.twist, self.k, body)

    def root_perm(self) -> tuple[int, ...]:
        """Action on the root index set (body first, then the twist)."""
        return compose(self.system.twist_root_perm(self.twist, self.k), self.body.perm)

    def apply(self, v: Vector) -> Vector:
        w = self.body.apply(v)
        if self.k:
            inv = invert_perm(self.twist.power_perm(self.k))
            w = tuple(w[inv[i]] for i in range(len(w)))
        return w

    def matrix(self) -> Matrix:
        sys = self.system
        perm = self.root_perm()
        cols = [sys.root_vector(perm[j]) for j in range(sys.rank)]
        return [tuple(cols[j][i] for j in range(sys.rank)) for i in range(sys.rank)]

    def over(self, system: CoxeterSystem) -> "TwistedElement":
        """This element over another field view of its system."""
        return TwistedElement(system, self.twist, self.k,
                              GroupElement(system, self.body.perm))

    def __eq__(self, other):
        return (isinstance(other, TwistedElement) and self.k == other.k
                and self.body == other.body and self.twist == other.twist)

    def __hash__(self):
        return hash((self.k, self.body.perm))

    def __repr__(self):
        return f"d^{self.k}*{self.body!r}" if self.k else repr(self.body)


def untwisted(element: GroupElement) -> TwistedElement:
    sys = element.system
    twist = DiagramTwist(sys.matrix, tuple(range(sys.rank)))
    return TwistedElement(sys, twist, 0, element)


# ---------------------------------------------------------------------------
# Chambers.


class Chamber:
    """A Weyl chamber, encoded by the unique x with x(C) = A."""

    __slots__ = ("system", "x")

    def __init__(self, system: CoxeterSystem, x: GroupElement):
        self.system = system
        self.x = x

    @classmethod
    def fundamental(cls, system: CoxeterSystem) -> "Chamber":
        return cls(system, system.identity)

    def sign(self, root_idx: int) -> int:
        """Sign of <alpha_r, p> for p interior to the chamber."""
        return 1 if self.x.inv_perm[root_idx] < self.system.npos else -1

    def separating_set(self, other: "Chamber") -> set[int]:
        npos = self.system.npos
        a, b = self.x.inv_perm, other.x.inv_perm
        return {r for r in range(npos) if (a[r] < npos) != (b[r] < npos)}

    def walls(self) -> list[int]:
        """Positive root indices of the chamber's walls."""
        return [self.x.perm[i] if self.x.perm[i] < self.system.npos
                else self.x.perm[i] - self.system.npos
                for i in range(self.system.rank)]

    def wall_simple_index(self, root_idx: int) -> int | None:
        """If H_root is a wall of this chamber, the i with x^-1 s_H x = s_i."""
        j = self.x.inv_perm[root_idx]
        if j >= self.system.npos:
            j -= self.system.npos
        return j if j < self.system.rank else None

    def cross(self, i: int) -> "Chamber":
        """The neighbour across the i-th wall (in chamber-local coordinates)."""
        return Chamber(self.system, self.x * self.system.generator(i))

    def image_under(self, w: TwistedElement) -> "Chamber":
        """The chamber w(A)."""
        body = (w.body * self.x)
        moved = w.twist_conj_body(body, w.k)
        return Chamber(self.system, moved)

    def interior_point(self, t: int = 1) -> Vector:
        """x_A(sum_j t^j omega_j), with omega_j the fundamental weights.

        <alpha_i, sum_j t^j omega_j> = t^i (i = 0..n-1), so for every t > 0
        the point lies in the open chamber; t = 1 gives x_A(rho).
        """
        weights, rho = _fundamental_weights(self.system)
        if t == 1:
            return self.x.apply(rho)
        zero = self.system.field.zero
        return self.x.apply(tuple(sum((t ** j * c for j, c in enumerate(row)), zero)
                                  for row in weights))

    def over(self, system: CoxeterSystem) -> "Chamber":
        """This chamber over another field view of its system."""
        return Chamber(system, GroupElement(system, self.x.perm))

    def contains_in_closure(self, v: Vector) -> bool:
        sys = self.system
        sign_of = sys.field.sign_of
        # Numerators for every root at once; signs one by one, in root
        # order, stopping at the first wrong one.
        for r, (num, _) in enumerate(sys.root_pairings(v)):
            s = sign_of(num)
            if s != 0 and s != self.sign(r):
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, Chamber) and self.x == other.x

    def __hash__(self):
        return hash(self.x)

    def __repr__(self):
        return f"Chamber({self.x!r})"


def _fundamental_weights(system: CoxeterSystem) -> tuple[Matrix, Vector]:
    """(B^-1, rho): B^-1 has the weights omega_j as columns, so
    <alpha_i, omega_j> = delta_ij, and rho = sum_j omega_j solves B p = 1.

    Memoized per system view, as its entries live in the view's field.
    """
    if system._weights is None:
        weights = mat_inverse(system.bilinear, system.field)
        if weights is None:
            raise TheoremViolation("the bilinear form of a finite group is singular")
        system._weights = (weights, tuple(sum(row, system.field.zero) for row in weights))
    return system._weights


def conjugate_by_chamber(w: TwistedElement, chamber: Chamber) -> TwistedElement:
    """w_A = x_A^-1 w x_A."""
    return w.conjugate_by(chamber.x)


# ---------------------------------------------------------------------------
# Parabolic subgroups and coset decompositions.


def parabolic_max(system: CoxeterSystem, J: Iterable[int]) -> GroupElement:
    """Longest element of the standard parabolic subgroup W_J."""
    J = sorted(set(J))
    w = system.identity
    while True:
        i = next((i for i in J if i not in w.right_descents()), None)
        if i is None:
            return w
        w = w * system.generator(i)


def coset_decompose(w: TwistedElement, J: Iterable[int]) \
        -> tuple[GroupElement, TwistedElement, GroupElement]:
    """Write w = u' * w' * u'' with u', u'' in W_J, w' minimal in W_J w W_J.

    Lengths are additive: l(w) = l(u') + l(w') + l(u'').
    """
    J = set(J)
    sys = w.system
    u_left = sys.identity
    u_right = sys.identity
    cur = w
    while True:
        i = next((i for i in J
                  if w.twist.apply_index(i, -cur.k) in cur.body.left_descents()), None)
        if i is not None:
            # cur = s_i * rest; accumulate on u_left.
            j = w.twist.apply_index(i, -cur.k)
            cur = TwistedElement(sys, w.twist, cur.k, sys.generator(j) * cur.body)
            u_left = u_left * sys.generator(i)
            continue
        i = next((i for i in J if i in cur.body.right_descents()), None)
        if i is not None:
            cur = TwistedElement(sys, w.twist, cur.k, cur.body * sys.generator(i))
            u_right = sys.generator(i) * u_right
            continue
        break
    return u_left, cur, u_right


def is_minimal_double_coset_rep(w: TwistedElement, J: Iterable[int]) -> bool:
    J = set(J)
    left = {w.twist.apply_index(i, w.k) for i in w.body.left_descents()}
    if J & left:
        return False
    return not (J & w.body.right_descents())


def normalizes_parabolic(w: TwistedElement, J: Iterable[int]) -> bool:
    """Whether conjugation by w maps {s_j : j in J} to itself."""
    J = set(J)
    perm = w.root_perm()
    return all(perm[j] in J for j in J)


def parabolic_index_map(w: TwistedElement, J: Iterable[int]) -> dict[int, int]:
    """j -> j' with w s_j w^-1 = s_j' (requires normalizes_parabolic)."""
    perm = w.root_perm()
    return {j: perm[j] for j in J}


# ---------------------------------------------------------------------------
# Indexed enumeration of the whole group.


def _gather(kx: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """g applied to each entry of kx (kx has at least two entries)."""
    return itemgetter(*kx)(g)


class _PackedRows:
    """The root permutations of a table, one row of 2N entries per element
    in one flat buffer (a bytearray, or an array of 16-bit words above 256
    roots); perms[x] is the tuple of element x's row."""

    __slots__ = ("rows", "width", "size")

    def __init__(self, rows: bytearray | array, width: int):
        self.rows = rows
        self.width = width
        self.size = len(rows) // width

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, x: int) -> tuple[int, ...]:
        if not 0 <= x < self.size:
            raise IndexError(f"element {x} is not in the table")
        start = x * self.width
        return tuple(self.rows[start:start + self.width])


class _KeyIndex:
    """Root permutation -> element index, through the BFS key.

    key(x) is the positions of roots 0..n-1 in x's permutation, that is
    x^-1 of the simple roots, as bytes (a tuple above 256 roots); it fixes x
    within W.  A permutation is found only when the row stored under its key
    equals it, so one outside W is a KeyError (or None from get), as in a
    dict keyed by permutations.
    """

    __slots__ = ("found", "perms", "rank", "keytype")

    def __init__(self, found: dict, perms: _PackedRows, rank: int, keytype: type):
        self.found = found
        self.perms = perms
        self.rank = rank
        self.keytype = keytype

    def get(self, perm: tuple[int, ...]) -> int | None:
        """perm's element index, or None when perm is not an element of W."""
        try:
            key = self.keytype(map(perm.index, range(self.rank)))
        except ValueError:          # not a permutation of the root indices
            return None
        x = self.found.get(key)
        return x if x is not None and self.perms[x] == perm else None

    def __getitem__(self, perm: tuple[int, ...]) -> int:
        x = self.get(perm)
        if x is None:
            raise KeyError(perm)
        return x


class GroupTable:
    """Every element of W indexed, with generator multiplication tables.

    Element 0 is the identity; elements are discovered in breadth-first
    order by right multiplication, so indices are stable for a fixed matrix.

    The search keys x by key(x) = (x^-1(alpha_1), ..., x^-1(alpha_n)), n root
    indices instead of 2N.  The key fixes x, since x^-1 is linear and the
    simple roots are a basis; and key(x s_i) = s_i applied to each entry of
    key(x).  Up to 256 roots a key is bytes and s_i a 256-byte translation
    table T_i (s_i's permutation, zero-padded), so key(x s_i) is one
    key(x).translate(T_i); above 256 roots (I2(m), m > 128) it is a tuple,
    gathered by an itemgetter.  Each x != 1 is found as x = y s_i with
    y = parent[x], i = letter[x], l(x) = l(y) + 1, and the rest follows from
    that tree:

    * left[j][x] = right[i][left[j][y]], since s_j x = (s_j y) s_i;
    * index[perm] looks the permutation's key up in the search's own dict
      and checks the stored row (_KeyIndex), so no table is keyed by 2N-tuples;
    * support[x] = support[y] | 1 << i is the letter set of a reduced word
      (the tree path), the same for every reduced word of x, since braid
      moves keep letter sets (Matsumoto); so x lies in W_J iff support[x]
      is inside J (Bourbaki, Lie IV, §1.8);
    * i is a right (left) descent of x iff x s_i (s_i x) is shorter, that
      is, comes first in the length-ordered index; the masks (rdesc,
      ldesc) are built on first read, as only braid normal forms read
      them;
    * first[x] = first[y] (letter[x] when y = 1) is the first letter of the
      tree path, a reduced word, so it is a left descent of x.

    The root permutations are packed into one flat buffer, 2N entries per
    element, read through a sequence view (_PackedRows).  perms[x] =
    s_j o perms[s_j x] for j = first[x]: s_j x is shorter, so it comes
    earlier in the index, and (s_j y)(r) = s_j(y(r)), so each row is s_j
    applied to an earlier row.  Up to 256 roots the buffer is a bytearray
    and that is one translate by T_j; above 256 roots it is an array of
    16-bit words and one compose(s_j, row).
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        n = system.rank
        gens = system.reflections
        width = system.nroots
        if width <= 256:
            acts = [bytes(g) + bytes(256 - width) for g in gens]
            act, keytype = bytes.translate, bytes
            packed = bytearray(system._identity_perm)
            lefts = [methodcaller("translate", a) for a in acts]
        else:
            acts, act, keytype = gens, _gather, tuple
            packed = array("H", system._identity_perm)
            lefts = [partial(compose, g) for g in gens]
        keys = [keytype(range(n))]   # the simple roots are roots 0..n-1
        found = {keys[0]: 0}
        ids, parent, letter, length = [0], [0], [0], [0]
        right: list[list[int]] = [[] for _ in range(n)]
        steps = list(enumerate(zip(acts, [row.append for row in right])))
        # keys grows as x runs: a BFS queue.  x comes from ids, not from
        # enumerate, so every table holds the one int made for each element
        # and those ints lie packed in index order (table reads stay local).
        for x, kx in zip(ids, keys):
            for i, (a, put) in steps:
                ky = act(kx, a)
                y = found.get(ky)
                if y is None:
                    y = found[ky] = len(keys)
                    keys.append(ky)
                    ids.append(y)
                    parent.append(x)
                    letter.append(i)
                    length.append(length[x] + 1)
                put(y)
        del keys
        self.parent = parent
        self.letter = letter
        size = len(length)
        left = []
        for j in range(n):
            row = [right[j][0]]
            for y, i in self._tree():
                row.append(right[i][row[y]])
            left.append(row)
        support = [0]
        first = [0]
        for y, i in self._tree():
            support.append(support[y] | 1 << i)
            first.append(first[y] if y else i)
        put = packed.extend
        for x, j in islice(enumerate(first), 1, None):
            start = left[j][x] * width
            put(lefts[j](packed[start:start + width]))
        self.size = size
        self.perms = _PackedRows(packed, width)
        self.index = _KeyIndex(found, self.perms, n, keytype)
        self.right = right
        self.left = left
        self.length = length
        self.support = support
        self.w0 = max(range(size), key=length.__getitem__)
        if length.count(length[self.w0]) != 1:
            raise TheoremViolation("the longest element is not unique")

    def _tree(self):
        """(parent, letter) of each element but the identity, in index order."""
        return islice(zip(self.parent, self.letter), 1, None)

    @cached_property
    def rdesc(self) -> list[int]:
        """Right-descent bitmask of each element, built on first read."""
        return self._descent_masks(self.right)

    @cached_property
    def ldesc(self) -> list[int]:
        """Left-descent bitmask of each element, built on first read."""
        return self._descent_masks(self.left)

    def _descent_masks(self, rows: list[list[int]]) -> list[int]:
        # Indices run in order of length, so x s_i (s_i x) is shorter iff
        # it comes first.
        masks = [0] * self.size
        for i, row in enumerate(rows):
            bit = 1 << i
            masks = [m | bit if y < x else m
                     for x, m, y in zip(range(self.size), masks, row)]
        return masks

    def element(self, x: int) -> GroupElement:
        return GroupElement(self.system, self.perms[x])

    def index_of(self, g: GroupElement) -> int:
        return self.index[g.perm]
