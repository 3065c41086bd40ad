"""Gradient-flow chamber walk and the length formulas along subspaces.

The squared displacement f(v) = |w(v) - v|^2 has gradient flow with closed
form C(v, t) = sum_theta exp(4t(1 - cos theta)) v_theta over the exact
eigencomponents of the start vector (EigenDecomposition.project; decay_rate
gives the rates).  Followed backwards in time the curve collapses onto the
direction of the minimal-angle component, crossing chamber walls with
never-increasing conjugate length; the walk ends in a chamber whose closure
contains a regular point of V_w.

The curve itself is transcendental, so wall selection is guided by floats
only, while every accepted step and the end condition are certified in
exact arithmetic: a step is kept only if the group-side length comparison
l(w_{A'}) <= l(w_A) holds, and the end test compares the exact signs of
the limit direction with the chamber's.  Only that direction x is paired
exactly; the guidance columns are the system's float pairing rows applied
to the floats of each component's coordinates
(CoxeterSystem.float_pairings).  The walk carries the chamber's root
signs across crossings, with the count of roots where they disagree with
the limit direction: crossing wall H_r flips the sign of r alone.  A root's
guidance value is a convex combination of the partial sums of its columns,
so the bisection probes read only the roots whose partial sums do not all
keep one sign clear of the tolerance (_live_roots).  The
eigen-angles themselves come from eigen_decomposition, whose float trace
DFT only orders the exact kernel solves and whose scan stops when the
dimensions sum to n.  When float bisection cannot isolate a single wall
the walk tries the flipped walls directly.  Where the guidance gives out,
an exact search over the crossings that do not raise the conjugate length
takes over, so a walk cannot get stuck.  The start
point is a construction with a proven bound, so walks are reproducible.

The length-formula operations verify their hypotheses exactly before
asserting the formulas; a hypothesis that cannot be verified raises
HypothesisFailed, a verified hypothesis with a failing conclusion raises
TheoremViolation (it would contradict a proved statement).
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .conjugacy import ReductionChain, parabolic_subsystem
from .coxeter import (Chamber, GroupElement, TwistedElement,
                      conjugate_by_chamber, coset_decompose,
                      normalizes_parabolic)
from .eigen import (EigenDecomposition, _chamber_cone, _combination,
                    closure_holds_regular_point, eigen_decomposition,
                    hyperplanes_containing, reduced_basis)
from .errors import HypothesisFailed, TheoremViolation
from .linalg import (Matrix, Vector, in_span, kernel_basis, rref, subspace_equal,
                     vec_is_zero, vec_sub)


def decay_rate(q: Fraction) -> float:
    """The flow's float decay rate 4(1 - cos(q pi)) at angle q."""
    return 4.0 * (1.0 - math.cos(float(q) * math.pi))


def derivative_test(w: TwistedElement, wall_root: int, h: Vector, v: Vector) -> int:
    """Exact sign of the directional derivative D_v f at a face point h.

    f(p) = |w(p) - p|^2, so D_v f(h) = 2 (w(h) - h, w(v) - v).  The caller
    supplies h on the wall and v perpendicular to it pointing out of the
    chamber; if crossing that wall raises the conjugate length by 2, the
    lemma says the returned sign is positive.
    """
    system = w.system
    if wall_root >= system.npos:
        wall_root -= system.npos
    if not system.pair_root(wall_root, h).is_zero():
        raise ValueError("h must lie on the wall")
    alpha = system.pos_roots[wall_root]
    stacked = rref([alpha, v])[0]
    if len(stacked) > 1:
        raise ValueError("v must be perpendicular to the wall")
    wh = w.apply(h)
    wv = w.apply(v)
    d = system.inner(vec_sub(wh, h), vec_sub(wv, v))
    return (d + d).sign()


# ---------------------------------------------------------------------------
# The descent walk.


@dataclass
class WalkStep:
    wall_root: int
    simple_index: int
    length_before: int
    length_after: int

    def digest(self) -> str:
        payload = f"{self.wall_root}|{self.simple_index}|{self.length_before}|{self.length_after}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class WalkResult:
    start_chamber: Chamber
    end_chamber: Chamber
    steps: list[WalkStep]
    regular_point: Vector
    end_element: TwistedElement

    @property
    def chain(self) -> ReductionChain:
        return ReductionChain([(s.simple_index, s.length_after - s.length_before)
                               for s in self.steps])

    def to_json(self) -> dict:
        return {
            "schema": "coxmin/walk-v1",
            "start_word": self.start_chamber.x.to_word(),
            "end_word": self.end_chamber.x.to_word(),
            "steps": [{"wall_root": s.wall_root,
                       "sign_digest": s.digest(),
                       "length_before": s.length_before,
                       "length_after": s.length_after} for s in self.steps],
            "end_length": self.end_element.length(),
        }


def descent_walk(w: TwistedElement, chamber: Chamber,
                 start_index: int = 0) -> WalkResult:
    """Walk from `chamber` to one whose closure holds a regular point of V_w.

    The float-guided flow walks first; where its guidance gives out, an
    exact search over the crossings that do not raise l(w_A) takes over.
    By the theorem neither can fail; an exhausted search is a
    TheoremViolation.
    """
    eig = eigen_decomposition(w, dft_check=False)
    w, chamber = eig.owner, chamber.over(eig.system)
    cols, x_dir, sgn_x = _start_point(eig, chamber, start_index)
    result = _walk_once(w, eig, chamber, cols, x_dir, sgn_x)
    return result if result is not None else _exact_walk(w, chamber, x_dir, sgn_x)


def _start_point(eig: EigenDecomposition, chamber: Chamber,
                 start_index: int) -> tuple[dict, Vector, list[int]]:
    """(cols, x, signs) of y(t) = chamber.interior_point(t) for the
    least t > start_index whose theta_0-component x is regular in V_w.

    cols[q][r] is the float of <alpha_r, component q of y> for each nonzero
    component, keyed in ascending q; signs[r] is the sign of <alpha_r, x>.
    Only x is paired exactly, for its signs and the regularity test; the
    columns are floats from the system's float pairing rows
    (CoxeterSystem.float_pairings), a guide only.
    If H_r misses V_w, <alpha_r, x(t)> is a nonzero polynomial in t of
    degree < n (the projection onto V_w is orthogonal and the x_A omega_j
    span V), so each such root rules out at most n - 1 values: t <=
    start_index + (n - 1) #avoid + 1, and running past that is a
    TheoremViolation.
    """
    system = eig.system
    sign_of = system.field.sign_of
    h_vwt = hyperplanes_containing(system, eig.v_wt)
    bound = (system.rank - 1) * (system.npos - len(h_vwt)) + 1

    for t in range(start_index + 1, start_index + bound + 1):
        comps = {q: c for q, c in eig.project(chamber.interior_point(t)).items()
                 if not vec_is_zero(c)}
        x_dir = comps.get(eig.theta0)
        if x_dir is None:
            continue
        sgn_x = []
        for r, (num, _) in enumerate(system.root_pairings(x_dir)):
            s = sign_of(num)
            if s == 0 and r not in h_vwt:
                break  # x(t) is not regular in V_w
            sgn_x.append(s)
        else:
            cols = {q: system.float_pairings(c) for q, c in sorted(comps.items())}
            return cols, x_dir, sgn_x
    raise TheoremViolation(f"no t in {start_index + 1}..{start_index + bound} "
                           "gives a start point regular in V_w")


def _holds_point(chamber: Chamber, sgn_x: list[int]) -> bool:
    """Whether the closure of `chamber` holds the point with root signs sgn_x."""
    return all(s == 0 or s == chamber.sign(r) for r, s in enumerate(sgn_x))


def _exact_walk(w: TwistedElement, start: Chamber, x_dir: Vector,
                sgn_x: list[int]) -> WalkResult:
    """The first chamber whose closure holds x, searched exhaustively over
    the crossings from `start` that do not raise l(w_A), in order of
    (l(w_A), discovery); an empty search is a TheoremViolation.
    """
    start_wt = conjugate_by_chamber(w, start)
    seen = {start.x.perm}
    heap = [(start_wt.length(), 0, start, start_wt, [])]
    while heap:
        length, _, ch, wt, steps = heapq.heappop(heap)
        if _holds_point(ch, sgn_x):
            return WalkResult(start_chamber=start, end_chamber=ch, steps=steps,
                              regular_point=x_dir, end_element=wt)
        for i, root in enumerate(ch.walls()):
            nxt_wt = wt.conjugate_by_simple(i)
            if nxt_wt.length() > length:
                continue
            nxt = ch.cross(i)
            if nxt.x.perm not in seen:
                seen.add(nxt.x.perm)
                step = WalkStep(root, i, length, nxt_wt.length())
                heapq.heappush(heap, (step.length_after, len(seen), nxt, nxt_wt,
                                      steps + [step]))
    raise TheoremViolation("no chamber reached by crossings that do not raise "
                           "l(w_A) holds the regular point")


def _walk_once(w: TwistedElement, eig: EigenDecomposition, start: Chamber,
               cols: dict, x_dir: Vector,
               sgn_x: list[int]) -> WalkResult | None:
    """The float-guided flow, or None where its guidance gives out."""
    system = eig.system
    npos = system.npos

    # Float guidance, decay rates shifted so the theta_0 term, the first
    # column, is constant: the sums start from that column itself.
    angles = sorted(cols)
    lam0 = decay_rate(eig.theta0)
    rates = [decay_rate(q) - lam0 for q in angles[1:]]
    x_col, rest = cols[angles[0]], [cols[q] for q in angles[1:]]
    scale_ref = max(max(abs(c) for c in cols[q]) for q in angles) or 1.0
    tol = 1e-11 * scale_ref
    # The probes read the live roots alone, by position: no other root is
    # ever flipped or tiny (_live_roots), so it is never crossed either.
    live = _live_roots(x_col, rest, tol)
    x_col = [x_col[r] for r in live]
    rest = [[col[r] for r in live] for col in rest]

    def float_vals(s: float) -> list[float]:
        # Column by column in angle order: each root's sum takes the same
        # float operations in the same order as a left-to-right sum.
        vals = x_col
        for rt, col in zip(rates, rest):
            d = math.exp(-rt * s)
            vals = [v + c * d for v, c in zip(vals, col)]
        return vals

    cur_ch = start
    cur_wt = conjugate_by_chamber(w, start)
    steps: list[WalkStep] = []
    visited = {cur_ch.x.perm}
    s_anchor = 0.0
    step_cap = 16 * npos + 64
    # The chamber's signs at the live roots, and the number of roots at
    # which its signs disagree with a nonzero sign of x; a crossing flips
    # one sign.
    start_signs = [start.sign(r) for r in range(npos)]
    off = sum(1 for s, c in zip(sgn_x, start_signs) if s and s != c)
    cur_signs = [start_signs[r] for r in live]

    def try_cross(p: int) -> bool:
        nonlocal cur_ch, cur_wt, off
        root = live[p]
        i = cur_ch.wall_simple_index(root)
        if i is None:
            return False
        nxt_wt = cur_wt.conjugate_by_simple(i)
        if nxt_wt.length() > cur_wt.length():
            return False
        nxt_ch = cur_ch.cross(i)
        if nxt_ch.x.perm in visited:
            return False
        steps.append(WalkStep(wall_root=root, simple_index=i,
                              length_before=cur_wt.length(),
                              length_after=nxt_wt.length()))
        visited.add(nxt_ch.x.perm)
        cur_ch, cur_wt = nxt_ch, nxt_wt
        cur_signs[p] = -cur_signs[p]
        if sgn_x[root]:
            off += 1 if sgn_x[root] != cur_signs[p] else -1
        return True

    while True:
        if not off:
            return WalkResult(start_chamber=start, end_chamber=cur_ch,
                              steps=steps, regular_point=x_dir,
                              end_element=cur_wt)
        if len(steps) > step_cap:
            return None

        h = 0.25
        s0 = s_anchor
        while h < 1e6:
            s1 = s0 + h
            flips, tiny = _walls_near(float_vals(s1), cur_signs, tol)
            if not flips and not tiny:
                s0 = s1
                h *= 2
                continue
            # Bisect down to a single wall flip.
            for _ in range(200):
                if len(flips) == 1 and not tiny:
                    break
                mid = (s0 + s1) / 2
                if mid in (s0, s1):
                    break
                flips_m, tiny_m = _walls_near(float_vals(mid), cur_signs, tol)
                if not flips_m and not tiny_m:
                    s0 = mid
                else:
                    s1, flips, tiny = mid, flips_m, tiny_m
            # The isolated wall, or else every flipped or near-zero wall in
            # turn, in root order (live ascends): the exact length
            # comparison certifies the crossing.
            if not any(try_cross(p) for p in sorted(flips + tiny)):
                return None
            s_anchor = s1
            break
        else:
            return None  # the guidance found no further crossing


def _live_roots(x_col: list[float], rest: list[list[float]],
                tol: float) -> list[int]:
    """The roots whose guidance value may be flipped or tiny at tolerance
    tol somewhere along the flow, ascending.

    The decay rates ascend from 0, so the column weights are
    1 = e_0 >= e_1(s) >= ... >= e_m(s) >= e_{m+1} = 0, and Abel summation
    gives y_r(s) = sum_k S_rk (e_k(s) - e_{k+1}(s)) with S_rk the sum of
    root r's first k + 1 columns: y_r(s) is a convex combination of the
    partial sums.  A root whose partial sums all exceed 2 tol, or all lie
    below -2 tol, keeps the sign of y_r(0) = S_rm, the chamber's, and stays
    farther than 2 tol from 0 up to a rounding error far below tol; so it
    is never flipped and never tiny.
    """
    margin = 2 * tol
    sums = lo = hi = x_col
    for col in rest:
        sums = [a + c for a, c in zip(sums, col)]
        lo = list(map(min, lo, sums))
        hi = list(map(max, hi, sums))
    return [r for r, (a, b) in enumerate(zip(lo, hi)) if a <= margin and b >= -margin]


def _walls_near(vals: list[float], signs: list[int],
                tol: float) -> tuple[list[int], list[int]]:
    """(flipped, tiny) walls in one pass over the guidance values.

    r is flipped when vals[r] lies beyond tol on the side opposite to its
    sign signs[r] = +-1, and tiny when |vals[r]| <= tol.
    """
    flips, tiny = [], []
    for r, (v, sg) in enumerate(zip(vals, signs)):
        if v > tol:
            if sg < 0:
                flips.append(r)
        elif v < -tol:
            if sg > 0:
                flips.append(r)
        elif abs(v) <= tol:
            tiny.append(r)
    return flips, tiny


# ---------------------------------------------------------------------------
# Length formulas.


def _angle_of_invariant_subspace(w: TwistedElement, eig: EigenDecomposition,
                                 basis: Matrix) -> Fraction:
    """The q with span(basis) inside V^{q pi}; checks w-stability.

    eig is w's decomposition.  Answers are memoized on eig.system per
    (w, basis); a failed check is not, and raises again.
    """
    system = eig.system
    vectors = tuple(basis)
    key = (w.twist.perm, w.k, w.body.perm, vectors)
    q = system._invariant_angles.get(key)
    if q is not None:
        return q
    # An eigenspace of w + w^-1 is w-stable, as w commutes with it: a basis
    # that is one of eig's own needs no check.
    for q, _, eigbasis in eig.entries:
        if vectors == tuple(eigbasis):
            system._invariant_angles[key] = q
            return q
    red, pivots = reduced_basis(system, basis)
    # w is invertible, so w(K) inside K already gives w(K) = K.
    if not all(in_span(red, pivots, w.apply(b)) for b in basis):
        raise HypothesisFailed("subspace is not w-stable")
    for q, _, eigbasis in eig.entries:
        eig_red, eig_pivots = reduced_basis(system, eigbasis)
        if all(in_span(eig_red, eig_pivots, b) for b in basis):
            system._invariant_angles[key] = q
            return q
    raise HypothesisFailed("subspace lies in no single eigenspace")


def special_length_formula(w: TwistedElement, basis: Matrix, chamber: Chamber) -> int:
    """l(w_A) = (theta/pi) #(H - H_K) for K inside V^theta meeting the chamber.

    Hypotheses verified exactly: A and w(A) in one H_K-component, and the
    closure of A contains a regular point of K
    (eigen.closure_holds_regular_point).  The basis is over
    eigen_decomposition(w).system.field.
    """
    eig = eigen_decomposition(w, dft_check=False)
    system, w = eig.system, eig.owner
    chamber = chamber.over(system)
    q = _angle_of_invariant_subspace(w, eig, basis)
    h_k = hyperplanes_containing(system, basis)
    image = chamber.image_under(w)
    if chamber.separating_set(image) & h_k:
        raise HypothesisFailed("A and w(A) lie in different H_K-components")
    if not closure_holds_regular_point(system, list(basis), chamber):
        raise HypothesisFailed("no regular point of K in the closed chamber")

    value = q * (system.npos - len(h_k))
    if value.denominator != 1:
        raise TheoremViolation(f"(theta/pi)#(H-H_K) = {value} is not an integer")
    direct = len(chamber.separating_set(image))
    if int(value) != direct:
        raise TheoremViolation(
            f"special length formula gives {value}, direct count {direct}")
    length = conjugate_by_chamber(w, chamber).length()
    if direct != length:
        raise TheoremViolation(
            f"#H(A, wA) = {direct} but l(w_A) = {length}")
    return int(value)


def decompose_at_regular(w: TwistedElement, chamber: Chamber, basis: Matrix
                         ) -> tuple[TwistedElement, GroupElement, tuple[int, ...]]:
    """w_A = w_{K,A} u with u in W_J, J = I(K, A), and additive lengths.

    Verified first: the closure of A holds a regular point of K.  It lies on
    exactly the hyperplanes of H_K, so J is the set of i with A.walls()[i]
    in H_K.  The basis of K is over eigen_decomposition(w).system.field.
    """
    eig = eigen_decomposition(w, dft_check=False)
    system, w = eig.system, eig.owner
    chamber = chamber.over(system)
    q = _angle_of_invariant_subspace(w, eig, basis)
    h_k = hyperplanes_containing(system, basis)
    if not closure_holds_regular_point(system, list(basis), chamber):
        raise HypothesisFailed("closure of A contains no regular point of K")

    J = tuple(i for i, r in enumerate(chamber.walls()) if r in h_k)
    w_a = conjugate_by_chamber(w, chamber)
    u_left, w_k, u_right = coset_decompose(w_a, J)
    if not normalizes_parabolic(w_k, J):
        raise HypothesisFailed("double coset representative does not normalize W_J")
    inner_u = (w_k.inverse() *
               TwistedElement(system, w.twist, 0, u_left) * w_k).body
    u = inner_u * u_right

    image = chamber.image_under(w)
    sep_k = chamber.separating_set(image) & h_k
    if u.length() != len(sep_k):
        raise TheoremViolation(
            f"l(u) = {u.length()} but #H(A, wA)_K = {len(sep_k)}")
    predicted = q * (system.npos - len(h_k))
    if predicted.denominator != 1 or w_k.length() != int(predicted):
        raise TheoremViolation(
            f"l(w_K,A) = {w_k.length()} but formula gives {predicted}")
    recomposed = w_k * TwistedElement(system, w.twist, 0, u)
    if recomposed != w_a:
        raise TheoremViolation("w_{K,A} u does not recompose to w_A")
    if w_a.length() != u.length() + w_k.length():
        raise TheoremViolation("length bookkeeping failed in the decomposition")
    return w_k, u, J


def component_length(w: TwistedElement, basis: Matrix, component: Chamber) -> int:
    """Hyperplanes of H_K separating a component U from w(U).

    The component is named by any chamber inside it; only the signs at the
    hyperplanes containing K matter, and those are constant on U.  The basis
    of K is over eigen_decomposition(w).system.field.
    """
    eig = eigen_decomposition(w, dft_check=False)
    system, w = eig.system, eig.owner
    component = component.over(system)
    _angle_of_invariant_subspace(w, eig, basis)  # checks stability
    h_k = hyperplanes_containing(system, basis)
    perm_inv = GroupElement(system, w.root_perm()).inv_perm
    count = 0
    for r in h_k:
        s = perm_inv[r]
        if s < system.npos:
            sign_w = component.sign(s)
        else:
            sign_w = -component.sign(s - system.npos)
        if sign_w != component.sign(r):
            count += 1
    return count


def geometric_min_length(w: TwistedElement, start_index: int = 0) -> int:
    """Minimal class length via the walk plus parabolic recursion.

    Walk to a chamber whose closure meets V_w, split w_A = w_{K,A} u at the
    regular point, and recurse on the strictly smaller twisted parabolic
    acting on W_J.  This is the geometric route to O_min; it is independent
    of the combinatorial arrow reduction and serves as its oracle twin.
    """
    eig = eigen_decomposition(w, dft_check=False)
    system, w = eig.system, eig.owner
    result = descent_walk(w, Chamber.fundamental(system), start_index=start_index)
    w_k, u, J = decompose_at_regular(w, result.end_chamber, eig.v_wt)
    if not J:
        return w_k.length()
    sub, sub_twist, to_sub = parabolic_subsystem(w_k, J)
    du = TwistedElement(sub, sub_twist, 1, to_sub(u))
    return w_k.length() + geometric_min_length(du, start_index)


def strongly_connected_step(w: TwistedElement, a: Chamber, a2: Chamber) -> int:
    """Verified equal lengths across a strongly connected pair of chambers.

    Hypotheses: common wall H_0; both chambers in one H_K-component for
    K = V_w; their shared closure meets K in a spanning subset of H_0 & K;
    and w moves H_0 & K.  Conclusion (asserted):
    l(w_A) = l(w_{A'}) = #H(A, wA)_K + (theta_0/pi) #(H - H_K).
    """
    eig = eigen_decomposition(w, dft_check=False)
    system, w = eig.system, eig.owner
    field = system.field
    a, a2 = a.over(system), a2.over(system)
    sep = a.separating_set(a2)
    if len(sep) != 1:
        raise HypothesisFailed("chambers do not share a common wall")
    h0 = next(iter(sep))
    k_basis = eig.v_wt
    h_k = hyperplanes_containing(system, k_basis)
    if h0 in h_k:
        raise HypothesisFailed("the common wall contains V_w")
    if a.separating_set(a.image_under(w)) & h_k:
        raise HypothesisFailed("A and w(A) lie in different H_K-components")
    if a2.separating_set(a2.image_under(w)) & h_k:
        raise HypothesisFailed("A' and w(A') lie in different H_K-components")

    # P = H_0 & K, its w-image must differ.
    prow = tuple(system.pair_root(h0, b) for b in k_basis)
    ker = kernel_basis([prow], len(k_basis), field)
    p_basis, p_pivots = rref([_combination(field, kv, k_basis) for kv in ker])
    if not p_basis:
        raise HypothesisFailed("H_0 meets V_w trivially")
    # w is invertible, so w(P) inside P already gives w(P) = P.
    if all(in_span(p_basis, p_pivots, w.apply(b)) for b in p_basis):
        raise HypothesisFailed("w fixes H_0 & V_w; the strong-connection "
                               "hypothesis fails")

    # The common face closure must meet K in a set spanning P: compare the
    # span of the cone K & closure(A) & closure(A') with P.
    cone = _chamber_cone(system, k_basis, [a, a2])
    span_vecs = [_combination(field, sc, k_basis) for sc in cone.span()]
    if not subspace_equal(span_vecs, p_basis):
        raise HypothesisFailed("closure intersection does not span H_0 & V_w")

    theta0 = eig.theta0
    predicted = theta0 * (system.npos - len(h_k))
    sep_k = len(a.separating_set(a.image_under(w)) & h_k)
    if predicted.denominator != 1:
        raise TheoremViolation("(theta/pi)#(H - H_K) is not an integer")
    expected = sep_k + int(predicted)
    la = conjugate_by_chamber(w, a).length()
    la2 = conjugate_by_chamber(w, a2).length()
    if not (la == la2 == expected):
        raise TheoremViolation(
            f"strong connection: lengths {la}, {la2}, formula {expected}")
    return expected
