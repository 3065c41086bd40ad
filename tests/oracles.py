"""Brute-force oracles that only the tests use.

Each one recomputes, from root permutations or by exhaustive search, what
the package computes over its tables; the tests compare the two.
"""

import itertools

from coxmin.coxeter import compose, invert_perm


def reference_table(system):
    """The group table built by a BFS keyed on full root permutations.

    Returns (perms, index, right, left, length): indices in breadth-first
    order by right multiplication, left multiplication looked up by
    permutation.
    """
    n = system.rank
    gens = system.reflections
    ident = system._identity_perm
    perms = [ident]
    index = {ident: 0}
    length = [0]
    right = [[0] for _ in range(n)]
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(n):
                py = compose(perms[x], gens[i])
                y = index.get(py)
                if y is None:
                    y = len(perms)
                    perms.append(py)
                    index[py] = y
                    length.append(length[x] + 1)
                    for tbl in right:
                        tbl.append(-1)
                    nxt.append(y)
                right[i][x] = y
        frontier = nxt
    left = [[index[compose(gens[i], p)] for p in perms] for i in range(n)]
    return perms, index, right, left, length


def descent_stripping_certificate(w, class_bodies, table) -> bool:
    """The parabolic criterion by stripping left descents inside each J.

    x lies in W_J iff removing left descents in J reaches the identity; the
    class must miss every maximal proper d-stable W_J.
    """
    n = w.system.rank
    stable = [frozenset(J) for size in range(n)
              for J in itertools.combinations(range(n), size)
              if all(w.twist.perm[j] in J for j in J)]
    maximal = [J for J in stable if not any(J < K for K in stable)]
    for x in class_bodies:
        for J in maximal:
            y = x
            while True:
                msk = table.ldesc[y]
                i = next((i for i in J if msk >> i & 1), None)
                if i is None:
                    break
                y = table.left[i][y]
            if y == 0:
                return False
    return True


def twist_body(coset, perm):
    """Permutation of d^-k g d^k."""
    return coset.system.twist_conj(perm, coset.twist, -coset.k)


def conjugate_by_index(coset, x: int, g: int) -> int:
    """Body index of (g^-1) (d^k x) g for an arbitrary g."""
    t = coset.table
    pg = t.perms[g]
    twisted_inv = twist_body(coset, invert_perm(pg))
    return t.index[compose(twisted_inv, compose(t.perms[x], pg))]


def conj(coset, x: int, i: int) -> int:
    """Body index of s_i (d^k x) s_i."""
    rrow, lrow = coset.steps[i]
    return lrow[rrow[x]]


def brute_strong_targets(coset, x: int):
    """Bodies elementarily strongly conjugate to d^k x, by a scan of all W.

    The oracle of conjugacy.elementary_strong_targets: each target once, in
    the order of the conjugators g that witness it.
    """
    t = coset.table
    length = t.length
    lw = length[x]
    targets = set()
    px = t.perms[x]
    for g in range(t.size):
        pg = t.perms[g]
        gb = twist_body(coset, pg)
        left_len = length[t.index[compose(gb, px)]]
        right_len = length[t.index[compose(px, invert_perm(pg))]]
        if left_len == length[g] + lw or right_len == length[g] + lw:
            # y = g (d^k x) g^-1, body d^{-k}(g) x g^-1.
            y = t.index[compose(gb, compose(px, invert_perm(pg)))]
            if length[y] == lw and y not in targets:
                targets.add(y)
                yield y
