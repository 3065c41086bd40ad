"""Output checks that do not copy the program's own output.

Every check either compares with a published value (class counts, degrees
of the basic invariants) or tests a property the method must have (lengths
change by 0 or -2 along a walk, a good element's exponents are even, ...).
A failed check raises `CheckFailed`; the benchmark counts the operation
that raised it as failed.
"""

from __future__ import annotations

import math
from collections import Counter


class CheckFailed(Exception):
    """A program output that contradicts a published value or a theorem."""


def ensure(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# Degrees of the basic invariants (Humphreys, Reflection Groups and Coxeter
# Groups, table 3.1); |W| is their product.
DEGREES = {
    "A3": (2, 3, 4),
    "A4": (2, 3, 4, 5),
    "B3": (2, 4, 6),
    "H3": (2, 6, 10),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
    "I2(5)": (2, 5),
    "I2(8)": (2, 8),
    "H4": (2, 12, 20, 30),
    "E6": (2, 5, 6, 8, 9, 12),
}

# Number of conjugacy classes of W (Geck-Pfeiffer, Characters of Finite
# Coxeter Groups and Iwahori-Hecke Algebras, appendix B).
CLASS_COUNTS = {
    "A3": 5, "A4": 7, "B3": 10, "H3": 10, "F4": 25, "G2": 6,
    "I2(5)": 4, "I2(8)": 7, "H4": 34, "E6": 25,
}

# Types whose non-trivial diagram automorphism is conjugation by -w0: the
# coset W.delta is then W.w0 up to the central sign, and x -> x.w0 carries
# classes to twisted classes of the same size.
MINUS_W0_TWISTED = ("A3", "A4", "I2(5)", "E6")

# Twisted classes of the Ree coset 2F4 (Geck-Kim-Pfeiffer, J. Algebra 2000).
TWISTED_F4_CLASSES = 11


def dihedral_order(name: str) -> int | None:
    """m for I2(m) (G2 is I2(6)); None for the other types."""
    if name == "G2":
        return 6
    if name.startswith("I2(") and name.endswith(")"):
        return int(name[3:-1])
    return None


def group_order(name: str) -> int:
    return math.prod(DEGREES[name])


def check_class_table(name: str, tables: dict) -> None:
    """Class counts and sizes of every twist of one type.

    `tables` maps a twist permutation to the list of class sizes of that
    twisted coset; the identity permutation must be present.
    """
    rank = len(DEGREES[name])
    identity = tuple(range(rank))
    untwisted = tables[identity]
    ensure(len(untwisted) == CLASS_COUNTS[name],
           f"{name}: {len(untwisted)} classes, published {CLASS_COUNTS[name]}")
    for perm, sizes in tables.items():
        ensure(sum(sizes) == group_order(name),
               f"{name} twist {perm}: class sizes sum to {sum(sizes)}, "
               f"|W| = {group_order(name)}")
        if perm == identity:
            continue
        m = dihedral_order(name)
        if name in MINUS_W0_TWISTED:
            ensure(Counter(sizes) == Counter(untwisted),
                   f"{name} twist {perm}: class sizes differ from the untwisted ones")
        elif m is not None and m % 2 == 0:
            ensure(len(sizes) == m // 2 + 1,
                   f"{name} twist {perm}: {len(sizes)} classes, expected {m // 2 + 1}")
        elif name == "F4":
            ensure(len(sizes) == TWISTED_F4_CLASSES,
                   f"2F4: {len(sizes)} classes, published {TWISTED_F4_CLASSES}")
        else:
            raise CheckFailed(f"{name} twist {perm}: no published class count")


def inversion_count(perm, npos: int) -> int:
    """Length as the number of positive roots sent to negative roots."""
    return sum(1 for r in range(npos) if perm[r] >= npos)


def check_record(rec) -> None:
    """Class minimum and O_min recomputed from the root permutations."""
    table = rec.coset.table
    npos = rec.coset.system.npos
    ensure(rec.size > 0, f"class {rec.class_id} is empty")
    lengths = {x: inversion_count(table.perms[x], npos) for x in rec.elements}
    low = min(lengths.values())
    ensure(rec.min_length == low,
           f"class {rec.class_id}: min length {rec.min_length}, recomputed {low}")
    ensure(rec.o_min == sorted(x for x, n in lengths.items() if n == low),
           f"class {rec.class_id}: O_min differs from the minimal-length elements")


def check_partition(rec, blocks, what: str) -> None:
    """A partition of O_min into exactly one block."""
    ensure(len(blocks) == 1, f"class {rec.class_id}: {len(blocks)} {what} blocks")
    ensure(sorted(blocks[0]) == rec.o_min,
           f"class {rec.class_id}: the {what} block is not O_min")


def check_good(rec, w_a, cert) -> None:
    """A good element of minimal length in the class, with a sound certificate."""
    ensure(w_a.twist == rec.coset.twist and w_a.k == rec.coset.k,
           f"class {rec.class_id}: good element in another coset")
    npos = w_a.system.npos
    ensure(inversion_count(w_a.body.perm, npos) == rec.min_length,
           f"class {rec.class_id}: good element is not of minimal length")
    index = rec.coset.table.index.get(w_a.body.perm)
    ensure(index is not None and index in set(rec.elements),
           f"class {rec.class_id}: good element lies outside the class")
    ensure(all(e > 0 and e % 2 == 0 for e in cert.exponents),
           f"class {rec.class_id}: exponents {cert.exponents} are not even positive")
    ensure(len(cert.subsets) == len(cert.exponents),
           f"class {rec.class_id}: subsets and exponents differ in number")
    for big, small in zip(cert.subsets, cert.subsets[1:]):
        ensure(set(small) < set(big),
               f"class {rec.class_id}: subsets {big} > {small} are not strictly nested")


def check_walk(w, chamber, result, v_basis) -> None:
    """Certified steps, a replayable chain and a regular end point.

    `w` and `chamber` are the walk's inputs; `v_basis` is a basis of V_w in
    the system the walk returned its point in.
    """
    system = result.end_chamber.system
    cur = w.conjugate_by(chamber.x)
    for step in result.steps:
        delta = step.length_after - step.length_before
        ensure(delta in (0, -2), f"walk step changes the length by {delta}")
        ensure(cur.length() == step.length_before,
               "walk step starts from another length than the chain reached")
        cur = cur.conjugate_by_simple(step.simple_index)
        ensure(cur.length() == step.length_after,
               "replayed walk step ends at another length")
    ensure(cur.body.perm == result.end_element.body.perm,
           "replaying the walk chain does not give the end element")
    point, end = result.regular_point, result.end_chamber
    for r in range(system.npos):
        value = system.pair_root(r, point)
        if value.is_zero():
            ensure(all(system.pair_root(r, b).is_zero() for b in v_basis),
                   f"walk end point lies on hyperplane {r}, which misses V_w")
        else:
            ensure(value.sign() == end.sign(r),
                   f"walk end point is outside the closed end chamber at root {r}")


def check_special_length(w, value: int) -> None:
    """At the fundamental chamber the special formula gives l(w) itself."""
    ensure(value == w.length(),
           f"special length formula gives {value}, l(w) = {w.length()}")


def check_decomposition(w_a, w_k, u, J) -> None:
    """w_A = w_{K,A} u with u in W_J and additive lengths."""
    ensure(set(u.to_word()) <= set(J), f"u is not in the parabolic W_{J}")
    ensure(w_a.length() == w_k.length() + u.length(),
           "lengths are not additive in the decomposition at a regular point")
    recomposed = w_k.body * u
    ensure(recomposed.perm == w_a.body.perm,
           "w_{K,A} u does not recompose to w_A")
