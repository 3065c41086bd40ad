"""Exact root systems, lengths, and the chamber geometry.

Every number below is an element of Q(2cos(pi/L)): no floats are involved in
any geometric decision, so sign tests and separating-set counts are exact.
"""

from coxmin import (Chamber, build_system, conjugate_by_chamber,
                    coset_decompose, named_matrix, parabolic_max, untwisted)

# ---------------------------------------------------------------------------
# Build a few systems.  The field level L is the lcm of the bond labels
# m >= 4: A2 lives over Q, since 2cos(pi/3) = 1.

for name in ("A2", "B2", "H3", "F4"):
    system = build_system(named_matrix(name))
    print(f"{name}: {system.npos} positive roots over Q(2cos(pi/{system.field.L})), "
          f"|W| = {system.matrix.group_order()}")

# H3 lives over the golden-ratio field: the highest root has irrational
# coordinates, stored as polynomials in c = 2cos(pi/5).
h3 = build_system(named_matrix("H3"))
print("\nH3 last positive root (coordinates in the simple basis):")
print("  ", [str(c) for c in h3.pos_roots[-1]])

# ---------------------------------------------------------------------------
# Lengths are inversion counts of the root permutation; reduced words are
# derived on demand by descent walking.

a2 = build_system(named_matrix("A2"))
w0 = parabolic_max(a2, [0, 1])
print(f"\nA2 longest element: word {w0.to_word()}, length {w0.length()}")

f4 = build_system(named_matrix("F4"))
print(f"F4 longest element length: {parabolic_max(f4, range(4)).length()}")

# ---------------------------------------------------------------------------
# Chambers correspond to group elements; the separating set of two chambers
# counts the hyperplanes between them, which is a length.

C = Chamber.fundamental(a2)
for word in ([], [0], [0, 1], [0, 1, 0]):
    A = Chamber(a2, a2.element_from_word(word))
    sep = C.separating_set(A)
    print(f"chamber {word or 'C'}: separated from C by {sorted(sep)}")

# Conjugating by the chamber element realizes every class member
# geometrically: l(w_A) = #H(A, w(A)).
w = untwisted(a2.element_from_word([0, 1, 0]))
for word in ([], [1], [1, 0]):
    A = Chamber(a2, a2.element_from_word(word))
    wa = conjugate_by_chamber(w, A)
    assert wa.length() == len(A.separating_set(A.image_under(w)))
    print(f"w_A for A = {word or 'C'}: {wa.body.to_word()} (length {wa.length()})")

# ---------------------------------------------------------------------------
# Coset decompositions are exact and length-additive.

a3 = build_system(named_matrix("A3"))
w0 = parabolic_max(a3, [0, 1, 2])
u1, wp, u2 = coset_decompose(untwisted(w0), [0, 1])
print(f"\nA3: w0 = {u1.to_word()} * {wp.body.to_word()} * {u2.to_word()} "
      f"with lengths {u1.length()} + {wp.length()} + {u2.length()} = {w0.length()}")
