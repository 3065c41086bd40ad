"""Garside normal forms and good-element certificates.

Positive braids are compared through their left-weighted normal forms, which
turns the power identities of good elements into decidable statements.  The
demo certifies goodness for every class of F4 and checks the Delta^2
divisibility of quasi-elliptic powers.
"""

from fractions import Fraction

from coxmin import (BraidContext, TwistedBraid, build_system, delta_squared,
                    divisible_by_delta_squared, enumerate_classes, lift,
                    good_min_element, named_matrix, untwisted,
                    verify_rotation_identity)

a2 = build_system(named_matrix("A2"))
ctx = BraidContext(a2)

# The braid relation collapses under the normal form.
lhs = TwistedBraid(ctx, 0, (0, 1, 0)).normal_form()
rhs = TwistedBraid(ctx, 0, (1, 0, 1)).normal_form()
print(f"sigma1 sigma2 sigma1 == sigma2 sigma1 sigma2: {lhs == rhs}")

# (sigma1 sigma2)^3 is the full twist Delta^2.
cube = TwistedBraid(ctx, 0, (0, 1)).power(3).normal_form()
print(f"(sigma1 sigma2)^3 = Delta^2: {cube == delta_squared(ctx)}; "
      f"infimum {cube.infimum()}")

# ---------------------------------------------------------------------------
# Rotation identities: one eigenplane drives the whole power.

b2 = build_system(named_matrix("B2"))
print("\nB2 Coxeter element, theta = pi/2, d = 4:",
      verify_rotation_identity(untwisted(b2.element_from_word([0, 1])),
                               Fraction(1, 2)))
g2 = build_system(named_matrix("G2"))
print("G2 Coxeter element, theta = pi/3, d = 6:",
      verify_rotation_identity(untwisted(g2.element_from_word([0, 1])),
                               Fraction(1, 3)))

# ---------------------------------------------------------------------------
# Good minimal-length elements for every class of F4.

f4 = build_system(named_matrix("F4"))
records = enumerate_classes(f4)
print(f"\nF4: certifying good elements in all {len(records)} classes")
print(f"{'id':>3} {'len':>4} {'d':>3} {'subsets':<26} {'exponents':<12} vg")
for rec in records:
    w_a, cert = good_min_element(rec)
    subs = " > ".join("{" + ",".join(str(i + 1) for i in s) + "}"
                      for s in cert.subsets) or "-"
    print(f"{rec.class_id:>3} {w_a.length():>4} {cert.d:>3} {subs:<26} "
          f"{str(list(cert.exponents)):<12} {cert.very_good}")

# ---------------------------------------------------------------------------
# Quasi-elliptic classes: w^d is left-divisible by Delta^2.

quasi = [rec for rec in records if rec.quasi_elliptic]
print(f"\n{len(quasi)} of {len(records)} F4 classes are quasi-elliptic")
rec = quasi[-1]
w_a, cert = good_min_element(rec)
ctx4 = BraidContext(w_a.system, w_a.twist)
power = lift(w_a, ctx4).power(cert.d)
print(f"class {rec.class_id}: (lift w)^{cert.d} has infimum {power.infimum()} "
      f"(Delta^2-divisible: {divisible_by_delta_squared(power)})")
