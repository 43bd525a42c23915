"""The rank-n ring R_f attached to a binary form: structure constants,
the discriminant identity Disc(R_f) = Disc(f), and the based ideals I_f(k)."""

from fractions import Fraction

from pencilorbits import BinaryForm, discriminant, ideal_norm, ideal_power_basis, ring_discriminant, ring_from_form
from pencilorbits.rings import algebra_mul, ideal_inverse_power, spans_equal, to_zeta_coords

f = BinaryForm((3, 1, -4, 2, 5))
print("f =", f, " Disc =", discriminant(f))

R = ring_from_form(f)
n = f.degree
print("\nzeta_i * zeta_j expansions on (1, zeta_1, ..., zeta_%d):" % (n - 1))
for i in range(1, n):
    for j in range(i, n):
        print(f"  zeta_{i} zeta_{j} ->", R.product(i, j))

print("\nDisc(R_f) =", ring_discriminant(R), " (equals Disc(f):", ring_discriminant(R) == discriminant(f), ")")

# the ideals I_f(k) and their norms 1/f0^k
for k in range(n):
    I = ideal_power_basis(f, k)
    print(f"N(I_f({k})) =", ideal_norm(I), "  expected", Fraction(1, f.coeffs[0] ** k))

# I_f(1) * I_f(2) spans I_f(3)
a = ideal_power_basis(f, 1)
b = ideal_power_basis(f, 2)
products = [algebra_mul(x, y) for x in a.basis for y in b.basis]
print("\nI_f(1) * I_f(2) == I_f(3):", spans_equal(products, ideal_power_basis(f, 3).basis))

# the fractional inverse I_f^(-1) used by the n = 2 construction
inv = ideal_inverse_power(f)
print("N(I_f^(-1)) =", ideal_norm(inv), " (equals f0)")
products = [algebra_mul(x, y) for x in ideal_power_basis(f, 1).basis for y in inv.basis]
print("I_f(1) * I_f^(-1) inside R_f:",
      all(c.denominator == 1 for x in products for c in to_zeta_coords(x)))
