"""Tour of the standard zig-zags at one ordinary double point.

Builds the minimal extension, the rank-one point object, and the
corrected object; shows that the compressed zig-zag is blind to the
extension class and that the class bookkeeping is what separates the
split object from the corrected one.

Run:  python demos/standard_objects.py
"""

from fractions import Fraction

from zzl import (
    classify_selfdual_rank_one,
    compressed_shape,
    direct_sum,
    dualize,
    ext_isomorphic,
    extension_class,
    is_isomorphic,
    is_self_dual,
    make_extension,
    std_corrected,
    std_ic,
    std_skyscraper,
    validate,
)


def show(title, z):
    status = "valid" if not validate(z) else "INVALID"
    print(f"  {title:<24} dims (e-, A, B, e0) = {z.dims()!r:<16} {status}")


print("Standard objects over the open label Q_U[3]:")
ic = std_ic("Q_U[3]", 1, 1)
sky = std_skyscraper(1)
corrected = std_corrected("Q_U[3]", 1, 1)
show("minimal extension", ic)
show("rank-one point object", sky)
show("corrected object", corrected)

print("\nDuality fixes all three (transpose-and-swap):")
for name, z in (("IC", ic), ("skyscraper", sky), ("corrected", corrected)):
    print(f"  dual {name:<12} isomorphic to itself: {is_isomorphic(dualize(z), z)}")

print("\nThe compressed zig-zag cannot see the class:")
split_pres = make_extension(ic, sky, 0)
corrected_pres = make_extension(ic, sky, 1)
print(f"  total of class-0 presentation == total of class-1: "
      f"{split_pres.total == corrected_pres.total}")
print(f"  equal compressed shapes: "
      f"{compressed_shape(split_pres.total) == compressed_shape(corrected_pres.total)}")
print(f"  corrected total == IC (+) skyscraper as bare zig-zags: "
      f"{corrected_pres.total == direct_sum(ic, sky)}")
print(f"  presentations isomorphic as extensions: "
      f"{ext_isomorphic(split_pres, corrected_pres)}  (class 0 vs class 1)")

print("\nClass normalization: any nonzero scalar is the same class.")
for c in (5, Fraction(-1, 3), Fraction(1, 2)):
    e = make_extension(ic, sky, c)
    cls = extension_class(e)
    print(f"  class {str(c):>5} -> normalized {cls.normalized}, "
          f"isomorphic to class 1: {ext_isomorphic(e, corrected_pres)}")

print("\nClassification over the grid {0, +-1, +-2, 1/2, -1/3}:")
for rep in classify_selfdual_rank_one((1, 1)):
    kind = "split" if rep.is_split else "corrected (unique non-split)"
    print(f"  {kind:<28} self-dual: {rep.is_self_dual}  "
          f"grid members: {[str(c) for c in rep.grid_members]}")

print("\nBoth distinguished presentations are self-dual:")
print(f"  split:     {is_self_dual(split_pres)}")
print(f"  corrected: {is_self_dual(corrected_pres)}")
