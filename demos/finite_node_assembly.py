"""From local double-point data to the global shadow and its skeleton.

Three nodes over one bulk label, one of them split; the assembled shadow
is the corrected finite-node extension with the per-node class vector,
the gluing quadruple satisfies vu = N with N^2 = 0, and the star-shaped
skeleton is exported as deterministic DOT text.

Run:  python demos/finite_node_assembly.py
"""

from zzl import (
    GluingBlock,
    NodeDatum,
    QMatrix,
    assemble,
    assemble_gluing,
    make_extension,
    serialize_matrix,
    skeleton_of,
    std_ic,
    std_skyscraper,
    to_dot,
    verify_gluing,
    verify_shadow_compat,
)

print("Local data: three nodes, classes (1, 0, 1).")
bulk = std_ic("C_bulk", 1, 1)
sky = std_skyscraper(1)
nodes = [
    NodeDatum("p1", make_extension(bulk, sky, 1)),
    NodeDatum("p2", make_extension(bulk, sky, 0)),
    NodeDatum("p3", make_extension(bulk, sky, 1)),
]
datum = assemble("C_bulk", nodes)
shadow = datum.shadow
print(f"  shadow class vector: {tuple(str(c) for c in shadow.class_vector)}")
print(f"  shadow total dims (e-, A, B, e0): {shadow.total.dims()}")

print("\nShadow compatibility report:")
report = verify_shadow_compat(datum)
for check in report.checks:
    mark = "ok" if check.passed else "FAIL"
    print(f"  [{mark}] {check.name}")
print(f"  status: {report.status}")

print("\nGluing quadruple with one rank-one block per node:")
local = GluingBlock(QMatrix.from_rows([[1, 0]]), QMatrix.from_columns([[0, 1]]))
g = assemble_gluing(
    {"p1": local, "p2": local, "p3": local},
    6,
    [("p1", (0, 2)), ("p2", (2, 4)), ("p3", (4, 6))],
)
print(f"  N = v*u = {serialize_matrix(g.n)}")
print(f"  N^2 = 0: {(g.n * g.n).is_zero()}")
gluing_report = verify_gluing(g)
print(f"  verification: {gluing_report.status}")
for notice in gluing_report.notices:
    print(f"  notice: {notice}")

print("\nCombinatorial skeleton (star centered at the bulk):")
print(to_dot(skeleton_of(datum)))
