"""Tour of the discrete structures: edges, lines, curves, and the jump
operators defined over them.

Run:  python3 demos/01_connectivity_and_operators.py
"""

import numpy as np

from tgvdenoise import (build_connectivity, curve_jump, edge_jump,
                        edge_jump_adjoint, inner_edges, inner_faces, line_jump,
                        make_cube, make_tetrahedron)

print("A mesh gets three layers of connectivity on top of its faces:")
for mesh, label in [(make_tetrahedron(), "tetrahedron"), (make_cube(4), "4x4 cube")]:
    conn = build_connectivity(mesh)
    print(f"  {label:12s}: {conn.topo.num_edges} edges, "
          f"{conn.lines.num_lines} barycenter-to-vertex lines, "
          f"{conn.curves.num_curves} four-edge curves "
          f"({int(conn.curves.valid.sum())} valid)")

print()
print("edge_jump takes a per-face field to signed differences across edges;")
print("a constant field has no jumps at all:")
conn = build_connectivity(make_cube(3))
const = np.full(conn.topo.num_faces, 2.5)
print("  max |edge_jump(const)| =", np.abs(edge_jump(conn.topo, const)).max())

print()
print("The adjoint pairs satisfy <jump(u), v> = -<u, adjoint(v)> in the")
print("measure-weighted inner products. With random fields:")
rng = np.random.default_rng(0)
u = rng.normal(size=(conn.topo.num_faces, 3))
v = rng.normal(size=(conn.topo.num_edges, 3))
lhs = inner_edges(conn.topo, edge_jump(conn.topo, u), v)
rhs = inner_faces(conn.topo, u, edge_jump_adjoint(conn.topo, v))
print(f"  <Du, v> = {lhs:+.6f}   -<u, D*v> = {-rhs:+.6f}   defect = {abs(lhs + rhs):.2e}")

print()
print("Applied to the jump of a face field, the line jump reproduces the")
print("same-direction second difference 2*u - u(across) - u(across):")
u1 = rng.normal(size=conn.topo.num_faces)
lj = line_jump(conn.lines, edge_jump(conn.topo, u1))
# the reference read off the faces: line 3t + j sits at face t's corner j,
# between the edge entering it and the edge leaving it; the face across a
# directed edge (a, b) is the one that runs (b, a)
faces = conn.mesh.faces.tolist()
owner = {(f[k], f[(k + 1) % 3]): t for t, f in enumerate(faces) for k in range(3)}
ref = np.array([2 * u1[t] - u1[owner[f[j], f[j - 1]]] - u1[owner[f[(j + 1) % 3], f[j]]]
                for t, f in enumerate(faces) for j in range(3)])
print("  max deviation:", np.abs(lj - ref).max())

print()
print("The curve jump is the cross-direction analogue; on a curve whose four")
print("edges wrap a vertex it couples the four surrounding triangles:")
cj = curve_jump(conn.curves, edge_jump(conn.topo, u1))
print("  curve jump range: [%.3f, %.3f]" % (cj.min(), cj.max()))
