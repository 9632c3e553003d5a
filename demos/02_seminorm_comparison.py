"""How the three variational smoothness measures see a cube: total
variation loves sharp creases but also counts noise; the high-order measure
forgives smooth ramps; the generalized one auto-balances via its auxiliary
minimization.

Run:  python3 demos/02_seminorm_comparison.py
"""

import numpy as np

from tgvdenoise import (NoiseSpec, add_gaussian_noise, build_connectivity,
                        edge_jump, face_normals, ho_seminorm, make_cube,
                        minimize_tgv, tgv_energy, tv_seminorm)

alpha1 = 1.0
clean = make_cube(6, size=0.05)
noisy = add_gaussian_noise(clean, NoiseSpec(0.25, mode="vertex-normal", seed=1))

for mesh, label in [(clean, "clean cube"), (noisy, "noisy cube")]:
    conn = build_connectivity(mesh)
    u = face_normals(mesh)
    jump = edge_jump(conn.topo, u)
    support = int((np.linalg.norm(jump, axis=1) > 1e-7).sum())
    print(f"{label} ({mesh.num_faces} faces):")
    print(f"  tv = {tv_seminorm(conn.topo, u):.4f} supported on {support} of "
          f"{conn.topo.num_edges} edges")
    print(f"  ho = {ho_seminorm(conn.lines, u):.4f}")
    for alpha0 in (0.1, 0.2):
        at_zero = tgv_energy(conn, u, np.zeros_like(jump), alpha1, alpha0)
        at_jump = tgv_energy(conn, u, jump, alpha1, alpha0)
        best, _ = minimize_tgv(conn, u, alpha1, alpha0, iters=120)
        seed = min(at_zero, at_jump)
        found = ("the better seed" if best == seed
                 else f"{100 * (1 - best / seed):.1f}% below both seeds")
        print(f"  alpha0 = {alpha0}: tgv energy {at_zero:.4f} at v=0, {at_jump:.4f} "
              f"at v=jump, {best:.4f} minimized ({found})")
    print()

print("At alpha0 = 0.1 the second-order term is cheap: on both cubes v = jump,")
print("which moves every jump into it, costs less than v = 0, and the search")
print("finds nothing below that seed. At alpha0 = 0.2 it costs more than v = 0")
print("on the clean cube, so the crease jumps stay first-order (tgv = tv). On")
print("the noisy cube neither seed is the minimum there: the search splits the")
print("jumps between the two terms and ends below both.")
