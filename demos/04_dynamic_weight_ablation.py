"""Why the per-edge weights matter: with them, crease edges are penalized
less and survive the filtering; without them (sigma_e = inf, where every
weight is exactly 1) the model treats creases like noise and rounds them off.

Run:  python3 demos/04_dynamic_weight_ablation.py
"""

import numpy as np

from tgvdenoise import (NoiseSpec, SolverParams, add_gaussian_noise,
                        build_connectivity, face_angle_errors, face_normals,
                        feature_adjacent_faces, filter_normals, make_cube,
                        update_vertices)
from tgvdenoise.topology import EdgeTopology

clean = make_cube(10, size=0.05)
noisy = add_gaussian_noise(clean, NoiseSpec(level=0.3, mode="vertex-normal", seed=7))
conn = build_connectivity(noisy)
n_clean = face_normals(clean)
n_noisy = face_normals(noisy)

feature = feature_adjacent_faces(EdgeTopology(clean), n_clean)
print(f"{len(feature)} of {clean.num_faces} faces touch one of the cube's 12 creases")
print()

for sigma_e in (0.5, np.inf):
    params = SolverParams(alpha1=1.0, alpha0=0.1, beta=100.0, sigma_e=sigma_e)
    result = filter_normals(conn, n_noisy, params)
    out = update_vertices(noisy, result.normals, iters=30)
    errors = face_angle_errors(face_normals(out), n_clean)
    label = "with dynamic weights " if sigma_e < np.inf else "weights frozen at 1  "
    print(f"{label}: mean error {errors.mean():5.2f} deg, "
          f"feature faces {errors[feature].mean():5.2f} deg")

print()
print("The weighted run keeps the creases sharp; the unweighted one smears")
print("exactly the faces next to them.")
