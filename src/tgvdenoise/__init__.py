"""Feature-preserving triangle-mesh denoising.

The package filters a mesh's face-normal field with a second-order
variational model (an auto-balancing combination of first- and second-order
jump penalties, solved by augmented-Lagrangian splitting), then moves the
vertices to match the filtered normals. It also ships the discrete jump
operators and semi-norms the model is built from, synthetic noise, and
evaluation metrics.

Typical use:

    from tgvdenoise import (build_connectivity, face_normals, filter_normals,
                            update_vertices)

    conn = build_connectivity(mesh)
    result = filter_normals(conn, face_normals(mesh))
    denoised = update_vertices(mesh, result.normals)
"""

from .fileio import load_mesh, save_mesh
from .mesh import MeshError, TriMesh, face_areas, face_barycenters, face_normals
from .metrics import (closest_point_distances, face_angle_errors,
                      feature_adjacent_faces, mean_angular_difference,
                      vertex_error, write_face_error_csv)
from .noise import NoiseSpec, add_gaussian_noise, mean_edge_length, vertex_normals
from .operators import (curve_jump, curve_jump_adjoint, edge_jump,
                        edge_jump_adjoint, ho_seminorm, inner_curves,
                        inner_edges, inner_faces, inner_lines, line_jump,
                        line_jump_adjoint, norm_curves, norm_edges, norm_lines,
                        tgv_energy, tv_seminorm)
from .reconstruct import projection_residual, update_vertices
from .solver import (FilterResult, SolverError, SolverParams, SolverState,
                     edge_weights, filter_normals, minimize_tgv, shrink)
from .synth import (make_cube, make_icosphere, make_plane, make_tetrahedron,
                    make_two_triangle_square)
from .topology import (Connectivity, CurveSet, EdgeTopology, LineSet,
                       build_connectivity, build_edge_topology)

__version__ = "0.1.0"
