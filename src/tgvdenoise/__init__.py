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

The names below are the pipeline, the operators and semi-norms the demos
use, and the types those return or raise; everything else is imported from
its module.
"""

from .fileio import load_mesh, save_mesh, save_table
from .mesh import MeshError, TriMesh, face_normals
from .metrics import (face_angle_errors, feature_adjacent_faces,
                      mean_angular_difference, vertex_error)
from .noise import NoiseSpec, add_gaussian_noise
from .operators import (curve_jump, edge_jump, edge_jump_adjoint, ho_seminorm,
                        inner_edges, inner_faces, line_jump, tgv_energy,
                        tv_seminorm)
from .reconstruct import update_vertices
from .solver import (DIAGNOSTIC_COLUMNS, FilterResult, SolverError, SolverParams,
                     filter_normals, minimize_tgv)
from .synth import make_cube, make_icosphere, make_tetrahedron
from .topology import Connectivity, build_connectivity

__version__ = "0.1.0"
