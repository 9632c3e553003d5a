"""Synthetic Gaussian noise for benchmarking, scaled by mean edge length.

The random stream is a seeded PCG64 generator, so outputs are reproducible
bit for bit across platforms for a fixed seed.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .mesh import _face_cross
from .topology import EdgeTopology

__all__ = ["NoiseSpec", "add_gaussian_noise", "mean_edge_length", "vertex_normals"]

MODES = ("iid-coordinate", "vertex-normal")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level as a multiple of mean edge length, direction mode, and a
    seed that is a non-negative integer (numpy's pass)."""

    level: float
    mode: str = "iid-coordinate"
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.level < np.inf:
            raise ValueError("noise level must be non-negative and finite")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def mean_edge_length(mesh) -> float:
    """Mean length of the unique (undirected) edges."""
    return float(EdgeTopology(mesh).edge_len.mean())


def vertex_normals(mesh) -> np.ndarray:
    """Area-weighted vertex normals (unit length; zero where degenerate)."""
    cross = _face_cross(mesh)
    # every face's corner 0, then its corner 1, then its corner 2
    corners = mesh.faces.T.ravel()
    acc = np.stack([np.bincount(corners, weights=np.tile(cross[:, d], 3),
                                minlength=mesh.num_vertices) for d in range(3)], axis=1)
    norms = np.linalg.norm(acc, axis=1)
    return np.divide(acc, norms[:, None], out=np.zeros_like(acc),
                     where=norms[:, None] > 0)


def add_gaussian_noise(mesh, spec: NoiseSpec):
    """Displace vertices with zero-mean Gaussian noise of standard deviation
    ``spec.level * mean_edge_length(mesh)``.

    Mode "iid-coordinate" draws an independent sample per coordinate; mode
    "vertex-normal" draws one amplitude per vertex and displaces along its
    area-weighted normal. The result is a new mesh from
    ``mesh.with_vertices``, or ``mesh`` itself at level 0.
    """
    if spec.level == 0:
        return mesh
    sigma = spec.level * mean_edge_length(mesh)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.mode == "iid-coordinate":
        disp = rng.normal(0.0, sigma, size=mesh.vertices.shape)
    else:
        amp = rng.normal(0.0, sigma, size=mesh.num_vertices)
        disp = amp[:, None] * vertex_normals(mesh)
    return mesh.with_vertices(mesh.vertices + disp)
