"""Random valid points of a model space, for the geometry and coupling tests."""

import numpy as np

from detcouple.model_space import SpaceKind, SpaceSpec


def random_points(spec: SpaceSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``size`` valid points, coordinate scale O(1)."""
    N = spec.ambient_dim
    if spec.kind is SpaceKind.SPHERE:
        g = rng.standard_normal((size, N))
        return spec.r * g / np.linalg.norm(g, axis=-1, keepdims=True)
    if spec.kind is SpaceKind.HYPERBOLIC:
        pts = 0.8 * rng.standard_normal((size, N))
        pts[:, 0] = np.exp(0.4 * rng.standard_normal(size))
        return pts
    return rng.standard_normal((size, N))
