"""Product domains and the discretized family of adjustment balls.

The domain M is an ordered product of component grids: a triangulated mesh,
an equally spaced circular grid, or an interval grid. The adjustment family
consists of Cartesian products of per-component metric balls whose radii stay
below the per-component caps. Balls are discretized to their vertex supports:
two balls with the same support are interchangeable for inference, so the
family stores one ball per distinct support.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, kron

from .mesh import TriangulatedManifold

__all__ = [
    "ComponentGrid",
    "ComponentBall",
    "ProductDomain",
    "AdjustmentFamily",
    "mesh_component",
    "circle_component",
    "interval_component",
    "enumerate_component_balls",
    "enumerate_family",
]

# Cap on the total number of (ball, grid point) support memberships of a
# family; above this the enumeration refuses to materialize.
DEFAULT_MAX_MEMBERSHIPS = 50_000_000


@dataclass
class ComponentGrid:
    """One factor of the product domain.

    ``points`` carries a scalar label per grid point (mesh: vertex index;
    circle: arc-length position; interval: coordinate). ``weights`` are the
    per-point quadrature weights and ``distances`` the pairwise metric; only
    entries below ``radius_cap`` are read, so farther ones may be ``inf``.
    """

    kind: str  # "mesh" | "circle" | "interval"
    points: np.ndarray
    weights: np.ndarray
    distances: np.ndarray
    radius_cap: float = math.inf

    def __post_init__(self):
        self.points = np.asarray(self.points)
        self.weights = np.asarray(self.weights, dtype=float)
        self.distances = np.asarray(self.distances, dtype=float)
        n = len(self.points)
        if self.weights.shape != (n,) or self.distances.shape != (n, n):
            raise ValueError("component arrays have inconsistent sizes")
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("component weights must be positive and finite")
        if not self.radius_cap > 0:  # also rejects nan
            raise ValueError("radius_cap must be positive (or inf)")

    @property
    def size(self) -> int:
        return len(self.points)

    def total_weight(self) -> float:
        return float(self.weights.sum())


def mesh_component(m: TriangulatedManifold, radius_cap: float = math.inf) -> ComponentGrid:
    """Wrap a triangulated mesh as a product-domain component.

    Distances not yet computed are computed only out to ``radius_cap``: the
    balls need nothing farther.
    """
    if m.weights is None:
        m.compute_weights()
    if m.distances is None:
        m.compute_distances(limit=radius_cap)
    return ComponentGrid(
        kind="mesh",
        points=np.arange(m.n_vertices),
        weights=m.weights,
        distances=m.distances,
        radius_cap=radius_cap,
    )


def circle_component(
    n_points: int, circumference: float = 2 * math.pi, radius_cap: float = math.inf
) -> ComponentGrid:
    """n equally spaced points on a circle; distance is arc length."""
    if n_points < 1:
        raise ValueError("circle grid needs at least one point")
    if circumference <= 0:
        raise ValueError("circumference must be positive")
    step = circumference / n_points
    idx = np.arange(n_points)
    k = np.abs(idx[:, None] - idx[None, :])
    k = np.minimum(k, n_points - k)
    return ComponentGrid(
        kind="circle",
        points=idx * step,
        weights=np.full(n_points, step),
        distances=k * step,
        radius_cap=radius_cap,
    )


def interval_component(
    a: float, b: float, n_points: int, radius_cap: float = math.inf
) -> ComponentGrid:
    """Equally spaced grid on [a, b] with trapezoid quadrature weights."""
    if n_points < 2:
        raise ValueError("interval grid needs at least two points")
    if not b > a:
        raise ValueError("interval must have b > a")
    pts = np.linspace(a, b, n_points)
    h = (b - a) / (n_points - 1)
    w = np.full(n_points, h)
    w[0] = w[-1] = h / 2
    return ComponentGrid(
        kind="interval",
        points=pts,
        weights=w,
        distances=np.abs(pts[:, None] - pts[None, :]),
        radius_cap=radius_cap,
    )


@dataclass(frozen=True)
class ComponentBall:
    """A distinct metric-ball support within one component grid.

    ``radius`` is a representative radius realizing the support;
    ``inner_radius`` is the largest center distance inside the support, so the
    support is admissible under any cap strictly above it (0 for singletons,
    which are admissible under every cap).
    """

    center: int
    radius: float
    inner_radius: float
    indices: np.ndarray

    @property
    def size(self) -> int:
        return len(self.indices)


def enumerate_component_balls(g: ComponentGrid) -> list[ComponentBall]:
    """All distinct ball supports of one component under its radius cap.

    For each center, only the distances below the cap are sorted, so rows
    may hold ``inf`` (or any value) beyond it. Each distinct in-cap value v
    gives the support {d <= v} with inner radius v; its radius is the next
    in-cap value, or, for the widest support, the cap (``v + 1`` when the cap
    is infinite and the support is the whole grid). Supports are deduplicated
    across centers, keeping the first center that realizes each.
    """
    cap = g.radius_cap
    seen: dict[bytes, ComponentBall] = {}
    for center in range(g.size):
        d = g.distances[center]
        in_cap = np.flatnonzero(d < cap)
        if not len(in_cap):
            continue
        order = in_cap[np.argsort(d[in_cap], kind="stable")].astype(np.int32)
        sorted_d = d[order]
        # prefix ends: one support per distinct in-cap distance value
        ends = np.append(np.flatnonzero(np.diff(sorted_d) > 0) + 1, len(order))
        for k in ends:
            inner = float(sorted_d[k - 1])
            if k < len(order):
                radius = float(sorted_d[k])  # support = {d < radius}
            elif len(order) == g.size and math.isinf(cap):
                radius = inner + 1.0
            else:
                radius = float(cap)
            support = np.sort(order[:k])
            key = support.tobytes()
            if key not in seen:
                seen[key] = ComponentBall(center, radius, inner, support)
    return list(seen.values())


@dataclass
class ProductDomain:
    """Ordered product of component grids with product quadrature weights."""

    components: list[ComponentGrid]

    def __post_init__(self):
        if not self.components:
            raise ValueError("product domain needs at least one component")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.components)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def grid_weights(self) -> np.ndarray:
        """Flattened product weights, C-order over the component grids."""
        w = self.components[0].weights
        for c in self.components[1:]:
            w = np.multiply.outer(w, c.weights)
        return w.ravel()

    def grid_labels(self):
        """Per-grid-point tuples of component point labels, in flat order."""
        labels = [c.points for c in self.components]
        return [
            tuple(lab[i] for lab, i in zip(labels, multi))
            for multi in itertools.product(*(range(s) for s in self.shape))
        ]


@dataclass
class AdjustmentFamily:
    """Cartesian products of per-component ball supports over a product domain.

    ``component_balls`` holds one list of distinct supports per component and
    is the family's only per-ball description: product ball k is
    ``np.unravel_index(k, shape)`` over the per-component ball counts
    ``shape``, which is ``itertools.product`` order. ``weight_matrix``
    (n_balls x grid size, CSR) holds each ball's support weights, so
    integrated statistics for every ball are one sparse matmul. It is the
    Kronecker product of the per-component (balls x points) weight matrices,
    whose row and column orders are those of the product balls and of the
    C-order grid.
    """

    domain: ProductDomain
    component_balls: list[list[ComponentBall]]
    weight_matrix: csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        W = None
        for comp, balls in zip(self.domain.components, self.component_balls):
            W_comp = _component_weight_matrix(comp, balls)
            W = W_comp if W is None else kron(W, W_comp, format="csr")
        W.sort_indices()
        self.weight_matrix = W

    @property
    def shape(self) -> tuple[int, ...]:
        """Number of distinct balls in each component."""
        return tuple(len(balls) for balls in self.component_balls)

    @property
    def n_balls(self) -> int:
        return math.prod(self.shape)

    @property
    def n_memberships(self) -> int:
        return int(self.weight_matrix.nnz)

    def integrated_stats(self, stat_fields: np.ndarray) -> np.ndarray:
        """Weighted support sums of one stat field (m,) or a stack (..., m)."""
        return self.weight_matrix @ np.asarray(stat_fields).T

    def admissible_mask(self, caps) -> np.ndarray:
        """Which balls survive under new per-component radius caps.

        A product ball survives when every component's inner radius is
        strictly below that component's cap.
        """
        caps = list(caps)
        if len(caps) != len(self.domain.components):
            raise ValueError("one cap per component required")
        per_component = [
            np.array([b.inner_radius for b in balls]) < cap
            for balls, cap in zip(self.component_balls, caps)
        ]
        return functools.reduce(np.logical_and.outer, per_component).ravel()


def _component_weight_matrix(g: ComponentGrid, balls: list[ComponentBall]) -> csr_matrix:
    """(balls x points) CSR of one component's support weights."""
    indptr = np.zeros(len(balls) + 1, dtype=np.int64)
    np.cumsum([b.size for b in balls], out=indptr[1:])
    indices = (
        np.concatenate([b.indices for b in balls])
        if balls
        else np.empty(0, dtype=np.int32)
    )
    return csr_matrix((g.weights[indices], indices, indptr), shape=(len(balls), g.size))


def enumerate_family(
    d: ProductDomain, max_memberships: int = DEFAULT_MAX_MEMBERSHIPS
) -> AdjustmentFamily:
    """Cartesian products of the per-component ball supports.

    Component supports are already deduplicated and products of distinct
    supports are distinct, so no cross-component dedup is needed. Raises if
    the total number of support memberships would exceed ``max_memberships``.
    """
    per_component = [enumerate_component_balls(c) for c in d.components]
    memberships = 1
    for balls in per_component:
        memberships *= sum(b.size for b in balls)
    if memberships > max_memberships:
        raise ValueError(
            f"adjustment family would have {memberships} support memberships "
            f"(limit {max_memberships}); use smaller radius caps or a coarser grid"
        )
    return AdjustmentFamily(d, per_component)
