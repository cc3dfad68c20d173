"""Exact verification substrate on a discretized 2D domain.

Every distribution involved in the pseudo-negative update (the reference
prior, each round's p_t-, the analytic positive density) becomes a discrete
measure over grid-cell centers. The update rule, its normalizer Z_t, KL
divergences and the round-to-round ratio normalizer H are then plain finite
sums, so the convergence identity can be checked to near machine precision.

All internal bookkeeping is in log space; exponentials happen only after
subtracting the running max.
"""

from dataclasses import dataclass

import numpy as np

from . import network as N

Array = np.ndarray

DEFAULT_BOUNDS = ((-3.0, 3.0), (-3.0, 3.0))
DEFAULT_RESOLUTION = (128, 128)
# grid cells per classifier forward; the chunks' logits equal one pass's
# bitwise. Larger chunks page-fault their temporaries afresh on every call
# (a 2048-row SYNTH_NET activation is 256 KiB, over glibc's default mmap
# threshold), smaller ones pay per-op overhead. One 128x128 `density_update`,
# median of 60 calls after one warm-up, in a fresh process per size as in
# CLI runs (2-vCPU x86_64, Python 3.11.7, numpy 2.4.6, one OpenBLAS thread):
#   GRID_CHUNK            256   512   1024  2048  16384
#   ms per call           4.48  3.19  2.32  5.36  6.37
#   minor faults per call    0     0     0  1280   1504
# Freeing a larger mapped block raises glibc's threshold: after larger chunks
# ran in one process, 2048-row chunks took 0.55 faults, 2.29 ms (seed 22931).
GRID_CHUNK = 1024


class OracleError(Exception):
    pass


class GridMismatchError(OracleError):
    pass


def _logsumexp(values: Array) -> float:
    m = values.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(values - m).sum()))


@dataclass
class GridDensity:
    """Normalized discrete measure over an axis-aligned cell grid.

    log_mass is canonical (cells with zero mass carry -inf); mass is derived
    and sums to 1 within 1e-12.
    """

    bounds: tuple
    resolution: tuple
    log_mass: Array  # shape (nx, ny)

    def __post_init__(self):
        nx, ny = self.resolution
        if nx < 2 or ny < 2:
            raise OracleError(f"resolution {self.resolution} below 2 per axis")
        if self.log_mass.shape != (nx, ny):
            raise OracleError(f"log_mass shape {self.log_mass.shape} vs {self.resolution}")
        if np.any(np.isnan(self.log_mass)) or np.any(self.log_mass == np.inf):
            raise OracleError("log_mass must be finite or -inf")

    @classmethod
    def from_log_unnormalized(cls, bounds, resolution, log_u: Array) -> tuple["GridDensity", float]:
        """log_u scaled to unit total mass; returns the density and the old
        total Z, summed after max subtraction so no exponential overflows."""
        log_z = _logsumexp(log_u.reshape(-1))
        if not np.isfinite(log_z):
            raise OracleError("grid carries no mass")
        return cls(tuple(bounds), tuple(resolution), log_u - log_z), float(np.exp(log_z))

    @property
    def mass(self) -> Array:
        return np.exp(self.log_mass)

    def cell_centers(self) -> Array:
        """(nx*ny, 2) centers, x-major to match flattened mass ordering."""
        (x0, x1), (y0, y1) = self.bounds
        nx, ny = self.resolution
        xs = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
        ys = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)

    def cell_area(self) -> float:
        (x0, x1), (y0, y1) = self.bounds
        nx, ny = self.resolution
        return (x1 - x0) / nx * ((y1 - y0) / ny)


def _require_same_grid(a: GridDensity, b: GridDensity) -> None:
    if a.resolution != b.resolution or not np.allclose(a.bounds, b.bounds, atol=0):
        raise GridMismatchError(f"grids differ: {a.bounds}/{a.resolution} vs "
                                f"{b.bounds}/{b.resolution}")


def build_grid(bounds, resolution, log_density_fn) -> GridDensity:
    """Discretize a density given by its log: cell mass = density(center)
    * area, normalized. A log density of -inf gives a cell no mass; NaN or
    +inf raises OracleError."""
    nx, ny = resolution
    probe = GridDensity(tuple(bounds), tuple(resolution),
                        np.zeros((nx, ny)) - np.log(nx * ny))
    log_d = np.asarray(log_density_fn(probe.cell_centers()), dtype=np.float64)
    log_u = (log_d + np.log(probe.cell_area())).reshape(nx, ny)
    return GridDensity.from_log_unnormalized(bounds, resolution, log_u)[0]


def reference_grid(sigma: float = 0.3, bounds=DEFAULT_BOUNDS,
                   resolution=DEFAULT_RESOLUTION) -> GridDensity:
    """Discretized isotropic zero-mean Gaussian reference p_r-."""

    def log_density(pts):
        return -0.5 * (pts ** 2).sum(axis=1) / sigma ** 2 - np.log(2 * np.pi * sigma ** 2)

    return build_grid(bounds, resolution, log_density)


def _grid_logits(grid: GridDensity, classifier: N.Classifier) -> Array:
    """The classifier's logit at every cell center, GRID_CHUNK cells per forward."""
    centers = grid.cell_centers()
    logits = np.empty(len(centers))
    for at in range(0, len(centers), GRID_CHUNK):
        logits[at:at + GRID_CHUNK] = N.logit_binary(classifier, centers[at:at + GRID_CHUNK])
    return logits.reshape(grid.resolution)


def _tilt(p: GridDensity, logits: Array) -> tuple[GridDensity, float]:
    """p tilted by exp(logits) and normalized, with Z = sum(exp(logits) * p mass)."""
    return GridDensity.from_log_unnormalized(p.bounds, p.resolution, p.log_mass + logits)


def _tilt_normalizer(p: GridDensity, logits: Array) -> float:
    """`_tilt`'s Z alone, with no density built."""
    return float(np.exp(_logsumexp((p.log_mass + logits).reshape(-1))))


def density_update(prior: GridDensity,
                   classifier: N.Classifier) -> tuple[GridDensity, float]:
    """One pseudo-negative update on the grid, the prior tilted by the
    classifier's logit grid: new cell mass is prior mass times the ratio
    q(+1|x)/q(-1|x) = exp(logit), divided by the normalizer
    Z = sum(exp(logit) * prior mass). Returns (p_t-, Z)."""
    return _tilt(prior, _grid_logits(prior, classifier))


def kl_divergence(p: GridDensity, q: GridDensity) -> float:
    """Sum over cells of p * ln(p/q); +inf when q misses mass p carries."""
    _require_same_grid(p, q)
    lp, lq = p.log_mass.reshape(-1), q.log_mass.reshape(-1)
    support = lp > -np.inf
    if np.any(lq[support] == -np.inf):
        return float("inf")
    terms = np.exp(lp[support]) * (lp[support] - lq[support])
    return float(terms.sum())


def round_ratio_normalizer(p_t: GridDensity, c_t: N.Classifier,
                           c_next: N.Classifier) -> float:
    """H = sum over cells of exp(logit_next - logit_t) * p_t mass: the Z of
    p_t tilted by the difference of the two logit grids.

    Equal classifiers give H = 1 exactly. H <= 1 signals that the newer
    classifier scores the current pseudo-negatives lower on average, the
    premise of the convergence argument; callers report H > 1 rounds rather
    than asserting the premise.
    """
    return _tilt_normalizer(p_t, _grid_logits(p_t, c_next) - _grid_logits(p_t, c_t))


def update_identity_sides(p_plus: GridDensity, prior: GridDensity,
                          c_t: N.Classifier,
                          c_next: N.Classifier) -> tuple[float, float]:
    """Both sides of the per-round KL identity, assembled independently
    from one logit grid per classifier. Left: KL[p+ || p_t-] - KL[p+ ||
    p_next-], each p- a tilted prior. Right: ln(1/H) + sum over cells of
    p+ * (logit_next - logit_t), H the Z of p_t- tilted by that difference.
    """
    _require_same_grid(p_plus, prior)
    z_t = _grid_logits(prior, c_t)
    z_next = _grid_logits(prior, c_next)
    p_t, _ = _tilt(prior, z_t)
    p_next, _ = _tilt(prior, z_next)
    left = kl_divergence(p_plus, p_t) - kl_divergence(p_plus, p_next)
    diff = z_next - z_t
    h = _tilt_normalizer(p_t, diff)
    support = p_plus.log_mass > -np.inf
    gain = float((np.exp(p_plus.log_mass[support]) * diff[support]).sum())
    right = -np.log(h) + gain
    return left, right


def exact_grid_sample(p: GridDensity, count: int, rng: np.random.Generator) -> Array:
    """Exact draw: multinomial over cells, uniform jitter inside each cell,
    then one shuffle so sample order carries no cell structure."""
    if count < 1:
        raise OracleError("need at least one sample")
    flat = p.mass.reshape(-1)
    cell_counts = rng.multinomial(count, flat / flat.sum())
    centers = p.cell_centers()
    (x0, x1), (y0, y1) = p.bounds
    nx, ny = p.resolution
    half = np.array([(x1 - x0) / nx, (y1 - y0) / ny]) / 2.0
    occupied = np.flatnonzero(cell_counts)
    reps = np.repeat(occupied, cell_counts[occupied])
    jitter = rng.uniform(-1.0, 1.0, size=(count, 2)) * half
    samples = centers[reps] + jitter
    return samples[rng.permutation(count)]


def exact_synthesizer(prior: GridDensity):
    """Drop-in synthesis source for the trainer that bypasses gradient-based
    chains: each round computes p_t- exactly on the grid and samples it."""

    def synthesize(classifier, count, rng, class_index=None):
        if class_index is not None:
            raise OracleError("the grid oracle covers the binary 2D setting only")
        p_t, _ = density_update(prior, classifier)
        return exact_grid_sample(p_t, count, rng), None

    return synthesize


def heatmap_gray(p: GridDensity) -> Array:
    """Per-cell 8-bit gray levels, linear in mass with the peak at 255. A
    normalized density's peak holds at least 1/cells of the mass."""
    m = p.mass
    return np.floor(m / m.max() * 255.0 + 0.5).astype(np.uint8)
