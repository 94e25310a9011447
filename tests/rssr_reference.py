"""Reference RSSR grid-scan solver for the tests: lstsq quadratic refinement.

reference_locate scans the same grid as vlcloc's RssrSolver and refines
the scan optimum with a fresh meshgrid stencil, design matrix and
np.linalg.lstsq fit in each of its three rounds. The fast solver, which
fits the stencil quadratic in closed form instead, must land on the same
scan cell and within rounding of the same position; its pair model must
equal _model's bit for bit.

The geometry comes as plain values: led (M, 3) LED positions, the
Lambertian order m and bounds ((xmin, xmax), (ymin, ymax)) of the scan;
queries are linear powers.
"""

from __future__ import annotations

import itertools

import numpy as np

from vlcloc.baselines import SCAN_RESOLUTION


def _pair_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.array(list(itertools.combinations(range(m), 2)))
    return pairs[:, 0], pairs[:, 1]


def _model(led: np.ndarray, order: float, xy: np.ndarray) -> np.ndarray:
    """Per-pair model (m+3)(log d_j - log d_i) at positions xy (..., 2)."""
    i, j = _pair_indices(led.shape[0])
    dx = xy[..., np.newaxis, 0] - led[:, 0]
    dy = xy[..., np.newaxis, 1] - led[:, 1]
    ld = 0.5 * np.log(dx**2 + dy**2 + led[:, 2] ** 2)
    return (order + 3.0) * (ld[..., j] - ld[..., i])


def _objective(led: np.ndarray, order: float, log_ratios: np.ndarray,
               xy: np.ndarray) -> np.ndarray:
    """Sum over LED pairs of (model - log(r_i / r_j))^2."""
    return ((_model(led, order, xy) - log_ratios) ** 2).sum(axis=-1)


def scan_cells(bounds) -> np.ndarray:
    (x0, x1), (y0, y1) = bounds
    res = SCAN_RESOLUTION
    xs = np.arange(x0, x1 + 0.5 * res, res)
    ys = np.arange(y0, y1 + 0.5 * res, res)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def quadratic_refine(led: np.ndarray, order: float, log_ratios: np.ndarray,
                     center: np.ndarray, h: float) -> np.ndarray:
    """Fit a 2-d quadratic on a 3x3 stencil and jump to its stationary point,
    three rounds with the stencil shrinking tenfold, steps clamped to +-1.5 h."""
    c = center.astype(float).copy()
    for _ in range(3):
        dx = np.array([-h, 0.0, h])
        sx, sy = np.meshgrid(dx, dx, indexing="ij")
        pts = np.stack([c[0] + sx.ravel(), c[1] + sy.ravel()], axis=-1)
        f = _objective(led, order, log_ratios, pts)
        a = np.column_stack([
            np.ones(9), sx.ravel(), sy.ravel(),
            sx.ravel() ** 2, sy.ravel() ** 2, sx.ravel() * sy.ravel(),
        ])
        coef = np.linalg.lstsq(a, f, rcond=None)[0]
        _, cx, cy, cxx, cyy, cxy = coef
        hess = np.array([[2.0 * cxx, cxy], [cxy, 2.0 * cyy]])
        if np.linalg.det(hess) > 0.0 and hess[0, 0] > 0.0:
            step = np.linalg.solve(hess, -np.array([cx, cy]))
            step = np.clip(step, -1.5 * h, 1.5 * h)
            c = c + step
        h /= 10.0
    return c


def reference_locate(led: np.ndarray, order: float, bounds,
                     query) -> tuple[np.ndarray, np.ndarray]:
    """(scan cell, refined position) for one query of linear powers."""
    r = np.asarray(query, dtype=float)
    i, j = _pair_indices(r.size)
    log_ratios = np.log(r[i] / r[j])
    cells = scan_cells(bounds)
    model = _model(led, order, cells)
    # argmin of sum_p (model - c)^2; the c^2 term is constant over cells
    coarse = cells[int(np.argmin((model**2).sum(axis=1) - 2.0 * (model @ log_ratios)))]
    return coarse, quadratic_refine(led, order, log_ratios, coarse, SCAN_RESOLUTION)
