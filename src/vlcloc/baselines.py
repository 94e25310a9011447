"""RSS-ratio (RSSR) trilateration, the model-based comparison method.

RSSR works in the linear received-power domain. Under the vertical
Lambertian geometry, power from LED i scales as h^(m+1) / d_i^(m+3), so
r_i / r_j = (d_j / d_i)^(m+3) whenever the LEDs share the same effective
drive level. Pairwise log-ratio residuals are minimized over candidate
positions by an exhaustive area scan followed by local quadratic
refinement (or Gauss-Newton iterations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID_SCAN = "grid-scan"
GAUSS_NEWTON = "gauss-newton"


@dataclass(frozen=True)
class LocationEstimate:
    x: float
    y: float
    warning: str | None = None


@dataclass(frozen=True)
class RssrConfig:
    lambertian_order: float
    led_positions: np.ndarray              # (M, 3) meters
    bounds: tuple[tuple[float, float], tuple[float, float]]  # ((xmin,xmax),(ymin,ymax))
    solver: str = GRID_SCAN
    scan_resolution: float = 0.01          # meters

    def __post_init__(self):
        pos = np.asarray(self.led_positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 3:
            raise ValueError("need at least 3 LED positions of shape (M, 3)")
        if len(np.unique(pos, axis=0)) != pos.shape[0]:
            raise ValueError("LED positions must be distinct")
        if self.lambertian_order <= 0.0:
            raise ValueError("lambertian_order must be positive")
        if self.solver not in (GRID_SCAN, GAUSS_NEWTON):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.scan_resolution <= 0.0:
            raise ValueError("scan_resolution must be positive")
        (x0, x1), (y0, y1) = self.bounds
        if not (x1 > x0 and y1 > y0):
            raise ValueError("bounds must span a non-empty rectangle")
        object.__setattr__(self, "led_positions", pos)


class RssrSolver:
    """Reusable RSSR solver for many queries against one geometry.

    Everything that depends only on the geometry and the scan resolution is
    built once here: the LED pair indices, m + 3, the LED x, y and h^2
    columns, the scan grid's model terms, and for each of the three
    refinement rounds its 3x3 stencil offsets and the five rows of the
    least-squares pseudo-inverse that map the nine objective values to the
    quadratic's (gx, gy, cxx, cyy, cxy). A query then costs one matvec over
    the scan grid plus, per round, nine objective values, one 5x9 matvec
    and a closed-form 2x2 Newton step.
    """

    def __init__(self, cfg: RssrConfig):
        self.cfg = cfg
        led = cfg.led_positions
        m = led.shape[0]
        self._i, self._j = np.triu_indices(m, 1)  # LED pairs i < j
        # (M, P) pair differences: (v @ diff)[p] = v[j_p] - v[i_p], exactly
        self._pair_diff = np.eye(m)[:, self._j] - np.eye(m)[:, self._i]
        self._m3 = cfg.lambertian_order + 3.0
        self._led_xy = led[:, :2].T.copy()   # (2, M)
        self._led_h2 = led[:, 2] ** 2

        (x0, x1), (y0, y1) = cfg.bounds
        res = cfg.scan_resolution
        xs = np.arange(x0, x1 + 0.5 * res, res)
        ys = np.arange(y0, y1 + 0.5 * res, res)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        self._cells = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        model = self._model_at(self._cells)
        self._model_sq = (model**2).sum(axis=1)
        # Column-major, like the fancy-indexed model of the reference solver
        # in the tests: BLAS then adds each cell's terms in the same order, so
        # the scan values, and the cell picked among near-ties, agree bit for bit.
        self._model_x2 = np.asfortranarray(2.0 * model)

        # Quadratic f ~ c0 + gx sx + gy sy + cxx sx^2 + cyy sy^2 + cxy sx sy on
        # the stencil h * {-1, 0, 1}^2: with D = diag(1, h, h, h^2, h^2, h^2)
        # the design matrix is A_1 D, so its pseudo-inverse is D^-1 pinv(A_1).
        unit = np.array([-1.0, 0.0, 1.0])
        ux, uy = (u.ravel() for u in np.meshgrid(unit, unit, indexing="ij"))
        design = np.column_stack([np.ones(9), ux, uy, ux**2, uy**2, ux * uy])
        unit_rows = np.linalg.pinv(design)[1:]
        self._rounds = []
        h = res
        for _ in range(3):
            offsets = np.stack([h * ux, h * uy], axis=-1)
            rows = unit_rows / np.array([h, h, h * h, h * h, h * h])[:, np.newaxis]
            self._rounds.append((h, offsets, rows))
            h /= 10.0

    def _model_at(self, xy: np.ndarray) -> np.ndarray:
        """Per-pair model (m+3)(log d_j - log d_i) at positions xy (..., 2)."""
        d2 = ((xy[..., np.newaxis] - self._led_xy) ** 2).sum(axis=-2) + self._led_h2
        ld = 0.5 * np.log(d2)
        return self._m3 * (ld @ self._pair_diff)

    def _scan(self, log_ratios: np.ndarray) -> np.ndarray:
        # argmin of sum_p (model - c)^2; the c^2 term is constant over cells
        f = self._model_sq - self._model_x2 @ log_ratios
        return self._cells[int(np.argmin(f))].copy()

    def _refine(self, log_ratios: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Fit a 2-d quadratic on a 3x3 stencil and jump to its stationary point.

        Three rounds with a stencil shrinking tenfold each pull the scan
        optimum well below millimeter error on smooth noiseless objectives.
        A step is taken only where the fitted Hessian is positive definite,
        and it is clamped to +-1.5 stencil spacings, so a non-convex fit
        cannot throw the estimate away.
        """
        c = center
        for h, offsets, rows in self._rounds:
            f = ((self._model_at(c + offsets) - log_ratios) ** 2).sum(axis=-1)
            gx, gy, cxx, cyy, cxy = (rows @ f).tolist()
            # Hessian [[2 cxx, cxy], [cxy, 2 cyy]]; Cramer's rule for H s = -g
            det = 4.0 * cxx * cyy - cxy * cxy
            if det > 0.0 and cxx > 0.0:
                lim = 1.5 * h
                sx = min(max((cxy * gy - 2.0 * cyy * gx) / det, -lim), lim)
                sy = min(max((cxy * gx - 2.0 * cxx * gy) / det, -lim), lim)
                c = c + (sx, sy)
        return c

    def locate(self, query) -> LocationEstimate:
        """Position from one query of linear received powers (one per LED, > 0).

        Ratios cancel any common scale factor, so only relative levels matter.
        """
        cfg = self.cfg
        r = np.asarray(query, dtype=float)
        if r.shape != (cfg.led_positions.shape[0],):
            raise ValueError("query length must match the number of LEDs")
        if not all(0.0 < v < math.inf for v in r.tolist()):
            raise ValueError("RSSR needs strictly positive finite linear powers")
        log_ratios = np.log(r[self._i] / r[self._j])

        coarse = self._scan(log_ratios)
        warning = None
        if cfg.solver == GAUSS_NEWTON:
            p, converged = _gauss_newton(self, log_ratios, coarse)
            if not converged or not np.all(np.isfinite(p)):
                p = coarse
                warning = "gauss-newton did not converge; returning scan optimum"
        else:
            p = self._refine(log_ratios, coarse)
        return LocationEstimate(float(p[0]), float(p[1]), warning)


def _gauss_newton(solver: RssrSolver, log_ratios: np.ndarray,
                  start: np.ndarray) -> tuple[np.ndarray, bool]:
    led = solver.cfg.led_positions
    i, j = solver._i, solver._j
    p = start.astype(float).copy()
    for _ in range(50):
        delta = p - led[:, :2]
        d2 = (delta**2).sum(axis=1) + led[:, 2] ** 2
        grad_logd = delta / d2[:, np.newaxis]        # gradient of log d_i
        jac = solver._m3 * (grad_logd[j] - grad_logd[i])
        res = solver._model_at(p) - log_ratios
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        p = p + step
        if np.linalg.norm(step) < 1e-12:
            return p, True
    return p, False
