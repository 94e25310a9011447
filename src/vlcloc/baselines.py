"""RSS-ratio (RSSR) trilateration, the model-based comparison method.

RSSR works in the linear received-power domain. Under the vertical
Lambertian geometry, power from LED i scales as h^(m+1) / d_i^(m+3), so
r_i / r_j = (d_j / d_i)^(m+3) whenever the LEDs share the same effective
drive level. Pairwise log-ratio residuals are minimized over candidate
positions by an exhaustive area scan followed by three rounds of local
quadratic refinement.

The solver is built from the plan's own geometry: its LEDs, its channel's
Lambertian order and its survey grid, whose extent plus SCAN_MARGIN is the
scan area. The LED gains are deliberately ignored: RSSR is the paper's
uncalibrated comparator, so unequal gains show up as its error. The plan
guarantees 3 or more distinct LEDs and a finite grid and Lambertian order,
and run_experiment holds a DB's RSS levels within +-DB_LIMIT dB.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .channel import ChannelParams, LedConfig

SCAN_RESOLUTION = 0.01  # meters between cells of the area scan
SCAN_MARGIN = 0.05  # meters the area scan reaches beyond the survey grid
DB_LIMIT = 6000.0  # 10^(dB/20) is positive and finite for |dB| < 6000 (+6165 overflows)


class RssrSolver:
    """Reusable RSSR solver for many queries against one geometry.

    Everything that depends only on the geometry is built once here: the
    LED pair indices, m + 3, the LED x, y and h^2 columns, the scan grid's
    model terms and each refinement round's 3x3 stencil offsets. A query
    costs one matvec over the scan grid, its only BLAS product, plus, per
    round, nine objective values (indexed pair differences), a closed-form
    quadratic fit in plain Python and a 2x2 Newton step. So only a near tie
    in the scan could make the estimate's bits follow the OpenBLAS kernel;
    none was seen under SkylakeX, Haswell and Sandybridge.
    """

    def __init__(self, leds: Sequence[LedConfig], channel: ChannelParams, grid_coords):
        led = np.stack([x.position for x in leds])
        self._i, self._j = np.triu_indices(led.shape[0], 1)  # LED pairs i < j
        self._m3 = channel.lambertian_order + 3.0
        self._led_xy = led[:, :2].T.copy()   # (2, M)
        self._led_h2 = led[:, 2] ** 2

        res = SCAN_RESOLUTION
        xs, ys = (np.arange(lo - SCAN_MARGIN, hi + SCAN_MARGIN + 0.5 * res, res)
                  for lo, hi in zip(grid_coords.min(axis=0), grid_coords.max(axis=0)))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        self._cells = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        model = self._model_at(self._cells)
        self._model_sq = (model**2).sum(axis=1)
        # Column-major, as numpy lays out this fancy-indexed model and the tests'
        # reference one: BLAS then adds each cell's terms in the same order, so
        # the scan values, and the cell picked among near-ties, agree bit for bit.
        self._model_x2 = np.asfortranarray(2.0 * model)

        unit = np.array([-1.0, 0.0, 1.0])
        ux, uy = (u.ravel() for u in np.meshgrid(unit, unit, indexing="ij"))
        self._rounds = []
        h = res
        for _ in range(3):
            self._rounds.append((h, np.stack([h * ux, h * uy], axis=-1)))
            h /= 10.0

    def _model_at(self, xy: np.ndarray) -> np.ndarray:
        """Per-pair model (m+3)(log d_j - log d_i) at positions xy (..., 2)."""
        d2 = ((xy[..., np.newaxis] - self._led_xy) ** 2).sum(axis=-2) + self._led_h2
        ld = 0.5 * np.log(d2)
        return self._m3 * (ld[..., self._j] - ld[..., self._i])

    def _scan(self, log_ratios: np.ndarray) -> np.ndarray:
        # argmin of sum_p (model - c)^2; the c^2 term is constant over cells
        f = self._model_sq - self._model_x2 @ log_ratios
        return self._cells[int(np.argmin(f))].copy()

    def _refine(self, log_ratios: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Fit a 2-d quadratic on a 3x3 stencil and jump to its stationary point.

        The quadratic f ~ c0 + gx sx + gy sy + cxx sx^2 + cyy sy^2 + cxy sx sy
        is fit by least squares in closed form, as in Savitzky-Golay
        smoothing: f[3 i + j], at offset h (i - 1, j - 1), enters through the
        stencil's row sums X, its column sums Y and the corner term of cxy.

        Three rounds with a stencil shrinking tenfold each pull the scan
        optimum well below millimeter error on smooth noiseless objectives.
        A step is taken only where the fitted Hessian is positive definite,
        and it is clamped to +-1.5 stencil spacings, so a non-convex fit
        cannot throw the estimate away.
        """
        c = center
        for h, offsets in self._rounds:
            f = ((self._model_at(c + offsets) - log_ratios) ** 2).sum(axis=-1).tolist()
            xm, x0, xp = f[0] + f[1] + f[2], f[3] + f[4] + f[5], f[6] + f[7] + f[8]
            ym, y0, yp = f[0] + f[3] + f[6], f[1] + f[4] + f[7], f[2] + f[5] + f[8]
            gx, gy, six_h2 = (xp - xm) / (6.0 * h), (yp - ym) / (6.0 * h), 6.0 * h * h
            cxx, cyy = (xm - 2.0 * x0 + xp) / six_h2, (ym - 2.0 * y0 + yp) / six_h2
            cxy = (f[8] - f[6] - f[2] + f[0]) / (4.0 * h * h)
            # Hessian [[2 cxx, cxy], [cxy, 2 cyy]]; Cramer's rule for H s = -g
            det = 4.0 * cxx * cyy - cxy * cxy
            if det > 0.0 and cxx > 0.0:
                lim = 1.5 * h
                sx = min(max((cxy * gy - 2.0 * cyy * gx) / det, -lim), lim)
                sy = min(max((cxy * gx - 2.0 * cxx * gy) / det, -lim), lim)
                c = c + (sx, sy)
        return c

    def locate(self, fingerprint) -> np.ndarray:
        """(x, y) from one fingerprint row: the RSS of each LED's tone in dB.

        The RSS is a periodogram peak, a squared electrical amplitude, while
        the ratio model wants the optical power, its square root: 10^(dB/20).
        Ratios cancel any common scale factor, so only relative levels matter.
        """
        r = 10.0 ** (np.asarray(fingerprint, dtype=float) / 20.0)
        log_ratios = np.log(r[self._i] / r[self._j])
        return self._refine(log_ratios, self._scan(log_ratios))
