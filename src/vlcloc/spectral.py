"""Periodogram PSD estimation and RSS fingerprint construction.

The periodogram of an N-sample block is S[k] = |DFT(y)[k]|^2 / N. Received
signal strengths are read off as the PSD peaks at the known tone
frequencies and stored in dB (10*log10 of the peak). A fingerprint database
collects Q such RSS vectors per grid point from non-overlapping blocks of
the site-survey recording. Only the K bins within +-1 of each tone's bin
are read, so the DFT is evaluated at those alone (a direct DFT at a few
bins, as in Goertzel's algorithm): one real (N, 2K) matrix product per grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

DB_FLOOR = -300.0  # dB value substituted for log10(0)


@dataclass(frozen=True)
class FingerprintDB:
    """Site-survey fingerprints: Q RSS vectors (dB) at each of G grid points."""

    grid_coords: np.ndarray  # (G, 2) meters
    rss: np.ndarray          # (G, Q, M) dB
    tones: np.ndarray        # (M,) Hz
    fft_len: int
    sample_rate: float

    def __post_init__(self):
        grid = np.asarray(self.grid_coords, dtype=float)
        rss = np.asarray(self.rss, dtype=float)
        tones = np.asarray(self.tones, dtype=float)
        if grid.ndim != 2 or grid.shape[1] != 2:
            raise ValueError("grid_coords must have shape (G, 2)")
        if rss.ndim != 3 or rss.shape[0] != grid.shape[0] or rss.shape[2] != tones.size:
            raise ValueError("rss must have shape (G, Q, M) matching grid and tones")
        if not np.isfinite(grid).all():
            raise ValueError(f"grid coordinates must be finite, got {grid[~np.isfinite(grid)][0]}")
        bad_tones = tones[~((tones > 0.0) & (tones < math.inf))]
        if bad_tones.size:
            raise ValueError(f"tones must be finite and positive, got {bad_tones[0]} Hz")
        if np.any(np.diff(tones) <= 0.0):
            raise ValueError("tones must be strictly increasing")
        if not 0.0 < self.sample_rate < math.inf:
            raise ValueError(f"sample_rate must be finite and positive, got {self.sample_rate}")
        if self.fft_len < 2:
            raise ValueError(f"fft_len must be at least 2, got {self.fft_len}")
        if not np.isfinite(rss).all():
            g, q, m = np.argwhere(~np.isfinite(rss))[0]
            raise ValueError(f"RSS of grid {g}, block {q}, tone {m} is {rss[g, q, m]}")
        object.__setattr__(self, "grid_coords", grid)
        object.__setattr__(self, "rss", rss)
        object.__setattr__(self, "tones", tones)

    @property
    def num_grid_points(self) -> int:
        return self.grid_coords.shape[0]

    @property
    def blocks_per_grid(self) -> int:
        return self.rss.shape[1]

    @property
    def num_tones(self) -> int:
        return self.tones.size

    def tone_alignment(self) -> list[tuple[float, int, bool]]:
        """Per tone: (frequency, nearest DFT bin, exactly on-bin?)."""
        exact = self.tones * self.fft_len / self.sample_rate
        return [(float(f), int(k), bool(abs(e - k) < 1e-9))
                for f, e, k in zip(self.tones, exact, np.round(exact))]


def to_db(linear, floor_db: float = DB_FLOOR) -> np.ndarray:
    """10*log10 of linear power, with zeros clamped to floor_db."""
    lin = np.asarray(linear, dtype=float)
    out = np.full(lin.shape, floor_db)
    pos = lin > 0.0
    out[pos] = 10.0 * np.log10(lin[pos])
    return np.maximum(out, floor_db)


def from_db(db) -> np.ndarray:
    """Inverse of to_db: linear power 10^(dB/10)."""
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def build_fingerprints(streams, grid_coords, fft_len: int, tones,
                       sample_rate: float) -> FingerprintDB:
    """Build the fingerprint database from per-grid sample streams.

    Each stream of T samples is cut into Q = floor(T / N) non-overlapping
    N-blocks; every block yields its periodogram at the tones' window bins
    and one RSS vector (the window maxima, in dB). All
    streams must supply the same Q. streams may be any iterable (including
    a generator, so site-survey recordings never need to coexist in memory).
    """
    tones = np.asarray(tones, dtype=float)
    grid = np.asarray(grid_coords, dtype=float)
    if fft_len < 2:
        raise ValueError("fft_len must be at least 2")
    bad = tones[~((tones > 0.0) & (tones <= sample_rate / 2.0))]
    if bad.size:
        raise ValueError(f"tone {bad[0]} Hz is not in (0, Nyquist = {sample_rate / 2.0} Hz]")
    # +-1 bin around each tone's nominal bin, clipped to [0, N/2] (a clipped
    # window repeats its edge bin); exact k * j mod N for the twiddle angles
    nominal = np.round(tones * fft_len / sample_rate).astype(np.int64)
    windows = np.clip(nominal[:, np.newaxis] + np.arange(-1, 2), 0, fft_len // 2)
    bins, window = np.unique(windows, return_inverse=True)
    angle = (2.0 * math.pi / fft_len) * (np.outer(np.arange(fft_len), bins) % fft_len)
    twiddle = np.hstack([np.cos(angle), np.sin(angle)])

    per_grid = []
    q_common = None
    for g, stream in enumerate(streams):
        y = np.asarray(stream, dtype=float)
        q = y.size // fft_len
        if q < 1:
            raise ValueError(
                f"stream {g} has {y.size} samples, fewer than one {fft_len}-block"
            )
        if q_common is None:
            q_common = q
        elif q != q_common:
            raise ValueError(f"stream {g} yields {q} blocks, expected {q_common}")
        dft = y[: q * fft_len].reshape(q, fft_len) @ twiddle
        power = (dft[:, : bins.size] ** 2 + dft[:, bins.size :] ** 2) / fft_len
        per_grid.append(to_db(power[:, window.reshape(windows.shape)].max(axis=2)))

    if len(per_grid) != grid.shape[0]:
        raise ValueError(
            f"got {len(per_grid)} streams for {grid.shape[0]} grid points"
        )
    db = FingerprintDB(
        grid_coords=grid,
        rss=np.stack(per_grid),
        tones=tones,
        fft_len=fft_len,
        sample_rate=sample_rate,
    )
    for f, nominal, on_bin in db.tone_alignment():
        if not on_bin:
            log.warning("tone %.6g Hz is off-bin (nearest DFT bin %d)", f, nominal)
    return db


def save_fingerprints(db: FingerprintDB, path) -> None:
    """Write the database as text.

    Line 1: `G Q M N sample_rate`; line 2: the M tone frequencies; then per
    grid point one `x y` coordinate line followed by Q lines of M dB values.
    Values use 9 significant digits, so a load/save cycle reproduces the
    file byte for byte.
    """
    g, q, m = db.rss.shape
    row = " ".join(["{:.9g}"] * m) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{g} {q} {m} {db.fft_len} {db.sample_rate:.9g}\n" + row.format(*db.tones))
        for xy, block in zip(db.grid_coords.tolist(), db.rss):
            fh.write("{:.9g} {:.9g}\n".format(*xy)
                     + "".join(row.format(*v) for v in block.tolist()))


def load_fingerprints(path) -> FingerprintDB:
    """Read a database written by save_fingerprints.

    Blank lines are skipped; errors name the file's own line numbers, and a
    NaN or infinite value is rejected at the line that holds it.
    """
    with open(path) as fh:
        lines = [(num, raw.strip()) for num, raw in enumerate(fh, start=1) if raw.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: truncated fingerprint file")

    def numbers(pos: int) -> list[float]:
        num, text = lines[pos]
        values = list(map(float, text.split()))
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}: line {num} has a non-finite value: {text!r}")
        return values

    head = lines[0][1].split()
    if len(head) != 5:
        raise ValueError(f"{path}: malformed header {lines[0][1]!r}")
    g, q, m, n = (int(v) for v in head[:4])
    sample_rate = numbers(0)[4]
    tones = np.array(numbers(1))
    if tones.size != m:
        raise ValueError(f"{path}: expected {m} tones, found {tones.size}")
    expected = 2 + g * (q + 1)
    if len(lines) != expected:
        raise ValueError(f"{path}: expected {expected} lines, found {len(lines)}")
    grid = np.empty((g, 2))
    rss = np.empty((g, q, m))
    pos = 2
    for gi in range(g):
        grid[gi] = numbers(pos)
        pos += 1
        for qi in range(q):
            row = numbers(pos)
            if len(row) != m:
                raise ValueError(f"{path}: line {lines[pos][0]} has {len(row)} values, expected {m}")
            rss[gi, qi] = row
            pos += 1
    return FingerprintDB(grid, rss, tones, n, sample_rate)
