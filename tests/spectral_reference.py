"""Full-FFT RSS oracle: the periodogram of every bin, then the window max.

This is the path build_fingerprints replaced with its tone-bin DFT, kept
verbatim as the reference its powers must match: np.fft over each whole
N-block, |DFT|^2 / N, and the max over the +-1-bin window of each tone's
nominal bin, clipped to [0, N/2].
"""

import numpy as np

from vlcloc.spectral import to_db


def from_db(db) -> np.ndarray:
    """Inverse of to_db: linear power 10^(dB/10)."""
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def periodogram(blocks) -> np.ndarray:
    """Periodogram S[k] = |DFT[k]|^2 / N of each row of a (B, N) block matrix."""
    blocks = np.asarray(blocks, dtype=float)
    n = blocks.shape[-1]
    spec = np.fft.fft(blocks, axis=-1)
    return (spec.real**2 + spec.imag**2) / n


def peak_powers(psd_rows: np.ndarray, fft_len: int, sample_rate: float, tones: np.ndarray) -> np.ndarray:
    """(B, M) max PSD value within +-1 bin of each tone's nominal bin, per row."""
    half = fft_len // 2
    peaks = np.empty((psd_rows.shape[0], tones.size))
    for j, f in enumerate(tones):
        if f <= 0.0:
            raise ValueError(f"tone frequencies must be positive, got {f} Hz")
        if f > sample_rate / 2.0:
            raise ValueError(f"tone {f} Hz exceeds Nyquist ({sample_rate / 2.0} Hz)")
        nominal = int(round(f * fft_len / sample_rate))
        lo = max(nominal - 1, 0)
        hi = min(nominal + 1, half)
        peaks[:, j] = psd_rows[:, lo : hi + 1].max(axis=1)
    return peaks


def stream_peaks(stream, fft_len: int, sample_rate: float, tones) -> np.ndarray:
    """(Q, M) linear window-max powers of a stream cut into Q whole N-blocks."""
    y = np.asarray(stream, dtype=float)
    q = y.size // fft_len
    psd_rows = periodogram(y[: q * fft_len].reshape(q, fft_len))
    return peak_powers(psd_rows, fft_len, sample_rate, np.asarray(tones, dtype=float))


def stream_rss_db(stream, fft_len: int, sample_rate: float, tones) -> np.ndarray:
    """(Q, M) RSS in dB, as build_fingerprints computes it for one stream."""
    return to_db(stream_peaks(stream, fft_len, sample_rate, tones))
