import math

import numpy as np
import pytest

from vlcloc.spectral import (DB_FLOOR, FingerprintDB, RssVector,
                             build_fingerprints, extract_rss, from_db,
                             load_fingerprints, mean_fingerprints, periodogram,
                             save_fingerprints, to_db)


def dft_oracle(samples):
    """Direct O(N^2) DFT, independent of the FFT library."""
    n = len(samples)
    out = np.empty(n, dtype=complex)
    for k in range(n):
        acc = 0.0 + 0.0j
        for t_idx, v in enumerate(samples):
            ang = -2.0 * math.pi * k * t_idx / n
            acc += v * complex(math.cos(ang), math.sin(ang))
        out[k] = acc
    return out


class TestPeriodogram:
    def test_constant_input(self):
        n, c = 64, 1.7
        est = periodogram(np.full(n, c))
        assert est.bin_values[0] == pytest.approx(n * c * c, rel=1e-12)
        np.testing.assert_allclose(est.bin_values[1:], 0.0, atol=1e-9)

    def test_on_bin_cosine_against_direct_dft(self):
        n, k0, amp = 64, 5, 0.8
        t = np.arange(n)
        y = amp * np.cos(2.0 * math.pi * k0 * t / n)
        est = periodogram(y)
        oracle = np.abs(dft_oracle(y)) ** 2 / n
        np.testing.assert_allclose(est.bin_values, oracle, rtol=1e-9, atol=1e-9)
        assert est.bin_values[k0] == pytest.approx(n * amp**2 / 4.0, rel=1e-9)

    def test_random_block_against_direct_dft(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=48)
        est = periodogram(y)
        oracle = np.abs(dft_oracle(y)) ** 2 / len(y)
        np.testing.assert_allclose(est.bin_values, oracle, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", [16, 256, 2000])
    def test_parseval(self, n):
        rng = np.random.default_rng(n)
        y = rng.normal(size=n)
        est = periodogram(y)
        energy = math.fsum(v * v for v in y)
        assert est.bin_values.sum() == pytest.approx(energy, rel=1e-12)

    def test_bin_hz_resolved_with_rate(self):
        est = periodogram(np.ones(100), sample_rate=4e6)
        assert est.bin_hz == pytest.approx(4e4)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            periodogram([1.0])
        with pytest.raises(ValueError):
            periodogram([])


class TestExtractRss:
    def test_on_bin_tone_db_value(self):
        n, rate, amp = 2000, 4e6, 1e-3
        k0 = 400  # 800 kHz
        t = np.arange(n) / rate
        y = amp * np.cos(2.0 * math.pi * 800e3 * t)
        rss = extract_rss(periodogram(y, rate), [800e3])
        expected = 10.0 * math.log10(n * amp**2 / 4.0)
        assert rss.values[0] == pytest.approx(expected, abs=1e-9)
        assert periodogram(y).bin_values[k0] == pytest.approx(n * amp**2 / 4.0, rel=1e-9)

    def test_doubling_fft_len_adds_3dB(self):
        rate, amp = 4e6, 5e-4
        vals = []
        for n in (2000, 4000):
            t = np.arange(n) / rate
            y = amp * np.cos(2.0 * math.pi * 800e3 * t)
            vals.append(extract_rss(periodogram(y, rate), [800e3]).values[0])
        assert vals[1] - vals[0] == pytest.approx(10.0 * math.log10(2.0), abs=1e-6)

    def test_zero_signal_hits_floor(self):
        rss = extract_rss(periodogram(np.zeros(256), 4e6), [800e3])
        assert rss.values[0] == DB_FLOOR

    def test_tone_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            extract_rss(periodogram(np.ones(256), 4e6), [2.5e6])

    def test_off_bin_tone_found_within_one_bin(self):
        n, rate = 1000, 4e6
        f = 801.5e3  # lands between bins at N=1000 (bin width 4 kHz)
        t = np.arange(n) / rate
        y = np.cos(2.0 * math.pi * f * t)
        rss = extract_rss(periodogram(y, rate), [f])
        nominal = round(f * n / rate)
        window = periodogram(y).bin_values[nominal - 1 : nominal + 2]
        assert from_db(rss.values[0]) == pytest.approx(window.max(), rel=1e-12)

    def test_rate_required_when_unknown(self):
        with pytest.raises(ValueError, match="sample rate"):
            extract_rss(periodogram(np.ones(64)), [1e3])


class TestDbConversion:
    def test_round_trip(self):
        x = np.array([1e-6, 3.2, 100.0])
        np.testing.assert_allclose(from_db(to_db(x)), x, rtol=1e-12)

    def test_floor_applied(self):
        assert to_db(np.array([0.0]))[0] == DB_FLOOR


def synth_tone_stream(blocks, n, rate, tones, amps, noise=0.0, seed=0):
    t = np.arange(blocks * n) / rate
    y = np.zeros(blocks * n)
    for f, a in zip(tones, amps):
        y += a * (1.0 + np.cos(2.0 * math.pi * f * t))
    if noise:
        y += np.random.default_rng(seed).normal(0.0, noise, y.size)
    return y


class TestBuildFingerprints:
    rate = 4e6
    tones = [800e3, 900e3]

    def test_single_block_per_grid(self):
        n = 400
        streams = [synth_tone_stream(1, n, self.rate, self.tones, [1e-3, 2e-3])] * 2
        db = build_fingerprints(streams, [[0, 0], [0.1, 0]], n, self.tones, self.rate)
        assert db.rss.shape == (2, 1, 2)

    def test_noise_free_blocks_identical(self):
        n = 400
        stream = synth_tone_stream(5, n, self.rate, self.tones, [1e-3, 2e-3])
        db = build_fingerprints([stream], [[0, 0]], n, self.tones, self.rate)
        for q in range(1, 5):
            # blocks sit at different absolute times, so agreement is to
            # floating rounding rather than bit-exact
            np.testing.assert_allclose(db.rss[0, q], db.rss[0, 0], rtol=1e-12)

    def test_stream_shorter_than_block_rejected(self):
        with pytest.raises(ValueError, match="fewer than one"):
            build_fingerprints([np.zeros(100)], [[0, 0]], 400, self.tones, self.rate)

    def test_mismatched_block_counts_rejected(self):
        s1 = synth_tone_stream(2, 400, self.rate, self.tones, [1e-3, 1e-3])
        s2 = synth_tone_stream(3, 400, self.rate, self.tones, [1e-3, 1e-3])
        with pytest.raises(ValueError, match="blocks"):
            build_fingerprints([s1, s2], [[0, 0], [1, 0]], 400, self.tones, self.rate)

    def test_stream_count_mismatch_rejected(self):
        s = synth_tone_stream(1, 400, self.rate, self.tones, [1e-3, 1e-3])
        with pytest.raises(ValueError):
            build_fingerprints([s], [[0, 0], [1, 0]], 400, self.tones, self.rate)

    def test_block_permutation_leaves_mean_unchanged(self):
        n = 400
        rng = np.random.default_rng(3)
        stream = synth_tone_stream(6, n, self.rate, self.tones, [1e-3, 2e-3],
                                   noise=1e-4, seed=11)
        db = build_fingerprints([stream], [[0, 0]], n, self.tones, self.rate)
        perm = rng.permutation(6)
        shuffled = FingerprintDB(db.grid_coords, db.rss[:, perm, :], db.tones,
                                 db.fft_len, db.sample_rate)
        np.testing.assert_array_equal(
            np.sort(db.rss[0], axis=0), np.sort(shuffled.rss[0], axis=0))
        np.testing.assert_allclose(
            mean_fingerprints(db), mean_fingerprints(shuffled), rtol=0, atol=1e-12)

    def test_tone_alignment_report(self):
        n = 400
        stream = synth_tone_stream(1, n, self.rate, self.tones, [1e-3, 1e-3])
        db = build_fingerprints([stream], [[0, 0]], n, self.tones, self.rate)
        # 800 kHz * 400 / 4 MHz = 80 exactly; 900 kHz -> 90 exactly
        assert db.tone_alignment() == [(800e3, 80, True), (900e3, 90, True)]


class TestMeanFingerprints:
    def test_single_block_equals_vector(self):
        rss = np.arange(8.0).reshape(2, 1, 4)
        db = FingerprintDB([[0, 0], [1, 0]], rss, [1e3, 2e3, 3e3, 4e3], 8, 1e4)
        np.testing.assert_array_equal(mean_fingerprints(db), rss[:, 0, :])

    def test_random_against_columnwise_average(self):
        rng = np.random.default_rng(5)
        rss = rng.normal(size=(3, 4, 2)) * 10.0 - 30.0
        db = FingerprintDB([[0, 0], [1, 0], [2, 0]], rss, [1e3, 2e3], 8, 1e4)
        expected = np.empty((3, 2))
        for g in range(3):
            for m in range(2):
                expected[g, m] = math.fsum(rss[g, :, m]) / 4.0
        np.testing.assert_allclose(mean_fingerprints(db), expected, rtol=1e-14)


class TestPersistence:
    def make_db(self):
        rng = np.random.default_rng(9)
        rss = rng.normal(size=(3, 2, 4)) * 12.3456789 - 30.0
        grid = np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05]])
        return FingerprintDB(grid, rss, [800e3, 850e3, 900e3, 950e3], 2000, 4e6)

    def test_round_trip_values(self, tmp_path):
        db = self.make_db()
        path = tmp_path / "fp.txt"
        save_fingerprints(db, path)
        loaded = load_fingerprints(path)
        assert loaded.fft_len == db.fft_len
        assert loaded.sample_rate == db.sample_rate
        np.testing.assert_allclose(loaded.rss, db.rss, rtol=1e-8)
        np.testing.assert_allclose(loaded.grid_coords, db.grid_coords, rtol=1e-8)
        np.testing.assert_array_equal(loaded.tones, db.tones)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        db = self.make_db()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_fingerprints(db, p1)
        save_fingerprints(load_fingerprints(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        db = self.make_db()
        path = tmp_path / "fp.txt"
        save_fingerprints(db, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "3 2 4 2000 4000000"
        assert lines[1].split() == ["800000", "850000", "900000", "950000"]

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 4 2000 4000000\n800000 850000 900000 950000\n0 0\n")
        with pytest.raises(ValueError, match="expected"):
            load_fingerprints(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 4\n")
        with pytest.raises(ValueError, match="header"):
            load_fingerprints(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("line_index", [1, 2, 4])  # a tone, a coordinate, an RSS value
    def test_non_finite_value_rejected_at_its_line(self, tmp_path, bad, line_index):
        path = tmp_path / "fp.txt"
        save_fingerprints(self.make_db(), path)
        lines = path.read_text().splitlines()
        lines[line_index] = " ".join([bad] + lines[line_index].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"fp.txt: line {line_index + 1} has a non-finite"):
            load_fingerprints(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_db_rejects_non_finite_rss_naming_the_first_entry(self, bad):
        db = self.make_db()
        rss = db.rss.copy()
        rss[2, 1, 3] = rss[1, 0, 2] = bad
        with pytest.raises(ValueError, match=f"RSS of grid 1, block 0, tone 2 is {bad}"):
            FingerprintDB(db.grid_coords, rss, db.tones, db.fft_len, db.sample_rate)

    def test_errors_name_physical_lines_past_blank_ones(self, tmp_path):
        path = tmp_path / "fp.txt"
        save_fingerprints(self.make_db(), path)
        lines = path.read_text().splitlines()
        lines[6] = "nan " + lines[6]  # an RSS line with 5 values instead of 4
        path.write_text("\n\n".join(lines) + "\n")  # a blank line after every line
        with pytest.raises(ValueError, match="line 13 has a non-finite"):
            load_fingerprints(path)
        lines[6] = "1.0 " + lines[6][4:]
        path.write_text("\n\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 13 has 5 values, expected 4"):
            load_fingerprints(path)


class TestRssVectorValidation:
    def test_frequencies_must_increase(self):
        with pytest.raises(ValueError):
            RssVector(np.array([1.0, 2.0]), np.array([2e3, 1e3]))

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            RssVector(np.array([np.inf, 2.0]), np.array([1e3, 2e3]))
