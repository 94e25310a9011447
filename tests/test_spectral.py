import math

import numpy as np
import pytest

import spectral_reference
from spectral_reference import periodogram
from vlcloc import config, experiment, fusion
from vlcloc.spectral import (DB_FLOOR, FingerprintDB, build_fingerprints,
                             from_db, load_fingerprints, save_fingerprints,
                             to_db)


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


def psd(samples):
    """Periodogram of one block, through the batched reference function."""
    return periodogram(np.asarray(samples, dtype=float)[np.newaxis, :])[0]


def rss_db(samples, rate, tones):
    """RSS extraction of one block through build_fingerprints, in dB."""
    return build_fingerprints([samples], [[0.0, 0.0]], len(samples), tones, rate).rss[0, 0]


class TestPeriodogram:
    def test_constant_input(self):
        n, c = 64, 1.7
        est = psd(np.full(n, c))
        assert est[0] == pytest.approx(n * c * c, rel=1e-12)
        np.testing.assert_allclose(est[1:], 0.0, atol=1e-9)

    def test_on_bin_cosine_against_direct_dft(self):
        n, k0, amp = 64, 5, 0.8
        t = np.arange(n)
        y = amp * np.cos(2.0 * math.pi * k0 * t / n)
        est = psd(y)
        oracle = np.abs(dft_oracle(y)) ** 2 / n
        np.testing.assert_allclose(est, oracle, rtol=1e-9, atol=1e-9)
        assert est[k0] == pytest.approx(n * amp**2 / 4.0, rel=1e-9)

    def test_random_block_against_direct_dft(self):
        rng = np.random.default_rng(7)
        blocks = rng.normal(size=(3, 48))
        est = periodogram(blocks)
        for b, y in enumerate(blocks):  # every row on its own
            oracle = np.abs(dft_oracle(y)) ** 2 / len(y)
            np.testing.assert_allclose(est[b], oracle, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", [16, 256, 2000])
    def test_parseval(self, n):
        rng = np.random.default_rng(n)
        y = rng.normal(size=n)
        est = psd(y)
        energy = math.fsum(v * v for v in y)
        assert est.sum() == pytest.approx(energy, rel=1e-12)

    def test_bin_hz_resolved_with_rate(self):
        # N = 100 at 4 MHz: bins are 40 kHz apart
        db = FingerprintDB([[0.0, 0.0]], np.zeros((1, 1, 2)), [4e4, 1e5], 100, 4e6)
        assert db.tone_alignment() == [(4e4, 1, True), (1e5, 2, False)]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="fft_len must be at least 2"):
            build_fingerprints([np.ones(4)], [[0, 0]], 1, [1e3], 4e6)
        with pytest.raises(ValueError, match="fewer than one"):
            build_fingerprints([[]], [[0, 0]], 2, [1e3], 4e6)


class TestExtractRss:
    """RSS extraction: the tone-bin DFT's window max, then to_db."""

    def test_on_bin_tone_db_value(self):
        n, rate, amp = 2000, 4e6, 1e-3
        k0 = 400  # 800 kHz
        t = np.arange(n) / rate
        y = amp * np.cos(2.0 * math.pi * 800e3 * t)
        rss = rss_db(y, rate, [800e3])
        expected = 10.0 * math.log10(n * amp**2 / 4.0)
        assert rss[0] == pytest.approx(expected, abs=1e-9)
        assert psd(y)[k0] == pytest.approx(n * amp**2 / 4.0, rel=1e-9)

    def test_doubling_fft_len_adds_3dB(self):
        rate, amp = 4e6, 5e-4
        vals = []
        for n in (2000, 4000):
            t = np.arange(n) / rate
            y = amp * np.cos(2.0 * math.pi * 800e3 * t)
            vals.append(rss_db(y, rate, [800e3])[0])
        assert vals[1] - vals[0] == pytest.approx(10.0 * math.log10(2.0), abs=1e-6)

    def test_on_bin_tone_power_exact_at_large_n(self):
        # twiddle angles from the exact k * j mod N keep the power of a
        # noise-free on-bin tone within ~1e-15 of N a^2 / 4 at N = 1e5;
        # unreduced angles of up to 3e5 rad miss by ~2e-12
        n, k0, amp = 100_000, 49_997, 0.5
        y = amp * np.cos(2.0 * math.pi * ((k0 * np.arange(n)) % n) / n)
        rss = rss_db(y, 4e6, [k0 * 4e6 / n])
        assert from_db(rss[0]) == pytest.approx(n * amp**2 / 4.0, rel=1e-13)

    def test_zero_signal_hits_floor(self):
        assert rss_db(np.zeros(256), 4e6, [800e3])[0] == DB_FLOOR

    def test_tone_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            rss_db(np.ones(256), 4e6, [2.5e6])

    def test_off_bin_tone_found_within_one_bin(self):
        n, rate = 1000, 4e6
        f = 801.5e3  # lands between bins at N=1000 (bin width 4 kHz)
        t = np.arange(n) / rate
        y = np.cos(2.0 * math.pi * f * t)
        nominal = round(f * n / rate)
        window = psd(y)[nominal - 1 : nominal + 2]
        assert from_db(rss_db(y, rate, [f])[0]) == pytest.approx(window.max(), rel=1e-12)

    def test_each_row_takes_its_own_window_max(self):
        # tone 4 Hz at N = 16, 16 Hz sampling: nominal bin 4, window bins 3..5;
        # a cosine of amplitude a on bin k has power N a^2 / 4 there
        j = np.arange(16)
        rows = [1.0 * np.cos(2.0 * math.pi * 4 * j / 16) + 3.0 * np.cos(2.0 * math.pi * 7 * j / 16),
                2.0 * np.cos(2.0 * math.pi * 3 * j / 16) + 1.0 * np.cos(2.0 * math.pi * 5 * j / 16)]
        db = build_fingerprints([np.concatenate(rows)], [[0.0, 0.0]], 16, [4.0], 16.0)
        np.testing.assert_allclose(from_db(db.rss[0]), [[4.0], [16.0]], rtol=1e-12)


class TestToneBinDftAgainstFullFft:
    """build_fingerprints' powers against the full-FFT periodogram oracle in
    spectral_reference, in linear units."""

    @staticmethod
    def assert_matches_oracle(streams, n, rate, tones, rtol=1e-9):
        db = build_fingerprints(streams, [[0.0, float(g)] for g in range(len(streams))],
                                n, tones, rate)
        for g, stream in enumerate(streams):
            want = spectral_reference.stream_peaks(stream, n, rate, tones)
            np.testing.assert_allclose(from_db(db.rss[g]), want, rtol=rtol, atol=0)

    def test_on_bin_tone(self):
        y = synth_tone_stream(3, 2000, 4e6, [800e3, 950e3], [1e-3, 4e-4])
        self.assert_matches_oracle([y], 2000, 4e6, [800e3, 950e3])

    def test_off_bin_tone(self):
        # 801.5 kHz at N = 1000 sits 0.375 bins above bin 200: every window
        # bin carries leakage, including that of the DC term and the image
        y = synth_tone_stream(4, 1000, 4e6, [801.5e3], [1.0])
        self.assert_matches_oracle([y], 1000, 4e6, [801.5e3])

    @pytest.mark.parametrize("n", [1000, 999])
    def test_windows_clipped_at_dc_and_nyquist(self, n):
        # 1 kHz rounds to bin 0 (window 0..1); 2 MHz is Nyquist, whose window
        # is clipped at bin N // 2; 1.996 MHz rounds to the bin below it
        tones = [1e3, 1.996e6, 2e6]
        y = synth_tone_stream(3, n, 4e6, tones, [1e-2, 3e-3, 2e-3], noise=1e-3, seed=n)
        self.assert_matches_oracle([y], n, 4e6, tones)

    def test_noisy_random_blocks(self):
        rng = np.random.default_rng(21)
        tones = [800e3, 850e3, 900e3, 950e3]
        streams = [synth_tone_stream(7, 2000, 4e6, tones, rng.uniform(1e-4, 1e-2, size=4),
                                     noise=4.5e-3, seed=s) for s in range(3)]
        streams.append(rng.normal(size=7 * 2000 + 123))  # pure noise, ragged tail
        self.assert_matches_oracle(streams, 2000, 4e6, tones)


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
            db.rss.mean(axis=1), shuffled.rss.mean(axis=1), rtol=0, atol=1e-12)

    def test_tone_alignment_report(self):
        n = 400
        stream = synth_tone_stream(1, n, self.rate, self.tones, [1e-3, 1e-3])
        db = build_fingerprints([stream], [[0, 0]], n, self.tones, self.rate)
        # 800 kHz * 400 / 4 MHz = 80 exactly; 900 kHz -> 90 exactly
        assert db.tone_alignment() == [(800e3, 80, True), (900e3, 90, True)]


def pipeline_mean_fingerprints(rss, split):
    """The per-grid mean fingerprints run_experiment hands nearest_mean_labels
    to select GD-LS weights (rss-match uses the same labels), for a DB of
    these (4, Q, 4) RSS values on a 2 x 2 grid."""
    cfg = config.benchmark_config()
    cfg["geometry"]["grid"]["q"] = 2
    cfg["spectral"]["blocks_per_grid"] = rss.shape[1]
    cfg["split"] = dict(zip(("train", "offline", "online"), split))
    cfg["classifiers"] = {"order": ["knn"], "knn": {"k": 1}}
    cfg["run"]["methods"] = ["gd-ls"]
    plan = config.plan_from_config(cfg)
    db = FingerprintDB(plan.grid_coords, rss, plan.tones, plan.fft_len, plan.channel.sample_rate)
    seen = []

    def spy(queries, mean_fps):
        seen.append(mean_fps)
        return nearest(queries, mean_fps)

    nearest = fusion.nearest_mean_labels
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "nearest_mean_labels", spy)
        experiment.run_experiment(plan, db)
    assert len(seen) == 1
    return seen[0]


class TestMeanFingerprints:
    def test_single_block_equals_vector(self):
        rss = np.arange(80.0).reshape(4, 5, 4)
        # Q = 5 at 0.2 / 0.4 / 0.4: block 0 is the only train block
        np.testing.assert_array_equal(pipeline_mean_fingerprints(rss, (0.2, 0.4, 0.4)),
                                      rss[:, 0, :])

    def test_random_against_columnwise_average(self):
        rng = np.random.default_rng(5)
        rss = rng.normal(size=(4, 10, 4)) * 10.0 - 30.0
        expected = np.empty((4, 4))
        for g in range(4):
            for m in range(4):
                expected[g, m] = math.fsum(rss[g, :6, m]) / 6.0  # the 6 train blocks only
        np.testing.assert_allclose(pipeline_mean_fingerprints(rss, (0.6, 0.2, 0.2)), expected,
                                   rtol=1e-14)


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

    def test_bulk_writer_equals_the_per_value_formatter(self, tmp_path):
        def fmt(x):
            return format(x, ".9g")

        awkward = np.array([-0.0, 1e-10, 1e21, -7.0, 3.0, DB_FLOOR, 1.0 / 3.0, -123456789.5])
        rss = np.resize(awkward, (2, 3, 4))
        grid = np.array([[-0.0, 1e-10], [1e21, 2.0]])
        db = FingerprintDB(grid, rss, [800e3, 850e3, 900.5e3, 1e6], 2000, 4e6)
        lines = [f"2 3 4 2000 {fmt(db.sample_rate)}", " ".join(fmt(f) for f in db.tones)]
        for g in range(2):
            lines.append(" ".join(fmt(c) for c in grid[g]))
            lines.extend(" ".join(fmt(v) for v in rss[g, q]) for q in range(3))
        save_fingerprints(db, tmp_path / "fp.txt")
        assert (tmp_path / "fp.txt").read_text() == "\n".join(lines) + "\n"
        assert "-0 1e-10" in lines[2] and "1e+21" in lines[6] and "-300" in lines[4]

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


class TestFingerprintDbValidation:
    def test_frequencies_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FingerprintDB([[0.0, 0.0]], np.zeros((1, 1, 2)), [2e3, 1e3], 8, 1e4)

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError, match="RSS of grid 0, block 0, tone 0 is inf"):
            FingerprintDB([[0.0, 0.0]], [[[np.inf, 2.0]]], [1e3, 2e3], 8, 1e4)

    def test_non_finite_geometry_reproducer_rejected(self):
        with pytest.raises(ValueError, match="grid coordinates must be finite, got nan"):
            FingerprintDB([[0, np.nan]], np.zeros((1, 2, 2)), [np.nan, 1e3], 8, np.nan)

    @pytest.mark.parametrize("kwargs, message", [
        ({"grid_coords": [[0.0, np.inf]]}, "grid coordinates must be finite, got inf"),
        ({"tones": [np.nan, 2e3]}, "tones must be finite and positive, got nan Hz"),
        ({"tones": [1e3, np.inf]}, "tones must be finite and positive, got inf Hz"),
        ({"tones": [0.0, 2e3]}, "tones must be finite and positive, got 0.0 Hz"),
        ({"tones": [-1e3, 2e3]}, "tones must be finite and positive, got -1000.0 Hz"),
        ({"sample_rate": np.nan}, "sample_rate must be finite and positive, got nan"),
        ({"sample_rate": np.inf}, "sample_rate must be finite and positive, got inf"),
        ({"sample_rate": -4e6}, "sample_rate must be finite and positive, got -4000000.0"),
        ({"sample_rate": 0.0}, "sample_rate must be finite and positive, got 0.0"),
        ({"fft_len": 1}, "fft_len must be at least 2, got 1"),
    ])
    def test_each_bad_geometry_field_named(self, kwargs, message):
        fields = {"grid_coords": [[0.0, 0.0]], "rss": np.zeros((1, 2, 2)),
                  "tones": [1e3, 2e3], "fft_len": 8, "sample_rate": 1e4} | kwargs
        with pytest.raises(ValueError, match=message):
            FingerprintDB(**fields)
