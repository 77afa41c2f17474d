import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonrc.signals import (
    desired_signal,
    gen_bits,
    header_bits,
    modulate,
)


class TestGenBits:
    def test_empty(self):
        assert len(gen_bits(0, seed=7)) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            gen_bits(-1, seed=0)

    def test_same_seed_same_sequence(self):
        a = gen_bits(10010, seed=123)
        b = gen_bits(10010, seed=123)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = gen_bits(1000, seed=1)
        b = gen_bits(1000, seed=2)
        assert not np.array_equal(a, b)

    def test_uint8_array(self):
        bits = gen_bits(100, seed=3)
        assert bits.dtype == np.uint8 and bits.shape == (100,)
        assert set(np.unique(bits)) <= {0, 1}

    def test_balanced_ones_fraction(self):
        # Binomial bound: for n = 1e6 the fraction of ones leaves
        # [0.49, 0.51] with probability far below 1e-8.
        bits = gen_bits(10**6, seed=99)
        frac = bits.mean()
        assert 0.49 <= frac <= 0.51


class TestModulate:
    def test_single_one_no_smoothing(self):
        sig = modulate([1], 10e9, 24, p_node=0.025, smoothing=None)
        assert len(sig) == 24
        assert np.allclose(sig.samples, np.sqrt(0.025))
        assert np.isclose(np.sqrt(0.025), 0.15811, atol=1e-5)

    def test_zero_bits_zero_signal(self):
        sig = modulate([0, 0], 5e9, 24, p_node=0.025)
        assert np.all(sig.samples == 0)

    def test_output_length(self):
        for n, spb in [(1, 1), (7, 3), (100, 24)]:
            bits = gen_bits(n, seed=n)
            assert len(modulate(bits, 1e9, spb, 0.01)) == n * spb

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="bits may contain only the symbols 0 and 1"):
            modulate([0, 2, 1], 1e9, 24, 0.01)

    @pytest.mark.parametrize("bitrate", [0.0, -1e9, float("nan")])
    def test_non_positive_bitrate_rejected(self, bitrate):
        with pytest.raises(ValueError, match="bitrate must be positive"):
            modulate([1, 0], bitrate, 24, 0.01)

    def test_step_response_within_one_bit(self):
        # First-order response with the pole at the bit frequency rises to
        # 1 - exp(-2*pi) of the final value after one bit period.
        spb = 24
        sig = modulate([1] * 4, 10e9, spb, p_node=0.025, smoothing="auto")
        level = np.sqrt(0.025)
        end_of_first_bit = sig.samples[spb - 1].real
        assert end_of_first_bit >= 0.95 * level
        assert np.isclose(end_of_first_bit, (1 - np.exp(-2 * np.pi)) * level, rtol=1e-9)

    def test_linear_in_sqrt_power(self):
        bits = gen_bits(64, seed=5)
        lo = modulate(bits, 10e9, 24, p_node=0.02)
        hi = modulate(bits, 10e9, 24, p_node=0.04)
        assert np.allclose(hi.samples, np.sqrt(2.0) * lo.samples, rtol=1e-13)

    def test_sample_period(self):
        sig = modulate([1, 0], 8e9, 16, 0.01)
        assert sig.sample_period == 1.0 / 8e9 / 16


class TestHeaderBits:
    def test_parses_a_string(self):
        bits = header_bits("1101")
        assert bits.dtype == np.uint8
        assert bits.tolist() == [1, 1, 0, 1]

    @pytest.mark.parametrize(
        "text, match",
        [("", "at least one bit"), ("1x1", "invalid header string"), ("121", "only the symbols 0 and 1")],
        ids=["empty", "letter", "digit"],
    )
    def test_bad_strings_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            header_bits(text)


class TestDesiredSignal:
    def test_explicit_pattern(self):
        d = desired_signal([1, 0, 1, 0, 1], "101")
        assert d.dtype == np.uint8
        assert d.tolist() == [0, 0, 1, 0, 1]

    def test_all_zero_stream(self):
        d = desired_signal([0] * 32, "101")
        assert not d.any()

    def test_stream_shorter_than_header_rejected(self):
        with pytest.raises(ValueError):
            desired_signal([1, 0], "101")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="invalid header string"):
            desired_signal([1, 0, 1], "1x1")

    def test_all_zero_header_matches_zero_runs(self):
        d = desired_signal([0, 0, 0, 1, 0, 0, 0], "000")
        assert d.tolist() == [0, 0, 1, 0, 0, 0, 1]

    @given(
        bits=st.lists(st.integers(0, 1), min_size=3, max_size=500),
        header=st.lists(st.integers(0, 1), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_substring_scan(self, bits, header, seed):
        if len(bits) < len(header):
            return
        d = desired_signal(np.asarray(bits), "".join(map(str, header)))
        m = len(header)
        naive = sum(
            1 for n in range(m - 1, len(bits)) if bits[n - m + 1 : n + 1] == header
        )
        assert int(d.sum()) == naive

    def test_substring_scan_oracle_long_stream(self):
        bits = gen_bits(10_000, seed=2718)
        raw = bits.tolist()
        for header in ("101", "000", "1101"):
            d = desired_signal(bits, header)
            m = len(header)
            window = [int(c) for c in header]
            naive = sum(1 for n in range(m - 1, len(raw)) if raw[n - m + 1 : n + 1] == window)
            assert int(d.sum()) == naive
