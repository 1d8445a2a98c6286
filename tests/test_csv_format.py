"""The vectorised ``%.12e`` row kernel against Python's per-value formatting.

``cli._format_csv_rows`` renders rows of five doubles with NumPy and hands
exact decimal half-way values and odd-width rows to printf. Every test here
feeds it row blocks of at most ``_CSV_BLOCK`` rows and requires the bytes
that ``format(v, ".12e")`` gives value by value.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su4rabi.cli import _CSV_BLOCK, _POW10, _POW10_LO, _POW10_MIN, _format_csv_rows, main

SEPARATORS = (",", ",", ",", ",", "\n")


def reference_rows(block):
    """The row text of a per-value ``format(v, ".12e")`` loop."""
    seps = itertools.cycle(SEPARATORS)
    return "".join(format(v, ".12e") + next(seps) for v in block.ravel().tolist()).encode()


def as_rows(values, pad=0.5):
    """Values as an (n, 5) block, the last row padded with ``pad``."""
    values = np.asarray(values, dtype=float).ravel()
    return np.concatenate([values, np.full(-values.size % 5, pad)]).reshape(-1, 5)


def assert_rows_exact(values):
    """Format ``values`` block by block; name the first row that differs.

    Returns how many values printf wrote.
    """
    rows = as_rows(values)
    fallback = 0
    for start in range(0, len(rows), _CSV_BLOCK):
        block = rows[start:start + _CSV_BLOCK]
        got, count = _format_csv_rows(block)
        fallback += count
        want = reference_rows(block)
        if got != want:
            for i, (g, w) in enumerate(zip(got.splitlines(), want.splitlines())):
                assert g == w, f"row {start + i} {block[i].tolist()!r}"
            assert got == want
    return fallback


class TestAgainstFormat:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_double(self, values):
        # nan, +-inf, +-0.0 and subnormals included
        assert_rows_exact(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1e-99, max_value=1e99), min_size=1, max_size=40))
    def test_fast_range(self, values):
        assert_rows_exact(values)

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        assert_rows_exact(np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ]))

    def test_decade_carry_boundaries(self):
        # (1e13 - 1/2) 10^(E-12): the 13 digits round up to the next decade
        edges = np.array([float(f"9.9999999999995e{e}") for e in range(-110, 110)])
        down = np.nextafter(edges, 0.0)
        up = np.nextafter(edges, np.inf)
        assert_rows_exact(np.concatenate([
            edges, down, up, np.nextafter(down, 0.0), np.nextafter(up, np.inf),
        ]))

    @pytest.mark.parametrize("miss", [-1.0, 1.0])
    def test_decade_correction(self, monkeypatch, miss):
        # floor(log10(x)) can miss the decade next to a power of ten; one
        # correction step must repair a miss of one in either direction
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + miss)
        rng = np.random.default_rng(7)
        powers = np.array([float(f"1e{k}") for k in range(-99, 99)])
        assert_rows_exact(np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            rng.uniform(1.0, 10.0, 2000) * 10.0 ** rng.integers(-99, 99, 2000),
        ]))

    def test_decimal_near_ties(self):
        # d.dddddddddddd5 10^E and its two neighbours: the nearest double lies
        # within an ulp of the half-way value, where only the exact residual
        # x 10^(12-E) - rint(y) tells the direction of rounding
        rng = np.random.default_rng(1406)
        texts = [f"{m}5e{e - 13}" for e in range(-99, 99)
                 for m in rng.integers(10**12, 10**13, 20).tolist()]
        ties = np.array([float(t) for t in texts])
        fallback = assert_rows_exact(np.concatenate([
            ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
        ]))
        # printf gets exactly the values that are decimal half-way cases
        exact = sum(Fraction(v) == Fraction(t) for v, t in zip(ties.tolist(), texts))
        assert fallback == exact

    def test_dyadic_ties(self):
        # k 2^-m with odd k: many are exact half-way cases at the 13th digit
        k = np.arange(1, 2048, 2, dtype=float)
        m = np.arange(1, 64)
        values = (k[:, None] * np.ldexp(1.0, -m)[None, :]).ravel()
        assert_rows_exact(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20141)
        lo, hi = np.array([1e-40, 1e3]).view(np.int64)
        # positive doubles order like their bit patterns
        values = rng.integers(lo, hi, size=1_000_000, endpoint=True).view(np.float64)
        assert_rows_exact(values)


class TestPowerTables:
    def test_low_parts_are_rounded_exact_differences(self):
        for i, (power, low) in enumerate(zip(_POW10.tolist(), _POW10_LO.tolist())):
            k = i + _POW10_MIN
            assert low == float(Fraction(10) ** k - Fraction(power)), k
            if 0 <= k <= 22:  # 10^k is a double
                assert low == 0.0, k


class TestFastPath:
    """The kernel, not printf, renders ordinary traces."""

    def test_figure_traces_rarely_fall_back(self, tmp_path, monkeypatch):
        calls = []

        def counting(block):
            text, fallback = _format_csv_rows(block)
            calls.append((block.size, fallback))
            return text, fallback

        monkeypatch.setattr("su4rabi.cli._format_csv_rows", counting)
        assert main(["figure", "7", "--out-dir", str(tmp_path)]) == 0
        values = sum(size for size, _ in calls)
        fallback = sum(count for _, count in calls)
        assert values == 4 * 5001 * 5
        # near-ties are settled by the exact residual; no trace value is a
        # decimal half-way case
        assert fallback == 0, f"{fallback} of {values} values went to printf"

    def test_plain_rows_stay_on_the_kernel(self):
        block = as_rows([0.0, 0.25, 1.0, 3.0, 7.5e-13, 123.0, 0.1, 0.2, 0.3, 1e-99])
        assert _format_csv_rows(block)[1] == 0

    def test_odd_values_fall_back(self):
        # an exact half-way value goes to printf alone, a near-tie next to it
        # stays on the kernel, and a width change takes the whole row
        plain = [0.25, 0.5, 0.75, 1.0]
        cases = (
            (2.0 ** -20, 1), (np.nextafter(2.0 ** -20, 1.0), 0),
            (1e300, 5), (float("nan"), 5), (-0.0, 5),
        )
        for value, expected in cases:
            block = np.array([plain + [0.125], [value] + plain, plain + [0.375]])
            text, fallback = _format_csv_rows(block)
            assert fallback == expected, value
            assert text == reference_rows(block)
        # a half-way value in a wide row is written once, with its row
        block = np.array([plain + [0.125], [2.0 ** -20, float("nan")] + plain[1:]])
        assert _format_csv_rows(block) == (reference_rows(block), 5)
