"""Reference pins: the Cephes ports in ``repro.special`` against scipy.

The simulation evaluates the standard-normal quantile (OF's delay
quantile) and erfc (the link model's PRR curve) through
``repro.special`` so that no simulation path imports scipy. Every PRR
matrix, topology fingerprint and store key depends on these results, so
they must equal ``scipy.special.ndtri`` / ``scipy.special.erfc`` bit for
bit: on dense grids, on generated floats and on both sides of every
branch point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special as sps

from repro.special import erfc, ndtri

#: Cephes' erfc underflow point: a * a > MAXLOG, |a| > 26.64.
SQRT_MAXLOG = math.sqrt(7.09782712893383996843e2)
EXP_M2 = math.exp(-2.0)
#: ndtri switches tail expansions where sqrt(-2 log y) = 8.
EXP_M32 = math.exp(-32.0)
TINY = (5e-324, 1e-310, 2.2250738585072014e-308)


def _around(*points):
    """Each point with its two neighbouring doubles."""
    return [v for p in points
            for v in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


def assert_bitwise(mine, ref):
    """Equal bit for bit (the sign of zero included); NaN matches NaN."""
    mine = np.asarray(mine, dtype=np.float64).ravel()
    ref = np.asarray(ref, dtype=np.float64).ravel()
    assert mine.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(mine), nan)
    bad = np.flatnonzero(mine[~nan].view(np.int64) != ref[~nan].view(np.int64))
    assert bad.size == 0, (
        f"{bad.size} mismatches, first at {ref[~nan][bad[:3]]!r} "
        f"vs {mine[~nan][bad[:3]]!r}")


class TestNdtri:
    def _check(self, ys):
        ys = np.asarray(ys, dtype=np.float64)
        mine = [ndtri(y) for y in ys.tolist()]
        assert all(type(v) is float for v in mine)
        assert_bitwise(mine, sps.ndtri(ys))

    def test_dense_grid(self):
        self._check(np.linspace(0.0, 1.0, 100_001))

    def test_tails(self):
        # Log-uniform lower tail down to 1e-300 (both tail expansions)
        # and 1 - 10^[-16, 0] (the reflected branch).
        self._check(10.0 ** np.linspace(-300.0, 0.0, 20_001))
        self._check(1.0 - 10.0 ** np.linspace(-16.0, 0.0, 20_001))

    @pytest.mark.parametrize("y", [
        0.0, -0.0, 1.0, 0.5, 0.8, 0.9, 0.95, 0.99,
        *_around(EXP_M2, 1.0 - EXP_M2, 0.13533528323661269189, EXP_M32),
        np.nextafter(1.0, 0.0), *TINY,
        -1e-300, -0.1, 1.1, 2.0, math.inf, -math.inf, math.nan,
    ])
    def test_edge_cases(self, y):
        self._check([y])

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(0.0, 1.0) | st.floats(allow_nan=True,
                                           allow_infinity=True))
    def test_generated(self, y):
        self._check([y])

    def test_of_quantile(self):
        # OF's default gate quantile, the value DESIGN §6 quotes.
        assert ndtri(0.8) == 0.8416212335729143


class TestErfc:
    def test_dense_grid(self):
        xs = np.linspace(-30.0, 30.0, 600_001)
        assert_bitwise(erfc(xs), sps.erfc(xs))

    def test_magnitudes(self):
        mags = 10.0 ** np.linspace(-320.0, 3.0, 50_001)
        for xs in (mags, -mags):
            assert_bitwise(erfc(xs), sps.erfc(xs))

    def test_link_model_range(self):
        # snr_to_prr's argument: sqrt of the linear SNR over -40..40 dB.
        xs = np.sqrt(10.0 ** (np.linspace(-40.0, 40.0, 100_001) / 10.0))
        assert_bitwise(erfc(xs), sps.erfc(xs))

    @pytest.mark.parametrize("x", [
        0.0, -0.0,
        *_around(1.0, -1.0, 8.0, -8.0, SQRT_MAXLOG, -SQRT_MAXLOG),
        26.64, 26.65, -26.64, -26.65,
        *TINY, *(-v for v in TINY),
        math.inf, -math.inf, math.nan,
    ])
    def test_edge_cases(self, x):
        assert_bitwise(erfc([x]), sps.erfc([x]))

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(0, 64),
                  elements=st.floats(allow_nan=True, allow_infinity=True)
                  | st.floats(-30.0, 30.0)))
    def test_generated(self, xs):
        assert_bitwise(erfc(xs), sps.erfc(xs))

    def test_shapes(self):
        assert erfc(0.5).shape == ()
        assert erfc(0.5) == sps.erfc(0.5)
        assert erfc([]).shape == (0,)
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert erfc(grid).shape == (3, 4)
        assert_bitwise(erfc(grid), sps.erfc(grid))
        assert_bitwise(erfc(grid.T), sps.erfc(grid.T))

    def test_uses_no_numpy_exp(self, monkeypatch):
        # NumPy's SIMD exp is not bit-identical to the C library's exp
        # that Cephes calls, so the port must not route through it.
        xs = np.linspace(-30.0, 30.0, 6001)
        ref = sps.erfc(xs)
        monkeypatch.delattr(np, "exp")
        mine = erfc(xs)
        monkeypatch.undo()
        assert_bitwise(mine, ref)
