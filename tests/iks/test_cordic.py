"""Tests for the CORDIC core."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.iks.cordic import (
    CordicSpec,
    atan2,
    cos,
    magnitude,
    sin,
    sin_cos,
    vector,
)
from repro.iks.fixedpoint import DEFAULT_FORMAT, FxFormat

FMT = DEFAULT_FORMAT
SPEC = CordicSpec(FMT)
TOL = 2e-3  # CORDIC converges to ~frac bits; allow a few ulps of slack

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestSpec:
    def test_default_iterations_track_format(self):
        assert CordicSpec(FMT).iterations == FMT.frac + 2

    def test_explicit_iterations(self):
        assert CordicSpec(FMT, iterations=8).iterations == 8

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            CordicSpec(FMT, iterations=-3)


class TestAtan2:
    @pytest.mark.parametrize(
        "y,x",
        [(1, 1), (1, -1), (-1, -1), (-1, 1), (0.5, 2), (3, -0.2), (0, 1), (2, 0)],
    )
    def test_known_quadrants(self, y, x):
        got = FMT.decode(atan2(SPEC, FMT.encode(y), FMT.encode(x)))
        assert abs(got - math.atan2(y, x)) < TOL

    def test_origin_returns_zero(self):
        assert atan2(SPEC, FMT.encode(0.0), FMT.encode(0.0)) == 0

    @given(coords, coords)
    def test_matches_math_atan2(self, y, x):
        if abs(y) < 0.01 and abs(x) < 0.01:
            return  # quantization dominates near the origin
        got = FMT.decode(atan2(SPEC, FMT.encode(y), FMT.encode(x)))
        expected = math.atan2(y, x)
        # Results near the +/-pi branch cut may land on either side.
        delta = abs(got - expected)
        delta = min(delta, abs(delta - 2 * math.pi))
        assert delta < 5e-3

    @given(coords, coords)
    def test_antisymmetric_in_y(self, y, x):
        if math.hypot(x, y) < 0.1:
            return  # quantization dominates near the origin
        if x <= 0:
            return  # antisymmetry holds off the branch cut only
        plus = FMT.decode(atan2(SPEC, FMT.encode(y), FMT.encode(x)))
        minus = FMT.decode(atan2(SPEC, FMT.encode(-y), FMT.encode(x)))
        assert abs(plus + minus) < 2 * TOL


class TestMagnitude:
    @pytest.mark.parametrize("x,y", [(3, 4), (1, 0), (0, 2), (-3, 4), (6, -8)])
    def test_known_triangles(self, x, y):
        got = FMT.decode(magnitude(SPEC, FMT.encode(x), FMT.encode(y)))
        assert abs(got - math.hypot(x, y)) < TOL * max(1.0, math.hypot(x, y))

    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    def test_matches_hypot(self, x, y):
        got = FMT.decode(magnitude(SPEC, FMT.encode(x), FMT.encode(y)))
        assert abs(got - math.hypot(x, y)) < 0.02 * max(1.0, math.hypot(x, y))


class TestSinCos:
    @given(angles)
    def test_matches_math(self, angle):
        s, c = sin_cos(SPEC, FMT.encode(angle))
        assert abs(FMT.decode(s) - math.sin(angle)) < TOL
        assert abs(FMT.decode(c) - math.cos(angle)) < TOL

    @given(angles)
    def test_pythagorean_identity(self, angle):
        s, c = sin_cos(SPEC, FMT.encode(angle))
        norm = FMT.decode(s) ** 2 + FMT.decode(c) ** 2
        assert abs(norm - 1.0) < 4 * TOL

    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_angle_folding_beyond_pi(self, angle):
        s = FMT.decode(sin(SPEC, FMT.encode(angle)))
        c = FMT.decode(cos(SPEC, FMT.encode(angle)))
        assert abs(s - math.sin(angle)) < 4 * TOL
        assert abs(c - math.cos(angle)) < 4 * TOL


class TestVectoring:
    def test_vector_drives_y_to_zero(self):
        x, z = vector(SPEC, FMT.encode(3.0), FMT.encode(4.0))
        # The residual angle accumulator equals atan2(4, 3).
        assert abs(FMT.decode(z) - math.atan2(4, 3)) < TOL

    def test_determinism(self):
        a = vector(SPEC, FMT.encode(1.25), FMT.encode(-0.5))
        b = vector(SPEC, FMT.encode(1.25), FMT.encode(-0.5))
        assert a == b

    def test_different_formats_are_independent(self):
        small = CordicSpec(FxFormat(width=16, frac=8))
        got = small.fmt.decode(
            atan2(small, small.fmt.encode(1.0), small.fmt.encode(1.0))
        )
        assert abs(got - math.pi / 4) < 0.02
