import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsim.fft import twiddle_lookup
from fdsim.fixedpoint import (DataType, FixedComplex, OverflowFlag,
                              ScalingPolicy, _rounding, butterfly, butterfly_array,
                              cmul, dequantize, pass_twiddles, quantize,
                              quantize_parts, sat_round)

ALL_DTYPES = list(DataType)


def zero(dtype):
    return FixedComplex(0, 0, dtype)


def one(dtype):
    """Largest representable positive real (~1.0; exact 1.0 does not exist)."""
    return FixedComplex(dtype.max_raw, 0, dtype)


def sat_round_array(values, width, shift, flag):
    """``sat_round`` over an integer array as the executor rounds: in place,
    at the array's own integer width."""
    return _rounding(values.dtype, width, shift)(values, None, flag)


class TestDataType:
    def test_widths_and_limits(self):
        assert DataType.C64.part_width == 32
        assert DataType.C32.part_width == 16
        assert DataType.C16.part_width == 8
        assert DataType.C64.max_points == 512
        assert DataType.C32.max_points == 1024
        assert DataType.C16.max_points == 2048

    def test_from_tag(self):
        assert DataType.from_tag("c32") is DataType.C32
        with pytest.raises(ValueError):
            DataType.from_tag("C128")

    @pytest.mark.parametrize("tag", [5, None, ["C64"], {"C64": 1}])
    def test_from_tag_rejects_non_strings(self, tag):
        with pytest.raises(ValueError):
            DataType.from_tag(tag)


class TestSatRound:
    def test_zero(self):
        assert sat_round(0, 8) == 0

    def test_q1_7_sum_saturates(self):
        # 0.75 + 0.75 in Q1.7 clips to the largest positive code
        assert sat_round(0b0110_0000 + 0b0110_0000, 8) == 127

    def test_q1_15_product_rescale(self):
        # 0.5 * 0.5 in Q1.15, rescaled back to Q1.15
        assert sat_round(0x4000 * 0x4000, 16, shift=15) == 0x2000

    def test_negative_saturation(self):
        assert sat_round(-200, 8) == -128

    def test_ties_to_even(self):
        assert sat_round(1, 8, shift=1) == 0      # 0.5 -> 0
        assert sat_round(3, 8, shift=1) == 2      # 1.5 -> 2
        assert sat_round(-1, 8, shift=1) == 0     # -0.5 -> 0
        assert sat_round(-3, 8, shift=1) == -2    # -1.5 -> -2
        assert sat_round(5, 8, shift=2) == 1      # 1.25 -> 1

    def test_sticky_flag(self):
        flag = OverflowFlag()
        sat_round(1000, 8, flag=flag)
        assert flag.seen
        sat_round(0, 8, flag=flag)
        assert flag.seen  # stays set

    @given(st.integers(-1 << 40, 1 << 40), st.integers(-1 << 40, 1 << 40),
           st.sampled_from([0, 1, 7, 15]))
    def test_monotonic(self, x, y, shift):
        if x > y:
            x, y = y, x
        assert sat_round(x, 16, shift) <= sat_round(y, 16, shift)


def _raw(dtype):
    return st.integers(dtype.min_raw, dtype.max_raw)


def _fixed(dtype):
    return st.builds(lambda r, i: FixedComplex(r, i, dtype),
                     _raw(dtype), _raw(dtype))


def _twiddles(dtype):
    """Every entry of the type's twiddle table, in order."""
    return [twiddle_lookup(dtype, dtype.max_points, k) for k in range(dtype.max_points // 2)]


class TestCmul:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_multiply_by_zero(self, dtype):
        x = FixedComplex(dtype.max_raw // 3, -dtype.max_raw // 5, dtype)
        assert cmul(x, zero(dtype)) == zero(dtype)

    @given(_fixed(DataType.C32))
    def test_near_identity(self, x):
        # one() is 1 - 2^-(w-1); each part may move by at most 1 ulp
        y = cmul(x, one(DataType.C32))
        assert abs(y.re - x.re) <= 1
        assert abs(y.im - x.im) <= 1

    def test_exact_quarter(self):
        a = quantize(0.5 + 0j, DataType.C32)
        b = quantize(0.5j, DataType.C32)
        got = cmul(a, b)
        assert (got.re, got.im) == (0, quantize(0.25j, DataType.C32).im)
        assert dequantize(got) == 0.25j

    def test_dtype_mismatch(self):
        with pytest.raises(ValueError):
            cmul(zero(DataType.C64), zero(DataType.C32))


class TestButterfly:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_symmetric_cancellation(self, dtype):
        a = quantize(0.25 + 0.125j, dtype)
        out0, out1 = butterfly(a, a, one(dtype),
                               ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE)
        # (a + ~1*a)/2 ~ a ; (a - ~1*a)/2 == 0
        assert abs(out0.re - a.re) <= 1 and abs(out0.im - a.im) <= 1
        assert out1 == zero(dtype)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_saturation_path(self, dtype):
        flag = OverflowFlag()
        half = quantize(0.5 + 0j, dtype)
        out0, out1 = butterfly(half, half, one(dtype), ScalingPolicy.NONE,
                               flag)
        assert out0.re == dtype.max_raw and out0.im == 0
        assert out1 == zero(dtype)
        assert flag.seen

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_halving_saturates_at_one_corner(self, dtype):
        # t = -j * (0, min) = (min, 0) exactly, and (max - min) / 2 is a tie
        # that rounds up to 2^(w-1): halving does not rule out saturation
        flag = OverflowFlag()
        a = FixedComplex(dtype.max_raw, 0, dtype)
        b = w = FixedComplex(0, dtype.min_raw, dtype)
        assert cmul(w, b, flag) == FixedComplex(dtype.min_raw, 0, dtype) and not flag.seen
        _, out1 = butterfly(a, b, w, ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE, flag)
        assert out1.re == dtype.max_raw and flag.seen

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_quarter_turn_oracle(self, dtype):
        # hand oracle: a + w*b and a - w*b with w = -i exactly representable
        a = quantize(0.25 + 0j, dtype)
        b = quantize(0.25 + 0j, dtype)
        w = FixedComplex(0, -dtype.scale, dtype)  # exactly -1j
        expect0 = 0.25 - 0.25j
        expect1 = 0.25 + 0.25j
        out0, out1 = butterfly(a, b, w, ScalingPolicy.NONE)
        assert dequantize(out0) == expect0
        assert dequantize(out1) == expect1

    @given(_fixed(DataType.C16), _fixed(DataType.C16))
    def test_involution_recovers_operands(self, a, b):
        # out0 + out1 == 2a and out0 - out1 == 2*(w*b), exact when unsaturated
        dtype = DataType.C16
        w = FixedComplex(0, -dtype.scale, dtype)
        if max(abs(a.re), abs(a.im), abs(b.re), abs(b.im)) > dtype.max_raw // 2 - 1:
            return
        out0, out1 = butterfly(a, b, w, ScalingPolicy.NONE)
        t = cmul(w, b)
        assert out0.re + out1.re == 2 * a.re
        assert out0.im + out1.im == 2 * a.im
        assert out0.re - out1.re == 2 * t.re
        assert out0.im - out1.im == 2 * t.im

    @given(_fixed(DataType.C32), _fixed(DataType.C32),
           st.floats(0, 2 * math.pi, allow_nan=False))
    @settings(max_examples=300)
    def test_no_saturation_when_scaled(self, a, b, phase):
        # |parts| <= 0.5 plus per-stage halving can never clip
        dtype = DataType.C32
        cap = dtype.scale // 2
        a = FixedComplex(max(min(a.re, cap), -cap), max(min(a.im, cap), -cap), dtype)
        b = FixedComplex(max(min(b.re, cap), -cap), max(min(b.im, cap), -cap), dtype)
        w = quantize(complex(math.cos(phase), math.sin(phase)), dtype)
        if w.re * w.re + w.im * w.im > dtype.scale ** 2:
            return
        flag = OverflowFlag()
        butterfly(a, b, w, ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE, flag)
        assert not flag.seen


class TestQuantize:
    def test_zero(self):
        assert quantize(0, DataType.C16) == zero(DataType.C16)

    def test_negative_one_exact(self):
        assert quantize(-1.0, DataType.C32).re == -(1 << 15)

    def test_rounding_oracle(self):
        # independent oracle: nearest Q1.31 integer to 0.3 * 2^31
        want = round(0.3 * 2 ** 31)
        assert quantize(0.3, DataType.C64).re == want

    def test_positive_one_saturates(self):
        assert quantize(1.0, DataType.C16).re == DataType.C16.max_raw

    @given(st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False),
           st.sampled_from(ALL_DTYPES))
    def test_round_trip_error_bound(self, re, im, dtype):
        q = quantize(complex(re, im), dtype)
        back = dequantize(q)
        bound = 2 ** -(dtype.part_width - 1) / 2 + 1e-15
        if re < 1.0 - bound and im < 1.0 - bound:  # saturation region excluded
            assert abs(back.real - re) <= bound
            assert abs(back.imag - im) <= bound

    @given(_fixed(DataType.C16))
    def test_idempotent_on_grid(self, x):
        assert quantize(dequantize(x), x.dtype) == x

    def test_out_of_range_raw_rejected(self):
        with pytest.raises(ValueError):
            FixedComplex(DataType.C16.max_raw + 1, 0, DataType.C16)


class TestArrayForms:
    """The executor's array arithmetic against the scalar definitions."""

    @staticmethod
    @st.composite
    def _rounding_cases(draw):
        width = draw(st.sampled_from([8, 16, 32]))
        shift = draw(st.sampled_from([0, 1, width - 1, width // 2]))
        # reaches both saturation rails, within the int64 the arrays hold
        limit = min(1 << (width + shift + 1), 1 << 62)
        tie = st.builds(lambda k: (k << shift) + (1 << shift >> 1),
                        st.integers(-limit >> shift, limit >> shift))
        rails = st.sampled_from([(1 << (width - 1 + shift)) + d for d in (-2, -1, 0, 1)]
                                + [-(1 << (width - 1 + shift)) + d for d in (-2, -1, 0, 1)])
        values = draw(st.lists(st.one_of(st.integers(-limit, limit), tie, rails,
                                         st.integers(-(1 << 62), 1 << 62)),
                               min_size=1, max_size=16))
        return width, shift, values

    @given(_rounding_cases())
    @settings(max_examples=100)
    def test_sat_round_array_matches_scalar(self, case):
        width, shift, values = case
        scalar_flag, array_flag = OverflowFlag(), OverflowFlag()
        want = [sat_round(v, width, shift, scalar_flag) for v in values]
        got = sat_round_array(np.array(values, dtype=np.int64), width, shift, array_flag)
        assert got.tolist() == want
        assert array_flag.seen == scalar_flag.seen

    @staticmethod
    def _check_butterflies(dtype, a, b, w, policy):
        scalar_flag, array_flag = OverflowFlag(), OverflowFlag()
        want = [butterfly(x, y, z, policy, scalar_flag) for x, y, z in zip(a, b, w)]

        def parts(samples):
            return [[s.re for s in samples], [s.im for s in samples]]

        got = one_pass(np.array(parts(a) + parts(b)), np.array(parts(w)), dtype,
                       policy, array_flag)
        assert got.reshape(4, -1).tolist() == [
            [o0.re for o0, _ in want], [o0.im for o0, _ in want],
            [o1.re for _, o1 in want], [o1.im for _, o1 in want]]
        assert array_flag.seen == scalar_flag.seen

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("policy", list(ScalingPolicy))
    def test_butterfly_array_extremes(self, dtype, policy):
        # every corner of the operand range against the largest twiddles,
        # including C64 parts at -2^31 where products reach 2^62
        table = _twiddles(dtype)
        biggest = max(table, key=lambda e: e.re * e.re + e.im * e.im)
        twiddles = {table[0], table[len(table) // 2], biggest,
                    FixedComplex(0, -dtype.scale, dtype)}
        corners = [dtype.min_raw, dtype.min_raw + 1, -1, 0, 1, dtype.max_raw]
        parts = [FixedComplex(r, i, dtype) for r in corners for i in corners]
        cases = [(x, y, w) for x in parts for y in parts for w in twiddles]
        self._check_butterflies(dtype, *zip(*cases), policy)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("policy", list(ScalingPolicy))
    def test_register_headroom(self, dtype, policy):
        # the largest product sums a register must hold: b at the negative
        # corner against W^0 and the twiddles at -45 and -135 degrees, whose
        # real or imaginary sum reaches sqrt(2) * 2^(2w-2); a register
        # narrower than twice the part width wraps here
        assert np.dtype(dtype.register).itemsize * 8 == 2 * dtype.part_width
        table = _twiddles(dtype)
        eighth = len(table) // 4
        a = FixedComplex(dtype.max_raw, dtype.max_raw, dtype)
        b = FixedComplex(dtype.min_raw, dtype.min_raw, dtype)
        for w in (table[0], table[eighth], table[3 * eighth]):
            self._check_butterflies(dtype, [a, b], [b, b], [w, w], policy)

    @pytest.mark.parametrize("register", ["<i2", "<i4", "<i8"])
    def test_sat_round_array_keeps_the_integer_type(self, register):
        # ties of both parities at shift 7, and both rails, rounded in place
        values = np.array([64, 192, -64, -192, 127 << 7, -129 << 7], dtype=register)
        flag = OverflowFlag()
        got = sat_round_array(values, 8, 7, flag)
        assert got is values and got.dtype == np.dtype(register)
        assert got.tolist() == [0, 2, 0, -2, 127, -128] and flag.seen

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @given(data=st.data())
    @settings(max_examples=15)
    def test_butterfly_array_matches_scalar(self, dtype, data):
        table = _twiddles(dtype)
        n = 2 * data.draw(st.integers(1, 10))     # a pass takes pairs in twos
        a = data.draw(st.lists(_fixed(dtype), min_size=n, max_size=n))
        b = data.draw(st.lists(_fixed(dtype), min_size=n, max_size=n))
        w = data.draw(st.lists(st.sampled_from(table), min_size=n, max_size=n))
        policy = data.draw(st.sampled_from(list(ScalingPolicy)))
        self._check_butterflies(dtype, a, b, w, policy)


def one_pass(operands, w, dtype, scaling, flag):
    """``butterfly_array`` as a plain butterfly over k pairs (k even):
    ``operands`` is the (4 x k) rows (a re, a im, b re, b im), ``w`` the
    (2 x k) twiddles; returns the (2 x 2 x k) outputs (out0, out1) x (re, im).
    One pass writes out0 of pair q to sample 2q and out1 to 2q + 1."""
    k = operands.shape[1]
    image = operands.astype(dtype.register).ravel()
    butterfly_array(image, [pass_twiddles(w.astype(dtype.register))], dtype, scaling, flag)
    # (half, part, pair in the half, out0/out1) -> (out0/out1, part, pair)
    return image.reshape(2, 2, k // 2, 2).transpose(3, 1, 0, 2).reshape(2, 2, k)


def _quantize_part(dtype):
    """Real or imaginary parts: in range, exact ties (k + 1/2)/scale of both
    signs, at and just past +-1, and huge finite values."""
    scale = dtype.scale
    tie = st.integers(-scale - 2, scale + 1).map(lambda k: (k + 0.5) / scale)
    rails = st.sampled_from([1.0, -1.0, np.nextafter(1.0, 0), np.nextafter(1.0, 2),
                             np.nextafter(-1.0, 0), np.nextafter(-1.0, -2),
                             1.0 - 0.5 / scale, -1.0 - 0.5 / scale])
    huge = st.floats(1e15, 1.7976931348623157e308) | st.floats(-1.7976931348623157e308, -1e15)
    return st.floats(-2, 2) | tie | rails | huge


def _quantize_cases():
    return st.one_of([
        st.tuples(st.just(dtype), st.lists(
            st.builds(complex, _quantize_part(dtype), _quantize_part(dtype)),
            min_size=1, max_size=12))
        for dtype in ALL_DTYPES])


class TestQuantizeParts:
    """The array quantizer against the scalar ``quantize``."""

    @staticmethod
    def _scalar(values, dtype):
        flag = OverflowFlag()
        out = []
        for z in values:
            try:
                q = quantize(z, dtype, flag)
            except OverflowError:
                # x * scale overflowed to inf; the array form saturates instead,
                # as the scalar form does for any other value past the rails
                q = quantize(complex(np.clip(z.real, -2, 2), np.clip(z.imag, -2, 2)),
                             dtype, flag)
            out.append(q)
        return out, flag.seen

    @given(_quantize_cases())
    @settings(max_examples=60)
    def test_matches_scalar(self, case):
        dtype, values = case
        want, want_flag = self._scalar(values, dtype)
        flag = OverflowFlag()
        got_re, got_im = quantize_parts(values, dtype, flag)
        assert got_re.dtype == got_im.dtype == np.int64
        assert got_re.tolist() == [q.re for q in want]
        assert got_im.tolist() == [q.im for q in want]
        assert flag.seen == want_flag

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_each_value_next_to_a_rail(self, dtype):
        # one value at a time, so no other sample decides whether the array
        # saturates: the ties at 1 - 2^-w and -1 - 2^-w round to the even
        # rail values 2^(w-1) (saturating) and -2^(w-1) (in range)
        edge = 0.5 / dtype.scale
        for v in (1 - edge, np.nextafter(1 - edge, 0), -1 - edge,
                  np.nextafter(-1 - edge, -2), 1.0, -1.0):
            for z in (complex(v, 0.25), complex(-0.25, v)):
                want, want_flag = self._scalar([z], dtype)
                flag = OverflowFlag()
                re, im = quantize_parts([z], dtype, flag)
                assert (re.tolist(), im.tolist()) == ([want[0].re], [want[0].im]), z
                assert flag.seen == want_flag, z

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_exact_ties_round_to_even(self, dtype):
        scale = dtype.scale
        values = [(k + 0.5) / scale for k in (-3, -2, -1, 0, 1, 2)]
        re, _ = quantize_parts(values, dtype)
        assert re.tolist() == [-2, -2, 0, 0, 2, 2]
        assert re.tolist() == [quantize(v, dtype).re for v in values]

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_huge_finite_values_saturate(self, dtype):
        values = [1.7976931348623157e308, -1e308 + 1e307j]
        with pytest.raises(OverflowError):
            quantize(values[0], dtype)
        flag = OverflowFlag()
        re, im = quantize_parts(values, dtype, flag)
        assert re.tolist() == [dtype.max_raw, dtype.min_raw]
        assert im.tolist() == [0, dtype.max_raw]
        assert flag.seen

    def test_in_range_leaves_flag_clear(self):
        flag = OverflowFlag()
        quantize_parts([0.5, -1.0, -0.25j], DataType.C16, flag)
        assert not flag.seen

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("imag", [False, True])
    def test_non_finite_rejected(self, bad, imag):
        z = complex(0.25, bad) if imag else complex(bad, 0.25)
        with pytest.raises(ValueError):
            quantize_parts([0.5, z], DataType.C32)
