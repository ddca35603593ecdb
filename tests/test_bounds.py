"""Bound constants: plug-in oracles, limits, parameter checks and monotonicity."""

import inspect
import math
import sys

import numpy as np
import pytest

from opvol import bounds
from opvol.bounds import (
    bound_cpp_diff,
    bound_forward,
    bound_pathwise,
    bound_pricing,
    bound_sqrt,
    bound_tensor_jump,
    bound_tensor_jump_trace,
    bound_variance_generator,
    bound_variance_generator_tail,
    bound_variance_jumps,
    cp_second_moment,
    cp_second_moment_bound,
)

# every bound formula of opvol.bounds, each with the parameters it reads
BOUNDS = (
    bound_forward,
    bound_variance_jumps,
    bound_cpp_diff,
    bound_variance_generator,
    bound_variance_generator_tail,
    bound_sqrt,
    bound_tensor_jump,
    bound_tensor_jump_trace,
    bound_pathwise,
    bound_pricing,
    cp_second_moment,
    cp_second_moment_bound,
)
PARAMS = {fn: tuple(inspect.signature(fn).parameters) for fn in BOUNDS}

# where each parameter is drawn from; the rest from (0, 2).  Only the growth
# rate k may be negative
RANGES = {"k": (-1.0, 1.0), "horizon": (0.1, 2.0), "gen_norm": (0.0, 1.0), "gen_norm_trunc": (0.0, 1.0)}


def evaluate(fn, values):
    """fn at the values of the parameters it reads, as an array."""
    return np.atleast_1d(fn(**{name: values[name] for name in PARAMS[fn]}))


class TestForwardConstant:
    def test_zero_growth_plugin(self):
        assert bound_forward(k=0.0, trace_q=2.0, horizon=1.0) == pytest.approx(2.0, abs=1e-15)

    def test_unit_growth_plugin(self):
        val = bound_forward(k=1.0, trace_q=1.0, horizon=1.0)
        assert val == pytest.approx((math.e**2 - 1.0) / 2.0, rel=1e-12)
        assert val == pytest.approx(3.194528, abs=5e-7)

    def test_short_horizon_vanishes(self):
        assert bound_forward(k=1.0, trace_q=1.0, horizon=1e-12) <= 5e-12

    def test_continuity_at_zero_growth(self):
        limit = bound_forward(k=0.0, trace_q=1.0, horizon=1.0)
        for k in (1e-8, -1e-8):
            val = bound_forward(k=k, trace_q=1.0, horizon=1.0)
            assert abs(val - limit) <= 1e-6 * limit

    def test_negative_growth_consistent(self):
        # (e^{2kT} - 1)/(2k) stays positive and below T for k < 0
        val = bound_forward(k=-2.0, trace_q=1.0, horizon=1.0)
        assert 0.0 < val < 1.0
        assert val == pytest.approx((1.0 - math.exp(-4.0)) / 4.0, rel=1e-12)


class TestVarianceJumpConstants:
    def test_plugin(self):
        assert bound_variance_jumps(horizon=1.0, rate=1.0, gen_norm=0.0) == (2.0, 4.0, 4.0)

    def test_cpp_diff_constant(self):
        assert bound_cpp_diff(horizon=1.0, rate=1.0) == 4.0

    def test_rate_to_zero(self):
        c0, c1, c1_sharp = bound_variance_jumps(horizon=1.0, rate=0.0, gen_norm=0.5)
        assert c1 == c1_sharp == 0.0 and c0 == pytest.approx(2.0 * math.e)

    def test_sharp_variant_never_larger(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t, gen_norm = rng.uniform(0.1, 3), rng.uniform(0, 2)
            _, c1, c1_sharp = bound_variance_jumps(horizon=t, rate=rng.uniform(0, 3), gen_norm=gen_norm)
            assert c1_sharp <= c1 * (1 + 1e-15)
            assert c1 == pytest.approx(c1_sharp * math.exp(2 * t * gen_norm), rel=1e-12)


class TestVarianceGeneratorConstants:
    def test_plugin(self):
        val = bound_variance_generator(horizon=1.0, rate=1.0, gen_norm=0.0, gen_norm_trunc=0.0,
                                       v0_sq=1.0, jump_sq=1.0, jump_mean_sq=1.0)
        assert val == pytest.approx(6.0, abs=1e-14)

    def test_jump_free(self):
        for t in (0.5, 1.0, 2.0):
            val = bound_variance_generator(horizon=t, rate=0.0, gen_norm=0.0, gen_norm_trunc=0.0,
                                           v0_sq=1.0, jump_sq=0.0, jump_mean_sq=0.0)
            assert val == pytest.approx(2.0 * t * t, rel=1e-14)

    def test_tail_variant_constant(self):
        val = bound_variance_generator_tail(horizon=1.0, rate=1.0, gen_norm=0.0,
                                            v0_sq=1.0, jump_sq=1.0, jump_mean_sq=1.0)
        assert val == pytest.approx(12.0, abs=1e-14)
        # full projection: tail sup zero, so the delivered RHS is zero
        assert val * 0.0 == 0.0

    def test_uses_larger_generator_norm(self):
        a = bound_variance_generator(1.0, 0.0, 1.0, 0.2, 1.0, 0.0, 0.0)
        b = bound_variance_generator(1.0, 0.0, 0.2, 1.0, 1.0, 0.0, 0.0)
        assert a == pytest.approx(b)


class TestSqrtBounds:
    def test_hs_jumps_plugin(self):
        assert bound_sqrt(horizon=1.0, rate=1.0, gen_norm=0.0) == 1.0


class TestJumpAndPricing:
    def test_tensor_jump(self):
        assert bound_tensor_jump(1.0, 4.0) == 8.0
        assert bound_tensor_jump(1.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            bound_tensor_jump(-1.0, 1.0)

    def test_tensor_jump_trace(self):
        assert bound_tensor_jump_trace(1.0, 1.0) == 2.0
        assert bound_tensor_jump_trace(4.0, 0.25) == 2.0

    def test_pathwise(self):
        assert bound_pathwise(0.0, 1.0, 1.0, 1.0) == 2.0
        assert bound_pathwise(1.0, 1.0, 0.5, 0.5) == pytest.approx(math.e)

    def test_pricing(self):
        assert bound_pricing(2.0, 0.5, 0.1) == pytest.approx(0.1)
        assert bound_pricing(0.0, 0.5, 0.1) == 0.0
        assert bound_pricing(2.0, 0.5, 0.0) == 0.0


class TestValidation:
    def test_every_bound_formula_is_listed(self):
        # so that the parameter and monotonicity tests below cover them all
        public = {name for name, fn in vars(bounds).items()
                  if inspect.isfunction(fn) and name.startswith(("bound_", "cp_"))}
        assert public == {fn.__name__ for fn in BOUNDS}
        for fn in BOUNDS:
            assert all(p.default is p.empty for p in inspect.signature(fn).parameters.values())

    @pytest.mark.parametrize("fn, name, value", [
        (fn, name, value)
        for fn in BOUNDS for name in PARAMS[fn] if name != "k"
        for value in ((0.0, -1.0) if name == "horizon" else (-1.0,))
    ], ids=lambda x: getattr(x, "__name__", str(x)))
    def test_out_of_range_names_the_parameter(self, fn, name, value):
        values = {p: 1.0 for p in PARAMS[fn]}
        fn(**values)
        sign = "positive" if name == "horizon" else "nonnegative"
        with pytest.raises(ValueError, match=rf"^{name} must be {sign}, got {value}$"):
            fn(**{**values, name: value})

    def test_negative_moment(self):
        # with several moments out of range, the first parameter is named;
        # -0.0 is a zero moment
        assert bound_variance_generator(1.0, 1.0, 0.0, 0.0, -0.0, 1.0, 1.0) == pytest.approx(4.0)
        with pytest.raises(ValueError, match="^jump_sq must be nonnegative, got -1.0$"):
            bound_variance_generator(1.0, 1.0, 0.0, 0.0, 1.0, -1.0, -2.0)

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="^horizon must be positive, got -0.0$"):
            bound_cpp_diff(horizon=-0.0, rate=1.0)
        assert bound_cpp_diff(horizon=5e-324, rate=1.0) > 0.0
        # a NaN is no range error: it comes out of the bound as a NaN
        assert math.isnan(bound_cpp_diff(horizon=math.nan, rate=1.0))

    def test_overflowing_growth_names_the_fields(self):
        # e^x is finite up to x = log(float max) = 709.78...; one ulp above,
        # each growth factor raises, naming the fields that set its exponent
        limit = math.log(sys.float_info.max)
        above = np.nextafter(limit, math.inf)
        generator = (
            lambda x: bound_variance_jumps(1.0, 1.0, x / 2.0),
            lambda x: bound_variance_generator(1.0, 1.0, x / 2.0, 0.0, 1.0, 0.0, 0.0),
            lambda x: bound_variance_generator_tail(1.0, 1.0, x / 2.0, 1.0, 0.0, 0.0),
            lambda x: bound_sqrt(1.0, 1.0, x),
            lambda x: bound_pathwise(x, 1.0, 0.0, 0.0),
        )
        cases = [(fn, "generator_spectrum") for fn in generator]
        cases.append((lambda x: bound_forward(x / 2.0, 0.0, 1.0), "forward_spectrum"))
        for fn, field in cases:
            fn(limit)  # a bound may come out inf, which passes honestly
            with pytest.raises(ValueError, match=rf"^growth factor exp\(709\.783\) overflows: lower \|{field}\| or horizon$"):
                fn(above)


class TestMonotonicity:
    def test_nondecreasing_in_every_input(self):
        # every bound, bumped in each parameter it reads, over 100 draws
        rng = np.random.default_rng(1)
        names = sorted({name for fn in BOUNDS for name in PARAMS[fn]})
        for _ in range(100):
            base = {name: rng.uniform(*RANGES.get(name, (0.0, 2.0))) for name in names}
            for fn in BOUNDS:
                before = evaluate(fn, base)
                for name in PARAMS[fn]:
                    bumped = {**base, name: base[name] + rng.uniform(0.01, 0.5)}
                    after = evaluate(fn, bumped)
                    assert np.all(after >= before - 1e-12), (fn.__name__, name)
