"""Bound constants: plug-in oracles, limits, and monotonicity."""

import math
import sys

import numpy as np
import pytest

from opvol.bounds import (
    BoundInputs,
    bound_forward,
    bound_pathwise,
    bound_pricing,
    bound_sqrt,
    bound_tensor_jump,
    bound_tensor_jump_trace,
    bound_variance_generator,
    bound_variance_generator_tail,
    bound_cpp_diff,
    bound_variance_jumps,
)

BUMPABLE = (
    "k",
    "trace_q",
    "horizon",
    "rate",
    "gen_norm",
    "gen_norm_trunc",
    "v0_sq",
    "jump_sq",
    "jump_mean_sq",
)


def evaluate_all(inputs):
    c0, c1 = bound_variance_jumps(inputs)
    _, c1_sharp = bound_variance_jumps(inputs, sharp=True)
    return np.array(
        [
            bound_forward(inputs),
            c0,
            c1,
            c1_sharp,
            bound_cpp_diff(inputs),
            bound_variance_generator(inputs),
            bound_variance_generator_tail(inputs),
            bound_sqrt(inputs),
        ]
    )


class TestForwardConstant:
    def test_zero_growth_plugin(self):
        inputs = BoundInputs(k=0.0, trace_q=2.0, horizon=1.0)
        assert bound_forward(inputs) == pytest.approx(2.0, abs=1e-15)

    def test_unit_growth_plugin(self):
        inputs = BoundInputs(k=1.0, trace_q=1.0, horizon=1.0)
        assert bound_forward(inputs) == pytest.approx((math.e**2 - 1.0) / 2.0, rel=1e-12)
        assert bound_forward(inputs) == pytest.approx(3.194528, abs=5e-7)

    def test_short_horizon_vanishes(self):
        inputs = BoundInputs(k=1.0, trace_q=1.0, horizon=1e-12)
        assert bound_forward(inputs) <= 5e-12

    def test_continuity_at_zero_growth(self):
        limit = bound_forward(BoundInputs(k=0.0, trace_q=1.0, horizon=1.0))
        for k in (1e-8, -1e-8):
            val = bound_forward(BoundInputs(k=k, trace_q=1.0, horizon=1.0))
            assert abs(val - limit) <= 1e-6 * limit

    def test_negative_growth_consistent(self):
        # (e^{2kT} - 1)/(2k) stays positive and below T for k < 0
        inputs = BoundInputs(k=-2.0, trace_q=1.0, horizon=1.0)
        val = bound_forward(inputs)
        assert 0.0 < val < 1.0
        assert val == pytest.approx((1.0 - math.exp(-4.0)) / 4.0, rel=1e-12)


class TestVarianceJumpConstants:
    def test_plugin(self):
        inputs = BoundInputs(gen_norm=0.0, horizon=1.0, rate=1.0)
        assert bound_variance_jumps(inputs) == (2.0, 4.0)

    def test_cpp_diff_constant(self):
        inputs = BoundInputs(horizon=1.0, rate=1.0)
        assert bound_cpp_diff(inputs) == 4.0

    def test_rate_to_zero(self):
        inputs = BoundInputs(gen_norm=0.5, horizon=1.0, rate=0.0)
        c0, c1 = bound_variance_jumps(inputs)
        assert c1 == 0.0 and c0 == pytest.approx(2.0 * math.e)

    def test_sharp_variant_never_larger(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            inputs = BoundInputs(
                gen_norm=rng.uniform(0, 2), horizon=rng.uniform(0.1, 3), rate=rng.uniform(0, 3)
            )
            _, c1 = bound_variance_jumps(inputs)
            _, c1_sharp = bound_variance_jumps(inputs, sharp=True)
            assert c1_sharp <= c1 * (1 + 1e-15)
            assert c1 == pytest.approx(
                c1_sharp * math.exp(2 * inputs.horizon * inputs.gen_norm), rel=1e-12
            )


class TestVarianceGeneratorConstants:
    def test_plugin(self):
        inputs = BoundInputs(
            horizon=1.0, rate=1.0, v0_sq=1.0, jump_sq=1.0, jump_mean_sq=1.0
        )
        assert bound_variance_generator(inputs) == pytest.approx(6.0, abs=1e-14)

    def test_jump_free(self):
        for t in (0.5, 1.0, 2.0):
            inputs = BoundInputs(horizon=t, rate=0.0, v0_sq=1.0)
            assert bound_variance_generator(inputs) == pytest.approx(2.0 * t * t, rel=1e-14)

    def test_tail_variant_constant(self):
        inputs = BoundInputs(
            horizon=1.0, rate=1.0, v0_sq=1.0, jump_sq=1.0, jump_mean_sq=1.0
        )
        assert bound_variance_generator_tail(inputs) == pytest.approx(12.0, abs=1e-14)
        # full projection: tail sup zero, so the delivered RHS is zero
        assert bound_variance_generator_tail(inputs) * 0.0 == 0.0

    def test_uses_larger_generator_norm(self):
        a = BoundInputs(horizon=1.0, gen_norm=1.0, gen_norm_trunc=0.2, v0_sq=1.0)
        b = BoundInputs(horizon=1.0, gen_norm=0.2, gen_norm_trunc=1.0, v0_sq=1.0)
        assert bound_variance_generator(a) == pytest.approx(bound_variance_generator(b))


class TestSqrtBounds:
    def test_hs_jumps_plugin(self):
        inputs = BoundInputs(gen_norm=0.0, rate=1.0, horizon=1.0)
        assert bound_sqrt(inputs) == 1.0


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
    def test_negative_moment(self):
        with pytest.raises(ValueError):
            BoundInputs(jump_sq=-1.0)

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            BoundInputs(horizon=0.0)

    def test_with_updates(self):
        inputs = BoundInputs(rate=1.0)
        assert inputs.with_(rate=2.0).rate == 2.0
        assert inputs.rate == 1.0

    def test_overflowing_growth_names_the_fields(self):
        # e^x is finite up to x = log(float max) = 709.78...; one ulp above,
        # each growth factor raises, naming the fields that set its exponent
        limit = math.log(sys.float_info.max)
        at = BoundInputs(horizon=1.0, rate=1.0, gen_norm=limit / 2.0, k=limit / 2.0, v0_sq=1.0)
        above = at.with_(gen_norm=np.nextafter(limit, math.inf) / 2.0, k=np.nextafter(limit, math.inf) / 2.0)
        generator = (
            bound_variance_jumps,
            bound_variance_generator,
            bound_variance_generator_tail,
            lambda inputs: bound_sqrt(inputs.with_(gen_norm=2.0 * inputs.gen_norm)),
            lambda inputs: bound_pathwise(2.0 * inputs.gen_norm, 1.0, 0.0, 0.0),
        )
        for fn, field in [(fn, "generator_spectrum") for fn in generator] + [(bound_forward, "forward_spectrum")]:
            fn(at)  # a bound may come out inf, which passes honestly
            with pytest.raises(ValueError, match=rf"^growth factor exp\(709\.783\) overflows: lower \|{field}\| or horizon$"):
                fn(above)


class TestMonotonicity:
    def test_nondecreasing_in_every_input(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            base = BoundInputs(
                k=rng.uniform(-1, 1),
                trace_q=rng.uniform(0, 2),
                horizon=rng.uniform(0.1, 2),
                rate=rng.uniform(0, 2),
                gen_norm=rng.uniform(0, 1),
                gen_norm_trunc=rng.uniform(0, 1),
                v0_sq=rng.uniform(0, 2),
                jump_sq=rng.uniform(0, 2),
                jump_mean_sq=rng.uniform(0, 2),
            )
            before = evaluate_all(base)
            for field in BUMPABLE:
                bumped = base.with_(**{field: getattr(base, field) + rng.uniform(0.01, 0.5)})
                after = evaluate_all(bumped)
                assert np.all(after >= before - 1e-12), field
