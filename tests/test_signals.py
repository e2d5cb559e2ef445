import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from asfes import (
    DitherConfig,
    common_period,
    dither,
    signal_period,
    smooth_max,
    validate_frequencies,
)
from asfes.errors import (
    DuplicateFrequency,
    NonPositiveAmplitude,
    NonPositiveDelta,
    ResonantTriple,
    ValidationError,
)
from oracles import demod, newton_demod


class TestSmoothMax:
    def test_at_zero(self):
        assert smooth_max(0.0, 1e-4) == pytest.approx(0.005, abs=1e-18)

    def test_at_one(self):
        assert smooth_max(1.0, 1e-3) == pytest.approx(0.5 * (1.0 + math.sqrt(1.001)))

    def test_dominates_positive_part(self):
        for delta in (1e-6, 1e-3, 1.0):
            for x in np.linspace(-10.0, 10.0, 81):
                assert smooth_max(x, delta) > max(x, 0.0)

    def test_gap_bounded_by_half_sqrt_delta(self):
        for delta in (1e-6, 1e-3, 1.0):
            x = np.linspace(-50.0, 50.0, 2001)
            gap = smooth_max(x, delta) - np.maximum(x, 0.0)
            assert np.all(gap > 0.0)
            assert np.all(gap <= 0.5 * math.sqrt(delta) + 1e-15)
            assert gap.max() == pytest.approx(0.5 * math.sqrt(delta), rel=1e-6)

    def test_monotone(self):
        x = np.linspace(-5.0, 5.0, 1001)
        y = smooth_max(x, 1e-3)
        assert np.all(np.diff(y) > 0.0)

    def test_rejects_bad_delta(self):
        with pytest.raises(NonPositiveDelta):
            smooth_max(1.0, 0.0)
        for delta in (math.nan, math.inf, None):
            with pytest.raises(ValidationError, match="^delta must be"):
                smooth_max(1.0, delta)


@pytest.mark.parametrize("args, name", [
    ((None, (1,), 200.0), "dither amplitude must be one number"),
    ((0.25, (1,), "x"), "dither base_scale must be one number"),
    ((np.array([0.25]), (1,), 1.0), "dither amplitude must be one number"),
    ((0.25, ("1/0",), 1.0), "frequency ratio '1/0' is not a rational number"),
    ((0.25, ("abc",), 1.0), "frequency ratio 'abc' is not a rational number"),
    ((0.25, None, 1.0), "cannot interpret frequency ratios, got a NoneType$"),
    ((0.25, ([1], 2), 1.0), "cannot interpret frequency ratios, got a tuple$"),
    # described by type and shape: the repr of an int past 4300 digits is refused
    ((0.1, 10**5000), "cannot interpret frequency ratios, got a int$"),
    ((0.1, ([10**5000],)), r"cannot interpret frequency ratios, got a tuple of shape \(1, 1\)$"),
    ((0.1, ((10**5000,),)), r"cannot interpret frequency ratio, got a tuple of shape \(1,\)$"),
])
def test_dither_non_numbers_are_named(args, name):
    # a library caller's non-number is a ValidationError that names it,
    # never the converter's bare TypeError, ValueError or ZeroDivisionError,
    # nor the ValueError of a repr
    with pytest.raises(ValidationError, match=f"^{name}"):
        DitherConfig(*args)


class TestDitherSignals:
    def test_zero_at_time_zero(self, cfg2):
        np.testing.assert_array_equal(dither(cfg2.dither, 0.0), [0.0, 0.0])
        np.testing.assert_array_equal(demod(cfg2.dither, 0.0), [0.0, 0.0])

    def test_quarter_period_peak(self):
        cfg = DitherConfig(amplitude=0.25, ratios=(1,), base_scale=75.0)
        t = math.pi / 150.0  # omega * t = pi/2
        assert dither(cfg, t)[0] == pytest.approx(0.25, abs=1e-15)
        assert demod(cfg, t)[0] == pytest.approx(8.0, abs=1e-12)

    def test_common_period_zeroes_example2(self, cfg2):
        t = 2.0 * math.pi / 25.0
        np.testing.assert_allclose(dither(cfg2.dither, t), [0.0, 0.0], atol=1e-12)

    def test_demod_dither_identity(self, cfg2, rng):
        a = cfg2.dither.amplitude
        for t in rng.uniform(0.0, 1.0, size=20):
            np.testing.assert_allclose(
                demod(cfg2.dither, t) * a * a / 2.0, dither(cfg2.dither, t), atol=1e-15
            )

    def test_periodicity_at_signal_period(self, cfg2, rng):
        period = signal_period(cfg2.dither)
        for t in rng.uniform(0.0, 5.0, size=20):
            np.testing.assert_allclose(
                dither(cfg2.dither, t + period), dither(cfg2.dither, t), atol=1e-12
            )
            np.testing.assert_allclose(
                demod(cfg2.dither, t + period), demod(cfg2.dither, t), atol=1e-11
            )


class TestNewtonDemod:
    def test_minimum_at_zero(self):
        assert newton_demod(0.25, 200.0, 0.0) == pytest.approx(-128.0)

    def test_peak(self):
        assert newton_demod(2.0, 1.0, math.pi / 2.0) == pytest.approx(2.0)

    def test_zero_mean_over_period(self):
        omega = 7.0
        ts = np.linspace(0.0, 2.0 * math.pi / omega, 20001)
        vals = np.array([newton_demod(0.5, omega, t) for t in ts])
        assert np.trapezoid(vals, ts) / ts[-1] == pytest.approx(0.0, abs=1e-10)

    def test_rejects_bad_amplitude(self):
        with pytest.raises(NonPositiveAmplitude):
            newton_demod(0.0, 1.0, 0.0)


class TestValidateFrequencies:
    def test_example2_ok(self):
        validate_frequencies((75, 100))

    def test_resonant_triple(self):
        with pytest.raises(ResonantTriple) as exc:
            validate_frequencies((1, 2, 3))
        assert exc.value.indices == (0, 1, 2)

    def test_duplicate(self):
        with pytest.raises(DuplicateFrequency):
            validate_frequencies((3, 3))

    def test_duplicate_in_config(self):
        with pytest.raises(DuplicateFrequency):
            DitherConfig(amplitude=0.1, ratios=(3, 3))

    @pytest.mark.parametrize("ratios", [None, 3, 2.5])
    def test_ratios_that_are_no_sequence_are_named(self, ratios):
        # iterating them would raise a bare TypeError
        with pytest.raises(ValidationError, match="^cannot interpret frequency ratios: a "):
            validate_frequencies(ratios)

    def test_permutation_invariant_verdicts(self, rng):
        for ratios in [(1, 2, 3), (2, 3, 9), (5, 7, 12), (2, 5, 9, 14)]:
            verdicts = set()
            for perm in itertools.permutations(ratios):
                try:
                    validate_frequencies(perm)
                    verdicts.add("ok")
                except (ResonantTriple, DuplicateFrequency):
                    verdicts.add("rejected")
            assert len(verdicts) == 1


def _reference_verdict(ratios):
    """The checks as first written: all pairs for a duplicate, then every
    (pair, k) for a resonant triple, O(n^3)."""
    ratios = [Fraction(r) for r in ratios]
    n = len(ratios)
    for i, j in itertools.combinations(range(n), 2):
        if ratios[i] == ratios[j]:
            return DuplicateFrequency, (i, j)
    for i, j in itertools.combinations(range(n), 2):
        for k in range(n):
            if k not in (i, j) and ratios[i] + ratios[j] == ratios[k]:
                return ResonantTriple, (i, j, k)
    return None, None


def _verdict(check, ratios):
    try:
        check(ratios)
    except (DuplicateFrequency, ResonantTriple) as exc:
        return type(exc), exc.indices
    return None, None


@pytest.mark.parametrize("ratios", [
    (1, 2, 3), (1, 2, 2, 1), (1, 1, 2), (2, 3, 5, 7, 8), (1, 3, 4, 5, 9),
    (3, "3/2", "3/2", 6), (2, 3, 9, 14, 25), (0, 1, 2), (-1, 1, 0, 2),
])
def test_verdicts_match_the_reference_loops(ratios):
    # the one pass over the pairwise sums names the same error and indices
    # as the O(n^3) loops, for every order; DitherConfig, whose verdicts are
    # cached per ratio tuple, names them too, on a second build as well
    for perm in set(itertools.permutations(ratios)):
        want = _reference_verdict(perm)
        assert _verdict(validate_frequencies, perm) == want, perm
        if min(Fraction(r) for r in perm) > 0:
            for _ in range(2):
                assert _verdict(lambda r: DitherConfig(0.25, r), perm) == want, perm


def test_ratio_cache_keeps_types_apart():
    # 2.5 == Fraction(5, 2), and they hash alike: a config built from the
    # Fraction first does not let the float through
    assert DitherConfig(0.25, (Fraction(5, 2),)).ratios == (Fraction(5, 2),)
    with pytest.raises(ValidationError, match="^frequency ratio 2.5 is a non-integer float"):
        DitherConfig(0.25, (2.5,))
    # an integer-valued float, a string and a Fraction of one value agree
    for ratios in [(2.0, 3), ("2", 3), (Fraction(2), 3), [2, 3], iter((2, 3))]:
        cfg = DitherConfig(0.25, ratios)
        assert cfg.ratios == (2, 3) and all(type(r) is Fraction for r in cfg.ratios)


class TestCommonPeriod:
    def test_example2(self):
        cfg = DitherConfig(amplitude=0.25, ratios=(75, 100), base_scale=1.0)
        assert common_period(cfg) == pytest.approx(2.0 * math.pi / 25.0, rel=1e-15)

    def test_single_unit_frequency(self):
        cfg = DitherConfig(amplitude=0.1, ratios=(1,))
        assert common_period(cfg) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_fractional_ratio(self):
        cfg = DitherConfig(amplitude=0.1, ratios=(Fraction(3, 2), 1))
        assert common_period(cfg) == pytest.approx(4.0 * math.pi, rel=1e-15)
        # both phases return to a multiple of 2*pi at tau = 4*pi
        tau = 4.0 * math.pi
        assert math.sin(1.5 * tau) == pytest.approx(0.0, abs=1e-12)
        assert math.sin(1.0 * tau) == pytest.approx(0.0, abs=1e-12)

    def test_signal_period_scales_with_base(self):
        cfg = DitherConfig(amplitude=0.25, ratios=(1,), base_scale=200.0)
        assert signal_period(cfg) == pytest.approx(2.0 * math.pi / 200.0, rel=1e-15)
