"""The seeded draws of :mod:`asfes.sampling` against the oracle that takes
one numpy call per draw: ``asfes verify``'s output is fixed per seed, so
every plant, configuration and state, and the generator's state after
each, must match it to the bit."""

import warnings

import numpy as np
import pytest

import oracles
from asfes.errors import DimensionMismatch, ValidationError
from asfes.sampling import random_config, random_full_state, random_plant


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _plant_bits(plant) -> list:
    return [_bits(getattr(plant, name)) for name in ("j_star", "hessian", "theta_star", "h0", "h1")]


def _config_bits(cfg) -> list:
    values = (cfg.k, cfg.c, cfg.delta, cfg.omega_f, cfg.dither.amplitude, cfg.dither.base_scale)
    return [_bits(v) for v in values] + [cfg.dither.ratios, cfg.variant]


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 20240817])
def test_draws_match_the_one_call_per_draw_oracle(seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    signs = set()
    for n in range(1, 6):
        for h0_sign in (None, -1, 1):
            for _ in range(3):
                got, want = random_plant(got_rng, n, h0_sign), oracles.random_plant(
                    want_rng, n, h0_sign)
                assert _plant_bits(got) == _plant_bits(want)
                assert type(got.j_star) is type(got.h0) is float
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                if h0_sign is None:
                    signs.add(got.h0 > 0.0)
                got, want = random_config(got_rng, n), oracles.random_config(want_rng, n)
                assert _config_bits(got) == _config_bits(want)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                got, want = random_full_state(got_rng, n), oracles.random_full_state(want_rng, n)
                assert got.tobytes() == want.tobytes()
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert signs == {False, True}       # both signs of h0 drawn


@pytest.mark.parametrize("call, error, message", [
    (lambda rng: random_plant(rng, 0), DimensionMismatch, "the plant needs at least one"),
    (lambda rng: random_plant(rng, -1), DimensionMismatch, "the plant needs at least one"),
    (lambda rng: random_plant(rng, 2.5), ValidationError, "n must be an integer, got a float"),
    (lambda rng: random_plant(rng, "2"), ValidationError, "n must be an integer, got a str"),
    (lambda rng: random_config(rng, 2.5), ValidationError, "n must be an integer, got a float"),
    (lambda rng: random_config(rng, 0), DimensionMismatch, "the frequency pool supports"),
    (lambda rng: random_config(rng, 6), DimensionMismatch, "the frequency pool supports"),
])
def test_a_bad_dimension_is_named_before_any_draw(call, error, message):
    # numpy would warn of a zero divide, or raise a bare ValueError or
    # TypeError, some of them after drawing
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{message}") as exc:
            call(rng)
    assert error is DimensionMismatch or type(exc.value) is ValidationError
    assert rng.bit_generator.state == before


def test_numpy_integer_dimensions_are_taken():
    for make, bits in ((random_plant, _plant_bits), (random_config, _config_bits)):
        got, want = np.random.default_rng(3), np.random.default_rng(3)
        assert bits(make(got, np.int64(2))) == bits(make(want, 2))
