"""Unit tests for bitflip models."""

import pickle
from functools import partial

import pytest

from repro.cpu import DataType
from repro.cpu.catalog import _patterns_for
from repro.cpu.datatypes import flipped_positions, popcount
from repro.errors import ConfigurationError
from repro.faults import (
    IIDBitflip,
    PatternBitflip,
    PositionBiasedBitflip,
    UniformBitflip,
)
from repro.rng import substream


@pytest.fixture()
def rng():
    return substream(123, "bitflip-tests")


class TestPositionBiased:
    def test_masks_fit_width(self, rng):
        model = PositionBiasedBitflip()
        for dtype in (DataType.INT32, DataType.FLOAT64, DataType.FLOAT64X):
            for _ in range(200):
                mask = model.sample_mask(dtype, rng)
                assert 0 < mask < (1 << dtype.width)

    def test_float_flips_mostly_in_fraction(self, rng):
        # Observation 7: "a bitflip usually hits the fraction part".
        model = PositionBiasedBitflip()
        _, fraction_bits = DataType.FLOAT64.float_fields
        in_fraction = 0
        total = 0
        for _ in range(400):
            mask = model.sample_mask(DataType.FLOAT64, rng)
            for position in flipped_positions(mask):
                total += 1
                if position < fraction_bits:
                    in_fraction += 1
        assert in_fraction / total > 0.9

    def test_msb_rare_for_int32(self, rng):
        model = PositionBiasedBitflip()
        msb_hits = 0
        total = 0
        for _ in range(500):
            mask = model.sample_mask(DataType.INT32, rng)
            for position in flipped_positions(mask):
                total += 1
                if position >= 28:
                    msb_hits += 1
        assert msb_hits / total < 0.05

    def test_flip_counts_follow_distribution(self, rng):
        model = PositionBiasedBitflip()
        counts = {1: 0, 2: 0, 3: 0}
        n = 1000
        for _ in range(n):
            bits = popcount(model.sample_mask(DataType.FLOAT64, rng))
            counts[min(bits, 3)] += 1
        # Defaults: 0.90 / 0.08 / 0.02.
        assert counts[1] / n == pytest.approx(0.90, abs=0.05)
        assert counts[2] / n == pytest.approx(0.08, abs=0.04)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            PositionBiasedBitflip(center=1.5)
        with pytest.raises(ConfigurationError):
            PositionBiasedBitflip(spread=0.0)
        with pytest.raises(ConfigurationError):
            PositionBiasedBitflip(fraction_bias=2.0)


class TestUniform:
    def test_masks_fit_width(self, rng):
        model = UniformBitflip()
        for _ in range(200):
            mask = model.sample_mask(DataType.BIN64, rng)
            assert 0 < mask < (1 << 64)

    def test_positions_roughly_uniform(self, rng):
        # Figure 5: non-numeric flips spread over all positions.
        model = UniformBitflip()
        hits = [0] * 32
        for _ in range(3000):
            for position in flipped_positions(
                model.sample_mask(DataType.BIN32, rng)
            ):
                hits[position] += 1
        # Every position hit at least once; no position dominates.
        assert min(hits) > 0
        assert max(hits) < 12 * min(hits)


class TestPattern:
    def test_pattern_masks_dominate(self, rng):
        patterns = {DataType.INT32: [(0b1000, 1.0)]}
        model = PatternBitflip(
            patterns=patterns,
            pattern_probability=1.0,
            fallback=UniformBitflip(),
        )
        for _ in range(50):
            assert model.sample_mask(DataType.INT32, rng) == 0b1000

    def test_fallback_used_for_unknown_dtype(self, rng):
        model = PatternBitflip(
            patterns={DataType.INT32: [(0b1, 1.0)]},
            pattern_probability=1.0,
            fallback=UniformBitflip(),
        )
        mask = model.sample_mask(DataType.BIN64, rng)
        assert 0 < mask < (1 << 64)

    def test_mixture(self, rng):
        model = PatternBitflip(
            patterns={DataType.INT32: [(0b1000, 1.0)]},
            pattern_probability=0.5,
            fallback=IIDBitflip(),
        )
        hits = sum(
            1
            for _ in range(800)
            if model.sample_mask(DataType.INT32, rng) == 0b1000
        )
        # ~0.5 plus IID occasionally sampling the same mask.
        assert 0.4 < hits / 800 < 0.65

    def test_weighted_choice(self, rng):
        model = PatternBitflip(
            patterns={DataType.INT32: [(0b1, 3.0), (0b10, 1.0)]},
            pattern_probability=1.0,
            fallback=UniformBitflip(),
        )
        first = sum(
            1
            for _ in range(1000)
            if model.sample_mask(DataType.INT32, rng) == 0b1
        )
        assert 0.65 < first / 1000 < 0.85

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PatternBitflip(
                patterns={DataType.INT32: []},
                pattern_probability=0.5,
                fallback=UniformBitflip(),
            )
        with pytest.raises(ConfigurationError):
            PatternBitflip(
                patterns={DataType.INT32: [(0, 1.0)]},
                pattern_probability=0.5,
                fallback=UniformBitflip(),
            )
        with pytest.raises(ConfigurationError):
            PatternBitflip(
                patterns={DataType.INT32: [(1 << 40, 1.0)]},
                pattern_probability=0.5,
                fallback=UniformBitflip(),
            )


#: Datatypes of a defect whose patterns cover float, int and bin masks.
_LAZY_DTYPES = (DataType.FLOAT64, DataType.INT32, DataType.BIN64)


def _lazy_and_eager(name="LAZY-F0001"):
    lazy = PatternBitflip(
        patterns=partial(_patterns_for, name, _LAZY_DTYPES),
        pattern_probability=0.6,
        fallback=PositionBiasedBitflip(),
    )
    eager = PatternBitflip(
        patterns=_patterns_for(name, _LAZY_DTYPES),
        pattern_probability=0.6,
        fallback=PositionBiasedBitflip(),
    )
    return lazy, eager


def _built(model):
    return "patterns" in vars(model)


class TestPatternsBuiltOnFirstUse:
    def test_unresolved_equals_eager(self):
        lazy, eager = _lazy_and_eager()
        assert not _built(lazy)
        assert lazy == eager
        assert _built(lazy)
        other, _ = _lazy_and_eager()
        assert eager == other
        different, _ = _lazy_and_eager("LAZY-F0002")
        assert different != eager

    def test_first_read_builds_a_plain_dict(self):
        lazy, eager = _lazy_and_eager()
        patterns = lazy.patterns
        assert type(patterns) is dict
        assert patterns == eager.patterns
        assert lazy.patterns is patterns

    def test_pickle_round_trip_before_and_after_resolution(self):
        lazy, eager = _lazy_and_eager()
        clone = pickle.loads(pickle.dumps(lazy))
        assert not _built(clone)
        assert clone == eager
        lazy.patterns
        resolved = pickle.loads(pickle.dumps(lazy))
        assert _built(resolved)
        assert resolved == eager
        assert pickle.loads(pickle.dumps(eager)) == eager

    def test_same_masks_from_same_rng(self):
        lazy, eager = _lazy_and_eager()
        rng_a = substream(5, "lazy-patterns")
        rng_b = substream(5, "lazy-patterns")
        for _ in range(100):
            for dtype in _LAZY_DTYPES + (DataType.FLOAT32,):
                assert lazy.sample_mask(dtype, rng_a) == eager.sample_mask(
                    dtype, rng_b
                )

    def test_source_validated_when_built(self):
        model = PatternBitflip(
            patterns=lambda: {DataType.INT32: [(1 << 40, 1.0)]},
            pattern_probability=0.5,
            fallback=UniformBitflip(),
        )
        with pytest.raises(ConfigurationError):
            model.sample_mask(DataType.INT32, substream(1, "x"))
        with pytest.raises(ConfigurationError):
            PatternBitflip(
                patterns=lambda: {DataType.INT32: [(1, 1.0)]},
                pattern_probability=1.5,
                fallback=UniformBitflip(),
            )


class TestIID:
    def test_single_bit_always(self, rng):
        model = IIDBitflip()
        for _ in range(300):
            mask = model.sample_mask(DataType.FLOAT64, rng)
            assert popcount(mask) == 1

    def test_uniform_over_positions(self, rng):
        # The model the paper critiques: no location preference at all.
        model = IIDBitflip()
        hits = [0] * 16
        for _ in range(4000):
            hits[flipped_positions(model.sample_mask(DataType.INT16, rng))[0]] += 1
        assert min(hits) > 0
        assert max(hits) < 3 * min(hits)
