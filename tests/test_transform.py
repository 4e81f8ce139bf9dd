"""Transforms: logs, adjustment factor, QQ straightness, ranks."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from defectcast._errors import DataError
from defectcast.dataset import VariableSpec, load_csv
from defectcast.transform import (
    GscVector,
    apply_schema_transforms,
    compute_vaf,
    ln_transform,
    qq_normal,
    rank_average,
)


class TestLnTransform:
    def test_ln_exp_identity(self):
        vals = np.array([0.001, 0.5, 1.0, 18.0, 1e6])
        back = np.exp(ln_transform(vals, "ln"))
        np.testing.assert_allclose(back, vals, rtol=1e-12)

    def test_ln_rejects_nonpositive_with_row(self):
        with pytest.raises(DataError, match="row 2"):
            ln_transform([3.0, 1.0, 0.0, 4.0], "ln")
        with pytest.raises(DataError, match="row 1"):
            ln_transform([3.0, -2.0], "ln")

    def test_ln1p_accepts_zero(self):
        out = ln_transform([0.0, 1.0], "ln1p")
        np.testing.assert_allclose(out, [0.0, math.log(2.0)])

    def test_missing_passes_through(self):
        out = ln_transform([5.0, -1.0], "ln", missing=[False, True])
        assert out[0] == math.log(5.0)
        assert math.isnan(out[1])

    def test_unknown_mode(self):
        with pytest.raises(DataError):
            ln_transform([1.0], "log10")


class TestVaf:
    def test_endpoints_bit_exact(self):
        assert compute_vaf(GscVector((0,) * 14)) == 0.65
        assert compute_vaf(GscVector((5,) * 14)) == 1.35

    def test_midpoint(self):
        ratings = (3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2)  # sums to 35
        assert compute_vaf(ratings) == 1.0

    def test_monotone_in_each_rating(self):
        base = [2] * 14
        low = compute_vaf(base)
        for i in range(14):
            bumped = list(base)
            bumped[i] += 1
            assert compute_vaf(bumped) > low

    def test_length_checked(self):
        with pytest.raises(DataError, match="14"):
            GscVector((1, 2, 3))

    def test_rating_range_checked(self):
        with pytest.raises(DataError):
            GscVector((6,) + (0,) * 13)
        with pytest.raises(DataError):
            GscVector((-1,) + (0,) * 13)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=14, max_size=14))
    def test_range_property(self, ratings):
        v = compute_vaf(ratings)
        assert 0.65 <= v <= 1.35


class TestQQNormal:
    def test_normal_sample_is_straight(self):
        rng = np.random.default_rng(4)
        result = qq_normal(rng.normal(size=400))
        assert result.correlation > 0.995

    def test_heavy_skew_is_less_straight(self):
        rng = np.random.default_rng(4)
        raw = np.exp(rng.normal(size=400) * 1.5)
        skewed = qq_normal(raw).correlation
        logged = qq_normal(np.log(raw)).correlation
        assert logged > skewed

    def test_blom_positions(self):
        result = qq_normal([3.0, 1.0, 2.0])
        # positions (i - 0.375) / (n + 0.25) for n = 3
        from defectcast.numerics import normal_quantile

        expected = [normal_quantile((i - 0.375) / 3.25) for i in (1, 2, 3)]
        np.testing.assert_allclose(result.theoretical, expected, atol=1e-12)
        np.testing.assert_array_equal(result.ordered, [1.0, 2.0, 3.0])

    def test_needs_three_values(self):
        with pytest.raises(DataError, match="at least 3"):
            qq_normal([1.0, 2.0])

    def test_drops_missing(self):
        result = qq_normal([1.0, np.nan, 2.0, 3.0, np.nan])
        assert result.n == 3


class TestRankAverage:
    def test_tie_averaging(self):
        np.testing.assert_array_equal(
            rank_average([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0]
        )

    def test_all_tied(self):
        np.testing.assert_array_equal(rank_average([7.0, 7.0, 7.0]), [2.0, 2.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            rank_average([1.0, np.nan])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    def test_rank_sum_property(self, values):
        ranks = rank_average(values)
        n = len(values)
        assert abs(ranks.sum() - n * (n + 1) / 2.0) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_tie_walk_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        cases = [
            rng.normal(size=500),
            rng.integers(0, 4, size=500).astype(float),  # heavy ties
            np.round(rng.normal(size=2000), 1),
            np.repeat(rng.normal(size=7), rng.integers(1, 40, size=7)),
            np.array([0.0, -0.0, 0.0, 1.0, -0.0]),
            np.empty(0),
        ]
        for values in cases:
            got = rank_average(values)
            expected = oracles.rank_average_by_loop(values)
            assert np.array_equal(got, expected)
            assert got.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0, 1e9]), max_size=80))
    def test_tied_lists_match_tie_walk(self, values):
        got = rank_average(values)
        assert got.tobytes() == oracles.rank_average_by_loop(values).tobytes()


class TestSchemaTransforms:
    def test_applies_declared_ln(self):
        schema = [
            VariableSpec("defects", "response", "numeric", transform="ln"),
            VariableSpec("fp", "predictor", "numeric"),
        ]
        ds = load_csv(io.StringIO("defects,fp\n10,100\n20,200\n"), schema)
        out, applied = apply_schema_transforms(ds)
        assert applied == {"defects": "ln"}
        np.testing.assert_allclose(out.columns["defects"], np.log([10.0, 20.0]))
        np.testing.assert_array_equal(out.columns["fp"], [100.0, 200.0])

    def test_second_pass_is_noop(self):
        schema = [VariableSpec("defects", "response", "numeric", transform="ln")]
        ds = load_csv(io.StringIO("defects\n10\n20\n"), schema)
        once, _ = apply_schema_transforms(ds)
        twice, applied = apply_schema_transforms(once)
        assert applied == {}
        assert twice == once
