"""Screening statistics against hand-computed and brute-force oracles."""

import io
import math

import numpy as np
import pytest

from defectcast._errors import ConfigError, DataError
from defectcast import screening
from defectcast.dataset import Dataset, VariableSpec, load_csv
from defectcast.evaluation import (
    GeneratorConfig,
    generate_synthetic,
    quantification_from_labels,
)
from defectcast.numerics import t_cdf
from defectcast.screening import (
    anova_oneway,
    apply_category_merge,
    drop_empty_categories,
    group_table,
    merge_categories,
    screen_dataset,
    spearman,
    tukey_hsd,
)

import oracles


def table_of(values, labels):
    """The group table of a label list, its groups in sorted label order."""
    names, codes = np.unique(labels, return_inverse=True)
    return group_table(values, codes, names.tolist())


class TestSpearman:
    def test_perfect_monotone(self):
        x = np.array([1.0, 2.0, 5.0, 9.0, 20.0])
        result = spearman(x, np.sqrt(x))
        assert result.rho == 1.0
        assert result.p_value == 0.0

    def test_perfect_reversal(self):
        x = np.arange(1.0, 9.0)
        result = spearman(x, -(x**3))
        assert result.rho == -1.0
        assert result.p_value == 0.0

    def test_matches_rank_difference_formula(self):
        # no ties, so the classical 6*sum(d^2) formula applies
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.permutation(12).astype(float)
            y = rng.permutation(12).astype(float)
            want = oracles.spearman_rank_difference(x.tolist(), y.tolist())
            got = spearman(x, y)
            assert abs(got.rho - want) < 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        base = spearman(x, y)
        warped = spearman(np.exp(x), y)
        assert abs(base.rho - warped.rho) < 1e-12
        assert abs(base.p_value - warped.p_value) < 1e-12

    def test_p_value_formula(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.array([2.0, 1.0, 4.0, 3.0, 6.0, 5.0])
        result = spearman(x, y)
        t = result.rho * math.sqrt((6 - 2) / (1 - result.rho**2))
        want = 2.0 * t_cdf(-abs(t), 4)
        assert abs(result.p_value - want) < 1e-12

    def test_drops_missing_pairs(self):
        x = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        y = np.array([1.0, np.nan, 3.0, 4.0, 5.0])
        assert spearman(x, y).n == 3

    def test_too_few_pairs(self):
        with pytest.raises(DataError, match="at least 3"):
            spearman([1.0, 2.0], [3.0, 4.0])

    def test_constant_column(self):
        with pytest.raises(DataError, match="zero variance"):
            spearman([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])


    def test_strong_correlation_p_is_a_tail(self):
        # t = 22.4 on 58 df: 1 - t_cdf rounds this p to 0
        rng = np.random.default_rng(60)
        x = np.arange(60.0)
        result = spearman(x, x + rng.normal(0.0, 6.0, 60))
        t = result.rho * math.sqrt(58 / (1.0 - result.rho**2))
        want = 2.0 * oracles.t_tail_by_integration(abs(t), 58)
        assert 0.0 < result.p_value < 1e-16
        assert abs(result.p_value / want - 1.0) < 1e-9


class TestAnova:
    def test_two_group_fixture(self):
        result = anova_oneway(table_of([1.0, 2.0, 4.0, 5.0], ["a", "a", "b", "b"]))
        assert abs(result.f_value - 18.0) < 1e-12
        assert result.df_between == 1
        assert result.df_within == 2
        assert abs(result.p_value - 0.0513) < 5e-4

    def test_matches_hand_sums_of_squares(self):
        rng = np.random.default_rng(12)
        data = {}
        labels = []
        values = []
        for g, size in zip("abc", (5, 8, 6)):
            vals = rng.normal(loc=rng.uniform(-1, 1), size=size)
            data[g] = vals.tolist()
            labels += [g] * size
            values += vals.tolist()
        want_f, want_dfb, want_dfw = oracles.anova_by_hand(data)
        got = anova_oneway(table_of(values, labels))
        assert abs(got.f_value - want_f) < 1e-10
        assert (got.df_between, got.df_within) == (want_dfb, want_dfw)

    def test_large_f_p_is_a_tail(self):
        # F = 203.5 on (2, 57) df: 1 - f_cdf rounds this p to 0
        rng = np.random.default_rng(57)
        values = np.concatenate([rng.normal(m, 1.0, 20) for m in (0.0, 3.0, 6.0)])
        result = anova_oneway(table_of(values, ["a"] * 20 + ["b"] * 20 + ["c"] * 20))
        want = oracles.f_tail_by_integration(result.f_value, 2, 57)
        assert 0.0 < result.p_value < 1e-16
        assert abs(result.p_value / want - 1.0) < 1e-9

    def test_zero_within_variance(self):
        result = anova_oneway(table_of([1.0, 1.0, 2.0, 2.0], ["a", "a", "b", "b"]))
        assert result.f_value == math.inf
        assert result.p_value == 0.0

    def test_identical_groups(self):
        result = anova_oneway(table_of([3.0, 3.0, 3.0, 3.0], ["a", "a", "b", "b"]))
        assert result.f_value == 0.0
        assert result.p_value == 1.0

    def test_invariant_under_affine_response(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=20)
        labels = ["a"] * 7 + ["b"] * 6 + ["c"] * 7
        base = anova_oneway(table_of(values, labels))
        shifted = anova_oneway(table_of(5.0 + 3.0 * values, labels))
        assert abs(base.f_value - shifted.f_value) < 1e-9
        assert abs(base.p_value - shifted.p_value) < 1e-9

    def test_single_group_rejected(self):
        with pytest.raises(DataError, match="2 non-empty groups"):
            anova_oneway(table_of([1.0, 2.0], ["a", "a"]))

    def test_missing_dropped(self):
        result = anova_oneway(
            table_of([1.0, 2.0, np.nan, 4.0, 5.0], ["a", "a", "a", "b", "b"])
        )
        assert result.group_counts == {"a": 2, "b": 2}


class TestGroupTable:
    def test_missing_rows_dropped_and_empty_groups_left_out(self):
        # code -1 and a NaN response are missing; 'b' has no rows
        table = group_table([1.0, 2.0, np.nan, 4.0, 6.0, 9.0], [0, 0, 2, 2, 2, -1], "abc")
        assert table.labels == ("a", "c")
        assert table.counts.tolist() == [2, 2]
        assert table.means.tolist() == [1.5, 5.0]
        assert table.ssw == 0.5 + 2.0

    def test_matches_a_row_loop(self):
        rng = np.random.default_rng(61)
        values = rng.normal(3.0, 2.0, 200)
        values[rng.random(200) < 0.05] = np.nan
        codes = rng.integers(-1, 4, 200)
        labels = ["w", "x", "y", "z"]
        table = group_table(values, codes, labels)
        want = oracles.groups_by_row_loop(values.tolist(), codes.tolist(), labels)
        assert table.labels == tuple(labels)
        for label, count, mean in zip(table.labels, table.counts, table.means):
            assert count == want[label][0]
            assert abs(mean - want[label][1]) <= 1e-13 * abs(want[label][1])
        ssw = sum(v[2] for v in want.values())
        assert abs(table.ssw - ssw) <= 1e-13 * ssw

    def test_groups_follow_codes_not_rows(self):
        rng = np.random.default_rng(16)
        values = rng.normal(size=30)
        codes = rng.integers(0, 3, 30)
        table = group_table(values, codes, ["lo", "mid", "hi"])
        order = rng.permutation(30)
        shuffled = group_table(values[order], codes[order], ["lo", "mid", "hi"])
        assert shuffled.labels == table.labels == ("lo", "mid", "hi")
        assert shuffled.counts.tolist() == table.counts.tolist()
        np.testing.assert_allclose(shuffled.means, table.means, rtol=1e-13)
        assert abs(shuffled.ssw / table.ssw - 1.0) < 1e-13

    def test_code_without_label_rejected(self):
        with pytest.raises(DataError, match="no label"):
            group_table([1.0, 2.0, 3.0], [0, 1, 2], ["a", "b"])

    def test_too_few_rows_rejected(self):
        with pytest.raises(DataError, match="more observations"):
            group_table([1.0, 2.0], [0, 1], ["a", "b"])


class TestTukey:
    def test_identical_groups_have_p_one(self):
        pairs = tukey_hsd(
            table_of([1.0, 2.0, 1.0, 2.0, 1.0, 2.0], ["a", "a", "b", "b", "c", "c"])
        )
        assert all(abs(p.p_adjusted - 1.0) < 1e-9 for p in pairs)
        assert all(p.mean_difference == 0.0 for p in pairs)

    def test_adjusted_p_not_below_unadjusted_t(self):
        rng = np.random.default_rng(31)
        values = np.concatenate(
            [rng.normal(0.0, 1.0, 8), rng.normal(0.8, 1.0, 9), rng.normal(1.6, 1.0, 7)]
        )
        labels = ["a"] * 8 + ["b"] * 9 + ["c"] * 7
        groups = {g: values[np.array(labels) == g] for g in "abc"}
        n = len(values)
        ssw = sum(float(((v - v.mean()) ** 2).sum()) for v in groups.values())
        msw = ssw / (n - 3)
        for pair in tukey_hsd(table_of(values, labels)):
            vi, vj = groups[pair.group_i], groups[pair.group_j]
            se = math.sqrt(msw * (1.0 / vi.size + 1.0 / vj.size))
            t = abs(pair.mean_difference) / se
            p_plain = 2.0 * t_cdf(-t, n - 3)
            assert pair.p_adjusted >= p_plain - 1e-9

    def test_two_groups_match_t_test(self):
        # k = 2 collapses the studentized range to sqrt(2)|t|
        values = [1.0, 2.0, 3.0, 6.0, 7.0, 9.0]
        labels = ["a", "a", "a", "b", "b", "b"]
        (pair,) = tukey_hsd(table_of(values, labels))
        groups = {"a": np.array(values[:3]), "b": np.array(values[3:])}
        ssw = sum(float(((v - v.mean()) ** 2).sum()) for v in groups.values())
        msw = ssw / 4
        t = abs(pair.mean_difference) / math.sqrt(msw * (1 / 3 + 1 / 3))
        want = 2.0 * t_cdf(-t, 4)
        assert abs(pair.p_adjusted - want) < 1e-6

    def test_separated_pair_keeps_its_tail(self):
        # two groups of about 1000 rows, q = 14 and df = 2000: the adjusted
        # p is the two-sample t tail, about 1.4e-22, not 1 - cdf's 0.0
        counts = np.array([1000, 1002])
        scale = math.sqrt(0.5 * (1.0 / 1000 + 1.0 / 1002))
        table = screening.GroupTable(("a", "b"), counts, np.array([14.0 * scale, 0.0]), 2000.0)
        (pair,) = tukey_hsd(table)
        want = 2.0 * t_cdf(-14.0 / math.sqrt(2.0), 2000)
        assert 1e-22 < want < 2e-22
        assert abs(pair.p_adjusted / want - 1.0) < 1e-9
        assert pair.significant

    def test_pair_count(self):
        values = list(range(12))
        labels = ["a", "b", "c", "d"] * 3
        assert len(tukey_hsd(table_of([float(v) for v in values], labels))) == 6


class TestMergeCategories:
    def _spec(self):
        return VariableSpec(
            "dev_type",
            "predictor",
            "categorical",
            categories=("New Development", "Re-development", "Enhancement"),
        )

    def test_merge_to_binary(self):
        merged = merge_categories(self._spec(), [("New Development", "Re-development")])
        assert merged.kind == "binary"
        assert merged.categories == ("New Development+Re-development", "Enhancement")

    def test_unknown_label(self):
        with pytest.raises(DataError, match="unknown category"):
            merge_categories(self._spec(), [("New Development", "Maintenance")])

    def test_overlapping_pairs_rejected(self):
        spec = VariableSpec("v", "predictor", "categorical", categories=("a", "b", "c", "d"))
        with pytest.raises(DataError, match="overlapping"):
            merge_categories(spec, [("a", "b"), ("b", "c")])

    def test_self_pair_rejected(self):
        with pytest.raises(DataError, match="same label"):
            merge_categories(self._spec(), [("Enhancement", "Enhancement")])

    def test_apply_adds_frequencies(self):
        text = "y,v\n1,a\n2,b\n3,a\n4,c\n5,b\n"
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("v", "predictor", "categorical"),
        ]
        ds = load_csv(io.StringIO(text), schema)
        out = apply_category_merge(ds, "v", [("a", "b")])
        assert out.row_count == ds.row_count
        assert out.spec("v").categories == ("a+b", "c")
        assert out.columns["v"].tolist() == [0, 0, 0, 1, 0]

    def test_apply_keeps_missing_cells_and_reversed_pair_label(self):
        # undeclared labels load sorted (a, b, c): the pair names b before
        # a, so the merged label is "b+a" and it sits where a was
        text = "y,v\n1,a\n2,\n3,c\n4,b\n5,\n6,a\n"
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("v", "predictor", "categorical"),
        ]
        ds = load_csv(io.StringIO(text), schema)
        out = apply_category_merge(ds, "v", [("b", "a")])
        assert out.spec("v").categories == ("b+a", "c")
        assert out.spec("v").kind == "binary"
        assert out.columns["v"].tolist() == [0, -1, 1, 0, -1, 0]
        assert out.labels("v") == ["b+a", None, "c", "b+a", None, "b+a"]
        np.testing.assert_array_equal(out.missing("v"), ds.missing("v"))

    def test_merged_label_may_not_name_another_category(self):
        spec = VariableSpec("v", "predictor", "categorical", categories=("a", "b", "a+b", "c"))
        with pytest.raises(DataError, match="one label"):
            merge_categories(spec, [("a", "b")])

    def test_row_order_unchanged(self):
        text = "y,v\n1,a\n2,b\n3,c\n"
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("v", "predictor", "categorical"),
        ]
        ds = load_csv(io.StringIO(text), schema)
        out = apply_category_merge(ds, "v", [("b", "c")])
        np.testing.assert_array_equal(out.columns["y"], ds.columns["y"])


class TestDropEmptyCategories:
    def _dataset(self, labels, categories=("a", "b", "c", "d")):
        codes = [categories.index(v) if v else -1 for v in labels]
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("v", "predictor", "categorical", categories=categories),
        ]
        return Dataset(schema, {"y": np.arange(len(codes), dtype=float), "v": np.array(codes)})

    def test_recodes_past_the_dropped_labels(self):
        ds = self._dataset(["d", None, "b", "d", "c", None])
        out, dropped = drop_empty_categories(ds)
        assert dropped == {"v": ["a"]}
        assert out.spec("v").categories == ("b", "c", "d")
        assert out.spec("v").kind == "categorical"
        assert out.labels("v") == ds.labels("v")
        np.testing.assert_array_equal(out.missing("v"), ds.missing("v"))
        np.testing.assert_array_equal(out.columns["y"], ds.columns["y"])

    def test_two_left_make_it_binary(self):
        out, dropped = drop_empty_categories(self._dataset(["c", "a", "a"]))
        assert dropped == {"v": ["b", "d"]}
        assert (out.spec("v").kind, out.spec("v").categories) == ("binary", ("a", "c"))

    def test_fitted_variable_counts_only_complete_rows(self):
        # 'b' is held only by rows whose response is missing, so a fit over
        # y and v never sees it: it goes, and its cells become missing
        ds = self._dataset(["a", "b", "c", "d", "b"])
        y = ds.columns["y"].copy()
        y[[1, 4]] = np.nan
        ds = Dataset(ds.schema, {"y": y, "v": ds.columns["v"]})
        assert drop_empty_categories(ds)[1] == {}
        out, dropped = drop_empty_categories(ds, ("y", "v"))
        assert dropped == {"v": ["b"]}
        assert out.spec("v").categories == ("a", "c", "d")
        assert out.labels("v") == ["a", None, "c", "d", None]

    @pytest.mark.parametrize("labels", [["a", "b", "c", "d", "a"], ["b", "b", None], []])
    def test_all_present_or_fewer_than_two_left_unchanged(self, labels):
        ds = self._dataset(labels)
        out, dropped = drop_empty_categories(ds)
        assert dropped == {}
        assert out.schema == ds.schema and out == ds


class TestScreenDataset:
    def _dataset(self):
        rng = np.random.default_rng(77)
        n = 40
        fp = rng.uniform(10, 500, n)
        group = rng.integers(0, 3, n)
        levels = np.array([0.8, 1.0, 1.2])
        adj = levels[rng.integers(0, 3, n)]
        y = 0.01 * fp + group * 2.0 + 3.0 * adj + rng.normal(0, 0.5, n)
        lines = ["y,fp,adj,grp"]
        for i in range(n):
            lines.append(f"{float(y[i])!r},{float(fp[i])!r},{float(adj[i])!r},g{group[i]}")
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("fp", "predictor", "numeric"),
            VariableSpec("adj", "predictor", "numeric"),
            VariableSpec("grp", "predictor", "categorical"),
        ]
        return load_csv(io.StringIO("\n".join(lines) + "\n"), schema)

    def test_routes_by_kind(self):
        report = screen_dataset(self._dataset(), "y", ["fp", "grp"], alpha=0.05)
        assert "fp" in report.correlations
        assert "grp" in report.anova
        assert "grp" in report.tukey
        assert report.correlations["fp"].p_value < 0.05
        assert report.anova["grp"].p_value < 0.05
        assert set(report.significant_predictors()) == {"fp", "grp"}

    def test_dual_treatment_unquantified_category_is_a_data_error(self):
        ds = generate_synthetic(GeneratorConfig(n=40), 5)
        with pytest.raises(
            DataError, match=r"^no quantification value for category '\d\.\d\d' of 'vaf'$"
        ):
            screen_dataset(
                ds, "defects", ["vaf"], dual_treatment=["vaf"],
                codings={"vaf": {"0.65": 0.65}},
            )

    def test_dual_treatment_categorical_needs_a_mapping(self):
        # numeric-looking labels are not parsed: the caller supplies the values
        ds = generate_synthetic(GeneratorConfig(n=40), 5)
        with pytest.raises(ConfigError, match="^dual treatment of 'vaf' needs a quantification$"):
            screen_dataset(ds, "defects", ["vaf"], dual_treatment=["vaf"])

    def test_dual_treatment_categorical_uses_complete_rows(self):
        text = "y,v\n1,2\n2,\n,3\n4,3\n5,1\n6,2\n7,1\n"
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("v", "predictor", "categorical"),
        ]
        ds = load_csv(io.StringIO(text), schema)
        report = screen_dataset(
            ds, "y", ["v"], dual_treatment=["v"],
            codings={"v": {"1": 10.0, "2": 20.0, "3": 30.0}},
        )
        expected = spearman(np.array([20.0, 30.0, 10.0, 20.0, 10.0]), [1.0, 4.0, 5.0, 6.0, 7.0])
        assert report.correlations["v"] == expected

    def test_dual_treatment_numeric(self):
        ds = self._dataset()
        report = screen_dataset(ds, "y", ["adj"], dual_treatment=["adj"])
        # discrete numeric variable screened both ways
        assert "adj" in report.correlations
        assert "adj" in report.anova
        assert report.anova["adj"].df_between == 2

    def test_dual_treatment_numeric_groups_ascending(self):
        text = "y,x\n1,3.5\n2,\n3,0.5\n4,2\n5,0.5\n6,3.5\n7,2\n"
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("x", "predictor", "numeric"),
        ]
        ds = load_csv(io.StringIO(text), schema)
        report = screen_dataset(ds, "y", ["x"], dual_treatment=["x"])
        assert report.anova["x"].group_counts == {"0.5": 2, "2.0": 2, "3.5": 2}
        assert report.anova["x"].group_means == {"0.5": 4.0, "2.0": 5.5, "3.5": 3.5}

    def test_tukey_pairs_in_category_order_whatever_the_row_order(self):
        # declared order g1, g0, g2 is neither sorted nor the first-seen
        # order of either row order (g2, g0, g1 forward; g1, g2, g0
        # backward), which grouping by first appearance followed
        ds = self._dataset()
        spec = ds.spec("grp")
        declared = VariableSpec("grp", "predictor", "categorical", categories=("g1", "g0", "g2"))
        recode = np.array([declared.categories.index(c) for c in spec.categories] + [-1])
        schema = tuple(declared if s.name == "grp" else s for s in ds.schema)
        columns = {**ds.columns, "grp": recode[ds.columns["grp"]].astype(np.int32)}
        forward = Dataset(schema, columns)
        backward = forward.take(np.arange(forward.row_count)[::-1])
        pairs = []
        for data in (forward, backward):
            report = screen_dataset(data, "y", ["grp"])
            assert list(report.anova["grp"].group_counts) == ["g1", "g0", "g2"]
            pairs.append(report.tukey["grp"])
        assert [(p.group_i, p.group_j) for p in pairs[0]] == [
            ("g1", "g0"), ("g1", "g2"), ("g0", "g2"),
        ]
        for a, b in zip(*pairs):
            assert (a.group_i, a.group_j, a.significant) == (b.group_i, b.group_j, b.significant)
            assert abs(a.mean_difference - b.mean_difference) <= 1e-12 * abs(a.mean_difference)

    def test_each_variable_grouped_once_without_decoding_labels(self, monkeypatch):
        # one group table per categorical (and numeric dual-treatment)
        # variable, shared by ANOVA and Tukey; no per-row label decoding
        tables, labels = [], []
        original_table, original_labels = screening.group_table, Dataset.labels

        def counting_table(response, codes, names):
            tables.append(len(names))
            return original_table(response, codes, names)

        def counting_labels(self, name):
            labels.append(name)
            return original_labels(self, name)

        monkeypatch.setattr(screening, "group_table", counting_table)
        monkeypatch.setattr(Dataset, "labels", counting_labels)
        for n in (64, 2000):
            ds = generate_synthetic(GeneratorConfig(n=n), 7)
            del tables[:]
            report = screen_dataset(
                ds, "defects", ["fp", "max_team_size", "dev_type", "vaf"],
                dual_treatment=["vaf", "max_team_size"],
                codings={"vaf": quantification_from_labels(ds, "vaf")},
            )
            assert set(report.tukey) == {"dev_type", "vaf"}
            assert len(tables) == 3
        assert labels == []
