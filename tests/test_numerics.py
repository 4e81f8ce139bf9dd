"""Kernel tests: PRNG, least squares, and the distribution functions."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defectcast import numerics
from defectcast._errors import NumericalError
from defectcast.numerics import (
    RandomStream,
    f_cdf,
    min_norm_least_squares,
    solve_least_squares,
    studentized_range_cdf,
    studentized_range_sf,
    t_cdf,
    unscaled_covariance,
)

import oracles


class TestRandomStream:
    def test_same_seed_same_stream(self):
        a = RandomStream(987654321).uniforms(5000)
        b = RandomStream(987654321).uniforms(5000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStream(1).uniforms(100)
        b = RandomStream(2).uniforms(100)
        assert not np.array_equal(a, b)

    def test_uniform_range(self):
        u = RandomStream(5).uniforms(200_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_chi_square_uniformity(self):
        # 10 equal bins over 1e5 draws; 27.877 is the 0.999 chi-square(9)
        # quantile, so a correct generator fails this about 1 in 1000 seeds.
        u = RandomStream(20240817).uniforms(100_000)
        counts = np.bincount((u * 10).astype(int), minlength=10)
        expected = 10_000.0
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < 27.877

    def test_normals_moments(self):
        z = RandomStream(11).normals(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_normals_odd_count(self):
        z = RandomStream(3).normals(7)
        assert z.shape == (7,)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 500])
    def test_permutation_matches_swap_loop(self, n):
        # A split's training rows at train size m are the first m rows of one
        # key order per child stream, so the draws at m = 1 .. n are nested
        # and each adds exactly one row: the next row of that order.
        children = (0, 7)
        for seed in (0, 13, 20260822, 2**64 - 1):
            root = RandomStream(seed)
            orders = np.empty((max(children) + 1, n), dtype=np.int_)
            seen = np.zeros((max(children) + 1, n), dtype=bool)
            for m in range(1, n + 1):
                small, _ = root.split_subsets(max(children) + 1, n, m)
                assert small.dtype == np.int_
                for i in children:
                    new = small[i][~seen[i][small[i]]]
                    assert new.shape == (1,)
                    orders[i, m - 1] = new[0]
                    seen[i, new[0]] = True
            for i in children:
                want = oracles.order_by_swap_loop(RandomStream(seed).split(i).uniforms(n))
                np.testing.assert_array_equal(orders[i], want)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 500])
    def test_split_permutations_are_the_childrens(self, n):
        for seed in (0, 13, 20260822, 2**64 - 1):
            for count in (0, 1, 7):
                for m in sorted({1, (n + 1) // 2, n}):
                    root = RandomStream(seed)
                    small, rest = root.split_subsets(count, n, m)
                    assert small.shape == (count, m) and rest.shape == (count, n - m)
                    for i in range(count):
                        want = oracles.split_rows_by_sorted_keys(seed, i, n, m)
                        assert np.array_equal(small[i], want[0])
                        assert np.array_equal(rest[i], want[1])
                    # the parent's own stream is not consumed
                    assert root.uniforms(3).tobytes() == RandomStream(seed).uniforms(3).tobytes()

    def test_split_streams_are_distinct(self):
        parent = RandomStream(77)
        childs = [parent.split(i).uniforms(50) for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(childs[i], childs[j])
        # splitting does not consume parent draws, and a child's stream is
        # not the parent's
        got = parent.uniforms(51)
        assert np.array_equal(got, RandomStream(77).uniforms(51))
        assert not np.array_equal(got[:50], childs[0])

    def test_split_reproducible(self):
        a = RandomStream(4242).split(3).uniforms(10)
        b = RandomStream(4242).split(3).uniforms(10)
        assert np.array_equal(a, b)


class TestLeastSquares:
    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            n, p = 12, 4
            design = rng.integers(-9, 10, size=(n, p))
            design[:, 0] = 1
            target = rng.integers(-20, 21, size=n)
            expected = oracles.rational_least_squares(design.tolist(), target.tolist())
            got = solve_least_squares(design.astype(float), target.astype(float))
            np.testing.assert_allclose(got.coefficients, expected, atol=1e-10)
            assert got.rank == p

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(7)
        design = rng.normal(size=(60, 5))
        target = rng.normal(size=60)
        sol = solve_least_squares(design, target)
        residual = target - design @ sol.coefficients
        scale = float(np.abs(design).max() * np.abs(target).max())
        assert np.abs(design.T @ residual).max() <= 1e-8 * max(scale, 1.0)

    def test_exact_polynomial_recovery(self):
        t = np.arange(30.0)
        design = np.column_stack([np.ones(30), t, t * t])
        target = 2.0 - 1.5 * t + 0.25 * t * t
        sol = solve_least_squares(design, target)
        np.testing.assert_allclose(sol.coefficients, [2.0, -1.5, 0.25], atol=1e-9)
        assert sol.residual_sum_squares < 1e-16

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(3)
        design = rng.normal(size=(20, 4))
        design[:, 3] = design[:, 1] * 2.0 - design[:, 2]
        with pytest.raises(NumericalError, match="rank deficient"):
            solve_least_squares(design, rng.normal(size=20))
        with pytest.raises(NumericalError, match="column"):
            solve_least_squares(design, rng.normal(size=20))

    def test_underdetermined_rejected(self):
        with pytest.raises(NumericalError, match="under-determined"):
            solve_least_squares(np.ones((3, 5)), np.ones(3))

    def test_min_norm_matches_pseudoinverse_at_any_rank(self):
        rng = np.random.default_rng(29)
        for n, p, k in [(30, 6, 6), (30, 6, 4), (3, 5, 3), (8, 4, 0), (12, 5, 2)]:
            design = rng.normal(size=(n, k)) @ rng.normal(size=(k, p))
            design[:, p - 1] = 0.0
            target = rng.normal(size=n)
            want = oracles.min_norm_consequents(design, target, np.zeros(p))
            got = min_norm_least_squares(design, target)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert got[p - 1] == 0.0

    def test_min_norm_rejects_non_finite(self):
        with pytest.raises(NumericalError, match="non-finite"):
            min_norm_least_squares(np.array([[1.0], [math.nan]]), np.ones(2))

    @pytest.mark.parametrize("solver", [solve_least_squares, min_norm_least_squares])
    @pytest.mark.parametrize(
        "design, target, message",
        [
            (np.ones((5, 3)), np.ones(4), "design and target row counts differ"),
            (np.ones(5), np.ones(5), "design must be 2-d and target 1-d"),
            (np.ones((5, 2)), np.ones((5, 1)), "design must be 2-d and target 1-d"),
        ],
    )
    def test_solvers_share_the_shape_checks(self, solver, design, target, message):
        with pytest.raises(NumericalError, match=message):
            solver(design, target)

    def test_covariance_matches_inverse(self):
        rng = np.random.default_rng(17)
        design = rng.normal(size=(40, 4))
        cov = unscaled_covariance(solve_least_squares(design, rng.normal(size=40)))
        direct = np.linalg.inv(design.T @ design)
        np.testing.assert_allclose(cov, direct, atol=1e-10)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    )


@st.composite
def _designs(draw):
    """An m x n design, 0 <= m <= 80 and 0 <= n <= 8, of full rank, with
    duplicated columns or all zero, in C order, F order, as a transposed
    view or as a strided view."""
    m, n = draw(st.integers(0, 80)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["full", "duplicated", "zero"]))
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(m, n))
    if kind == "duplicated" and n >= 2:
        for j in range(1, n, 2):
            x[:, j] = x[:, rng.integers(0, j)] * rng.choice([1.0, -2.5])
    elif kind == "zero":
        x[:] = 0.0
    if layout == "C":
        x = np.ascontiguousarray(x)
    elif layout == "F":
        x = np.asfortranarray(x)
    elif layout == "transposed":
        x = np.ascontiguousarray(x.T).T
    else:
        wide = np.zeros((m, 2 * n))
        wide[:, ::2] = x
        x = wide[:, ::2]
    return x, rng.normal(size=m)


def _case(m, n, kind):
    x = np.random.default_rng(m * 10 + n).normal(size=(m, n))
    if kind == "duplicated":
        x[:, -1] = 2.0 * x[:, 0]
    elif kind == "zero":
        x[:] = 0.0
    return x, np.arange(m, dtype=float)


@settings(max_examples=400, deadline=None)
@given(_designs())
@example(_case(3, 5, "full")).via("m < n")
@example(_case(4, 4, "full")).via("m = n")
@example(_case(7, 4, "full")).via("m > n")
@example(_case(3, 5, "duplicated")).via("m < n, rank deficient")
@example(_case(4, 4, "duplicated")).via("m = n, rank deficient")
@example(_case(7, 4, "duplicated")).via("m > n, rank deficient")
@example(_case(3, 5, "zero")).via("m < n, all zero")
@example(_case(4, 4, "zero")).via("m = n, all zero")
@example(_case(7, 4, "zero")).via("m > n, all zero")
def test_lapack_route_matches_scipy_wrappers_bit_for_bit(case):
    """The direct dgeqp3/dorgqr/dtrtrs calls reproduce scipy.linalg's
    ``qr(mode="economic", pivoting=True)`` and ``solve_triangular`` to the
    last bit: factors, pivots, rank and every solution built from them.
    R is C-contiguous, as the ``np.triu`` inside the wrapper returns it:
    ``_solve_upper`` picks its ``dtrtrs`` arguments by memory order."""
    x, y = case
    want = oracles.pivoted_qr_by_scipy(x)
    q, r, piv, ranks = numerics._pivoted_qr(x[None])
    got = q[0], r[0], piv[0]
    for g, w in zip(got, want[:3]):
        assert _same_bits(g, w)
    assert got[1].flags.c_contiguous
    assert got[1].strides == want[1].strides
    rank = want[3]
    assert ranks == [rank]
    # min_norm_least_squares also factors the transposed view r[:rank].T
    assert _same_bits(min_norm_least_squares(x, y), oracles.min_norm_least_squares_by_scipy(x, y))
    m, n = x.shape
    if m < n or rank < n:
        with pytest.raises(NumericalError):
            solve_least_squares(x, y)
        return
    sol = solve_least_squares(x, y)
    coef, rss = oracles.least_squares_by_scipy(x, y)
    assert _same_bits(sol.coefficients, coef)
    assert sol.residual_sum_squares == rss
    assert _same_bits(unscaled_covariance(sol), oracles.unscaled_covariance_by_refactoring(x))


@st.composite
def _workspace_cases(draw):
    """A tall, wide, 1 x 1 or rank-deficient design of up to 60 rows and 8
    columns, with a target."""
    kind = draw(st.sampled_from(["tall", "wide", "1x1", "rank deficient"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "1x1":
        m = n = 1
    elif kind == "wide":
        m = draw(st.integers(1, 7))
        n = draw(st.integers(m + 1, 8))
    else:
        n = draw(st.integers(1, 8))
        m = draw(st.integers(n, 60))
    x = rng.normal(size=(m, n))
    if kind == "rank deficient" and n >= 2:
        x[:, -1] = x[:, 0] * rng.choice([1.0, -2.5])
    return x, rng.normal(size=m)


@settings(max_examples=150, deadline=None)
@given(_workspace_cases())
def test_cached_workspace_gives_the_query_path_bits(case):
    """One workspace query per routine and argument shapes gives every
    factor and solution of a query before each call, to the last bit."""
    from unittest import mock

    x, y = case

    def solutions():
        outs = list(numerics._pivoted_qr(x[None]))
        outs.append(min_norm_least_squares(x, y))
        try:
            outs.append(solve_least_squares(x, y).coefficients)
        except NumericalError as err:
            outs.append(str(err))
        return outs

    # twice, so the second takes the workspace sizes of the first
    got, again = solutions(), solutions()
    with mock.patch.object(numerics, "_lapack", oracles.lapack_by_query):
        want = solutions()
    for g, a, w in zip(got, again, want):
        if isinstance(w, str):
            assert g == a == w
        else:
            assert _same_bits(g, w) and _same_bits(a, w)


def test_workspace_query_runs_once_per_shape():
    from unittest import mock

    calls, dgeqp3 = [], numerics._dgeqp3

    def counted(*args, **kwargs):
        calls.append(kwargs["lwork"])
        return dgeqp3(*args, **kwargs)

    with mock.patch.object(numerics, "_dgeqp3", counted):
        for shape in [(5, 3), (5, 3), (7, 3), (5, 3)]:
            numerics._pivoted_qr(np.ones((2, *shape)))
    # a query (lwork=-1) for each of the two shapes, then two calls for
    # each of the four stacks
    assert calls.count(-1) == 2
    assert len(calls) == 10


# the kinds of matrix in a stack: "full" is the usual one, "collinear" and
# "integer" (small integers, often with tied or empty columns) vary the
# rank, "non-finite" holds one NaN or infinity in the design or the target
_STACK_KINDS = ["full"] * 6 + ["collinear", "collinear", "integer", "integer", "zero", "non-finite"]


def _stack_case(n, p, kinds, seed):
    """A stack of one n x p design and one target per entry of ``kinds``."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(len(kinds), n, p)), rng.normal(size=(len(kinds), n))
    for xs, ys, kind in zip(x, y, kinds):
        if kind == "collinear" and p >= 2:
            for j in rng.choice(np.arange(1, p), size=rng.integers(1, p), replace=False):
                xs[:, j] = xs[:, rng.integers(0, j)] * rng.choice([1.0, -2.5])
        elif kind == "integer":
            xs[:] = rng.integers(-1, 2, size=(n, p))
        elif kind == "zero":
            xs[:] = 0.0
        elif kind == "non-finite" and n * p:
            where = xs if rng.integers(0, 2) else ys
            where.flat[rng.integers(0, where.size)] = rng.choice([np.nan, np.inf, -np.inf])
    return x, y


@st.composite
def _stacks(draw):
    """A stack of 1 to 40 designs of one shape, tall, square, wide, 1 x 1
    or without rows, each of its own kind (see ``_STACK_KINDS``), with
    their targets."""
    shape = draw(st.sampled_from(["tall", "square", "wide", "1x1", "no rows"]))
    if shape == "1x1":
        n = p = 1
    elif shape == "no rows":
        n, p = 0, draw(st.integers(0, 5))
    elif shape == "square":
        n = p = draw(st.integers(1, 8))
    elif shape == "wide":
        n = draw(st.integers(1, 7))
        p = draw(st.integers(n + 1, 8))
    else:
        p = draw(st.integers(1, 8))
        n = draw(st.integers(p + 1, 60))
    kinds = draw(st.lists(st.sampled_from(_STACK_KINDS), min_size=1, max_size=40))
    return _stack_case(n, p, kinds, draw(st.integers(0, 2**32 - 1)))


def _per_matrix(solver, x, y):
    """``solver`` on each matrix of a stack, in order, up to the first
    fault: the solutions before it, and its (index, message, column)."""
    solutions = []
    for s, (xs, ys) in enumerate(zip(x, y)):
        try:
            solutions.append(solver(xs, ys))
        except NumericalError as err:
            return solutions, (s, str(err), getattr(err, "column", None))
    return solutions, None


def _raises(solver, x, y, fault):
    with pytest.raises(NumericalError) as info:
        solver(x, y)
    assert (info.value.index, str(info.value), getattr(info.value, "column", None)) == fault


@settings(max_examples=200, deadline=None)
@given(_stacks())
@example(_stack_case(9, 4, ["full", "collinear", "integer", "zero", "full"], 1)).via(
    "mixed ranks"
)
@example(_stack_case(9, 4, ["full", "full", "collinear", "non-finite"], 2)).via(
    "a collinear matrix at a later index"
)
@example(_stack_case(9, 4, ["full", "integer", "non-finite", "collinear"], 3)).via(
    "a non-finite matrix at a later index"
)
@example(_stack_case(3, 5, ["full", "collinear", "full"], 4)).via("wide")
@example(_stack_case(1, 1, ["full", "zero", "full"], 5)).via("1 x 1")
@example(_stack_case(0, 3, ["full", "full"], 6)).via("no rows")
def test_stacked_solvers_equal_the_per_matrix_oracles(case):
    """Each matrix of a stack gets the bits of its own per-matrix solve, at
    any mix of ranks, and a stack raises its first faulty matrix's fault
    with that matrix's index: a non-finite value, too few rows, or (for the
    full-rank solver) a rank deficit, which names its column.  A 2-d call
    is a stack of one and returns what the per-matrix solver returns."""
    x, y = case
    want, fault = _per_matrix(oracles.min_norm_least_squares_per_matrix, x, y)
    if fault:
        _raises(min_norm_least_squares, x, y, fault)
    else:
        assert _same_bits(min_norm_least_squares(x, y), np.array(want).reshape(x.shape[::2]))
    for xs, ys, w in zip(x, y, want):
        assert _same_bits(min_norm_least_squares(xs, ys), w)

    want, fault = _per_matrix(oracles.solve_least_squares_per_matrix, x, y)
    if fault:
        _raises(solve_least_squares, x, y, fault)
        s = fault[0]
        _raises(solve_least_squares, x[s], y[s], (0, *fault[1:]))
    else:
        sol = solve_least_squares(x, y)
        for name in ("coefficients", "residual_sum_squares", "r", "piv"):
            stacked = np.array([getattr(w, name) for w in want])
            assert _same_bits(getattr(sol, name), stacked.reshape(getattr(sol, name).shape))
        assert sol.rank == x.shape[2]
    for xs, ys, w in zip(x, y, want):
        sol = solve_least_squares(xs, ys)
        assert type(sol.residual_sum_squares) is float and type(sol.rank) is int
        assert sol.residual_sum_squares == w.residual_sum_squares and sol.rank == w.rank
        for name in ("coefficients", "r", "piv"):
            assert _same_bits(getattr(sol, name), getattr(w, name))


@pytest.mark.parametrize(
    "design, target, want",
    [
        # rank 0: the kept triangle is 0 x 0 and the right-hand side empty
        (np.zeros((5, 3)), np.ones(5), [0.0, 0.0, 0.0]),
        (np.zeros((0, 3)), np.zeros(0), [0.0, 0.0, 0.0]),
        (np.zeros((4, 0)), np.ones(4), []),
    ],
)
def test_min_norm_empty_and_rank_zero_stay_silent(capfd, design, target, want):
    """LAPACK reports an illegal argument (a 0 x 0 triangle, a size-0
    design) by printing from XERBLA and returning; these shapes must take
    the empty early returns and never reach it."""
    got = min_norm_least_squares(design, target)
    assert got.dtype == np.float64
    assert got.tolist() == want
    assert capfd.readouterr() == ("", "")


def test_least_squares_without_columns_stays_silent(capfd):
    sol = solve_least_squares(np.zeros((4, 0)), np.ones(4))
    assert sol.coefficients.shape == (0,)
    assert sol.residual_sum_squares == 4.0
    assert sol.rank == 0
    assert unscaled_covariance(sol).shape == (0, 0)
    assert capfd.readouterr() == ("", "")


def test_package_uses_no_numpy_linalg():
    """All linear algebra in the package goes through direct LAPACK calls
    from scipy.linalg.lapack, on one code path.

    numpy's wheel bundles its own OpenBLAS, separate from scipy's, so a
    numpy.linalg call loads a second LAPACK with a second BLAS thread pool
    into the process, and its rank cutoffs differ from the one that
    ``numerics`` applies to every least-squares solve.  scipy.linalg's
    ``qr`` and ``solve_triangular`` wrappers are the test oracles'
    reference, not a second route through the package.
    """
    package = Path(__file__).resolve().parent.parent / "src" / "defectcast"
    pattern = re.compile(
        r"\b(numpy|np)\.linalg\b|from\s+numpy\s+import\b.*\blinalg\b"
        r"|\blinalg\.qr\b|from\s+scipy\.linalg\s+import\b.*\bqr\b|\bsolve_triangular\b"
    )
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(package.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


class TestTCdf:
    def test_against_integration(self):
        for df in [1, 2, 5, 17, 60]:
            for x in [-3.7, -1.2, -0.3, 0.0, 0.9, 2.2, 4.1]:
                want = oracles.t_cdf_by_integration(x, df)
                assert abs(t_cdf(x, df) - want) < 1e-9, (x, df)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            df = float(rng.integers(1, 40))
            a, b = np.sort(rng.normal(scale=3.0, size=2))
            fa, fb = t_cdf(a, df), t_cdf(b, df)
            assert 0.0 <= fa <= fb <= 1.0

    def test_center(self):
        assert t_cdf(0.0, 9) == 0.5

    def test_infinite_argument(self):
        assert t_cdf(math.inf, 4) == 1.0
        assert t_cdf(-math.inf, 4) == 0.0

    def test_two_sided_tail_against_tail_integration(self):
        # at the larger df, 1 - t_cdf(t) rounds these tails to 0 or loses digits
        for df in [1, 5, 30, 58, 120, 1998]:
            for t in [9.0, 12.0, 20.0]:
                want = 2.0 * oracles.t_tail_by_integration(t, df)
                assert abs(2.0 * t_cdf(-t, df) / want - 1.0) < 1e-9, (t, df)

    def test_nan_and_df_rejected(self):
        with pytest.raises(NumericalError):
            t_cdf(math.nan, 4)
        with pytest.raises(NumericalError):
            t_cdf(1.0, 0)


class TestFCdf:
    def test_against_integration(self):
        for df1 in [1, 2, 3, 7]:
            for df2 in [2, 9, 33]:
                for x in [0.2, 0.8, 1.5, 3.4, 9.0]:
                    want = oracles.f_cdf_by_integration(x, df1, df2)
                    assert abs(f_cdf(x, df1, df2) - want) < 1e-9, (x, df1, df2)

    def test_t_squared_identity(self):
        # F(1, df) is the square of t(df)
        for df in [2, 5, 11, 29]:
            for t in [0.3, 1.1, 2.6]:
                lhs = f_cdf(t * t, 1, df)
                rhs = 2.0 * t_cdf(t, df) - 1.0
                assert abs(lhs - rhs) < 1e-10

    def test_nonpositive_is_zero(self):
        assert f_cdf(0.0, 3, 8) == 0.0
        assert f_cdf(-2.0, 3, 8) == 0.0

    def test_upper_tail_against_tail_integration(self):
        # P(F(d1, d2) > f) = P(F(d2, d1) < 1 / f)
        for d1, d2 in [(1, 10), (2, 57), (3, 1990), (4, 60), (7, 3)]:
            for f in [50.0, 200.0]:
                want = oracles.f_tail_by_integration(f, d1, d2)
                assert abs(f_cdf(1.0 / f, d2, d1) / want - 1.0) < 1e-9, (f, d1, d2)

    def test_nan_and_df_rejected(self):
        with pytest.raises(NumericalError):
            f_cdf(math.nan, 3, 8)
        with pytest.raises(NumericalError):
            f_cdf(1.0, 0, 8)


class TestStudentizedRange:
    def test_two_group_reduction(self):
        # with k = 2 the statistic is sqrt(2) |t|
        for q in np.linspace(0.2, 6.0, 20):
            want = 2.0 * t_cdf(q / math.sqrt(2.0), 12) - 1.0
            got = studentized_range_cdf(float(q), 2, 12)
            assert abs(got - want) < 1e-6, q

    def test_tabulated_upper_point(self):
        # 3.88 is the classical 5% critical value for k = 3, df = 10
        assert abs(studentized_range_cdf(3.88, 3, 10) - 0.95) < 0.002

    def test_monotone_in_q(self):
        values = [studentized_range_cdf(q, 4, 9) for q in [0.5, 1.0, 2.0, 3.0, 5.0]]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_edge_arguments(self):
        assert studentized_range_cdf(0.0, 3, 10) == 0.0
        assert studentized_range_cdf(-1.0, 3, 10) == 0.0
        assert studentized_range_cdf(math.inf, 3, 10) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(NumericalError):
            studentized_range_cdf(2.0, 1, 10)
        with pytest.raises(NumericalError):
            studentized_range_cdf(2.0, 3, 0.5)


def _two_group_tail(q, df):
    # P(Q_2 > q): with k = 2 the statistic is sqrt(2) |t|
    return 2.0 * t_cdf(-q / math.sqrt(2.0), df)


# q from 0.5 to 80: the body, the 1e-22 tail of a 2000-row Tukey pair, and
# tails down to the smallest normal double
TAIL_QS = np.linspace(0.5, 80.0, 160).tolist()


class TestStudentizedRangeTail:
    @pytest.mark.parametrize("df", [1, 5, 20, 59, 200, 1990, 7800])
    def test_two_group_identity(self, df):
        checked = 0
        for q in TAIL_QS:
            want = _two_group_tail(q, df)
            if want < 1e-300:
                continue
            assert abs(studentized_range_sf(q, 2, df) / want - 1.0) < 1e-9, (q, df)
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("k", [3, 4, 5, 8])
    def test_between_two_group_tail_and_union_bound(self, k):
        # the range of k normals is at least that of two of them, and
        # exceeds w only if one of the C(k, 2) pairs does; far in the tail
        # the union bound is tight, so both sides allow the relative 1e-9 the
        # identity test holds the kernel to
        for df in (1, 5, 20, 200, 1990):
            for q in TAIL_QS:
                two = _two_group_tail(q, df)
                if two < 1e-300:
                    continue
                got = studentized_range_sf(q, k, df)
                assert two * (1.0 - 1e-9) <= got <= math.comb(k, 2) * two * (1.0 + 1e-9), (
                    q,
                    k,
                    df,
                )

    def test_edge_arguments(self):
        for q in (0.0, -1.0, -math.inf):
            assert studentized_range_sf(q, 3, 10) == 1.0
        assert studentized_range_sf(math.inf, 3, 10) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(NumericalError, match="studentized_range_sf got NaN"):
            studentized_range_sf(math.nan, 3, 10)
        with pytest.raises(NumericalError, match="integer k >= 2, got 1"):
            studentized_range_sf(2.0, 1, 10)
        with pytest.raises(NumericalError, match="df >= 1, got 0.5"):
            studentized_range_sf(2.0, 3, 0.5)

    def test_cdf_is_one_minus_tail(self):
        for q in (0.5, 2.0, 3.88, 6.0):
            assert studentized_range_cdf(q, 4, 30) == 1.0 - studentized_range_sf(q, 4, 30)
        with pytest.raises(NumericalError, match="studentized_range_cdf got NaN"):
            studentized_range_cdf(math.nan, 3, 10)


class TestDot:
    def test_bits_of_matmul_up_to_the_chunk(self):
        rng = np.random.default_rng(8)
        for n in (0, 1, 7, 1000, numerics._DOT_CHUNK - 1, numerics._DOT_CHUNK):
            x, y = rng.normal(size=n), rng.normal(size=n) * 1e3
            assert numerics.dot(x, y).hex() == float(x @ y).hex()

    def test_longer_product_sums_chunks_in_order(self):
        rng = np.random.default_rng(9)
        n = 3 * numerics._DOT_CHUNK + 5
        x, y = rng.normal(size=n), rng.normal(size=n)
        want = 0.0
        for i in range(0, n, numerics._DOT_CHUNK):
            want += float(x[i : i + numerics._DOT_CHUNK] @ y[i : i + numerics._DOT_CHUNK])
        assert numerics.dot(x, y).hex() == want.hex()
