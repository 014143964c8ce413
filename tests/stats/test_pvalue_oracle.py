"""p-values, quantiles and ranks from the scipy.special kernels, against
scipy.stats.

The stats layer calls the ufuncs that scipy.stats' distribution methods
end in, without their per-call front end, and ranks with its own
midrank helper.  scipy.stats stays here as the oracle: every value must
equal its answer with ``==`` (NaN matching NaN).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as scipy_stats

from repro.stats.correlation import midranks, spearman, two_sided_t_p
from repro.stats.proportion import _z_for, two_sided_normal_p


def _same(ours: float, theirs: float) -> bool:
    return ours == theirs or (math.isnan(ours) and math.isnan(theirs))


EDGE_STATISTICS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 5e-324,
    40.5, -41.0, 1e300, -1e300, 1.959963984540054, 37.5, 38.5,
]


class TestNormalTail:
    @settings(max_examples=400, deadline=None)
    @given(z=st.floats(allow_nan=True, allow_infinity=True))
    def test_matches_norm_sf(self, z):
        assert _same(
            two_sided_normal_p(z), 2.0 * float(scipy_stats.norm.sf(abs(z)))
        )

    @pytest.mark.parametrize("z", EDGE_STATISTICS)
    def test_edges(self, z):
        assert _same(
            two_sided_normal_p(z), 2.0 * float(scipy_stats.norm.sf(abs(z)))
        )

    def test_far_tail_and_centre(self):
        assert two_sided_normal_p(0.0) == 1.0
        assert two_sided_normal_p(45.0) == 0.0
        assert math.isnan(two_sided_normal_p(math.nan))


class TestStudentTail:
    @settings(max_examples=400, deadline=None)
    @given(
        t=st.floats(allow_nan=True, allow_infinity=True),
        dof=st.one_of(
            st.just(1), st.just(2), st.integers(1, 500), st.integers(10**6, 10**12)
        ),
    )
    def test_matches_t_sf(self, t, dof):
        assert _same(
            two_sided_t_p(t, dof), 2.0 * float(scipy_stats.t.sf(abs(t), dof))
        )

    @pytest.mark.parametrize("dof", [1, 2, 3, 30, 82, 10**6, 10**15])
    @pytest.mark.parametrize("t", EDGE_STATISTICS)
    def test_edges(self, t, dof):
        assert _same(
            two_sided_t_p(t, dof), 2.0 * float(scipy_stats.t.sf(abs(t), dof))
        )


class TestNormalQuantile:
    @settings(max_examples=200, deadline=None)
    @given(confidence=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(confidence=0.95)
    @example(confidence=0.99)
    @example(confidence=0.5)
    def test_matches_norm_ppf(self, confidence):
        assert _z_for(confidence) == float(
            scipy_stats.norm.ppf(0.5 + confidence / 2.0)
        )


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestMidranks:
    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(np.float64, st.integers(0, 120), elements=finite))
    def test_matches_rankdata(self, x):
        assert midranks(x).tolist() == scipy_stats.rankdata(x).tolist()

    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(
        np.float64, st.integers(1, 120),
        elements=st.sampled_from([-2.0, -0.0, 0.0, 1.0, 1.5, 7.0]),
    ))
    def test_matches_rankdata_with_ties(self, x):
        assert midranks(x).tolist() == scipy_stats.rankdata(x).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 84, 1000])
    def test_all_tied(self, n):
        x = np.full(n, 3.25)
        assert midranks(x).tolist() == scipy_stats.rankdata(x).tolist()
        assert midranks(x).tolist() == [(n + 1) / 2] * n

    def test_spearman_with_ties_matches_scipy(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 9, 84).astype(float)
        y = x + rng.integers(0, 4, 84)
        ours = spearman(x, y)
        theirs = scipy_stats.spearmanr(x, y)
        assert ours.coefficient == pytest.approx(theirs.statistic, rel=1e-12)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-9)
