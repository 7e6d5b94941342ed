"""Tests for the centralized transport core: kernels, scaling steps, and bounds.

Hand-checkable examples are frozen as literals; randomized sections use
seeded generators so failures reproduce exactly.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsinkhorn.config import mixture_histograms
from dsinkhorn.protocol import CommsConfig
from dsinkhorn.otcore import (
    CostMatrix,
    DegenerateStateError,
    Histogram,
    KernelUnderflowError,
    ProblemInstance,
    build_gibbs_kernel,
    _ibp_log_step,
    _local_scaling,
    centralized_barycenter,
    grid_cost,
    hilbert_distance,
    ibp_cycle,
    log_message,
    osc_log_kernel,
    softmax_normalize,
    theory_constants,
)
from reference import log_message_lse

E_INV = 0.36787944117144233  # exp(-1)
E_INV4 = 0.01831563888873418  # exp(-4)


def _ibp_step(histograms, kernel, ridge, v):
    """One synchronized IBP round from a positive v through the solver's
    log-domain step; returns (u, v_next)."""
    mu = np.stack([h.weights for h in histograms])
    u, log_v_next = _ibp_log_step(mu, kernel, ridge, np.log(v))
    return u, np.exp(log_v_next)


def _random_instance(rng, d, n, epsilon=0.5):
    hists = []
    for _ in range(n):
        w = rng.random(d) + 0.05
        hists.append(w / w.sum())
    return ProblemInstance(
        cost=grid_cost(d), epsilon=epsilon, ridge=1e-16, histograms=tuple(hists)
    )


class TestHistogramValidation:
    def test_valid_histogram(self):
        h = Histogram(np.array([0.25, 0.75]))
        assert h.d == 2

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            Histogram(np.array([1.5, -0.5]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Histogram(np.array([0.4, 0.4]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Histogram(np.array([np.nan, 1.0]))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            Histogram(np.ones((2, 2)) / 4.0)

    def test_zero_entries_allowed(self):
        h = Histogram(np.array([1.0, 0.0, 0.0]))
        assert h.weights[0] == 1.0


class TestCostMatrix:
    def test_grid_cost_endpoints(self):
        c = grid_cost(5)
        assert c.entries[0, 0] == 0.0
        assert c.entries[0, 4] == 1.0
        assert c.entries[1, 3] == pytest.approx((2.0 / 4.0) ** 2)
        assert c.max_entry == 1.0

    def test_grid_cost_symmetric(self):
        c = grid_cost(9)
        assert_allclose(c.entries, c.entries.T)

    def test_grid_cost_needs_two_points(self):
        with pytest.raises(ValueError):
            grid_cost(1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CostMatrix(np.zeros((2, 3)))

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestGibbsKernel:
    def test_two_point_kernel(self):
        cost = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        kernel = build_gibbs_kernel(cost, epsilon=1.0)
        assert_allclose(
            kernel.entries, np.array([[1.0, E_INV], [E_INV, 1.0]]), rtol=1e-15
        )
        assert_allclose(kernel.log_entries, -cost.entries, rtol=1e-15)

    def test_zero_cost_gives_ones(self):
        kernel = build_gibbs_kernel(CostMatrix(np.zeros((3, 3))), epsilon=0.7)
        assert_allclose(kernel.entries, np.ones((3, 3)))

    def test_sharp_kernel(self):
        cost = CostMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        kernel = build_gibbs_kernel(cost, epsilon=0.5)
        assert kernel.entries[0, 1] == pytest.approx(E_INV4, rel=1e-15)

    def test_underflow_raises(self):
        with pytest.raises(KernelUnderflowError):
            build_gibbs_kernel(grid_cost(8), epsilon=1e-3)

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_bad_epsilon(self, eps):
        with pytest.raises(ValueError):
            build_gibbs_kernel(grid_cost(4), epsilon=eps)


class TestLogMessage:
    def test_uniform_scaling_ones_kernel(self):
        # K = ones, u = 1: each output entry is log(sum_j 1) = log d.
        kernel = build_gibbs_kernel(CostMatrix(np.zeros((4, 4))), epsilon=1.0)
        s = log_message(np.ones(4), kernel)
        assert_allclose(s, np.full(4, np.log(4.0)), rtol=1e-15)

    def test_selects_single_column(self):
        cost = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        kernel = build_gibbs_kernel(cost, epsilon=1.0)
        s = log_message(np.array([1.0, 0.0]), kernel)
        # only the first row of K contributes: (K^T u)_k = K[0, k]
        assert_allclose(s, np.array([0.0, -1.0]), atol=1e-15)

    def test_scaling_shift(self):
        rng = np.random.default_rng(3)
        kernel = ProblemInstance(
            cost=grid_cost(6),
            epsilon=0.5,
            ridge=1e-16,
            histograms=(Histogram(np.full(6, 1.0 / 6.0)),),
        ).kernel()
        u = rng.random(6) + 0.1
        base = log_message(u, kernel)
        shifted = log_message(7.5 * u, kernel)
        assert_allclose(shifted, base + np.log(7.5), rtol=1e-12)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(4)
        kernel = build_gibbs_kernel(grid_cost(10), epsilon=0.8)
        for _ in range(20):
            u = rng.random(10) + 1e-3
            assert_allclose(
                log_message(u, kernel), np.log(kernel.entries.T @ u), rtol=1e-12
            )

    def test_zero_vector_degenerate(self):
        kernel = build_gibbs_kernel(grid_cost(4), epsilon=1.0)
        with pytest.raises(DegenerateStateError):
            log_message(np.zeros(4), kernel)

    @pytest.mark.parametrize("d", [64, 256])
    @pytest.mark.parametrize("epsilon", [0.1, 0.02, 0.002, 0.0015])
    def test_matches_logsumexp_along_ibp(self, epsilon, d):
        # density seed 5 gives agent 1 zero-mass bins at both sizes, so u
        # has exact zeros; eps = 0.0015 puts min K near 3e-290
        kernel = build_gibbs_kernel(grid_cost(d), epsilon)
        mu = np.stack([h.weights for h in mixture_histograms(d, 4, 5)])
        assert (mu == 0).any()
        log_v = np.zeros(d)
        for _ in range(30):
            u, s = _local_scaling(mu, kernel, 1e-16, np.exp(log_v))
            assert_allclose(s, log_message_lse(u, kernel), rtol=0, atol=1e-13)
            for row in u:
                assert_allclose(
                    log_message(row, kernel), log_message_lse(row, kernel), rtol=0, atol=1e-13
                )
            log_v = s.mean(axis=0) - s.mean()

    def test_zero_row_in_batch_degenerate(self):
        kernel = build_gibbs_kernel(grid_cost(8), epsilon=0.5)
        u = np.random.default_rng(6).random((3, 8)) + 0.1
        u[1] = 0.0
        with pytest.raises(DegenerateStateError):
            log_message(u, kernel)

    def test_local_scaling_builds_no_cube(self):
        # an (N, d, d) temporary at N=64, d=512 would be 134 MB
        kernel = build_gibbs_kernel(grid_cost(512), epsilon=0.02)
        mu = np.stack([h.weights for h in mixture_histograms(512, 64, 0)])
        v = np.ones(512)
        tracemalloc.start()
        try:
            _local_scaling(mu, kernel, 1e-16, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestIbpStep:
    def test_hand_worked_single_measure(self):
        # d = 2, C = [[0,1],[1,0]], eps = 1, mu = (1, 0), v = (1, 1).
        # u = mu / (Kv + ridge) = (1/(1 + e^-1), 0);
        # v_next = K^T u since there is one measure.
        cost = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        kernel = build_gibbs_kernel(cost, epsilon=1.0)
        mu = (Histogram(np.array([1.0, 0.0])),)
        u, v_next = _ibp_step(mu, kernel, 1e-16, np.ones(2))
        assert_allclose(u[0], np.array([1.0 / (1.0 + E_INV + 1e-16), 0.0]), rtol=1e-15)
        assert_allclose(v_next, np.array([0.7310585786300049, 0.2689414213699951]), rtol=1e-12)

    def test_geometric_mean_of_messages(self):
        # with several measures the update must be exp(mean log K^T u_i),
        # not a product of N factors.
        rng = np.random.default_rng(5)
        inst = _random_instance(rng, d=8, n=4)
        kernel = inst.kernel()
        v = rng.random(8) + 0.1
        u, v_next = _ibp_step(inst.histograms, kernel, inst.ridge, v)
        logs = np.stack(
            [np.log(kernel.entries.T @ ui) for ui in u]
        )
        assert_allclose(np.log(v_next), logs.mean(axis=0), rtol=1e-10, atol=1e-12)

    def test_matches_nth_root_product(self):
        # small instances stay in range, so the naive N-th-root-of-products
        # form is computable and must agree with the log-domain version.
        rng = np.random.default_rng(6)
        for n in (1, 2, 4):
            inst = _random_instance(rng, d=8, n=n)
            kernel = inst.kernel()
            v = rng.random(8) + 0.1
            u, v_next = _ibp_step(inst.histograms, kernel, inst.ridge, v)
            prod = np.ones(8)
            for ui in u:
                prod *= kernel.entries.T @ ui
            assert_allclose(v_next, prod ** (1.0 / n), rtol=1e-10)

    def test_ridge_guards_zero_mass_rows(self):
        # a support point with zero kernel mass would divide by zero without
        # the ridge; u must come back finite with a zero in that slot.
        cost = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        kernel = build_gibbs_kernel(cost, epsilon=1.0)
        mu = (Histogram(np.array([0.0, 1.0])),)
        u, v_next = _ibp_step(mu, kernel, 1e-16, np.ones(2))
        assert u[0][0] == 0.0
        assert np.all(np.isfinite(u[0]))
        assert np.all(np.isfinite(v_next))


class TestSoftmaxNormalize:
    def test_zeros_to_uniform(self):
        assert_allclose(softmax_normalize(np.zeros(5)).weights, np.full(5, 0.2))

    def test_shift_invariant(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=12)
        a = softmax_normalize(z)
        b = softmax_normalize(z + 123.456)
        assert_allclose(a.weights, b.weights, rtol=1e-12)

    def test_hand_value(self):
        out = softmax_normalize(np.log(np.array([1.0, 3.0])))
        assert_allclose(out.weights, np.array([0.25, 0.75]), rtol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax_normalize(np.array([0.0, np.inf]))

    def test_sums_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.normal(scale=20.0, size=30)
            out = softmax_normalize(z).weights
            assert out.min() >= 0.0
            assert out.sum() == pytest.approx(1.0, abs=1e-12)


class TestHilbertDistance:
    def test_identical_is_zero(self):
        v = np.array([0.2, 0.5, 0.3])
        assert hilbert_distance(v, v) == 0.0

    def test_scaling_is_zero(self):
        v = np.array([0.2, 0.5, 0.3])
        assert hilbert_distance(v, 3.0 * v) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        d = hilbert_distance(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        assert d == pytest.approx(np.log(2.0), rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            a = rng.random(6) + 0.01
            b = rng.random(6) + 0.01
            assert hilbert_distance(a, b) == pytest.approx(
                hilbert_distance(b, a), rel=1e-12
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hilbert_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            hilbert_distance(np.ones(3), np.ones(4))


class TestOscLogKernel:
    def test_flat_kernel_zero(self):
        kernel = build_gibbs_kernel(CostMatrix(np.zeros((4, 4))), epsilon=1.0)
        assert osc_log_kernel(kernel) == 0.0

    def test_two_point_kernel(self):
        cost = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        kernel = build_gibbs_kernel(cost, epsilon=1.0)
        assert osc_log_kernel(kernel) == pytest.approx(1.0, rel=1e-15)

    def test_bounded_by_cost_range(self):
        for eps in (0.3, 0.8, 2.0):
            kernel = build_gibbs_kernel(grid_cost(12), epsilon=eps)
            assert osc_log_kernel(kernel) <= 1.0 / eps + 1e-12

    def test_matches_brute_force(self):
        kernel = build_gibbs_kernel(grid_cost(6), epsilon=0.9)
        logk = kernel.log_entries
        best = 0.0
        for j in range(6):
            for k in range(6):
                best = max(best, (logk[:, j] - logk[:, k]).max())
        assert osc_log_kernel(kernel) == pytest.approx(best, rel=1e-15)


class TestTheoryConstants:
    def test_contraction_factor_tanh(self):
        cost = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        inst = ProblemInstance(
            cost=cost,
            epsilon=0.5,
            ridge=1e-16,
            histograms=(Histogram(np.array([0.5, 0.5])),),
        )
        comms = CommsConfig(delta=1e-3, tau_inner=1e-4, bits=None)
        tc = theory_constants(inst, comms)
        # osc of log K is 2, theta = tanh(2/4); the a-priori bound uses the
        # worst-case oscillation max(C)/eps = 2, hence tanh(1)^2
        assert tc.osc_log_k == pytest.approx(2.0, rel=1e-15)
        assert tc.theta == pytest.approx(np.tanh(0.5), rel=1e-15)
        assert tc.rho == pytest.approx(0.21355226703407257, rel=1e-14)
        assert tc.rho_bound == pytest.approx(0.5800256583859739, rel=1e-14)
        assert tc.rho <= tc.rho_bound

    def test_zero_cost_contracts_instantly(self):
        inst = ProblemInstance(
            cost=CostMatrix(np.zeros((3, 3))),
            epsilon=1.0,
            ridge=1e-16,
            histograms=(Histogram(np.full(3, 1.0 / 3.0)),),
        )
        tc = theory_constants(inst, CommsConfig(delta=0.0, tau_inner=1e-4, bits=None))
        assert tc.theta == 0.0
        assert tc.rho == 0.0
        assert np.isfinite(tc.steady_state_bias_bound)

    def test_bias_scales_with_perturbation(self):
        inst = ProblemInstance(
            cost=grid_cost(8),
            epsilon=0.8,
            ridge=1e-16,
            histograms=(Histogram(np.full(8, 0.125)),),
        )
        tc1 = theory_constants(inst, CommsConfig(delta=1e-3, tau_inner=1e-4, bits=None))
        tc2 = theory_constants(inst, CommsConfig(delta=2e-3, tau_inner=2e-4, bits=None))
        # with delta_q = 0 the bound is linear in tau_inner + delta
        assert tc2.steady_state_bias_bound == pytest.approx(
            2.0 * tc1.steady_state_bias_bound, rel=1e-12
        )

    def test_quantization_enters_bias(self):
        inst = ProblemInstance(
            cost=grid_cost(8),
            epsilon=0.8,
            ridge=1e-16,
            histograms=(Histogram(np.full(8, 0.125)),),
        )
        coarse = CommsConfig(delta=1e-3, tau_inner=1e-4, bits=8)
        fine = CommsConfig(delta=1e-3, tau_inner=1e-4, bits=16)
        tc_coarse = theory_constants(inst, coarse)
        tc_fine = theory_constants(inst, fine)
        assert tc_coarse.steady_state_bias_bound > tc_fine.steady_state_bias_bound
        expected_ratio = (1e-4 + 1e-3 + coarse.delta_q) / (1e-4 + 1e-3 + fine.delta_q)
        assert tc_coarse.steady_state_bias_bound / tc_fine.steady_state_bias_bound == pytest.approx(
            expected_ratio, rel=1e-12
        )

    def test_overflow_yields_inf_and_warns(self):
        # at eps = 0.01 the contraction estimate saturates to 1 in floats and
        # the bound degenerates; this is reported, not hidden.
        inst = ProblemInstance(
            cost=CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
            epsilon=0.01,
            ridge=1e-16,
            histograms=(Histogram(np.array([0.5, 0.5])),),
        )
        with pytest.warns(RuntimeWarning, match=r"is \+inf: the contraction factor rho saturated at 1$"):
            tc = theory_constants(inst, CommsConfig(delta=1e-3, tau_inner=1e-4, bits=None))
        assert tc.bias_bound_overflowed
        assert tc.steady_state_bias_bound == np.inf

    def test_clip_floor_below_exp_range_yields_inf(self):
        # exp(s_min) is 0.0 below s_min = -745: the bound is +inf, not a
        # ZeroDivisionError
        inst = ProblemInstance(
            cost=grid_cost(8), epsilon=0.8, ridge=1e-16, histograms=(Histogram(np.full(8, 0.125)),)
        )
        with pytest.warns(RuntimeWarning, match=r"is \+inf: exp over- or underflows at the clip range \[-1000, 30\]$"):
            tc = theory_constants(inst, CommsConfig(delta=1e-3, s_min=-1000.0, s_max=30.0, bits=None))
        assert tc.l_norm_bound == np.inf
        assert tc.steady_state_bias_bound == np.inf

    def test_infinite_delta_is_named_as_the_cause(self):
        # nothing overflows: the perturbation tau_inner + delta + delta_q is
        # infinite, and the warning says so and names no other cause
        inst = ProblemInstance(
            cost=grid_cost(8), epsilon=0.8, ridge=1e-16, histograms=(Histogram(np.full(8, 0.125)),)
        )
        with pytest.warns(RuntimeWarning) as caught:
            tc = theory_constants(inst, CommsConfig(delta=np.inf, tau_inner=1e-4, bits=12))
        assert [str(w.message) for w in caught] == [
            "steady-state bias bound is +inf: the perturbation tau_inner + delta + delta_q is infinite (delta=inf)"]
        assert tc.bias_bound_overflowed and tc.steady_state_bias_bound == np.inf
        assert np.isfinite(tc.l_norm_bound)


class TestCentralizedBarycenter:
    def test_symmetric_two_point(self, symmetric_instance):
        res = centralized_barycenter(symmetric_instance, tol=1e-12, max_iter=200)
        assert res.converged
        assert_allclose(res.barycenter.weights, np.array([0.5, 0.5]), atol=1e-10)

    def test_identical_measures_recover_input_shape(self):
        # with all mu_i equal the fixed point does not depend on N
        rng = np.random.default_rng(12)
        w = rng.random(10) + 0.05
        h = Histogram(w / w.sum())
        one = ProblemInstance(
            cost=grid_cost(10), epsilon=0.5, ridge=1e-16, histograms=(h,)
        )
        four = ProblemInstance(
            cost=grid_cost(10), epsilon=0.5, ridge=1e-16, histograms=(h,) * 4
        )
        r1 = centralized_barycenter(one, tol=1e-12, max_iter=2000)
        r4 = centralized_barycenter(four, tol=1e-12, max_iter=2000)
        assert_allclose(r1.barycenter.weights, r4.barycenter.weights, atol=1e-14)

    def test_simplex_output(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            inst = _random_instance(rng, d=12, n=3, epsilon=0.4 + 0.2 * trial)
            res = centralized_barycenter(inst, tol=1e-9, max_iter=5000)
            assert res.barycenter.weights.min() >= 0.0
            assert res.barycenter.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_permutation_equivariance(self):
        # relabeling grid points and permuting every input permutes the output
        rng = np.random.default_rng(14)
        d = 9
        inst = _random_instance(rng, d=d, n=3)
        perm = rng.permutation(d)
        cost_p = CostMatrix(inst.cost.entries[np.ix_(perm, perm)])
        hists_p = tuple(Histogram(h.weights[perm]) for h in inst.histograms)
        inst_p = ProblemInstance(
            cost=cost_p, epsilon=inst.epsilon, ridge=inst.ridge, histograms=hists_p
        )
        res = centralized_barycenter(inst, tol=1e-12, max_iter=5000)
        res_p = centralized_barycenter(inst_p, tol=1e-12, max_iter=5000)
        assert_allclose(res_p.barycenter.weights, res.barycenter.weights[perm], atol=1e-10)

    def test_agent_order_invariance(self):
        rng = np.random.default_rng(15)
        inst = _random_instance(rng, d=8, n=4)
        shuffled = ProblemInstance(
            cost=inst.cost,
            epsilon=inst.epsilon,
            ridge=inst.ridge,
            histograms=inst.histograms[::-1],
        )
        a = centralized_barycenter(inst, tol=1e-12, max_iter=5000)
        b = centralized_barycenter(shuffled, tol=1e-12, max_iter=5000)
        assert_allclose(a.barycenter.weights, b.barycenter.weights, atol=1e-14)

    def test_self_consistency_three_point(self):
        # a loose run must land on the same point as a near-exact one
        rng = np.random.default_rng(16)
        inst = _random_instance(rng, d=3, n=2)
        tight = centralized_barycenter(inst, tol=1e-14, max_iter=10000)
        loose = centralized_barycenter(inst, tol=1e-8, max_iter=10000)
        assert np.abs(loose.barycenter.weights - tight.barycenter.weights).sum() <= 1e-7

    def test_fixed_point_of_raw_map(self):
        # the solver centers log v each step; the raw update adds a constant
        # offset per iteration, so the true fixed point of the uncentered map
        # is the centered limit rescaled by half that offset.
        rng = np.random.default_rng(17)
        inst = _random_instance(rng, d=12, n=3)
        res = centralized_barycenter(inst, tol=1e-13, max_iter=20000)
        assert res.converged
        kernel = inst.kernel()
        v_bar = np.exp(res.log_v)
        _, v_next = _ibp_step(inst.histograms, kernel, inst.ridge, v_bar)
        offset = float(np.log(v_next).mean())
        v_star = v_bar * np.exp(offset / 2.0)
        _, v_check = _ibp_step(inst.histograms, kernel, inst.ridge, v_star)
        assert np.abs(np.log(v_check) - np.log(v_star)).max() <= 1e-10

    def test_trace_and_iteration_count(self):
        rng = np.random.default_rng(18)
        inst = _random_instance(rng, d=8, n=2)
        res = centralized_barycenter(inst, tol=1e-9, max_iter=500)
        assert res.converged
        assert len(res.trace) == res.iterations
        assert res.trace[-1] < 1e-9

    def test_hits_iteration_cap(self):
        rng = np.random.default_rng(19)
        inst = _random_instance(rng, d=8, n=3)
        res = centralized_barycenter(inst, tol=1e-12, max_iter=1)
        assert not res.converged
        assert res.iterations == 1

    def test_log_v_is_centered(self):
        rng = np.random.default_rng(20)
        inst = _random_instance(rng, d=10, n=3)
        res = centralized_barycenter(inst, tol=1e-10, max_iter=5000)
        assert res.log_v.mean() == pytest.approx(0.0, abs=1e-12)


class TestIbpCycle:
    def test_matches_solver_step(self):
        rng = np.random.default_rng(21)
        inst = _random_instance(rng, d=10, n=3)
        kernel = inst.kernel()
        b = softmax_normalize(rng.normal(size=10)).weights
        out = ibp_cycle(inst, kernel, b)
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_entry(self):
        inst = _random_instance(np.random.default_rng(22), d=4, n=2)
        with pytest.raises(ValueError):
            ibp_cycle(inst, inst.kernel(), np.array([0.5, 0.5, 0.0, 0.0]))


class TestHilbertContraction:
    def test_cycle_contracts_at_bounded_rate(self):
        # one full cycle through all measures contracts positive vectors in
        # the Hilbert metric at rate at most tanh^2(max cost / (2 eps)).
        rng = np.random.default_rng(23)
        inst = _random_instance(rng, d=10, n=3, epsilon=0.6)
        kernel = inst.kernel()
        bound = np.tanh(inst.cost.max_entry / (2.0 * inst.epsilon)) ** 2
        checked = 0
        for _ in range(120):
            a = rng.dirichlet(np.full(10, 2.0))
            b = rng.dirichlet(np.full(10, 2.0))
            a = np.clip(a, 1e-12, None)
            b = np.clip(b, 1e-12, None)
            d_in = hilbert_distance(a, b)
            if d_in < 1e-12:
                continue
            d_out = hilbert_distance(ibp_cycle(inst, kernel, a), ibp_cycle(inst, kernel, b))
            assert d_out <= bound * d_in + 1e-9
            checked += 1
        assert checked >= 100
