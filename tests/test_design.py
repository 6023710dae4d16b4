import hashlib

import numpy as np
import pytest

from fedpecd.design import (
    DesignAllocation,
    DesignProblem,
    _Solver,
    design_objective,
    design_score,
    solve_design,
)
from fedpecd.errors import ValidationError
from fedpecd.linalg import pinv
from fedpecd.server import DESIGN_TOL

from conftest import design_problem, random_design_problem


def rot(angle_deg):
    t = np.deg2rad(angle_deg)
    return np.array([np.cos(t), np.sin(t)])


def grid_search_two_by_two(dirs, resolution=1e-3):
    """Brute-force maximum of the span-restricted objective for M=2, K=2,
    d=2, evaluated independently of the solver's code path."""
    e11, e12 = dirs[(0, 0)], dirs[(1, 0)]
    e21, e22 = dirs[(0, 1)], dirs[(1, 1)]
    p1 = np.arange(0.0, 1.0 + resolution / 2, resolution)
    p2 = p1.copy()
    g1, g2 = np.meshgrid(p1, p2, indexing="ij")

    def pair_logdet(wa, wb, ea, eb):
        # det of wa*ea ea' + wb*eb eb' for 2x2 rank-one terms
        a00, a01, a11 = ea[0] ** 2, ea[0] * ea[1], ea[1] ** 2
        b00, b01, b11 = eb[0] ** 2, eb[0] * eb[1], eb[1] ** 2
        w00 = wa * a00 + wb * b00
        w01 = wa * a01 + wb * b01
        w11 = wa * a11 + wb * b11
        det = w00 * w11 - w01**2
        out = np.full_like(det, -np.inf)
        ok = det > 1e-300
        out[ok] = np.log(det[ok])
        return out

    total = pair_logdet(g1, g2, e11, e12) + pair_logdet(1 - g1, 1 - g2, e21, e22)
    idx = np.unravel_index(np.argmax(total), total.shape)
    return float(total[idx]), (float(p1[idx[0]]), float(p2[idx[1]]))


class TestSolveDesign:
    def test_singleton_active_sets(self):
        prob = random_design_problem(4, 3, 2, seed=1,
                                     active_sets=[[0], [1], [2], [0]])
        alloc = solve_design(prob)
        assert alloc.converged
        for i in range(4):
            (weight,) = alloc.pi[i][prob.active[i]]
            assert weight == pytest.approx(1.0)

    def test_orthonormal_frame_gives_uniform(self):
        d = 3
        dirs = {(0, a): np.eye(d)[a] for a in range(d)}
        prob = design_problem([list(range(d))], dirs, d)
        alloc = solve_design(prob)
        for a in range(d):
            assert alloc.pi[0][a] == pytest.approx(1.0 / d, abs=1e-6)
        scores = design_score(prob, alloc)
        for a in range(d):
            assert scores[(0, a)] == pytest.approx(d, rel=1e-5)

    def test_grid_search_oracle(self):
        dirs = {
            (0, 0): rot(10), (0, 1): rot(75),
            (1, 0): rot(50), (1, 1): rot(160),
        }
        prob = design_problem([[0, 1], [0, 1]], dirs, 2)
        alloc = solve_design(prob)
        grid_best, _ = grid_search_two_by_two(dirs)
        assert alloc.objective == pytest.approx(grid_best, abs=1e-4)

    def test_feasibility_at_solution(self, rng):
        for seed in range(5):
            prob = random_design_problem(4, 5, 3, seed=seed)
            alloc = solve_design(prob)
            for i, row in enumerate(prob.active):
                weights = alloc.pi[i][row]
                assert all(w >= -1e-12 for w in weights)
                assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_objective_monotone_over_sweeps(self):
        prob = random_design_problem(6, 4, 3, seed=3)
        alloc = solve_design(prob)
        trace = np.array(alloc.objective_trace)
        assert np.all(np.diff(trace) >= -1e-9)

    def test_budget_identity_at_optimum(self):
        """At the solution, sum_i max_a g_{a,i} approaches sum_a rank(W_a),
        which is at most d*K."""
        for m, k, d, seed in [(5, 5, 2, 0), (12, 4, 3, 1), (25, 5, 3, 2)]:
            prob = random_design_problem(m, k, d, seed=seed)
            alloc = solve_design(prob)
            scores = design_score(prob, alloc)
            total = sum(scores[i][prob.active[i]].max() for i in range(m))
            assert total <= d * k * 1.05

    def test_single_agent_matches_total_rank(self):
        """M=1 reduction: every arm Gram is rank one, so the budget equals
        the number of arms and the max score cannot exceed it."""
        prob = random_design_problem(1, 4, 3, seed=5)
        alloc = solve_design(prob)
        scores = design_score(prob, alloc)
        total_rank = 4  # one rank-1 Gram per arm
        assert scores.max() <= total_rank + 1e-6

    def test_unconverged_flag_when_budget_exhausted(self):
        prob = random_design_problem(8, 6, 3, seed=2)
        alloc = solve_design(prob, max_iters=1, tol=1e-12)
        assert not alloc.converged

    def test_warm_start_converges_faster(self):
        prob = random_design_problem(10, 5, 3, seed=4)
        cold = solve_design(prob)
        warm = solve_design(prob, warm_start=cold)
        assert warm.sweeps <= cold.sweeps
        assert warm.objective == pytest.approx(cold.objective, abs=1e-5)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValidationError):
            design_problem([[0]], {(0, 0): np.array([2.0, 0.0])}, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_direction_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"\(agent 0, arm 1\)"):
            design_problem(
                [[0, 1]], {(0, 0): np.array([1.0, 0.0]), (0, 1): np.array([bad, 0.0])}, 2
            )

    def test_empty_active_set_rejected(self):
        with pytest.raises(ValidationError):
            design_problem([[]], {}, 2)

    def test_direction_for_inactive_pair_rejected(self):
        dirs = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(ValidationError, match=r"inactive pair \(agent 0, arm 1\)"):
            DesignProblem([[True, False]], dirs, [[True, True]])

    def test_arm_outside_the_directions_rejected(self):
        with pytest.raises(ValidationError, match=r"shape \(1, 2, 2\), expected \(1, 3, d\)"):
            DesignProblem([[True, False, True]], np.zeros((1, 2, 2)), np.zeros((1, 2), bool))

    @pytest.mark.parametrize("dirs_shape,mask_shape", [
        ((2, 2, 2), (2, 2)),  # two agents' directions for one agent
        ((1, 2), (1, 2)),     # no direction axis
        ((1, 2, 2), (1, 3)),  # mask over other arms
    ])
    def test_mis_shaped_input_rejected(self, dirs_shape, mask_shape):
        with pytest.raises(ValidationError, match="shape"):
            DesignProblem([[True, True]], np.zeros(dirs_shape), np.zeros(mask_shape, dtype=bool))

    def test_solver_view_is_c_ordered(self):
        """Column selection from the dense input yields a transposed
        layout, on which the solver's einsums round differently."""
        prob = random_design_problem(6, 5, 3, seed=1, active_sets=[[1, 3, 4]] * 6)
        assert prob.dirs.flags.c_contiguous and prob.active.flags.c_contiguous


def assert_consistent(prob, alloc):
    """The reported objective is the objective of the returned weights, and
    each agent's weights form a distribution over its active arms."""
    assert alloc.objective == pytest.approx(design_objective(prob, alloc.pi), abs=1e-9)
    assert alloc.pi.shape == prob.active.shape
    assert np.all(alloc.pi[~prob.active] == 0.0)
    for i, row in enumerate(prob.active):
        assert all(w >= 0.0 for w in alloc.pi[i][row])
        assert sum(alloc.pi[i][row]) == pytest.approx(1.0, abs=1e-12)


class TestRankOneUpdates:
    """Cases the solver's rank-1 pseudo-inverse updates must get right."""

    def test_single_member_arms(self):
        # Arms 2 and 3 have one roster member each: rank 1 < d.
        active_sets = [[0, 1, 2], [0, 1, 3], [0, 1]]
        prob = random_design_problem(3, 4, 3, seed=7, active_sets=active_sets)
        alloc = solve_design(prob)
        assert alloc.converged
        assert np.isfinite(alloc.objective)
        assert_consistent(prob, alloc)

    def test_collinear_members(self):
        # Arm 0's members share one direction up to sign: span rank 1 in d=2.
        dirs = {
            (0, 0): rot(30), (1, 0): -rot(30), (2, 0): rot(30),
            (0, 1): rot(100), (1, 1): rot(0), (2, 1): rot(45),
        }
        prob = design_problem([[0, 1]] * 3, dirs, 2)
        alloc = solve_design(prob)
        assert np.isfinite(alloc.objective)
        assert_consistent(prob, alloc)

    def test_pairs_without_direction(self):
        prob = random_design_problem(6, 4, 3, seed=8)
        i, a = np.indices(prob.has_direction.shape)
        holes = (i + a) % 3 == 0
        holed = DesignProblem(prob.active, prob.directions, prob.has_direction & ~holes)
        alloc = solve_design(holed)
        assert np.isfinite(alloc.objective)
        assert_consistent(holed, alloc)
        # A pair with no direction attracts no budget once the solver moves.
        for i, a in [(0, 0), (1, 2), (3, 0)]:
            assert holes[i, a]
            assert alloc.pi[i][a] == 0.0

    def test_warm_start_with_eliminated_arms(self):
        prob = random_design_problem(8, 6, 3, seed=9)
        cold = solve_design(prob)
        i, a = np.indices((8, 6))
        active = (a + i) % 4 != 0
        later = DesignProblem(active, prob.directions, prob.has_direction & active)
        warm = solve_design(later, warm_start=cold)
        assert_consistent(later, warm)
        assert warm.objective == pytest.approx(solve_design(later).objective, abs=1e-4)

    def test_updated_pseudo_inverses_match_rebuild(self):
        """After every block, each arm's W^+ equals a fresh pseudo-inverse
        of the Gram at the current weights, rank-deficient arms included."""
        active_sets = [[0, 1, 2], [0, 1, 3], [0, 1], [1, 2]]
        prob = random_design_problem(4, 4, 3, seed=11, active_sets=active_sets)
        solver = _Solver(prob, None)
        for _ in range(3):
            for agent in range(len(prob.active)):
                solver._block_update(agent)
                grams = np.einsum("ik,ikj,ikl->kjl", solver.pi, solver.dirs, solver.dirs)
                for a in range(4):
                    np.testing.assert_allclose(
                        solver.pinv[a], pinv(grams[a]), rtol=1e-9, atol=1e-9
                    )
            solver.sweep()

    def test_eigendecompositions_scale_with_sweeps_not_steps(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        alloc = solve_design(random_design_problem(20, 8, 3))
        assert 0 < len(calls) <= 3 * (alloc.sweeps + 2)


class TestDualityGap:
    def test_bounds_distance_to_grid_optimum(self):
        dirs = {
            (0, 0): rot(10), (0, 1): rot(75),
            (1, 0): rot(50), (1, 1): rot(160),
        }
        prob = design_problem([[0, 1], [0, 1]], dirs, 2)
        alloc = solve_design(prob)
        grid_best, _ = grid_search_two_by_two(dirs)
        assert alloc.gap >= 0.0
        assert grid_best - alloc.objective <= alloc.gap + 1e-6

    def test_matches_scores_at_solution(self):
        prob = random_design_problem(7, 5, 3, seed=10)
        alloc = solve_design(prob)
        scores = design_score(prob, alloc)
        gap = sum(
            max(scores[i][row]) - sum(alloc.pi[i][row] * scores[i][row])
            for i, row in enumerate(prob.active)
        )
        assert alloc.gap >= 0.0
        assert alloc.gap == pytest.approx(gap, abs=1e-8)


class TestDesignScore:
    def test_single_pair_scores_one(self):
        prob = random_design_problem(1, 1, 3, seed=0, active_sets=[[0]])
        alloc = DesignAllocation(pi=np.array([[1.0]]))
        assert design_score(prob, alloc)[(0, 0)] == pytest.approx(1.0)

    def test_matches_direct_pinv_recomputation(self, rng):
        for seed in range(5):
            prob = random_design_problem(3, 3, 3, seed=seed)
            alloc = solve_design(prob)
            scores = design_score(prob, alloc)
            for a in prob.arms:
                members = np.flatnonzero(prob.active[:, a])
                gram = np.zeros((3, 3))
                for i in members:
                    e = prob.directions[(i, a)]
                    gram += alloc.pi[i][a] * np.outer(e, e)
                ginv = pinv(gram)
                for i in members:
                    e = prob.directions[(i, a)]
                    assert scores[(i, a)] == pytest.approx(
                        float(e @ ginv @ e), rel=1e-8, abs=1e-10
                    )


class TestObjective:
    def test_rank_drop_is_minus_inf(self):
        dirs = {(0, 0): rot(0), (1, 0): rot(60)}
        prob = design_problem([[0], [0]], dirs, 2)
        good = design_objective(prob, np.array([[1.0], [1.0]]))
        assert np.isfinite(good)
        # zeroing one agent's contribution drops the arm Gram below its span rank
        assert design_objective(prob, np.array([[1.0], [0.0]])) == -np.inf


def span_rank_sum(prob):
    """Sum over arms of the rank of the unweighted roster-direction Gram."""
    grams = np.einsum("ikj,ikl->kjl", prob.dirs, prob.dirs)
    return int(sum(np.linalg.matrix_rank(g) for g in grams))


CERTIFIED_CASES = [(5, 5, 2, 0), (12, 4, 3, 1), (25, 5, 3, 2), (10, 8, 4, 3)]
# (m, k, d, seed, tol) whose solve runs out of sweeps before certifying.
SLOW_TAIL_CASE = (12, 4, 3, 1, 1e-6)


class TestGapCertificate:
    """The solver's only stop rule: gap <= tol * (sum of arm span ranks)."""

    @pytest.mark.parametrize(
        "m,k,d,seed,tol",
        [case + (tol,) for case in CERTIFIED_CASES for tol in (1e-3, 1e-6)
         if case + (tol,) != SLOW_TAIL_CASE],
    )
    def test_converged_solve_is_certified(self, m, k, d, seed, tol):
        prob = random_design_problem(m, k, d, seed=seed)
        alloc = solve_design(prob, tol=tol)
        assert alloc.converged
        assert 0.0 <= alloc.gap <= tol * span_rank_sum(prob)

    def test_exhausted_solve_is_uncertified(self):
        """The one known case whose Frank-Wolfe tail outlasts 500 sweeps:
        it returns its last iterate with converged=False."""
        m, k, d, seed, tol = SLOW_TAIL_CASE
        prob = random_design_problem(m, k, d, seed=seed)
        alloc = solve_design(prob, tol=tol)
        assert not alloc.converged
        assert alloc.sweeps == 500
        assert alloc.gap > tol * span_rank_sum(prob)

    # At 3e-2 the gap certifies while a sweep still gains more than tol,
    # so a solver that also waited for small sweep gains would overshoot.
    @pytest.mark.parametrize("tol", [3e-2, 1e-3, 1e-6])
    @pytest.mark.parametrize("m,k,d,seed", CERTIFIED_CASES)
    def test_stops_at_first_certified_sweep(self, m, k, d, seed, tol):
        prob = random_design_problem(m, k, d, seed=seed)
        alloc = solve_design(prob, tol=tol)
        if alloc.sweeps == 1:
            return  # the solver always sweeps once; nothing stopped late
        early = solve_design(prob, tol=tol, max_iters=alloc.sweeps - 1)
        assert not early.converged
        assert early.gap > tol * span_rank_sum(prob)

    def test_no_directions_converges_in_one_sweep(self):
        prob = design_problem([[0, 1], [1, 2], [2]], {}, 3)
        alloc = solve_design(prob)
        assert alloc.converged
        assert alloc.sweeps == 1
        assert alloc.gap == 0.0


class TestPinnedBits:
    """The design's output to the last bit, on a problem large enough that a
    changed summation order or memory layout shows (a 12 x 5 one is not)."""

    # sha256 of pi's bytes, gap.hex() and sweeps: cold solve, then warm re-solve.
    DIGEST = "7e49b2449234d6dc739d3109847fd0df0d6acb1282b0dcfa981dcb9201c8e961"

    def test_cold_and_warm_solves(self):
        m, k = 40, 10
        prob = random_design_problem(
            m, k, 3, seed=21, active_sets=[[a for a in range(k) if (a + i) % 4] for i in range(m)]
        )
        i, a = np.indices((m, k))
        active = prob.active & ((7 * a + i) % 5 != 0)
        later = DesignProblem(active, prob.directions, prob.has_direction & active)
        cold = solve_design(prob, tol=DESIGN_TOL)
        warm = solve_design(later, tol=DESIGN_TOL, warm_start=cold)
        digest = hashlib.sha256()
        for alloc in (cold, warm):
            assert alloc.converged
            digest.update(alloc.pi.tobytes())
            digest.update(alloc.gap.hex().encode())
            digest.update(str(alloc.sweeps).encode())
        assert digest.hexdigest() == self.DIGEST
