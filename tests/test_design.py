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

from conftest import random_design_problem


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
            (weight,) = alloc.pi[i].values()
            assert weight == pytest.approx(1.0)

    def test_orthonormal_frame_gives_uniform(self):
        d = 3
        dirs = {(0, a): np.eye(d)[a] for a in range(d)}
        prob = DesignProblem(active_sets=[list(range(d))], directions=dirs, dim=d)
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
        prob = DesignProblem(
            active_sets=[[0, 1], [0, 1]], directions=dirs, dim=2
        )
        alloc = solve_design(prob)
        grid_best, _ = grid_search_two_by_two(dirs)
        assert alloc.objective == pytest.approx(grid_best, abs=1e-4)

    def test_feasibility_at_solution(self, rng):
        for seed in range(5):
            prob = random_design_problem(4, 5, 3, seed=seed)
            alloc = solve_design(prob)
            for i, arms in enumerate(prob.active_sets):
                weights = [alloc.pi[i][a] for a in arms]
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
            total = sum(
                max(scores[(i, a)] for a in prob.active_sets[i]) for i in range(m)
            )
            assert total <= d * k * 1.05

    def test_single_agent_matches_total_rank(self):
        """M=1 reduction: every arm Gram is rank one, so the budget equals
        the number of arms and the max score cannot exceed it."""
        prob = random_design_problem(1, 4, 3, seed=5)
        alloc = solve_design(prob)
        scores = design_score(prob, alloc)
        total_rank = 4  # one rank-1 Gram per arm
        assert max(scores.values()) <= total_rank + 1e-6

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
            DesignProblem(
                active_sets=[[0]], directions={(0, 0): np.array([2.0, 0.0])}, dim=2
            )

    def test_empty_active_set_rejected(self):
        with pytest.raises(ValidationError):
            DesignProblem(active_sets=[[]], directions={}, dim=2)


def assert_consistent(prob, alloc):
    """The reported objective is the objective of the returned weights, and
    each agent's weights form a distribution over its active arms."""
    assert alloc.objective == pytest.approx(design_objective(prob, alloc.pi), abs=1e-9)
    for i, arms in enumerate(prob.active_sets):
        assert sorted(alloc.pi[i]) == arms
        assert all(w >= 0.0 for w in alloc.pi[i].values())
        assert sum(alloc.pi[i].values()) == pytest.approx(1.0, abs=1e-12)


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
        prob = DesignProblem(active_sets=[[0, 1]] * 3, directions=dirs, dim=2)
        alloc = solve_design(prob)
        assert np.isfinite(alloc.objective)
        assert_consistent(prob, alloc)

    def test_pairs_without_direction(self):
        prob = random_design_problem(6, 4, 3, seed=8)
        dirs = {p: v for p, v in prob.directions.items() if (p[0] + p[1]) % 3}
        holed = DesignProblem(active_sets=prob.active_sets, directions=dirs, dim=3)
        alloc = solve_design(holed)
        assert np.isfinite(alloc.objective)
        assert_consistent(holed, alloc)
        # A pair with no direction attracts no budget once the solver moves.
        for i, a in [(0, 0), (1, 2), (3, 0)]:
            assert (i, a) not in dirs
            assert alloc.pi[i][a] == 0.0

    def test_warm_start_with_eliminated_arms(self):
        prob = random_design_problem(8, 6, 3, seed=9)
        cold = solve_design(prob)
        active_sets = [[a for a in range(6) if (a + i) % 4] for i in range(8)]
        dirs = {p: v for p, v in prob.directions.items() if p[1] in active_sets[p[0]]}
        later = DesignProblem(active_sets=active_sets, directions=dirs, dim=3)
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
            for agent in range(prob.n_agents):
                solver._block_update(agent, 1e-6)
                grams = np.einsum("ik,ikj,ikl->kjl", solver.pi, solver.dirs, solver.dirs)
                for a in range(4):
                    np.testing.assert_allclose(
                        solver.pinv[a], pinv(grams[a]), rtol=1e-9, atol=1e-9
                    )
            solver.sweep(1e-6)

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
        prob = DesignProblem(active_sets=[[0, 1], [0, 1]], directions=dirs, dim=2)
        alloc = solve_design(prob)
        grid_best, _ = grid_search_two_by_two(dirs)
        assert alloc.gap >= 0.0
        assert grid_best - alloc.objective <= alloc.gap + 1e-6

    def test_matches_scores_at_solution(self):
        prob = random_design_problem(7, 5, 3, seed=10)
        alloc = solve_design(prob)
        scores = design_score(prob, alloc)
        gap = sum(
            max(scores[(i, a)] for a in arms)
            - sum(alloc.pi[i][a] * scores[(i, a)] for a in arms)
            for i, arms in enumerate(prob.active_sets)
        )
        assert alloc.gap >= 0.0
        assert alloc.gap == pytest.approx(gap, abs=1e-8)


class TestDesignScore:
    def test_single_pair_scores_one(self):
        prob = random_design_problem(1, 1, 3, seed=0, active_sets=[[0]])
        alloc = DesignAllocation(pi=[{0: 1.0}])
        assert design_score(prob, alloc)[(0, 0)] == pytest.approx(1.0)

    def test_matches_direct_pinv_recomputation(self, rng):
        for seed in range(5):
            prob = random_design_problem(3, 3, 3, seed=seed)
            alloc = solve_design(prob)
            scores = design_score(prob, alloc)
            for a, members in prob.rosters().items():
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
        prob = DesignProblem(active_sets=[[0], [0]], directions=dirs, dim=2)
        good = design_objective(prob, [{0: 1.0}, {0: 1.0}])
        assert np.isfinite(good)
        # zeroing one agent's contribution drops the arm Gram below its span rank
        assert design_objective(prob, [{0: 1.0}, {0: 0.0}]) == -np.inf
