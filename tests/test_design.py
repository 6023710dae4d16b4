import hashlib
import math

import numpy as np
import pytest

from fedpecd.design import (
    _WARM_BLEND,
    DesignAllocation,
    DesignProblem,
    _grams,
    _logdet_span,
    _scores,
    _Solver,
    _span_ranks,
    _start_pi,
    solve_design,
)
from fedpecd.errors import ValidationError
from fedpecd.linalg import eigh_range, pinv
from fedpecd.server import DESIGN_TOL, allocate

from conftest import design_problem, random_design_problem


def design_objective(prob: DesignProblem, pi: np.ndarray) -> float:
    """Span-restricted log-det objective at an arbitrary feasible ``(M, K)`` point."""
    w, keep, _ = eigh_range(_grams(pi, prob.directions))
    return _logdet_span(w, keep, _span_ranks(prob.directions))


def design_score(prob: DesignProblem, alloc: DesignAllocation) -> np.ndarray:
    """g_{a,i} = e' (sum_j pi_{a,j} e_j e_j^T)^+ e for every pair, as ``(M, K)``.

    Pairs without a direction, and pairs off the active sets, score 0.
    """
    total = np.where(prob.active, alloc.pi, 0.0).sum(axis=1)
    bad = np.flatnonzero(np.abs(total - 1.0) > 1e-6)
    if bad.size:
        raise ValidationError(f"allocation for agent {bad[0]} sums to {total[bad[0]]}")
    pinvs = eigh_range(_grams(alloc.pi, prob.directions))[2]
    return _scores(prob.directions, pinvs)


def rot(angle_deg):
    t = np.deg2rad(angle_deg)
    return np.array([np.cos(t), np.sin(t)])


def narrowed(prob, active):
    """``prob`` on the smaller active sets ``active``, each pair's direction kept."""
    return DesignProblem(active, np.where(active[..., None], prob.directions, 0.0))


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
        sweeps = solve_design(prob).sweeps
        trace = np.array([solve_design(prob, max_iters=n).objective for n in range(1, sweeps + 1)])
        assert np.all(np.diff(trace) >= -1e-9)

    def test_budget_identity_at_optimum(self):
        """At the certified solution, sum_i max_a g_{a,i} approaches
        sum_a rank(W_a), which is at most d*K.  The (12, 4, 3) case is the
        slow tail: it certifies at the default tol only past 500 sweeps."""
        for m, k, d, seed in [(5, 5, 2, 0), (12, 4, 3, 1), (25, 5, 3, 2)]:
            prob = random_design_problem(m, k, d, seed=seed)
            alloc = solve_design(prob, max_iters=SLOW_TAIL_SWEEPS)
            assert alloc.converged
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
            DesignProblem([[True, False]], dirs)

    def test_arm_outside_the_directions_rejected(self):
        with pytest.raises(ValidationError, match=r"shape \(1, 2, 2\), expected \(1, 3, d\)"):
            DesignProblem([[True, False, True]], np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("dirs_shape,mask_shape", [
        ((2, 2, 2), (1, 2)),  # two agents' directions for one agent
        ((1, 2), (1, 2)),     # no direction axis
    ])
    def test_mis_shaped_input_rejected(self, dirs_shape, mask_shape):
        with pytest.raises(ValidationError, match="shape"):
            DesignProblem(np.ones(mask_shape, dtype=bool), np.zeros(dirs_shape))

    def test_solver_view_is_c_ordered(self):
        """A Fortran-ordered active mask is copied to C order for the solver:
        numpy adds a Fortran-ordered row one column at a time, not pairwise,
        so the warm start's row sums would round differently."""
        prob = random_design_problem(6, 5, 3, seed=1, active_sets=[[1, 3, 4]] * 6)
        fortran = DesignProblem(np.asfortranarray(prob.active), prob.directions)
        assert not fortran.active.flags.c_contiguous
        assert _Solver(fortran, None).active.flags.c_contiguous


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
        i, a = np.indices(prob.active.shape)
        holes = (i + a) % 3 == 0
        holed = DesignProblem(prob.active, np.where(holes[..., None], 0.0, prob.directions))
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
        later = narrowed(prob, active)
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
                grams = np.einsum(
                    "ik,ikj,ikl->kjl", solver.pi, solver.directions, solver.directions
                )
                for a in range(4):
                    np.testing.assert_allclose(
                        solver.pinv[a], pinv(grams[a]), rtol=1e-9, atol=1e-9
                    )
            solver.sweep(range(len(prob.active)))

    @pytest.mark.parametrize("seed", range(6))
    def test_block_update_is_the_exact_block_maximizer(self, seed):
        """After each block, the agent's scores at the new weights satisfy
        the block's KKT conditions: every positive-weight arm scores the
        same lambda, and no zero-weight active arm scores above it."""
        prob = random_design_problem(12, 6, 3, seed=seed)
        solver = _Solver(prob, None)
        for _ in range(2):
            for agent in range(len(prob.active)):
                solver._block_update(agent)
                g = design_score(prob, DesignAllocation(pi=solver.pi))[agent]
                weights = solver.pi[agent]
                lam = g[weights > 0.0].max()
                assert g[weights > 0.0].min() >= lam * (1.0 - 1e-9)
                assert np.all(g[(weights == 0.0) & prob.active[agent]] <= lam * (1.0 + 1e-9))
            solver._rebuild()

    def test_eigendecompositions_do_not_grow_with_sweeps(self, monkeypatch):
        """One eigh for the span ranks, one for the start and one to confirm
        the certificate that stops the solve, however many sweeps it takes."""
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        alloc = solve_design(random_design_problem(20, 8, 3))
        assert alloc.converged and alloc.sweeps > 3
        assert calls == ["eigh"] * 3


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
            for a in range(prob.active.shape[1]):
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
    grams = np.einsum("ikj,ikl->kjl", prob.directions, prob.directions)
    return int(sum(np.linalg.matrix_rank(g) for g in grams))


def worst_ratio(prob, alloc):
    """Worst per-agent ratio of the largest score to the budget-weighted mean
    score, from scores recomputed outside the solver."""
    g = design_score(prob, alloc)
    ratios = []
    for i, row in enumerate(prob.active):
        best, mean = g[i][row].max(), alloc.pi[i][row] @ g[i][row]
        ratios.append(best / mean if mean > 0.0 else (1.0 if best <= 0.0 else math.inf))
    return max(ratios)


CERTIFIED_CASES = [(5, 5, 2, 0), (12, 4, 3, 1), (25, 5, 3, 2), (10, 8, 4, 3)]
# (m, k, d, seed, tol) whose solve runs out of sweeps before certifying.
SLOW_TAIL_CASE = (12, 4, 3, 1, 1e-6)
# Sweeps the slow-tail case needs to certify once max_iters allows them.
SLOW_TAIL_SWEEPS = 741


class TestGapCertificate:
    """The solver's only stop rule, per agent i over its active arms:
    max_a g_{a,i} <= (1 + tol) * sum_a pi_{a,i} g_{a,i}.  Summed over
    agents it implies gap <= tol * (sum of arm span ranks)."""

    @pytest.mark.parametrize(
        "m,k,d,seed,tol",
        [case + (tol,) for case in CERTIFIED_CASES for tol in (1e-3, 1e-6)
         if case + (tol,) != SLOW_TAIL_CASE],
    )
    def test_converged_solve_is_certified(self, m, k, d, seed, tol):
        prob = random_design_problem(m, k, d, seed=seed)
        alloc = solve_design(prob, tol=tol)
        assert alloc.converged
        assert 1.0 - 1e-9 <= alloc.certificate <= 1.0 + tol
        assert worst_ratio(prob, alloc) == pytest.approx(alloc.certificate, rel=1e-9)
        assert 0.0 <= alloc.gap <= tol * span_rank_sum(prob)

    def test_exhausted_solve_is_uncertified(self):
        """The one known case whose tail outlasts 500 sweeps: it returns its
        last iterate with converged=False, and certifies later."""
        m, k, d, seed, tol = SLOW_TAIL_CASE
        prob = random_design_problem(m, k, d, seed=seed)
        alloc = solve_design(prob, tol=tol)
        assert not alloc.converged
        assert alloc.sweeps == 500
        assert alloc.certificate > 1.0 + tol
        assert alloc.gap > tol * span_rank_sum(prob)
        late = solve_design(prob, tol=tol, max_iters=2 * SLOW_TAIL_SWEEPS)
        assert late.converged
        assert late.sweeps == SLOW_TAIL_SWEEPS

    # 3e-2 is looser than the server's DESIGN_TOL, 1e-6 the default.
    @pytest.mark.parametrize("tol", [3e-2, 1e-3, 1e-6])
    @pytest.mark.parametrize("m,k,d,seed", CERTIFIED_CASES)
    def test_stops_at_first_certified_sweep(self, m, k, d, seed, tol):
        prob = random_design_problem(m, k, d, seed=seed)
        alloc = solve_design(prob, tol=tol)
        if alloc.sweeps <= 1:
            return  # a start that certifies costs no sweep; nothing stopped late
        early = solve_design(prob, tol=tol, max_iters=alloc.sweeps - 1)
        assert not early.converged
        assert early.certificate > 1.0 + tol

    def test_no_directions_certifies_without_a_sweep(self):
        prob = design_problem([[0, 1], [1, 2], [2]], {}, 3)
        alloc = solve_design(prob)
        assert alloc.converged
        assert alloc.sweeps == 0
        assert alloc.blocks == 0
        assert alloc.certificate == 1.0
        assert alloc.gap == 0.0


def rebuilt_from_weights(prob, alloc):
    """``certify()``'s ratios and gap, and the objective, of a solver whose
    W^+ is rebuilt from ``alloc.pi`` with no block update since."""
    solver = _Solver(prob, None)
    solver.pi = alloc.pi.copy()
    solver._rebuild()
    ratio, gap = solver.certify()
    return ratio, gap, solver.objective


class TestConfirmedOnRebuild:
    """Between rebuilds the certificate reads the W^+ the blocks keep by
    Sherman-Morrison.  A solve stops only once the check passes again on
    W^+ rebuilt from pi, or its sweeps run out, so the certificate, gap
    and objective it returns are those of its weights, to the bit."""

    @staticmethod
    def assert_from_weights(prob, alloc):
        ratio, gap, objective = rebuilt_from_weights(prob, alloc)
        assert alloc.sweeps >= 1  # the blocks moved W^+ since the start
        assert alloc.certificate == float(ratio.max())
        assert alloc.gap == gap
        assert alloc.objective == objective

    def test_cold_solve(self):
        prob = random_design_problem(25, 5, 3, seed=2)
        alloc = solve_design(prob, tol=DESIGN_TOL)
        assert alloc.converged
        self.assert_from_weights(prob, alloc)

    def test_warm_solve(self):
        prob = random_design_problem(8, 6, 3, seed=9)
        cold = solve_design(prob, tol=DESIGN_TOL)
        i, a = np.indices((8, 6))
        later = narrowed(prob, (a + i) % 4 != 0)
        alloc = solve_design(later, tol=DESIGN_TOL, warm_start=cold)
        assert alloc.converged
        self.assert_from_weights(later, alloc)

    def test_solve_capped_by_max_iters(self):
        m, k, d, seed, tol = SLOW_TAIL_CASE
        prob = random_design_problem(m, k, d, seed=seed)
        alloc = solve_design(prob, tol=tol, max_iters=7)
        assert not alloc.converged and alloc.sweeps == 7
        self.assert_from_weights(prob, alloc)

    def test_a_failed_confirmation_is_swept_on(self, monkeypatch):
        """At tol 1e-12 this solve's check passes on the blocks' W^+ before
        it passes on the rebuilt W^+: the solve sweeps on after the failed
        confirmation and stops only on one that passes."""
        prob = random_design_problem(25, 5, 3, seed=22)
        tol = 1e-12
        events = []
        rebuild, sweep = _Solver._rebuild, _Solver.sweep

        def confirming(solver):
            rebuild(solver)
            passed = not np.flatnonzero(~(solver.certify()[0] <= 1.0 + tol)).size
            events.append("pass" if passed else "fail")

        def sweeping(solver, agents):
            events.append("sweep")
            sweep(solver, agents)

        monkeypatch.setattr(_Solver, "_rebuild", confirming)
        monkeypatch.setattr(_Solver, "sweep", sweeping)
        alloc = solve_design(prob, tol=tol)
        confirmations = [e for e in events[1:] if e != "sweep"]  # after the start
        assert confirmations == ["fail", "pass"]
        assert events[-1] == "pass" and events[-2] == "sweep"
        assert alloc.converged and alloc.sweeps == events.count("sweep")
        assert alloc.certificate <= 1.0 + tol
        self.assert_from_weights(prob, alloc)


def record_block_updates(monkeypatch):
    """The agents whose blocks the solver updates, in order, from now on."""
    updated = []
    block_update = _Solver._block_update

    def recording(solver, agent):
        updated.append(agent)
        return block_update(solver, agent)

    monkeypatch.setattr(_Solver, "_block_update", recording)
    return updated


class TestWorkWhereTheCertificateFails:
    """A solve starts from the unblended warm start, certifies it before the
    first sweep, and each sweep updates only the agents whose own ratio
    failed the last certificate."""

    def test_start_is_the_unblended_restriction(self):
        prob = random_design_problem(8, 6, 3, seed=9)
        cold = solve_design(prob, tol=DESIGN_TOL)
        i, a = np.indices((8, 6))
        later = narrowed(prob, (a + i) % 4 != 0)
        unweighted = later.active & (cold.pi == 0.0)
        assert unweighted.any()
        solver = _Solver(later, cold)
        np.testing.assert_array_equal(solver.pi, _start_pi(later.active, cold, 0.0))
        assert np.all(solver.pi[unweighted] == 0.0)
        assert np.isfinite(solver.objective)

    def test_start_that_lost_span_rank_is_blended(self):
        # Agent 1 gave arm 0 no weight, so arm 0's Gram has rank 1 of 2.
        dirs = {(0, 0): rot(0), (1, 0): rot(60), (0, 1): rot(100), (1, 1): rot(20)}
        prob = design_problem([[0, 1], [0, 1]], dirs, 2)
        warm = DesignAllocation(pi=np.array([[0.5, 0.5], [0.0, 1.0]]))
        assert design_objective(prob, warm.pi) == -np.inf
        solver = _Solver(prob, warm)
        np.testing.assert_array_equal(solver.pi, _start_pi(prob.active, warm, _WARM_BLEND))
        assert np.all(solver.pi[prob.active] > 0.0)
        assert np.isfinite(solver.objective)
        alloc = solve_design(prob, warm_start=warm)
        assert alloc.converged
        assert_consistent(prob, alloc)

    def test_certified_start_costs_no_sweep(self, monkeypatch):
        prob = random_design_problem(10, 5, 3, seed=4)
        cold = solve_design(prob, tol=DESIGN_TOL)
        assert cold.sweeps >= 1
        updated = record_block_updates(monkeypatch)
        again = solve_design(prob, tol=DESIGN_TOL, warm_start=cold)
        assert updated == []
        assert again.converged
        assert (again.sweeps, again.blocks) == (0, 0)
        assert again.certificate == pytest.approx(cold.certificate, rel=1e-9)
        np.testing.assert_allclose(again.pi, cold.pi, rtol=0.0, atol=1e-15)

    def test_sweeps_update_only_failing_agents(self, monkeypatch):
        m = 25
        prob = random_design_problem(m, 5, 3, seed=2)
        updated = record_block_updates(monkeypatch)
        alloc = solve_design(prob, tol=DESIGN_TOL)
        assert alloc.converged
        assert alloc.blocks == len(updated)
        # Every sweep updates some agent, and skipping keeps the total below full sweeps.
        assert alloc.sweeps <= alloc.blocks < alloc.sweeps * m

    def test_skipped_agent_is_issued_no_pull_on_a_zero_weight_arm(self, monkeypatch):
        """An agent that meets the certificate from its warm start is skipped
        in every sweep, so an active arm its start gave no weight keeps none
        and ceil() issues it no pull.  A blended start would put weight on
        that arm, and every such arm would cost the agent a pull."""
        m, k = 6, 4
        prob = random_design_problem(m, k, 3, seed=20)
        cold = solve_design(prob, tol=DESIGN_TOL)
        i, a = np.indices((m, k))
        later = narrowed(prob, (a + 2 * i) % 5 != 0)
        agent, arm = 2, 3
        assert later.active[agent, arm] and cold.pi[agent, arm] == 0.0
        assert _start_pi(later.active, cold, _WARM_BLEND)[agent, arm] > 0.0
        updated = record_block_updates(monkeypatch)
        alloc = solve_design(later, tol=DESIGN_TOL, warm_start=cold)
        assert alloc.converged and alloc.sweeps >= 1
        assert agent not in updated
        issued = allocate(alloc, 2**10)
        assert issued[agent, arm] == 0
        assert np.all(issued[agent][later.active[agent] & (np.arange(k) != arm)] >= 1)


class TestArmNoAgentKeeps:
    """An arm column that no agent keeps active has a zero Gram: it gets no
    weight and leaves the solve as it is without that column."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("column", [0, 2, 5])
    def test_cold_solve_matches_the_narrow_problem(self, seed, column):
        narrow = random_design_problem(8, 5, 3, seed=seed)
        wide = DesignProblem(
            np.insert(narrow.active, column, False, axis=1),
            np.insert(narrow.directions, column, 0.0, axis=1),
        )
        self.assert_matches(wide, column, solve_design(wide, tol=DESIGN_TOL),
                            solve_design(narrow, tol=DESIGN_TOL))

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_solve_after_every_agent_dropped_the_arm(self, seed):
        """The server's case: a warm re-solve once no agent keeps arm 2."""
        column = 2
        prob = random_design_problem(8, 6, 3, seed=seed)
        cold = solve_design(prob, tol=DESIGN_TOL)
        wide = narrowed(prob, prob.active & (np.arange(6) != column))
        narrow = DesignProblem(np.delete(wide.active, column, 1),
                               np.delete(wide.directions, column, 1))
        warm_narrow = DesignAllocation(pi=np.delete(cold.pi, column, 1))
        self.assert_matches(wide, column, solve_design(wide, tol=DESIGN_TOL, warm_start=cold),
                            solve_design(narrow, tol=DESIGN_TOL, warm_start=warm_narrow))

    @staticmethod
    def assert_matches(wide, column, got, expected):
        assert np.all(got.pi[:, column] == 0.0)
        assert got.converged
        assert got.certificate <= 1.0 + DESIGN_TOL
        assert worst_ratio(wide, got) == pytest.approx(got.certificate, rel=1e-9)
        assert got.sweeps == expected.sweeps
        assert got.objective == pytest.approx(expected.objective, abs=1e-12)
        np.testing.assert_allclose(np.delete(got.pi, column, 1), expected.pi, atol=1e-12)


class TestPinnedBits:
    """The design's output to the last bit, on a problem large enough that a
    changed summation order or memory layout shows (a 12 x 5 one is not)."""

    # sha256 of pi's bytes, gap.hex() and sweeps: cold solve, then warm re-solve.
    DIGEST = "fac9d4dbca105ba521c976e819974c44494db4531c71c659d70e9238f951ebb2"

    def test_cold_and_warm_solves(self):
        m, k = 40, 10
        prob = random_design_problem(
            m, k, 3, seed=21, active_sets=[[a for a in range(k) if (a + i) % 4] for i in range(m)]
        )
        i, a = np.indices((m, k))
        active = prob.active & ((7 * a + i) % 5 != 0)
        later = narrowed(prob, active)
        cold = solve_design(prob, tol=DESIGN_TOL)
        warm = solve_design(later, tol=DESIGN_TOL, warm_start=cold)
        digest = hashlib.sha256()
        for alloc in (cold, warm):
            assert alloc.converged
            digest.update(alloc.pi.tobytes())
            digest.update(alloc.gap.hex().encode())
            digest.update(str(alloc.sweeps).encode())
        assert digest.hexdigest() == self.DIGEST
