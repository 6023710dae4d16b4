from dataclasses import replace

import numpy as np
import pytest

from fedpecd.design import DesignAllocation
from fedpecd.errors import DegenerateArmError, NotPSDError, ProtocolError
from fedpecd.linalg import pinv
from fedpecd.server import (
    CentralServer,
    aggregate_init,
    aggregate_phase,
    _check_psd,
    allocate,
)

from conftest import active_sets, broadcast, estimates

# A one-row theta_hat the d = 2 aggregation must reject, by what is wrong,
# and whether the error names its pair: a row shaped unlike (d,) makes the
# whole round's theta_hat mis-shaped, which names only the phase; a
# non-finite row names its agent and arm.
MALFORMED_THETAS = {
    "length-1": (np.array([0.5]), False),
    "length-3": (np.array([0.5, 0.1, 0.2]), False),
    "2-D": (np.array([[0.5, 0.1]]), False),
    "nan": (np.array([np.nan, 0.1]), True),
    "inf": (np.array([0.5, np.inf]), True),
}


def with_row(phase, rows, agent, theta, d=2):
    """The one-arm estimate round of ``rows`` with ``agent``'s estimate
    replaced by ``theta``, whatever its shape."""
    clean = estimates(phase, rows, 1, d)
    th = np.zeros(clean.theta_hat.shape[:2] + theta.shape)
    th[agent, 0] = theta
    return replace(clean, theta_hat=th)


def malformed_match(case, agent, phase):
    if MALFORMED_THETAS[case][1]:
        return rf"^agent {agent}, arm 0, phase {phase}: theta_hat is not finite"
    return rf"^phase {phase}: LocalEstimateUpload theta_hat shaped"


class TestAggregateInit:
    def test_single_agent_unit_psi_fixed_point(self):
        psi = np.array([0.6, 0.8])  # unit norm
        model = aggregate_init(estimates(0, [[(0, psi, 1)]], 1), m=1, k=1, d=2)
        theta, v = model.theta[0], model.v[0]
        np.testing.assert_allclose(v, np.outer(psi, psi), atol=1e-12)
        np.testing.assert_allclose(theta, psi, atol=1e-12)

    def test_two_orthogonal_unit_uploads(self):
        u = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        model = aggregate_init(estimates(0, [[(0, u, 1)], [(0, w, 1)]], 1), m=2, k=1, d=2)
        theta, v = model.theta[0], model.v[0]
        np.testing.assert_allclose(v, np.outer(u, u) + np.outer(w, w), atol=1e-12)
        np.testing.assert_allclose(theta, u + w, atol=1e-12)

    def test_scaling_one_upload_changes_only_the_mean(self):
        """The Gram uses normalized directions, so scaling an upload leaves
        V unchanged while the aggregated theta moves."""
        u = np.array([1.0, 0.0])
        w = np.array([0.6, 0.8])
        base = aggregate_init(estimates(0, [[(0, u, 1)], [(0, w, 1)]], 1), m=2, k=1, d=2)
        scaled = aggregate_init(estimates(0, [[(0, u, 1)], [(0, 3 * w, 1)]], 1), m=2, k=1, d=2)
        np.testing.assert_allclose(scaled.v[0], base.v[0], atol=1e-12)
        assert not np.allclose(scaled.theta[0], base.theta[0])

    def test_zero_upload_skipped_in_gram(self):
        u = np.array([1.0, 0.0])
        model = aggregate_init(
            estimates(0, [[(0, u, 1)], [(0, np.zeros(2), 1)]], 1), m=2, k=1, d=2
        )
        theta, v = model.theta[0], model.v[0]
        np.testing.assert_allclose(v, np.outer(u, u), atol=1e-12)
        np.testing.assert_allclose(theta, u, atol=1e-12)

    def test_all_zero_arm_is_degenerate(self):
        with pytest.raises(DegenerateArmError):
            aggregate_init(estimates(0, [[(0, np.zeros(2), 1)]], 1), m=1, k=1, d=2)

    def test_missing_agent_rejected(self):
        """A round without agent 1's row is mis-shaped; with the row but no
        report in it, agent 1 is named."""
        u = np.array([1.0, 0.0])
        with pytest.raises(ProtocolError, match=r"^phase 0: .* shaped \(1,\), not \(2,\)"):
            aggregate_init(estimates(0, [[(0, u, 1)]], 1), m=2, k=1, d=2)
        with pytest.raises(ProtocolError, match="^agent 1, arm 0, phase 0: no upload"):
            aggregate_init(estimates(0, [[(0, u, 1)], []], 1), m=2, k=1, d=2)

    def test_repeated_agent_rejected(self):
        """A round has one row per agent, so a repeated upload can only be a
        second delivery of the init round, which is stale."""
        u = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        server = CentralServer(m=2, k=1, d=2)
        server.ingest_init(estimates(0, [[(0, u, 1)], [(0, w, 1)]], 1))
        with pytest.raises(ProtocolError, match="^phase 1: stale initialization round"):
            server.ingest_init(estimates(0, [[(0, u, 1)], [(0, w, 1)]], 1))

    def test_wrong_phase_stamp_rejected(self):
        with pytest.raises(ProtocolError, match=r"agent 0, arm \[0\], phase 1"):
            aggregate_init(estimates(1, [[(0, np.array([1.0, 0.0]), 1)]], 1), m=1, k=1, d=2)

    @pytest.mark.parametrize("case", sorted(MALFORMED_THETAS))
    def test_malformed_theta_rejected(self, case):
        rows = [[(0, np.array([1.0, 0.0]), 1)], [(0, np.zeros(2), 1)]]
        bad = with_row(0, rows, 1, MALFORMED_THETAS[case][0])
        with pytest.raises(ProtocolError, match=malformed_match(case, 1, 0)):
            aggregate_init(bad, m=2, k=1, d=2)


class TestAggregatePhase:
    def setup_method(self):
        psi = np.array([1.0, 0.0])
        self.psi = psi
        init = aggregate_init(estimates(0, [[(0, psi, 1)]], 1), m=1, k=1, d=2)
        self.prev = init
        # One pull issued to agent 0 for its one active arm.
        self.issued = np.array([[1]])
        self.active = np.array([[True]])

    def test_single_collinear_upload(self):
        c = 0.4
        model = aggregate_phase(
            estimates(1, [[(0, c * self.psi, 1)]], 1),
            self.issued,
            self.active,
            self.prev,
        )
        theta, v = model.theta[0], model.v[0]
        np.testing.assert_allclose(v, np.outer(self.psi, self.psi), atol=1e-12)
        np.testing.assert_allclose(theta, c * self.psi, atol=1e-12)

    def test_carry_over_when_no_uploads(self):
        model = aggregate_phase(
            estimates(1, [[]], 1), np.array([[0]]), self.active, self.prev
        )
        assert model.has_model[0]
        assert np.array_equal(model.theta[0], self.prev.theta[0])
        assert np.array_equal(model.v[0], self.prev.v[0])

    def test_two_agents_same_direction(self):
        e = np.array([0.0, 1.0])
        c1, c2 = 0.5, 0.9
        model = aggregate_phase(
            estimates(1, [[(0, c1 * e, 2)], [(0, c2 * e, 2)]], 1),
            np.array([[2], [2]]),
            np.array([[True], [True]]),
            broadcast({0: (e, np.outer(e, e))}, 1),
        )
        theta, v = model.theta[0], model.v[0]
        # f-weighted direction Gram: (2 + 2) e e' -> pinv = e e' / 4
        np.testing.assert_allclose(v, np.outer(e, e) / 4.0, atol=1e-12)
        np.testing.assert_allclose(theta, ((2 * c1 + 2 * c2) / 4.0) * e, atol=1e-12)

    def test_upload_outside_roster_rejected(self):
        """Arm 1 is outside the one-arm server: the round is mis-shaped."""
        with pytest.raises(ProtocolError, match=r"^phase 1: .* shaped \(1, 2\), not \(1, 1\)"):
            aggregate_phase(
                estimates(1, [[(1, self.psi, 1)]], 2),
                self.issued,
                self.active,
                self.prev,
            )

    def test_pull_count_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate_phase(
                estimates(1, [[(0, self.psi, 3)]], 1),
                self.issued,
                self.active,
                self.prev,
            )

    def test_duplicate_estimate_rejected(self):
        """A second estimate for the same (agent, arm) would be counted twice.
        A round has one slot per pair, so a duplicate can only come as a
        second delivery of the round, which is stale once it is aggregated."""
        server = CentralServer(m=1, k=1, d=2)
        server.ingest_init(estimates(0, [[(0, self.psi, 1)]], 1))
        alloc = server.plan_phase(active_sets([[0]], 1), f_p=1)
        round_ = estimates(1, [[(0, self.psi, int(alloc.counts[0, 0]))]], 1)
        server.ingest_phase(round_)
        with pytest.raises(ProtocolError, match=r"^agent 0, arm \[0\], phase 1: expected phase 2"):
            server.ingest_phase(round_)

    @pytest.mark.parametrize("case", sorted(MALFORMED_THETAS))
    def test_malformed_theta_rejected(self, case):
        bad = with_row(1, [[(0, self.psi, 1)]], 0, MALFORMED_THETAS[case][0])
        with pytest.raises(ProtocolError, match=malformed_match(case, 0, 1)):
            aggregate_phase(
                bad,
                self.issued,
                self.active,
                self.prev,
            )

    def test_missing_issued_pair_rejected(self):
        """An issued pair that does not report would silently keep prev's model."""
        with pytest.raises(ProtocolError, match="agent 1, arm 0, phase 1"):
            aggregate_phase(
                estimates(1, [[(0, self.psi, 2)], []], 1),
                np.array([[2], [3]]),
                np.array([[True], [True]]),
                self.prev,
            )

    def test_empty_upload_list_rejected(self):
        """A round without rows is mis-shaped; a row that reports nothing
        names the agent and its first issued arm."""
        with pytest.raises(ProtocolError, match=r"^phase 1: .* shaped \(0,\), not \(1,\)"):
            aggregate_phase(estimates(1, [], 1), self.issued, self.active, self.prev)
        with pytest.raises(ProtocolError, match=r"^agent 0, arm 0, phase 1: no upload"):
            aggregate_phase(estimates(1, [[]], 1), self.issued, self.active, self.prev)

    def test_upload_order_does_not_change_a_bit(self, rng):
        """Each arm's terms add in agent order, whatever order the rows are
        written into the round in."""
        m, k, d = 8, 3, 3
        prev = broadcast({a: (np.zeros(d), np.eye(d)) for a in range(k)}, k)
        issued = np.array([[int(rng.integers(1, 5)) for a in range(k)] for i in range(m)])
        active = np.ones((m, k), dtype=bool)
        rows = [[(a, rng.normal(size=d), f) for a, f in enumerate(counts.tolist())]
                for counts in issued]
        ordered = aggregate_phase(estimates(1, rows, k, d), issued, active, prev)
        for _ in range(10):
            shuffled = estimates(1, [[] for _ in range(m)], k, d)
            for i in rng.permutation(m):
                row = estimates(1, [rows[i]], k, d)
                for name in ("arms", "theta_hat", "pulls"):
                    getattr(shuffled, name)[i] = getattr(row, name)[0]
            model = aggregate_phase(shuffled, issued, active, prev)
            assert np.array_equal(model.theta, ordered.theta)
            assert np.array_equal(model.v, ordered.v)

    @pytest.mark.parametrize("stamp", [0, 2])
    def test_stale_or_future_phase_rejected(self, stamp):
        with pytest.raises(ProtocolError, match=rf"agent 0, arm \[0\], phase {stamp}"):
            aggregate_phase(
                estimates(stamp, [[(0, self.psi, 1)]], 1),
                self.issued,
                self.active,
                self.prev,
            )


# Init estimates y * psi (unit psi) of a two-agent, two-arm server.
INIT_ESTIMATES = {
    0: {0: [0.5, 0.0], 1: [0.3, 0.4]},
    1: {0: [0.0, -0.5], 1: [-0.4, 0.3]},
}


def initialized_server():
    server = CentralServer(m=2, k=2, d=2)
    server.ingest_init(estimates(
        0, [[(a, th, 1) for a, th in ests.items()] for _, ests in sorted(INIT_ESTIMATES.items())], 2
    ))
    return server


def active(sets, phase):
    return active_sets(sets, 2, phase)


def explore(server, msg, theta):
    """Upload ``theta`` for every pair the allocation issued pulls for."""
    return server.ingest_phase(estimates(
        int(msg.phase[0]),
        [[(a, theta, f) for a, f in enumerate(counts) if f >= 1] for counts in msg.counts.tolist()],
        msg.counts.shape[1],
    ))


class TestPlanPhase:
    def test_issued_counts_cover_the_active_sets(self):
        msg = initialized_server().plan_phase(active([[0], [0, 1]], 1), f_p=4)
        assert [np.flatnonzero(row).tolist() for row in msg.arms] == [[0], [0, 1]]

    def test_empty_set_rejected(self):
        server = initialized_server()
        with pytest.raises(ProtocolError, match=r"^agent 1, arm \[\], phase 1: empty active set$"):
            server.plan_phase(active([[0], []], 1), f_p=4)

    @pytest.mark.parametrize("arm", [5, -1])
    def test_arm_outside_range_rejected(self, arm):
        """An arm id outside 0..K-1 has no column in the dense round: a mask
        wide enough for arm 5, or one column short (arm -1 would wrap onto
        the last), is mis-shaped."""
        server = initialized_server()
        width = arm + 1 if arm >= 0 else 1
        upload = active_sets([[0], [0]], width)
        with pytest.raises(ProtocolError, match=rf"^phase 1: .* shaped \(2, {width}\), not \(2, 2\)"):
            server.plan_phase(upload, f_p=4)

    def test_repeated_arm_rejected(self):
        """A mask cannot repeat an arm; an int array counting arm 1 twice is
        not a bool mask and is rejected at its first pair."""
        server = initialized_server()
        upload = replace(active([[1], [0]], 1), arms=np.array([[0, 2], [1, 0]]))
        with pytest.raises(ProtocolError, match="^agent 0, arm 0, phase 1: arms must be a bool"):
            server.plan_phase(upload, f_p=4)

    def test_eliminated_arm_rejected(self):
        server = initialized_server()
        explore(server, server.plan_phase(active([[0], [0, 1]], 1), f_p=4), [0.5, 0.0])
        with pytest.raises(ProtocolError, match="agent 0, arm 1, phase 2"):
            server.plan_phase(active([[0, 1], [0]], 2), f_p=8)

    def test_edited_message_leaves_issued_counts(self):
        server = initialized_server()
        msg = server.plan_phase(active([[0, 1], [0, 1]], 1), f_p=4)
        msg.counts[0, 0] += 1
        with pytest.raises(ProtocolError, match="agent 0, arm 0, phase 1"):
            explore(server, msg, [0.5, 0.0])

    @pytest.mark.parametrize("stamp", [0, 2])
    def test_stale_or_future_phase_rejected(self, stamp):
        server = initialized_server()
        with pytest.raises(ProtocolError, match=rf"agent 0, arm \[0\], phase {stamp}"):
            server.plan_phase(active([[0], [0, 1]], stamp), f_p=4)

    def test_planning_before_initialization_rejected(self):
        server = CentralServer(m=2, k=2, d=2)
        with pytest.raises(ProtocolError, match="^planning before initialization$"):
            server.plan_phase(active([[0], [0, 1]], 1), f_p=4)

    def test_shrinking_active_sets_accepted(self):
        server = initialized_server()
        explore(server, server.plan_phase(active([[0, 1], [0, 1]], 1), f_p=4), [0.5, 0.0])
        msg = server.plan_phase(active([[1], [0]], 2), f_p=8)
        assert [np.flatnonzero(row).tolist() for row in msg.arms] == [[1], [0]]


class TestDirections:
    def test_learned_once_at_init(self):
        """Phase uploads that are not collinear with the init uploads leave
        the directions as the init round set them, signs included."""
        server = initialized_server()
        expected = np.array([
            [np.asarray(th) / np.linalg.norm(th) for _, th in sorted(ests.items())]
            for _, ests in sorted(INIT_ESTIMATES.items())
        ])
        np.testing.assert_array_equal(server.directions, expected)
        assert server.has_direction.all()
        explore(server, server.plan_phase(active([[0, 1], [0, 1]], 1), f_p=4), [0.1, 0.7])
        np.testing.assert_array_equal(server.directions, expected)
        assert server.has_direction.all()

    def test_zero_init_estimate_has_no_direction(self):
        server = CentralServer(m=2, k=2, d=2)
        server.ingest_init(estimates(0, [
            [(0, [0.5, 0.0], 1), (1, [0.0, 0.0], 1)],
            [(0, [0.0, -0.5], 1), (1, [-0.4, 0.3], 1)],
        ], 2))
        np.testing.assert_array_equal(server.has_direction, [[True, False], [True, True]])
        np.testing.assert_array_equal(server.directions[0, 1], [0.0, 0.0])


class TestAggregationInvariants:
    def test_psd_and_range_consistency(self, rng):
        for _ in range(20):
            m, d = 3, 3
            rows = []
            for i in range(m):
                entries = []
                for a in range(2):
                    psi = rng.normal(size=d)
                    psi /= np.linalg.norm(psi)
                    y = float(rng.normal())
                    entries.append((a, y * psi, 1))
                rows.append(entries)
            model = aggregate_init(estimates(0, rows, 2, d), m=m, k=2, d=d)
            for theta, v in zip(model.theta, model.v):
                w = np.linalg.eigvalsh(v)
                assert w.min() >= -1e-10
                np.testing.assert_allclose(v, v.T, atol=1e-10)
                residual = theta - v @ pinv(v) @ theta
                assert np.linalg.norm(residual) <= 1e-8

    def test_collinear_uploads_identity(self, rng):
        """All uploads scalar multiples of one unit vector e: the Gram
        collapses to e e' * sum(f) and theta is the f-weighted mean times e."""
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        coeffs = [0.7, -0.3, 1.1]
        fs = [2, 3, 4]
        prev = broadcast({0: (e, np.outer(e, e))}, 1)
        uploads = estimates(1, [[(0, c * e, f)] for c, f in zip(coeffs, fs)], 1, 3)
        model = aggregate_phase(
            uploads, np.array(fs)[:, None], np.ones((len(fs), 1), dtype=bool), prev
        )
        theta, v = model.theta[0], model.v[0]
        total = sum(fs)
        np.testing.assert_allclose(v, np.outer(e, e) / total, atol=1e-12)
        mean = sum(f * c for f, c in zip(fs, coeffs)) / total
        np.testing.assert_allclose(theta, mean * e, atol=1e-12)


class TestCheckPsd:
    @pytest.mark.parametrize("angle", [1e-3, 1e-4])
    def test_nearly_parallel_uploads_aggregate(self, angle):
        """V = Gram^+ has norm ~1/angle^2 here, so its rounding error alone
        exceeds any fixed absolute tolerance on its smallest eigenvalue."""
        for seed in range(50):
            q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
            dirs = [q[:, 0], np.cos(angle) * q[:, 0] + np.sin(angle) * q[:, 1]]
            model = aggregate_init(
                estimates(0, [[(0, 0.8 * e, 1)] for e in dirs], 1, 3), m=2, k=1, d=3
            )
            theta, v = model.theta[0], model.v[0]
            assert np.all(np.isfinite(v)) and np.all(np.isfinite(theta))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(NotPSDError):
            _check_psd(np.diag([1.0, -0.1])[None], [0])

    def test_names_the_first_indefinite_arm_of_a_stack(self):
        stack = np.array([np.eye(2), np.diag([1.0, -0.1]), np.diag([1.0, -1.0])])
        with pytest.raises(NotPSDError, match="arm 5 "):
            _check_psd(stack, [3, 5, 7])

    def test_cutoff_is_relative_per_matrix(self):
        """-1e-9 is rounding next to 1e6 but not next to 1."""
        _check_psd(np.array([np.diag([1e6, -1e-9]), np.eye(2)]), [0, 1])
        with pytest.raises(NotPSDError, match="arm 1 "):
            _check_psd(np.array([np.diag([1e6, -1e-9]), np.diag([1.0, -1e-9])]), [0, 1])


class TestAllocate:
    def test_full_mass(self):
        alloc = DesignAllocation(pi=np.array([[1.0]]))
        np.testing.assert_array_equal(allocate(alloc, 8), [[8]])

    def test_zero_stays_zero(self):
        alloc = DesignAllocation(pi=np.array([[1.0, 0.0]]))
        assert allocate(alloc, 8)[0][1] == 0

    def test_ceiling(self):
        alloc = DesignAllocation(pi=np.array([[0.3, 0.7]]))
        counts = allocate(alloc, 8)[0]
        assert counts[0] == 3  # ceil(2.4)
        assert counts[1] == 6  # ceil(5.6)

    def test_budget_rounding_bound(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            weights = rng.dirichlet(np.ones(k))
            alloc = DesignAllocation(pi=weights[None])
            f_p = int(rng.integers(1, 100))
            counts = allocate(alloc, f_p)[0]
            assert counts.sum() <= f_p + k
