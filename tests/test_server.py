import numpy as np
import pytest

from fedpecd.design import DesignAllocation
from fedpecd.errors import DegenerateArmError, NotPSDError, ProtocolError
from fedpecd.linalg import pinv
from fedpecd.messages import (
    ActiveSetUpload,
    GlobalBroadcast,
    LocalEstimate,
    LocalEstimateUpload,
)
from fedpecd.server import (
    CentralServer,
    aggregate_init,
    aggregate_phase,
    _check_psd,
    allocate,
)


# theta_hat values the d = 2 aggregation must reject, by what is wrong.
MALFORMED_THETAS = {
    "length-1": np.array([0.5]),
    "length-3": np.array([0.5, 0.1, 0.2]),
    "2-D": np.array([[0.5, 0.1]]),
    "nan": np.array([np.nan, 0.1]),
    "inf": np.array([0.5, np.inf]),
}


def upload(agent, phase, entries):
    ests = [LocalEstimate(arm=a, theta_hat=np.asarray(v, dtype=float), pulls=f)
            for a, v, f in entries]
    return LocalEstimateUpload(agent=agent, phase=phase, estimates=ests)


class TestAggregateInit:
    def test_single_agent_unit_psi_fixed_point(self):
        psi = np.array([0.6, 0.8])  # unit norm
        model = aggregate_init([upload(0, 0, [(0, psi, 1)])], m=1, k=1, d=2)
        theta, v = model.models[0]
        np.testing.assert_allclose(v, np.outer(psi, psi), atol=1e-12)
        np.testing.assert_allclose(theta, psi, atol=1e-12)

    def test_two_orthogonal_unit_uploads(self):
        u = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        model = aggregate_init(
            [upload(0, 0, [(0, u, 1)]), upload(1, 0, [(0, w, 1)])], m=2, k=1, d=2
        )
        theta, v = model.models[0]
        np.testing.assert_allclose(v, np.outer(u, u) + np.outer(w, w), atol=1e-12)
        np.testing.assert_allclose(theta, u + w, atol=1e-12)

    def test_scaling_one_upload_changes_only_the_mean(self):
        """The Gram uses normalized directions, so scaling an upload leaves
        V unchanged while the aggregated theta moves."""
        u = np.array([1.0, 0.0])
        w = np.array([0.6, 0.8])
        base = aggregate_init(
            [upload(0, 0, [(0, u, 1)]), upload(1, 0, [(0, w, 1)])], m=2, k=1, d=2
        )
        scaled = aggregate_init(
            [upload(0, 0, [(0, u, 1)]), upload(1, 0, [(0, 3 * w, 1)])], m=2, k=1, d=2
        )
        np.testing.assert_allclose(scaled.models[0][1], base.models[0][1], atol=1e-12)
        assert not np.allclose(scaled.models[0][0], base.models[0][0])

    def test_zero_upload_skipped_in_gram(self):
        u = np.array([1.0, 0.0])
        model = aggregate_init(
            [upload(0, 0, [(0, u, 1)]), upload(1, 0, [(0, np.zeros(2), 1)])],
            m=2, k=1, d=2,
        )
        theta, v = model.models[0]
        np.testing.assert_allclose(v, np.outer(u, u), atol=1e-12)
        np.testing.assert_allclose(theta, u, atol=1e-12)

    def test_all_zero_arm_is_degenerate(self):
        with pytest.raises(DegenerateArmError):
            aggregate_init([upload(0, 0, [(0, np.zeros(2), 1)])], m=1, k=1, d=2)

    def test_missing_agent_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate_init([upload(0, 0, [(0, np.array([1.0, 0.0]), 1)])], m=2, k=1, d=2)

    def test_repeated_agent_rejected(self):
        u = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        with pytest.raises(ProtocolError, match=r"agent 0, arm \[0\], phase 0"):
            aggregate_init(
                [upload(0, 0, [(0, u, 1)]), upload(1, 0, [(0, w, 1)]),
                 upload(0, 0, [(0, u, 1)])],
                m=2, k=1, d=2,
            )

    def test_wrong_phase_stamp_rejected(self):
        with pytest.raises(ProtocolError, match=r"agent 0, arm \[0\], phase 1"):
            aggregate_init([upload(0, 1, [(0, np.array([1.0, 0.0]), 1)])], m=1, k=1, d=2)

    @pytest.mark.parametrize("case", sorted(MALFORMED_THETAS))
    def test_malformed_theta_rejected(self, case):
        uploads = [
            upload(0, 0, [(0, np.array([1.0, 0.0]), 1)]),
            upload(1, 0, [(0, MALFORMED_THETAS[case], 1)]),
        ]
        with pytest.raises(ProtocolError, match="agent 1, arm 0, phase 0"):
            aggregate_init(uploads, m=2, k=1, d=2)


class TestAggregatePhase:
    def setup_method(self):
        psi = np.array([1.0, 0.0])
        self.psi = psi
        init = aggregate_init([upload(0, 0, [(0, psi, 1)])], m=1, k=1, d=2)
        self.prev = init
        # One pull issued to agent 0 for its one active arm.
        self.issued = np.array([[1]])
        self.active = np.array([[True]])

    def test_single_collinear_upload(self):
        c = 0.4
        model = aggregate_phase(
            [upload(0, 1, [(0, c * self.psi, 1)])],
            self.issued,
            self.active,
            self.prev,
        )
        theta, v = model.models[0]
        np.testing.assert_allclose(v, np.outer(self.psi, self.psi), atol=1e-12)
        np.testing.assert_allclose(theta, c * self.psi, atol=1e-12)

    def test_carry_over_when_no_uploads(self):
        model = aggregate_phase(
            [upload(0, 1, [])], np.array([[0]]), self.active, self.prev
        )
        assert model.models[0] is self.prev.models[0]

    def test_two_agents_same_direction(self):
        e = np.array([0.0, 1.0])
        c1, c2 = 0.5, 0.9
        model = aggregate_phase(
            [upload(0, 1, [(0, c1 * e, 2)]), upload(1, 1, [(0, c2 * e, 2)])],
            np.array([[2], [2]]),
            np.array([[True], [True]]),
            GlobalBroadcast(phase=1, models={0: (e, np.outer(e, e))}),
        )
        theta, v = model.models[0]
        # f-weighted direction Gram: (2 + 2) e e' -> pinv = e e' / 4
        np.testing.assert_allclose(v, np.outer(e, e) / 4.0, atol=1e-12)
        np.testing.assert_allclose(theta, ((2 * c1 + 2 * c2) / 4.0) * e, atol=1e-12)

    def test_upload_outside_roster_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate_phase(
                [upload(0, 1, [(1, self.psi, 1)])],
                self.issued,
                self.active,
                self.prev,
            )

    def test_pull_count_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate_phase(
                [upload(0, 1, [(0, self.psi, 3)])],
                self.issued,
                self.active,
                self.prev,
            )

    def test_duplicate_estimate_rejected(self):
        """A second estimate for the same (agent, arm) would be counted twice."""
        for uploads in (
            [upload(0, 1, [(0, self.psi, 1)]), upload(0, 1, [(0, self.psi, 1)])],
            [upload(0, 1, [(0, self.psi, 1), (0, self.psi, 1)])],
        ):
            with pytest.raises(ProtocolError, match="agent 0, arm 0, phase 1"):
                aggregate_phase(uploads, self.issued, self.active, self.prev)

    @pytest.mark.parametrize("case", sorted(MALFORMED_THETAS))
    def test_malformed_theta_rejected(self, case):
        with pytest.raises(ProtocolError, match="agent 0, arm 0, phase 1"):
            aggregate_phase(
                [upload(0, 1, [(0, MALFORMED_THETAS[case], 1)])],
                self.issued,
                self.active,
                self.prev,
            )

    def test_missing_issued_pair_rejected(self):
        """An issued pair that does not report would silently keep prev's model."""
        with pytest.raises(ProtocolError, match="agent 1, arm 0, phase 1"):
            aggregate_phase(
                [upload(0, 1, [(0, self.psi, 2)]), upload(1, 1, [])],
                np.array([[2], [3]]),
                np.array([[True], [True]]),
                self.prev,
            )

    def test_empty_upload_list_rejected(self):
        with pytest.raises(ProtocolError, match="agent 0, arm 0, phase 1"):
            aggregate_phase([], self.issued, self.active, self.prev)

    def test_upload_order_does_not_change_a_bit(self, rng):
        """Each arm's terms add in agent order, whatever order the uploads
        arrive in."""
        m, k, d = 8, 3, 3
        prev = GlobalBroadcast(phase=1, models={a: (np.zeros(d), np.eye(d)) for a in range(k)})
        issued = np.array([[int(rng.integers(1, 5)) for a in range(k)] for i in range(m)])
        active = np.ones((m, k), dtype=bool)
        uploads = [
            upload(i, 1, [(a, rng.normal(size=d), f) for a, f in enumerate(counts.tolist())])
            for i, counts in enumerate(issued)
        ]
        ordered = aggregate_phase(uploads, issued, active, prev)
        for _ in range(10):
            shuffled = [uploads[j] for j in rng.permutation(m)]
            model = aggregate_phase(shuffled, issued, active, prev)
            for a in range(k):
                assert np.array_equal(model.models[a][0], ordered.models[a][0])
                assert np.array_equal(model.models[a][1], ordered.models[a][1])

    @pytest.mark.parametrize("stamp", [0, 2])
    def test_stale_or_future_phase_rejected(self, stamp):
        with pytest.raises(ProtocolError, match=rf"agent 0, arm \[0\], phase {stamp}"):
            aggregate_phase(
                [upload(0, stamp, [(0, self.psi, 1)])],
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
    server.ingest_init([
        upload(i, 0, [(a, th, 1) for a, th in ests.items()])
        for i, ests in INIT_ESTIMATES.items()
    ])
    return server


def active(sets, phase):
    return [ActiveSetUpload(agent=i, phase=phase, arms=arms) for i, arms in enumerate(sets)]


def explore(server, msgs, theta):
    """Upload ``theta`` for every pair the messages issued pulls for."""
    return server.ingest_phase([
        upload(m.agent, m.phase, [(a, theta, f) for a, f in m.counts.items() if f >= 1])
        for m in msgs
    ])


class TestPlanPhase:
    def test_issued_counts_cover_the_active_sets(self):
        msgs = initialized_server().plan_phase(active([[0], [0, 1]], 1), f_p=4)
        assert [sorted(m.counts) for m in msgs] == [[0], [0, 1]]

    def test_empty_set_rejected(self):
        server = initialized_server()
        with pytest.raises(ProtocolError, match="agent 1 reported an empty active set"):
            server.plan_phase(active([[0], []], 1), f_p=4)

    @pytest.mark.parametrize("arm", [5, -1])
    def test_arm_outside_range_rejected(self, arm):
        server = initialized_server()
        with pytest.raises(ProtocolError, match=rf"agent 0, arm {arm}, phase 1"):
            server.plan_phase(active([[0, arm], [0]], 1), f_p=4)

    def test_repeated_arm_rejected(self):
        server = initialized_server()
        with pytest.raises(ProtocolError, match="agent 0, arm 1, phase 1"):
            server.plan_phase(active([[1, 1], [0]], 1), f_p=4)

    def test_eliminated_arm_rejected(self):
        server = initialized_server()
        explore(server, server.plan_phase(active([[0], [0, 1]], 1), f_p=4), [0.5, 0.0])
        with pytest.raises(ProtocolError, match="agent 0, arm 1, phase 2"):
            server.plan_phase(active([[0, 1], [0]], 2), f_p=8)

    def test_edited_message_leaves_issued_counts(self):
        server = initialized_server()
        msgs = server.plan_phase(active([[0, 1], [0, 1]], 1), f_p=4)
        msgs[0].counts[0] += 1
        with pytest.raises(ProtocolError, match="agent 0, arm 0, phase 1"):
            explore(server, msgs, [0.5, 0.0])

    @pytest.mark.parametrize("stamp", [0, 2])
    def test_stale_or_future_phase_rejected(self, stamp):
        server = initialized_server()
        with pytest.raises(ProtocolError, match=rf"agent 0, arm \[0\], phase {stamp}"):
            server.plan_phase(active([[0], [0, 1]], stamp), f_p=4)

    def test_planning_before_initialization_rejected(self):
        server = CentralServer(m=2, k=2, d=2)
        with pytest.raises(ProtocolError, match=r"agent 0, arm \[0\], phase 1"):
            server.plan_phase(active([[0], [0, 1]], 1), f_p=4)

    def test_shrinking_active_sets_accepted(self):
        server = initialized_server()
        explore(server, server.plan_phase(active([[0, 1], [0, 1]], 1), f_p=4), [0.5, 0.0])
        msgs = server.plan_phase(active([[1], [0]], 2), f_p=8)
        assert [sorted(m.counts) for m in msgs] == [[1], [0]]


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
        server.ingest_init([
            upload(0, 0, [(0, [0.5, 0.0], 1), (1, [0.0, 0.0], 1)]),
            upload(1, 0, [(0, [0.0, -0.5], 1), (1, [-0.4, 0.3], 1)]),
        ])
        np.testing.assert_array_equal(server.has_direction, [[True, False], [True, True]])
        np.testing.assert_array_equal(server.directions[0, 1], [0.0, 0.0])


class TestAggregationInvariants:
    def test_psd_and_range_consistency(self, rng):
        for _ in range(20):
            m, d = 3, 3
            uploads = []
            for i in range(m):
                entries = []
                for a in range(2):
                    psi = rng.normal(size=d)
                    psi /= np.linalg.norm(psi)
                    y = float(rng.normal())
                    entries.append((a, y * psi, 1))
                uploads.append(upload(i, 0, entries))
            model = aggregate_init(uploads, m=m, k=2, d=d)
            for a, (theta, v) in model.models.items():
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
        prev = GlobalBroadcast(phase=1, models={0: (e, np.outer(e, e))})
        uploads = [
            upload(i, 1, [(0, c * e, f)]) for i, (c, f) in enumerate(zip(coeffs, fs))
        ]
        model = aggregate_phase(
            uploads, np.array(fs)[:, None], np.ones((len(fs), 1), dtype=bool), prev
        )
        theta, v = model.models[0]
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
                [upload(i, 0, [(0, 0.8 * e, 1)]) for i, e in enumerate(dirs)], m=2, k=1, d=3
            )
            theta, v = model.models[0]
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
