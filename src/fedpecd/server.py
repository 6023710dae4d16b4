"""Server-side protocol: rosters, aggregation, design solving, allocation.

The server only ever sees uploaded estimates and active sets.  Direction
vectors for the exploration design are recovered from the uploads
themselves (estimates are collinear with the uploading agent's psi), with
the sign normalized so repeated uploads of the same direction agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignAllocation, DesignProblem, solve_design
from .errors import DegenerateArmError, NotPSDError, ProtocolError
from .linalg import pinv
from .messages import ActiveSetUpload, AllocationMessage, GlobalBroadcast, LocalEstimateUpload

# Relief subtracted before ceil() so float dust cannot inflate a count.
_CEIL_RELIEF = 1e-9


@dataclass
class ArmRoster:
    """Union of active sets and, per arm, the agents that keep it active."""

    union: list[int]
    members: dict[int, list[int]]


@dataclass
class GlobalModel:
    """Per-arm aggregated pair (theta_hat, V)."""

    phase: int
    entries: dict[int, tuple[np.ndarray, np.ndarray]]

    def model(self, arm: int) -> tuple[np.ndarray, np.ndarray]:
        return self.entries[arm]


def build_roster(active_sets: list[list[int]]) -> ArmRoster:
    """Exact union and inverse index of the per-agent active sets."""
    members: dict[int, list[int]] = {}
    for i, arms in enumerate(active_sets):
        if not arms:
            raise ProtocolError(f"agent {i} reported an empty active set")
        for a in arms:
            members.setdefault(a, []).append(i)
    union = sorted(members)
    return ArmRoster(union=union, members={a: sorted(members[a]) for a in union})


def _check_psd(v: np.ndarray, arm: int):
    w = np.linalg.eigvalsh(0.5 * (v + v.T))
    if w.size and float(w.min()) < -1e-10:
        raise NotPSDError(f"aggregated V for arm {arm} has eigenvalue {w.min()}")


def aggregate_init(uploads: list[LocalEstimateUpload], m: int, k: int) -> GlobalModel:
    """Aggregate the single-pull estimates into the first global model.

    Per arm: V = pinv(sum_i th th' / ||th||^2), theta = V (sum_i th).
    Estimates that are exactly zero (zero observed reward) carry no
    direction and are skipped in the Gram sum; their contribution to the
    linear term is zero anyway.
    """
    seen = {u.agent for u in uploads}
    if seen != set(range(m)):
        raise ProtocolError(f"initialization needs uploads from all {m} agents")
    by_arm: dict[int, list[np.ndarray]] = {a: [] for a in range(k)}
    for u in uploads:
        arms = sorted(e.arm for e in u.estimates)
        if arms != list(range(k)):
            raise ProtocolError(
                f"agent {u.agent} initial upload covers arms {arms}, expected all {k}"
            )
        for e in u.estimates:
            by_arm[e.arm].append(np.asarray(e.theta_hat, dtype=float))
    entries = {}
    for a in range(k):
        gram = None
        linear = None
        for th in by_arm[a]:
            linear = th if linear is None else linear + th
            norm_sq = float(th @ th)
            if norm_sq == 0.0:
                continue
            outer = np.outer(th, th) / norm_sq
            gram = outer if gram is None else gram + outer
        if gram is None:
            raise DegenerateArmError(f"all initial estimates for arm {a} are zero")
        v = pinv(gram)
        _check_psd(v, a)
        entries[a] = (v @ linear, v)
    return GlobalModel(phase=1, entries=entries)


def aggregate_phase(
    uploads: list[LocalEstimateUpload],
    roster: ArmRoster,
    f_issued: dict[int, dict[int, int]],
    prev: GlobalModel,
) -> GlobalModel:
    """Aggregate phase-p uploads into the next global model.

    Per arm: V = pinv(sum_i f_i th th' / ||th||^2), theta = V (sum_i f_i th),
    summed over roster agents that actually explored the arm.  An active
    arm that received no usable upload keeps its previous model, since a
    zero model would spuriously eliminate it.
    """
    collected: dict[int, list[tuple[int, np.ndarray]]] = {a: [] for a in roster.union}
    for u in uploads:
        for e in u.estimates:
            a = e.arm
            if a not in collected or u.agent not in roster.members[a]:
                raise ProtocolError(
                    f"agent {u.agent} uploaded for arm {a} outside its roster"
                )
            issued = f_issued.get(u.agent, {}).get(a, 0)
            if e.pulls != issued:
                raise ProtocolError(
                    f"agent {u.agent}, arm {a}: uploaded {e.pulls} pulls, "
                    f"server issued {issued}"
                )
            collected[a].append((e.pulls, np.asarray(e.theta_hat, dtype=float)))
    entries = {}
    for a in roster.union:
        gram = None
        linear = None
        for f, th in collected[a]:
            if f < 1:
                continue
            linear = f * th if linear is None else linear + f * th
            norm_sq = float(th @ th)
            if norm_sq == 0.0:
                continue
            outer = (f / norm_sq) * np.outer(th, th)
            gram = outer if gram is None else gram + outer
        if gram is None:
            entries[a] = prev.entries[a]
            continue
        v = pinv(gram)
        _check_psd(v, a)
        entries[a] = (v @ linear, v)
    return GlobalModel(phase=prev.phase + 1, entries=entries)


def allocate(alloc: DesignAllocation, f_p: int) -> dict[int, dict[int, int]]:
    """Pull counts f = ceil(pi * f_p); exact zeros stay zero."""
    if f_p < 1:
        raise ProtocolError(f"phase budget must be at least 1, got {f_p}")
    out = {}
    for agent, weights in enumerate(alloc.pi):
        counts = {}
        for a, p in sorted(weights.items()):
            counts[a] = 0 if p == 0.0 else int(math.ceil(p * f_p - _CEIL_RELIEF))
        out[agent] = counts
    return out


def _sign_normalize(vec: np.ndarray) -> np.ndarray:
    for x in vec:
        if x != 0.0:
            return vec if x > 0.0 else -vec
    return vec


class CentralServer:
    """Synchronous-round server: one barrier per phase."""

    def __init__(self, m: int, k: int, d: int, design_max_iters: int = 500,
                 design_tol: float = 1e-6):
        self.m = m
        self.k = k
        self.d = d
        self.design_max_iters = design_max_iters
        self.design_tol = design_tol
        self.model: GlobalModel | None = None
        self.directions: dict[tuple[int, int], np.ndarray] = {}
        self._warm: DesignAllocation | None = None
        self._roster: ArmRoster | None = None
        self._f_issued: dict[int, dict[int, int]] | None = None

    def _learn_directions(self, uploads: list[LocalEstimateUpload]):
        for u in uploads:
            for e in u.estimates:
                th = np.asarray(e.theta_hat, dtype=float)
                nrm = float(np.linalg.norm(th))
                if nrm > 0.0:
                    self.directions[(u.agent, e.arm)] = _sign_normalize(th / nrm)

    def ingest_init(self, uploads: list[LocalEstimateUpload]) -> GlobalBroadcast:
        self._learn_directions(uploads)
        self.model = aggregate_init(uploads, self.m, self.k)
        return GlobalBroadcast(phase=1, models=dict(self.model.entries))

    def plan_phase(
        self, active_uploads: list[ActiveSetUpload], f_p: int
    ) -> tuple[ArmRoster, list[AllocationMessage]]:
        """Roster the active sets, solve the design, and issue pull counts."""
        ordered = sorted(active_uploads, key=lambda u: u.agent)
        if [u.agent for u in ordered] != list(range(self.m)):
            raise ProtocolError("need exactly one active-set upload per agent")
        phase = ordered[0].phase
        if any(u.phase != phase for u in ordered):
            raise ProtocolError("active-set uploads span different phases")
        active_sets = [list(u.arms) for u in ordered]
        roster = build_roster(active_sets)
        dirs = {
            (i, a): self.directions[(i, a)]
            for i, arms in enumerate(active_sets)
            for a in arms
            if (i, a) in self.directions
        }
        prob = DesignProblem(active_sets=active_sets, directions=dirs, dim=self.d)
        alloc = solve_design(
            prob,
            max_iters=self.design_max_iters,
            tol=self.design_tol,
            warm_start=self._warm,
        )
        self._warm = alloc
        counts = allocate(alloc, f_p)
        self._roster = roster
        self._f_issued = counts
        messages = [
            AllocationMessage(agent=i, phase=phase, counts=counts[i])
            for i in range(self.m)
        ]
        return roster, messages

    def ingest_phase(self, uploads: list[LocalEstimateUpload]) -> GlobalBroadcast:
        if self._roster is None or self._f_issued is None or self.model is None:
            raise ProtocolError("phase uploads arrived before planning")
        self._learn_directions(uploads)
        self.model = aggregate_phase(uploads, self._roster, self._f_issued, self.model)
        entries = {a: self.model.entries[a] for a in self._roster.union}
        self.model = GlobalModel(phase=self.model.phase, entries=entries)
        return GlobalBroadcast(phase=self.model.phase, models=dict(entries))
