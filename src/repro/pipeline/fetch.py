"""Fetch unit with stall-until-resolve misprediction modelling.

Our simulators are correct-path trace driven, so wrong-path instructions
are never executed.  The standard approximation — used here — is that when
a conditional branch is fetched and the predictor disagrees with the
trace's outcome, fetch stops at that branch and resumes only when the
branch resolves in the backend, plus a front-end redirect penalty.

This is exactly the mechanism behind the paper's SpecINT observation: a
mispredicted branch whose inputs depend on an L2 miss cannot resolve for a
full memory round-trip, so fetch — and with it the whole machine — stalls
for hundreds of cycles, no matter how large the instruction window is.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.isa import Instruction
from repro.branch.base import BranchPredictor
from repro.sim.stats import SimStats


class FetchUnit:
    """4-wide fetch front end feeding a bounded fetch buffer."""

    def __init__(
        self,
        trace: Iterable[Instruction],
        width: int,
        buffer_size: int,
        predictor: BranchPredictor,
        redirect_penalty: int,
        stats: SimStats,
    ) -> None:
        self._trace: Iterator[Instruction] = iter(trace)
        self.width = width
        self.buffer_size = buffer_size
        self.predictor = predictor
        self.redirect_penalty = redirect_penalty
        self.stats = stats
        self.buffer: deque[Instruction] = deque()
        self.exhausted = False
        #: seq of the mispredicted branch fetch is waiting on, if any.
        self._waiting_seq: int | None = None
        #: first cycle fetch may run again after a resolved misprediction.
        self._resume_cycle = 0

    # ------------------------------------------------------------------

    @property
    def stalled(self) -> bool:
        return self._waiting_seq is not None

    @property
    def waiting_seq(self) -> int | None:
        return self._waiting_seq

    def cycle(self, now: int) -> None:
        """Run one fetch cycle: pull up to ``width`` instructions."""
        stats = self.stats
        if self._waiting_seq is not None or now < self._resume_cycle:
            if not self.exhausted:
                # Both stall sources — waiting on the unresolved branch
                # and waiting out the redirect penalty — are misprediction
                # consequences, so the dedicated counter tracks them too.
                stats.fetch_stall_cycles += 1
                stats.mispredict_stall_cycles += 1
            return
        fetched = 0
        width = self.width
        buffer = self.buffer
        buffer_size = self.buffer_size
        trace = self._trace
        while fetched < width and len(buffer) < buffer_size:
            instr = next(trace, None)
            if instr is None:
                self.exhausted = True
                break
            buffer.append(instr)
            fetched += 1
            if instr.is_cond_branch:
                correct = self.predictor.update(instr.pc, bool(instr.taken))
                stats.branch_predictions += 1
                if not correct:
                    stats.branch_mispredictions += 1
                    self._waiting_seq = instr.seq
                    break  # stop fetching past the mispredicted branch
                if instr.taken:
                    # Correctly predicted taken: the fetch group still ends
                    # at the redirect (one group per taken branch).
                    break
            elif instr.taken:
                # Taken jump: target assumed BTB-hit, fetch continues next
                # cycle (one-cycle fetch-group break).
                break
        stats.fetched += fetched

    def next_fetch_cycle(self, now: int) -> int | None:
        """Earliest cycle >= *now* at which fetch could pull instructions.

        Part of the quiescence protocol: returns ``now`` when fetch can run
        immediately, the redirect resume cycle when fetch is merely waiting
        out a front-end penalty, or ``None`` when only a backend event (a
        branch resolving, dispatch freeing buffer space) can restart it.
        """
        if self.exhausted or self._waiting_seq is not None:
            return None
        if len(self.buffer) >= self.buffer_size:
            return None
        if now < self._resume_cycle:
            return self._resume_cycle
        return now

    def account_skipped(self, start: int, end: int) -> None:
        """Replay the stall accounting :meth:`cycle` would have done for
        the fast-forwarded cycles ``[start, end)``."""
        if self.exhausted:
            return
        if self._waiting_seq is not None:
            stalled = end - start
        elif start < self._resume_cycle:
            stalled = min(end, self._resume_cycle) - start
        else:
            return
        self.stats.fetch_stall_cycles += stalled
        self.stats.mispredict_stall_cycles += stalled

    def pop(self) -> Instruction | None:
        """Hand the oldest buffered instruction to dispatch."""
        if self.buffer:
            return self.buffer.popleft()
        return None

    def peek(self) -> Instruction | None:
        return self.buffer[0] if self.buffer else None

    # ------------------------------------------------------------------

    def on_branch_resolved(self, seq: int, resolve_cycle: int) -> None:
        """Notify that the branch with sequence number *seq* resolved.

        If fetch was waiting on it, fetch resumes after the redirect
        penalty (new fetch address, pipeline refill).
        """
        if self._waiting_seq == seq:
            self._waiting_seq = None
            self._resume_cycle = resolve_cycle + self.redirect_penalty
