"""SPMD execution on the virtual machine.

:class:`VirtualMachine` spawns one thread per virtual processor, binds a
:class:`~repro.vmachine.process.Process` to each, hands every rank a world
:class:`~repro.vmachine.comm.Communicator`, and joins the threads.  An
exception on any rank marks that rank dead in the run's
:class:`~repro.vmachine.faults.FailureDetector` — receives blocked on the
dead rank raise :class:`~repro.vmachine.faults.RankLostError` with
per-rank diagnostics (pending mailbox envelopes) instead of hanging — and
everything is re-raised on the host thread as :class:`SPMDError` with
per-rank tracebacks.
"""

from __future__ import annotations

import os
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.vmachine.comm import CONTEXT_STRIDE, Communicator
from repro.vmachine.cost_model import CostModel, IBM_SP2, MachineProfile
from repro.vmachine.faults import FailureDetector, FaultPlan, RankLostError
from repro.vmachine.message import Mailbox
from repro.vmachine.process import Process
from repro.vmachine.replica import ReplicaStore
from repro.vmachine.timing import TimingReport, merge_timings

__all__ = ["VirtualMachine", "SPMDResult", "RankError", "SPMDError"]


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")

# CONTEXT_STRIDE (re-exported from repro.vmachine.comm): context-id spacing
# between communicators; user+collective tags stay below, and ANY_TAG
# wildcards are scoped to one communicator's [context, context+stride).


@dataclass
class RankError:
    """Captured failure of one rank."""

    rank: int
    exception: BaseException
    formatted: str


class SPMDError(RuntimeError):
    """One or more ranks raised; carries every rank's traceback."""

    def __init__(self, errors: list[RankError]):
        self.errors = errors
        chunks = [f"{len(errors)} rank(s) failed:"]
        for e in errors:
            chunks.append(f"--- rank {e.rank} ---\n{e.formatted}")
        super().__init__("\n".join(chunks))

    @property
    def lost_ranks(self) -> list[int]:
        """Ranks whose failure was a lost-peer condition (degradation)."""
        return sorted(
            e.rank for e in self.errors if isinstance(e.exception, RankLostError)
        )

    @property
    def root_causes(self) -> list[RankError]:
        """Failures that were *not* a reaction to another rank's death."""
        return [
            e for e in self.errors if not isinstance(e.exception, RankLostError)
        ]


@dataclass
class SPMDResult:
    """Outcome of one SPMD run."""

    values: list[Any]
    clocks: list[float]
    timings: list[TimingReport]
    stats: list[dict[str, float]]
    #: per-rank message traces (populated when the run traced messages)
    traces: list[list] = field(default_factory=list)
    #: per-rank :class:`~repro.observe.metrics.MetricsSnapshot` (counters
    #: always; (phase, term) attribution when the run observed)
    metrics: list = field(default_factory=list)
    #: per-rank closed-span logs (populated when the run observed)
    spans: list[list] = field(default_factory=list)
    #: replay handle — nprocs/profile/fault seed/plan fingerprint/env
    #: snapshot — attached to every run (recording or not), so a failure
    #: report always carries enough provenance to re-create the run
    replay: dict = field(default_factory=dict)

    @property
    def elapsed_ms(self) -> float:
        """Logical elapsed time of the run: the slowest rank's clock."""
        return max(self.clocks) * 1e3 if self.clocks else 0.0

    @property
    def merged_timing(self) -> TimingReport:
        """Per-phase times merged across ranks (max per phase)."""
        return merge_timings(self.timings, how="max")

    def total_stat(self, key: str) -> float:
        """Sum of one counter (e.g. ``messages_sent``) across all ranks."""
        return sum(s.get(key, 0.0) for s in self.stats)


class VirtualMachine:
    """A fixed-size virtual distributed-memory machine.

    Parameters
    ----------
    nprocs:
        Number of virtual processors.
    profile:
        Cost-model calibration (defaults to the IBM SP2 used for the
        paper's Tables 1-5).
    recv_timeout_s:
        Per-receive wall-clock timeout (seconds).  Defaults to the
        ``REPRO_RECV_TIMEOUT_S`` environment variable, else 120 s.
    copy_on_send:
        Debug mode: deep-copy every payload at send time, guarding
        against the zero-copy transport's mutate-after-send hazard.
        Defaults to the ``REPRO_COPY_ON_SEND`` environment variable.
    faults:
        Optional seeded :class:`~repro.vmachine.faults.FaultPlan`; when
        installed, message delivery runs through the fault model and rank
        slowdown/crash events apply.  ``None`` (default) is the perfectly
        reliable historical transport — logical clocks are byte-identical
        with and without this parameter at its default.
    observe:
        Full observability: implies ``trace=True`` and additionally logs
        phase spans and attributes every clock advance to its cost-model
        term (:class:`~repro.observe.metrics.MetricsRegistry`).  Defaults
        to the ``REPRO_OBSERVE`` environment variable.  Zero-cost to the
        logical clocks: every published table is byte-identical with
        observability on or off (guarded in CI).
    recorder:
        Optional :class:`~repro.replay.recorder.Recorder`; when present,
        every rank's message log, probe outcomes, trace and final clock
        are captured into a sealed replay artifact
        (``recorder.artifact`` after the run).  Implies tracing.  Like
        observability, recording charges zero logical-clock time — the
        published tables stay byte-identical with recording on (guarded
        in CI).  Defaults to a fresh in-memory recorder when the
        ``REPRO_RECORD`` environment variable is truthy.
    """

    def __init__(
        self,
        nprocs: int,
        profile: MachineProfile = IBM_SP2,
        trace: bool = False,
        check_leaks: bool = True,
        recv_timeout_s: float | None = None,
        copy_on_send: bool | None = None,
        faults: FaultPlan | None = None,
        observe: bool | None = None,
        recorder=None,
    ):
        if nprocs < 1:
            raise ValueError("need at least one virtual processor")
        self.nprocs = nprocs
        self.profile = profile
        self.cost_model = CostModel(profile)
        self.trace = trace
        #: fail the run if any message is delivered but never received
        self.check_leaks = check_leaks
        self.recv_timeout_s = recv_timeout_s
        self.copy_on_send = (
            _env_truthy("REPRO_COPY_ON_SEND") if copy_on_send is None
            else copy_on_send
        )
        self.faults = faults
        self.observe = (
            _env_truthy("REPRO_OBSERVE") if observe is None else observe
        )
        if recorder is None and _env_truthy("REPRO_RECORD"):
            from repro.replay.recorder import Recorder

            recorder = Recorder()
        self.recorder = recorder

    def _configure(self, proc: Process) -> None:
        """Apply machine-level transport settings to one process."""
        if self.recv_timeout_s is not None:
            proc.recv_timeout_s = self.recv_timeout_s
        proc.copy_on_send = self.copy_on_send
        if self.faults is not None:
            proc.faults = self.faults
            proc.slowdown = self.faults.slowdown_for(proc.rank)
        if self.observe:
            proc.enable_observability()

    def _provenance(self) -> tuple[dict, dict | None]:
        """Replay handle + serialized fault plan (function-level imports:
        repro.replay sits above the machine layer)."""
        from repro.replay.artifact import faultplan_to_dict
        from repro.replay.fingerprint import replay_handle

        plan_dict = faultplan_to_dict(self.faults)
        return replay_handle(self.nprocs, self.profile.name, plan_dict), plan_dict

    def _finalize_recording(
        self, plan_dict, processes, values, error=None
    ) -> None:
        if self.recorder is None:
            return
        self.recorder.finalize(
            kind="vm",
            config={
                "nprocs": self.nprocs,
                "profile": self.profile.name,
                "programs": None,
                "recv_timeout_s": self.recv_timeout_s,
                "copy_on_send": self.copy_on_send,
                "observe": bool(self.observe),
                "workload": None,
            },
            fault_plan_dict=plan_dict,
            clocks=[p.clock for p in processes],
            traces=[p.trace if p.trace is not None else [] for p in processes],
            values=values,
            error=error,
        )

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> SPMDResult:
        """Run ``fn(comm, *args, **kwargs)`` on every rank and collect results.

        ``fn`` receives the world communicator as its first argument; the
        ambient :class:`Process` is reachable as ``comm.process`` or via
        :func:`~repro.vmachine.process.current_process`.
        """
        router: dict[int, Mailbox] = {}
        detector = FailureDetector()
        processes = [Process(r, self.nprocs, self.cost_model) for r in range(self.nprocs)]
        replicas = ReplicaStore()
        for p in processes:
            p.replicas = replicas
            router[p.rank] = p.mailbox
            detector.register(p.mailbox)
            self._configure(p)
            if self.trace or self.observe or self.recorder is not None:
                p.trace = []
            if self.recorder is not None:
                p.recorder = self.recorder.rank_recorder(p.rank)

        members = list(range(self.nprocs))
        contention = self.profile.contention_factor(self.nprocs)
        values: list[Any] = [None] * self.nprocs
        errors: list[RankError] = []
        errors_lock = threading.Lock()

        def worker(proc: Process) -> None:
            proc.bind()
            try:
                comm = Communicator(
                    proc, members, router, context=0, contention=contention
                )
                values[proc.rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to host
                with errors_lock:
                    errors.append(
                        RankError(proc.rank, exc, traceback.format_exc())
                    )
                # Graceful degradation: mark this rank dead so receives
                # blocked on it raise RankLostError (with diagnostics)
                # promptly, instead of closing every mailbox and erasing
                # who actually failed.  Ranks blocked on still-live peers
                # unblock transitively as the failure cascades.
                detector.mark_dead(
                    proc.rank, f"{type(exc).__name__}: {exc}"
                )
            finally:
                proc.unbind()

        threads = [
            threading.Thread(
                target=worker, args=(p,), name=f"vproc-{p.rank}", daemon=True
            )
            for p in processes
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        handle, plan_dict = self._provenance()

        if errors:
            errors.sort(key=lambda e: e.rank)
            err = SPMDError(errors)
            err.replay_handle = handle
            self._finalize_recording(plan_dict, processes, values, error=err)
            raise err

        # A correct SPMD program consumes every message it sends; leftovers
        # mean mismatched sends/receives (a silent protocol bug).
        if self.check_leaks:
            leaked = {
                p.rank: p.mailbox.pending()
                for p in processes
                if p.mailbox.pending()
            }
            if leaked:
                err = SPMDError(
                    [
                        RankError(
                            rank,
                            RuntimeError("unconsumed messages"),
                            f"rank {rank}: {n} message(s) were delivered "
                            "but never received (mismatched send/recv)",
                        )
                        for rank, n in sorted(leaked.items())
                    ]
                )
                err.replay_handle = handle
                self._finalize_recording(
                    plan_dict, processes, values, error=err
                )
                raise err

        self._finalize_recording(plan_dict, processes, values)
        return SPMDResult(
            values=values,
            clocks=[p.clock for p in processes],
            timings=[p.timer.report for p in processes],
            stats=[p.stats for p in processes],
            traces=[p.trace if p.trace is not None else [] for p in processes],
            metrics=[p.metrics.snapshot() for p in processes],
            spans=[p.spans if p.spans is not None else [] for p in processes],
            replay=handle,
        )
