"""Multiple programs on one virtual machine.

The paper's sections 5.2 and 5.4 run *two separately written programs* on
disjoint processor sets (a regular-mesh program and an irregular-mesh
program; an HPF compute server and a Parti client) that exchange data only
through Meta-Chaos.  :func:`run_programs` reproduces that setting: each
:class:`ProgramSpec` gets its own contiguous block of global ranks, a
private intra-program :class:`~repro.vmachine.comm.Communicator`, and an
:class:`~repro.vmachine.comm.InterComm` to every other program.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.vmachine.comm import Communicator, InterComm
from repro.vmachine.cost_model import CostModel, IBM_SP2, MachineProfile
from repro.vmachine.faults import FailureDetector, FaultPlan
from repro.vmachine.machine import (
    CONTEXT_STRIDE,
    RankError,
    SPMDError,
    SPMDResult,
    _env_truthy,
)
from repro.vmachine.message import Mailbox
from repro.vmachine.process import Process
from repro.vmachine.replica import ReplicaStore

__all__ = ["ProgramSpec", "ProgramContext", "CoupledResult", "run_programs"]


@dataclass
class ProgramSpec:
    """One program of a coupled run.

    ``fn`` is called once per rank of the program as
    ``fn(ctx, *args, **kwargs)`` with a :class:`ProgramContext`.
    """

    name: str
    nprocs: int
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)


class ProgramContext:
    """Per-rank view of a coupled run.

    Attributes
    ----------
    program:
        This program's name.
    comm:
        Intra-program communicator (rank/size are program-local).
    intercomms:
        Mapping of peer program name to the :class:`InterComm` reaching it.
    """

    def __init__(
        self,
        program: str,
        comm: Communicator,
        intercomms: dict[str, InterComm],
    ):
        self.program = program
        self.comm = comm
        self.intercomms = intercomms

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    def peer(self, name: str) -> InterComm:
        """The inter-communicator to program ``name``."""
        try:
            return self.intercomms[name]
        except KeyError:
            raise KeyError(
                f"program {self.program!r} has no peer {name!r}; "
                f"peers: {sorted(self.intercomms)}"
            ) from None


@dataclass
class CoupledResult:
    """Per-program results of a coupled run."""

    programs: dict[str, SPMDResult]

    def __getitem__(self, name: str) -> SPMDResult:
        return self.programs[name]

    @property
    def elapsed_ms(self) -> float:
        return max(r.elapsed_ms for r in self.programs.values())


def run_programs(
    specs: list[ProgramSpec],
    profile: MachineProfile = IBM_SP2,
    trace: bool = False,
    recv_timeout_s: float | None = None,
    copy_on_send: bool | None = None,
    faults: FaultPlan | None = None,
    observe: bool | None = None,
    recorder=None,
) -> CoupledResult:
    """Run several programs concurrently on disjoint processor sets.

    Global ranks are assigned contiguously in spec order.  The inter-program
    network uses the same cost profile as the intra-program network (on the
    SP2 both are the switch; on the Alpha farm both are the ATM fabric).

    ``recv_timeout_s``, ``copy_on_send``, ``faults``, ``observe`` and
    ``recorder`` mirror the :class:`~repro.vmachine.machine.VirtualMachine`
    parameters; a :class:`~repro.vmachine.faults.FaultPlan` crash event
    may name a whole program (``rank="program:<name>"``) and is expanded
    to that program's global ranks here.  Recorded artifacts index ranks
    *globally* (spec-order blocks), which is also how the single-rank
    isolation replayer addresses them.
    """
    if not specs:
        raise ValueError("need at least one program")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate program names in {names}")

    total = sum(s.nprocs for s in specs)
    cost_model = CostModel(profile)
    detector = FailureDetector()
    processes = [Process(r, total, cost_model) for r in range(total)]
    router: dict[int, Mailbox] = {p.rank: p.mailbox for p in processes}
    copy_flag = (
        _env_truthy("REPRO_COPY_ON_SEND") if copy_on_send is None
        else copy_on_send
    )
    observe_flag = (
        _env_truthy("REPRO_OBSERVE") if observe is None else observe
    )
    if recorder is None and _env_truthy("REPRO_RECORD"):
        from repro.replay.recorder import Recorder

        recorder = Recorder()
    replicas = ReplicaStore()
    for p in processes:
        p.replicas = replicas
        detector.register(p.mailbox)
        if recv_timeout_s is not None:
            p.recv_timeout_s = recv_timeout_s
        p.copy_on_send = copy_flag
        if trace or observe_flag or recorder is not None:
            p.trace = []
        if observe_flag:
            p.enable_observability()
        if recorder is not None:
            p.recorder = recorder.rank_recorder(p.rank)

    # Contiguous global-rank blocks per program.
    blocks: dict[str, list[int]] = {}
    base = 0
    for s in specs:
        if s.nprocs < 1:
            raise ValueError(f"program {s.name!r} needs at least one processor")
        blocks[s.name] = list(range(base, base + s.nprocs))
        base += s.nprocs

    if faults is not None:
        faults.resolve_program_crashes(blocks)
        for p in processes:
            p.faults = faults
            p.slowdown = faults.slowdown_for(p.rank)

    # Deterministic context ids: one per communicator, spec order.
    contexts: dict[str, int] = {
        s.name: (i + 1) * CONTEXT_STRIDE for i, s in enumerate(specs)
    }
    pair_contexts: dict[tuple[str, str], int] = {}
    next_ctx = (len(specs) + 1) * CONTEXT_STRIDE
    for i, a in enumerate(specs):
        for b in specs[i + 1 :]:
            pair_contexts[(a.name, b.name)] = next_ctx
            pair_contexts[(b.name, a.name)] = next_ctx
            next_ctx += CONTEXT_STRIDE

    # Contention is per program: coupled programs run on *disjoint* node
    # sets (the paper allocates the client and server their own nodes), so
    # each program's node-link sharing depends on its own process count.
    contentions = {s.name: profile.contention_factor(s.nprocs) for s in specs}
    values: dict[str, list[Any]] = {s.name: [None] * s.nprocs for s in specs}
    errors: list[RankError] = []
    errors_lock = threading.Lock()

    def worker(spec: ProgramSpec, proc: Process, local_rank: int) -> None:
        proc.bind()
        try:
            comm = Communicator(
                proc,
                blocks[spec.name],
                router,
                context=contexts[spec.name],
                contention=contentions[spec.name],
            )
            intercomms = {
                other.name: InterComm(
                    proc,
                    blocks[spec.name],
                    blocks[other.name],
                    router,
                    context=pair_contexts[(spec.name, other.name)],
                    # The sender's own node link is the modelled bottleneck.
                    contention=contentions[spec.name],
                )
                for other in specs
                if other.name != spec.name
            }
            ctx = ProgramContext(spec.name, comm, intercomms)
            values[spec.name][local_rank] = spec.fn(ctx, *spec.args, **spec.kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported to host
            with errors_lock:
                errors.append(RankError(proc.rank, exc, traceback.format_exc()))
            # Graceful degradation: targeted dead-rank marking (see
            # VirtualMachine.run) — the surviving program's blocked
            # receives surface RankLostError with diagnostics, which the
            # coupling layer upgrades to PeerLostError.
            detector.mark_dead(proc.rank, f"{type(exc).__name__}: {exc}")
        finally:
            proc.unbind()

    threads: list[threading.Thread] = []
    for spec in specs:
        for local_rank, grank in enumerate(blocks[spec.name]):
            threads.append(
                threading.Thread(
                    target=worker,
                    args=(spec, processes[grank], local_rank),
                    name=f"{spec.name}-{local_rank}",
                    daemon=True,
                )
            )
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # Replay provenance: global-rank-ordered views (spec-order blocks).
    def _global_values() -> list[Any]:
        flat: list[Any] = [None] * total
        for spec in specs:
            for local_rank, grank in enumerate(blocks[spec.name]):
                flat[grank] = values[spec.name][local_rank]
        return flat

    def _finalize_recording(error=None) -> None:
        if recorder is None:
            return
        recorder.finalize(
            kind="programs",
            config={
                "nprocs": total,
                "profile": profile.name,
                "programs": [[s.name, s.nprocs] for s in specs],
                "recv_timeout_s": recv_timeout_s,
                "copy_on_send": copy_flag,
                "observe": bool(observe_flag),
                "workload": None,
            },
            fault_plan_dict=faultplan_to_dict(faults),
            clocks=[p.clock for p in processes],
            traces=[p.trace if p.trace is not None else [] for p in processes],
            values=_global_values(),
            error=error,
        )

    from repro.replay.artifact import faultplan_to_dict
    from repro.replay.fingerprint import replay_handle

    handle = replay_handle(
        total, profile.name, faultplan_to_dict(faults),
        programs=[(s.name, s.nprocs) for s in specs],
    )

    if errors:
        errors.sort(key=lambda e: e.rank)
        err = SPMDError(errors)
        err.replay_handle = handle
        _finalize_recording(error=err)
        raise err

    _finalize_recording()

    results: dict[str, SPMDResult] = {}
    for spec in specs:
        granks = blocks[spec.name]
        results[spec.name] = SPMDResult(
            values=values[spec.name],
            clocks=[processes[g].clock for g in granks],
            timings=[processes[g].timer.report for g in granks],
            stats=[processes[g].stats for g in granks],
            traces=[
                processes[g].trace if processes[g].trace is not None else []
                for g in granks
            ],
            metrics=[processes[g].metrics.snapshot() for g in granks],
            spans=[
                processes[g].spans if processes[g].spans is not None else []
                for g in granks
            ],
            replay=handle,
        )
    return CoupledResult(programs=results)
