"""Simulation substrate: registers, schedulers, processes, histories.

This subpackage is the shared-memory model of Section 3 of the paper,
realized as a deterministic effect interpreter.
"""

from repro.sim.effects import (
    Annotate,
    Await,
    Broadcast,
    Effect,
    Invoke,
    Pause,
    ReadRegister,
    ReceiveAll,
    Respond,
    Send,
    WriteRegister,
)
from repro.sim.history import Annotation, History, OperationRecord, fresh_op_ids
from repro.sim.process import (
    FunctionClient,
    OpCall,
    Program,
    ScriptClient,
    all_done,
    call,
    idle_forever,
    pause_steps,
)
from repro.sim.registers import RegisterFile, RegisterSpec, swmr, swsr
from repro.sim.scheduler import (
    CoroutineId,
    PriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    Scheduler,
    TraceScheduler,
    interleave,
    steps,
)
from repro.sim.system import StepMetrics, System
from repro.sim.values import BOTTOM, FrozenDict, freeze, is_bottom, stable_key

__all__ = [
    "Annotate",
    "Annotation",
    "Await",
    "BOTTOM",
    "Broadcast",
    "CoroutineId",
    "Effect",
    "FrozenDict",
    "FunctionClient",
    "History",
    "Invoke",
    "OpCall",
    "OperationRecord",
    "Pause",
    "PriorityScheduler",
    "Program",
    "RandomScheduler",
    "ReadRegister",
    "ReceiveAll",
    "RegisterFile",
    "RegisterSpec",
    "Respond",
    "RoundRobinScheduler",
    "Scheduler",
    "ScriptClient",
    "ScriptedScheduler",
    "Send",
    "StepMetrics",
    "System",
    "TraceScheduler",
    "WriteRegister",
    "all_done",
    "call",
    "freeze",
    "fresh_op_ids",
    "idle_forever",
    "interleave",
    "is_bottom",
    "pause_steps",
    "stable_key",
    "steps",
    "swmr",
    "swsr",
]
