"""The ESP4ML software runtime: driver, allocator, dataflow, executor."""

from ..faults import NodeFailed, RecoveryPolicy
from .driver import DeviceRegistry, EspDevice
from .alloc import Buffer, ContigAllocator
from .dataflow import (
    COMM_KINDS,
    Dataflow,
    DataflowEdge,
    EXECUTION_MODES,
    chain,
    replicated_stage,
)
from .executor import (
    DataflowExecutor,
    ExecutionPlan,
    NodePlan,
    RunResult,
)
from .api import EspRuntime
from .codegen import emit_dataflow_header, emit_user_app

__all__ = [
    "Buffer",
    "COMM_KINDS",
    "ContigAllocator",
    "Dataflow",
    "DataflowEdge",
    "DataflowExecutor",
    "DeviceRegistry",
    "EXECUTION_MODES",
    "EspDevice",
    "EspRuntime",
    "ExecutionPlan",
    "NodeFailed",
    "NodePlan",
    "RecoveryPolicy",
    "RunResult",
    "chain",
    "emit_dataflow_header",
    "emit_user_app",
    "replicated_stage",
]
