"""Online failure-log ingestion with incremental analysis state.

The streaming subsystem mirrors the batch window engine incrementally:
events flow from a pluggable source (archive replay, JSONL tail,
synthetic live feed) through one synchronous ingest loop into
:class:`StreamAnalysisState`, which maintains the same conditional /
baseline count grids :mod:`repro.core.windows` computes in batch --
with an exactness guarantee (see :func:`verify_equivalence`), versioned
checkpoint/restore, online risk scoring and threshold alerts.
"""

from .alerts import (
    Alert,
    AlertEngine,
    AlertError,
    AlertRule,
    CategoryBurstRule,
    NodeRiskRule,
    render_alerts,
)
from .analysis import (
    NodeRisk,
    OnlineAnalysis,
    StreamAnalysisError,
    node_risks,
    risk_model_from_state,
)
from .events import (
    KIND_FAILURE,
    StreamEvent,
    StreamEventError,
    WatermarkClock,
)
from .ingest import (
    BackpressurePolicy,
    BoundedQueue,
    EventConsumer,
    IngestError,
    IngestPipeline,
    archive_event_id,
    archive_source,
    jsonl_source,
    synthetic_source,
)
from .replay import (
    EquivalenceReport,
    Pacer,
    ReplayResult,
    replay_archive,
    verify_equivalence,
)
from .state import (
    ANY_CODE,
    CHECKPOINT_VERSION,
    BatchStats,
    CheckpointInfo,
    Checkpointer,
    EventStore,
    StreamAnalysisState,
    StreamStateError,
    SystemStreamState,
    latest_checkpoint_sequence,
    load_checkpoint,
    write_checkpoint,
)

__all__ = [
    "ANY_CODE",
    "Alert",
    "AlertEngine",
    "AlertError",
    "AlertRule",
    "BackpressurePolicy",
    "BatchStats",
    "BoundedQueue",
    "CHECKPOINT_VERSION",
    "CategoryBurstRule",
    "CheckpointInfo",
    "Checkpointer",
    "EquivalenceReport",
    "EventStore",
    "EventConsumer",
    "IngestError",
    "IngestPipeline",
    "KIND_FAILURE",
    "NodeRisk",
    "NodeRiskRule",
    "OnlineAnalysis",
    "Pacer",
    "ReplayResult",
    "StreamAnalysisError",
    "StreamAnalysisState",
    "StreamEvent",
    "StreamEventError",
    "StreamStateError",
    "SystemStreamState",
    "WatermarkClock",
    "archive_event_id",
    "archive_source",
    "jsonl_source",
    "latest_checkpoint_sequence",
    "load_checkpoint",
    "node_risks",
    "render_alerts",
    "replay_archive",
    "risk_model_from_state",
    "synthetic_source",
    "verify_equivalence",
    "write_checkpoint",
]
