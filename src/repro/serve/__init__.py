"""repro.serve — the fault-tolerant change-stream serving layer.

See :mod:`repro.serve.daemon` for the serving loop,
:mod:`repro.serve.shell` for what it shares with the multi-tenant service
(and the checkpoint cursor format),
:mod:`repro.serve.stream` for the batch stream format,
:mod:`repro.serve.policy` for deadlines/retries,
:mod:`repro.serve.breaker` for the incremental/rebuild circuit breaker,
and :mod:`repro.serve.deadletter` for the poison-batch quarantine.
"""

from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.daemon import ServeDaemon, ServeOptions, ServeStats
from repro.serve.deadletter import DeadLetterBox
from repro.serve.engine import BatchEngine
from repro.serve.policy import (
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    classify_failure,
)
from repro.serve.shell import cursor_from_extras, resume_cursor_from
from repro.serve.stream import (
    ChangeBatch,
    StreamError,
    decode_batch,
    decode_change,
    encode_batch,
    encode_change,
    fib_fingerprint,
    read_stream,
    watch_stream,
    write_batch_file,
    write_stream,
)

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "ServeDaemon",
    "ServeOptions",
    "ServeStats",
    "cursor_from_extras",
    "resume_cursor_from",
    "BatchEngine",
    "DeadLetterBox",
    "Deadline",
    "DeadlineExceeded",
    "RetryPolicy",
    "classify_failure",
    "ChangeBatch",
    "StreamError",
    "decode_batch",
    "decode_change",
    "encode_batch",
    "encode_change",
    "fib_fingerprint",
    "read_stream",
    "watch_stream",
    "write_batch_file",
    "write_stream",
]
