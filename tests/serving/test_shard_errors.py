"""Every library error crosses the shard pipe as its own type.

Each :class:`~repro.exceptions.ReproError` subclass is raised inside a
real worker loop (``_worker_main``, with the service stubbed), its reply
goes through a pickle round trip as the reply queue would send it, and
the parent's ``_rebuild_error`` must give back the same type with the
same attributes, which the front end then maps to the same status and
body as when the demo raises it in-process.
"""

from __future__ import annotations

import inspect
import pickle
import queue
import threading
from types import SimpleNamespace

import repro.exceptions as exceptions
from repro.exceptions import QueryError, ReproError
from repro.serving import shard
from repro.serving.frontend import _error_reply
from repro.serving.shard import ShardSpec, _rebuild_error

#: One instance of every ReproError subclass, built as the library does.
SAMPLES = {
    "ReproError": lambda: ReproError("base failure"),
    "GraphError": lambda: exceptions.GraphError("bad graph"),
    "NodeNotFoundError": lambda: exceptions.NodeNotFoundError(42),
    "EdgeNotFoundError": lambda: exceptions.EdgeNotFoundError((1, 2)),
    "DisconnectedError": lambda: exceptions.DisconnectedError(1, 2),
    "SnapshotError": lambda: exceptions.SnapshotError("truncated"),
    "OSMError": lambda: exceptions.OSMError("osm"),
    "OSMParseError": lambda: exceptions.OSMParseError("bad xml"),
    "ProfileError": lambda: exceptions.ProfileError("no profile"),
    "QueryError": lambda: QueryError("bad query"),
    "PlanningTimeout": lambda: exceptions.PlanningTimeout("deadline"),
    "ServiceOverloadedError": lambda: exceptions.ServiceOverloadedError(
        3, 2, retry_after_s=2.5
    ),
    "CircuitOpenError": lambda: exceptions.CircuitOpenError("Plateaus", 7.0),
    "OutsideServiceAreaError": lambda: exceptions.OutsideServiceAreaError(
        0.0, 0.0
    ),
    "StudyError": lambda: exceptions.StudyError("study"),
    "StorageError": lambda: exceptions.StorageError("store"),
    "ConfigurationError": lambda: exceptions.ConfigurationError("config"),
    "TrafficUpdateError": lambda: exceptions.TrafficUpdateError(
        "sequence_gap", "seq 5 after 3"
    ),
    "ShardError": lambda: exceptions.ShardError("dhaka", "broken"),
    "ShardCrashedError": lambda: exceptions.ShardCrashedError(
        "dhaka", "worker died"
    ),
    "ShardUnavailableError": lambda: exceptions.ShardUnavailableError(
        "dhaka", "respawning", retry_after_s=4.0
    ),
}


class PicklingQueue(queue.Queue):
    """A reply queue that pickles what it carries, as the pipe does."""

    def put(self, item, *args, **kwargs):
        super().put(pickle.loads(pickle.dumps(item)), *args, **kwargs)


def _worker_replies(monkeypatch, grid10, errors):
    """Run one worker loop that raises each of ``errors`` in turn."""

    def answer(index):
        raise errors[index]

    service = SimpleNamespace(
        processor=SimpleNamespace(planners={}),
        answer=answer,
        close=lambda: None,
    )
    monkeypatch.setattr(
        shard, "_build_worker_service", lambda spec: (service, grid10, None)
    )
    requests, replies = queue.Queue(), PicklingQueue()
    for index in range(len(errors)):
        requests.put((index, "route", index))
    requests.put((len(errors), "stop", None))
    shard._worker_main(ShardSpec(city="grid"), requests, replies)
    assert replies.get_nowait()[1] == "ok"  # the startup handshake
    out = [replies.get_nowait() for _ in errors]
    assert replies.get_nowait()[1] == "ok"  # the stop acknowledgement
    return out


def test_every_library_error_arrives_as_its_own_type(monkeypatch, grid10):
    names = sorted(
        name
        for name, cls in inspect.getmembers(exceptions, inspect.isclass)
        if issubclass(cls, ReproError)
    )
    assert names == sorted(SAMPLES)
    errors = [SAMPLES[name]() for name in names]
    replies = _worker_replies(monkeypatch, grid10, errors)
    for name, sent, (req_id, status, payload) in zip(names, errors, replies):
        assert status == "error", name
        rebuilt = _rebuild_error("grid", payload)
        assert type(rebuilt) is type(sent), name
        assert rebuilt.args == sent.args, name
        assert vars(rebuilt) == vars(sent), name
        assert str(rebuilt) == str(sent), name
        assert _error_reply(rebuilt) == _error_reply(sent), name


def test_other_exceptions_keep_the_envelope(monkeypatch, grid10):
    (_, status, payload), = _worker_replies(
        monkeypatch, grid10, [ValueError("not a library error")]
    )
    assert status == "error"
    assert payload == {"type": "ValueError", "message": "not a library error"}
    rebuilt = _rebuild_error("grid", payload)
    assert type(rebuilt) is QueryError
    assert str(rebuilt) == "shard 'grid': ValueError: not a library error"


def test_unpicklable_library_error_keeps_the_envelope(monkeypatch, grid10):
    error = exceptions.ConfigurationError("holds a lock")
    error.lock = threading.Lock()
    (_, status, payload), = _worker_replies(monkeypatch, grid10, [error])
    assert payload == {"type": "ConfigurationError", "message": "holds a lock"}
    assert type(_rebuild_error("grid", payload)) is QueryError
