"""Structured logging: JSON shape, trace correlation, idempotence."""

import io
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.observability.logs import (
    LOG_LEVELS,
    configure_logging,
    get_logger,
)
from repro.observability.tracing import Tracer


def configure_to_buffer(**kwargs):
    stream = io.StringIO()
    configure_logging(stream=stream, **kwargs)
    return stream


class TestGetLogger:
    def test_prefixes_repro(self):
        assert get_logger("serving").name == "repro.serving"

    def test_keeps_existing_prefix(self):
        assert get_logger("repro.cli").name == "repro.cli"


class TestJsonFormat:
    def test_json_line_shape(self, restore_repro_logger):
        stream = configure_to_buffer(level="info", json_format=True)
        get_logger("test").info("hello %s", "world")
        record = json.loads(stream.getvalue())
        assert record["level"] == "info"
        assert record["logger"] == "repro.test"
        assert record["message"] == "hello world"
        assert record["ts"].endswith("Z")
        assert "trace_id" not in record  # no trace active

    def test_trace_ids_injected(self, restore_repro_logger):
        stream = configure_to_buffer(level="info", json_format=True)
        tracer = Tracer()
        with tracer.trace("query") as root:
            get_logger("test").info("inside")
        record = json.loads(stream.getvalue())
        assert record["trace_id"] == root.trace_id
        assert record["span_id"] == root.span_id

    def test_extra_fields_surface(self, restore_repro_logger):
        stream = configure_to_buffer(level="info", json_format=True)
        get_logger("test").info("evicted", extra={"dropped": 7})
        assert json.loads(stream.getvalue())["dropped"] == 7

    def test_exception_captured(self, restore_repro_logger):
        stream = configure_to_buffer(level="info", json_format=True)
        try:
            raise RuntimeError("kaput")
        except RuntimeError:
            get_logger("test").exception("failed")
        record = json.loads(stream.getvalue())
        assert "RuntimeError: kaput" in record["exception"]


class TestTextFormat:
    def test_trace_suffix(self, restore_repro_logger):
        stream = configure_to_buffer(level="info", json_format=False)
        tracer = Tracer()
        with tracer.trace("query") as root:
            get_logger("test").info("inside")
        assert f"[trace={root.trace_id}]" in stream.getvalue()

    def test_no_suffix_outside_trace(self, restore_repro_logger):
        stream = configure_to_buffer(level="info", json_format=False)
        get_logger("test").info("outside")
        assert "[trace=" not in stream.getvalue()


class TestConfigure:
    def test_idempotent_reconfigure(self, restore_repro_logger):
        first = configure_to_buffer(level="info")
        second = configure_to_buffer(level="info")
        get_logger("test").info("once")
        assert first.getvalue() == ""  # old handler replaced, not stacked
        assert second.getvalue().count("once") == 1

    def test_level_filters(self, restore_repro_logger):
        stream = configure_to_buffer(level="warning")
        logger = get_logger("test")
        logger.info("quiet")
        logger.warning("loud")
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()

    def test_bad_level_rejected(self, restore_repro_logger):
        with pytest.raises(ConfigurationError):
            configure_logging(level="chatty")

    def test_all_documented_levels_accepted(self, restore_repro_logger):
        for level in LOG_LEVELS:
            configure_logging(level=level, stream=io.StringIO())
