"""The wide-event structured access log and its bounded async writer.

One request = one JSON line; the writer never blocks the request path
(drops are counted, not waited on), and ``parse_access_log`` is the
round-trip contract the CI smoke job validates against.
"""

import json

import pytest

from repro.observe import AccessLogWriter, parse_access_log, wide_event
from repro.observe.log import RecordQueue


class TestWideEvent:
    def test_shape_and_none_elision(self):
        event = wide_event(
            trace="abc", op="simulate", digest=None, status=200, code=None,
        )
        assert event["event"] == "access"
        assert event["ts"] > 0
        assert event["trace"] == "abc"
        assert event["status"] == 200
        # None-valued fields are elided, not serialized as null.
        assert "digest" not in event
        assert "code" not in event

    def test_json_serializable_one_line(self):
        line = json.dumps(wide_event(op="verify", queue_ms=1.25))
        assert "\n" not in line
        assert json.loads(line)["queue_ms"] == 1.25


class TestAccessLogWriter:
    def test_round_trip_through_a_file(self, tmp_path):
        path = str(tmp_path / "access.log")
        writer = AccessLogWriter(path)
        events = [
            wide_event(trace=f"t{i}", op="simulate", id=i, status=200)
            for i in range(32)
        ]
        for event in events:
            assert writer.write(event)
        writer.close()
        parsed = parse_access_log(path)
        assert [e["id"] for e in parsed] == list(range(32))
        assert writer.accepted == 32
        assert writer.dropped == 0

    def test_close_is_idempotent_and_flushes_queued_events(self, tmp_path):
        path = str(tmp_path / "access.log")
        writer = AccessLogWriter(path)
        for i in range(100):
            writer.write(wide_event(op="simulate", id=i))
        writer.close()
        writer.close()  # second close must be a no-op
        # close() flushes everything already accepted, in order.
        assert [e["id"] for e in parse_access_log(path)] == list(range(100))

    def test_write_after_close_is_a_counted_refusal(self, tmp_path):
        writer = AccessLogWriter(str(tmp_path / "a.log"))
        writer.close()
        assert writer.write(wide_event(op="simulate")) is False

    def test_appends_across_writers(self, tmp_path):
        path = str(tmp_path / "access.log")
        for batch in range(2):
            writer = AccessLogWriter(path)
            writer.write(wide_event(op="simulate", id=batch))
            writer.close()
        assert [e["id"] for e in parse_access_log(path)] == [0, 1]

    def test_stdout_path_does_not_close_stdout(self, capsys):
        writer = AccessLogWriter("-")
        writer.write(wide_event(op="simulate", id="out"))
        writer.close()
        assert '"id":"out"' in capsys.readouterr().out
        print("stdout still usable")  # would raise on a closed stream


class TestRecordQueue:
    def test_record_queue_drops_when_full(self):
        q = RecordQueue(maxsize=2)
        assert q.offer(1) and q.offer(2)
        assert not q.offer(3)
        assert q.accepted == 2 and q.dropped == 1
        assert q.drain() == [1, 2]
        assert q.offer(4)
        assert q.get() == 4


class TestParseAccessLog:
    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text('{"event": "access"}\nnot json\n')
        with pytest.raises(ValueError, match="malformed"):
            parse_access_log(str(path))

    def test_rejects_foreign_records(self, tmp_path):
        path = tmp_path / "foreign.log"
        path.write_text('{"event": "result"}\n')
        with pytest.raises(ValueError, match="not a wide access event"):
            parse_access_log(str(path))

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.log"
        path.write_text('{"event": "access", "id": 1}\n\n')
        assert len(parse_access_log(str(path))) == 1
