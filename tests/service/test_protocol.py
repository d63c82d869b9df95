"""Wire-protocol tests: Hypothesis round trips and strict rejection.

The core contract is ``from_wire(to_wire(msg)) == msg`` for every
message type — proved through a real JSON serialize/parse cycle, not
just dict identity — plus the closed-schema guarantees: wrong version,
unknown type, unknown field, missing field, and malformed JSON all
raise :class:`~repro.exceptions.ProtocolError`.  :class:`TestWireSchema`
checks that the schema's four declarations agree with each other.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import BERequest, GRRequest
from repro.core.taskgraph import linear_task_graph
from repro.emulator.scenario import graph_to_dict
from repro.exceptions import ProtocolError
from repro.service import client, protocol
from repro.service.protocol import (
    ERROR_CODES,
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    DecisionReply,
    DrainReply,
    DrainRequest,
    ErrorReply,
    StatusReply,
    StatusRequest,
    SubmitReply,
    SubmitRequest,
    TopologyReply,
    TopologyRequest,
    WithdrawReply,
    WithdrawRequest,
    decode,
    encode,
    from_wire,
    parse_request,
    to_wire,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

_GRAPH_DICTS = [
    graph_to_dict(
        linear_task_graph(n, cpu_per_ct=cpu, megabits_per_tt=1.0)
    )
    for n, cpu in ((2, 300.0), (3, 150.0))
]

app_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=12
)
seqs = st.integers(min_value=0, max_value=2**31)
rates = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def submit_requests(draw):
    kind = draw(st.sampled_from(["GR", "BE"]))
    return SubmitRequest(
        app_id=draw(app_ids),
        kind=kind,
        graph=draw(st.sampled_from(_GRAPH_DICTS)),
        min_rate=draw(rates) if kind == "GR" else None,
        min_rate_availability=draw(st.floats(0.0, 1.0)),
        priority=draw(st.floats(0.1, 8.0)),
        availability=draw(st.none() | st.floats(0.0, 1.0)),
        max_paths=draw(st.none() | st.integers(1, 5)),
        seq=draw(seqs),
    )


@st.composite
def decision_replies(draw):
    n_paths = draw(st.integers(0, 3))
    return DecisionReply(
        app_id=draw(app_ids),
        kind=draw(st.sampled_from(["GR", "BE"])),
        accepted=draw(st.booleans()),
        reason=draw(st.text(max_size=40)),
        path_rates=tuple(draw(rates) for _ in range(n_paths)),
        placements=tuple(
            {
                "ct_hosts": {"source": "ncp1", "sink": "ncp2"},
                "tt_routes": {"tt1": ["l1", "l2"]},
            }
            for _ in range(n_paths)
        ),
        availability=draw(st.none() | st.floats(0.0, 1.0)),
        seq=draw(seqs),
    )


@st.composite
def status_replies(draw):
    counters = st.integers(0, 10_000)
    return StatusReply(
        protocol_version=PROTOCOL_VERSION,
        backend=draw(st.sampled_from(["shards", "gateway"])),
        submitted=draw(counters),
        accepted=draw(counters),
        rejected=draw(counters),
        shed=draw(counters),
        recovered=draw(counters),
        inflight=draw(counters),
        queue_depth=draw(counters),
        epoch=draw(counters),
        draining=draw(st.booleans()),
        seq=draw(seqs),
    )


@st.composite
def topology_replies(draw):
    n = draw(st.integers(1, 4))
    return TopologyReply(
        shards=tuple(
            {"shard": i, "ncps": draw(st.integers(1, 16)),
             "alive": draw(st.booleans()), "apps": draw(st.integers(0, 9))}
            for i in range(n)
        ),
        boundary_links=draw(st.integers(0, 20)),
        seq=draw(seqs),
    )


messages = st.one_of(
    submit_requests(),
    st.builds(WithdrawRequest, app_id=app_ids, seq=seqs),
    st.builds(StatusRequest, seq=seqs),
    st.builds(TopologyRequest, seq=seqs),
    st.builds(DrainRequest, seq=seqs),
    st.builds(SubmitReply, app_id=app_ids,
              ticket=st.integers(0, 2**31), seq=seqs),
    decision_replies(),
    st.builds(WithdrawReply, app_id=app_ids, seq=seqs),
    status_replies(),
    topology_replies(),
    st.builds(DrainReply, decided=st.integers(0, 999),
              epochs=st.integers(0, 999), seq=seqs),
    st.builds(ErrorReply, code=st.sampled_from(ERROR_CODES),
              message=st.text(max_size=60), app_id=app_ids, seq=seqs),
)


class TestRoundTrip:
    @SETTINGS
    @given(message=messages)
    def test_wire_round_trip_through_json(self, message):
        doc = json.loads(json.dumps(to_wire(message)))
        assert from_wire(doc) == message

    @SETTINGS
    @given(message=messages)
    def test_encode_decode_round_trip(self, message):
        line = encode(message)
        assert line.endswith(b"\n")
        assert decode(line) == message

    @SETTINGS
    @given(message=messages)
    def test_envelope_fields(self, message):
        doc = to_wire(message)
        assert doc["v"] == PROTOCOL_VERSION
        assert doc["type"] == message.TYPE
        assert MESSAGE_TYPES[doc["type"]] is type(message)


class TestRejection:
    def test_unknown_version_rejected(self):
        doc = StatusRequest(seq=1).to_wire()
        doc["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="protocol version"):
            from_wire(doc)

    def test_missing_version_rejected(self):
        doc = StatusRequest(seq=1).to_wire()
        del doc["v"]
        with pytest.raises(ProtocolError, match="protocol version"):
            from_wire(doc)

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            from_wire({"v": PROTOCOL_VERSION, "type": "teleport"})

    def test_type_mismatch_rejected(self):
        doc = StatusRequest(seq=1).to_wire()
        with pytest.raises(ProtocolError, match="expected"):
            DrainRequest.from_wire(doc)

    def test_unknown_field_rejected(self):
        doc = DrainRequest(seq=1).to_wire()
        doc["bogus"] = 1
        with pytest.raises(ProtocolError, match="unknown field"):
            from_wire(doc)

    def test_missing_required_field_rejected(self):
        doc = WithdrawRequest(app_id="a", seq=1).to_wire()
        del doc["app_id"]
        with pytest.raises(ProtocolError, match="missing required field"):
            from_wire(doc)

    def test_tuple_field_must_be_array(self):
        doc = TopologyReply(shards=({"shard": 0},)).to_wire()
        doc["shards"] = "not-an-array"
        with pytest.raises(ProtocolError, match="must be an array"):
            from_wire(doc)

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode(b'{"v": 1, "type": ')

    def test_non_object_json_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode(b"[1, 2, 3]")

    def test_non_utf8_line_rejected(self):
        with pytest.raises(ProtocolError, match="not UTF-8"):
            decode(b"\xff\xfe{}")

    def test_reply_types_are_not_requests(self):
        line = encode(DrainReply(decided=0, epochs=0, seq=1))
        with pytest.raises(ProtocolError, match="reply type"):
            parse_request(line)

    def test_submit_kind_validated(self):
        with pytest.raises(ProtocolError, match="kind"):
            SubmitRequest(app_id="a", kind="XX", graph=_GRAPH_DICTS[0])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_paths", 2.5),
            ("max_paths", "3"),
            ("max_paths", True),
            ("min_rate", float("nan")),
            ("min_rate", float("inf")),
            ("min_rate", "0.5"),
            ("min_rate", False),
            ("min_rate_availability", None),
            ("min_rate_availability", float("nan")),
            ("priority", float("nan")),
            ("priority", float("-inf")),
            ("priority", "Infinity"),
            ("priority", None),
            ("priority", True),
            ("availability", float("nan")),
            ("availability", [0.5]),
        ],
    )
    def test_submit_numbers_validated(self, field, value):
        doc = SubmitRequest(
            app_id="a", kind="GR", graph=_GRAPH_DICTS[0], min_rate=0.5
        ).to_wire()
        doc[field] = value
        with pytest.raises(ProtocolError, match=field):
            from_wire(doc)

    def test_gr_submit_requires_min_rate(self):
        with pytest.raises(ProtocolError, match="min_rate"):
            SubmitRequest(app_id="a", kind="GR", graph=_GRAPH_DICTS[0])

    def test_error_code_validated(self):
        with pytest.raises(ProtocolError, match="error code"):
            ErrorReply(code="oops", message="x")

    def test_malformed_graph_rejected_at_conversion(self):
        wire = SubmitRequest(
            app_id="a", kind="BE", graph={"nonsense": True}
        )
        with pytest.raises(ProtocolError, match="task graph"):
            wire.to_request()


class TestRequestConversion:
    def test_gr_request_round_trip(self):
        graph = linear_task_graph(
            2, cpu_per_ct=300.0, megabits_per_tt=1.0
        ).with_pins({"source": "ncp1", "sink": "ncp2"}, name="app")
        request = GRRequest(
            "app", graph, min_rate=0.5, min_rate_availability=0.9,
            max_paths=3,
        )
        wire = SubmitRequest.from_request(request, seq=7)
        back = wire.to_request()
        assert isinstance(back, GRRequest)
        assert back.app_id == "app"
        assert back.min_rate == pytest.approx(0.5)
        assert back.min_rate_availability == pytest.approx(0.9)
        assert back.max_paths == 3
        assert back.graph.name == graph.name
        assert wire.seq == 7

    def test_be_request_round_trip(self):
        graph = linear_task_graph(2, cpu_per_ct=300.0, megabits_per_tt=1.0)
        request = BERequest(
            "app", graph, priority=2.0, availability=0.8, max_paths=2
        )
        back = SubmitRequest.from_request(request).to_request()
        assert isinstance(back, BERequest)
        assert back.priority == pytest.approx(2.0)
        assert back.availability == pytest.approx(0.8)
        assert back.max_paths == 2

    def test_wire_submit_round_trips_through_json_too(self):
        graph = linear_task_graph(2, cpu_per_ct=300.0, megabits_per_tt=1.0)
        wire = SubmitRequest.from_request(BERequest("app", graph))
        assert decode(encode(wire)) == wire


#: The documented schema tables ``TestWireSchema`` holds to the code.
SERVING_DOCS = Path(__file__).resolve().parents[2] / "docs" / "serving.md"


def _message_classes() -> list[type[protocol.Message]]:
    """Every message dataclass ``repro.service.protocol`` declares."""
    return [
        obj for obj in vars(protocol).values()
        if isinstance(obj, type) and issubclass(obj, protocol.Message)
        and obj.TYPE
    ]


def _registry_drift() -> list[str]:
    problems = []
    seen: dict[str, str] = {}
    for cls in _message_classes():
        if cls.TYPE in seen:
            problems.append(
                f"{seen[cls.TYPE]} and {cls.__name__} share type {cls.TYPE!r}"
            )
        seen[cls.TYPE] = cls.__name__
        if protocol.MESSAGE_TYPES.get(cls.TYPE) is not cls:
            problems.append(f"{cls.__name__} is not in MESSAGE_TYPES")
    problems.extend(
        f"REQUEST_TYPES lists undeclared {kind!r}"
        for kind in protocol.REQUEST_TYPES
        if kind not in protocol.MESSAGE_TYPES
    )
    return problems


def _error_map_drift() -> list[str]:
    codes, mapped = set(protocol.ERROR_CODES), set(client._ERROR_TYPES)
    return [
        *(f"ERROR_CODES {c!r} has no client exception"
          for c in sorted(codes - mapped)),
        *(f"client maps {c!r}, not in ERROR_CODES"
          for c in sorted(mapped - codes)),
    ]


def _docs_drift(text: str) -> list[str]:
    """The documented error codes and message-fields table vs the code."""
    problems = []
    codes = re.search(r"`code` ∈ `([^`]+)`", text)
    documented_codes = codes.group(1).split(", ") if codes else None
    if documented_codes != list(protocol.ERROR_CODES):
        problems.append(f"documented error codes {documented_codes}")
    table = text.split("### Message fields", 1)[-1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", table, re.M)
    documented = {kind: fields.split(", ") for kind, fields in rows}
    declared = {
        cls.TYPE: [field.name for field in dataclasses.fields(cls)]
        for cls in _message_classes()
    }
    problems.extend(
        f"{kind!r}: documented {documented.get(kind)}, declared "
        f"{declared.get(kind)}"
        for kind in sorted(documented.keys() | declared.keys())
        if documented.get(kind) != declared.get(kind)
    )
    return problems


class TestWireSchema:
    """The wire schema is declared four times and the four must agree.

    The message dataclasses are the source of truth; ``MESSAGE_TYPES``
    routes parsing, the client's ``_ERROR_TYPES`` turns ``error`` replies
    back into typed exceptions, and ``docs/serving.md`` documents both.
    """

    def test_every_message_class_is_registered_once(self):
        assert len(_message_classes()) == len(protocol.MESSAGE_TYPES)
        assert _registry_drift() == []

    def test_error_codes_match_client_exceptions(self):
        assert _error_map_drift() == []

    def test_docs_tables_match_dataclasses(self):
        assert _docs_drift(SERVING_DOCS.read_text(encoding="utf-8")) == []

    def test_drift_in_each_declaration_is_caught(self, monkeypatch):
        # Without this, a check that silently stopped reading one
        # declaration would pass forever.
        drifted = dict(client._ERROR_TYPES)
        del drifted["shard"]
        monkeypatch.setattr(client, "_ERROR_TYPES", drifted)
        assert _error_map_drift() == [
            "ERROR_CODES 'shard' has no client exception"
        ]

        docs = SERVING_DOCS.read_text(encoding="utf-8").replace(
            "| `drain_reply` | `decided, epochs, seq` |",
            "| `drain_reply` | `decided, epoch, seq` |",
        )
        assert _docs_drift(docs) == [
            "'drain_reply': documented ['decided', 'epoch', 'seq'], "
            "declared ['decided', 'epochs', 'seq']"
        ]

        @dataclasses.dataclass(frozen=True)
        class StrayReply(protocol.Message):
            TYPE = "stray"

        monkeypatch.setattr(protocol, "StrayReply", StrayReply, raising=False)
        assert _registry_drift() == ["StrayReply is not in MESSAGE_TYPES"]
