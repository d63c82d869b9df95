"""Versioned wire protocol for the SPARCLE serving front-end.

One schema for in-process and network callers: every request a client can
make of :class:`~repro.service.server.SparcleServer` — and every reply the
server can send — is a frozen dataclass here with ``to_wire()`` /
``from_wire()`` methods.  The wire form is one JSON object per line
(JSON-lines framing), always carrying::

    {"v": <PROTOCOL_VERSION>, "type": "<message type>", ...fields}

Messages are strictly validated on parse: a missing or mismatched ``v``,
an unknown ``type``, a missing required field, or an unknown field all
raise :class:`~repro.exceptions.ProtocolError` — v1 is a closed schema,
so drift between client and server fails loudly instead of being half
understood.  ``from_wire(msg.to_wire()) == msg`` holds for every message
type (the Hypothesis suite proves it through a JSON round trip).

Request messages (client -> server)
    :class:`SubmitRequest` (GR/BE admission), :class:`WithdrawRequest`,
    :class:`StatusRequest`, :class:`TopologyRequest`,
    :class:`DrainRequest`.

Reply messages (server -> client)
    :class:`SubmitReply` (the ack carrying the gateway ticket),
    :class:`DecisionReply` (pushed when the epoch loop decides the app),
    :class:`WithdrawReply`, :class:`StatusReply`, :class:`TopologyReply`,
    :class:`DrainReply`, and :class:`ErrorReply`.

``seq`` is the client's per-connection correlation id: the server echoes
it in the direct reply to each request, and a :class:`DecisionReply`
carries the ``seq`` of the submit it resolves.

:class:`SubmitRequest` embeds the application task graph in the scenario
JSON form (:func:`repro.core.scenario.graph_to_dict`), so a wire
submit converts losslessly to the in-process
:class:`~repro.core.scheduler.GRRequest` / ``BERequest`` via
:meth:`SubmitRequest.to_request` — and back via
:meth:`SubmitRequest.from_request`, which is how the gateway and the
shard coordinator accept wire-typed submits directly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar, TypeVar

from repro.core.scheduler import BERequest, Decision, GRRequest
from repro.core.scenario import graph_from_dict, graph_to_dict
from repro.exceptions import InvalidTaskGraphError, ProtocolError, ScenarioError

#: The wire schema version; bump on any incompatible message change.
PROTOCOL_VERSION = 1

#: StreamReader line limit both endpoints use: one wire message (a
#: submit carries its whole task graph as JSON) must fit in one line;
#: the asyncio default of 64 KiB is too small for dense graphs.
WIRE_LINE_LIMIT = 8 * 1024 * 1024

#: Error codes an :class:`ErrorReply` may carry.
ERROR_CODES = (
    "protocol",      # malformed/unknown message
    "backpressure",  # inflight window or gateway queue full; back off
    "duplicate",     # app id already queued or admitted
    "admission",     # invalid request parameters
    "draining",      # server is draining; no new submits
    "shard",         # routed to a killed shard / federation misuse
    "unknown",       # anything else the server chose to surface
)

_M = TypeVar("_M", bound="Message")


def _jsonify(value: Any) -> Any:
    """Tuples become lists so ``to_wire`` output is JSON-natural."""
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    if isinstance(value, list):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class Message:
    """Base class: generic ``to_wire``/``from_wire`` over dataclass fields.

    Subclasses declare ``TYPE`` (the wire ``type`` string) and list their
    sequence-valued fields in ``TUPLE_FIELDS`` so parsing restores them as
    tuples (JSON has only lists) and equality round-trips exactly.
    """

    TYPE: ClassVar[str] = ""
    TUPLE_FIELDS: ClassVar[frozenset[str]] = frozenset()

    def to_wire(self) -> dict[str, Any]:
        """The JSON-compatible wire document for this message."""
        doc: dict[str, Any] = {"v": PROTOCOL_VERSION, "type": self.TYPE}
        for spec in dataclasses.fields(self):
            doc[spec.name] = _jsonify(getattr(self, spec.name))
        return doc

    @classmethod
    def from_wire(cls: type[_M], doc: Mapping[str, Any]) -> _M:
        """Parse one wire document into this message type (strict).

        Raises :class:`~repro.exceptions.ProtocolError` on version or
        type mismatch, missing required fields, unknown fields, or field
        values the dataclass rejects.
        """
        _check_envelope(doc, expected_type=cls.TYPE)
        specs = {spec.name: spec for spec in dataclasses.fields(cls)}
        unknown = set(doc) - set(specs) - {"v", "type"}
        if unknown:
            raise ProtocolError(
                f"{cls.TYPE} message has unknown field(s) "
                f"{sorted(unknown)} (v{PROTOCOL_VERSION} is a closed schema)"
            )
        kwargs: dict[str, Any] = {}
        for name, spec in specs.items():
            if name in doc:
                value = doc[name]
                if name in cls.TUPLE_FIELDS:
                    if not isinstance(value, (list, tuple)):
                        raise ProtocolError(
                            f"{cls.TYPE}.{name} must be an array, "
                            f"got {type(value).__name__}"
                        )
                    value = tuple(value)
                kwargs[name] = value
            elif (
                spec.default is dataclasses.MISSING
                and spec.default_factory is dataclasses.MISSING
            ):
                raise ProtocolError(
                    f"{cls.TYPE} message is missing required field {name!r}"
                )
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as error:
            raise ProtocolError(
                f"malformed {cls.TYPE} message: {error}"
            ) from error


def _check_envelope(doc: Mapping[str, Any], *, expected_type: str | None) -> str:
    if not isinstance(doc, Mapping):
        raise ProtocolError(
            f"wire message must be a JSON object, got {type(doc).__name__}"
        )
    version = doc.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this endpoint speaks v{PROTOCOL_VERSION})"
        )
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {kind!r}")
    if expected_type is not None and kind != expected_type:
        raise ProtocolError(
            f"expected a {expected_type!r} message, got {kind!r}"
        )
    return kind


# ----------------------------------------------------------------------
# Requests (client -> server)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubmitRequest(Message):
    """Submit one GR or BE application for admission.

    ``graph`` is the application task graph in the scenario JSON form
    (:func:`repro.core.scenario.graph_to_dict`).  GR submits must
    carry ``min_rate``; BE submits use ``priority``/``availability``.
    ``max_paths`` of ``None`` takes the class default (5 for GR, 4 for
    BE, matching the in-process request dataclasses).
    """

    TYPE: ClassVar[str] = "submit"

    app_id: str
    kind: str  # "GR" | "BE"
    graph: dict[str, Any]
    min_rate: float | None = None
    min_rate_availability: float = 0.0
    priority: float = 1.0
    availability: float | None = None
    max_paths: int | None = None
    seq: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("GR", "BE"):
            raise ProtocolError(
                f"submit kind must be 'GR' or 'BE', got {self.kind!r}"
            )
        # JSON carries any number (and Python's json reads NaN/Infinity),
        # so the types are checked here: past the ack, a bad value would
        # fail inside an epoch instead of in the submitter's reply.
        if self.max_paths is not None and (
            isinstance(self.max_paths, bool)
            or not isinstance(self.max_paths, numbers.Integral)
        ):
            raise ProtocolError(
                f"submit {self.app_id!r} max_paths must be an integer, "
                f"got {self.max_paths!r}"
            )
        for name in ("min_rate", "min_rate_availability", "priority", "availability"):
            value = getattr(self, name)
            if value is None and name in ("min_rate", "availability"):
                continue
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ProtocolError(
                    f"submit {self.app_id!r} {name} must be a finite number, "
                    f"got {value!r}"
                )
        if self.kind == "GR" and self.min_rate is None:
            raise ProtocolError(
                f"GR submit {self.app_id!r} must carry min_rate"
            )

    def to_request(self) -> BERequest | GRRequest:
        """The in-process admission request this wire submit describes."""
        try:
            graph = graph_from_dict(self.graph)
        except (ScenarioError, InvalidTaskGraphError) as error:
            raise ProtocolError(
                f"submit {self.app_id!r} carries a malformed task graph: "
                f"{error}"
            ) from error
        if self.kind == "GR":
            assert self.min_rate is not None  # __post_init__ guarantees
            return GRRequest(
                self.app_id,
                graph,
                min_rate=self.min_rate,
                min_rate_availability=self.min_rate_availability,
                **({} if self.max_paths is None
                   else {"max_paths": self.max_paths}),
            )
        return BERequest(
            self.app_id,
            graph,
            priority=self.priority,
            availability=self.availability,
            **({} if self.max_paths is None
               else {"max_paths": self.max_paths}),
        )

    @classmethod
    def from_request(
        cls, request: BERequest | GRRequest, *, seq: int = 0
    ) -> "SubmitRequest":
        """The wire form of one in-process admission request."""
        if isinstance(request, GRRequest):
            return cls(
                app_id=request.app_id,
                kind="GR",
                graph=graph_to_dict(request.graph),
                min_rate=request.min_rate,
                min_rate_availability=request.min_rate_availability,
                max_paths=request.max_paths,
                seq=seq,
            )
        return cls(
            app_id=request.app_id,
            kind="BE",
            graph=graph_to_dict(request.graph),
            priority=request.priority,
            availability=request.availability,
            max_paths=request.max_paths,
            seq=seq,
        )


@dataclass(frozen=True)
class WithdrawRequest(Message):
    """Release one admitted application's reservations."""

    TYPE: ClassVar[str] = "withdraw"

    app_id: str
    seq: int = 0


@dataclass(frozen=True)
class StatusRequest(Message):
    """Ask for the server's counters and lifecycle state."""

    TYPE: ClassVar[str] = "status"

    seq: int = 0


@dataclass(frozen=True)
class TopologyRequest(Message):
    """Ask for the shard topology behind this endpoint."""

    TYPE: ClassVar[str] = "topology"

    seq: int = 0


@dataclass(frozen=True)
class DrainRequest(Message):
    """Gracefully drain the server: decide queued work, then stop."""

    TYPE: ClassVar[str] = "drain"

    seq: int = 0


# ----------------------------------------------------------------------
# Replies (server -> client)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubmitReply(Message):
    """Ack for one submit: the request is queued under ``ticket``."""

    TYPE: ClassVar[str] = "submit_reply"

    app_id: str
    ticket: int
    seq: int = 0


@dataclass(frozen=True)
class DecisionReply(Message):
    """One admission outcome, pushed when the epoch loop decides the app.

    ``placements`` serializes each admitted path as
    ``{"ct_hosts": {...}, "tt_routes": {tt: [links...]}}`` — the same
    shape :meth:`repro.core.scheduler.SparcleScheduler.export_decisions`
    writes, so wire consumers and audit logs share one schema.
    """

    TYPE: ClassVar[str] = "decision"
    TUPLE_FIELDS: ClassVar[frozenset[str]] = frozenset(
        {"path_rates", "placements"}
    )

    app_id: str
    kind: str  # "GR" | "BE"
    accepted: bool
    reason: str = ""
    path_rates: tuple[float, ...] = ()
    placements: tuple[dict[str, Any], ...] = ()
    availability: float | None = None
    seq: int = 0

    @property
    def total_rate(self) -> float:
        """Aggregate rate over all admitted paths."""
        return float(sum(self.path_rates))

    @classmethod
    def from_decision(
        cls, decision: Decision, *, seq: int = 0
    ) -> "DecisionReply":
        """The wire form of one in-process scheduler decision."""
        return cls(
            app_id=decision.app_id,
            kind=decision.kind,
            accepted=decision.accepted,
            reason=decision.reason,
            path_rates=tuple(float(rate) for rate in decision.path_rates),
            placements=tuple(
                {
                    "ct_hosts": dict(placement.ct_hosts),
                    "tt_routes": {
                        tt: list(route)
                        for tt, route in placement.tt_routes.items()
                    },
                }
                for placement in decision.placements
            ),
            availability=decision.availability,
            seq=seq,
        )


@dataclass(frozen=True)
class WithdrawReply(Message):
    """Ack for one withdraw: the reservations were released."""

    TYPE: ClassVar[str] = "withdraw_reply"

    app_id: str
    seq: int = 0


@dataclass(frozen=True)
class StatusReply(Message):
    """The server's counters and lifecycle state."""

    TYPE: ClassVar[str] = "status_reply"

    protocol_version: int
    backend: str  # always "shards"; kept by the closed v1 schema
    submitted: int
    accepted: int
    rejected: int
    shed: int
    recovered: int
    inflight: int
    queue_depth: int
    epoch: int
    draining: bool
    seq: int = 0


@dataclass(frozen=True)
class TopologyReply(Message):
    """The shard layout behind this endpoint.

    One entry per shard: ``{"shard": id, "ncps": n, "alive": bool,
    "apps": n}``, where ``apps`` counts every app holding capacity on
    the shard, cross-shard reservations included.  A ``--shards 1``
    server reports its single region as shard 0 with zero boundary
    links.
    """

    TYPE: ClassVar[str] = "topology_reply"
    TUPLE_FIELDS: ClassVar[frozenset[str]] = frozenset({"shards"})

    shards: tuple[dict[str, Any], ...]
    boundary_links: int = 0
    seq: int = 0


@dataclass(frozen=True)
class DrainReply(Message):
    """The drain finished: every queued request was decided."""

    TYPE: ClassVar[str] = "drain_reply"

    decided: int
    epochs: int
    seq: int = 0


@dataclass(frozen=True)
class ErrorReply(Message):
    """A request failed; ``code`` is one of :data:`ERROR_CODES`."""

    TYPE: ClassVar[str] = "error"

    code: str
    message: str
    app_id: str = ""
    seq: int = 0

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ProtocolError(f"unknown error code {self.code!r}")


#: Every message type, keyed by its wire ``type`` string.
MESSAGE_TYPES: dict[str, type[Message]] = {
    cls.TYPE: cls
    for cls in (
        SubmitRequest,
        WithdrawRequest,
        StatusRequest,
        TopologyRequest,
        DrainRequest,
        SubmitReply,
        DecisionReply,
        WithdrawReply,
        StatusReply,
        TopologyReply,
        DrainReply,
        ErrorReply,
    )
}

#: The request types a server accepts on a connection.
REQUEST_TYPES = ("submit", "withdraw", "status", "topology", "drain")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def from_wire(doc: Mapping[str, Any]) -> Message:
    """Parse one wire document into its typed message."""
    kind = _check_envelope(doc, expected_type=None)
    return MESSAGE_TYPES[kind].from_wire(doc)


def to_wire(message: Message) -> dict[str, Any]:
    """The wire document for any message (delegates to the method)."""
    return message.to_wire()


def encode(message: Message) -> bytes:
    """One JSON line (UTF-8, newline-terminated) for the wire."""
    return (
        json.dumps(message.to_wire(), sort_keys=True, separators=(",", ":"))
        + "\n"
    ).encode("utf-8")


def decode(line: str | bytes) -> Message:
    """Parse one JSON line into its typed message.

    Raises :class:`~repro.exceptions.ProtocolError` for malformed JSON,
    a non-object document, or any envelope/field violation.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"wire line is not UTF-8: {error}") from error
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"wire line is not valid JSON: {error}") from error
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"wire message must be a JSON object, got {type(doc).__name__}"
        )
    return from_wire(doc)


def parse_request(line: str | bytes) -> Message:
    """Decode one line and require it to be a client request type."""
    message = decode(line)
    if message.TYPE not in REQUEST_TYPES:
        raise ProtocolError(
            f"{message.TYPE!r} is a reply type, not a client request"
        )
    return message
