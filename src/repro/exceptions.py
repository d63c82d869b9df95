"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`SparcleError`, so callers can
catch a single base class at API boundaries while tests can assert on the
specific subclass.
"""

from __future__ import annotations


class SparcleError(Exception):
    """Base class for every error raised by this library."""


class InvalidTaskGraphError(SparcleError):
    """The application task graph violates a structural invariant.

    Examples: cycles, transport tasks whose endpoints do not exist, a
    computation task with a negative resource requirement, or a source CT
    that has incoming edges.
    """


class InvalidNetworkError(SparcleError):
    """The computing-network graph violates a structural invariant.

    Examples: a link whose endpoint NCP does not exist, a non-positive
    capacity, or a failure probability outside ``[0, 1]``.
    """


class PlacementError(SparcleError):
    """A placement is inconsistent with its task graph or network.

    Examples: an unplaced CT, a TT routed over a path that is not connected,
    or a TT whose path endpoints disagree with its CT hosts.
    """


class InfeasiblePlacementError(PlacementError):
    """No feasible placement exists (e.g. pinned host missing a resource)."""


class AllocationError(SparcleError):
    """The resource-allocation optimization failed or was ill-posed."""


class AdmissionError(SparcleError):
    """An application was rejected by admission control.

    Carries the partial diagnosis so callers can report why (not enough
    rate, availability unreachable with the path budget, ...).
    """

    def __init__(self, message: str, *, reason: str = "rejected") -> None:
        super().__init__(message)
        self.reason = reason


class GatewayError(SparcleError):
    """The admission gateway was misused or driven into an invalid state."""


class BackpressureError(GatewayError):
    """The gateway's bounded arrival queue is full; the request was shed.

    Callers should back off and resubmit (or count the request as lost) —
    nothing was enqueued and no decision was recorded.
    """


class ProtocolError(SparcleError):
    """A wire message violates the serving protocol.

    Raised by :mod:`repro.service.protocol` for malformed JSON, an unknown
    or missing message ``type``, a ``v`` field that does not match
    :data:`~repro.service.protocol.PROTOCOL_VERSION`, and for documents
    whose fields are missing, unknown, or of the wrong shape.  The server
    maps it onto an ``ErrorReply`` with code ``"protocol"`` instead of
    dropping the connection.
    """


class ServerError(SparcleError):
    """The serving front-end was misconfigured or driven while draining.

    Examples: ``--recover`` requested without a durable log directory,
    starting an already-started server, or submitting to a server that is
    draining (clients receive an ``ErrorReply`` with code ``"draining"``).
    """


class ShardError(SparcleError):
    """The sharded control plane was misconfigured or misused.

    Examples: a zone map that does not cover every NCP, a partition whose
    region subnetwork is disconnected, a submit routed to a killed shard,
    or a warm start attempted from an empty event log.  *Not* raised for
    cross-shard commit conflicts: those surface as
    :class:`StaleProposalError` and are retried/re-queued by the
    coordinator.
    """


class StaleProposalError(GatewayError):
    """An optimistically evaluated proposal failed commit-time revalidation.

    Raised by the shard coordinator's cross-region commit when an owner
    shard's live residuals (or the boundary ledger) no longer support a
    proposal computed against an earlier merged view.  Nothing stays
    reserved; the coordinator re-queues the request and re-evaluates.
    The single-owner local lane evaluates and commits against the live
    state and never raises it.
    """


class SimulationError(SparcleError):
    """The discrete-event simulator was driven into an invalid state."""


class ScenarioError(SparcleError):
    """A serialized scenario file is malformed or internally inconsistent."""


class ChaosError(SparcleError):
    """The chaos harness hit an internal inconsistency.

    Raised when the scenario fuzzer cannot produce a lint-clean world
    (a fuzzer bug by definition — generation is valid-by-construction and
    ``lint_scenario_dict`` is the oracle that proves it) or when the soak
    driver is misconfigured.  *Not* raised for invariant violations: those
    are findings, reported in the :class:`repro.chaos.SoakReport`.
    """
