"""The streaming NDJSON wire protocol of the analysis service.

One JSON object per ``\\n``-terminated line, UTF-8, in both
directions.  Requests carry an ``op``:

``submit``
    ``{"op": "submit", "id": "7", "source": "(f 1)" | "path": ...,
    "analysis": "kcfa", "context": 1, "simplify": false,
    "report": "all", "values": "interned", "timeout": 30.0}``
    — exactly one of ``source`` (program text) or ``path`` (a file
    readable *by the server*).  Everything but the program is
    optional and defaults as in :class:`~repro.service.jobs.JobSpec`.
    A submit carrying ``"session": true`` additionally opens a
    long-lived *analysis session* on the worker the job hashes to:
    the ``done`` event then carries a ``session`` id for follow-up
    ``edit``/``query`` requests.  Session submits bypass the result
    cache and coalescing (the session keeps its result on the worker
    for later queries).
``edit``
    ``{"op": "edit", "id": "8", "session": "s1", "source": ... |
    "path": ..., "timeout": 30.0}`` — re-analyze a session's program
    after an edit.  The worker runs the session's analysis from
    scratch over the edited source; the ``done`` event carries the
    report — byte-identical to a one-shot submit of that source —
    and the run's engine ``steps``.
``query``
    Two forms.  *Session*: ``{"op": "query", "id": "9", "session":
    "s1", "kind": "value-of", "target": "x"}`` — a demand-driven
    query answered from the session's latest result (kinds:
    :data:`~repro.analysis.clients.SESSION_KINDS`; ``target`` is
    required, optional or forbidden per kind).  *Sessionless batch*:
    ``{"op": "query", "id": "9", "source": ... | "path": ...,
    "kind": "call-graph", "analysis": "kcfa", "context": 1, ...}`` —
    runs the analysis as an ordinary cached/coalesced job and
    answers the client pass from its result (kinds:
    :data:`~repro.analysis.clients.BATCH_KINDS`).  Either way the
    ``done`` event carries the ``answer`` object; the batch form's
    ``stdout`` is the answer's JSON rendering, byte-identical to
    ``python -m repro query --kind ...``.
``stats``
    ``{"op": "stats"}`` — one ``stats`` event with the scheduler's
    counters (see :meth:`AnalysisServer.stats_snapshot`).
``analyses``
    ``{"op": "analyses", "language": "fj"}`` (``language`` optional) —
    one ``analyses`` event listing every registered analysis straight
    from the server's :mod:`~repro.analysis.registry`, so remote
    clients can discover policies without a local checkout
    (``python -m repro submit --list-analyses``).
``ping`` / ``shutdown``
    Liveness probe / graceful stop.

The server streams events back, each tagged with the request's
``id`` as ``job``.  A submitted job progresses
``queued`` → ``running`` → ``done``, where the ``done`` event carries
``status`` (``ok | timeout | error``), the rendered ``stdout`` and
``summary`` on success, and the ``cached`` / ``coalesced`` flags
(cache hits skip ``running`` entirely; coalesced followers attach to
the leader's run).  ``done`` is terminal: in the rare race where a
follower attaches just as the leader finishes, its ``running`` frame
can trail the ``done``, so clients must stop at ``done`` and ignore
any late job-tagged frames.  Malformed requests produce an ``error``
event and never tear down the connection.

Backpressure is an event, not an error: when the worker shard a job
hashes to already has its admission queue full, the server answers
``queued`` → ``busy`` (with the target ``worker`` and a
``retry_after`` hint in seconds) instead of running anything.  A
``busy`` bounce is terminal *for that attempt only* — the job was not
started and will never produce ``done``; clients should back off and
resubmit (``ServiceClient.submit`` does, with jittered exponential
backoff).  ``busy`` is additive, so the protocol version is
unchanged: version-1 clients that predate it simply never see it
unless the fleet is saturated.

JSON strings escape newlines, so framing can never be broken by
report text; :data:`MAX_LINE_BYTES` bounds memory against a
misbehaving peer.
"""

from __future__ import annotations

import json

from repro.analysis.clients import (
    BATCH_KINDS, SESSION_KINDS, validate_query,
)
from repro.errors import ReproError
from repro.service.jobs import JobSpec

#: Bump when the wire format changes shape incompatibly.
PROTOCOL_VERSION = 1

#: Upper bound on one NDJSON line (requests embed whole programs).
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Operations a request may carry.
OPS = ("submit", "edit", "query", "stats", "analyses", "ping",
       "shutdown")

#: Every field a ``submit`` request may carry; unknown fields are
#: rejected so a typo ("contxt") fails loudly instead of silently
#: analyzing under defaults.
SUBMIT_FIELDS = frozenset(
    ("op", "id", "source", "path", "analysis", "context", "simplify",
     "report", "values", "timeout", "session"))

#: Fields of an ``analyses`` request (same strictness as submit).
ANALYSES_FIELDS = frozenset(("op", "id", "language"))

#: Fields of an ``edit`` request: a new source against a session.
EDIT_FIELDS = frozenset(
    ("op", "id", "session", "source", "path", "timeout"))

#: Fields of a *session* ``query`` request.
QUERY_SESSION_FIELDS = frozenset(
    ("op", "id", "session", "kind", "target"))

#: Every field a ``query`` request may carry: the session form plus
#: the job options of the sessionless batch form.
QUERY_FIELDS = QUERY_SESSION_FIELDS | frozenset(
    ("source", "path", "analysis", "context", "simplify", "values",
     "timeout"))

#: Query kinds a session answers (re-exported for wire clients).
QUERY_KINDS = SESSION_KINDS

#: Query kinds the sessionless batch form answers.
BATCH_QUERY_KINDS = BATCH_KINDS


class ProtocolError(ReproError):
    """Raised for malformed frames or invalid request fields."""


def encode_message(message: dict) -> bytes:
    """One NDJSON frame: compact JSON plus the terminating newline."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: str | bytes) -> dict:
    """Parse one frame; raise :class:`ProtocolError` on anything that
    is not a JSON object."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"frame exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"frame is not UTF-8: {error}") \
                from None
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"frame is not JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got "
            f"{type(message).__name__}")
    return message


def read_messages(stream):
    """Yield decoded frames from a binary line-iterable (socket file,
    test fixture, ...); blank lines are ignored."""
    for raw in stream:
        if not raw.strip():
            continue
        yield decode_message(raw)


def read_frame(stream) -> bytes | None:
    """One raw frame from a binary file-like, or None at EOF.

    Reads with a hard :data:`MAX_LINE_BYTES` limit so a peer
    streaming an endless unterminated line cannot balloon memory —
    ``readline`` returns at the cap, which an honest frame never
    hits, and the oversized read raises :class:`ProtocolError`
    (the connection cannot be resynced mid-line, so callers should
    drop it)."""
    while True:
        raw = stream.readline(MAX_LINE_BYTES + 1)
        if not raw:
            return None
        if len(raw) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"frame exceeds {MAX_LINE_BYTES} bytes")
        if raw.strip():
            return raw


def submit_spec(message: dict) -> JobSpec:
    """Validate a ``submit`` request into a
    :class:`~repro.service.jobs.JobSpec`.

    ``path`` is read here, server-side; unreadable paths and every
    bad field raise :class:`ProtocolError` with a message naming the
    offender.
    """
    unknown = sorted(set(message) - SUBMIT_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown submit field(s) {', '.join(unknown)}; allowed: "
            f"{', '.join(sorted(SUBMIT_FIELDS))}")
    source = _read_source(message, "submit")
    simplify = message.get("simplify", False)
    if not isinstance(simplify, bool):
        raise ProtocolError(
            f"simplify must be a JSON boolean, got {simplify!r}")
    spec = JobSpec(
        source=source,
        analysis=message.get("analysis", "mcfa"),
        context=message.get("context", 1),
        simplify=simplify,
        report=message.get("report", "all"),
        values=message.get("values", "interned"),
        timeout=message.get("timeout"))
    try:
        return spec.validate()
    except ProtocolError:
        raise
    except ReproError as error:
        raise ProtocolError(str(error)) from None


def _read_source(message: dict, op: str) -> str:
    """The program text of a request: exactly one of ``source`` or
    ``path`` (read here, server-side)."""
    source = message.get("source")
    path = message.get("path")
    if (source is None) == (path is None):
        raise ProtocolError(
            f"{op} needs exactly one of 'source' (program text) or "
            f"'path' (a file readable by the server)")
    if path is not None:
        if not isinstance(path, str):
            raise ProtocolError(f"path must be a string, got "
                                f"{type(path).__name__}")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as error:
            raise ProtocolError(f"cannot read path {path!r}: "
                                f"{error}") from None
    return source


def submit_wants_session(message: dict) -> bool:
    """Does this (already field-checked) submit open a session?"""
    session = message.get("session", False)
    if not isinstance(session, bool):
        raise ProtocolError(
            f"session must be a JSON boolean, got {session!r}")
    return session


def _session_id_of(message: dict, op: str) -> str:
    session = message.get("session")
    if not isinstance(session, str) or not session:
        raise ProtocolError(
            f"{op} needs 'session': the id a session-opening submit "
            f"returned")
    return session


def edit_request(message: dict) -> tuple[str, str, float | None]:
    """Validate an ``edit`` request into
    ``(session_id, source, timeout)``."""
    unknown = sorted(set(message) - EDIT_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown edit field(s) {', '.join(unknown)}; allowed: "
            f"{', '.join(sorted(EDIT_FIELDS))}")
    session = _session_id_of(message, "edit")
    source = _read_source(message, "edit")
    timeout = message.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) \
                or not isinstance(timeout, (int, float)) \
                or timeout <= 0:
            raise ProtocolError(
                f"timeout must be a positive number of seconds, got "
                f"{timeout!r}")
    return session, source, timeout


def _query_target_of(message: dict) -> str | None:
    target = message.get("target")
    if target is not None \
            and (not isinstance(target, str) or not target):
        raise ProtocolError(
            f"target must be a non-empty string, got {target!r}")
    return target


def query_request(message: dict) -> tuple[str, str, str | None]:
    """Validate a *session* ``query`` request into
    ``(session_id, kind, target)``."""
    unknown = sorted(set(message) - QUERY_SESSION_FIELDS)
    if unknown:
        batch_only = sorted(set(unknown) & QUERY_FIELDS)
        if batch_only:
            raise ProtocolError(
                f"field(s) {', '.join(batch_only)} apply only to "
                f"sessionless batch queries; a session query takes "
                f"kind and target")
        raise ProtocolError(
            f"unknown query field(s) {', '.join(unknown)}; allowed: "
            f"{', '.join(sorted(QUERY_SESSION_FIELDS))}")
    session = _session_id_of(message, "query")
    kind = message.get("kind")
    target = _query_target_of(message)
    try:
        validate_query(kind, target, session=True)
    except ReproError as error:
        raise ProtocolError(str(error)) from None
    return session, kind, target


def query_job_spec(message: dict) -> JobSpec:
    """Validate a *sessionless* ``query`` request into a
    :class:`~repro.service.jobs.JobSpec` carrying the query fields.

    The analysis itself is an ordinary job (cached, coalesced,
    sharded); the pass rides on its result.
    """
    unknown = sorted(set(message) - QUERY_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown query field(s) {', '.join(unknown)}; allowed: "
            f"{', '.join(sorted(QUERY_FIELDS))}")
    kind = message.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ProtocolError(
            f"query needs 'kind'; choose from "
            f"{', '.join(BATCH_KINDS)}")
    target = _query_target_of(message)
    source = _read_source(message, "query")
    simplify = message.get("simplify", False)
    if not isinstance(simplify, bool):
        raise ProtocolError(
            f"simplify must be a JSON boolean, got {simplify!r}")
    spec = JobSpec(
        source=source,
        analysis=message.get("analysis", "mcfa"),
        context=message.get("context", 1),
        simplify=simplify,
        values=message.get("values", "interned"),
        timeout=message.get("timeout"),
        query_kind=kind,
        query_target=target)
    try:
        return spec.validate()
    except ProtocolError:
        raise
    except ReproError as error:
        raise ProtocolError(str(error)) from None


def analyses_request_language(message: dict) -> str | None:
    """Validate an ``analyses`` request; returns its language filter
    (``None`` means every registered analysis)."""
    unknown = sorted(set(message) - ANALYSES_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown analyses field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(ANALYSES_FIELDS))}")
    language = message.get("language")
    if language is None:
        return None
    if language not in ("scheme", "fj"):
        raise ProtocolError(
            f"language must be 'scheme' or 'fj', got {language!r}")
    return language
