"""A stdlib HTTP front-end for :class:`~repro.api.service.InferenceService`.

No third-party web framework: ``http.server.ThreadingHTTPServer`` carries
the JSON wire format of :mod:`repro.api.service` for batch traffic, plus
the async job surface of :mod:`repro.jobs` for long-running derivations.

Routes::

    GET  /v1/health                 liveness + registered models/databases
    POST /v1/learn                  LearnRequest   -> LearnResponse
    POST /v1/derive                 DeriveRequest  -> DeriveResponse
    POST /v1/derive?mode=async      DeriveRequest  -> {"job_id", "state"}
    POST /v1/update                 UpdateRequest  -> UpdateResponse
    POST /v1/update?mode=async      UpdateRequest  -> {"job_id", "state"}
    POST /v1/infer                  InferRequest   -> InferResponse
    POST /v1/query                  QueryRequest   -> QueryResponse
    GET  /v1/jobs/{id}              job status + shard-aware progress
    GET  /v1/jobs/{id}/result       the finished job's DeriveResponse
                                    (byte-identical to the blocking body)
    POST /v1/jobs/{id}/cancel       cooperative cancellation
    GET  /v1/jobs/{id}/events       chunked ndjson shard-completion stream
                                    (?after=N resumes, ?timeout=S bounds it,
                                    ?heartbeat=S sets the keepalive cadence —
                                    0 disables; default 15s idle)

Errors come back as ``{"error": {"status": ..., "message": ...}}`` with the
matching HTTP status — including malformed request bodies (bad JSON,
non-UTF-8 bytes, an unparsable Content-Length), which are structured 400s,
never tracebacks; a body over ``MAX_BODY_BYTES`` is a 413.  Start a server
with ``repro serve`` on the CLI, or programmatically::

    server = make_server(InferenceService(session), port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
"""

from __future__ import annotations

import json
import math
import socket
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterable
from urllib.parse import parse_qs, urlsplit

from .service import InferenceService, ServiceError, encode_json

__all__ = ["API_PREFIX", "make_server", "serve"]

API_PREFIX = "/v1/"

#: Upper bound on how long an idle ``/events`` stream waits for news.
DEFAULT_EVENTS_TIMEOUT = 300.0

#: Default idle interval between ``/events`` keepalive heartbeats.
DEFAULT_EVENTS_HEARTBEAT = 15.0

#: Largest request body read (64 MiB): a longer Content-Length is a 413
#: before any of the body is read.
MAX_BODY_BYTES = 64 << 20

#: Bounds on reading and discarding an undrained request body after an
#: error response, before the connection closes (see ``_linger``).
LINGER_BYTES = 1 << 20
LINGER_SECONDS = 2.0


class _ServiceHandler(BaseHTTPRequestHandler):
    """Maps HTTP verbs onto ``InferenceService.handle_json`` + job routes."""

    #: bound by :func:`make_server` on the per-server subclass
    service: InferenceService
    quiet: bool = True
    server_version = "repro-serve/1.1"
    protocol_version = "HTTP/1.1"
    # A response leaves in two sends (head, then body; /events in chunks).
    # With Nagle on, the second waits for the client's delayed ACK of the
    # first: a ~40 ms stall per keep-alive response.  TCP_NODELAY on every
    # accepted socket sends each write at once.
    disable_nagle_algorithm = True
    #: set when an error is answered before the request body was drained
    _undrained = False

    def log_message(self, format: str, *args) -> None:
        if not self.quiet:
            super().log_message(format, *args)

    # -- request plumbing ----------------------------------------------------

    def _route(self) -> tuple[list[str], dict[str, str]]:
        """Path segments under the API prefix plus single-valued query args."""
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/")
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        prefix = API_PREFIX.rstrip("/") + "/"
        if not path.startswith(prefix):
            return [], query
        return [seg for seg in path[len(prefix):].split("/") if seg], query

    def _drain_body(self) -> bytes:
        """Read (and thereby drain) the request body off the socket.

        Draining must happen before *any* response on a keep-alive
        connection — unread body bytes would be parsed as the start of the
        client's next request.
        """
        encoding = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" in encoding:
            # No Content-Length to drain by; refuse and drop the
            # connection rather than desync on the unread chunks.
            self.close_connection = self._undrained = True
            raise ServiceError(
                "chunked request bodies are not supported; "
                "send a Content-Length",
                status=411,
            )
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # Cannot know how much to drain; the connection is unusable
            # past this request, so close it after responding.
            self.close_connection = self._undrained = True
            raise ServiceError("Content-Length header is not an integer") from None
        if length > MAX_BODY_BYTES:
            self.close_connection = self._undrained = True
            raise ServiceError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
                status=413,
            )
        return self.rfile.read(length) if length > 0 else b"{}"

    @staticmethod
    def _parse_json(raw: bytes) -> Any:
        """Parse a drained body; every malformation is a structured 400."""
        try:
            text = raw.decode("utf-8") or "{}"
        except UnicodeDecodeError as exc:
            raise ServiceError(
                f"request body is not valid UTF-8: {exc}"
            ) from exc
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"request body is not valid JSON: {exc}"
            ) from exc

    def _respond(self, status: int, body: dict | bytes) -> None:
        """Send ``body`` as JSON; bytes are taken as already-encoded JSON."""
        data = body if isinstance(body, bytes) else encode_json(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if self._undrained:
            self._linger()

    def _linger(self) -> None:
        """Close gracefully after answering before the body was drained.

        Closing a socket with unread bytes makes the kernel send a reset,
        which can reach a client still sending its body before it has read
        the response (a ``BrokenPipeError`` instead of the 411).  Instead:
        send the response and a FIN, then read and discard what the client
        still sends until it closes, up to ``LINGER_BYTES`` and
        ``LINGER_SECONDS``.
        """
        deadline = time.monotonic() + LINGER_SECONDS
        left = LINGER_BYTES
        try:
            self.wfile.flush()
            self.connection.shutdown(socket.SHUT_WR)
            while left > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self.connection.settimeout(remaining)
                chunk = self.connection.recv(min(left, 65536))
                if not chunk:
                    break
                left -= len(chunk)
        except OSError:  # reset, timeout, or already closed: stop lingering
            pass

    def _respond_stream(self, events: Iterable[dict]) -> None:
        """Chunked ndjson: one JSON event per line, as each shard lands."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for event in events:
                data = (json.dumps(event) + "\n").encode("utf-8")
                self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
                self.wfile.write(data + b"\r\n")
                self.wfile.flush()
        except Exception:
            # The status line is gone; a second response head would corrupt
            # the stream.  Abort the connection so the client sees a
            # truncated chunked body, not a fake clean end.
            self.close_connection = True
            return
        self.wfile.write(b"0\r\n\r\n")

    def _not_found(self, hint: str) -> None:
        self._respond(404, ServiceError(hint, 404).to_dict())

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        segments, query = self._route()
        try:
            if segments == ["health"]:
                self._respond(200, self.service.handle_json("health", {}))
            elif len(segments) == 2 and segments[0] == "jobs":
                self._respond(200, self.service.job_status(segments[1]))
            elif len(segments) == 3 and segments[0] == "jobs":
                job_id, tail = segments[1], segments[2]
                if tail == "result":
                    self._respond(200, self.service.job_result_json(job_id))
                elif tail == "events":
                    try:
                        after = int(query.get("after", 0))
                        timeout = float(
                            query.get("timeout", DEFAULT_EVENTS_TIMEOUT)
                        )
                        heartbeat = float(
                            query.get("heartbeat", DEFAULT_EVENTS_HEARTBEAT)
                        )
                    except ValueError:
                        raise ServiceError(
                            "'after' must be an integer, 'timeout' and "
                            "'heartbeat' numbers"
                        ) from None
                    if math.isnan(timeout) or math.isnan(heartbeat):
                        raise ServiceError(
                            "'timeout' and 'heartbeat' must be numbers"
                        )
                    # The documented ceiling is a real bound: an idle
                    # stream never pins a handler thread longer than this.
                    timeout = min(max(0.0, timeout), DEFAULT_EVENTS_TIMEOUT)
                    # heartbeat=0 disables keepalives; a positive value is
                    # clamped to at least 1s so a client cannot busy-spin a
                    # handler thread.
                    hb = None if heartbeat <= 0 else max(1.0, heartbeat)
                    events = self.service.job_events(
                        job_id, after=after, timeout=timeout, heartbeat=hb
                    )
                    self._respond_stream(events)
                else:
                    self._not_found(
                        f"unknown job endpoint {tail!r}; "
                        "try /result, /events, or POST /cancel"
                    )
            else:
                self._not_found(
                    "not found; try GET /v1/health or GET /v1/jobs/{id}"
                )
        except ServiceError as exc:
            self._respond(exc.status, exc.to_dict())
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass
        except Exception as exc:  # don't let one request kill the server
            error = ServiceError(f"internal error: {exc}", status=500)
            self._respond(error.status, error.to_dict())

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        segments, query = self._route()
        try:
            raw = self._drain_body()  # always, before any response
            if not segments:
                raise ServiceError(
                    f"not found; endpoints live under {API_PREFIX}", 404
                )
            if segments[0] == "jobs":
                if len(segments) == 3 and segments[2] == "cancel":
                    self._parse_json(raw)  # validate any body
                    self._respond(200, self.service.job_cancel(segments[1]))
                    return
                raise ServiceError(
                    "unknown job action; try POST /v1/jobs/{id}/cancel", 404
                )
            if len(segments) != 1:
                raise ServiceError(
                    f"not found; endpoints live under {API_PREFIX}", 404
                )
            endpoint = segments[0]
            mode = query.get("mode")
            if endpoint in ("derive", "update") and mode is not None:
                if mode != "async":
                    raise ServiceError(
                        f"unknown mode {mode!r}; the only mode is 'async'"
                    )
                endpoint = f"{endpoint}_async"
            payload = self._parse_json(raw)
            self._respond(200, self.service.handle_json(endpoint, payload))
        except ServiceError as exc:
            self._respond(exc.status, exc.to_dict())
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass
        except Exception as exc:  # don't let one request kill the server
            error = ServiceError(f"internal error: {exc}", status=500)
            self._respond(error.status, error.to_dict())


def make_server(
    service: InferenceService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """Build (but do not start) a threaded HTTP server for ``service``.

    ``port=0`` picks a free port — read it back from
    ``server.server_address[1]``.
    """
    handler = type(
        "BoundServiceHandler",
        (_ServiceHandler,),
        {"service": service, "quiet": quiet},
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(
    service: InferenceService,
    host: str = "127.0.0.1",
    port: int = 8642,
    quiet: bool = False,
) -> None:
    """Serve forever (until KeyboardInterrupt); the ``repro serve`` loop."""
    server = make_server(service, host=host, port=port, quiet=quiet)
    actual_port = server.server_address[1]
    print(
        f"repro serve: listening on http://{host}:{actual_port}{API_PREFIX} "
        f"(models: {list(service.session.models) or '-'}, "
        f"databases: {list(service.session.databases) or '-'})",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.jobs.close(wait=False)
