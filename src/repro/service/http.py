"""Stdlib HTTP front-end for :class:`~repro.service.SearchService`.

A :class:`http.server.ThreadingHTTPServer` (one thread per connection,
all feeding the service's bounded admission queue) with three
endpoints:

``POST /search``
    JSON body ``{"text": "..."}`` or ``{"token_ids": [...]}`` plus an
    optional ``"timeout"`` (seconds) and an optional ``"routing"``
    (``"off"``/``"exact"``, or a :meth:`~repro.RoutingPolicy.to_dict`
    object, ``{"mode": ...}``) overriding the serving
    index's routing mode per request.  A non-numeric ``timeout``,
    token ids outside signed 64 bits, an unknown routing mode or
    field, and a body that is not JSON text (undecodable bytes, nesting
    past the recursion limit) answer ``400`` before the service is
    called; a body over :data:`MAX_BODY_BYTES` answers ``413`` and
    closes the connection (it is never read), and a query of more than
    :data:`MAX_QUERY_TOKENS` tokens answers ``413`` unsearched.
    ``GET /search?q=...`` accepts
    the same query as a URL parameter for curl-friendliness.  Replies
    ``{"pairs": [[doc_id, data_start, query_start, overlap], ...],
    "num_pairs": N, "cached": bool, "seconds": s, "index_epoch": e}``.
    When the service is a :class:`~repro.service.router.ShardRouter`
    and some shards failed, the reply additionally carries
    ``"partial": true`` and ``"failures": [QueryFailure dicts]`` —
    the pairs cover the shards that answered.  Overload maps to ``429``
    with a ``Retry-After`` header; a missed deadline maps to ``504``.
    ``pairs`` is the body's last member, spliced in as bytes: the
    response's :class:`~repro.service.cache.ResultEntry` keeps its
    encoding, so a cache hit (service or router) is not encoded again.
``POST /ingest``
    JSON body ``{"text": "...", "name": "optional"}``: add one document
    through the service's LSM write path (upgrading a read-only
    searcher to a live tiered view on the first call).  A document of
    more than :data:`MAX_QUERY_TOKENS` tokens answers ``413``, unlogged
    and uninterned.  Replies
    ``{"doc_id": N, "index_epoch": e}``; the document is searchable as
    soon as the reply is sent.
``POST /remove``
    JSON body ``{"doc_id": N}``: tombstone one document.  Unknown ids
    map to ``404``.  A :class:`~repro.service.router.ShardRouter` is a
    read path only: behind one, ``/ingest`` and ``/remove`` answer
    ``405`` with a JSON error (writes go to ``repro serve --live``).
``GET /healthz``
    Liveness and index state (documents, epoch, queue depth, uptime,
    plus an ``ingest`` block — memtable size, segment count,
    tombstones — once the write path is live).
``GET /metrics``
    The service's :class:`~repro.obs.MetricsRegistry` snapshot —
    request-latency timers, queue-depth gauges, cache hit/miss
    counters, and the searcher's accumulated phase stats — in the same
    envelope the CLI's ``--metrics-out`` writes, so two serving runs
    of one workload diff counter for counter.

The door keeps the stdlib server's semantics without three of its
costs, which were most of a cache hit:

* **Handler threads are reused.**  A thread that finishes a connection
  waits for the next one; a connection that finds no idle thread gets a
  new one, so concurrency still equals the number of open connections
  (no cap: the service's admission queue answers ``429``).
  :meth:`~ServiceHTTPServer.server_close` ends the idle threads; a busy
  one exits when its connection ends.
* **The request head is split by hand**, not by ``email.feedparser``,
  with the stdlib's answers: ``400`` bad syntax (HTTP/0.9 included),
  ``505`` HTTP/2 and later, ``414`` a request line over 64 KiB, ``431``
  more than 100 headers or a header line over 64 KiB, and its
  ``Connection`` / ``Expect: 100-continue`` handling.  An obs-fold
  continuation line and two different ``Content-Length`` values also
  answer ``400``.  Every error the door itself raises is JSON and
  closes the connection.
* **A reply is one write**: status line, headers and body.

A connection that stalls for :attr:`ServiceRequestHandler.timeout`
seconds in one read or write (a head or body never finished, a reply
never read) is closed.

The server binds but does not accept until :py:meth:`serve_forever`
runs; use :func:`serve_http` for the common blocking case or drive the
returned server from your own thread (as the tests do).
"""

from __future__ import annotations

import json
import queue
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..errors import (
    ConfigurationError,
    DeadlineExceededError,
    FaultInjectionError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from ..routing import RoutingPolicy
from .router import ShardRouter
from .service import SearchService

#: Largest accepted /search request body, in bytes (64 MiB): a query
#: document is token text, not a corpus; anything bigger is a mistake.
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Longest accepted /search query or /ingest document, in tokens
#: (2**20): 64 MiB of one-character tokens would be ~3e7 windows.
MAX_QUERY_TOKENS = 2**20

# The stdlib's limits on a request head (http.client._MAXLINE / _MAXHEADERS).
_MAX_LINE = 65536
_MAX_HEADERS = 100
# As the stdlib: a version number part of more than 10 digits is a 400.
_HTTP_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})")
_HEADER_NAME = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+")


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP verbs/paths onto one :class:`SearchService`."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"
    # A ``100 Continue`` and its reply are two writes; with Nagle on, the
    # second would wait ~40 ms for the client's delayed ACK.
    disable_nagle_algorithm = True
    #: Seconds a connection may stall in one read or write before it is
    #: closed (``handle_one_request`` turns the ``TimeoutError`` into a
    #: closed connection, and the thread goes back to idle).
    timeout = 30

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """Split the request line and headers read from ``rfile``.

        ``self.headers`` is a dict keyed by the lower-cased header name
        (a repeated header keeps its first value).  Returns False once
        an error reply is sent, or for an empty request line.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        version = _HTTP_VERSION.fullmatch(words[-1]) if len(words) == 3 else None
        if version is None:
            self.send_error(400, f"bad request line {requestline!r}")
            return False
        version = int(version[1]), int(version[2])
        if version >= (2, 0):
            self.send_error(505, f"{words[-1]} is not supported")
            return False
        self.command, path, self.request_version = words
        # As the stdlib does: '//x' would read as a scheme-less absolute URI.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        self.close_connection = version < (1, 1)

        headers: dict[str, str] = {}
        count = 0
        while True:
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, f"header line over {_MAX_LINE} bytes")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > _MAX_HEADERS:
                self.send_error(431, f"more than {_MAX_HEADERS} headers")
                return False
            name, colon, value = line.partition(b":")
            if not colon or not _HEADER_NAME.fullmatch(name):
                # Also an obs-fold line (leading space or tab), which the
                # email parser glued to the header before it.
                self.send_error(400, f"bad header line {line[:80]!r}")
                return False
            key = name.decode("ascii").lower()
            value = value.strip().decode("iso-8859-1")
            if headers.setdefault(key, value) != value and key == "content-length":
                self.send_error(400, "two different Content-Length values")
                return False
        self.headers = headers

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and version >= (1, 1)
        ):
            return self.handle_expect_100()
        return True

    def send_error(self, code, message=None, explain=None) -> None:
        """Every error the stdlib or :meth:`parse_request` raises is a
        JSON reply that closes the connection."""
        self.close_connection = True
        self._reply_error(int(code), message or self.responses[code][0])

    def _reply(
        self, status: int, payload: dict, headers: dict | None = None,
        pairs_json: bytes | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        if pairs_json is not None:  # spliced in as the last member
            body = body[:-1] + b', "pairs": ' + pairs_json + b"}"
        reason = self.responses[status][0] if status in self.responses else ""
        head = (
            f"{self.protocol_version} {status} {reason}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)
        if self.server.verbose:
            self.log_request(status, len(body))

    def _reply_error(self, status: int, message: str, **extra) -> None:
        headers = extra.pop("headers", None)
        self._reply(status, {"error": message, **extra}, headers=headers)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib API)
        url = urlparse(self.path)
        if url.path == "/healthz":
            health = self.server.service.healthz()
            # ``degraded`` means the node is still answering queries
            # (some shards/replicas down, partial results served): it
            # must stay 200 so load balancers do not eject a node that
            # is the last one serving.  503 is reserved for ``down`` /
            # ``closed`` — states where no query can be answered.
            status = 200 if health["status"] in ("ok", "degraded") else 503
            self._reply(status, health)
        elif url.path == "/metrics":
            self._reply(200, self.server.service.metrics_snapshot())
        elif url.path == "/search":
            query = parse_qs(url.query)
            text = query.get("q", [None])[0]
            if text is None:
                self._reply_error(400, "missing query parameter 'q'")
                return
            timeout = query.get("timeout", [None])[0]
            try:
                timeout = float(timeout) if timeout else None
            except ValueError:
                self._reply_error(400, "'timeout' must be a number of seconds")
                return
            self._search({"text": text, "timeout": timeout})
        else:
            self._reply_error(404, f"unknown path {url.path!r}")

    def do_POST(self) -> None:  # noqa: N802 (stdlib API)
        url = urlparse(self.path)
        if url.path not in ("/search", "/ingest", "/remove"):
            self._reply_error(404, f"unknown path {url.path!r}")
            return
        try:
            length = int(self.headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # The body cannot be framed, so the connection cannot be reused.
            self.close_connection = True
            self._reply_error(400, "bad Content-Length")
            return
        if length > MAX_BODY_BYTES:
            # Unread, the body would be parsed as the next request.
            self.close_connection = True
            self._reply_error(413, f"request body over {MAX_BODY_BYTES} bytes")
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, undecodable bytes, nesting past the limit.
            self._reply_error(400, f"invalid JSON body: {exc}")
            return
        if not isinstance(payload, dict):
            self._reply_error(400, "JSON body must be an object")
            return
        if url.path == "/search":
            self._search(payload)
        elif isinstance(self.server.service, ShardRouter):
            self._reply_error(
                405,
                f"{url.path} is not served by a shard router (read-only); "
                "send writes to a single live index: repro serve --live",
                headers={"Allow": ""},
            )
        elif url.path == "/ingest":
            self._ingest(payload)
        else:
            self._remove(payload)

    def _ingest(self, payload: dict) -> None:
        service = self.server.service
        text = payload.get("text")
        if not isinstance(text, str):
            self._reply_error(400, "body needs a string 'text'")
            return
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            self._reply_error(400, "'name' must be a string")
            return
        data = service.data
        if data is not None:
            # Counted before the WAL or the vocabulary sees the text; the
            # store tokenizes it again (its WAL record carries the text).
            length = len(data.tokenizer.tokenize(text))
            if length > MAX_QUERY_TOKENS:
                self._reply_error(
                    413, f"document of {length} tokens is over {MAX_QUERY_TOKENS}"
                )
                return
        try:
            doc_id = service.add(text, name=name)
        except ServiceClosedError as exc:
            self._reply_error(503, str(exc))
            return
        except ReproError as exc:
            self._reply_error(400, str(exc))
            return
        self._reply(
            200, {"doc_id": doc_id, "index_epoch": service.index_epoch}
        )

    def _remove(self, payload: dict) -> None:
        service = self.server.service
        doc_id = payload.get("doc_id")
        if not isinstance(doc_id, int) or isinstance(doc_id, bool):
            self._reply_error(400, "body needs an integer 'doc_id'")
            return
        try:
            service.remove(doc_id)
        except ServiceClosedError as exc:
            self._reply_error(503, str(exc))
            return
        except IndexError as exc:
            self._reply_error(404, str(exc))
            return
        except ReproError as exc:
            self._reply_error(400, str(exc))
            return
        self._reply(
            200, {"removed": doc_id, "index_epoch": service.index_epoch}
        )

    # ------------------------------------------------------------------
    def _query(self, payload: dict):
        """The query ``Document`` of a /search body, or None once a 400
        is sent.  Text is encoded here, once, so that its length can be
        checked before the service sees it."""
        from ..corpus import Document

        if payload.get("text") is not None:
            data = self.server.service.data
            if data is None:
                self._reply_error(
                    400, "this server holds no document collection to "
                    "encode 'text'; send 'token_ids'"
                )
                return None
            try:
                return data.encode_query(str(payload["text"]))
            except ReproError as exc:
                self._reply_error(400, str(exc))
                return None
        token_ids = payload.get("token_ids")
        if token_ids is None:
            self._reply_error(400, "body needs 'text' or 'token_ids'")
            return None
        if not isinstance(token_ids, list) or not all(
            isinstance(token, int)
            and not isinstance(token, bool)
            and -(2**63) <= token < 2**63
            for token in token_ids
        ):
            self._reply_error(400, "'token_ids' must be a list of 64-bit ints")
            return None
        return Document(-1, token_ids, name="http-query")

    def _search(self, payload: dict) -> None:
        service = self.server.service
        timeout = payload.get("timeout")
        if timeout is not None and not isinstance(timeout, (int, float)):
            self._reply_error(400, "'timeout' must be a number of seconds")
            return
        routing = payload.get("routing")
        if routing is not None:
            try:
                routing = RoutingPolicy.from_dict(routing).mode
            except ConfigurationError as exc:
                self._reply_error(400, str(exc))
                return
        query = self._query(payload)
        if query is None:
            return
        if len(query.tokens) > MAX_QUERY_TOKENS:
            self._reply_error(
                413,
                f"query of {len(query.tokens)} tokens is over "
                f"{MAX_QUERY_TOKENS}",
            )
            return
        try:
            response = service.search(query, timeout=timeout, routing=routing)
        except ServiceOverloadError as exc:
            self._reply_error(
                429,
                str(exc),
                retry_after=exc.retry_after,
                headers={"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
            return
        except DeadlineExceededError as exc:
            self._reply_error(504, str(exc))
            return
        except ServiceClosedError as exc:
            self._reply_error(503, str(exc))
            return
        except FaultInjectionError as exc:
            # An injected fault models a server-side crash mid-request:
            # surface it as 500 so resilient clients treat it as
            # retryable (unlike the caller-mistake 400s below).
            self._reply_error(500, str(exc))
            return
        except ServiceError as exc:
            # e.g. a shard router with every shard down: the request
            # was fine, the backend tier is not — retryable 503.
            extra = {}
            failures = getattr(exc, "failures", None)
            if failures:
                extra["failures"] = [failure.to_dict() for failure in failures]
            self._reply_error(503, str(exc), **extra)
            return
        except ReproError as exc:
            self._reply_error(400, str(exc))
            return
        entry = response.entry
        if entry.pairs_json is None:
            # Once per entry: a later cache hit is written from these bytes.
            entry.pairs_json = json.dumps(
                entry.pairs, separators=(",", ":")
            ).encode("utf-8")
        reply = {
            "num_pairs": len(response.pairs),
            "cached": response.cached,
            "seconds": response.seconds,
            "index_epoch": response.index_epoch,
        }
        failures = getattr(response, "failures", None)
        if failures:
            reply["partial"] = True
            reply["failures"] = [failure.to_dict() for failure in failures]
        self._reply(200, reply, pairs_json=entry.pairs_json)


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`SearchService`.

    A :class:`~repro.service.router.ShardRouter` (``search`` /
    ``data`` / ``healthz`` / ``metrics_snapshot``) is fronted
    the same way: N shard workers behind the same three read endpoints,
    the two write endpoints refused with ``405``.

    A handler thread serves one connection at a time and, when it ends,
    waits on an inbox of its own for the next (see the module notes).

    ``port=0`` binds an OS-assigned ephemeral port; read the final
    address from :attr:`server_address`.
    """

    def __init__(
        self,
        service: SearchService | ShardRouter,
        host: str = "127.0.0.1",
        port: int = 8080,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self._idle: list[queue.SimpleQueue] = []  # inboxes of idle threads
        self._idle_lock = threading.Lock()
        self._closed = False
        super().__init__((host, port), ServiceRequestHandler)

    @property
    def url(self) -> str:
        """Base URL of the bound address (http://host:port)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request, client_address) -> None:
        """Hand the connection to an idle handler thread, or start one."""
        with self._idle_lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is not None:
            inbox.put((request, client_address))
            return
        threading.Thread(
            target=self._handler_loop,
            args=(request, client_address),
            name=f"http-handler-{self.server_address[1]}",
            daemon=True,
        ).start()

    def _handler_loop(self, request, client_address) -> None:
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        while True:
            # finish_request, handle_error on a raise, shutdown_request.
            self.process_request_thread(request, client_address)
            with self._idle_lock:
                if self._closed:
                    return
                self._idle.append(inbox)
            handoff = inbox.get()
            if handoff is None:  # server_close
                return
            request, client_address = handoff

    def server_close(self) -> None:
        """Close the socket and end the idle handler threads; a busy
        one exits when its connection ends."""
        super().server_close()
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)


def serve_http(
    service: SearchService | ShardRouter,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Bind a :class:`ServiceHTTPServer`; caller runs ``serve_forever``.

    Returned unstarted so callers control the serving thread (the CLI
    blocks on it; tests run it in a daemon thread).
    """
    return ServiceHTTPServer(service, host=host, port=port, verbose=verbose)
