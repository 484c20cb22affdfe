"""Stdlib client for a running :mod:`repro.service` HTTP server.

Deliberately minimal — ``urllib`` only, blocking — so scripts, the CI
smoke job, and ``repro query --server`` need no HTTP dependency.
Server-side errors surface as the same typed exceptions the in-process
service raises (429 → :class:`~repro.errors.ServiceOverloadError`,
504 → :class:`~repro.errors.DeadlineExceededError`, 405 →
:class:`~repro.errors.ServiceError`), so callers can share retry logic
between local and remote use.

Two layers:

* The one-shot functions (:func:`remote_search`, :func:`remote_healthz`,
  :func:`remote_metrics`) — one HTTP round trip, no retries.
* :class:`ResilientClient` — the production wrapper: retries with
  capped exponential backoff and **full jitter**, honoring the server's
  ``retry_after`` hint, and a **deadline budget** bounding the total
  time spent across attempts.  It keeps no health state between calls:
  a sharded deployment's replica health is the router's failover and
  down-set and the supervisor's probe and restart.  Mirrored on the
  command line by ``repro query --retries/--timeout``.
"""

from __future__ import annotations

import math
import random
import time
import urllib.error
import urllib.request
from collections.abc import Sequence

import json

from .. import faults
from ..errors import (
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from ..routing import RoutingPolicy
from .service import MIN_RETRY_AFTER

#: Smallest deadline budget (seconds) worth spending on one more
#: attempt.  A backoff sleep is clamped so at least this much budget
#: survives it; when even that much is gone — or the server's
#: ``retry_after`` hint cannot fit inside the remaining budget — the
#: retry loop raises *before* sleeping instead of burning the tail of
#: the budget on a nap it can never wake up from usefully.
MIN_ATTEMPT_BUDGET = 0.01

#: Retry backoff envelope (seconds): attempt *n* sleeps a uniform draw
#: from ``[0, min(BACKOFF_CAP, BACKOFF * 2**(n-1))]`` — full jitter.
BACKOFF = 0.1
BACKOFF_CAP = 2.0

#: Socket timeout of one attempt (seconds), before the deadline clamp.
HTTP_TIMEOUT = 30.0


def _parse_retry_after(value, default: float = 1.0) -> float:
    """A sane ``retry_after`` from an untrusted response body.

    Non-numeric values fall back to ``default`` (the error path must
    never raise ``ValueError`` itself); numeric ones clamp to at least
    :data:`~repro.service.service.MIN_RETRY_AFTER`, so a malformed,
    negative or zero hint never turns the retry loop into a busy-wait
    hammering an overloaded server.
    """
    try:
        parsed = float(value)
    except (TypeError, ValueError):
        return default
    if not math.isfinite(parsed):
        return default
    return max(MIN_RETRY_AFTER, parsed)


def _typed_http_error(code: int, message: str, body: dict) -> ReproError:
    """Map an HTTP status to this library's exception family.

    The original status travels on the ``status`` attribute so retry
    policies can distinguish server faults (5xx) from caller mistakes
    (4xx) without re-parsing messages.
    """
    error: ReproError
    if code == 429:
        error = ServiceOverloadError(
            message, retry_after=_parse_retry_after(body.get("retry_after"))
        )
    elif code == 504:
        error = DeadlineExceededError(message)
    elif code == 503:
        error = ServiceClosedError(message)
    elif code == 405:
        # e.g. a write sent to a read-only shard router: the tier, not
        # the request body, is wrong — and no retry will change that.
        error = ServiceError(message)
    else:
        error = ReproError(message)
    error.status = code
    return error


def _request(url: str, payload: dict | None = None, timeout: float = 30.0) -> dict:
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read())
        except (json.JSONDecodeError, ValueError):
            body = {}
        if not isinstance(body, dict):
            body = {}
        message = body.get("error", f"HTTP {exc.code}")
        raise _typed_http_error(exc.code, message, body) from exc
    # A 200 whose body is not a JSON object is a transport-level fault
    # (truncated proxy response, wrong endpoint, mid-restart garbage) —
    # surface it typed with a 5xx status so retry policies treat it like
    # any other server fault instead of leaking json.JSONDecodeError.
    try:
        parsed = json.loads(raw)
    except (json.JSONDecodeError, ValueError) as exc:
        error = ServiceError(f"malformed JSON body from {url}: {exc}")
        error.status = 502
        raise error from exc
    if not isinstance(parsed, dict):
        error = ServiceError(
            f"expected a JSON object from {url}, "
            f"got {type(parsed).__name__}"
        )
        error.status = 502
        raise error
    return parsed


def remote_search(
    base_url: str,
    text: str | None = None,
    *,
    token_ids: Sequence[int] | None = None,
    timeout: float | None = None,
    routing=None,
    http_timeout: float = 30.0,
) -> dict:
    """POST one query to ``{base_url}/search`` and return the reply dict.

    Exactly one of ``text`` / ``token_ids`` must be given.  ``timeout``
    is the *service-side* deadline forwarded in the request body;
    ``http_timeout`` bounds the socket.  ``routing`` (a mode string or
    a :class:`~repro.RoutingPolicy`) is the per-request routing
    override; its mode is what the body carries.
    """
    if (text is None) == (token_ids is None):
        raise ValueError("pass exactly one of text= or token_ids=")
    payload: dict = {"timeout": timeout}
    if text is not None:
        payload["text"] = text
    else:
        payload["token_ids"] = list(token_ids)
    if routing is not None:
        payload["routing"] = RoutingPolicy.from_dict(routing).mode
    return _request(f"{base_url.rstrip('/')}/search", payload, timeout=http_timeout)


def remote_healthz(base_url: str, http_timeout: float = 10.0) -> dict:
    """GET ``{base_url}/healthz``."""
    return _request(f"{base_url.rstrip('/')}/healthz", timeout=http_timeout)


def remote_metrics(base_url: str, http_timeout: float = 10.0) -> dict:
    """GET ``{base_url}/metrics`` (a MetricsRegistry snapshot envelope)."""
    return _request(f"{base_url.rstrip('/')}/metrics", timeout=http_timeout)


class ResilientClient:
    """Retrying, deadline-bounded HTTP client.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``"http://127.0.0.1:8080"``.
    retries:
        Re-attempts after the first try (``3`` = at most four round
        trips per call).  Attempt *n* sleeps a full-jitter draw under
        the :data:`BACKOFF` / :data:`BACKOFF_CAP` envelope, but never
        less than the server's clamped ``retry_after`` hint when one
        came back.
    deadline:
        Total wall-clock budget (seconds) per call across every attempt
        and backoff sleep; exceeding it raises
        :class:`~repro.errors.DeadlineExceededError` chaining the last
        transport error.  ``None`` = unbounded.  The budget is enforced
        *per attempt*, not just between them: each attempt's socket
        timeout is clamped to ``min(HTTP_TIMEOUT, remaining budget)``,
        so a single hung connection can overrun the deadline by at most
        one socket-timeout resolution — never by :data:`HTTP_TIMEOUT`
        multiples — and an attempt whose budget is already spent raises
        before sending rather than firing a doomed request.  Backoff
        sleeps are clamped the same way: a sleep never eats the budget
        slice (:data:`MIN_ATTEMPT_BUDGET`) reserved for the attempt
        after it, and when the remaining budget cannot cover another
        attempt at all — or the server's ``retry_after`` hint does not
        fit inside it — the loop raises *before* sleeping instead of
        discovering the exhausted budget on wake-up.
    rng / clock / sleep:
        Injection points for deterministic tests.

    What retries: connection-level failures (``URLError``), 5xx
    responses, and 429 overload (honoring ``retry_after``).  What does
    not: other 4xx responses (the request itself is wrong) and
    transport faults outside ``URLError`` (a read timeout, a dropped
    connection).  Each call starts afresh: ``retries=N`` sends up to
    ``N + 1`` requests, whatever earlier calls met.
    """

    def __init__(
        self,
        base_url: str,
        *,
        retries: int = 3,
        deadline: float | None = 30.0,
        rng: random.Random | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.retries = retries
        self.deadline = deadline
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self._sleep = sleep

    # ------------------------------------------------------------------
    def _delay(self, attempt: int, hint: float | None) -> float:
        """Full-jitter exponential backoff, floored by the server hint."""
        envelope = min(BACKOFF_CAP, BACKOFF * (2 ** (attempt - 1)))
        delay = self._rng.uniform(0.0, envelope)
        if hint is not None:
            delay = max(delay, hint)
        return delay

    def _call(self, send):
        """Run ``send(http_timeout)`` under the retry policy.

        ``send`` receives the per-attempt socket timeout:
        :data:`HTTP_TIMEOUT` clamped to whatever remains of the deadline
        budget, so no single attempt can sleep past the deadline.
        """
        deadline_at = (
            None if self.deadline is None else self._clock() + self.deadline
        )
        attempt = 0
        last_error: Exception | None = None
        while True:
            http_timeout = HTTP_TIMEOUT
            if deadline_at is not None:
                remaining = deadline_at - self._clock()
                if remaining <= 0:
                    raise DeadlineExceededError(
                        f"client deadline ({self.deadline}s) exhausted "
                        f"after {attempt} attempt(s): "
                        f"{last_error or 'no attempt sent'}"
                    ) from last_error
                http_timeout = min(http_timeout, remaining)
            faults.inject("client.request", attempt=attempt)
            hint: float | None = None
            try:
                return send(http_timeout)
            except ServiceOverloadError as exc:
                # The server is alive, just busy: retry after its hint.
                last_error = exc
                hint = _parse_retry_after(exc.retry_after)
            except ReproError as exc:
                status = getattr(exc, "status", None)
                if status is None or status < 500:
                    raise  # a 4xx: retrying the same bad request is futile
                last_error = exc
            except urllib.error.URLError as exc:
                last_error = ServiceError(
                    f"cannot reach {self.base_url}: {exc.reason}"
                )
                last_error.__cause__ = exc

            attempt += 1
            if attempt > self.retries:
                raise last_error
            delay = self._delay(attempt, hint)
            if deadline_at is not None:
                # Clamp the sleep so the budget left after it can still
                # fund an attempt; if even a clamped sleep cannot leave
                # that much — or honoring the server's retry_after hint
                # would overrun the budget — fail now, before sleeping.
                sleep_budget = (
                    deadline_at - self._clock() - MIN_ATTEMPT_BUDGET
                )
                if sleep_budget <= 0 or (
                    hint is not None and hint > sleep_budget
                ):
                    raise DeadlineExceededError(
                        f"client deadline ({self.deadline}s) cannot cover "
                        f"another attempt after {attempt} attempt(s): "
                        f"{last_error}"
                    ) from last_error
                delay = min(delay, sleep_budget)
            if delay > 0:
                self._sleep(delay)

    # ------------------------------------------------------------------
    def search(
        self,
        text: str | None = None,
        *,
        token_ids: Sequence[int] | None = None,
        timeout: float | None = None,
        routing=None,
    ) -> dict:
        """Resilient :func:`remote_search`.  A reply whose ``pairs`` is
        not a list of ``num_pairs`` rows is not a whole answer: it is a
        server fault (status 502), retried as one."""
        return self._call(
            lambda http_timeout: self._whole(remote_search(
                self.base_url,
                text,
                token_ids=token_ids,
                timeout=timeout,
                routing=routing,
                http_timeout=http_timeout,
            ))
        )

    def _whole(self, reply: dict) -> dict:
        pairs = reply.get("pairs")
        if not isinstance(pairs, list) or reply.get("num_pairs") != len(pairs):
            error = ServiceError(
                f"search reply from {self.base_url} is not a whole answer: "
                f"num_pairs {reply.get('num_pairs')!r}, "
                f"{len(pairs) if isinstance(pairs, list) else 'no'} pair rows"
            )
            error.status = 502
            raise error
        return reply

    def healthz(self) -> dict:
        """Resilient :func:`remote_healthz`."""
        return self._call(
            lambda http_timeout: remote_healthz(
                self.base_url, http_timeout=http_timeout
            )
        )

    def metrics(self) -> dict:
        """Resilient :func:`remote_metrics`."""
        return self._call(
            lambda http_timeout: remote_metrics(
                self.base_url, http_timeout=http_timeout
            )
        )

    def __repr__(self) -> str:
        return (
            f"ResilientClient({self.base_url!r}, retries={self.retries}, "
            f"deadline={self.deadline})"
        )
