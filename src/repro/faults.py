"""Deterministic fault injection for robustness testing.

Production failures — a worker process OOM-killed mid-chunk, a snapshot
truncated by a full disk, a flapping network between client and server —
are rare, non-deterministic, and therefore untestable unless the system
can *manufacture* them on demand.  This module is the single switchboard
for that: named **injection points** threaded through the parallel
workers, the persistence layer, and the serving path, all off by
default, all driven by one seedable, process-safe :class:`FaultPlan`.

Design constraints, in order:

* **Measured-zero disabled path.**  Every injection site is one call to
  :func:`inject` (or :func:`inject_bytes`); with no plan installed that
  call is a module-global load, an ``is None`` test, and a return.
* **Determinism.**  A plan is a list of :class:`FaultSpec` rules; a rule
  fires based on the injection point's name, an equality ``match`` on
  the site's context (chunk index, query position, section name...), a
  per-point hit counter, and — when ``probability < 1`` — a pseudo
  random draw derived purely from ``(plan seed, rule id, hit index)``.
  Two runs of the same plan over the same workload inject the same
  faults.
* **Process safety.**  Plans travel into pool workers (inherited under
  ``fork``, re-installed by the pool initializer under ``spawn``, or
  picked up from the ``REPRO_FAULTS`` environment variable by any
  subprocess).  Rules with ``max_triggers`` bound their firings *across
  processes* through a filesystem ledger: each firing atomically claims
  one slot file (``O_CREAT | O_EXCL``), so "kill exactly one worker"
  means exactly one even when four processes race through the site.

Fault kinds:

``raise``
    Raise :class:`~repro.errors.FaultInjectionError` naming the point.
``delay``
    Sleep ``delay_seconds`` (latency/timeout testing).
``corrupt``
    Only at :func:`inject_bytes` sites: flip one deterministically
    chosen byte of the payload (disk corruption testing).
``kill``
    ``os._exit(KILL_EXIT_CODE)`` — an abrupt worker death that skips
    ``finally`` blocks and pool bookkeeping, exactly like a SIGKILL.

Injection-point catalog (see ``docs/robustness.md`` for semantics):
``parallel.worker.chunk`` (context ``kind`` = ``search`` /
``selfjoin``), ``parallel.worker.query``,
``parallel.worker.document``, ``persistence.write``,
``persistence.read``, ``service.request``, ``client.request``,
``shards.scatter`` (router → shard sub-request, context ``shard``,
``replica``), ``shards.failover`` (before a failover sub-request to
the next replica of a failed shard, context ``shard``, ``replica``),
``supervisor.restart`` (before respawning a dead shard worker, context
``shard``, ``replica``), ``supervisor.readmit`` (before the restarted
worker's health + generation gate, context ``shard``, ``replica``),
``ingest.wal`` (write-ahead-log append, ``inject_bytes`` site — reach
it with ``corrupt`` for torn/damaged tails; context ``seq``, ``op``,
``generation``), ``ingest.compact`` (memtable fold / segment write /
manifest install, context ``phase`` in ``fold`` | ``segment`` |
``manifest`` plus ``generation`` — ``kill`` here simulates dying
mid-compaction for recovery tests).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigurationError, FaultInjectionError

#: Exit code of a ``kill`` fault — distinctive in pool crash reports.
KILL_EXIT_CODE = 87

#: Environment variable naming a JSON plan file; any process (including
#: spawn-started pool workers and CLI subprocesses) picks it up lazily.
PLAN_ENV_VAR = "REPRO_FAULTS"

_KINDS = ("raise", "delay", "corrupt", "kill")


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *where* it applies and *what* it does.

    Parameters
    ----------
    point:
        Injection-point name the rule listens on.
    kind:
        One of ``raise`` / ``delay`` / ``corrupt`` / ``kill``.
    match:
        Equality constraints on the site's context kwargs; the rule
        applies only when every listed key is present with that value
        (e.g. ``{"chunk_index": 2}`` or ``{"section": "searcher"}``).
    max_triggers:
        Total firings allowed (``None`` = unlimited).  With a plan
        ledger the bound holds across processes; without one it is
        per process.
    probability:
        Chance of firing per eligible hit, drawn deterministically from
        the plan seed, the rule id, and the hit index.
    delay_seconds:
        Sleep length for ``delay`` rules.
    message:
        Extra text carried by the raised error (``raise`` rules).
    """

    point: str
    kind: str
    match: dict = field(default_factory=dict)
    max_triggers: int | None = None
    probability: float = 1.0
    delay_seconds: float = 0.01
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} (have: {', '.join(_KINDS)})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.max_triggers is not None and self.max_triggers < 1:
            raise ConfigurationError(
                f"max_triggers must be >= 1 or None, got {self.max_triggers}"
            )

    def matches(self, context: dict) -> bool:
        """True when every ``match`` constraint holds in ``context``."""
        return all(context.get(key) == value for key, value in self.match.items())


class FaultPlan:
    """A seedable set of :class:`FaultSpec` rules, installable globally.

    ``ledger`` is a directory used to enforce ``max_triggers`` across
    processes (created on demand); omit it for single-process plans.
    The plan pickles cleanly (hit counters are per-process runtime state
    and reset in the receiving process).
    """

    def __init__(
        self,
        specs: list[FaultSpec] | tuple[FaultSpec, ...] = (),
        *,
        seed: int = 0,
        ledger: str | Path | None = None,
    ) -> None:
        self.specs = list(specs)
        self.seed = seed
        self.ledger = Path(ledger) if ledger is not None else None
        self._hits: dict[str, int] = {}
        self._local_claims: dict[int, int] = {}

    # -- pickling: runtime counters never travel between processes -----
    def __getstate__(self) -> dict:
        return {"specs": self.specs, "seed": self.seed, "ledger": self.ledger}

    def __setstate__(self, state: dict) -> None:
        self.specs = state["specs"]
        self.seed = state["seed"]
        self.ledger = state["ledger"]
        self._hits = {}
        self._local_claims = {}

    # ------------------------------------------------------------------
    def _claim(self, spec_index: int, spec: FaultSpec) -> bool:
        """Reserve one firing of ``spec``; False when exhausted."""
        if spec.max_triggers is None:
            return True
        if self.ledger is None:
            used = self._local_claims.get(spec_index, 0)
            if used >= spec.max_triggers:
                return False
            self._local_claims[spec_index] = used + 1
            return True
        self.ledger.mkdir(parents=True, exist_ok=True)
        safe_point = spec.point.replace("/", "_")
        for slot in range(spec.max_triggers):
            slot_path = self.ledger / f"{safe_point}.{spec_index}.{slot}"
            try:
                fd = os.open(str(slot_path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.write(fd, str(os.getpid()).encode("ascii"))
            os.close(fd)
            return True
        return False

    def _draw(self, spec_index: int, hit: int) -> float:
        """Deterministic pseudo-random draw for probabilistic rules."""
        return random.Random(f"{self.seed}:{spec_index}:{hit}").random()

    def fire(self, point: str, context: dict, data: bytes | None = None):
        """Apply the first matching, claimable rule at ``point``.

        Returns the (possibly corrupted) ``data`` so byte sites can use
        the return value; non-byte sites ignore it.
        """
        hit = self._hits.get(point, 0)
        self._hits[point] = hit + 1
        for spec_index, spec in enumerate(self.specs):
            if spec.point != point or not spec.matches(context):
                continue
            if spec.probability < 1.0 and self._draw(spec_index, hit) >= spec.probability:
                continue
            if spec.kind == "corrupt" and data is None:
                continue  # corrupt rules only apply at byte sites
            if not self._claim(spec_index, spec):
                continue
            if spec.kind == "raise":
                detail = f" ({spec.message})" if spec.message else ""
                raise FaultInjectionError(
                    f"injected fault at {point!r}{detail}", point=point
                )
            if spec.kind == "delay":
                time.sleep(spec.delay_seconds)
            elif spec.kind == "kill":
                os._exit(KILL_EXIT_CODE)
            elif spec.kind == "corrupt":
                data = corrupt_bytes(data, seed=self.seed, salt=f"{spec_index}:{hit}")
        return data

    # ------------------------------------------------------------------
    # Serialization (CI plans, spawn transport by file)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ledger": str(self.ledger) if self.ledger is not None else None,
            "specs": [asdict(spec) for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict) or "specs" not in payload:
            raise ConfigurationError("fault plan must be a dict with a 'specs' list")
        specs = [FaultSpec(**spec) for spec in payload["specs"]]
        return cls(
            specs, seed=payload.get("seed", 0), ledger=payload.get("ledger")
        )

    def to_json_file(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "FaultPlan":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read fault plan {path}: {exc}") from exc
        return cls.from_dict(payload)

    def __repr__(self) -> str:
        return (
            f"FaultPlan({len(self.specs)} specs, seed={self.seed}, "
            f"ledger={self.ledger})"
        )


def corrupt_bytes(data: bytes, *, seed: int = 0, salt: str = "0") -> bytes:
    """Flip one deterministically chosen byte of ``data``."""
    if not data:
        return data
    digest = hashlib.blake2b(f"{seed}:{salt}".encode("ascii"), digest_size=4)
    offset = int.from_bytes(digest.digest(), "big") % len(data)
    corrupted = bytearray(data)
    corrupted[offset] ^= 0xFF
    return bytes(corrupted)


# ----------------------------------------------------------------------
# Global installation (the switchboard the injection sites consult)
# ----------------------------------------------------------------------
_PLAN: FaultPlan | None = None
_ENV_CHECKED = False


def install_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-globally (None clears)."""
    global _PLAN, _ENV_CHECKED
    _PLAN = plan
    _ENV_CHECKED = True


def clear_plan() -> None:
    """Remove any installed plan and re-arm the environment check."""
    global _PLAN, _ENV_CHECKED
    _PLAN = None
    _ENV_CHECKED = False


def get_plan() -> FaultPlan | None:
    """The active plan: the installed one, else ``REPRO_FAULTS``, else None."""
    global _PLAN, _ENV_CHECKED
    if _PLAN is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        path = os.environ.get(PLAN_ENV_VAR)
        if path:
            _PLAN = FaultPlan.from_json_file(path)
    return _PLAN


def inject(point: str, **context) -> None:
    """Injection site: apply the active plan's rules at ``point``.

    The disabled path (no plan installed, env already checked) is a
    global load plus an ``is None`` test.
    """
    plan = _PLAN
    if plan is None:
        if _ENV_CHECKED:
            return
        plan = get_plan()
        if plan is None:
            return
    plan.fire(point, context)


def inject_bytes(point: str, data: bytes, **context) -> bytes:
    """Byte-stream injection site: may return a corrupted copy of ``data``."""
    plan = _PLAN
    if plan is None:
        if _ENV_CHECKED:
            return data
        plan = get_plan()
        if plan is None:
            return data
    return plan.fire(point, context, data)
