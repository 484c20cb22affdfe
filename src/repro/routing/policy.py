"""The routing policy: one mode.

Routing is ``"off"`` or ``"exact"`` at every door — :meth:`repro.Index.build`,
:meth:`repro.Index.open`, :meth:`repro.Index.open_live`, ``search(routing=)``,
the HTTP ``/search`` body and ``repro index|ingest|search|serve|query
--routing``.  Fingerprints are a function of a tier's rank column (see
:mod:`repro.routing.fingerprints`), so the policy holds nothing else.  It
rides on :class:`~repro.params.SearchParams`, so saved snapshots and ingest
directories round-trip it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import ConfigurationError

#: Valid values of :attr:`RoutingPolicy.mode`.
ROUTING_MODES = ("off", "exact")


@dataclass(frozen=True, kw_only=True)
class RoutingPolicy:
    """Whether the fingerprint routing tier gates a search.

    Parameters
    ----------
    mode:
        ``"off"`` disables the tier; ``"exact"`` prunes documents that
        provably hold no qualifying window (recall 1.0 — the
        missing-bit budget is derived from ``tau`` and the query
        stride, see :func:`~repro.routing.fingerprints.missing_bit_budget`).
    """

    mode: str = "off"

    def __post_init__(self) -> None:
        if self.mode not in ROUTING_MODES:
            raise ConfigurationError(
                f"routing mode must be one of {ROUTING_MODES}, got {self.mode!r}"
            )

    @property
    def enabled(self) -> bool:
        """True when the tier should gate candidates at all."""
        return self.mode != "off"

    def to_dict(self) -> dict:
        """JSON-ready form (the HTTP ``/search`` body's ``routing`` key)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict | None) -> "RoutingPolicy":
        """Inverse of :meth:`to_dict`; ``None`` means the off policy.

        Unknown keys raise :class:`~repro.errors.ConfigurationError`
        (typed, so the HTTP layer maps it to a 400) instead of being
        silently dropped.
        """
        if payload is None:
            return cls()
        if isinstance(payload, cls):
            return payload
        if isinstance(payload, str):
            return cls(mode=payload)
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"routing policy must be a mode string or an object, "
                f"got {type(payload).__name__}"
            )
        unknown = set(payload) - {"mode"}
        if unknown:
            raise ConfigurationError(
                f"unknown routing policy fields: {sorted(unknown)}"
            )
        return cls(**payload)
