"""The routing policy: one mode and the layout fingerprints are written in.

**Layout is decided where fingerprints are written**
(:meth:`repro.Index.build`, creating :meth:`repro.Index.open_live` /
``IngestStore.create``, ``repro index``, creating ``repro ingest`` — the
only doors that read :attr:`RoutingPolicy.block_tokens`);
**everywhere else routing is a mode** (:meth:`repro.Index.open`,
resuming a live store, ``search(routing=)``, the HTTP ``/search`` body,
``repro search|serve|query --routing``): those doors take a mode string
or a :class:`RoutingPolicy` and read its ``mode``, nothing else.  The
policy rides on :class:`~repro.params.SearchParams`, so saved snapshots
and ingest directories round-trip it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from ..errors import ConfigurationError

#: Valid values of :attr:`RoutingPolicy.mode`.
ROUTING_MODES = ("off", "exact")

#: Default tumbling-block width (tokens) for document fingerprints.
#: The effective block length is ``max(block_tokens, w)`` so every
#: ``w``-window always fits inside two consecutive blocks.
DEFAULT_BLOCK_TOKENS = 128


@dataclass(frozen=True, kw_only=True)
class RoutingPolicy:
    """Whether the fingerprint routing tier gates a search, and its layout.

    Parameters
    ----------
    mode:
        ``"off"`` disables the tier; ``"exact"`` prunes documents that
        provably hold no qualifying window (recall 1.0 — the
        missing-bit budget is derived from ``tau`` and the query
        stride, see :func:`~repro.routing.fingerprints.missing_bit_budget`).
    block_tokens:
        Tumbling-block width floor for document fingerprints; the
        effective width is ``max(block_tokens, w)``.  Smaller blocks
        prune harder but store more covers.
    """

    mode: str = "off"
    block_tokens: int = DEFAULT_BLOCK_TOKENS

    def __post_init__(self) -> None:
        if self.mode not in ROUTING_MODES:
            raise ConfigurationError(
                f"routing mode must be one of {ROUTING_MODES}, got {self.mode!r}"
            )
        if self.block_tokens < 1:
            raise ConfigurationError(
                f"block_tokens must be >= 1, got {self.block_tokens}"
            )

    @property
    def enabled(self) -> bool:
        """True when the tier should gate candidates at all."""
        return self.mode != "off"

    def layout(self, w: int) -> dict:
        """Build-time layout of a fingerprint tier at window size ``w``
        (the keyword arguments :class:`~repro.routing.FingerprintTier` takes)."""
        return {"block_len": max(self.block_tokens, w)}

    def with_mode(self, mode: str) -> "RoutingPolicy":
        """Copy with a different ``mode`` (re-validated), same layout."""
        return replace(self, mode=mode)

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
        unknown = set(payload) - {"mode", "block_tokens"}
        if unknown:
            raise ConfigurationError(
                f"unknown routing policy fields: {sorted(unknown)}"
            )
        try:
            return cls(**payload)
        except TypeError as exc:  # non-keyword junk, wrong arity
            raise ConfigurationError(f"bad routing policy: {exc}") from exc
