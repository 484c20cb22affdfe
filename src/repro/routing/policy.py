"""The routing policy object threaded through every API surface.

One frozen, keyword-only dataclass replaces what would otherwise be a
sprawl of per-call ``routing_mode=`` / ``hamming_budget=`` kwargs: the
same :class:`RoutingPolicy` rides on
:class:`~repro.params.SearchParams`, the ``Index`` facade, the CLI
(``--routing`` / ``--hamming-budget``), and the HTTP ``/search`` body,
and serializes into the params envelope so saved snapshots round-trip
it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from ..errors import ConfigurationError

#: Valid values of :attr:`RoutingPolicy.mode`.
ROUTING_MODES = ("off", "exact", "approx")

#: Default tumbling-block width (tokens) for document fingerprints.
#: The effective block length is ``max(block_tokens, w)`` so every
#: ``w``-window always fits inside two consecutive blocks.
DEFAULT_BLOCK_TOKENS = 128

#: Default number of stored MinHash bands (used by ``approx`` mode).
DEFAULT_BANDS = 4

_MAX_BANDS = 16


@dataclass(frozen=True, kw_only=True)
class RoutingPolicy:
    """How (and whether) the fingerprint routing tier gates a search.

    Parameters
    ----------
    mode:
        ``"off"`` disables the tier, ``"exact"`` prunes conservatively
        (recall 1.0 — the Hamming budget is derived from ``tau`` and
        the query stride, see
        :func:`~repro.routing.exact_hamming_budget`), ``"approx"``
        prunes more aggressively with a caller-chosen budget plus
        MinHash band agreement, trading bounded recall for speed.
    hamming_budget:
        Missing-bit budget for ``approx`` mode (``None`` derives
        ``tau``).  Ignored in ``exact`` mode, which always uses the
        conservative derived budget.
    bands:
        MinHash bands stored per block cover (and consulted by
        ``approx`` mode).  Build-time: raising it on a query against an
        index that stored fewer bands clamps to what is stored.
    block_tokens:
        Tumbling-block width floor for document fingerprints; the
        effective width is ``max(block_tokens, w)``.  Smaller blocks
        prune harder but store more covers.
    """

    mode: str = "off"
    hamming_budget: int | None = None
    bands: int = DEFAULT_BANDS
    block_tokens: int = DEFAULT_BLOCK_TOKENS

    def __post_init__(self) -> None:
        if self.mode not in ROUTING_MODES:
            raise ConfigurationError(
                f"routing mode must be one of {ROUTING_MODES}, got {self.mode!r}"
            )
        if self.hamming_budget is not None and self.hamming_budget < 0:
            raise ConfigurationError(
                f"hamming_budget must be >= 0, got {self.hamming_budget}"
            )
        if not 1 <= self.bands <= _MAX_BANDS:
            raise ConfigurationError(
                f"bands must be in [1, {_MAX_BANDS}], got {self.bands}"
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
        return {"block_len": max(self.block_tokens, w), "bands": self.bands}

    def with_mode(self, mode: str) -> "RoutingPolicy":
        """Copy with a different ``mode`` (re-validated)."""
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
        unknown = set(payload) - {"mode", "hamming_budget", "bands", "block_tokens"}
        if unknown:
            raise ConfigurationError(
                f"unknown routing policy fields: {sorted(unknown)}"
            )
        try:
            return cls(**payload)
        except TypeError as exc:  # non-keyword junk, wrong arity
            raise ConfigurationError(f"bad routing policy: {exc}") from exc
