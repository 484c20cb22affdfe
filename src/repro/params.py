"""Validated search parameters shared by every algorithm in the library.

The paper (Section 2.1) defines local similarity search by a window size
``w`` and a dissimilarity threshold ``tau`` (equivalently an overlap
threshold ``theta = w - tau``).  The pkwise algorithm additionally takes
the number of token classes ``k_max`` (Section 3.2) and the number of
equi-width sub-partitions per class ``m`` (Section 6).

:class:`SearchParams` validates all of these once, up front, so the rest
of the code can assume a consistent configuration.  In particular it
enforces the completeness condition of Theorem 2::

    w >= tau + 1 + k_max * (k_max - 1) / 2      (m == 1)
    w >= tau + 1 + m * k_max * (k_max - 1) / 2  (m > 1, Section 6)

Violating it would allow a window's prefix to exceed the window itself,
in which case prefix filtering can miss results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError
from .routing.policy import RoutingPolicy

#: Default number of token classes (the paper's default, Section 7.1).
DEFAULT_K_MAX = 4

#: What the ``repro`` command line uses for an omitted ``-w`` / ``--tau``
#: (the paper's default setting, Section 7.1).  The library has no
#: default for either: ``SearchParams`` and ``from_values`` require both.
DEFAULT_W = 25
DEFAULT_TAU = 5

#: Suggested rule from Section 7.5: use m = 1 for tau <= 20 and
#: m = 0.25 * tau for larger thresholds.
LARGE_TAU_CUTOFF = 20
LARGE_TAU_M_FACTOR = 0.25


def suggested_subpartitions(tau: int) -> int:
    """Return the number of sub-partitions the paper suggests for ``tau``.

    Section 7.5: ``m = 1`` when ``tau <= 20``, else ``m = 0.25 * tau``.
    """
    if tau <= LARGE_TAU_CUTOFF:
        return 1
    return max(1, round(LARGE_TAU_M_FACTOR * tau))


def max_prefix_length(tau: int, k_max: int, m: int = 1) -> int:
    """Upper bound of the prefix length (Corollary 1 and its Section 6 form).

    For ``m == 1`` the bound is ``tau + 1 + k_max * (k_max - 1) / 2``; for
    ``m > 1`` every class above 1 contributes ``m * (i - 1)`` extra
    tokens, giving ``tau + 1 + m * k_max * (k_max - 1) / 2``.
    """
    return tau + 1 + m * (k_max * (k_max - 1)) // 2


@dataclass(frozen=True, kw_only=True)
class SearchParams:
    """Immutable, validated parameters for one search configuration.

    All fields are keyword-only — ``SearchParams(w=25, tau=5)``, never
    positionally — so a reordering of parameters can never silently
    swap ``w`` and ``tau``.

    Parameters
    ----------
    w:
        Window size in tokens.  Every window of a document is exactly
        ``w`` consecutive tokens; documents shorter than ``w`` produce no
        windows.
    tau:
        Maximum number of differing tokens between matching windows,
        i.e. results satisfy ``w - O(x, y) <= tau``; the equivalent
        overlap threshold is the derived field ``theta = w - tau``.
    k_max:
        Number of token classes for partitioned k-wise signatures.
        ``k_max = 1`` degenerates to standard prefix filtering.
    m:
        Number of equi-width sub-partitions per class above 1
        (Section 6).  ``m = 1`` disables sub-partitioning.
    routing:
        The fingerprint routing policy (:class:`~repro.RoutingPolicy`)
        this configuration searches under.  ``mode="off"`` (the
        default) bypasses the tier; ``"exact"`` prunes documents
        conservatively before the exact engine (recall 1.0).
    """

    w: int
    tau: int
    k_max: int = DEFAULT_K_MAX
    m: int = 1
    routing: RoutingPolicy = field(default_factory=RoutingPolicy)
    theta: int = field(init=False)

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ConfigurationError(f"window size w must be >= 1, got {self.w}")
        if self.tau < 0:
            raise ConfigurationError(f"threshold tau must be >= 0, got {self.tau}")
        if self.tau >= self.w:
            raise ConfigurationError(
                f"tau must be < w (otherwise every window pair matches); "
                f"got tau={self.tau}, w={self.w}"
            )
        if self.k_max < 1:
            raise ConfigurationError(f"k_max must be >= 1, got {self.k_max}")
        if self.m < 1:
            raise ConfigurationError(f"m must be >= 1, got {self.m}")
        bound = max_prefix_length(self.tau, self.k_max, self.m)
        if self.w < bound:
            raise ConfigurationError(
                f"completeness condition violated (Theorem 2): need "
                f"w >= tau + 1 + m*k_max*(k_max-1)/2 = {bound}, got w={self.w}. "
                f"Lower k_max or m, or raise w."
            )
        if not isinstance(self.routing, RoutingPolicy):
            object.__setattr__(
                self, "routing", RoutingPolicy.from_dict(self.routing)
            )
        object.__setattr__(self, "theta", self.w - self.tau)

    def to_dict(self) -> dict:
        """JSON-ready form, as a file stores it (``theta`` is derived)."""
        return {
            "w": self.w,
            "tau": self.tau,
            "k_max": self.k_max,
            "m": self.m,
            "routing": self.routing.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchParams":
        """Inverse of :meth:`to_dict`, validated as any construction is."""
        return cls(**payload)

    @classmethod
    def from_values(
        cls,
        params: "SearchParams | None" = None,
        *,
        w: int | None = None,
        tau: int | None = None,
        k_max: int | None = None,
        m: int | None = None,
        what: str = "building an index",
    ) -> "SearchParams":
        """The one rule from a caller's loose values to validated parameters.

        Every door that takes ``params=`` or ``w=``/``tau=`` (and
        optionally ``k_max=``/``m=``) calls this: either the finished
        object or the values, never both; ``w`` and ``tau`` are both
        required; an omitted ``k_max`` is :data:`DEFAULT_K_MAX` and an
        omitted ``m`` follows the paper's Section 7.5 rule.
        """
        loose = any(value is not None for value in (w, tau, k_max, m))
        if params is not None:
            if loose:
                raise ConfigurationError(
                    "pass either params= or the individual "
                    "w=/tau=/k_max=/m= values, not both"
                )
            return params
        if w is None or tau is None:
            raise ConfigurationError(
                f"{what} needs either params=SearchParams(...) or both w= and tau="
            )
        return cls(
            w=w,
            tau=tau,
            k_max=DEFAULT_K_MAX if k_max is None else k_max,
            m=suggested_subpartitions(tau) if m is None else m,
        )

    def require_same_search(self, stored: "SearchParams", where: object) -> None:
        """Raise unless these are the values ``where`` was created with:
        resuming a live index under others would search windows its
        segments were never indexed for.  Routing is not compared — on
        resume it is a mode (:meth:`with_routing`)."""
        asked, kept = (
            f"w={p.w}, tau={p.tau}, k_max={p.k_max}, m={p.m}" for p in (self, stored)
        )
        if asked != kept:
            raise ConfigurationError(
                f"{where} was created with {kept} and cannot be resumed with "
                f"{asked}; omit the values to resume it, or create a new index"
            )

    def with_k_max(self, k_max: int) -> "SearchParams":
        """Return a copy with a different ``k_max`` (re-validated)."""
        return SearchParams(
            w=self.w, tau=self.tau, k_max=k_max, m=self.m, routing=self.routing
        )

    def with_routing(self, routing: RoutingPolicy | dict | str | None) -> "SearchParams":
        """Return a copy under a different routing policy.

        Accepts a :class:`~repro.RoutingPolicy`, its ``to_dict`` form,
        a bare mode string, or ``None`` (the off policy).
        """
        return SearchParams(
            w=self.w,
            tau=self.tau,
            k_max=self.k_max,
            m=self.m,
            routing=RoutingPolicy.from_dict(routing),
        )
