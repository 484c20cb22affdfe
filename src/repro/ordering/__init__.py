"""Global token order substrate (Section 2.2 of the paper).

Tokens are sorted by increasing *window frequency* — the number of data
windows that contain the token — with ties broken by token string.  The
:class:`GlobalOrder` assigns each token a dense integer *rank*; all
window-level processing in the library operates on rank sequences.
"""

from .global_order import GlobalOrder

__all__ = ["GlobalOrder"]
