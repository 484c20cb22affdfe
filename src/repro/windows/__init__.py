"""Sliding-window substrate.

A window is ``w`` consecutive tokens viewed as a multiset.  This package
provides what the paper's Section 4 relies on: a
:class:`~repro.windows.slider.WindowSlider` that walks a document
maintaining the window's sorted view, and
:func:`~repro.windows.rolling.window_overlap`, the one-shot
multiset-intersection size that non-rolling algorithms and the tests
use as the reference.  The rolling O(1)-per-slide update of Section 4.3 lives
in :class:`repro.core.verify.IntervalVerifier`.
"""

__all__ = []
