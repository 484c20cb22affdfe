"""Public API surface and error-hierarchy tests."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro import (
    ConfigurationError,
    CorpusError,
    IndexStateError,
    PartitioningError,
    ReproError,
    TokenizationError,
)

#: ``repro`` and every sub-package: each ``__all__`` is a promise.
PACKAGES = ["repro"] + [
    f"repro.{module.name}"
    for module in pkgutil.iter_modules(repro.__path__)
    if module.ispkg
]


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            ConfigurationError,
            TokenizationError,
            CorpusError,
            PartitioningError,
            IndexStateError,
        ],
    )
    def test_subclass_of_repro_error(self, error):
        assert issubclass(error, ReproError)
        assert issubclass(error, Exception)

    def test_catchable_as_family(self):
        with pytest.raises(ReproError):
            raise ConfigurationError("boom")


class TestPublicSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), (
                f"{package}.__all__ lists missing name {name}"
            )

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_from_docstring(self):
        # The module docstring's quickstart must actually work.
        from repro import Index

        index = Index.build(
            ["the lord of the rings is a famous novel about a ring of power"],
            w=8, tau=2, k_max=2,
        )
        matches = [
            (match.doc_id, match.data_start, match.query_start, match.overlap)
            for match in index.search_text(
                "the lord of the rings was a famous novel about a ring of power"
            )
        ]
        assert (0, 0, 0, 7) in matches
