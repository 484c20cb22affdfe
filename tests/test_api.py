"""Public API surface and error-hierarchy tests."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import repro
from repro import ConfigurationError, CorpusError, IndexStateError, ReproError
from repro.errors import PartitioningError, TokenizationError

#: ``repro`` and every sub-package: each ``__all__`` is a promise.
PACKAGES = ["repro"] + [
    f"repro.{module.name}"
    for module in pkgutil.iter_modules(repro.__path__)
    if module.ispkg
]

#: The whole public surface, literally.  A package exports what another
#: package, the CLI, a bench or an example imports from it; a name
#: outside these lists is internal and may change in any release.
SURFACE = {
    "repro": [
        "__version__",
        "Index",
        "SearchParams",
        "RoutingPolicy",
        "SearchResult",
        "MatchPair",
        "make_profile_collection",
        "local_similarity_self_join",
        "ReproError",
        "ConfigurationError",
        "CorpusError",
        "IndexStateError",
        "PersistenceError",
    ],
    "repro.baselines": [
        "AdaptSearcher",
        "FaerieSearcher",
        "FBWSearcher",
        "WinnowingSearcher",
        "MinHashLSHSearcher",
    ],
    "repro.core": [],
    "repro.corpus": [
        "Document",
        "DocumentCollection",
        "CollectionStats",
        "collection_from_directory",
        "collection_from_texts",
    ],
    "repro.eval": [
        "evaluate_quality",
        "run_searcher",
        "prefix_sharing",
        "postings_statistics",
    ],
    "repro.index": [],
    "repro.ingest": ["IngestStore", "read_wal", "wal_generations"],
    "repro.obs": [
        "MetricsRegistry",
        "get_tracer",
        "configure_tracing",
        "disable_tracing",
    ],
    "repro.ordering": ["GlobalOrder"],
    "repro.parallel": ["ParallelExecutor"],
    "repro.partition": ["GreedyPartitioner"],
    "repro.routing": ["RoutingPolicy", "ROUTING_MODES", "FingerprintTier"],
    "repro.service": [
        "SearchService",
        "serve_http",
        "ShardPlan",
        "ShardRouter",
        "ShardSupervisor",
        "WorkerLauncher",
        "spawn_shard_workers",
        "stop_shard_workers",
        "backends_for_workers",
    ],
    "repro.signatures": [],
    "repro.tokenize": ["Tokenizer", "WhitespaceTokenizer", "Vocabulary"],
    "repro.windows": [],
}

#: Prose that shows ``from repro... import ...`` lines to a reader.
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    f"docs/{path.name}"
    for path in (Path(repro.__file__).parents[2] / "docs").glob("*.md")
)


def declared_dependencies() -> set[str]:
    """The distribution names in ``pyproject.toml``'s ``[project]
    dependencies`` (read with a pattern: ``tomllib`` is 3.11+)."""
    text = (Path(repro.__file__).parents[2] / "pyproject.toml").read_text("utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^dependencies = \[(.*?)\]", project, re.MULTILINE | re.DOTALL)
    return {
        re.match(r"[\w.-]+", requirement).group(0).lower()
        for requirement in re.findall(r'"([^"]+)"', listed.group(1) if listed else "")
    }


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

    def test_surface_is_pinned(self):
        assert sorted(PACKAGES) == sorted(SURFACE)
        for package, names in SURFACE.items():
            assert importlib.import_module(package).__all__ == names, package
        # The sharded tier is plan / router / workers; no shards module.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.service.shards")

    @pytest.mark.parametrize("doc", DOCS)
    def test_doc_imports_resolve(self, doc):
        text = (Path(repro.__file__).parents[2] / doc).read_text("utf-8")
        statements = re.findall(
            r"^\s*from (repro[\w.]*) import (\([^)]*\)|.+)$",
            text,
            re.MULTILINE,
        )
        for module_name, names in statements:
            module = importlib.import_module(module_name)
            names = re.sub(r"\bas \w+", "", names.split("#")[0])
            for name in re.findall(r"\w+", names):
                if not hasattr(module, name):
                    importlib.import_module(f"{module_name}.{name}")

    def test_third_party_imports_are_declared(self):
        # A clean ``pip install .`` must give an importable package: every
        # top-level import under src/repro outside the standard library is
        # a declared dependency (each imports under its distribution name).
        imported = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names) - {"repro"}
        assert third_party
        assert third_party <= declared_dependencies()

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
