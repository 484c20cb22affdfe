"""Tests for the repro.api facade: Index plus the removed 1.1 names."""

from __future__ import annotations

import pytest

import repro
from repro import ConfigurationError, Index, IndexStateError, SearchParams, api
from repro.api import Searcher
from repro.baselines import (
    AdaptSearcher,
    FaerieSearcher,
    FBWSearcher,
    MinHashLSHSearcher,
)
from repro.baselines.bruteforce import BruteForceSearcher
from repro.baselines.prefix_join import KPrefixSearcher
from repro.core.pkwise import PKWiseSearcher
from repro.core.pkwise_nonint import PKWiseNonIntervalSearcher
from repro.core.weighted import WeightedPKWiseSearcher
from repro.eval import run_searcher

from repro.index.compact import CompactIntervalIndex
from repro.index.interval_index import IntervalIndex
from repro.index.inverted import WindowInvertedIndex
from repro.parallel import ParallelExecutor
from repro.partition.scheme import PartitionScheme

from .conftest import pairs_as_set

TEXTS = [
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lamda mu "
    "nu xi omicron pi rho sigma tau upsilon phi chi psi omega",
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lamda mu "
    "other words entirely different from the first document here now",
]


class TestIndexBuild:
    def test_from_texts(self):
        index = Index.build(TEXTS, w=10, tau=2, k_max=3)
        assert isinstance(index, Index)
        assert len(index.data) == 2
        result = index.search_text(TEXTS[0])
        assert len(result.pairs) > 0
        # A build is frozen as built; a write layers a memtable over it,
        # as over an opened snapshot.
        assert index.frozen and not index.live
        new_id = index.add(TEXTS[0])
        assert index.live and not index.frozen
        assert index.searcher().store.num_segments == 1
        assert new_id in {pair.doc_id for pair in index.search_text(TEXTS[0]).pairs}

    def test_from_collection(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=3)
        index = Index.build(small_corpus, params)
        assert index.data is small_corpus
        assert index.params is params
        assert index.path is None and index.load_seconds == 0.0

    def test_from_directory(self, tmp_path):
        for i, text in enumerate(TEXTS):
            (tmp_path / f"doc{i}.txt").write_text(text)
        index = Index.build(tmp_path, w=10, tau=2, k_max=3)
        assert len(index.data) == 2

    def test_m_defaults_to_paper_rule(self):
        index = Index.build(TEXTS, w=10, tau=2, k_max=3)
        assert index.params.m == 1

    def test_needs_params_or_w_tau(self):
        with pytest.raises(ConfigurationError, match="w= and tau="):
            Index.build(TEXTS)
        with pytest.raises(ConfigurationError, match="not both"):
            Index.build(TEXTS, SearchParams(w=10, tau=2, k_max=3), w=10)

    def test_rejects_nonsense_corpus(self):
        with pytest.raises(ConfigurationError, match="cannot build"):
            Index.build(12345, w=10, tau=2)


class TestIndexRoundtrip:
    def test_save_open_search_text(self, tmp_path):
        index = Index.build(TEXTS, w=10, tau=2, k_max=3)
        path = tmp_path / "corpus.idx"
        index.save(path)
        with Index.open(path) as loaded:
            assert loaded.path == path
            assert loaded.load_seconds > 0
            assert (
                loaded.search_text(TEXTS[0]).sorted_pairs()
                == index.search_text(TEXTS[0]).sorted_pairs()
            )

    def test_opened_snapshot_accepts_add(self, tmp_path):
        # 1.3-style usage: open, then mutate.  The opened engine is
        # frozen; the first add layers a memtable over it.
        path = tmp_path / "corpus.idx"
        Index.build(TEXTS, w=10, tau=2, k_max=3).save(path)
        with Index.open(path) as loaded:
            assert loaded.frozen and not loaded.live
            new_id = loaded.add(TEXTS[0])
            assert new_id == len(TEXTS) and loaded.live
            hits = {pair.doc_id for pair in loaded.search_text(TEXTS[0]).pairs}
            assert {0, new_id} <= hits
            loaded.remove(0)
            hits = {pair.doc_id for pair in loaded.search_text(TEXTS[0]).pairs}
            assert new_id in hits and 0 not in hits

    def test_index_serve(self):
        index = Index.build(TEXTS, w=10, tau=2, k_max=3)
        with index.serve(max_workers=1, cache_size=4) as service:
            first = service.search_text(TEXTS[0])
            second = service.search_text(TEXTS[0])
            assert first.pairs == second.pairs
            assert second.cached

    def test_encode_query_without_data_raises(self, small_corpus, tmp_path):
        params = SearchParams(w=10, tau=2, k_max=3)
        index = Index(PKWiseSearcher(small_corpus, params))  # no data paired
        with pytest.raises(ConfigurationError, match="ids-only"):
            index.search_text("anything")

    def test_writes_without_data_raise(self, small_corpus):
        # A live store always has its collection: an ids-only index
        # refuses a Document as it refuses text, and stays frozen.
        index = Index(PKWiseSearcher(small_corpus, SearchParams(w=10, tau=2, k_max=3)))
        for write in (lambda: index.add(small_corpus[0]), lambda: index.add("a b"),
                      lambda: index.remove(0), index.flush):
            with pytest.raises(ConfigurationError, match="ids-only"):
                write()
        assert not index.live and index.frozen

    def test_repr_names_engine_and_source(self):
        index = Index.build(TEXTS, w=10, tau=2, k_max=3)
        assert "PKWiseSearcher" in repr(index)
        assert "<memory>" in repr(index)


class TestSearcherProtocol:
    @pytest.mark.parametrize(
        "engine_class",
        [
            PKWiseSearcher,
            PKWiseNonIntervalSearcher,
            AdaptSearcher,
            BruteForceSearcher,
            FaerieSearcher,
            FBWSearcher,
            KPrefixSearcher,
            MinHashLSHSearcher,
        ],
    )
    def test_engines_satisfy_protocol(self, small_corpus, engine_class):
        params = SearchParams(w=10, tau=2, k_max=3)
        engine = engine_class(small_corpus, params)
        assert isinstance(engine, Searcher)
        engine.close()

    def test_weighted_satisfies_protocol(self, small_corpus):
        weighted = WeightedPKWiseSearcher(
            small_corpus, w=10, theta_weight=8.0, weight_of_token=lambda _t: 1.0
        )
        assert isinstance(weighted, Searcher)

    @pytest.mark.parametrize(
        "engine_class", [FBWSearcher, PKWiseNonIntervalSearcher]
    )
    def test_writes_on_a_batch_only_engine_are_a_typed_error(
        self, small_corpus, engine_class
    ):
        # Live ingestion layers a memtable over a PKWiseSearcher's
        # interval index; any other engine says so, by name.
        params = SearchParams(w=10, tau=2, k_max=3)
        documents = len(small_corpus)
        index = Index(engine_class(small_corpus, params), small_corpus)
        for write in (lambda: index.add("a b c"), lambda: index.remove(0),
                      index.flush, index.compact):
            with pytest.raises(ConfigurationError, match=engine_class.__name__):
                write()
        assert not index.live and len(small_corpus) == documents

        class Served(engine_class):
            """The engine under the serving stack's keyword contract."""

            def search(self, query, *, cancel=None, routing=None):
                return super().search(query)

        engine = Served(small_corpus, params)
        query = small_corpus.encode_query_tokens(
            small_corpus.vocabulary.decode(small_corpus[0].tokens[10:40])
        )
        want = pairs_as_set(engine.search(query).pairs)
        with Index(engine, small_corpus).serve(cache_size=0) as service:
            assert pairs_as_set(service.search(query).pairs) == want
            with pytest.raises(ConfigurationError, match="Served"):
                service.add("a b c")
            with pytest.raises(ConfigurationError, match="Served"):
                service.remove(0)
            assert len(small_corpus) == documents
            assert pairs_as_set(service.search(query).pairs) == want


class TestRemovedFacadeNames:
    """The pre-1.2 function facade and the 1.x loader aliases are gone."""

    @pytest.mark.parametrize(
        "name", ["build_index", "open_index", "save_index"]
    )
    def test_function_facade_removed(self, name):
        assert not hasattr(api, name)
        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_bare_searcher_save_via_index(self, tmp_path):
        index = Index.build(TEXTS, w=10, tau=2, k_max=3)
        path = tmp_path / "lean.idx"
        from repro.persistence import save_searcher

        save_searcher(index.searcher(), path)  # no data bundled
        loaded = Index.open(path)
        assert loaded.data is None
        with pytest.raises(Exception, match="ids-only"):
            loaded.search_text("anything")

    @pytest.mark.parametrize("name", ["load_searcher", "load_bundle"])
    def test_loader_aliases_removed(self, name):
        assert name not in repro.__all__
        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestTrafficAuditRemovals:
    """2.1: options and forks no benchmark, CLI or server path reached;
    2.19: the parallel index build, which measured no gain."""

    @pytest.mark.parametrize(
        "construct",
        [
            lambda data, params, scheme: IntervalIndex(
                params.w, params.tau, scheme, hashed=False
            ),
            lambda data, params, scheme: WindowInvertedIndex(
                params.w, params.tau, scheme, hashed=False
            ),
            lambda data, params, scheme: CompactIntervalIndex(
                params.w, params.tau, scheme, hashed=False
            ),
            lambda data, params, scheme: PKWiseSearcher(
                data, params, hashed=False
            ),
            lambda data, params, scheme: PKWiseNonIntervalSearcher(
                data, params, hashed=False
            ),
            lambda data, params, scheme: Index.build(data, params, hashed=False),
        ],
        ids=[
            "IntervalIndex", "WindowInvertedIndex", "CompactIntervalIndex",
            "PKWiseSearcher", "PKWiseNonIntervalSearcher", "Index.build",
        ],
    )
    def test_hashed_keyword_is_gone(self, small_corpus, construct):
        params = SearchParams(w=10, tau=2, k_max=3)
        scheme = PartitionScheme.single(8)
        with pytest.raises(TypeError, match="hashed"):
            construct(small_corpus, params, scheme)

    def test_parallel_build_is_gone(self, small_corpus, capsys):
        # The pool keeps workloads and self-joins, which it speeds up.
        import repro.parallel
        from repro.cli import main

        with pytest.raises(TypeError, match="jobs"):
            Index.build(small_corpus, w=10, tau=2, jobs=2)
        with pytest.raises(SystemExit) as raised:
            main(["index", "--data", "d", "--out", "o", "--jobs", "2"])
        assert raised.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not hasattr(ParallelExecutor, "build_searcher")
        assert not hasattr(repro.parallel, "split_blocks")
        assert not hasattr(IntervalIndex, "merge")
        assert not hasattr(CompactIntervalIndex, "merge")

    def test_windows_exports_one_of_each(self):
        # One slider and one overlap function, each in its own module;
        # the package re-exports neither.
        import repro.windows
        from repro.windows import rolling, slider

        assert repro.windows.__all__ == []
        assert callable(slider.WindowSlider)
        assert rolling.window_overlap([1, 2, 2, 3], [2, 2, 4]) == 2
        for module in (repro.windows, rolling, slider):
            for name in ("TreapMultiset", "RollingOverlap"):
                assert not hasattr(module, name)

    def test_no_signature_probing_left_in_src(self):
        from pathlib import Path

        offenders = [
            str(path)
            for path in Path(repro.__file__).parent.rglob("*.py")
            if "inspect.signature" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


class TestSearchManyUnification:
    """A batch of queries over any engine is ``run_searcher``'s
    AggregateRun; no engine carries a ``search_many`` of its own."""

    def test_no_engine_defines_search_many(self):
        from repro.ingest.searcher import LSMSearcher

        for engine in (
            PKWiseSearcher, PKWiseNonIntervalSearcher, WeightedPKWiseSearcher,
            BruteForceSearcher, FBWSearcher, LSMSearcher, Searcher,
        ):
            assert not hasattr(engine, "search_many"), engine.__name__

    def test_facade_search_many_returns_run(self, small_corpus):
        index = Index.build(small_corpus, SearchParams(w=10, tau=2, k_max=3))
        queries = [
            small_corpus.encode_query_tokens(
                [
                    small_corpus.vocabulary.decode([t])[0]
                    for t in small_corpus[d].tokens[:30]
                ]
            )
            for d in (0, 3)
        ]
        run = run_searcher(index.searcher(), queries)
        assert run.num_queries == 2
        assert set(run.results_by_query) == {0, 1}
        # jobs=0 is "one per CPU".
        auto = run_searcher(index.searcher(), queries, jobs=0)
        assert auto.results_by_query == run.results_by_query

    def test_weighted_and_baseline_agree_on_shape(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=3)
        queries = [
            small_corpus.encode_query_tokens(
                [
                    small_corpus.vocabulary.decode([t])[0]
                    for t in small_corpus[0].tokens[:30]
                ]
            )
        ]
        weighted = WeightedPKWiseSearcher(
            small_corpus, w=10, theta_weight=8.0, weight_of_token=lambda _t: 1.0
        )
        for engine in (weighted, BruteForceSearcher(small_corpus, params)):
            run = run_searcher(engine, queries)
            assert run.num_queries == 1
            assert hasattr(run, "stats") and hasattr(run, "results_by_query")


class TestKeywordOnlyParams:
    def test_positional_construction_rejected(self):
        with pytest.raises(TypeError):
            SearchParams(10, 2)

    def test_keyword_construction_works(self):
        params = SearchParams(w=10, tau=2, k_max=3)
        assert (params.w, params.tau, params.theta) == (10, 2, 8)

    def test_validation_names_offending_value(self):
        with pytest.raises(ConfigurationError, match="tau=9, w=5"):
            SearchParams(w=5, tau=9)
        with pytest.raises(ConfigurationError, match="k_max must be >= 1"):
            SearchParams(w=10, tau=2, k_max=0)


class TestFacadeDoors:
    @pytest.mark.parametrize("shards, replicas", [(0, 1), (-3, 1), (1, 0)])
    def test_serve_refuses_fewer_than_one(self, shards, replicas):
        index = Index.build(TEXTS, w=10, tau=2, k_max=3)
        with pytest.raises(ConfigurationError, match="shards >= 1 and replicas >= 1"):
            index.serve(shards=shards, replicas=replicas)

    @pytest.mark.parametrize("kind", ["built", "opened", "live"])
    def test_closed_index_takes_no_writes(self, tmp_path, kind):
        if kind == "live":
            index = Index.open_live(w=10, tau=2, k_max=3)
            index.add(TEXTS[0])
        else:
            index = Index.build(TEXTS, w=10, tau=2, k_max=3)
            if kind == "opened":
                index.save(tmp_path / "index.idx")
                index = Index.open(tmp_path / "index.idx", mmap=True)
        index.close()
        for write in (lambda: index.add(TEXTS[1]), index.flush):
            with pytest.raises(IndexStateError, match="closed"):
                write()
        assert index.search_text(TEXTS[0]).pairs


class TestModuleSurface:
    def test_api_module_exported(self):
        assert repro.api is api
        assert repro.Index is Index
        assert "build_index" not in repro.__all__
        assert "open_index" not in repro.__all__

    def test_import_leaves_the_serving_stack_out(self):
        # The top level is the facade: a process that only builds or
        # searches, star import included, never loads http.server,
        # urllib.request or multiprocessing.
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys, repro\n"
            "from repro import *\n"
            "heavy = ('http.server', 'urllib.request', 'multiprocessing')\n"
            "print([name for name in heavy if name in sys.modules])\n"
        )
        src = str(Path(repro.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert done.stdout == "[]\n"
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.nope

    def test_build_save_open_search_stay_off_the_pool_plane(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys\n"
            "from repro import Index\n"
            "text = ' '.join(f'w{i % 17}' for i in range(60))\n"
            "Index.build([text, 'a b c ' * 10], w=12, tau=2).save(sys.argv[1])\n"
            "with Index.open(sys.argv[1]) as index:\n"
            "    assert index.search_text(text).pairs\n"
            "# The greedy partitioner scores its sampled workload serially.\n"
            "greedy = Index.build([text] * 4, w=12, tau=2, greedy_partition=True,\n"
            "                     sample_ratio=0.5)\n"
            "assert greedy.search_text(text).pairs\n"
            "pool = ('repro.parallel', 'multiprocessing', 'concurrent.futures')\n"
            "print([name for name in pool if name in sys.modules])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "index.idx")],
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
            capture_output=True, text=True, check=True,
        )
        assert done.stdout == "[]\n"

    def test_version_bumped(self):
        import re
        from pathlib import Path

        pyproject = Path(repro.__file__).parents[2] / "pyproject.toml"
        declared = re.search(
            r'^version = "(.+)"$', pyproject.read_text(), re.MULTILINE
        )
        assert declared is not None
        assert repro.__version__ == declared.group(1)
