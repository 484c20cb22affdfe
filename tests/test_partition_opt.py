"""Tests for the cost model and the greedy partitioner (Section 5)."""

from __future__ import annotations

import pytest

from repro import SearchParams
from repro.corpus import DocumentCollection
from repro.corpus.synthetic import make_profile_collection
from repro.errors import PartitioningError
from repro.ordering import GlobalOrder
from repro.partition import GreedyPartitioner
from repro.partition.cost_model import CostWeights, workload_cost
from repro.partition.equi_width import equi_width_scheme
from repro.partition.scheme import PartitionScheme


@pytest.fixture(scope="module")
def tiny_workload():
    data, queries, _truth = make_profile_collection("REUTERS", scale=0.0015, seed=3)
    params = SearchParams(w=20, tau=3, k_max=3)
    order = GlobalOrder(data, params.w)
    return data, queries, params, order


class TestWorkloadCost:
    def test_positive_cost(self, tiny_workload):
        data, queries, params, order = tiny_workload
        scheme = PartitionScheme.single(order.universe_size)
        cost = workload_cost(data, queries[:2], params, scheme, order)
        assert cost > 0

    def test_weights_scale_cost(self, tiny_workload):
        data, queries, params, order = tiny_workload
        scheme = PartitionScheme.single(order.universe_size)
        base = workload_cost(
            data, queries[:1], params, scheme, order, CostWeights(1, 1, 1)
        )
        doubled = workload_cost(
            data, queries[:1], params, scheme, order, CostWeights(2, 2, 2)
        )
        assert doubled == pytest.approx(2 * base)

    def test_deterministic(self, tiny_workload):
        data, queries, params, order = tiny_workload
        scheme = equi_width_scheme(order.universe_size, 3)
        a = workload_cost(data, queries[:2], params, scheme, order)
        b = workload_cost(data, queries[:2], params, scheme, order)
        assert a == b


@pytest.fixture(scope="module")
def greedy(tiny_workload):
    """One greedy run over ``tiny_workload``: the partitioner, the
    workload it sampled, and the scheme and report it produced."""
    data, _queries, params, order = tiny_workload
    partitioner = GreedyPartitioner(
        data, params, order=order, b1_fraction=0.5, b2_fraction=0.25,
        sample_ratio=0.2,
    )
    workload = partitioner.sample_workload()
    scheme, report = partitioner.partition(workload=workload)
    return partitioner, workload, scheme, report


class TestGreedyPartitioner:
    def test_produces_valid_scheme(self, tiny_workload, greedy):
        _data, _queries, params, _order = tiny_workload
        _partitioner, _workload, scheme, report = greedy
        assert scheme.k_max == params.k_max
        assert len(scheme.borders) == params.k_max - 1
        assert report.evaluations > 0
        assert len(report.stage_borders) == params.k_max - 1

    def test_beats_or_ties_standard_prefix(self, tiny_workload, greedy):
        # Stage 1 evaluates the degenerate boundary |U| (pure 1-wise),
        # so the greedy result can never cost more than standard prefix
        # filtering on the same workload.
        data, _queries, params, order = tiny_workload
        _partitioner, workload, scheme, _report = greedy
        greedy_cost = workload_cost(data, workload, params, scheme, order)
        single_cost = workload_cost(
            data, workload, params, PartitionScheme.single(order.universe_size),
            order,
        )
        assert greedy_cost <= single_cost

    def test_stage_costs_non_increasing(self, greedy):
        _partitioner, _workload, _scheme, report = greedy
        for earlier, later in zip(report.stage_costs, report.stage_costs[1:]):
            assert later <= earlier + 1e-9

    def test_borders_non_decreasing(self, greedy):
        _partitioner, _workload, scheme, _report = greedy
        assert list(scheme.borders) == sorted(scheme.borders)

    def test_sample_workload_size(self, tiny_workload):
        data, _queries, params, order = tiny_workload
        partitioner = GreedyPartitioner(
            data, params, order=order, sample_ratio=0.25
        )
        workload = partitioner.sample_workload()
        assert len(workload) == max(1, round(0.25 * len(data)))

    def test_deterministic_given_seed(self, tiny_workload, greedy):
        # A second partitioner with the same inputs and seed samples the
        # same workload and picks the same borders.
        data, _queries, params, order = tiny_workload
        _partitioner, _workload, scheme, _report = greedy
        again, _ = GreedyPartitioner(
            data, params, order=order, b1_fraction=0.5, b2_fraction=0.25,
            sample_ratio=0.2, seed=0,
        ).partition()
        assert again.borders == scheme.borders

    def test_explicit_workload_used(self, tiny_workload):
        data, queries, params, order = tiny_workload
        partitioner = GreedyPartitioner(
            data, params, order=order, b1_fraction=0.5, b2_fraction=0.5
        )
        scheme, report = partitioner.partition(workload=queries[:1])
        assert scheme.k_max == params.k_max
        assert report.final_cost > 0


class TestCalibration:
    def test_calibrated_weights_positive_and_normalized(self, tiny_workload):
        from repro.partition.cost_model import calibrated_weights

        data, queries, params, order = tiny_workload
        weights = calibrated_weights(data, queries[:2], params, order)
        assert weights.c_hash == 1.0
        assert weights.c_comb > 0
        assert weights.c_int > 0


class TestSamplePerturbation:
    def test_perturbed_sample_differs_from_source(self, tiny_workload):
        data, _queries, params, order = tiny_workload
        partitioner = GreedyPartitioner(
            data, params, order=order, sample_ratio=0.2, seed=3
        )
        sample = partitioner.sample_workload()
        originals = {document.tokens for document in data}
        assert all(query.tokens not in originals for query in sample)
        assert all(query.doc_id == -1 for query in sample)

    def test_unperturbed_sample_is_verbatim(self, tiny_workload):
        data, _queries, params, order = tiny_workload
        partitioner = GreedyPartitioner(
            data, params, order=order, sample_ratio=0.2, seed=3,
            perturb_sample=False,
        )
        sample = partitioner.sample_workload()
        originals = {document.tokens for document in data}
        assert all(query.tokens in originals for query in sample)


class TestValidation:
    def _data(self):
        data = DocumentCollection()
        data.add_text(" ".join(f"t{i}" for i in range(30)))
        return data

    def test_rejects_bad_blocks(self):
        data = self._data()
        params = SearchParams(w=5, tau=1, k_max=2)
        with pytest.raises(PartitioningError):
            GreedyPartitioner(data, params, b1_fraction=0.1, b2_fraction=0.5)
        with pytest.raises(PartitioningError):
            GreedyPartitioner(data, params, b1_fraction=0.0)

    def test_rejects_bad_sample_ratio(self):
        data = self._data()
        params = SearchParams(w=5, tau=1, k_max=2)
        with pytest.raises(PartitioningError):
            GreedyPartitioner(data, params, sample_ratio=0.0)
        with pytest.raises(PartitioningError):
            GreedyPartitioner(data, params, sample_ratio=1.5)
