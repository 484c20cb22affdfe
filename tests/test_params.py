"""Tests for SearchParams validation (Theorem 2 bound, theta, copies)."""

from __future__ import annotations

import pytest

from repro import ConfigurationError, Index, SearchParams
from repro.cli import main
from repro.params import max_prefix_length, suggested_subpartitions


class TestValidation:
    def test_basic_construction(self):
        params = SearchParams(w=100, tau=5)
        assert params.w == 100
        assert params.tau == 5
        assert params.k_max == 4
        assert params.m == 1
        assert params.theta == 95

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ConfigurationError):
            SearchParams(w=0, tau=0)

    def test_rejects_negative_tau(self):
        with pytest.raises(ConfigurationError):
            SearchParams(w=10, tau=-1)

    def test_rejects_tau_at_window_size(self):
        with pytest.raises(ConfigurationError):
            SearchParams(w=10, tau=10, k_max=1)

    def test_rejects_bad_k_max(self):
        with pytest.raises(ConfigurationError):
            SearchParams(w=10, tau=1, k_max=0)

    def test_rejects_bad_m(self):
        with pytest.raises(ConfigurationError):
            SearchParams(w=10, tau=1, m=0)

    def test_theorem2_bound_enforced(self):
        # tau + 1 + k(k-1)/2 = 5 + 1 + 6 = 12 > w = 10 must fail.
        with pytest.raises(ConfigurationError):
            SearchParams(w=10, tau=5, k_max=4)
        # w = 12 is exactly at the bound and must pass.
        SearchParams(w=12, tau=5, k_max=4)

    def test_theorem2_bound_with_subpartitions(self):
        # m = 3: bound = tau + 1 + 3 * 3 = tau + 10.
        with pytest.raises(ConfigurationError):
            SearchParams(w=12, tau=5, k_max=3, m=3)
        SearchParams(w=15, tau=5, k_max=3, m=3)

    def test_tau_zero_allowed(self):
        params = SearchParams(w=4, tau=0, k_max=2)
        assert params.theta == 4


class TestCopies:
    def test_with_k_max(self):
        params = SearchParams(w=100, tau=5, k_max=4)
        copy = params.with_k_max(2)
        assert copy.k_max == 2
        assert copy.w == params.w and copy.tau == params.tau
        assert params.k_max == 4  # original untouched

    def test_with_k_max_revalidates(self):
        params = SearchParams(w=12, tau=5, k_max=4)
        with pytest.raises(ConfigurationError):
            params.with_k_max(5)  # bound becomes 5 + 1 + 10 = 16 > 12


class TestHelpers:
    def test_max_prefix_length_matches_corollary1(self):
        assert max_prefix_length(tau=3, k_max=4) == 3 + 1 + 6
        assert max_prefix_length(tau=5, k_max=1) == 6
        assert max_prefix_length(tau=5, k_max=3, m=2) == 5 + 1 + 2 * 3

    def test_suggested_subpartitions_small_tau(self):
        assert suggested_subpartitions(5) == 1
        assert suggested_subpartitions(20) == 1

    def test_suggested_subpartitions_large_tau(self):
        # Section 7.5: m = 0.25 * tau for tau > 20.
        assert suggested_subpartitions(40) == 10
        assert suggested_subpartitions(100) == 25


class TestSearchParamsEquality:
    def test_frozen_dataclass_semantics(self):
        a = SearchParams(w=10, tau=2, k_max=2)
        b = SearchParams(w=10, tau=2, k_max=2)
        assert a == b
        assert hash(a) == hash(b)

    def test_theta_derived_consistently(self):
        params = SearchParams(w=10, tau=3, k_max=1)
        assert params.theta == 7


# ----------------------------------------------------------------------
# Every door that takes loose values raises params.py's error
# ----------------------------------------------------------------------
TEXTS = [" ".join(f"t{(7 * i + j) % 41}" for j in range(60)) for i in range(3)]
CREATED = dict(w=25, tau=5)  # what the resumed directory was created with

ERRORS = {
    "params_and_w": (
        dict(params=SearchParams(w=25, tau=5), w=25),
        "pass either params= or the individual w=/tau=/k_max=/m= values, not both",
    ),
    "missing_tau": (
        dict(w=25),
        "needs either params=SearchParams(...) or both w= and tau=",
    ),
    "theorem_2": (
        dict(w=8, tau=5, k_max=4),
        "completeness condition violated (Theorem 2): need "
        "w >= tau + 1 + m*k_max*(k_max-1)/2 = 12, got w=8",
    ),
}


def _library_door(call):
    def door(tmp_path, values, capsys):
        with pytest.raises(ConfigurationError) as caught:
            call(tmp_path, values)
        return str(caught.value)

    return door


def _cli_door(command):
    def door(tmp_path, values, capsys):
        flags = {"w": "-w", "tau": "--tau", "k_max": "--k-max"}
        argv = command(tmp_path) + [
            part for name, value in values.items()
            for part in (flags[name], str(value))
        ]
        assert main(argv) == 2
        return capsys.readouterr().err

    return door


def _corpus(tmp_path):
    (tmp_path / "corpus").mkdir()
    for position, text in enumerate(TEXTS):
        (tmp_path / "corpus" / f"d{position}.txt").write_text(text)
    return str(tmp_path / "corpus")


def _existing(tmp_path):
    Index.open_live(tmp_path / "live", **CREATED).close()
    return tmp_path / "live"


DOORS = {
    "build": _library_door(lambda tmp, values: Index.build(TEXTS, **values)),
    "open_live-create": _library_door(
        lambda tmp, values: Index.open_live(tmp / "new", **values)
    ),
    "open_live-resume": _library_door(
        lambda tmp, values: Index.open_live(_existing(tmp), **values)
    ),
    "repro-index": _cli_door(
        lambda tmp: ["index", "--data", _corpus(tmp), "--out", str(tmp / "x.idx")]
    ),
    "repro-ingest": _cli_door(lambda tmp: ["ingest", "--dir", str(tmp / "new")]),
    "repro-ingest-resume": _cli_door(
        lambda tmp: ["ingest", "--dir", str(_existing(tmp))]
    ),
}


class TestEveryDoor:
    @pytest.mark.parametrize(
        "door, error",
        [
            (door, error)
            for door in DOORS
            for error in ERRORS
            # The command line has no params= and fills an omitted --tau.
            if not door.startswith("repro-") or error == "theorem_2"
        ],
    )
    def test_same_typed_error_text(self, door, error, tmp_path, capsys):
        values, text = ERRORS[error]
        assert text in DOORS[door](tmp_path, values, capsys)

    @pytest.mark.parametrize(
        "door, values",
        [
            ("open_live-resume", dict(w=40, tau=2, k_max=2)),
            ("open_live-resume", dict(params=SearchParams(w=40, tau=2, k_max=2))),
            ("open_live-resume", dict(w=25, tau=5, k_max=3)),
            ("repro-ingest-resume", dict(w=40)),
        ],
        ids=["values", "params", "k_max-only", "ingest-w"],
    )
    def test_resuming_with_other_values_names_both(
        self, door, values, tmp_path, capsys
    ):
        message = DOORS[door](tmp_path, values, capsys)
        asked = values.get("params") or SearchParams.from_values(
            **{"tau": CREATED["tau"], **values}  # the CLI fills --tau
        )
        assert "created with w=25, tau=5, k_max=4, m=1" in message
        assert (
            f"resumed with w={asked.w}, tau={asked.tau}, "
            f"k_max={asked.k_max}, m={asked.m}"
        ) in message

    def test_resuming_with_the_same_values_or_none_opens(self, tmp_path):
        directory = _existing(tmp_path)
        for values in (CREATED, dict(params=SearchParams(**CREATED)), {}):
            with Index.open_live(directory, **values) as index:
                assert (index.params.w, index.params.tau) == (25, 5)
        assert main(["ingest", "--dir", str(directory), "-w", "25"]) == 0
        assert main(["ingest", "--dir", str(directory)]) == 0
        assert main(["ingest", "--dir", str(directory), "--routing", "exact"]) == 0
