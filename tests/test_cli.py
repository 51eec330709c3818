from __future__ import annotations

import copy
import gc
import io
import json
import os
import resource
import socket
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeslope import cli, search_oracle
from hodgeslope.gallery import example_strictly_semistable, example_surjective_not_iso
from hodgeslope.hodge_system import (
    ISOMORPHISMS,
    HodgeSystem,
    Verdict,
    criterion_semistable,
    criterion_stable,
    derive_components,
    merge_verdicts,
    system_to_json,
)
from hodgeslope.oper import ConnectionPair, GriffithsFiltration
from hodgeslope.profiles import SubsystemProfile
from hodgeslope.slope_core import BundleData, GeometricContext

from support import (
    curve, filtration_to_json, pair_to_json, python_env, run, run_python, run_raw, write_doc
)


@pytest.fixture
def tower_doc(tmp_path):
    system = example_strictly_semistable(2).system
    return write_doc(tmp_path, {"hodge_system": system_to_json(system)})


def cell_limit_tower() -> HodgeSystem:
    """Ranks 3^i up to grade 14: 7,174,453 (grade, rank) cells in
    conservative mode, past the Dinkelbach solver's limit; 15 in paper
    mode.  The closed-form verdict decides it in either mode."""
    ctx = GeometricContext(0, 3, 2, omega_semistable=True)
    return derive_components(BundleData(1, 0, semistable=True), ctx, 14)


def mode_split_tower() -> HodgeSystem:
    """E_0 = (2, 2), d = 2, w = 2: the transport of (1, 1) reaches mu(E)
    with ranks 1, 2, which the conservative chain admits and the paper
    chain does not."""
    ctx = GeometricContext(0, 2, 2, omega_semistable=True)
    return derive_components(BundleData(2, 2, semistable=True), ctx, 1)


class TestCheckSystem:
    def test_strictly_semistable_tower(self, capsys, tower_doc):
        code, report, err = run(capsys, ["check-system", tower_doc])
        assert code == 0
        assert report["semistable"] == "yes"
        assert report["stable"] == "no"
        assert report["certificate"]["profile"] == [[1, -1], [1, 1]]
        assert report["certificate"]["slope"] == "0/1"
        assert report["mu_total"] == "0/1"
        assert "check-system" in err

    def test_declared_system(self, capsys, tmp_path):
        system = example_surjective_not_iso(2, 3).system
        doc = write_doc(tmp_path, {"hodge_system": system_to_json(system)})
        code, report, _ = run(capsys, ["check-system", doc])
        assert code == 0
        assert report["semistable"] == "no"
        assert report["certificate"]["slope"] == "3/1"
        assert report["certificate"]["mu_total"] == "8/3"

    def test_declared_profiles_are_checked_once(self, capsys, tmp_path, monkeypatch):
        # each declared profile is built once, through the hook the
        # benchmark's tracer counts, and each entry is type-checked once
        from hodgeslope import profiles

        calls = {"__post_init__": 0, "_entry": 0}
        post_init, entry = SubsystemProfile.__post_init__, profiles._entry

        def counted_post_init(self):
            calls["__post_init__"] += 1
            post_init(self)

        def counted_entry(i, pair):
            calls["_entry"] += 1
            return entry(i, pair)

        monkeypatch.setattr(SubsystemProfile, "__post_init__", counted_post_init)
        monkeypatch.setattr(profiles, "_entry", counted_entry)
        ctx = GeometricContext(0, 1, 2, omega_semistable=True)
        components = (BundleData(2, 0), BundleData(3, 3), BundleData(1, -1))
        declared = [[[1, 0]], [[1, -1], [2, 1]], [[2, 0], [1, 1], [1, -1]]]
        system = {
            "context": ctx.to_json(),
            "components": [c.to_json() for c in components],
            "theta": {"declared": declared},
        }
        doc = write_doc(tmp_path, {"hodge_system": system})
        code, report, _ = run(capsys, ["check-system", doc])
        assert (code, report["semistable"], report["stable"]) == (0, "unknown", "unknown")
        assert calls == {"__post_init__": 3, "_entry": 6}
        # a library construction passes through the same hook and check
        SubsystemProfile(((1, 0), (1, 2)))
        assert calls == {"__post_init__": 4, "_entry": 8}

    def test_attested_tower_formats_no_component_name(self, capsys, tmp_path, monkeypatch):
        # require_flag only reports a missing attestation, so a tower
        # attested throughout never reaches it
        calls = []
        monkeypatch.setattr(search_oracle, "require_flag", lambda *args: calls.append(args))
        ctx = GeometricContext(0, 1, 2, omega_semistable=True, omega_stable=True)
        tower = derive_components(BundleData(1, 1, semistable=True, stable=True), ctx, 2)
        components = tuple(BundleData(c.rank, c.degree, True, True) for c in tower.components)
        system = HodgeSystem(ctx, components, ISOMORPHISMS)
        doc = write_doc(tmp_path, {"hodge_system": system_to_json(system)})
        code, report, _ = run(capsys, ["check-system", doc])
        assert (code, report["semistable"], report["stable"]) == (0, "yes", "yes")
        code, _, _ = run(capsys, ["search", doc, "--subsheaf", "stable"])
        assert (code, calls) == (0, [])

    def test_stable_tower_keeps_no_certificate(self, capsys, tmp_path):
        # all components stable with integral slopes: the criterion's
        # stable=yes wins over the oracle's within-class equal-slope no,
        # and no stray certificate may survive the merge
        ctx = GeometricContext(0, 1, 2, omega_semistable=True, omega_stable=True)
        components = (
            BundleData(2, 2, semistable=True, stable=True),
            BundleData(2, 6, semistable=True, stable=True),
        )
        from hodgeslope.hodge_system import ISOMORPHISMS

        doc = write_doc(
            tmp_path,
            {"hodge_system": system_to_json(HodgeSystem(ctx, components, ISOMORPHISMS))},
        )
        code, report, _ = run(capsys, ["check-system", doc])
        assert code == 0
        assert report["semistable"] == "yes"
        assert report["stable"] == "yes"
        assert report["certificate"] is None

    def test_inconsistency_exits_two(self, capsys, tower_doc, monkeypatch):
        from hodgeslope.hodge_system import NO

        fake = Verdict(NO, NO, SubsystemProfile(((1, 5),)), "oracle")
        monkeypatch.setattr(search_oracle, "verdict_from_search", lambda *a, **k: fake)
        code, report, err = run(capsys, ["check-system", tower_doc])
        assert code == 2
        assert "disagree" in report["error"]
        assert "internal inconsistency" in err

    def test_stability_cross_checked_under_stable_bounds(self, capsys, tmp_path, monkeypatch):
        # every component stable, positive cotangent degree: the stable-bounds
        # oracle agrees with the criterion's stable=yes, which the
        # semistable-bounds oracle would contradict with [[1, 0], [1, 2]]
        from hodgeslope.hodge_system import ISOMORPHISMS, NO, YES

        components = (
            BundleData(2, 0, semistable=True, stable=True),
            BundleData(2, 4, semistable=True, stable=True),
        )
        system = HodgeSystem(curve(2), components, ISOMORPHISMS)
        doc = write_doc(tmp_path, {"hodge_system": system_to_json(system)})
        code, report, _ = run(capsys, ["check-system", doc])
        assert code == 0
        assert (report["semistable"], report["stable"]) == ("yes", "yes")
        assert report["provenance"].endswith("; oracle")
        fake = Verdict(YES, NO, SubsystemProfile(((1, 0), (1, 2))), "oracle")
        monkeypatch.setattr(search_oracle, "verdict_from_search", lambda *a, **k: fake)
        code, report, err = run(capsys, ["check-system", doc])
        assert code == 2
        assert report["error"] == "criterion and oracle disagree on stability"
        assert "internal inconsistency" in err

    def test_criteria_hypothesis_is_checked_before_the_oracle(self, capsys, tmp_path, monkeypatch):
        # an attested tower of negative cotangent degree: the criteria reject
        # it before the oracle runs, so no oracle work is thrown away
        components = (BundleData(1, 0, semistable=True), BundleData(1, -1, semistable=True))
        system = HodgeSystem(curve(-1), components, ISOMORPHISMS)
        doc = write_doc(tmp_path, {"hodge_system": system_to_json(system)})
        calls = []
        monkeypatch.setattr(search_oracle, "verdict_from_search", lambda *a: calls.append(a))
        code, report, _ = run(capsys, ["check-system", doc])
        assert code == 1
        assert report["error"] == "hypothesis violated: the cotangent degree must be nonnegative"
        assert calls == []

    def test_past_the_old_cell_limit_merges_the_oracle(self, capsys, tmp_path):
        # the criteria settle semistability; the closed-form oracle fills in
        # the stability side they leave unknown (d = 3 is not a curve)
        system = cell_limit_tower()
        doc = write_doc(tmp_path, {"hodge_system": system_to_json(system)})
        code, report, _ = run(capsys, ["check-system", doc, "--mode", "conservative"])
        assert code == 0
        criteria = merge_verdicts(criterion_semistable(system), criterion_stable(system))
        assert (criteria.semistable, criteria.stable) == ("yes", "unknown")
        assert (report["semistable"], report["stable"], report["certificate"]) == ("yes", "yes", None)
        assert report["provenance"] == f"{criteria.provenance}; oracle"

    @pytest.mark.parametrize("semistable", [None, True])
    def test_full_rank_declared_degree_above_component(self, capsys, tmp_path, semistable):
        # a full-rank subsheaf has a torsion quotient, so its degree is at
        # most the component's whatever the attestations say
        system = HodgeSystem(
            curve(2),
            (BundleData(2, 0, semistable=semistable), BundleData(1, 0)),
            (SubsystemProfile(((2, 5),)),),
        )
        doc = write_doc(tmp_path, {"hodge_system": system_to_json(system)})
        code, report, err = run(capsys, ["check-system", doc])
        assert code == 1
        assert "exceeds" in report["error"]
        assert "invalid input" in err


class TestSearch:
    def test_reports_certificate(self, capsys, tower_doc):
        code, report, _ = run(capsys, ["search", tower_doc])
        assert code == 0
        assert report["semistable"] == "yes"
        assert report["stable"] == "no"
        assert report["provenance"] == "oracle"

    @pytest.mark.parametrize("command", ["search", "check-system"])
    def test_budget_is_not_an_option(self, capsys, tmp_path, tower_doc, command):
        code, report, err = run(capsys, [command, tower_doc, "--budget", "1000"])
        assert code == 1
        assert "unrecognized arguments: --budget 1000" in report["error"]
        assert "invalid input" in err
        system = example_strictly_semistable(2).system
        doc = write_doc(
            tmp_path,
            {"hodge_system": system_to_json(system), "search_options": {"budget": 1000}},
            name="budget.json",
        )
        code, report, _ = run(capsys, [command, doc])
        assert code == 1
        assert report["error"] == "search_options has unknown field(s): budget"

    def test_document_options_and_flag_override(self, capsys, tmp_path):
        doc = write_doc(
            tmp_path,
            {
                "hodge_system": system_to_json(mode_split_tower()),
                "search_options": {"constraint_mode": "conservative"},
            },
        )
        code, report, _ = run(capsys, ["search", doc])
        assert code == 0
        assert (report["semistable"], report["stable"]) == ("yes", "no")
        assert report["certificate"]["profile"] == [[1, 1], [2, 4]]
        assert report["certificate"]["slope"] == report["mu_total"] == "5/3"
        code, report, _ = run(capsys, ["search", doc, "--mode", "paper"])
        assert code == 0
        assert (report["semistable"], report["stable"], report["certificate"]) == ("yes", "yes", None)

    def test_past_the_old_cell_limit_is_decided_at_once(self, capsys, tmp_path):
        doc = write_doc(tmp_path, {"hodge_system": system_to_json(cell_limit_tower())})
        start = time.perf_counter()
        code, report, err = run(capsys, ["search", doc, "--mode", "conservative"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert report == {
            "certificate": None,
            "mu_total": report["mu_total"],
            "provenance": "oracle",
            "semistable": "yes",
            "stable": "yes",
        }
        assert err == "search: semistable=yes stable=yes (oracle)\n"

    def test_byte_determinism(self, capsys, tower_doc):
        outputs = set()
        for argv in (
            ["search", tower_doc],
            ["search", tower_doc],
            ["search", tower_doc, "--mode", "paper"],
        ):
            assert cli.main(argv) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("command", ["search", "check-system"])
    @pytest.mark.parametrize("key", ["constraint_mode", "subsheaf_mode"])
    @pytest.mark.parametrize("value", [[], {}, ["paper"], {"paper": 1}])
    def test_non_string_option_is_invalid_input(self, capsys, tmp_path, command, key, value):
        system = example_strictly_semistable(2).system
        doc = write_doc(
            tmp_path, {"hodge_system": system_to_json(system), "search_options": {key: value}}
        )
        code, report, err = run(capsys, [command, doc])
        assert code == 1
        if (command, key) == ("check-system", "subsheaf_mode"):
            # check-system has no --subsheaf, so its document may not set the field
            assert report["error"] == "search_options has unknown field(s): subsheaf_mode"
        else:
            assert report["error"].startswith(f"{key} must be one of [")
        assert "invalid input" in err

    @pytest.mark.parametrize("options, flags, error", [
        ({}, ["--mode", "bogus"],
         "argument --mode: invalid choice: 'bogus' (choose from 'conservative', 'paper')"),
        ({}, ["--subsheaf", "Stable"],
         "argument --subsheaf: invalid choice: 'Stable' (choose from 'semistable', 'stable')"),
        ({"constraint_mode": "Conservative"}, [],
         "constraint_mode must be one of ['conservative', 'paper']"),
        ({"subsheaf_mode": "Stable"}, [], "subsheaf_mode must be one of ['semistable', 'stable']"),
        # the document's field is checked even where the command line overrides it
        ({"constraint_mode": "bogus"}, ["--mode", "paper"],
         "constraint_mode must be one of ['conservative', 'paper']"),
        # a null section is refused, as every other optional field's null is
        (None, [], "search_options must be a JSON object"),
    ])
    def test_misspelled_mode_texts(self, capsys, tmp_path, options, flags, error):
        system = example_strictly_semistable(2).system
        doc = write_doc(
            tmp_path, {"hodge_system": system_to_json(system), "search_options": options}
        )
        expected = (1, {"error": error}, f"invalid input: {error}\n")
        assert run(capsys, ["search", doc, *flags]) == expected


class TestCheckOper:
    def test_classical_tower(self, capsys, tmp_path):
        f = GriffithsFiltration(
            curve(2),
            (BundleData(1, 0, semistable=True), BundleData(1, 2, semistable=True)),
            transversal=True,
            theta_squares_to_zero=True,
            theta_iso=True,
        )
        doc = write_doc(tmp_path, {"griffiths_filtration": filtration_to_json(f)})
        code, report, _ = run(capsys, ["check-oper", doc])
        assert code == 0
        assert report["generalized_oper"] is True
        assert report["classical_oper"] is True
        assert report["semistable"] == "yes"

    def test_failing_clauses_reported(self, capsys, tmp_path):
        f = GriffithsFiltration(
            curve(2),
            (BundleData(1, 0), BundleData(1, 2)),
            transversal=True,
            theta_squares_to_zero=True,
            theta_iso=True,
        )
        doc = write_doc(tmp_path, {"griffiths_filtration": filtration_to_json(f)})
        code, report, _ = run(capsys, ["check-oper", doc])
        assert code == 0
        assert report["generalized_oper"] is False
        assert report["semistable"] == "unknown"
        assert any("not flagged semistable" in r for r in report["reasons"])

    def test_each_check_runs_once(self, capsys, tmp_path, monkeypatch):
        # the recognition and the tower relation are facts of the
        # filtration: its constructor checks the tower, and the verdict
        # reuses the recognition outcome
        from hodgeslope import hodge_system, oper

        calls = {"is_generalized_oper": 0, "require_tower": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        tower = counted("require_tower", hodge_system.require_tower)
        monkeypatch.setattr(hodge_system, "require_tower", tower)
        monkeypatch.setattr(oper, "require_tower", tower)
        monkeypatch.setattr(
            oper, "is_generalized_oper", counted("is_generalized_oper", oper.is_generalized_oper)
        )
        pieces = (BundleData(2, -2, semistable=True), BundleData(2, 2, semistable=True))
        f = GriffithsFiltration(curve(2), pieces, True, True, True)
        doc = write_doc(tmp_path, {"griffiths_filtration": filtration_to_json(f)})
        calls.update(dict.fromkeys(calls, 0))
        code, report, _ = run(capsys, ["check-oper", doc])
        assert (code, report["generalized_oper"], report["semistable"]) == (0, True, "yes")
        assert calls == {"is_generalized_oper": 1, "require_tower": 1}
        # called on their own, both keep their checks and texts
        not_oper = GriffithsFiltration(curve(2), pieces[:1], True, True, False)
        with pytest.raises(ValueError, match="^not a generalized oper: graded maps are not"):
            oper.oper_semistability(not_oper)
        with pytest.raises(ValueError, match="^component 1 is incompatible with the isomorphism"):
            HodgeSystem(curve(2), (pieces[0], pieces[0]), ISOMORPHISMS)


class TestCheckConnection:
    def test_flat_characteristic_zero_without_filtration(self, capsys, tmp_path):
        pair = ConnectionPair(BundleData(3, 0), flat=True, context=curve(2))
        doc = write_doc(tmp_path, {"connection_pair": pair_to_json(pair)})
        code, report, _ = run(capsys, ["check-connection", doc])
        assert code == 0
        assert report["semistable"] == "yes"

    def test_positive_characteristic_without_filtration(self, capsys, tmp_path):
        pair = ConnectionPair(BundleData(3, 0), flat=True, context=curve(2, char=5))
        doc = write_doc(tmp_path, {"connection_pair": pair_to_json(pair)})
        code, report, _ = run(capsys, ["check-connection", doc])
        assert code == 0
        assert report["semistable"] == "unknown"

    def test_graded_transfer(self, capsys, tmp_path):
        f = GriffithsFiltration(
            curve(2, char=5),
            (BundleData(1, 0, semistable=True), BundleData(1, 2, semistable=True)),
            transversal=True,
            theta_squares_to_zero=True,
            theta_iso=True,
        )
        pair = ConnectionPair(BundleData(2, 2), flat=True, filtration=f)
        doc = write_doc(tmp_path, {"connection_pair": pair_to_json(pair)})
        code, report, _ = run(capsys, ["check-connection", doc])
        assert code == 0
        assert report["semistable"] == "yes"


NOT_BOOLEANS = [1, "true", None, []]
FILTRATION_FLAGS = ["transversal", "theta_squares_to_zero", "theta_iso"]


def filtration_doc(**fields) -> dict:
    """A generalized oper's filtration payload with ``fields`` replaced."""
    f = GriffithsFiltration(
        curve(2),
        (BundleData(1, 0, semistable=True), BundleData(1, 2, semistable=True)),
        transversal=True,
        theta_squares_to_zero=True,
        theta_iso=True,
    )
    return {**filtration_to_json(f), **fields}


def connection_doc(**fields) -> dict:
    return {**pair_to_json(ConnectionPair(BundleData(2, 2), flat=True)), **fields}


def expect_error(capsys, tmp_path, command, payload, message):
    """``payload`` as the filtration of ``check-oper`` or the pair of
    ``check-connection`` is invalid input reported as ``message``."""
    key = "griffiths_filtration" if command == "check-oper" else "connection_pair"
    doc = write_doc(tmp_path, {key: payload})
    assert run_raw(capsys, [command, doc]) == (
        1,
        json.dumps({"error": message}) + "\n",
        f"invalid input: {message}\n",
    )


class TestBooleanAttestations:
    """A non-boolean attestation is invalid input naming the field; with
    several bad fields the first in field order is named, and the
    document's earlier parts are validated before any attestation."""

    @pytest.mark.parametrize("value", NOT_BOOLEANS, ids=json.dumps)
    @pytest.mark.parametrize("field", FILTRATION_FLAGS)
    def test_filtration_flag(self, capsys, tmp_path, field, value):
        payload = filtration_doc(**{field: value})
        expect_error(capsys, tmp_path, "check-oper", payload, f"{field} must be a boolean")
        # the same filtration inside a connection pair, whose flat is bad too
        pair = connection_doc(flat=value, total={"rank": 2, "degree": 2}, filtration=payload)
        expect_error(capsys, tmp_path, "check-connection", pair, f"{field} must be a boolean")

    @pytest.mark.parametrize("value", NOT_BOOLEANS, ids=json.dumps)
    def test_flat(self, capsys, tmp_path, value):
        expect_error(
            capsys, tmp_path, "check-connection", connection_doc(flat=value), "flat must be a boolean"
        )

    @pytest.mark.parametrize("first, second", [
        ("transversal", "theta_squares_to_zero"),
        ("transversal", "theta_iso"),
        ("theta_squares_to_zero", "theta_iso"),
    ])
    def test_first_bad_flag_is_named(self, capsys, tmp_path, first, second):
        payload = filtration_doc(**{first: 1, second: "true"})
        expect_error(capsys, tmp_path, "check-oper", payload, f"{first} must be a boolean")

    def test_flags_are_checked_after_the_pieces_and_before_the_tower(self, capsys, tmp_path):
        bad_piece = [{"rank": 1, "degree": 0, "semistable": "yes"}]
        payload = filtration_doc(graded=bad_piece, theta_iso=None)
        expect_error(
            capsys, tmp_path, "check-oper", payload, "bundle semistable flag must be a boolean"
        )
        off_tower = [{"rank": 1, "degree": 0}, {"rank": 1, "degree": 3}]
        payload = filtration_doc(graded=off_tower, theta_iso=None)
        expect_error(capsys, tmp_path, "check-oper", payload, "theta_iso must be a boolean")

    def test_flat_is_checked_after_the_total_and_before_the_sums(self, capsys, tmp_path):
        pair = connection_doc(total={"rank": "2", "degree": 2}, flat=None)
        expect_error(
            capsys, tmp_path, "check-connection", pair, "bundle rank must be an integer"
        )
        pair = connection_doc(total={"rank": 5, "degree": 2}, flat=None, filtration=filtration_doc())
        expect_error(capsys, tmp_path, "check-connection", pair, "flat must be a boolean")


BAD_CONTEXT = {"characteristic": 0, "dim": "1", "omega_degree": 2}
BAD_PIECE = {"rank": 1, "degree": "0"}


class TestCompositeReadOrder:
    """A filtration or a pair made of several bad parts reports the one its
    reader checks first: a filtration its graded array, its context, then
    its pieces; a pair its filtration, its context, then its total."""

    @pytest.mark.parametrize("graded", [{}, [], "[]"], ids=json.dumps)
    def test_filtration_graded_array_before_context(self, capsys, tmp_path, graded):
        payload = filtration_doc(graded=graded, context=BAD_CONTEXT)
        expect_error(
            capsys, tmp_path, "check-oper", payload, "graded must be a nonempty JSON array"
        )

    def test_filtration_context_before_pieces(self, capsys, tmp_path):
        payload = filtration_doc(context=BAD_CONTEXT, graded=[BAD_PIECE])
        expect_error(capsys, tmp_path, "check-oper", payload, "dim must be an integer")
        payload = filtration_doc(graded=[{"rank": 1, "degree": 0}, BAD_PIECE])
        expect_error(capsys, tmp_path, "check-oper", payload, "bundle degree must be an integer")

    def test_pair_filtration_before_context_before_total(self, capsys, tmp_path):
        bad_filtration = filtration_doc(transversal=1)
        pair = connection_doc(filtration=bad_filtration, context=BAD_CONTEXT, total=BAD_PIECE)
        expect_error(capsys, tmp_path, "check-connection", pair, "transversal must be a boolean")
        pair = connection_doc(filtration=filtration_doc(), context=BAD_CONTEXT, total=BAD_PIECE)
        expect_error(capsys, tmp_path, "check-connection", pair, "dim must be an integer")
        pair = connection_doc(context=BAD_CONTEXT, total=BAD_PIECE)
        expect_error(capsys, tmp_path, "check-connection", pair, "dim must be an integer")
        pair = connection_doc(context=curve(2).to_json(), total=BAD_PIECE)
        expect_error(
            capsys, tmp_path, "check-connection", pair, "bundle degree must be an integer"
        )


class TestHnTensor:
    def test_tensor_and_polygon(self, capsys, tmp_path):
        doc = write_doc(
            tmp_path,
            {
                "hn_request": {
                    "profile": [
                        {"rank": 1, "degree": 5, "semistable": True},
                        {"rank": 2, "degree": 2, "semistable": True},
                    ],
                    "tensor_with": {"rank": 2, "degree": 0, "semistable": True},
                }
            },
        )
        code, report, _ = run(capsys, ["hn-tensor", doc])
        assert code == 0
        assert report["quotients"] == [
            {"rank": 2, "degree": 10, "semistable": True},
            {"rank": 4, "degree": 4, "semistable": True},
        ]
        assert report["polygon"] == [[0, 0], [2, 10], [6, 14]]

    def test_each_product_built_and_validated_once(self, capsys, tmp_path, monkeypatch):
        # tensor_hn builds every product once, flagged semistable, and its
        # output is valid whenever its validated input is, so the document
        # checks the slope order once
        from hodgeslope import hn_profiles

        calls = {"BundleData": 0, "validate_hn": 0}
        init, validate = BundleData.__init__, hn_profiles.validate_hn

        def counted_init(self, *args, **kwargs):
            calls["BundleData"] += 1
            init(self, *args, **kwargs)

        def counted_validate(p):
            calls["validate_hn"] += 1
            return validate(p)

        monkeypatch.setattr(BundleData, "__init__", counted_init)
        monkeypatch.setattr(hn_profiles, "validate_hn", counted_validate)
        quotients = [
            {"rank": 1, "degree": 5, "semistable": True},
            {"rank": 2, "degree": 2, "semistable": True},
            {"rank": 1, "degree": -3, "semistable": True},
        ]
        factor = {"rank": 2, "degree": 1, "semistable": True}
        doc = write_doc(tmp_path, {"hn_request": {"profile": quotients, "tensor_with": factor}})
        code, report, _ = run(capsys, ["hn-tensor", doc])
        assert code == 0
        assert report["polygon"] == [[0, 0], [2, 11], [6, 17], [8, 12]]
        # three quotients and the factor read from the document, three products
        assert calls == {"BundleData": 3 + 1 + 3, "validate_hn": 1}

    def test_invalid_profile_is_invalid_input(self, capsys, tmp_path):
        doc = write_doc(
            tmp_path,
            {
                "hn_request": {
                    "profile": [
                        {"rank": 1, "degree": 1, "semistable": True},
                        {"rank": 1, "degree": 1, "semistable": True},
                    ],
                    "tensor_with": {"rank": 1, "degree": 0, "semistable": True},
                }
            },
        )
        code, report, _ = run(capsys, ["hn-tensor", doc])
        assert code == 1
        assert "strictly decrease" in report["error"]


class TestVerifyInequalities:
    def test_sweep(self, capsys):
        code, report, err = run(capsys, ["verify-inequalities", "--d-max", "3", "--n-max", "6"])
        assert code == 0
        assert report["all_hold"] is True
        assert report["checked"] == 3 * (7 * 8 // 2)
        assert "d=3" in err

    def test_oversized_sweep_is_refused(self, capsys):
        start = time.perf_counter()
        code, report, err = run(capsys, ["verify-inequalities", "--d-max", "3", "--n-max", "300"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "sweep too large" in report["error"]
        assert "invalid input" in err


HUGE = 10**3999  # 4,000 digits


class TestGalleryCommand:
    def test_default_entry(self, capsys):
        code, report, _ = run(capsys, ["gallery", "strictly-semistable"])
        assert code == 0
        assert report["entry"]["name"] == "strictly-semistable"
        assert report["recomputed"]["semistable"] == "yes"
        assert report["recomputed"]["stable"] == "no"

    def test_parameters(self, capsys):
        code, report, _ = run(capsys, ["gallery", "surjective-not-iso", "--g", "3", "--d-line", "5"])
        assert code == 0
        assert report["recomputed"]["certificate"]["slope"] == "5/1"
        assert report["recomputed"]["certificate"]["mu_total"] == "14/3"

    def test_bad_parameters_are_invalid_input(self, capsys):
        code, report, _ = run(capsys, ["gallery", "surjective-not-iso", "--d-line", "1"])
        assert code == 1
        assert "d > 2g-2" in report["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["strictly-semistable", "--g", str(HUGE)],
            ["surjective-not-iso", "--g", str(HUGE), "--d-line", str(2 * HUGE)],
            ["surjective-not-iso", "--d-line", str(HUGE)],
            ["injective-not-iso", "--g", str(HUGE), "--d0", str(HUGE)],
            ["unstable-component", "--g", str(HUGE), "--d0", str(HUGE)],
        ],
    )
    def test_huge_parameters_are_decided_quickly(self, capsys, argv):
        # the parameters have no size limit of their own; 4,000 digits stays
        # fast because every entry is a handful of big-integer operations
        start = time.perf_counter()
        code, report, _ = run(capsys, ["gallery", *argv])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert report["recomputed"] == report["entry"]["expected"]

    @pytest.mark.parametrize("flag", ["--g", "--d-line", "--d0"])
    def test_parameter_past_the_int_string_limit_is_invalid_input(self, capsys, flag):
        # Python refuses to convert decimal strings longer than its
        # int-string limit (4,300 digits by default); argparse reports that
        code, out, err = run_raw(capsys, ["gallery", "unstable-component", flag, "1" * 5000])
        assert code == 1
        assert "invalid int value" in json.loads(out)["error"]
        assert "invalid input" in err
        # the echoed value is cut, so the report does not repeat 5,000 digits
        assert len(out.encode()) < 512 and len(err.encode()) < 512

    @pytest.mark.parametrize(
        "argv",
        [
            ["gallery", "unstable-component", "--g", "1\n" * 2500],
            ["gallery", "y" * 5000],
            ["verify-inequalities", "x" * 5000, "'" * 5000],
        ],
    )
    def test_long_arguments_are_echoed_cut(self, capsys, argv):
        # a value argparse quotes by repr (escaped newlines), an invalid
        # choice, and unrecognized arguments shown as typed
        code, out, err = run_raw(capsys, argv)
        assert code == 1
        assert "…" in json.loads(out)["error"] and "…" in err
        assert len(out.encode()) < 512 and len(err.encode()) < 512

    def test_arguments_up_to_the_limit_are_echoed_whole(self, capsys):
        value = "z" * cli.MAX_ECHO
        code, report, _ = run(capsys, ["gallery", "unstable-component", "--g", value])
        assert code == 1
        assert report["error"] == f"argument --g: invalid int value: '{value}'"


def too_large_report() -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a report refused for an integer past
    the interpreter's int-to-string limit."""
    limit = sys.get_int_max_str_digits()
    error = f"report too large: an integer in it has more than {limit} digits"
    return 1, json.dumps({"error": error}) + "\n", f"invalid input: {error}\n"


class TestIntegerDigitLimit:
    """Every input integer parses, but the report would hold one with more
    digits than str() converts: the refusal is ours, not CPython's text."""

    def test_hn_tensor_product_degree(self, capsys, tmp_path):
        # a 4,000-digit degree times a 4,000-digit rank has about 8,000 digits
        big = int("7" * 4000)
        doc = write_doc(tmp_path, {"hn_request": {
            "profile": [{"rank": 1, "degree": big, "semistable": True}],
            "tensor_with": {"rank": big, "degree": 0, "semistable": True},
        }})
        assert run_raw(capsys, ["hn-tensor", doc]) == too_large_report()

    def test_declared_system_mu_total(self, capsys, tmp_path):
        # three degrees at the limit sum past it, over a total rank of 4
        nines = 10 ** sys.get_int_max_str_digits() - 1
        components = [{"rank": r, "degree": nines} for r in (1, 1, 2)]
        doc = write_doc(tmp_path, {"hodge_system": {
            "context": curve(0).to_json(), "components": components, "theta": {"declared": []},
        }})
        assert run_raw(capsys, ["check-system", doc]) == too_large_report()

    def test_tower_error_text(self, capsys, tmp_path):
        # dim = 10^2200: the expected rank of component 2 has 4,401 digits
        context = GeometricContext(0, 10**2200, 1, True)
        components = [{"rank": r, "degree": e} for r, e in ((1, 0), (10**2200, 1), (1, 0))]
        doc = write_doc(tmp_path, {"hodge_system": {
            "context": context.to_json(), "components": components, "theta": "isomorphisms",
        }})
        assert run_raw(capsys, ["check-system", doc]) == too_large_report()

    def test_sweep_refusal_count(self, capsys):
        # d_max has 4,201 digits and n_max 201: the check count has about 4,600
        argv = ["verify-inequalities", "--d-max", "1" + "0" * 4200, "--n-max", "1" + "0" * 200]
        assert run_raw(capsys, argv) == too_large_report()

    def test_connection_graded_totals(self, capsys, tmp_path):
        # three graded degrees at the limit sum past it; total (3, 0) differs
        nines = 10 ** sys.get_int_max_str_digits() - 1
        filtration = {
            "context": curve(0).to_json(),
            "graded": [{"rank": 1, "degree": nines, "semistable": True}] * 3,
            "transversal": True, "theta_squares_to_zero": True, "theta_iso": False,
        }
        doc = write_doc(tmp_path, {"connection_pair": {
            "total": {"rank": 3, "degree": 0}, "flat": True, "filtration": filtration,
        }})
        assert run_raw(capsys, ["check-connection", doc]) == too_large_report()


class TestDocumentValidation:
    def test_unknown_top_level_field(self, capsys, tmp_path):
        doc = write_doc(tmp_path, {"hodge_system": {}, "extra": 1})
        code, report, _ = run(capsys, ["check-system", doc])
        assert code == 1
        assert "unknown field" in report["error"]

    def test_exactly_one_payload(self, capsys, tmp_path):
        doc = write_doc(tmp_path, {})
        code, report, _ = run(capsys, ["check-system", doc])
        assert code == 1
        assert "exactly one" in report["error"]

    def test_wrong_payload_for_command(self, capsys, tmp_path):
        pair = ConnectionPair(BundleData(3, 0), flat=True)
        doc = write_doc(tmp_path, {"connection_pair": pair_to_json(pair)})
        code, report, _ = run(capsys, ["check-system", doc])
        assert code == 1
        assert "hodge_system" in report["error"]

    def test_missing_file(self, capsys):
        code, report, _ = run(capsys, ["check-system", "/nonexistent/doc.json"])
        assert code == 1
        assert "cannot read" in report["error"]

    def test_deep_nesting_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, report, err = run(capsys, ["check-system", str(path)])
        assert code == 1
        assert "nests too deeply" in report["error"]
        assert "invalid input" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, report, _ = run(capsys, ["check-system", str(path)])
        assert code == 1
        assert "not valid JSON" in report["error"]

    def test_usage_error_is_invalid_input(self, capsys):
        code, report, _ = run(capsys, ["search"])
        assert code == 1
        assert "error" in report

    @pytest.mark.parametrize("command", ["check-oper", "check-connection", "hn-tensor"])
    @pytest.mark.parametrize("options", [{"constraint_mode": "paper"}, {}])
    def test_command_without_options_refuses_the_section(self, capsys, tmp_path, command, options):
        # only check-system and search read search_options
        doc = write_doc(tmp_path, {**dict(FUZZ_SEEDS)[command], "search_options": options})
        error = "document has unknown field(s): search_options"
        assert run(capsys, [command, doc]) == (1, {"error": error}, f"invalid input: {error}\n")


class TestDocumentRead:
    """The bytes-to-text contract of a document, pinned to the reports a
    text-mode read with encoding="utf-8" gave: strict UTF-8, a byte-order
    mark kept, universal newlines, and JSON error positions counted in the
    translated text."""

    @pytest.mark.parametrize(
        "raw, error",
        [
            (
                b'{"hodge_system":\r\n {"x": 1,\r\n oops}',
                "document is not valid JSON: Expecting property name enclosed in double "
                "quotes: line 3 column 2 (char 28)",
            ),
            (
                b'{"a":\r 1 oops}',
                "document is not valid JSON: Expecting ',' delimiter: line 2 column 4 (char 9)",
            ),
            (
                b'\xef\xbb\xbf{"hodge_system": {}}',
                "document is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                "line 1 column 1 (char 0)",
            ),
            (
                b'{"a": "\xff"}',
                "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte",
            ),
        ],
        ids=["crlf", "lone-cr", "bom", "invalid-utf8"],
    )
    def test_bytes(self, capsys, tmp_path, raw, error):
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        assert run_raw(capsys, ["check-system", str(path)]) == (
            1,
            json.dumps({"error": error}) + "\n",
            f"invalid input: {error}\n",
        )

    def test_integer_past_the_digit_limit_is_invalid_json(self, capsys, tmp_path):
        # CPython's own text follows the prefix and differs between versions
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / "doc.json"
        doc = '{"hn_request": {"profile": [{"rank": 1, "degree": %s}]}}' % digits
        path.write_text(doc, encoding="utf-8")
        code, report, err = run(capsys, ["hn-tensor", str(path)])
        assert code == 1
        assert report["error"].startswith("document is not valid JSON: ")
        assert err.startswith("invalid input: document is not valid JSON: ")

    def test_newlines_are_translated_before_parsing(self, capsys, tmp_path):
        lf = tmp_path / "lf.json"
        lf.write_text(
            json.dumps({"hodge_system": system_to_json(mode_split_tower())}, indent=1),
            encoding="utf-8",
        )
        crlf = tmp_path / "crlf.json"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        expected = run_raw(capsys, ["check-system", str(lf)])
        assert expected[0] == 0
        assert run_raw(capsys, ["check-system", str(crlf)]) == expected

    def test_document_padded_past_a_mebibyte_gives_the_compact_report(
        self, capsys, tmp_path, tower_doc
    ):
        expected = run_raw(capsys, ["check-system", tower_doc])
        assert expected[0] == 0
        compact = Path(tower_doc).read_text(encoding="utf-8")
        padded = tmp_path / "padded.json"
        padded.write_text(compact[:-1] + " " * (1 << 20) + compact[-1], encoding="utf-8")
        assert run_raw(capsys, ["check-system", str(padded)]) == expected

    @pytest.mark.parametrize("size", [160 << 20, 1 << 30], ids=["decode", "read"])
    def test_document_past_the_memory_limit_is_refused(self, tmp_path, size):
        # a sparse file of NUL bytes under a 256 MiB address space: the
        # larger one cannot be read, the smaller one read but not decoded
        path = tmp_path / "huge.json"
        with open(path, "wb") as handle:
            handle.truncate(size)

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        done = run_python(
            "-m", "hodgeslope.cli", "check-system", str(path), timeout=10, preexec_fn=cap_memory
        )
        error = "document does not fit in memory"
        assert (done.returncode, done.stdout, done.stderr) == (
            1,
            json.dumps({"error": error}) + "\n",
            f"invalid input: {error}\n",
        )

    @pytest.mark.parametrize("target", ["directory", "missing"])
    def test_unreadable(self, capsys, tmp_path, target):
        path = tmp_path if target == "directory" else tmp_path / "missing.json"
        reason = (
            f"[Errno 21] Is a directory: {str(path)!r}"
            if target == "directory"
            else f"[Errno 2] No such file or directory: {str(path)!r}"
        )
        error = f"cannot read document: {reason}"
        assert run_raw(capsys, ["check-system", str(path)]) == (
            1,
            json.dumps({"error": error}) + "\n",
            f"invalid input: {error}\n",
        )


class TestDocumentFileType:
    """A document path to a FIFO, a device or a socket ends in bounded
    time.  A case that could hang runs in a child process under a timeout,
    so a read that blocks or never ends fails the test instead of hanging
    the suite."""

    @pytest.fixture
    def fifo(self, tmp_path):
        path = tmp_path / "doc.fifo"
        os.mkfifo(path)
        return str(path)

    def test_fifo_without_writer_reads_as_empty(self, fifo):
        done = run_python("-m", "hodgeslope.cli", "check-system", fifo, timeout=10)
        assert (done.returncode, json.loads(done.stdout)) == (
            1,
            {"error": "document is not valid JSON: Expecting value: line 1 column 1 (char 0)"},
        )

    def test_fifo_gives_the_regular_files_report(self, fifo, tower_doc):
        expected = run_python("-m", "hodgeslope.cli", "check-system", tower_doc)
        assert expected.returncode == 0
        # the parent holds a read end open, so the writer opens at once and
        # the pipe keeps what it wrote until the child has read it
        keeper = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with open(fifo, "wb") as writer:
                child = subprocess.Popen(
                    [sys.executable, "-m", "hodgeslope.cli", "check-system", fifo],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=python_env(),
                )
                writer.write(Path(tower_doc).read_bytes())
            try:
                out, err = child.communicate(timeout=10)
            finally:
                child.kill()
        finally:
            os.close(keeper)
        assert (child.returncode, out, err) == (0, expected.stdout, expected.stderr)

    def test_fifo_past_the_pipe_buffer_gives_the_regular_files_report(
        self, fifo, tmp_path, tower_doc
    ):
        # a document padded to 200 KiB, written in 20 KiB pieces by a child
        # whose open waits for the reader and whose timeout ends the wait
        compact = Path(tower_doc).read_text(encoding="utf-8")
        path = tmp_path / "padded.json"
        path.write_text(compact[:-1] + " " * (200 << 10) + compact[-1], encoding="utf-8")
        expected = run_python("-m", "hodgeslope.cli", "check-system", str(path))
        assert expected.returncode == 0
        child = subprocess.Popen(
            [sys.executable, "-m", "hodgeslope.cli", "check-system", fifo],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=python_env(),
        )
        feed = (
            "import sys\n"
            "from pathlib import Path\n"
            "data = Path(sys.argv[2]).read_bytes()\n"
            "with open(sys.argv[1], 'wb', buffering=0) as writer:\n"
            "    for start in range(0, len(data), 20 << 10):\n"
            "        writer.write(data[start:start + (20 << 10)])\n"
        )
        try:
            fed = run_python("-c", feed, fifo, str(path), timeout=10)
            out, err = child.communicate(timeout=10)
        finally:
            child.kill()
            child.communicate()
        assert fed.returncode == 0, fed.stderr
        assert (child.returncode, out, err) == (0, expected.stdout, expected.stderr)

    def test_fifo_whose_writer_starts_late_gives_the_regular_files_report(self, fifo, tower_doc):
        expected = run_python("-m", "hodgeslope.cli", "check-system", tower_doc)
        child = subprocess.Popen(
            [sys.executable, "-m", "hodgeslope.cli", "check-system", fifo],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=python_env(),
        )
        try:
            # a writer's non-blocking open succeeds only once the child has
            # the read end open, so the writer arrives after the reader; a
            # child that has already ended gets no writer
            deadline = time.monotonic() + 10
            fd = None
            while fd is None and child.poll() is None:
                time.sleep(0.2)
                try:
                    fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                except OSError:  # no reader yet
                    assert time.monotonic() < deadline, "the child never opened the FIFO"
            if fd is not None:
                os.set_blocking(fd, True)
                with open(fd, "wb") as writer:
                    writer.write(Path(tower_doc).read_bytes())
            out, err = child.communicate(timeout=10)
        finally:
            child.kill()
            child.communicate()
        assert (child.returncode, out, err) == (0, expected.stdout, expected.stderr)

    @pytest.mark.parametrize("device", ["/dev/zero", "/dev/null"])
    def test_character_device_is_refused(self, device):
        if not os.path.exists(device):
            pytest.skip(f"no {device}")

        def cap_memory():  # an endless read then ends in MemoryError, not a full machine
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        done = run_python(
            "-m", "hodgeslope.cli", "check-system", device, timeout=10, preexec_fn=cap_memory
        )
        error = f"cannot read document: not a regular file or a FIFO: {device!r}"
        assert (done.returncode, done.stdout, done.stderr) == (
            1,
            json.dumps({"error": error}) + "\n",
            f"invalid input: {error}\n",
        )

    def test_socket_cannot_be_opened(self, capsys, tmp_path):
        path = str(tmp_path / "doc.sock")
        with socket.socket(socket.AF_UNIX) as listener:
            listener.bind(path)
            error = f"cannot read document: [Errno 6] No such device or address: {path!r}"
            assert run_raw(capsys, ["check-system", path]) == (
                1,
                json.dumps({"error": error}) + "\n",
                f"invalid input: {error}\n",
            )


# The command-line grammar as a user reads it in README, written out here
# apart from cli._GRAMMAR: each command's positional values (None for no
# positional) and its options with their valid values.
MODES = ["paper", "conservative"]
SUBSHEAVES = ["semistable", "stable"]
VALID_INTS = ["0", "3", "+3", " 3", "3_0", "٣", "12\n", "9" * 4000]
DOCUMENTS = ["doc.json", "", " -x", "a b", "paper", "search"]
GRAMMAR = {
    "check-system": (DOCUMENTS, {"--mode": MODES}),
    "search": (DOCUMENTS, {"--mode": MODES, "--subsheaf": SUBSHEAVES}),
    "check-oper": (DOCUMENTS, {}),
    "check-connection": (DOCUMENTS, {}),
    "hn-tensor": (DOCUMENTS, {}),
    "verify-inequalities": (None, {"--d-max": VALID_INTS, "--n-max": VALID_INTS}),
    "gallery": (
        ["strictly-semistable", "surjective-not-iso", "injective-not-iso", "unstable-component"],
        {"--g": VALID_INTS, "--d-line": VALID_INTS, "--d0": VALID_INTS},
    ),
}
OPTIONS = sorted({option for _, options in GRAMMAR.values() for option in options} | {"--budget"})
# every prefix an abbreviation could use; none starts "--h", so no token asks for help
PREFIXES = sorted({option[:k] for option in OPTIONS for k in range(3, len(option))})
VALUES = [
    *MODES, *SUBSHEAVES, *GRAMMAR["gallery"][0], *VALID_INTS, *DOCUMENTS,
    "bogus", "Paper", "monotone", "-1", "-3", "1" * 5000, "x", "-", "--", "3.0",
]
TOKEN = st.one_of(
    st.sampled_from(OPTIONS + PREFIXES),
    st.sampled_from(VALUES),
    st.builds("{}={}".format, st.sampled_from(OPTIONS + PREFIXES), st.sampled_from(VALUES)),
)


@st.composite
def well_formed_command_lines(draw) -> list[str]:
    """A known command, some of its options in any order, each with a
    valid value, and its positional somewhere among them."""
    command = draw(st.sampled_from(list(GRAMMAR)))
    positionals, options = GRAMMAR[command]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), max_size=4)) if options else []
    groups = [[o, draw(st.sampled_from(options[o]))] for o in chosen]
    if positionals is not None:
        groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(positionals))])
    return [command, *(token for group in groups for token in group)]


@st.composite
def near_misses(draw) -> list[str]:
    """A well-formed command line with one token after the command
    replaced, or one more token put in."""
    argv = draw(well_formed_command_lines())
    at = draw(st.integers(1, len(argv)))
    keep = draw(st.booleans()) or at == len(argv)
    return [*argv[:at], draw(TOKEN), *argv[at + (not keep):]]


COMMAND_LINE = st.one_of(
    st.just([]),
    well_formed_command_lines(),
    near_misses(),
    st.builds(
        lambda command, rest: [command, *rest],
        st.sampled_from([*GRAMMAR, "bogus", "", "-", "--", "Search"]),
        st.lists(TOKEN, max_size=6),
    ),
)


def parse_outcome(parse, argv: list[str]) -> dict | str:
    """The namespace's fields, or the usage error's text."""
    try:
        return vars(parse(argv))
    except ValueError as exc:
        return str(exc)


def argparse_outcome(argv: list[str]) -> dict | str:
    """What argparse alone makes of the command line, with every argument
    longer than cli.MAX_ECHO cut in the error text as the CLI cuts it (the
    long arguments used here read the same under repr)."""
    outcome = parse_outcome(cli._build_parser().parse_args, argv)
    if isinstance(outcome, str):
        for arg in argv:
            if len(arg) > cli.MAX_ECHO:
                outcome = outcome.replace(arg, arg[: cli.MAX_ECHO] + "…")
    return outcome


class TestCommandLineGrammar:
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(argv=COMMAND_LINE)
    def test_any_command_line_parses_as_argparse_parses_it(self, argv):
        assert parse_outcome(cli._parse, argv) == argparse_outcome(argv)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(argv=well_formed_command_lines())
    def test_well_formed_command_lines_are_read_from_the_table(self, argv):
        args = cli._read(argv)
        assert args is not None
        assert vars(args) == argparse_outcome(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "d", "--mod", "paper"],
            ["search", "d", "--mode=paper"],
            ["search", "--", "d"],
            ["search", "-"],
            ["gallery", "strictly-semistable", "--g", "-1"],
            ["gallery", "strictly-semistable", "--g", "1" * 5000],
            ["verify-inequalities", "--d-max"],
            ["check-oper", "a", "b"],
        ],
    )
    def test_other_command_lines_go_to_argparse(self, argv):
        # abbreviations, --opt=value, "--", "-", negative and oversized
        # ints, a missing value and an extra positional
        assert cli._read(argv) is None
        assert parse_outcome(cli._parse, argv) == argparse_outcome(argv)


class TestParserReuse:
    def test_warm_call_leaves_no_cyclic_garbage(self, tower_doc):
        assert cli.main(["check-system", tower_doc]) == 0
        gc.collect()
        assert cli.main(["check-system", tower_doc]) == 0
        assert gc.collect() == 0

    def test_parser_is_built_on_first_call_only(self):
        # count constructions in a fresh interpreter: importing builds no
        # parser, a well-formed command line builds none either, and the
        # second command line the table does not read (here for its
        # --opt=value form) reuses the parser the first one built
        script = "\n".join(
            [
                "import argparse, contextlib, io",
                "built = []",
                "init = argparse.ArgumentParser.__init__",
                "def counting(self, *args, **kwargs):",
                "    built.append(self)",
                "    init(self, *args, **kwargs)",
                "argparse.ArgumentParser.__init__ = counting",
                "from hodgeslope import cli",
                "counts = [len(built)]",
                "argvs = [['verify-inequalities', '--d-max', '1', '--n-max', '2']]",
                "argvs += 2 * [['verify-inequalities', '--d-max=1', '--n-max', '2']]",
                "for argv in argvs:",
                "    with contextlib.redirect_stdout(io.StringIO()):",
                "        with contextlib.redirect_stderr(io.StringIO()):",
                "            assert cli.main(argv) == 0",
                "    counts.append(len(built))",
                "print(*counts)",
            ]
        )
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr
        after_import, after_well_formed, after_first, after_second = map(
            int, result.stdout.split()
        )
        assert after_import == 0
        assert after_well_formed == 0
        assert after_first > 0
        assert after_second == after_first

    def test_argparse_is_loaded_for_usage_errors_only(self, capsys, tower_doc):
        script = "\n".join(
            [
                "import sys",
                "from hodgeslope import cli",
                "code = cli.main(sys.argv[1:])",
                "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules)",
            ]
        )
        well_formed = ["search", tower_doc, "--mode", "conservative", "--subsheaf", "semistable"]
        usage_error = ["search", tower_doc, "--mode", "bogus"]
        for argv, code, loaded in ((well_formed, 0, "False False"), (usage_error, 1, "True True")):
            result = run_python("-S", "-c", script, *argv)
            assert result.returncode == 0, result.stderr
            report, status = result.stdout.splitlines()
            assert status == f"{code} {loaded}"
            # the same report and summary as in this process
            assert run_raw(capsys, argv) == (code, report + "\n", result.stderr)
        assert "error" in json.loads(report)

    def test_no_option_leaks_between_calls(self, capsys, tmp_path):
        # every component stable, so the strict bounds decide stability
        ctx = GeometricContext(0, 1, 2, omega_semistable=True, omega_stable=True)
        components = (
            BundleData(2, -4, semistable=True, stable=True),
            BundleData(2, 0, semistable=True, stable=True),
        )
        system = HodgeSystem(ctx, components, ISOMORPHISMS)
        doc = write_doc(tmp_path, {"hodge_system": system_to_json(system)})
        fresh = run_python("-c", "from hodgeslope.cli import entry; entry()", "search", doc)
        plain = (fresh.returncode, fresh.stdout, fresh.stderr)
        code, _, _ = run_raw(capsys, ["search", doc, "--mode", "bogus"])
        assert code == 1
        optioned = run_raw(capsys, ["search", doc, "--mode", "paper", "--subsheaf", "stable"])
        assert optioned[0] == 0 and optioned != plain
        assert run_raw(capsys, ["search", doc]) == plain


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_command(self):
        result = run_python(
            "-m", "hodgeslope.cli", "verify-inequalities", "--d-max", "1", "--n-max", "2"
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["all_hold"] is True
        assert report["checked"] == 6
        assert result.stderr == "d=1: 6/6 hold (all hold)\n"


def _fuzz_seeds() -> list[tuple[str, dict]]:
    # each command's document may set only the fields of its own options
    options = {"constraint_mode": "paper"}
    tower = {
        "hodge_system": system_to_json(example_strictly_semistable(2).system),
        "search_options": options,
    }
    declared = {
        "hodge_system": system_to_json(example_surjective_not_iso(2, 3).system),
        "search_options": options,
    }
    searched = {**tower, "search_options": {**options, "subsheaf_mode": "semistable"}}
    filtration = GriffithsFiltration(
        curve(2, char=5),
        (BundleData(1, 0, semistable=True), BundleData(1, 2, semistable=True)),
        transversal=True,
        theta_squares_to_zero=True,
        theta_iso=True,
    )
    graded = ConnectionPair(BundleData(2, 2), flat=True, filtration=filtration)
    bare = ConnectionPair(BundleData(3, 0), flat=True, context=curve(2))
    hn = {
        "profile": [
            {"rank": 1, "degree": 5, "semistable": True},
            {"rank": 2, "degree": 2, "semistable": True},
        ],
        "tensor_with": {"rank": 2, "degree": 0, "semistable": True},
    }
    return [
        ("check-system", tower),
        ("check-system", declared),
        ("search", searched),
        ("check-oper", {"griffiths_filtration": filtration_to_json(filtration)}),
        ("check-connection", {"connection_pair": pair_to_json(graded)}),
        ("check-connection", {"connection_pair": pair_to_json(bare)}),
        ("hn-tensor", {"hn_request": hn}),
    ]


FUZZ_SEEDS = _fuzz_seeds()
JUNK = st.one_of(
    st.lists(st.sampled_from(["paper", 1, None]), max_size=2),
    st.dictionaries(st.sampled_from(["rank", "degree", "paper"]), st.integers(-2, 2), max_size=2),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([10**40, -(10**40), 2**64, -1, 0]),
)


def _mutate(data, node) -> None:
    """Replace or drop one entry of the JSON container ``node``, add one
    beside it, or descend into a child container and mutate there.  Each
    child is equally likely at every level, so a short section such as
    ``search_options`` is hit as often as a long payload."""
    key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    child = node[key]
    if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
        _mutate(data, child)
        return
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace":
        node[key] = data.draw(JUNK)
    elif action == "drop":
        del node[key]
    elif isinstance(node, dict):
        node[data.draw(st.sampled_from(["extra", "rank", "budget"]))] = data.draw(JUNK)
    else:
        node.append(data.draw(JUNK))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


class TestFuzz:
    @pytest.mark.parametrize("command, seed", FUZZ_SEEDS, ids=[c for c, _ in FUZZ_SEEDS])
    def test_seed_is_a_valid_document(self, capsys, fuzz_path, command, seed):
        # a mutation should turn a valid document into a near miss
        fuzz_path.write_text(json.dumps(seed), encoding="utf-8")
        code, report, _ = run(capsys, [command, str(fuzz_path)])
        assert code == 0, report

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_document_ends_in_one_json_line(self, fuzz_path, data):
        command, seed = data.draw(st.sampled_from(FUZZ_SEEDS))
        doc = copy.deepcopy(seed)
        for _ in range(data.draw(st.integers(1, 3))):
            if doc:
                _mutate(data, doc)
        fuzz_path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, str(fuzz_path)])
        assert code in (0, 1, 2)
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)
