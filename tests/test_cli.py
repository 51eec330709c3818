from __future__ import annotations

import json
from pathlib import Path

import pytest

from hodgeslope import cli, search_oracle
from hodgeslope.gallery import example_strictly_semistable, example_surjective_not_iso
from hodgeslope.hodge_system import Declared, HodgeSystem, Verdict, system_to_json
from hodgeslope.oper import ConnectionPair, GriffithsFiltration, pair_to_json
from hodgeslope.profiles import SubsystemProfile
from hodgeslope.slope_core import BundleData, GeometricContext


def write_doc(tmp_path: Path, payload: dict, name: str = "doc.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, argv: list[str]) -> tuple[int, dict, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def curve(w: int, char: int = 0) -> GeometricContext:
    return GeometricContext(char, 1, w, omega_semistable=True, omega_stable=True)


@pytest.fixture
def tower_doc(tmp_path):
    system = example_strictly_semistable(2).system
    return write_doc(tmp_path, {"hodge_system": system_to_json(system)})


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
        from hodgeslope.hodge_system import Answer

        fake = Verdict(
            Answer.NO, Answer.NO, SubsystemProfile(((1, 5),)), "oracle"
        )
        monkeypatch.setattr(search_oracle, "verdict_from_search", lambda *a, **k: fake)
        code, report, err = run(capsys, ["check-system", tower_doc])
        assert code == 2
        assert "disagree" in report["error"]
        assert "internal inconsistency" in err

    @pytest.mark.parametrize("semistable", [None, True])
    def test_full_rank_declared_degree_above_component(self, capsys, tmp_path, semistable):
        # a full-rank subsheaf has a torsion quotient, so its degree is at
        # most the component's whatever the attestations say
        system = HodgeSystem(
            curve(2),
            (BundleData(2, 0, semistable=semistable), BundleData(1, 0)),
            Declared((SubsystemProfile(((2, 5),)),)),
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

    def test_budget_exceeded(self, capsys, tower_doc):
        code, report, err = run(capsys, ["search", tower_doc, "--budget", "2"])
        assert code == 1
        assert "budget exceeded" in report["error"]
        assert "invalid input" in err

    def test_document_options_and_flag_override(self, capsys, tmp_path):
        system = example_strictly_semistable(2).system
        doc = write_doc(
            tmp_path,
            {
                "hodge_system": system_to_json(system),
                "search_options": {"budget": 2, "constraint_mode": "conservative"},
            },
        )
        code, report, _ = run(capsys, ["search", doc])
        assert code == 1 and "budget exceeded" in report["error"]
        code, report, _ = run(capsys, ["search", doc, "--budget", "1000"])
        assert code == 0

    def test_byte_determinism_with_parallel(self, capsys, tower_doc):
        outputs = set()
        for argv in (
            ["search", tower_doc],
            ["search", tower_doc],
            ["search", tower_doc, "--parallel"],
        ):
            assert cli.main(argv) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1


class TestCheckOper:
    def test_classical_tower(self, capsys, tmp_path):
        f = GriffithsFiltration(
            curve(2),
            (BundleData(1, 0, semistable=True), BundleData(1, 2, semistable=True)),
            transversal=True,
            theta_squares_to_zero=True,
            theta_iso=True,
        )
        doc = write_doc(tmp_path, {"griffiths_filtration": f.to_json()})
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
        doc = write_doc(tmp_path, {"griffiths_filtration": f.to_json()})
        code, report, _ = run(capsys, ["check-oper", doc])
        assert code == 0
        assert report["generalized_oper"] is False
        assert report["semistable"] == "unknown"
        assert any("not flagged semistable" in r for r in report["reasons"])


class TestCheckConnection:
    def test_flat_characteristic_zero_without_filtration(self, capsys, tmp_path):
        pair = ConnectionPair(BundleData(3, 0), flat=True)
        doc = write_doc(
            tmp_path, {"connection_pair": pair_to_json(pair, context=curve(2))}
        )
        code, report, _ = run(capsys, ["check-connection", doc])
        assert code == 0
        assert report["semistable"] == "yes"

    def test_positive_characteristic_without_filtration(self, capsys, tmp_path):
        pair = ConnectionPair(BundleData(3, 0), flat=True)
        doc = write_doc(
            tmp_path, {"connection_pair": pair_to_json(pair, context=curve(2, char=5))}
        )
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
