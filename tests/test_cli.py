"""End-to-end tests for the command-line interface.

Each test drives ``combgrad.cli.main`` in-process (fast, same entry point the
console script uses) and asserts on exit codes, stdout/stderr protocol, and
written files.  One subprocess test confirms ``python -m combgrad`` works.
"""

import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combgrad import InvalidInput, LPSpec, cli, lpref, supergradient_check
from combgrad.alignment import build_grid, solve_gsa
from combgrad.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


class TestSolve:
    def test_assignment_document(self, tmp_path, capsys):
        inst = write_json(tmp_path / "a.json", {"cost": [[0.0, 1.0], [2.0, 0.0]]})
        code, out, err = run_cli(["solve", "assignment", inst], capsys)
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["kind"] == "assignment"
        assert doc["z_star"] == 0.0
        assert doc["perm"] == [0, 1]
        assert doc["unique"] is True
        assert doc["gengrad"]["d_cost"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["problem"]["cost"] == [[0.0, 1.0], [2.0, 0.0]]
        assert len(doc["duals_u"]) == 2 and len(doc["duals_v"]) == 2

    def test_gsa_document_from_match_costs(self, tmp_path, capsys):
        inst = write_json(tmp_path / "g.json", {"match_costs": [[1.0, 1.0]], "gamma": 1.5})
        code, out, _ = run_cli(["solve", "gsa", inst], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "gsa"
        assert doc["z_star"] == pytest.approx(2.5)
        assert doc["path"] == "PD"
        assert doc["unique"] is False
        G = np.asarray(doc["gengrad"]["d_match_costs"])
        m = np.asarray(doc["problem"]["match_costs"])
        assert float((G * m).sum()) == pytest.approx(doc["z_star"])

    def test_gsa_document_from_log_probabilities(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3, 4))
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        targets = [2, 0, 1]
        inst = write_json(
            tmp_path / "g.json",
            {"logp": logp.tolist(), "targets": targets, "gamma": 1.5},
        )
        code, out, _ = run_cli(["solve", "gsa", inst], capsys)
        assert code == 0
        doc = json.loads(out)
        Y = np.eye(4)[targets]
        expected = solve_gsa(build_grid(logp, Y, 1.5))
        assert doc["z_star"] == pytest.approx(expected.z_star)
        assert doc["path"] == expected.step_string()

    def test_gsa_document_with_many_classes(self, tmp_path, capsys):
        # 200 000 classes: the target rows are one row long, not an
        # identity table of 200 000 squared floats.
        d = 200_000
        inst = write_json(tmp_path / "g.json", {"logp": [[-math.log(d)] * d], "targets": [d - 1], "gamma": 1.5})
        code, out, err = run_cli(["solve", "gsa", inst], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["z_star"] == pytest.approx(math.log(d))
        code, out, err = run_cli(["gradcheck", "gsa", inst, "--trials", "4"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True

    def test_lp_document(self, tmp_path, capsys):
        inst = write_json(
            tmp_path / "lp.json",
            {"c": [1.0, 2.0], "A": [[1.0, 1.0]], "b": [1.0]},
        )
        code, out, _ = run_cli(["solve", "lp", inst], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["z_star"] == pytest.approx(1.0)
        assert doc["u_star"] == pytest.approx([1.0, 0.0])
        assert doc["v_star"] == pytest.approx([1.0])
        dA = np.asarray(doc["gengrad"]["d_A"])
        u = np.asarray(doc["u_star"])
        v = np.asarray(doc["v_star"])
        assert np.allclose(dA, -np.outer(v, u))
        assert doc["gengrad"]["d_c"] == doc["u_star"]
        assert doc["gengrad"]["d_b"] == doc["v_star"]

    def test_out_flag_writes_file_not_stdout(self, tmp_path, capsys):
        inst = write_json(tmp_path / "a.json", {"cost": [[0.0, 1.0], [2.0, 0.0]]})
        target = tmp_path / "result.json"
        code, out, _ = run_cli(["solve", "assignment", inst, "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["z_star"] == 0.0

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _, err = run_cli(["solve", "assignment", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert err.startswith("error[input]:")

    def test_directory_input_is_input_error(self, tmp_path, capsys):
        code, out, err = run_cli(["solve", "assignment", str(tmp_path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error[input]:") and len(err.splitlines()) == 1

    def test_deeply_nested_input_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"cost": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run_cli(["solve", "assignment", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error[input]: input nests too deeply to read\n"

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["solve", "assignment", str(path)], capsys)
        assert code == 2
        assert err.startswith("error[input]:")
        assert "invalid JSON" in err

    def test_non_object_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        code, _, err = run_cli(["solve", "assignment", str(path)], capsys)
        assert code == 2
        assert "JSON object" in err

    def test_missing_required_key_is_input_error(self, tmp_path, capsys):
        inst = write_json(tmp_path / "a.json", {"costs": [[1.0]]})
        code, _, err = run_cli(["solve", "assignment", inst], capsys)
        assert code == 2
        assert "'cost'" in err

    def test_gsa_missing_gamma_is_input_error(self, tmp_path, capsys):
        inst = write_json(tmp_path / "g.json", {"match_costs": [[1.0]]})
        code, _, err = run_cli(["solve", "gsa", inst], capsys)
        assert code == 2
        assert "gamma" in err

    @pytest.mark.parametrize("costs, gamma", [([[1e308, 1e308]], 1.5), ([[1e308], [1e308]], 3.7)])
    def test_gsa_costs_that_overflow_a_path_are_input_errors(self, tmp_path, capsys, costs, gamma):
        inst = write_json(tmp_path / "g.json", {"match_costs": costs, "gamma": gamma})
        code, out, err = run_cli(["solve", "gsa", inst], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error[input]:") and "overflow" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("cost", [[[1e308, -1e308], [-1e308, 1e308]], [[1e308] * 2] * 2, [[5e307] * 4] * 4])
    def test_assignment_costs_that_overflow_a_sum_are_input_errors(self, tmp_path, capsys, cost):
        inst = write_json(tmp_path / "a.json", {"cost": cost})
        code, out, err = run_cli(["solve", "assignment", inst], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error[input]:") and "overflow" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "logp, targets",
        [
            ([[0.0]], [0, 1]),  # class index past the last class
            (None, [0]),
            ([0.0, -1.0], [0]),  # 1-D
            ([[0.0, -1.0]], [-1e308]),
            ([[0.0, -1.0]], [-1]),
            ([[0.0, -1.0]], [0.7]),
        ],
    )
    def test_gsa_bad_logp_or_targets_are_input_errors(self, tmp_path, capsys, logp, targets):
        inst = write_json(tmp_path / "g.json", {"logp": logp, "targets": targets, "gamma": 1.5})
        code, out, err = run_cli(["solve", "gsa", inst], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error[input]:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "problem",
        [
            {"c": [1e308, 1e308], "A": [[1, 1]], "b": [1e308]},  # z* = c.u* overflows
            {"c": [1], "A": [[1e-5]], "b": [1e300]},  # z* is finite, -outer(v*, u*) is not
        ],
    )
    def test_lp_data_that_overflow_are_one_input_error_line(self, tmp_path, problem):
        # A subprocess, so numpy warnings would reach stderr as they do for a
        # user instead of being collected by pytest.
        inst = write_json(tmp_path / "lp.json", problem)
        proc = subprocess.run(
            [sys.executable, "-m", "combgrad", "solve", "lp", inst], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert re.fullmatch(r"error\[input\]: [^\n]*overflow[^\n]*\n", proc.stderr), proc.stderr

    def test_infeasible_lp_exits_three(self, tmp_path, capsys):
        inst = write_json(tmp_path / "lp.json", {"c": [1.0], "A": [[1.0]], "b": [-1.0]})
        code, _, err = run_cli(["solve", "lp", inst], capsys)
        assert code == 3
        assert err.startswith("error[solver]:")
        assert "infeasible" in err

    def test_unbounded_lp_exits_three(self, tmp_path, capsys):
        inst = write_json(
            tmp_path / "lp.json",
            {"c": [-1.0, 0.0], "A": [[1.0, -1.0]], "b": [0.0]},
        )
        code, _, err = run_cli(["solve", "lp", inst], capsys)
        assert code == 3
        assert err.startswith("error[solver]:")
        assert "unbounded" in err

    def test_exhausted_pivot_budget_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lpref, "_MAX_PIVOTS", 1)
        inst = write_json(tmp_path / "lp.json", {"c": [1.0, 2.0], "A": [[1.0, 1.0]], "b": [1.0]})
        code, out, err = run_cli(["solve", "lp", inst], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error[solver]:") and "pivot budget" in err
        assert len(err.splitlines()) == 1


_VALID_DOCUMENTS = {
    "assignment": {"cost": [[1.0, 2.0], [3.0, 1.0]]},
    "gsa": {"match_costs": [[1.0, 2.0], [0.5, 1.0]], "gamma": 1.5},
    "gsa-logp": {"logp": [[-0.1, -2.4], [-1.2, -0.4]], "targets": [0, 1], "gamma": 1.5},
    "lp": {"c": [1.0, 2.0], "A": [[1.0, 1.0]], "b": [1.0]},
}
_NON_NUMBERS = [True, False, "2", "1.5", None, {"x": 1}, 10**400, -(10**400)]


def _plant(value, bad):
    """`value` with its first leaf replaced by `bad` (an empty list gains
    `bad` as its one item)."""
    if isinstance(value, list):
        return [_plant(value[0], bad)] + value[1:] if value else [bad]
    return bad


class TestNumericFields:
    """Every numeric document field takes JSON numbers only: ints and floats
    that fit a float, never booleans, strings or overflowing integers."""

    @pytest.mark.parametrize("bad", _NON_NUMBERS, ids=lambda bad: json.dumps(bad)[:12])
    @pytest.mark.parametrize(
        "name, key", [(name, key) for name, doc in _VALID_DOCUMENTS.items() for key in doc]
    )
    def test_a_non_number_in_a_numeric_field_exits_two(self, tmp_path, capsys, name, key, bad):
        doc = dict(_VALID_DOCUMENTS[name])
        doc[key] = _plant(doc[key], bad)
        inst = write_json(tmp_path / "doc.json", doc)
        code, out, err = run_cli(["solve", name.split("-")[0], inst], capsys)
        assert code == 2
        assert out == ""
        assert re.fullmatch(rf"error\[input\]: '{key}' [^\n]+\n", err), err

    @pytest.mark.parametrize("name", ["assignment", "gsa", "lp"])
    def test_whole_numbers_solve_like_their_floats(self, tmp_path, capsys, name):
        def ints(value):
            return [ints(v) for v in value] if isinstance(value, list) else int(value) if value == int(value) else value

        doc = _VALID_DOCUMENTS[name]
        kind = name.split("-")[0]
        _, want, _ = run_cli(["solve", kind, write_json(tmp_path / "f.json", doc)], capsys)
        whole = {key: ints(value) for key, value in doc.items()}
        assert json.dumps(whole) != json.dumps(doc)
        code, got, err = run_cli(["solve", kind, write_json(tmp_path / "i.json", whole)], capsys)
        assert (code, err) == (0, "")
        assert got == want

    @pytest.mark.parametrize(
        "kind, field", [("assignment", "d_cost"), ("gsa", "d_match_costs"), ("lp", "d_c"), ("lp", "d_b")]
    )
    @pytest.mark.parametrize("bad", [True, "0", 10**400], ids=["true", "string", "huge"])
    def test_a_non_number_in_a_reported_gradient_exits_two(self, tmp_path, capsys, kind, field, bad):
        inst = write_json(tmp_path / "inst.json", _VALID_DOCUMENTS[kind])
        code, out, _ = run_cli(["solve", kind, inst], capsys)
        assert code == 0
        solved = json.loads(out)
        solved["gengrad"][field] = _plant(solved["gengrad"][field], bad)
        code, out, err = run_cli(["gradcheck", kind, write_json(tmp_path / "solved.json", solved)], capsys)
        assert code == 2
        assert out == ""
        assert re.fullmatch(rf"error\[input\]: '{field}' [^\n]+\n", err), err


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


class TestGradcheck:
    def _solve_to_file(self, tmp_path, capsys, kind, problem):
        inst = write_json(tmp_path / "inst.json", problem)
        solved = tmp_path / "solved.json"
        code, _, _ = run_cli(["solve", kind, inst, "--out", str(solved)], capsys)
        assert code == 0
        return str(solved)

    def test_assignment_roundtrip_passes(self, tmp_path, capsys):
        solved = self._solve_to_file(
            tmp_path, capsys, "assignment", {"cost": [[0.0, 1.0], [2.0, 0.0]]}
        )
        code, out, err = run_cli(["gradcheck", "assignment", solved, "--trials", "40"], capsys)
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["passed"] is True
        cert = doc["certificate"]
        assert cert["dual_feasibility_violation"] <= 1e-9
        assert cert["complementary_slackness_violation"] <= 1e-9
        assert cert["duality_gap"] <= 1e-9

    def test_gsa_roundtrip_passes(self, tmp_path, capsys):
        solved = self._solve_to_file(
            tmp_path,
            capsys,
            "gsa",
            {"match_costs": [[0.3, 1.2, 0.4], [0.9, 0.2, 1.1]], "gamma": 1.5},
        )
        code, out, _ = run_cli(["gradcheck", "gsa", solved, "--trials", "40"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["supergradient"]["worst_violation"] <= 1e-9

    def test_lp_roundtrip_passes(self, tmp_path, capsys):
        solved = self._solve_to_file(
            tmp_path,
            capsys,
            "lp",
            {"c": [1.0, 2.0], "A": [[1.0, 1.0]], "b": [1.0]},
        )
        code, out, _ = run_cli(["gradcheck", "lp", solved], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["degenerate"] is False
        for block in ("c_block", "b_block", "A_block"):
            assert doc[block]["passed"] is True

    @pytest.mark.parametrize(
        "kind,problem",
        [
            ("assignment", {"cost": [[0.3, 1.4, 0.7], [0.9, 0.1, 1.3], [0.5, 0.8, 0.2]]}),
            ("gsa", {"match_costs": [[0.3, 1.2, 0.4], [0.9, 0.2, 1.1]], "gamma": 1.5}),
            ("lp", {"c": [1.0, 2.0], "A": [[1.0, 1.0]], "b": [1.0]}),
        ],
    )
    def test_perturbed_gradient_fails(self, tmp_path, capsys, kind, problem):
        inst = write_json(tmp_path / "inst.json", problem)
        code, out, err = run_cli(
            ["gradcheck", kind, inst, "--perturb-grad", "--trials", "60"], capsys
        )
        assert code == 1
        assert f"error[check]: {kind} gradient check failed" in err
        doc = json.loads(out)
        assert doc["passed"] is False

    def _lp_document(self, tmp_path, capsys):
        solved = self._solve_to_file(tmp_path, capsys, "lp", {"c": [1.0, 2.0, 3.0], "A": [[1.0, 1.0, 1.0]], "b": [1.0]})
        with open(solved) as f:
            return json.load(f)

    def test_lp_matrix_block_that_is_not_the_outer_product_fails(self, tmp_path, capsys):
        doc = self._lp_document(tmp_path, capsys)
        doc["gengrad"]["d_A"] = [[999.0, 999.0, 999.0]]
        code, out, err = run_cli(["gradcheck", "lp", write_json(tmp_path / "edited.json", doc)], capsys)
        assert code == 1
        assert err == "error[check]: lp gradient check failed\n"
        report = json.loads(out)
        assert report["passed"] is False
        assert all(report[block]["passed"] for block in ("c_block", "b_block", "A_block"))
        assert report["note"] == "d_A differs from -outer(d_b, d_c) by up to 1000.0"
        # Within --tol it passes: the block is compared, not required to be exact.
        doc["gengrad"]["d_A"] = [[-1.0 + 1e-12, 0.0, 0.0]]
        edited = write_json(tmp_path / "edited.json", doc)
        assert run_cli(["gradcheck", "lp", edited], capsys)[0] == 0
        assert run_cli(["gradcheck", "lp", edited, "--tol", "1e-13"], capsys)[0] == 1

    @pytest.mark.parametrize("key", ["problem", "gengrad"])
    @pytest.mark.parametrize("value", ["d_c", [1.0], 0, None])
    def test_a_section_that_is_not_an_object_exits_two(self, tmp_path, capsys, key, value):
        doc = dict(self._lp_document(tmp_path, capsys), **{key: value})
        code, out, err = run_cli(["gradcheck", "lp", write_json(tmp_path / "edited.json", doc)], capsys)
        assert (code, out, err) == (2, "", f"error[input]: {key!r} must be a JSON object\n")

    def test_degenerate_lp_is_flagged_not_failed(self, tmp_path, capsys):
        inst = write_json(
            tmp_path / "lp.json",
            {
                "c": [1.0, 1.0, 1.0],
                "A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                "b": [1.0, 0.0],
            },
        )
        code, out, err = run_cli(["gradcheck", "lp", inst], capsys)
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["degenerate"] is True
        assert isinstance(doc["note"], str) and doc["note"]

    @pytest.mark.parametrize("kind", ["assignment", "gsa", "lp"])
    def test_random_suite_passes(self, capsys, kind):
        code, out, err = run_cli(["gradcheck", kind, "--trials", "6"], capsys)
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["instances"] == 6

    def test_random_suite_perturbed_fails(self, capsys):
        code, out, err = run_cli(
            ["gradcheck", "assignment", "--trials", "4", "--perturb-grad"], capsys
        )
        assert code == 1
        assert "error[check]:" in err
        assert json.loads(out)["passed"] is False

    # Reports frozen from the implementation with one check and one suite
    # loop per kind written twice; a rewrite must reproduce them bitwise.
    @pytest.mark.parametrize(
        "kind,flags,expected",
        [
            ("assignment", ["--trials", "40"], {
                "certificate": {"complementary_slackness_violation": 0.0, "dual_feasibility_violation": 0.0, "duality_gap": 0.0},
                "kind": "assignment", "passed": True, "supergradient": {"trials": 40, "worst_violation": 0.0},
            }),
            ("assignment", ["--trials", "60", "--perturb-grad"], {
                "certificate": {"complementary_slackness_violation": 0.0, "dual_feasibility_violation": 0.0, "duality_gap": 0.0},
                "kind": "assignment", "passed": False, "supergradient": {"trials": 60, "worst_violation": 0.15241753736252717},
            }),
            ("gsa", ["--trials", "40"], {
                "kind": "gsa", "passed": True, "supergradient": {"trials": 40, "worst_violation": 0.0},
            }),
            ("gsa", ["--trials", "60", "--perturb-grad"], {
                "kind": "gsa", "passed": False, "supergradient": {"trials": 60, "worst_violation": 0.18533677260305736},
            }),
            ("lp", [], {
                "A_block": {"abs_err": 2.5445312523686425e-11, "analytic": -0.6821783624678455, "numeric": -0.6821783624932908, "passed": True, "rel_err": 2.5445312523686425e-11},
                "b_block": {"abs_err": 3.1413760481768804e-12, "analytic": 0.7901850990112651, "numeric": 0.7901850990144065, "passed": True, "rel_err": 3.1413760481768804e-12},
                "c_block": {"abs_err": 3.3439362390197402e-12, "analytic": -0.2281576374629646, "numeric": -0.22815763746630854, "passed": True, "rel_err": 3.3439362390197402e-12},
                "degenerate": False, "kind": "lp", "passed": True,
            }),
            ("lp", ["--perturb-grad"], {
                "A_block": {"abs_err": 0.3837253288627177, "analytic": -1.0659036913560085, "numeric": -0.6821783624932908, "passed": False, "rel_err": 0.3599999999761279},
                "b_block": {"abs_err": 0.1975462747496749, "analytic": 0.9877313737640814, "numeric": 0.7901850990144065, "passed": False, "rel_err": 0.1975462747496749},
                "c_block": {"abs_err": 0.057039409362397236, "analytic": -0.2851970468287058, "numeric": -0.22815763746630854, "passed": False, "rel_err": 0.057039409362397236},
                "degenerate": False, "kind": "lp", "passed": False,
            }),
        ],
    )
    def test_roundtrip_report_is_byte_identical_to_the_frozen_report(self, tmp_path, capsys, kind, flags, expected):
        problems = {
            "assignment": {"cost": [[0.0, 1.0], [2.0, 0.0]]},
            "gsa": {"match_costs": [[0.3, 1.2, 0.4], [0.9, 0.2, 1.1]], "gamma": 1.5},
            "lp": {"c": [1.0, 2.0], "A": [[1.0, 1.0]], "b": [1.0]},
        }
        solved = self._solve_to_file(tmp_path, capsys, kind, problems[kind])
        _, out, _ = run_cli(["gradcheck", kind, solved] + flags, capsys)
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("assignment", {"instances": 6, "kind": "assignment", "passed": True, "worst_certificate_violation": 0.0, "worst_violation": 4.440892098500626e-16}),
            ("gsa", {"instances": 6, "kind": "gsa", "passed": True, "worst_violation": 8.881784197001252e-16}),
        ],
    )
    def test_suite_report_keeps_every_frozen_field(self, capsys, kind, expected):
        _, out, _ = run_cli(["gradcheck", kind, "--trials", "6"], capsys)
        doc = json.loads(out)
        assert {key: doc[key] for key in expected} == expected
        assert doc["failed"] == 0 and doc["degenerate_flagged"] == 0
        assert set(doc) == set(expected) | {"failed", "degenerate_flagged"}


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

BAGS_CONFIG = {
    "loss": "matching",
    "feed": "softmax",
    "bag_size": 4,
    "epochs": 1,
    "lr": 1e-3,
    "batch_size": 32,
    "dataset": {"n": 200, "num_classes": 4, "feature_dim": 5, "separation": 2.0, "seed": 7},
}

SEQ_CONFIG = {
    "loss": "gsa",
    "feed": "softmax",
    "gamma": 1.5,
    "epochs": 1,
    "lr": 1e-3,
    "batch_size": 16,
    "dataset": {"n": 40, "min_len": 3, "max_len": 4, "seed": 5},
}


class TestTrain:
    def test_bags_writes_metrics_and_checkpoint(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_json(tmp_path / "cfg.json", BAGS_CONFIG)
        code, out, err = run_cli(["train", "bags", cfg], capsys)
        assert code == 0
        assert err == ""
        echo = json.loads(out)
        assert echo["task"] == "bags"
        assert echo["config"]["bag_size"] == 4
        assert echo["config"]["seed"] == 1729  # default seed injected
        assert echo["dataset"]["n"] == 200
        assert echo["metrics_path"] == "bags_metrics.csv"
        assert echo["checkpoint_path"] == "bags_metrics.params.txt"

        with open(tmp_path / "bags_metrics.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "split", "metric", "value", "seconds"]
        assert len(rows) > 1
        assert (tmp_path / "bags_metrics.params.txt").read_text().startswith(
            "combgrad-params v1"
        )

    def test_out_flag_renames_both_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_json(tmp_path / "cfg.json", BAGS_CONFIG)
        code, out, _ = run_cli(
            ["train", "bags", cfg, "--out", str(tmp_path / "run7.csv")], capsys
        )
        assert code == 0
        assert (tmp_path / "run7.csv").exists()
        assert (tmp_path / "run7.params.txt").exists()
        assert json.loads(out)["checkpoint_path"] == str(tmp_path / "run7.params.txt")

    def test_seq_task_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_json(tmp_path / "cfg.json", SEQ_CONFIG)
        code, out, err = run_cli(["train", "seq", cfg], capsys)
        assert code == 0
        assert err == ""
        with open(tmp_path / "seq_metrics.csv") as f:
            rows = list(csv.reader(f))
        epochs = {int(r[0]) for r in rows[1:]}
        assert epochs == {0, 1}
        assert (tmp_path / "seq_metrics.params.txt").exists()

    @pytest.mark.parametrize("task,config", [("bags", BAGS_CONFIG), ("seq", SEQ_CONFIG)])
    def test_dataset_seed_defaults_to_the_run_seed(self, task, config, tmp_path, capsys):
        unseeded = {k: v for k, v in config["dataset"].items() if k != "seed"}
        for seed in (5, 6):
            cfg = write_json(tmp_path / "cfg.json", dict(config, dataset=unseeded))
            code, out, _ = run_cli(["train", task, cfg, "--seed", str(seed), "--out", str(tmp_path / "m.csv")], capsys)
            assert code == 0
            assert json.loads(out)["dataset"]["seed"] == seed
        # A seed the override names wins over --seed.
        named = config["dataset"]["seed"]
        cfg = write_json(tmp_path / "cfg.json", config)
        code, out, _ = run_cli(["train", task, cfg, "--seed", str(named + 1), "--out", str(tmp_path / "m.csv")], capsys)
        assert code == 0
        assert json.loads(out)["dataset"]["seed"] == named

    def test_unwritable_metrics_path_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("trained although the metrics file cannot be written")

        monkeypatch.setitem(cli._TRAINERS, "bags", (cli.BagDatasetSpec, never))
        cfg = write_json(tmp_path / "cfg.json", BAGS_CONFIG)
        target = tmp_path / "missing" / "m.csv"
        code, out, err = run_cli(["train", "bags", cfg, "--out", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error[input]: [Errno 2] No such file or directory: {str(target)!r}\n"

    def test_metrics_path_that_is_a_directory_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("trained although the metrics file cannot be written")

        monkeypatch.setitem(cli._TRAINERS, "bags", (cli.BagDatasetSpec, never))
        cfg = write_json(tmp_path / "cfg.json", BAGS_CONFIG)
        code, out, err = run_cli(["train", "bags", cfg, "--out", str(tmp_path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error[input]:") and len(err.splitlines()) == 1

    def test_checkpoint_path_that_is_a_directory_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("trained although the checkpoint file cannot be written")

        monkeypatch.setitem(cli._TRAINERS, "bags", (cli.BagDatasetSpec, never))
        (tmp_path / "m.params.txt").mkdir()
        cfg = write_json(tmp_path / "cfg.json", {"loss": "mle", "epochs": 1, "dataset": {"n": 40, "num_classes": 2}})
        code, out, err = run_cli(["train", "bags", cfg, "--out", str(tmp_path / "m.csv")], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error[input]:") and len(err.splitlines()) == 1
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("dataset", [[], None, 0, "n=40"])
    def test_dataset_that_is_not_an_object_exits_two(self, dataset, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", dict(BAGS_CONFIG, dataset=dataset))
        code, out, err = run_cli(["train", "bags", cfg, "--out", str(tmp_path / "m.csv")], capsys)
        assert code == 2
        assert out == ""
        assert err == "error[input]: 'dataset' must be a JSON object\n"
        assert not (tmp_path / "m.csv").exists()

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        bad = dict(BAGS_CONFIG, momentum=0.9)
        cfg = write_json(tmp_path / "cfg.json", bad)
        code, _, err = run_cli(["train", "bags", cfg, "--out", str(tmp_path / "m.csv")], capsys)
        assert code == 2
        assert err.startswith("error[input]:")
        assert "unknown config keys" in err
        assert "momentum" in err

    @pytest.mark.parametrize(
        "loss,gamma",
        # 1e400 is JSON text that json reads as inf.
        [("gsa", "1.0"), ("gsa", "1e400"), ("mle", "1.0")],
    )
    def test_invalid_gamma_exits_two(self, loss, gamma, tmp_path, capsys):
        doc = json.dumps(dict(SEQ_CONFIG, loss=loss, gamma="GAMMA")).replace('"GAMMA"', gamma)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        code, out, err = run_cli(["train", "seq", str(cfg), "--out", str(tmp_path / "m.csv")], capsys)
        assert code == 2
        assert out == ""  # the config is checked before it is echoed
        assert err.startswith("error[input]:")

    @pytest.mark.parametrize(
        "task,config,dataset",
        [("bags", BAGS_CONFIG, {"n": 2, "num_classes": 2}), ("seq", SEQ_CONFIG, {"n": 2})],
    )
    def test_dataset_without_a_held_out_example_exits_two(self, task, config, dataset, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", dict(config, dataset=dataset))
        code, out, err = run_cli(["train", task, cfg, "--out", str(tmp_path / "m.csv")], capsys)
        assert code == 2
        assert out == ""  # the dataset is checked before the config is echoed
        assert err.startswith("error[input]:") and err.count("\n") == 1
        assert "holds one out" in err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize(
        "config",
        [
            dict(BAGS_CONFIG, bag_size=16, dataset={"n": 10, "num_classes": 2}),
            dict(BAGS_CONFIG, bag_size=16, threshold=1.0, dataset={"n": 200, "num_classes": 10}),
        ],
        ids=["bag larger than the training split", "threshold above the distinct labels a bag can hold"],
    )
    def test_bags_that_can_never_be_kept_exit_two(self, config, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", config)
        code, _, err = run_cli(["train", "bags", cfg, "--out", str(tmp_path / "m.csv")], capsys)
        assert code == 2
        assert err.startswith("error[input]:") and err.count("\n") == 1
        assert not (tmp_path / "m.csv").exists()

    def test_bags_rejects_alignment_loss(self, tmp_path, capsys):
        bad = dict(BAGS_CONFIG, loss="gsa", gamma=1.5)
        cfg = write_json(tmp_path / "cfg.json", bad)
        code, _, err = run_cli(["train", "bags", cfg, "--out", str(tmp_path / "m.csv")], capsys)
        assert code == 2
        assert err.startswith("error[input]:")

    def test_divergent_run_exits_four_with_partial_metrics(self, tmp_path, capsys):
        bad = dict(BAGS_CONFIG, lr=1e308, epochs=2)
        cfg = write_json(tmp_path / "cfg.json", bad)
        target = tmp_path / "diverged.csv"
        with np.errstate(all="ignore"):
            code, _, err = run_cli(["train", "bags", cfg, "--out", str(target)], capsys)
        assert code == 4
        assert err.startswith("error[aborted]:")
        # Partial metrics are flushed even on abort; the checkpoint is not.
        with open(target) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "split", "metric", "value", "seconds"]
        assert not (tmp_path / "diverged.params.txt").exists()

    @pytest.mark.parametrize("task", ["bags", "seq"])
    def test_a_diverging_run_prints_one_stderr_line(self, task, tmp_path):
        # A subprocess with numpy's default error handling, so overflow
        # warnings would reach stderr as they do for a user.  The backend is
        # decided first, so a machine without C warns about that beforehand.
        cfg = write_json(tmp_path / "cfg.json", {"loss": "mle", "lr": 1e308, "epochs": 1, "dataset": {"n": 60}})
        probe = (
            "import sys, warnings; from combgrad import cli, get_backend\n"
            "with warnings.catch_warnings():\n"
            "    warnings.simplefilter('ignore')\n"
            "    get_backend()\n"
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        argv = [sys.executable, "-c", probe, "train", task, cfg, "--out", str(tmp_path / "m.csv")]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 4
        assert re.fullmatch(r"error\[aborted\]: [^\n]*\n", proc.stderr), proc.stderr


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


class TestBench:
    def test_assignment_csv_shape(self, tmp_path, capsys):
        target = tmp_path / "bench.csv"
        code, out, err = run_cli(
            ["bench", "assignment", "--sizes", "4,8", "--repeats", "2", "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert err == ""
        assert out == ""
        with open(target) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["kind", "size", "repeat", "seconds"]
        body = rows[1:]
        assert len(body) == 4
        assert all(r[0] == "assignment" for r in body)
        assert sorted((int(r[1]), int(r[2])) for r in body) == [
            (4, 0),
            (4, 1),
            (8, 0),
            (8, 1),
        ]
        assert all(float(r[3]) > 0.0 for r in body)

    def test_gsa_bench_to_stdout(self, capsys):
        code, out, _ = run_cli(["bench", "gsa", "--sizes", "4", "--repeats", "1"], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        assert rows[0] == ["kind", "size", "repeat", "seconds"]
        assert len(rows) == 2
        assert rows[1][0] == "gsa" and rows[1][1] == "4"

    def test_range_doubles_until_bound(self, tmp_path, capsys):
        target = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            ["bench", "assignment", "--sizes", "3..13", "--repeats", "1", "--out", str(target)],
            capsys,
        )
        assert code == 0
        with open(target) as f:
            sizes = [int(r[1]) for r in list(csv.reader(f))[1:]]
        assert sizes == [3, 6, 12]

    @pytest.mark.parametrize("spec", ["0..8", "8..4", "3,0", ",", "abc"])
    def test_bad_sizes_exit_two(self, capsys, spec):
        code, _, err = run_cli(["bench", "assignment", "--sizes", spec], capsys)
        assert code == 2
        assert err.startswith("error[input]:")

    def test_oversized_request_exits_two(self, capsys):
        code, _, err = run_cli(["bench", "assignment", "--sizes", "9000"], capsys)
        assert code == 2
        assert "not supported" in err


# ---------------------------------------------------------------------------
# numeric flags
# ---------------------------------------------------------------------------


_LP = LPSpec(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0])


def _assignment_instance(tmp_path):
    return write_json(tmp_path / "a.json", {"cost": [[0.0, 1.0], [2.0, 0.0]]})


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gradcheck", "assignment", "INSTANCE", "--trials", "0", "--perturb-grad"],
            ["gradcheck", "assignment", "--trials", "-3"],
            ["gradcheck", "gsa", "--trials", "2.5"],
            ["bench", "gsa", "--sizes", "4", "--repeats", "0"],
            ["bench", "assignment", "--sizes", "4", "--repeats", "-1"],
            ["gradcheck", "lp", "--eps", "0"],
            ["gradcheck", "lp", "--eps", "-1e-5"],
            ["gradcheck", "lp", "--eps", "nan"],
            ["gradcheck", "lp", "--eps", "inf"],
            ["gradcheck", "assignment", "INSTANCE", "--tol", "-1e-9"],
            ["gradcheck", "assignment", "INSTANCE", "--tol", "nan"],
            ["gradcheck", "assignment", "INSTANCE", "--tol", "inf", "--perturb-grad"],
        ],
    )
    def test_vacuous_or_undefined_values_are_usage_errors(self, tmp_path, capsys, argv):
        argv = [_assignment_instance(tmp_path) if a == "INSTANCE" else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error[usage]:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "assignment", "INSTANCE", "--tol", "1e-6"],
            ["solve", "assignment", "INSTANCE", "--seed", "3"],
            ["train", "bags", "INSTANCE", "--tol", "1e-6"],
            ["bench", "assignment", "--sizes", "4", "--tol", "1e-6"],
        ],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(self, tmp_path, capsys, argv):
        argv = [_assignment_instance(tmp_path) if a == "INSTANCE" else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error[usage]:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flag,value,keyword",
        [
            ("--trials", "0", lambda: supergradient_check(abs, np.zeros(1), np.zeros(1), trials=0)),
            ("--tol", "-1", lambda: supergradient_check(abs, np.zeros(1), np.zeros(1), tol=-1.0)),
            ("--eps", "inf", lambda: lpref.check_lp_grads(_LP, lpref.solve_lp(_LP), eps=math.inf)),
        ],
    )
    def test_a_flag_is_rejected_in_the_words_of_its_keyword(self, capsys, flag, value, keyword):
        with pytest.raises(InvalidInput) as info:
            keyword()
        words = re.fullmatch(r"\w+ must be (.+), got .+", str(info.value)).group(1)
        code, _, err = run_cli(["gradcheck", "lp", flag, value], capsys)
        assert code == 2
        assert f"expected {words}, got {value!r}" in err


# ---------------------------------------------------------------------------
# entry point / usage
# ---------------------------------------------------------------------------


class TestEntryPoint:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["solve", "--help"]) == 0

    def test_unknown_command_exits_two(self, capsys):
        code, _, err = run_cli(["transmogrify"], capsys)
        assert code == 2
        assert "error[usage]: invalid command line" in err

    def test_module_invocation(self, tmp_path):
        inst = tmp_path / "a.json"
        inst.write_text(json.dumps({"cost": [[0.0, 1.0], [2.0, 0.0]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "combgrad", "solve", "assignment", str(inst)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["z_star"] == 0.0


# ---------------------------------------------------------------------------
# fuzz: no input or flag value ends in a traceback
# ---------------------------------------------------------------------------

_NUMBERS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 1.5, 1e308, -1e308, math.inf, -math.inf, math.nan, 1e-300]),
    st.floats(-4.0, 4.0),
)
# JSON values that are not numbers: booleans, numeric strings and integers
# beyond the float range.
_ODD = st.sampled_from([True, False, "2", "1e3", 10**400, -(10**400)])
_JUNK = st.one_of(
    _NUMBERS,
    _ODD,
    st.none(),
    st.text(max_size=2),
    st.lists(_NUMBERS, max_size=3),
    st.lists(st.one_of(_NUMBERS, _ODD), max_size=3),
    st.lists(st.lists(_NUMBERS, max_size=3), max_size=3),  # ragged
)
_FLAG_VALUES = st.sampled_from(["-3", "0", "1", "3", "1e-9", "1e-5", "0.5", "1e308", "5e-324", "nan", "inf", "-inf", "x"])
_PROTOCOL_LINE = re.compile(r"error\[(usage|input|check|solver)\]: [^\n]+\n")


@st.composite
def _documents(draw):
    """Shaped instances of every kind, then damaged: a non-number planted in
    one field, keys dropped or replaced by junk, and sometimes wrapped as a
    solve output with a junk gradient."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def vector(size):
        return draw(st.lists(_NUMBERS, min_size=size, max_size=size))

    def matrix(rows, cols):
        return [vector(cols) for _ in range(rows)]

    doc = {
        "cost": matrix(n, n),
        "match_costs": matrix(m, n),
        "gamma": draw(_NUMBERS),
        "logp": matrix(m, n),
        "targets": draw(st.lists(st.one_of(st.integers(-1, 3), _NUMBERS), max_size=3)),
        "c": vector(n),
        "A": matrix(m, n),
        "b": vector(m),
    }
    if draw(st.booleans()):
        # One non-number in an otherwise well-shaped field.
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = _plant(doc[key], draw(_ODD))
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=3)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_JUNK)
    if draw(st.booleans()):
        keys = st.sampled_from(["d_cost", "d_match_costs", "d_c", "d_b", "d_A"])
        doc = {"problem": doc, "gengrad": draw(st.one_of(st.dictionaries(keys, _JUNK), _JUNK))}
    return doc


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["solve", "gradcheck"]),
    kind=st.sampled_from(["assignment", "gsa", "lp"]),
    doc=_documents(),
    flags=st.dictionaries(st.sampled_from(["--trials", "--eps", "--tol", "--repeats"]), _FLAG_VALUES, max_size=3),
)
def test_random_documents_and_flags_end_in_an_exit_code_and_one_protocol_line(
    tmp_path_factory, command, kind, doc, flags
):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, kind, str(path)] + [tok for item in flags.items() for tok in item]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        assert not any(map(_holds_a_non_number, _numeric_fields_read(command, kind, doc)))
    else:
        assert _PROTOCOL_LINE.fullmatch(err.getvalue()), err.getvalue()


def _holds_a_non_number(value) -> bool:
    if isinstance(value, list):
        return any(map(_holds_a_non_number, value))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    try:
        float(value)
    except OverflowError:
        return True
    return False


def _numeric_fields_read(command, kind, doc) -> list:
    """The values of the numeric fields a command reads from `doc`."""
    problem = doc.get("problem", doc)
    keys = {
        "assignment": ["cost"],
        "gsa": ["gamma"] + (["match_costs"] if "match_costs" in problem else ["logp", "targets"]),
        "lp": ["c", "A", "b"],
    }[kind]
    values = [problem[key] for key in keys if key in problem]
    gengrad = doc.get("gengrad") if command == "gradcheck" else None
    if isinstance(gengrad, dict):
        keys = {"assignment": ["d_cost"], "gsa": ["d_match_costs"], "lp": ["d_c", "d_b", "d_A"]}[kind]
        values += [gengrad[key] for key in keys if key in gengrad]
    return values


# ---------------------------------------------------------------------------
# fuzz: tiny training runs, unreadable inputs and unwritable outputs
# ---------------------------------------------------------------------------

# Each config key, then each dataset key of a task ("dataset." and its
# name), with values that are valid and values that are not: out of range,
# of the wrong type, or valid only for the other task.  epochs, loss and n
# are always set, so a run is at most one epoch over at most 60 examples.
_CONFIG_KEYS = {
    "epochs": ([1], [0, 1.0, True, "1"]),
    "feed": (["softmax", "gumbel_st"], ["", None]),
    "bag_size": ([1, 2, 4], [0, -1, 2.5, 100, 10**400]),
    "gamma": ([1.5, 3.0], [1.0, math.nan, "1.5"]),
    "lr": ([1e-2, 1e-3], [0.0, -1.0, math.inf, 1e308]),
    "batch_size": ([1, 8, 32], [0, 2.5]),
    "seed": ([0, 5], [-1, True]),
    "threshold": ([0.25, 0.5], [0.0, 1.5]),
}
_TASK_KEYS = {
    "bags": {
        "loss": (["mle", "matching"], ["gsa", "hinge"]),
        "dataset.n": ([10, 24, 60], [2, -1, 2.5, 10**7, None]),
        "dataset.num_classes": ([2, 3, 10], [1, 0, 10**6]),
        "dataset.feature_dim": ([1, 4], [0, -1, 10**6]),
        "dataset.separation": ([0.0, 1.5], [math.nan, math.inf, 10**400]),
        "dataset.seed": ([0, 7], [-1, True]),
    },
    "seq": {
        "loss": (["mle", "gsa"], ["matching", "hinge"]),
        "dataset.n": ([3, 20, 60], [2, -1, 10**7]),
        "dataset.vocab": ([3, 4, 6], [2, 10**12, "x"]),
        "dataset.min_len": ([1, 2], [0, 9]),
        "dataset.max_len": ([3, 5], [0, 2000]),
        "dataset.p_drop": ([0.0, 0.1], [-0.1, 1.0]),
        "dataset.p_insert": ([0.0, 0.05], [math.nan, 1.0]),
        "dataset.seed": ([0, 7], [-1, True]),
    },
}
_ALWAYS_SET = ("epochs", "loss", "dataset.n")
_UNKNOWN_KEYS = ("momentum", "dataset.noise")
_SPECS = {"bags": cli.BagDatasetSpec, "seq": cli.SeqTaskSpec}
_INSTANCES = {
    ("solve", "assignment"): {"cost": [[0.0, 1.0], [2.0, 0.0]]},
    ("gradcheck", "lp"): {"c": [1.0, 2.0], "A": [[1.0, 1.0]], "b": [1.0]},
}
_RUN_LINE = re.compile(r"error\[(input|aborted)\]: [^\n]+\n")


@st.composite
def _runs(draw):
    """A command line and the document its input path holds: a training
    config with a dataset override, mostly valid and then damaged in up to
    two keys, or a well-formed instance."""
    command, kind = draw(st.sampled_from([("train", "bags"), ("train", "seq")] * 3 + list(_INSTANCES)))
    if command != "train":
        return command, kind, _INSTANCES[command, kind]
    keys = {**_CONFIG_KEYS, **_TASK_KEYS[kind]}
    values = {}
    for key, (valid, _) in keys.items():
        if key in _ALWAYS_SET or draw(st.booleans()):
            values[key] = draw(st.sampled_from(valid))
    for key in draw(st.lists(st.sampled_from(sorted(keys) + list(_UNKNOWN_KEYS)), max_size=2)):
        values[key] = draw(st.sampled_from(keys[key][1])) if key in keys else 0.9
    config = {key: value for key, value in values.items() if not key.startswith("dataset.")}
    config["dataset"] = {key[8:]: value for key, value in values.items() if key.startswith("dataset.")}
    return command, kind, config


def _not_json(token: str):
    raise ValueError(f"{token} is not JSON")


def _builds(spec_cls, dataset: dict) -> bool:
    try:
        spec_cls(**{"seed": 0, **dataset})
    except (InvalidInput, TypeError):
        return False
    return True


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@example(run=("train", "bags", {"epochs": 1, "loss": "mle", "lr": 1e308, "dataset": {"n": 60}}), source="document", target="file")
@example(run=("train", "bags", {"epochs": 1, "loss": "mle", "gamma": math.nan, "dataset": {"n": 60}}), source="document", target="file")
@example(run=("train", "bags", {"epochs": 1, "loss": "mle", "dataset": {"n": 40, "num_classes": 2}}), source="document", target="checkpoint")
@given(
    run=_runs(),
    source=st.sampled_from(["document"] * 5 + ["directory", "nested", "empty"]),
    target=st.sampled_from(["file"] * 4 + ["directory", "missing directory", "checkpoint"]),
)
def test_random_runs_and_paths_end_in_an_exit_code_and_at_most_one_protocol_line(tmp_path_factory, run, source, target):
    command, kind, doc = run
    tmp = tmp_path_factory.mktemp("run")
    path = tmp / "input.json"
    if source == "directory":
        path.mkdir()
    elif source == "nested":
        path.write_text('{"dataset": ' + "[" * 100_000 + "]" * 100_000 + "}")
    else:
        path.write_text(json.dumps(doc) if source == "document" else "")
    out_path = {"directory": tmp, "missing directory": tmp / "missing" / "out.csv"}.get(target, tmp / "out.csv")
    if target == "checkpoint":
        # The metrics path is a plain file; the checkpoint path beside it is not.
        (tmp / "out.params.txt").mkdir()
    out, err = io.StringIO(), io.StringIO()
    # A run that diverges (lr=1e308) overflows on its way to exit code 4.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        code = main([command, kind, str(path), "--out", str(out_path)])
    assert code in (0, 2, 4)
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_not_json)  # strict JSON: no NaN or Infinity
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert _RUN_LINE.fullmatch(err.getvalue()), err.getvalue()
    # Only training writes a checkpoint.
    if source != "document" or target not in ("file", "checkpoint") or (target, command) == ("checkpoint", "train"):
        assert (code, out.getvalue()) == (2, "")
    elif command == "train" and not _builds(_SPECS[kind], doc["dataset"]):
        # An invalid dataset override stops the run before the config echo.
        assert (code, out.getvalue()) == (2, "")
