"""End-to-end CLI behaviour: formats, schemas, exit codes, determinism."""

from __future__ import annotations

import json
import math
import shutil
import subprocess

import pytest

import mec
from mec.cli import run
from mec.coupling import DENSE_CAP
from conftest import WORKED_P, WORKED_Q


@pytest.fixture
def files(tmp_path):
    def write(name: str, payload) -> str:
        path = tmp_path / name
        if isinstance(payload, str):
            path.write_text(payload, encoding="utf-8")
        else:
            path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return write


def run_json(capsys, args: list[str]) -> dict:
    code = run(args)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out.endswith("}\n")
    return json.loads(out)


def run_error(capsys, args: list[str]) -> tuple[int, str]:
    code = run(args)
    _, err = capsys.readouterr()
    return code, err


class TestGlbCommand:
    def test_bare_arrays(self, capsys, files):
        doc = run_json(
            capsys,
            ["glb", "--p", files("p.json", list(WORKED_P)), "--q", files("q.json", list(WORKED_Q))],
        )
        assert set(doc) == {"glb", "entropy_bits"}
        want = mec.glb(WORKED_P, WORKED_Q)
        assert doc["glb"] == list(want.masses)
        assert doc["entropy_bits"] == mec.shannon_entropy(want.masses)

    def test_byte_identical_across_runs(self, capsys, files):
        args = ["glb", "--p", files("p.json", list(WORKED_P)), "--q", files("q.json", list(WORKED_Q))]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first


class TestCoupleCommand:
    def test_sparse_document_round_trips_bitwise(self, capsys, files):
        doc = run_json(
            capsys,
            ["couple", "--p", files("p.json", list(WORKED_P)), "--q", files("q.json", list(WORKED_Q))],
        )
        assert set(doc) == {
            "n_rows", "n_cols", "entries", "entropy_bits",
            "glb_entropy_bits", "gap_bound_bits",
        }
        m = mec.min_entropy_coupling_sparse(WORKED_P, WORKED_Q)
        assert doc["n_rows"] == m.n_rows and doc["n_cols"] == m.n_cols
        got = [(e["v"], e["i"], e["j"]) for e in doc["entries"]]
        assert got == [(e.value, e.row, e.col) for e in m.entries]
        assert doc["entropy_bits"] == mec.shannon_entropy(m.values())
        assert doc["gap_bound_bits"] == doc["glb_entropy_bits"] + 1.0

    def test_dense_format_emits_the_matrix(self, capsys, files):
        doc = run_json(
            capsys,
            [
                "couple", "--format", "dense",
                "--p", files("p.json", list(WORKED_P)),
                "--q", files("q.json", list(WORKED_Q)),
            ],
        )
        assert "entries" not in doc and "matrix" in doc
        m = mec.min_entropy_coupling_sparse(WORKED_P, WORKED_Q)
        matrix = doc["matrix"]
        assert len(matrix) == 6 and all(len(row) == 6 for row in matrix)
        cells = {(e.row, e.col): e.value for e in m.entries}
        for r in range(6):
            for c in range(6):
                assert matrix[r][c] == cells.get((r, c), 0.0)

    def test_dense_engine_flag(self, capsys, files):
        doc = run_json(
            capsys,
            [
                "couple", "--engine", "dense",
                "--p", files("p.json", list(WORKED_P)),
                "--q", files("q.json", list(WORKED_Q)),
            ],
        )
        m = mec.min_entropy_coupling_dense(WORKED_P, WORKED_Q)
        assert [(e["v"], e["i"], e["j"]) for e in doc["entries"]] == [
            (e.value, e.row, e.col) for e in m.entries
        ]

    def test_dense_engine_over_its_cap_is_an_input_error(self, capsys, files):
        n = DENSE_CAP + 1
        code, err = run_error(
            capsys,
            [
                "couple", "--engine", "dense",
                "--p", files("p.json", [1.0 / n] * n),
                "--q", files("q.json", [1.0]),
            ],
        )
        assert code == 2
        assert "dense engine" in err

    def test_single_document_carries_both_marginals(self, capsys, files):
        doc = run_json(
            capsys,
            ["couple", "--p", files("both.json", {"p": list(WORKED_P), "q": list(WORKED_Q)})],
        )
        assert doc["n_rows"] == 6 and doc["n_cols"] == 6

    def test_missing_q_is_a_field_error(self, capsys, files):
        code, err = run_error(
            capsys, ["couple", "--p", files("p.json", list(WORKED_P))]
        )
        assert code == 2
        assert err.startswith("error: q: missing --q FILE")


class TestCoupleKCommand:
    def test_json_rows(self, capsys, files):
        rows = [[0.5, 0.5], [0.25, 0.5, 0.25], [0.5, 0.5]]
        doc = run_json(capsys, ["couple-k", "--dists", files("d.json", rows)])
        assert set(doc) == {
            "dims", "entries", "entropy_bits", "glb_entropy_bits", "gap_bound_bits",
        }
        assert doc["dims"] == [2, 3, 2]
        joint = mec.min_entropy_joint_k(rows)
        assert [(e["v"], tuple(e["coords"])) for e in doc["entries"]] == [
            (e.value, e.coords) for e in joint.entries
        ]
        kappa = 2  # three marginals need two merge levels
        assert doc["gap_bound_bits"] == doc["glb_entropy_bits"] + kappa
        assert doc["entropy_bits"] <= doc["gap_bound_bits"] + 1e-9

    def test_object_with_dists_key(self, capsys, files):
        doc = run_json(
            capsys,
            ["couple-k", "--dists", files("d.json", {"dists": [[0.5, 0.5], [0.5, 0.5]]})],
        )
        assert doc["dims"] == [2, 2]

    def test_single_row_is_rejected(self, capsys, files):
        code, err = run_error(
            capsys, ["couple-k", "--dists", files("d.json", [[0.5, 0.5]])]
        )
        assert code == 2
        assert "two" in err

    def test_row_errors_name_their_index(self, capsys, files):
        code, err = run_error(
            capsys, ["couple-k", "--dists", files("d.json", [[0.5, 0.5], [0.5, 0.6]])]
        )
        assert code == 2
        assert err.startswith("error: dists[1]: ")


class TestEntropyCommand:
    def test_shannon_by_default(self, capsys, files):
        doc = run_json(capsys, ["entropy", "--p", files("p.json", [0.5, 0.25, 0.25])])
        assert doc == {"entropy_bits": 1.5, "alpha": None}

    def test_renyi_with_alpha(self, capsys, files):
        doc = run_json(
            capsys, ["entropy", "--alpha", "2", "--p", files("p.json", [0.5, 0.5])]
        )
        assert doc["alpha"] == 2.0
        assert doc["entropy_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_alpha_one_is_rejected(self, capsys, files):
        code, err = run_error(
            capsys, ["entropy", "--alpha", "1", "--p", files("p.json", [0.5, 0.5])]
        )
        assert code == 2
        assert err.startswith("error: alpha: ")

    def test_alpha_flag_only_exists_here(self, capsys, files):
        code, _ = run_error(
            capsys,
            ["glb", "--alpha", "2", "--p", files("p.json", [1.0]), "--q", files("q.json", [1.0])],
        )
        assert code == 2


class TestBoundsCommand:
    def test_keys_and_values(self, capsys, files):
        doc = run_json(
            capsys,
            ["bounds", "--p", files("p.json", list(WORKED_P)), "--q", files("q.json", list(WORKED_Q))],
        )
        r = mec.bounds_report(WORKED_P, WORKED_Q)
        assert doc == {
            "H_p": r.h_p,
            "H_q": r.h_q,
            "H_glb": r.h_glb,
            "joint_lower": r.joint_lower,
            "mi_upper": r.mi_upper,
            "cond_lower_x_given_y": r.cond_lower_x_given_y,
            "cond_lower_y_given_x": r.cond_lower_y_given_x,
        }


class TestMetricCommand:
    def test_keys_and_values(self, capsys, files):
        doc = run_json(
            capsys,
            ["metric", "--p", files("p.json", list(WORKED_P)), "--q", files("q.json", list(WORKED_Q))],
        )
        est = mec.metric_estimate(WORKED_P, WORKED_Q)
        assert doc == {"d_hat": est.d_hat, "lower": est.lower, "upper": est.upper}


class TestOracleCheckCommand:
    def test_small_instance_reports_the_gap(self, capsys, files):
        doc = run_json(
            capsys,
            [
                "oracle-check",
                "--p", files("p.json", [0.5, 0.25, 0.25]),
                "--q", files("q.json", [0.75, 0.25]),
            ],
        )
        assert set(doc) == {"opt", "alg", "gap"}
        assert doc["gap"] == doc["alg"] - doc["opt"]
        assert -1e-9 <= doc["gap"] <= 1.0 + 1e-9

    def test_dense_engine_flag(self, capsys, files):
        doc = run_json(
            capsys,
            [
                "oracle-check", "--engine", "dense",
                "--p", files("p.json", [0.5, 0.5]),
                "--q", files("q.json", [0.5, 0.5]),
            ],
        )
        assert doc["opt"] == pytest.approx(1.0, abs=1e-12)
        assert doc["gap"] == pytest.approx(0.0, abs=1e-9)

    def test_grid_over_the_cap_is_an_input_error(self, capsys, files):
        code, err = run_error(
            capsys,
            [
                "oracle-check",
                "--p", files("p.json", list(WORKED_P)),
                "--q", files("q.json", list(WORKED_Q)),
            ],
        )
        assert code == 2
        assert "cap" in err


class TestCsvInputs:
    def test_one_distribution_per_line(self, capsys, files):
        path = files("pair.csv", "0.4,0.3,0.15,0.08,0.04,0.03\n0.44,0.18,0.18,0.15,0.03,0.02\n")
        doc = run_json(capsys, ["couple", "--csv", "--p", path])
        assert doc["n_rows"] == 6 and doc["n_cols"] == 6

    def test_separate_csv_files(self, capsys, files):
        doc = run_json(
            capsys,
            [
                "glb", "--csv",
                "--p", files("p.csv", "0.5,0.5\n"),
                "--q", files("q.csv", "1.0\n"),
            ],
        )
        assert doc["glb"] == [0.5, 0.5]

    def test_couple_k_rows(self, capsys, files):
        path = files("d.csv", "0.5,0.5\n0.25,0.75\n0.5,0.5\n")
        doc = run_json(capsys, ["couple-k", "--csv", "--dists", path])
        assert doc["dims"] == [2, 2, 2]

    def test_missing_second_row(self, capsys, files):
        code, err = run_error(
            capsys, ["bounds", "--csv", "--p", files("p.csv", "0.5,0.5\n")]
        )
        assert code == 2
        assert err.startswith("error: q: missing --q FILE")

    def test_non_numeric_token(self, capsys, files):
        code, err = run_error(
            capsys, ["entropy", "--csv", "--p", files("p.csv", "0.5,abc\n")]
        )
        assert code == 2
        assert "non-numeric" in err

    def test_empty_file(self, capsys, files):
        code, err = run_error(capsys, ["entropy", "--csv", "--p", files("p.csv", "\n\n")])
        assert code == 2
        assert "no rows" in err


class TestInputValidation:
    def test_unreadable_file(self, capsys, tmp_path):
        code, err = run_error(
            capsys, ["entropy", "--p", str(tmp_path / "missing.json")]
        )
        assert code == 2
        assert err.startswith("error: p: cannot read")

    def test_malformed_json(self, capsys, files):
        code, err = run_error(
            capsys, ["entropy", "--p", files("p.json", "{not json")]
        )
        assert code == 2
        assert "not valid JSON" in err

    def test_non_numeric_entry(self, capsys, files):
        code, err = run_error(
            capsys, ["entropy", "--p", files("p.json", [0.5, True])]
        )
        assert code == 2
        assert "expected numbers" in err

    def test_empty_array(self, capsys, files):
        code, err = run_error(capsys, ["entropy", "--p", files("p.json", [])])
        assert code == 2
        assert "non-empty array" in err

    def test_unnormalized_input_names_the_field(self, capsys, files):
        code, err = run_error(
            capsys,
            ["glb", "--p", files("p.json", [0.8, 0.4]), "--q", files("q.json", [1.0])],
        )
        assert code == 2
        assert err.startswith("error: p: ")
        assert "sum" in err

    def test_negative_mass_names_the_field(self, capsys, files):
        code, err = run_error(
            capsys,
            ["glb", "--p", files("p.json", [1.2, -0.2]), "--q", files("q.json", [1.0])],
        )
        assert code == 2
        assert err.startswith("error: p: ")

    @pytest.mark.parametrize(
        "p, fragment",
        [
            ([math.nan, 1.0], "component 0 is not finite"),
            ([math.inf, 1.0], "component 0 is not finite"),
            ([1e308, 1e308], "sum past the largest float"),
        ],
        ids=["nan", "inf", "overflowing-sum"],
    )
    def test_non_finite_input_names_the_field(self, capsys, files, p, fragment):
        doc = files("pq.json", {"p": p, "q": [0.5, 0.5]})
        code, err = run_error(capsys, ["couple", "--p", doc])
        assert code == 2
        assert err.startswith("error: p: ")
        assert fragment in err

    def test_usage_error_without_subcommand(self, capsys):
        code, _ = run_error(capsys, [])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        out, _ = capsys.readouterr()
        assert "glb" in out and "couple" in out


class TestFlags:
    def test_renormalize_rescales(self, capsys, files):
        path = files("p.json", [2.0, 2.0])
        code, _ = run_error(capsys, ["entropy", "--p", path])
        assert code == 2
        doc = run_json(capsys, ["entropy", "--renormalize", "--p", path])
        assert doc["entropy_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_tol_widens_the_normalization_check(self, capsys, files):
        path = files("p.json", [0.5005, 0.5])
        code, _ = run_error(capsys, ["entropy", "--p", path])
        assert code == 2
        doc = run_json(capsys, ["entropy", "--tol", "1e-2", "--p", path])
        assert math.isfinite(doc["entropy_bits"])

    def test_out_writes_the_document(self, capsys, files, tmp_path):
        target = tmp_path / "doc.json"
        code = run(
            ["entropy", "--p", files("p.json", [0.5, 0.5]), "--out", str(target)]
        )
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == {"entropy_bits": 1.0, "alpha": None}

    def test_out_failure_is_an_input_error(self, capsys, files, tmp_path):
        code, err = run_error(
            capsys,
            [
                "entropy",
                "--p", files("p.json", [0.5, 0.5]),
                "--out", str(tmp_path / "no-such-dir" / "doc.json"),
            ],
        )
        assert code == 2
        assert "cannot write" in err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("mec")
        assert exe, "console script 'mec' is not on PATH"
        path = tmp_path / "p.json"
        path.write_text(json.dumps(list(WORKED_P)), encoding="utf-8")
        proc = subprocess.run(
            [exe, "entropy", "--p", str(path)], capture_output=True, text=True
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["entropy_bits"] == mec.shannon_entropy(WORKED_P)
