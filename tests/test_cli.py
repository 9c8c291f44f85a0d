"""End-to-end CLI behaviour: formats, schemas, exit codes, determinism."""

from __future__ import annotations

import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mec
from mec import cli
from mec.cli import run
from mec.coupling import DENSE_CAP
from conftest import WORKED_P, WORKED_Q, random_masses


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

    @pytest.mark.parametrize("big_side", ["p", "q"])
    def test_dense_format_over_the_cap_is_an_input_error(self, capsys, files, monkeypatch,
                                                          big_side):
        def engine_must_not_run(*args):
            raise AssertionError("an engine ran on a document that is refused")

        monkeypatch.setattr(cli, "_walk", engine_must_not_run)
        n = DENSE_CAP + 1
        sides = {"p": [1.0], "q": [1.0]}
        sides[big_side] = [1.0 / n] * n
        code = run([
            "couple", "--format", "dense",
            "--p", files("p.json", sides["p"]),
            "--q", files("q.json", sides["q"]),
        ])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"error: format: --format dense is capped at {DENSE_CAP} ")

    @pytest.mark.parametrize("command", ["couple", "oracle-check"])
    def test_there_is_no_engine_flag(self, capsys, files, command):
        code = run([
            command, "--engine", "dense",
            "--p", files("p.json", [0.5, 0.5]),
            "--q", files("q.json", [0.5, 0.5]),
        ])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "unrecognized arguments: --engine dense" in err

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
        assert err.startswith("error: dists: ")

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

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_rejected(self, capsys, files, alpha):
        code = run(["entropy", "--alpha", alpha, "--p", files("p.json", [0.5, 0.5])])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: alpha: ")

    def test_a_large_alpha_is_finite(self, capsys, files):
        # 0.5 ** 2000 underflows to 0.0
        doc = run_json(capsys, ["entropy", "--alpha", "2000", "--p", files("p.json", [0.5, 0.5])])
        assert doc == {"entropy_bits": 1.0, "alpha": 2000.0}

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
        assert err.startswith("error: p, q: ")


def _seeded_masses(rng: random.Random, n: int, zeros: int) -> list[float]:
    masses = random_masses(rng, n)
    for _ in range(zeros):
        masses.insert(rng.randrange(len(masses) + 1), 0.0)
    return masses


def _golden_inputs(tmp_path) -> dict[str, str]:
    """Seeded input documents, by the name the golden argv lists use."""
    rng = random.Random(20261018)
    docs = {
        "pair": {"p": _seeded_masses(rng, 60, 3), "q": _seeded_masses(rng, 45, 1)},
        "small": {"p": _seeded_masses(rng, 3, 0), "q": _seeded_masses(rng, 4, 0)},
    }
    # k = 12 is drawn last, so the earlier documents keep their draws
    for k in (3, 4, 5, 6, 7, 12):
        docs[f"k{k}"] = [
            _seeded_masses(rng, rng.randint(20, 150), rng.randint(0, 2)) for _ in range(k)
        ]
    paths = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    return paths


class TestGoldenBytes:
    """SHA-256 of stdout on seeded inputs, frozen from the output of
    ``json.dumps(doc, indent=2)`` that preceded the template writer. The
    couple-k digests for k = 3, 5, 6 and 7 are those of the merge tree that
    moves an odd node up a level instead of padding the leaves."""

    GOLDEN = [
        ("couple-sparse-engine-sparse-format", ["couple", "--p", "{pair}"],
         "be6d20298173481a12574d010abefa77468374c34f53a7a0af4b2a1b838d7494"),
        ("couple-sparse-engine-dense-format",
         ["couple", "--format", "dense", "--p", "{pair}"],
         "2d9633a7ba622e7a02dab5ece1ea8ec7eda9aa656765e9cf663878cf5cd55be3"),
        ("couple-k-3", ["couple-k", "--dists", "{k3}"],
         "d5bf42f38da52a2209d5e5de147e502696f195daa4b2aea1b9b1fef2ad8723f6"),
        ("couple-k-4", ["couple-k", "--dists", "{k4}"],
         "f2874e0f8523742b7c8c3cd8df6449317dba4eefd4a6add6dc09c3d2204237cd"),
        ("couple-k-5", ["couple-k", "--dists", "{k5}"],
         "a51f7719300afdb5bb3c0cf9316e5525c329b8d9e2f0cd87838be0ee1da5b0ff"),
        ("couple-k-6", ["couple-k", "--dists", "{k6}"],
         "7a370424a5a5b1f0d898d6f2c5271ee936b8f08bcffa4c2220015dae057a2e6e"),
        ("couple-k-7", ["couple-k", "--dists", "{k7}"],
         "e9a4dd33697dbd535ea61b1404a1946b5b6cda32effd3b9eb5ed0b52c9f8926d"),
        # twelve axes: the root's tags, read as mixed-radix ints, pass 2**64
        ("couple-k-12", ["couple-k", "--dists", "{k12}"],
         "f79527b1b6938af752c7adb742ac7c1f32b99f130ebf8f89914e9652ba7d9f68"),
        ("glb", ["glb", "--p", "{pair}"],
         "8af5bd84bb88f81b01cdcc742d41a20493cbe42fa0e221bbef55551275158949"),
        ("entropy-shannon", ["entropy", "--p", "{pair}"],
         "8b9328491c2ae2d95534d504085750185d5019054c8b5050e1bdacb5afce5316"),
        ("entropy-renyi-2", ["entropy", "--alpha", "2", "--p", "{pair}"],
         "c04697ffa63b10feea8543f5238996b5485bfaca9ec8063cd5e8c2059c9b895c"),
        ("entropy-renyi-half", ["entropy", "--alpha", "0.5", "--p", "{pair}"],
         "dabd5bc7512a428fc10776850d81b7408e35ec9e3d097307fff6c0b606b5c881"),
        ("bounds", ["bounds", "--p", "{pair}"],
         "62cd5be85f1655eec9dfa1448611a5dd61b22dfb985f2349edc23d1f764f2977"),
        ("metric", ["metric", "--p", "{pair}"],
         "fe97dfae15934101d82b0ebeb68dcc5ed0162ce89bd0a72ad7d5f1cc54c8933a"),
        ("oracle-check", ["oracle-check", "--p", "{small}"],
         "9fb41496c0f4d047aaae5c319458cf2317015d3738d31d940849a26a0aa398bd"),
    ]

    @pytest.mark.parametrize("argv, digest", [case[1:] for case in GOLDEN],
                             ids=[case[0] for case in GOLDEN])
    def test_stdout_is_byte_identical(self, capsys, tmp_path, argv, digest):
        paths = _golden_inputs(tmp_path)
        code = run([arg.format(**paths) for arg in argv])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 12])
    def test_couple_k_values_re_read_bit_for_bit(self, capsys, tmp_path, k):
        paths = _golden_inputs(tmp_path)
        doc = run_json(capsys, ["couple-k", "--dists", paths[f"k{k}"]])
        with open(paths[f"k{k}"], encoding="utf-8") as fh:
            joint = mec.min_entropy_joint_k(json.load(fh))
        got = [e["v"] for e in doc["entries"]]
        assert [v.hex() for v in got] == [v.hex() for v in joint.values()]
        assert [tuple(e["coords"]) for e in doc["entries"]] == [e.coords for e in joint.entries]


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, 1e-05, 1e16, 0.1 + 0.2, 1 - 2**-53, -0.0, 2.0**1023]
)
_INTS = st.integers() | st.sampled_from([2**63, -(2**64) - 1, 10**30])
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | st.text(max_size=8)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
_FIELDS = st.dictionaries(
    st.text(max_size=8).filter(lambda key: key != "entries"), _VALUES, max_size=4
)


def document(doc: dict) -> str:
    """The whole text the CLI writes for ``doc``, piece by piece."""
    return "".join(cli._pieces(doc))


class TestDocumentWriter:
    """The one writer is ``json.dumps(doc, indent=2)`` plus a newline, byte
    for byte, whether or not an entry list is rendered from its columns."""

    @settings(max_examples=100, deadline=None)
    @given(fields=_FIELDS.filter(bool))
    def test_scalar_only_documents(self, fields):
        assert document(fields) == json.dumps(fields, indent=2) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(before=_FIELDS, after=_FIELDS,
           rows=st.lists(st.tuples(_INTS, _INTS, _FLOATS), max_size=6))
    def test_pair_entries(self, before, after, rows):
        columns = tuple([row[a] for row in rows] for a in range(3))
        doc = {**before, "entries": cli._Entries(cli._PAIR_ENTRY, columns), **after}
        want = {**before, "entries": [{"i": i, "j": j, "v": v} for i, j, v in rows], **after}
        # rendered twice: the columns are kept, not used up by the first render
        assert document(doc) == document(doc) == json.dumps(want, indent=2) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(before=_FIELDS, after=_FIELDS, k=st.integers(1, 7), data=st.data())
    def test_joint_entries(self, before, after, k, data):
        cells = data.draw(st.lists(
            st.tuples(st.tuples(*[_INTS] * k), _FLOATS), max_size=6
        ))
        columns = (*([c[a] for c, _ in cells] for a in range(k)), [v for _, v in cells])
        doc = {**before, "entries": cli._Entries(cli._joint_entry(k), columns), **after}
        want = {**before, "entries": [{"coords": list(c), "v": v} for c, v in cells], **after}
        assert document(doc) == document(doc) == json.dumps(want, indent=2) + "\n"

    @pytest.mark.parametrize("count", [0, 1, cli._CHUNK, cli._CHUNK + 1, 2 * cli._CHUNK + 1])
    def test_entry_lists_are_written_in_bounded_pieces(self, count):
        rng = random.Random(count)
        rows = [(rng.randrange(10**6), rng.randrange(10**6), rng.random()) for _ in range(count)]
        columns = tuple([row[a] for row in rows] for a in range(3))
        doc = {"n_rows": 10**6, "entries": cli._Entries(cli._PAIR_ENTRY, columns),
               "entropy_bits": 1.5}
        want = {"n_rows": 10**6, "entries": [{"i": i, "j": j, "v": v} for i, j, v in rows],
                "entropy_bits": 1.5}
        assert document(doc) == document(doc) == json.dumps(want, indent=2) + "\n"
        pieces = list(cli._pieces(doc))
        # each entry, and nothing else in a document, holds '"i": '
        counts = [piece.count('"i": ') for piece in pieces]
        assert sum(counts) == count
        assert max(counts) <= cli._CHUNK
        # full pieces: the fewest that hold every entry
        assert sum(map(bool, counts)) == -(-count // cli._CHUNK)

    def test_out_file_has_the_bytes_of_stdout(self, capsys, files, tmp_path):
        rng = random.Random(25)
        rows = [random_masses(rng, n) for n in (4_000, 3_000, 5_000)]
        path = files("d.json", rows)
        code = run(["couple-k", "--dists", path])
        out, err = capsys.readouterr()
        assert code == 0, err
        # the joint spans more than two pieces of the writer
        assert out.count('"coords": ') > 2 * cli._CHUNK
        target = tmp_path / "joint.json"
        code = run(["couple-k", "--dists", path, "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == out.encode("utf-8")


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

    @pytest.mark.parametrize(
        "argv, name, payload, message",
        [
            (["entropy", "--p"], "p.json", "[1" + "0" * 400 + "]",
             "error: p: component 0 is too large for a float"),
            (["couple-k", "--dists"], "d.json", "[[0.5, 0.5], [0.5, 1" + "0" * 400 + "]]",
             "error: dists[1]: component 1 is too large for a float"),
            (["entropy", "--p"], "p.json", b"[0.5, 0.5]\xff", "error: p: {path} is not UTF-8 text"),
            (["glb", "--p", "{good}", "--q"], "q.json", b"\xfe[1.0]",
             "error: q: {path} is not UTF-8 text"),
            (["entropy", "--csv", "--p"], "p.csv", b"0.5,0.5\xff\n",
             "error: p: {path} is not UTF-8 text"),
            (["couple-k", "--csv", "--dists"], "d.csv", b"0.5,0.5\n\xc3\n",
             "error: dists: {path} is not UTF-8 text"),
            (["entropy", "--p"], "p.json", "[" + "1" * 5000 + "]",
             "error: p: {path} is not valid JSON"),
            (["entropy", "--p"], "p.json", "[" * 100_000 + "]" * 100_000,
             "error: p: {path} nests arrays or objects too deeply"),
        ],
        ids=["overflowing-int", "overflowing-int-in-dists", "json-not-utf8",
             "json-not-utf8-q", "csv-not-utf8", "csv-not-utf8-dists",
             "integer-past-the-digit-limit", "deep-nesting"],
    )
    def test_undecodable_input_names_the_field(self, capsys, files, tmp_path,
                                               argv, name, payload, message):
        path = tmp_path / name
        path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
        good = files("good.json", [0.5, 0.5])
        code = run([arg.format(good=good) for arg in argv] + [str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(message.format(path=path))

    def test_usage_error_without_subcommand(self, capsys):
        code, _ = run_error(capsys, [])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        out, _ = capsys.readouterr()
        assert "glb" in out and "couple" in out


_ENTROPY_1_BIT = '{\n  "entropy_bits": 1.0,\n  "alpha": null\n}\n'


def reference_vector(obj: object, field: str) -> list[float]:
    """``cli._vector`` as it stood before its all-float fast path: every item
    checked and converted one by one."""
    if not isinstance(obj, list) or not obj:
        raise mec.InputError(f"{field}: expected a non-empty array of numbers")
    values = []
    for i, x in enumerate(obj):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise mec.InputError(f"{field}: expected numbers, found {x!r}")
        try:
            values.append(float(x))
        except OverflowError as exc:
            raise mec.InputError(f"{field}: component {i} is too large for a float") from exc
    return values


def vector_outcome(obj):
    """The values as (type, float bits), or the type and text raised."""
    try:
        values = cli._vector(obj, "p")
    except Exception as exc:  # noqa: BLE001 - any exception must match the reference's
        return type(exc), str(exc)
    assert values is not obj
    return [(type(v), v.hex()) for v in values]


class TestVectorFastPath:
    """An array of floats only, what ``json.loads`` gives, is copied in one
    pass; any other array gets the old per-item checks, with their values
    and messages."""

    @pytest.mark.parametrize("text", [
        "[0.25, 0.75]",
        "[1, 0]",
        "[0.5, 1]",
        "[0.5, true]",
        "[false, 1.0]",
        '[0.5, "0.5"]',
        "[0.5, [0.5]]",
        "[[0.5, 0.5]]",
        "[0.5, null]",
        "[0.5, {}]",
        "[0.5, 1" + "0" * 400 + "]",
        "[1" + "0" * 400 + ", 0.5]",
        "[NaN, 0.5]",
        "[Infinity, -Infinity]",
        "[-0.0, 1e-320, 1.7976931348623157e308]",
        "[]",
        "{}",
        '"0.5"',
        "0.5",
    ], ids=["floats", "ints", "mixed", "bool", "bool-first", "string", "nested", "nested-only",
            "null", "object", "huge-int", "huge-int-first", "nan", "infinities", "edge-floats",
            "empty", "not-an-array", "string-document", "number-document"])
    def test_same_values_or_same_error(self, text):
        try:
            want = [(type(v), v.hex()) for v in reference_vector(json.loads(text), "p")]
        except mec.InputError as exc:
            want = mec.InputError, str(exc)
        assert vector_outcome(json.loads(text)) == want

    def test_a_float_subclass_takes_the_item_loop(self):
        class Half(float):
            pass

        values = cli._vector([Half(0.5), 0.5], "p")
        assert list(map(type, values)) == [float, float] and values == [0.5, 0.5]


class TestInputPaths:
    """Where each marginal comes from, and the exact bytes each path prints.

    ``{dir}`` in argv, stderr and stdout stands for the directory the files
    are written to, byte for byte as given.
    """

    CASES = [
        ("missing-p", ["glb", "--q", "{dir}/q.json"], {"q.json": "[1.0]"},
         2, "error: p: missing --p FILE\n", ""),
        ("missing-p-entropy", ["entropy"], {}, 2, "error: p: missing --p FILE\n", ""),
        ("missing-dists", ["couple-k"], {}, 2, "error: dists: missing --dists FILE\n", ""),
        ("json-object-without-p", ["entropy", "--p", "{dir}/p.json"],
         {"p.json": '{"q": [1.0]}'}, 2, 'error: p: {dir}/p.json has no "p" key\n', ""),
        ("json-object-without-q", ["glb", "--p", "{dir}/p.json", "--q", "{dir}/q.json"],
         {"p.json": "[1.0]", "q.json": '{"p": [1.0]}'},
         2, 'error: q: {dir}/q.json has no "q" key\n', ""),
        ("json-object-without-dists", ["couple-k", "--dists", "{dir}/d.json"],
         {"d.json": '{"p": [[1.0], [1.0]]}'},
         2, 'error: dists: {dir}/d.json has no "dists" key\n', ""),
        ("json-without-q-anywhere", ["metric", "--p", "{dir}/p.json"],
         {"p.json": '{"p": [1.0]}'},
         2, 'error: q: missing --q FILE (or a "q" key in the --p document)\n', ""),
        # the --q file wins over a valid second row of the --p file
        ("csv-q-file-overrides-second-row",
         ["glb", "--csv", "--p", "{dir}/p.csv", "--q", "{dir}/q.csv"],
         {"p.csv": "0.5,0.5\n0.5,0.5\n", "q.csv": "0.6,0.3\n"},
         2, "error: q: masses sum to 0.8999999999999999, expected 1 within 1e-09\n", ""),
        ("csv-crlf-lines", ["glb", "--csv", "--p", "{dir}/p.csv"],
         {"p.csv": "0.5,0.5\r\n\r\n0.6,0.3\r\n"},
         2, "error: q: masses sum to 0.8999999999999999, expected 1 within 1e-09\n", ""),
        ("csv-crlf-dists", ["couple-k", "--csv", "--dists", "{dir}/d.csv"],
         {"d.csv": "0.5,0.5\r\n1.0\r\n0.5,x\r\n"},
         2, "error: dists: {dir}/d.csv has a non-numeric token: "
            "could not convert string to float: 'x'\n", ""),
        # entropy reads p only: a malformed or missing q is never looked at
        ("entropy-ignores-a-malformed-q", ["entropy", "--p", "{dir}/p.json"],
         {"p.json": '{"p": [0.5, 0.5], "q": "junk"}'}, 0, "", _ENTROPY_1_BIT),
        ("entropy-ignores-a-csv-second-row", ["entropy", "--csv", "--p", "{dir}/p.csv"],
         {"p.csv": "0.5,0.5\r\n0.6,0.3\r\n"}, 0, "", _ENTROPY_1_BIT),
    ]

    @pytest.mark.parametrize("argv, files, code, stderr, stdout",
                             [case[1:] for case in CASES], ids=[case[0] for case in CASES])
    def test_exit_code_and_exact_output(self, capsys, tmp_path, argv, files, code,
                                        stderr, stdout):
        for name, text in files.items():
            # bytes, so a "\r\n" reaches the file as written on every platform
            (tmp_path / name).write_bytes(text.encode("utf-8"))
        def at(text: str) -> str:
            return text.replace("{dir}", str(tmp_path))

        got = run(list(map(at, argv)))
        out, err = capsys.readouterr()
        assert (got, err, out) == (code, at(stderr), at(stdout))


class TestHelpBytes:
    """SHA-256 of each ``--help`` page at 80 columns, frozen from the parser
    that predates reading flags straight from argparse's namespace; those of
    ``couple`` and ``oracle-check`` from the parser without ``--engine``."""

    HELP = [
        ([], "6382f92b5cb2414f9cada8595da785aefab430b28daad32c5ee06fb6fbaa0072"),
        (["glb"], "cef10905f660456448579271edaf7166fd8dad211f633e977a2bd01cfbeb9527"),
        (["couple"], "88c2182965a2a637a9e65e194f32fe24c41a04d21c5cf0cb133f17842c154872"),
        (["couple-k"], "42362e1e4ba4158ca81ffc7629b43e28c01f669ee9f57c8d92b58d28e5c12300"),
        (["entropy"], "1b425fc0083feb3cd536c4fdc65632324e7781164f6f898319d76c4b3cde348c"),
        (["bounds"], "8adec0ea0d4d253a04a0512a901c42e00749adb542c621c86f839e5da9105165"),
        (["metric"], "777fa184bfed95cc8382ccd44b84358ab70d0beabc3f3a5eead081a16598b2bf"),
        (["oracle-check"], "04ce874836e20f6d8fc47e09e99c7867ed10bfe1eb4d23c07ac3b52e970e6dab"),
    ]

    @pytest.mark.parametrize("sub, digest", HELP, ids=["mec"] + [h[0][0] for h in HELP[1:]])
    def test_help_is_byte_identical(self, capsys, monkeypatch, sub, digest):
        # argparse wraps at the terminal width, which COLUMNS sets
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("NO_COLOR", "1")
        assert run(sub + ["--help"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out


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

    # both sums are 1.0005: accepted at --tol 1e-3, rejected at the default
    WIDE_P = [0.6, 0.4005]
    WIDE_Q = [0.5, 0.5005]
    PAIR_COMMANDS = [["glb"], ["couple"], ["bounds"], ["metric"], ["oracle-check"]]

    @staticmethod
    def _stdout(capsys, args: list[str]) -> str:
        code = run(args)
        out, err = capsys.readouterr()
        assert code == 0, err
        return out

    @pytest.mark.parametrize("command", PAIR_COMMANDS, ids=" ".join)
    def test_a_wider_tol_couples_the_rescaled_marginals(self, capsys, files, command):
        p, q = files("p.json", self.WIDE_P), files("q.json", self.WIDE_Q)
        code, err = run_error(capsys, [*command, "--p", p, "--q", q])
        assert code == 2
        assert "expected 1 within 1e-09" in err
        # the document is the one the marginals divided by their totals give
        # at the default tol
        unit_p = files("unit-p.json", [x / math.fsum(self.WIDE_P) for x in self.WIDE_P])
        unit_q = files("unit-q.json", [x / math.fsum(self.WIDE_Q) for x in self.WIDE_Q])
        wide = self._stdout(capsys, [*command, "--tol", "1e-3", "--p", p, "--q", q])
        assert wide == self._stdout(capsys, [*command, "--p", unit_p, "--q", unit_q])

    def test_oracle_check_reports_a_valid_coupling_under_a_wider_tol(self, capsys, files):
        p, q = files("p.json", self.WIDE_P), files("q.json", self.WIDE_Q)
        # exit 0: the engine's coupling passed is_valid_coupling at --tol
        doc = run_json(capsys, ["oracle-check", "--tol", "1e-3", "--p", p, "--q", q])
        assert -1e-12 <= doc["gap"] <= 1.0 + 1e-12

    def test_a_wider_tol_couples_k_rescaled_marginals(self, capsys, files):
        rows = [self.WIDE_P, self.WIDE_Q, [0.25, 0.75]]
        path = files("d.json", rows)
        code, err = run_error(capsys, ["couple-k", "--dists", path])
        assert code == 2
        assert err.startswith("error: dists[0]: ")
        unit = files("unit.json", [[x / math.fsum(row) for x in row] for row in rows])
        wide = self._stdout(capsys, ["couple-k", "--tol", "1e-3", "--dists", path])
        assert wide == self._stdout(capsys, ["couple-k", "--dists", unit])
        margins = mec.axis_marginals(mec.SparseJoint(
            tuple(json.loads(wide)["dims"]),
            [mec.JointEntry(e["v"], tuple(e["coords"])) for e in json.loads(wide)["entries"]],
        ))
        for got, row in zip(margins, rows):
            assert got == pytest.approx([x / math.fsum(row) for x in row], abs=1e-12)

    def test_entropy_under_a_wider_tol_is_that_of_the_rescaled_vector(self, capsys, files):
        doc = run_json(capsys, ["entropy", "--tol", "1e-3", "--p", files("p.json", self.WIDE_P)])
        total = math.fsum(self.WIDE_P)
        assert doc["entropy_bits"] == mec.shannon_entropy([x / total for x in self.WIDE_P])

    @pytest.mark.parametrize("command", [*PAIR_COMMANDS, ["couple-k"], ["entropy"]],
                             ids=" ".join)
    def test_a_total_within_the_default_tol_is_read_as_given(self, capsys, files, command):
        # 5e-10 over 1: the bytes at the default tol are those of the masses
        # as written, and a wider tol does not change them
        p, q = [0.5, 0.5000000005], [0.7, 0.3]
        if command == ["couple-k"]:
            args = ["couple-k", "--dists", files("d.json", [p, q])]
        elif command == ["entropy"]:
            args = ["entropy", "--p", files("p.json", p)]
        else:
            args = [*command, "--p", files("p.json", p), "--q", files("q.json", q)]
        default = self._stdout(capsys, args)
        assert self._stdout(capsys, [*args, "--tol", "1e-3"]) == default
        if command == ["entropy"]:
            assert json.loads(default)["entropy_bits"] == mec.shannon_entropy(p)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_non_negative(self, capsys, files, tol):
        code = run(["entropy", "--tol", tol, "--p", files("p.json", [0.9, 0.9])])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: tol: ")

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


def readme_shell_sessions() -> list[list[tuple[str, str]]]:
    """The ```sh blocks of README.md that show a session: each ``$ `` line
    with the output printed under it, up to the next ``$ `` line, as the
    bytes a command prints (one newline after the last line)."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```sh\n")[1:]
    sessions = []
    for block in blocks:
        lines = block.split("```", 1)[0].splitlines()
        if not lines or not lines[0].startswith("$ "):
            continue
        steps: list[tuple[str, list[str]]] = []
        for line in lines:
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
        session = []
        for command, out in steps:
            text = "\n".join(out).strip("\n")
            session.append((command, text + "\n" if text else ""))
        sessions.append(session)
    return sessions


class TestReadmeExamples:
    def test_cli_examples_print_what_the_readme_shows(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sessions = readme_shell_sessions()
        assert sessions
        ran = []
        for session in sessions:
            for command, expected in session:
                for part in command.split(" && "):
                    argv = shlex.split(part)
                    if argv[0] == "echo":
                        text, redirect, name = argv[1:]
                        assert redirect == ">", part
                        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
                    else:
                        assert argv[0] == "mec", part
                        assert run(argv[1:]) == 0, part
                        out, err = capsys.readouterr()
                        assert err == ""
                        assert out == expected, part
                        ran.append(argv[1])
        assert {"couple", "oracle-check"} <= set(ran)


class TestConsoleScript:
    """The `mec` command declared in pyproject.toml, run as its wrapper runs it.

    Checked from the checkout, so no install step is needed; where a `mec`
    console script is installed, that script must print the same bytes.
    """

    def test_installed_entry_point(self, capsys, files, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts")
        assert scripts == {"mec": "mec.cli:main"}
        module_name, _, attr = scripts["mec"].partition(":")
        assert callable(getattr(importlib.import_module(module_name), attr, None))

        # the code a generated console-script wrapper runs, importing the
        # mec under test rather than any installed copy
        wrapper = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
        src = str(Path(mec.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}

        def mec_command(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-c", wrapper, *args],
                capture_output=True, cwd=tmp_path, env=env,
            )

        args = ["entropy", "--p", files("p.json", list(WORKED_P))]
        assert run(args) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        proc = mec_command(*args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected
        doc = json.loads(proc.stdout)
        assert doc["entropy_bits"] == mec.shannon_entropy(WORKED_P)

        # an input error must reach the shell as run()'s exit status
        proc = mec_command("entropy", "--p", str(tmp_path / "missing.json"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == b""

        installed = importlib.metadata.entry_points(group="console_scripts")
        if "mec" in installed.names:
            exe = shutil.which("mec")
            assert exe, "console script 'mec' is installed but not on PATH"
            proc = subprocess.run([exe, *args], capture_output=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == expected
