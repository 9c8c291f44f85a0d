"""Command-line front end: `mec SUBCOMMAND [flags]`, JSON documents out.

Inputs are JSON (a bare array, or an object with "p" / "q" / "dists" keys;
one document may carry both marginals) or CSV with one distribution per line
when --csv is given. q comes from --q, else from the --p file's second row
or "q" key; `entropy` reads p only. Each subcommand reads its flags straight
off argparse's namespace, so a new flag is one parser line.

Every run is deterministic: the same inputs and flags produce byte-identical
output, and floats are serialized so they re-read bit-for-bit. Every
document is exactly ``json.dumps(doc, indent=2)`` plus a newline; entry
lists are rendered straight from the coupling's or joint's columns, one
fixed template per entry, to the same bytes. They are rendered and written
in pieces of at most ``_CHUNK`` entries, so neither the whole document nor
all of its entry strings are ever held at once.

Exit codes: 0 success; 2 input or usage problem (diagnostic names the
offending field); 3 violated internal invariant.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from collections.abc import Iterator
from itertools import islice, repeat

from .coupling import (
    DENSE_CAP,
    SparseCoupling,
    _finish,
    _walk,
    is_valid_coupling,
)
from .distributions import (
    NORMALIZATION_TOL,
    Distribution,
    make_distribution,
    renyi_entropy,
    shannon_entropy,
)
from .errors import InputError, InternalError
from .majorization import glb
from .multiway import frl_bounds, min_entropy_joint_k
from .oracle import brute_force_min_entropy
from .reports import bounds_report, metric_estimate

# a pairwise coupling's entropy is within 1 bit of the glb's
_PAIR_GAP_BITS = 1.0

# one entry of a top-level entry list, laid out as json.dumps(doc, indent=2)
# lays it out: %d prints an int as json does, and %r is float.__repr__, which
# json uses for finite floats (coupling and joint values are always finite)
_PAIR_ENTRY = '    {\n      "i": %d,\n      "j": %d,\n      "v": %r\n    }'

# the most entries one piece of a document renders: the writer holds one
# piece's entry strings at a time, never the whole document
_CHUNK = 4096


def _joint_entry(k: int) -> str:
    coords = ",\n".join(["        %d"] * k)
    return '    {\n      "coords": [\n' + coords + '\n      ],\n      "v": %r\n    }'


class _Entries:
    """A top-level entry list: ``template % row`` renders each entry, for the
    rows that ``zip(*columns)`` gives.

    The columns are kept, and zipped only while rendering, so a document
    renders as often as needed with no tuple per entry held between renders.
    """

    # a plain class: a dataclass would add its build time to every import
    __slots__ = ("template", "columns")

    def __init__(self, template: str, columns: tuple) -> None:
        self.template = template
        self.columns = columns


def _pieces(doc: dict) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2) + "\\n"`` for a non-empty
    ``doc`` whose values may include :class:`_Entries`, in pieces that each
    render at most ``_CHUNK`` entries."""
    opening = "{\n  "
    for key, value in doc.items():
        head = opening + json.dumps(key) + ": "
        opening = ",\n  "
        if not isinstance(value, _Entries):
            # a JSON string holds no raw newline, so this indents every line
            yield head + json.dumps(value, indent=2).replace("\n", "\n  ")
            continue
        render = value.template.__mod__
        rows = zip(*value.columns)
        chunk = ",\n".join(map(render, islice(rows, _CHUNK)))
        if not chunk:
            yield head + "[]"
            continue
        yield head + "[\n" + chunk
        while chunk := ",\n".join(map(render, islice(rows, _CHUNK))):
            yield ",\n" + chunk
        yield "\n  ]"
    yield "\n}\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mec",
        description="Near-minimum-entropy couplings and majorization bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp: argparse.ArgumentParser, p=False, q=False, dists=False) -> None:
        if p:
            sp.add_argument("--p", metavar="FILE", help="first marginal")
        if q:
            sp.add_argument("--q", metavar="FILE", help="second marginal")
        if dists:
            sp.add_argument("--dists", metavar="FILE", help="all marginals, one per row")
        sp.add_argument("--csv", action="store_true", help="inputs are CSV, one distribution per line")
        sp.add_argument("--renormalize", action="store_true", help="scale inputs to sum 1")
        sp.add_argument("--tol", type=float, default=NORMALIZATION_TOL, metavar="T",
                        help="normalization tolerance (default 1e-9)")
        sp.add_argument("--out", metavar="FILE", help="write the document here instead of stdout")

    sp = sub.add_parser("glb", help="greatest lower bound in the majorization order")
    add_common(sp, p=True, q=True)

    sp = sub.add_parser("couple", help="pairwise coupling within 1 bit of optimal")
    add_common(sp, p=True, q=True)
    sp.add_argument("--format", choices=("dense", "sparse"), default="sparse",
                    dest="output_format", help="emit entries or a row-major matrix")

    sp = sub.add_parser("couple-k", help="k-marginal coupling within ceil(log2 k) bits")
    add_common(sp, dists=True)

    sp = sub.add_parser("entropy", help="Shannon (default) or Renyi entropy in bits")
    add_common(sp, p=True)
    sp.add_argument("--alpha", type=float, default=None, metavar="A",
                    help="Renyi order in (0,1) or (1,inf); omit for Shannon")

    sp = sub.add_parser("bounds", help="joint/mutual-information/conditional bounds")
    add_common(sp, p=True, q=True)

    sp = sub.add_parser("metric", help="coupling-entropy pseudo-metric estimate")
    add_common(sp, p=True, q=True)

    sp = sub.add_parser("oracle-check", help="certify the gap against brute force (small n)")
    add_common(sp, p=True, q=True)

    return parser


def _vector(obj: object, field: str) -> list[float]:
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{field}: expected a non-empty array of numbers")
    # json.loads gives floats: an array of nothing else is its own values,
    # cleared in one C-level pass
    if all(map(operator.is_, map(type, obj), repeat(float))):
        return obj.copy()
    values = []
    for i, x in enumerate(obj):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise InputError(f"{field}: expected numbers, found {x!r}")
        try:
            values.append(float(x))
        except OverflowError as exc:
            raise InputError(f"{field}: component {i} is too large for a float") from exc
    return values


def _read(path: str, field: str) -> str:
    # text mode turns "\r\n" and a lone "\r" into "\n"
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{field}: cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{field}: {path} is not UTF-8 text: {exc}") from exc


def _json_doc(path: str, field: str) -> object:
    text = _read(path, field)
    try:
        return json.loads(text)
    except ValueError as exc:
        # malformed JSON, or an integer past the interpreter's digit limit
        raise InputError(f"{field}: {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{field}: {path} nests arrays or objects too deeply") from exc


def _csv_rows(path: str, field: str) -> list[list[float]]:
    rows = []
    for line in map(str.strip, _read(path, field).split("\n")):
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise InputError(f"{field}: {path} has a non-numeric token: {exc}") from exc
    if not rows:
        raise InputError(f"{field}: {path} contains no rows")
    return rows


def _pick(doc: object, key: str, path: str) -> object:
    """``doc[key]`` of a JSON object; any other document is its own value."""
    if not isinstance(doc, dict):
        return doc
    if key not in doc:
        raise InputError(f'{key}: {path} has no "{key}" key')
    return doc[key]


def _load_marginals(ns: argparse.Namespace, need_q: bool) -> tuple[list[float], list[float] | None]:
    """Raw p, and q if ``need_q``: from --q, else from the --p file's second
    row (CSV) or "q" key (JSON). Without ``need_q`` nothing of q is read."""
    if ns.p is None:
        raise InputError("p: missing --p FILE")
    if ns.csv:
        rows = _csv_rows(ns.p, "p")
        p, inline, where = rows[0], rows[1:2], "a second row in the --p file"
    else:
        doc = _json_doc(ns.p, "p")
        p, where = _vector(_pick(doc, "p", ns.p), "p"), 'a "q" key in the --p document'
        inline = [doc["q"]] if isinstance(doc, dict) and "q" in doc else []
    if not need_q:
        return p, None
    if ns.q is not None:
        q = _csv_rows(ns.q, "q")[0] if ns.csv else _pick(_json_doc(ns.q, "q"), "q", ns.q)
    elif inline:
        q = inline[0]
    else:
        raise InputError(f"q: missing --q FILE (or {where})")
    return p, _vector(q, "q")


def _load_dists(ns: argparse.Namespace) -> list[list[float]]:
    if ns.dists is None:
        raise InputError("dists: missing --dists FILE")
    if ns.csv:
        return _csv_rows(ns.dists, "dists")
    doc = _pick(_json_doc(ns.dists, "dists"), "dists", ns.dists)
    if not isinstance(doc, list) or not doc:
        raise InputError("dists: expected a non-empty array of arrays")
    return [_vector(row, f"dists[{i}]") for i, row in enumerate(doc)]


def _dist(raw: list[float], field: str, ns: argparse.Namespace) -> Distribution:
    try:
        d = make_distribution(raw, renormalize=ns.renormalize, tol=ns.tol)
        # the library checks marginals at NORMALIZATION_TOL: a total that a
        # wider --tol accepted is divided out
        if ns.tol > NORMALIZATION_TOL and abs(math.fsum(d.masses) - 1.0) > NORMALIZATION_TOL:
            return make_distribution(raw, renormalize=True)
        return d
    except InputError as exc:
        raise InputError(f"{field}: {exc}") from exc


def _pair(ns: argparse.Namespace) -> tuple[Distribution, Distribution]:
    p, q = _load_marginals(ns, need_q=True)
    return _dist(p, "p", ns), _dist(q, "q", ns)


def _coupling_doc(m: SparseCoupling, h_glb: float, dense: bool) -> dict:
    h = shannon_entropy(m.values())
    doc: dict = {"n_rows": m.n_rows, "n_cols": m.n_cols}
    if dense:
        matrix = [[0.0] * m.n_cols for _ in range(m.n_rows)]
        for row, col, value in zip(m.rows, m.cols, m.values()):
            matrix[row][col] = value
        doc["matrix"] = matrix
    else:
        doc["entries"] = _Entries(_PAIR_ENTRY, (m.rows, m.cols, m.values()))
    doc["entropy_bits"] = h
    doc["glb_entropy_bits"] = h_glb
    doc["gap_bound_bits"] = h_glb + _PAIR_GAP_BITS
    return doc


def _execute(ns: argparse.Namespace) -> dict:
    # NaN-safe: a NaN tol fails the comparison
    if not 0.0 <= ns.tol < math.inf:
        raise InputError(f"tol: must be finite and non-negative, got {ns.tol!r}")
    if ns.subcommand == "glb":
        z = glb(*_pair(ns))
        return {"glb": list(z.masses), "entropy_bits": shannon_entropy(z.masses)}

    if ns.subcommand == "couple":
        dp, dq = _pair(ns)
        # a dense document holds n_rows x n_cols numbers: cap it before the
        # engine runs
        if ns.output_format == "dense" and max(dp.n, dq.n) > DENSE_CAP:
            raise InputError(
                f"format: --format dense is capped at {DENSE_CAP} components per side, "
                f"got {dp.n} x {dq.n}; use --format sparse"
            )
        # _dist checked both marginals; the walk returns the glb it walked
        cells, z = _walk(dp, dq)
        return _coupling_doc(_finish(*cells), shannon_entropy(z),
                             dense=ns.output_format == "dense")

    if ns.subcommand == "couple-k":
        rows = _load_dists(ns)
        ds = [_dist(row, f"dists[{i}]", ns) for i, row in enumerate(rows)]
        try:
            joint = min_entropy_joint_k(ds)
        except InputError as exc:
            # one row: too few marginals to couple
            raise InputError(f"dists: {exc}") from exc
        values = joint.values()
        bounds = frl_bounds(ds)
        return {
            "dims": list(joint.dims),
            "entries": _Entries(_joint_entry(len(joint.dims)), (*joint.columns, values)),
            "entropy_bits": shannon_entropy(values),
            "glb_entropy_bits": bounds.lower,
            "gap_bound_bits": bounds.upper,
        }

    if ns.subcommand == "entropy":
        dp = _dist(_load_marginals(ns, need_q=False)[0], "p", ns)
        if ns.alpha is None:
            return {"entropy_bits": shannon_entropy(dp.masses), "alpha": None}
        try:
            value = renyi_entropy(dp.masses, ns.alpha)
        except InputError as exc:
            raise InputError(f"alpha: {exc}") from exc
        return {"entropy_bits": value, "alpha": ns.alpha}

    if ns.subcommand == "bounds":
        r = bounds_report(*_pair(ns))
        return {
            "H_p": r.h_p,
            "H_q": r.h_q,
            "H_glb": r.h_glb,
            "joint_lower": r.joint_lower,
            "mi_upper": r.mi_upper,
            "cond_lower_x_given_y": r.cond_lower_x_given_y,
            "cond_lower_y_given_x": r.cond_lower_y_given_x,
        }

    if ns.subcommand == "metric":
        est = metric_estimate(*_pair(ns))
        return {"d_hat": est.d_hat, "lower": est.lower, "upper": est.upper}

    if ns.subcommand == "oracle-check":
        dp, dq = _pair(ns)
        # the oracle's cell cap rejects oversized input before any coupling
        # work; the grid is both marginals' doing
        try:
            opt = brute_force_min_entropy(dp, dq)
        except InputError as exc:
            raise InputError(f"p, q: {exc}") from exc
        m = _finish(*_walk(dp, dq)[0])
        ok, why = is_valid_coupling(m, dp, dq, tol=ns.tol)
        if not ok:
            raise InternalError(f"engine produced an invalid coupling: {why}")
        alg = shannon_entropy(m.values())
        return {"opt": opt.opt_value, "alg": alg, "gap": alg - opt.opt_value}

    raise InputError(f"unknown subcommand {ns.subcommand!r}")


def run(argv: list[str] | None = None) -> int:
    """Parse, execute, and emit one document; returns the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = _execute(ns)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.writelines(_pieces(doc))
        except OSError as exc:
            print(f"error: out: cannot write {ns.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.writelines(_pieces(doc))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
