"""One benchmark operation per input: build engine objects from plain data
and call the library, then turn the result into a comparable verdict.

``run_op`` is what the timed region measures.  ``verdict`` runs outside it:
it re-verifies every positive answer with the engine's explicit checkers
(``verify_witness``, ``verify_ext_witness``, ``check_weight_conditions``),
which unlike the engine's own ``assert`` post-conditions survive
``python -O``, and reduces the result to the ``answer`` the generator
recorded in ``expected.json``.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import zzl.cli
from zzl.assembly import (
    GluingBlock,
    NodeDatum,
    assemble,
    assemble_gluing,
    verify_gluing,
    verify_shadow_compat,
)
from zzl.extension import (
    classify_selfdual_rank_one,
    ext_isomorphism_witness,
    make_extension,
    verify_ext_witness,
)
from zzl.linalg import QMatrix, format_rational, kernel_basis, rank
from zzl.monodromy import NilpotentOperator, check_weight_conditions, weight_filtration
from zzl.zigzag import ZigZag, iso_witness, std_ic, std_skyscraper, verify_witness

LABEL = "Q_U[3]"


def _matrix(rows: list, cols: int) -> QMatrix:
    return QMatrix(len(rows), cols, tuple(Fraction(x) for row in rows for x in row))


def _zigzag(d: dict) -> ZigZag:
    em, a, b, ez = d["dims"]
    return ZigZag(
        LABEL, em, ez, a, b,
        _matrix(d["alpha"], em), _matrix(d["beta"], a), _matrix(d["gamma"], b),
    )


def _check(op):
    return zzl.cli.run(["check", op["path"], "--format", "json"])


def _assemble(op):
    bulk = std_ic(op["bulk"], 1, 1)
    sky = std_skyscraper(1)
    nodes = [
        NodeDatum(f"n{k}", make_extension(bulk, sky, Fraction(c)))
        for k, c in enumerate(op["classes"])
    ]
    datum = assemble(op["bulk"], nodes)
    return datum, verify_shadow_compat(datum)


def _gluing(op):
    blocks, ranges = {}, []
    for label, start, stop, u, v in op["blocks"]:
        blocks[label] = GluingBlock(_matrix([u], stop - start), _matrix([[x] for x in v], 1))
        ranges.append((label, (start, stop)))
    quad = assemble_gluing(blocks, op["psi"], ranges)
    quad = dataclasses.replace(quad, expected_n=_matrix(op["N"], op["psi"]))
    return verify_gluing(quad)


def _wfilt(op):
    n = len(op["matrix"])
    operator = NilpotentOperator(_matrix(op["matrix"], n))
    return operator, weight_filtration(operator, op["center"])


def _rank(op):
    m = _matrix(op["matrix"], len(op["matrix"]))
    return m, rank(m), kernel_basis(m)


def _iso(op):
    z1, z2 = _zigzag(op["z1"]), _zigzag(op["z2"])
    return z1, z2, iso_witness(z1, z2, strict=op["strict"])


def _ext_iso(op):
    sub1, sub2 = _zigzag(op["sub1"]), _zigzag(op["sub2"])
    if op["regime"] == "collapsed":
        quot = std_skyscraper(op["r"])
        e1 = make_extension(sub1, quot, [Fraction(c) for c in op["class1"]])
        e2 = make_extension(sub2, quot, [Fraction(c) for c in op["class2"]])
    else:
        quot = std_skyscraper(1)
        e1 = make_extension(sub1, quot, _matrix(op["u1"], 1))
        e2 = make_extension(sub2, quot, _matrix(op["u2"], 1))
    return e1, e2, ext_isomorphism_witness(e1, e2)


def _classify(op):
    grid = [Fraction(c) for c in op["grid"]]
    return classify_selfdual_rank_one(tuple(op["boundary"]), grid=grid)


RUN = {
    "check": _check, "assemble": _assemble, "gluing": _gluing, "wfilt": _wfilt,
    "rank": _rank, "iso": _iso, "ext_iso": _ext_iso, "classify": _classify,
}


def run_op(op: dict):
    return RUN[op["kind"]](op)


# -- verdicts (outside the timed region) -----------------------------------


def _failing(report) -> list[str]:
    return sorted(c.name for c in report.failures())


def verdict(op: dict, out) -> dict:
    """``answer`` to compare with the generator's; ``verified`` is False when a
    positive answer does not survive its independent re-check."""
    kind = op["kind"]
    verified = True
    evidence = None
    if kind == "check":
        if out.exit_code not in (0, 1, 2):
            raise RuntimeError(f"unexpected exit code {out.exit_code}")
        payload = json.loads(out.payload)
        failing = sorted(c["name"] for c in payload.get("per_check", ()) if not c["pass"])
        if out.exit_code == 2:
            verified = payload.get("status") == "parse-error"
        answer = [out.exit_code, failing]
    elif kind == "assemble":
        datum, report = out
        answer = [report.passed, [format_rational(c) for c in datum.shadow.class_vector]]
    elif kind == "gluing":
        answer = [out.passed, _failing(out)]
    elif kind == "wfilt":
        operator, filtration = out
        verified = not check_weight_conditions(operator, filtration)
        answer = [[w, d] for w, d in sorted(filtration.graded_dims().items())]
    elif kind == "rank":
        m, r, ker = out
        answer = [r, ker.dim]
        # the parent re-checks M * K = 0 and rank K with sympy
        evidence = [[format_rational(x) for x in ker.basis.row(i)] for i in range(ker.basis.rows)]
    elif kind == "iso":
        z1, z2, w = out
        answer = w is not None
        if w is not None:
            verified = verify_witness(z1, z2, w)
            if op["strict"]:
                verified = verified and w.p == QMatrix.identity(z1.e_minus) \
                    and w.q == QMatrix.identity(z1.e_zero)
    elif kind == "ext_iso":
        e1, e2, w = out
        answer = w is not None
        if w is not None:
            verified = verify_ext_witness(e1, e2, w)
    elif kind == "classify":
        split, corrected = out
        answer = [
            [format_rational(c) for c in split.grid_members],
            [format_rational(c) for c in corrected.grid_members],
        ]
        verified = split.is_split and not corrected.is_split \
            and split.is_self_dual and corrected.is_self_dual
    else:
        raise ValueError(kind)
    return {"answer": answer, "verified": verified, "evidence": evidence}
