"""Command-line front end.

Subcommands cover every engine capability: `check` validates a `.zzl`
file, `dual` / `ext-class` / `assemble` / `gluing` / `skeleton` run the
corresponding operations on named document items, `tables` rebuilds the
built-in reference tables from the constructors and verifies every row,
and `wfilt` / `nlog` / `pl` expose the monodromy formulas.

Exit codes: 0 on success, 1 when a validation or check fails, 2 on
parse or usage errors.  JSON output is canonical (sorted keys) and
byte-stable across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace
from typing import Mapping

from . import lang
from .assembly import (
    Check,
    NodeDatum,
    Report,
    assemble,
    verify_gluing,
    verify_shadow_compat,
)
from .extension import (
    ExtClass,
    ExtensionPresentation,
    extension_class,
    extension_class_vector,
    make_extension,
    ext_isomorphic,
    is_self_dual,
)
from .linalg import (
    QMatrix,
    block_assemble,
    format_rational,
    serialize_matrix,
)
from .monodromy import (
    NilpotentOperator,
    Pairing,
    nilpotent_log,
    pl_transform,
    weight_filtration,
)
from .skeleton import skeleton_of, to_dot, to_json as skeleton_json
from .zigzag import (
    MultiZigZag,
    ZigZag,
    compressed_shape,
    direct_sum,
    dualize,
    is_isomorphic,
    self_dual,
    std_corrected,
    std_ic,
    std_skyscraper,
    validate,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    payload: str
    out: str | None = None  # the parsed --out path; None means stdout


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _json_dump(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _matrix_payload(m: QMatrix) -> list[list[str]]:
    return [[format_rational(x) for x in m.row(i)] for i in range(m.rows)]


def _space_name(n: int) -> str:
    if n == 0:
        return "0"
    return "Q" if n == 1 else f"Q^{n}"


def _map_name(m: QMatrix) -> str:
    if m.rows == 0 or m.cols == 0 or m.is_zero():
        return "0"
    if m == QMatrix.identity(m.rows):
        return "id"
    return serialize_matrix(m)


def _zigzag_tuple(z: ZigZag) -> str:
    return (
        f"({z.open_label}, {_space_name(z.a_dim)}, {_space_name(z.b_dim)}, "
        f"{_map_name(z.alpha)}, {_map_name(z.beta)}, {_map_name(z.gamma)})"
    )


def _zigzag_payload(z: ZigZag) -> dict:
    return {
        "open": z.open_label,
        "eminus": z.e_minus,
        "ezero": z.e_zero,
        "A": z.a_dim,
        "B": z.b_dim,
        "alpha": _matrix_payload(z.alpha),
        "beta": _matrix_payload(z.beta),
        "gamma": _matrix_payload(z.gamma),
    }


def _class_fields(classes: tuple[ExtClass, ...]) -> tuple[str | list[str], str | list[str]]:
    """The class values and their normalizations as text, one per quotient
    coordinate; a rank-one quotient gives bare strings rather than lists."""
    values = [format_rational(c.value) for c in classes]
    normalized = [format_rational(c.normalized) for c in classes]
    return (values[0], normalized[0]) if len(classes) == 1 else (values, normalized)


def _class_text(field: str | list[str]) -> str:
    return field if isinstance(field, str) else "[" + ", ".join(field) + "]"


def _render_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return _json_dump(report.to_payload())
    lines = []
    for check in report.checks:
        mark = "PASS" if check.passed else "FAIL"
        lines.append(f"[{mark}] {check.name}: {check.detail}")
    for notice in report.notices:
        lines.append(f"notice: {notice}")
    lines.append(f"status: {report.status}")
    return "\n".join(lines) + "\n"


def _render_diagnostics(diags: list[lang.Diagnostic], fmt: str) -> str:
    if fmt == "json":
        return _json_dump(
            {
                "status": "parse-error",
                "diagnostics": [
                    {
                        "severity": d.severity,
                        "code": d.code,
                        "message": d.message,
                        "line": d.line,
                        "column": d.column,
                    }
                    for d in diags
                ],
            }
        )
    return "\n".join(d.render() for d in diags) + "\n"


def _load_document(path: str) -> lang.Document | list[lang.Diagnostic]:
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("latin-1")
    except OSError as exc:  # missing, a directory, unreadable
        raise _UsageError(f"error: cannot read {path}: {exc.strerror or exc}") from exc
    return lang.parse(text)


def _named_item(table: Mapping[str, object], kind: str, name: str):
    if name not in table:
        raise _UsageError(f"error: no {kind} named {name!r} in the document")
    return table[name]


# -- subcommand handlers -----------------------------------------------


def _cmd_check(ns: argparse.Namespace, document: lang.Document) -> CommandResult:
    checks: list[Check] = []
    notices: list[str] = []
    for name, item in sorted(document.zigzags.items()):
        issues = validate(item.zigzag)
        if issues:
            for issue in issues:
                checks.append(
                    Check(f"zigzag {name}: exactness at {issue.position}", False, issue.message)
                )
        else:
            checks.append(Check(f"zigzag {name}: exactness", True, "exact at A and B"))
    # each extension is built once; the nodes block reuses the result
    built: dict[str, ExtensionPresentation | ValueError] = {}
    for name in sorted(document.extensions):
        try:
            presentation = built[name] = document.build_extension(name)
            value, normalized = _class_fields(extension_class_vector(presentation))
            checks.append(
                Check(
                    f"extension {name}: total and class",
                    True,
                    f"class {_class_text(value)} (normalized {_class_text(normalized)})",
                )
            )
        except ValueError as exc:
            # a presentation that built keeps its entry when only its class fails
            built.setdefault(name, exc)
            checks.append(Check(f"extension {name}: total and class", False, str(exc)))
    for name in sorted(document.gluings):
        report = verify_gluing(document.build_gluing(name))
        for check in report.checks:
            checks.append(Check(f"gluing {name}: {check.name}", check.passed, check.detail))
        notices.extend(f"gluing {name}: {n}" for n in report.notices)
    nodes = document.nodes_item
    if nodes is not None:
        try:
            datum = _assemble_from_document(document, built)
            report = verify_shadow_compat(datum)
            for check in report.checks:
                checks.append(Check(f"nodes: {check.name}", check.passed, check.detail))
        except ValueError as exc:
            checks.append(Check("nodes: assembly", False, str(exc)))
    report = Report(tuple(checks), tuple(notices))
    code = EXIT_OK if report.passed else EXIT_CHECK_FAILED
    return CommandResult(code, _render_report(report, ns.format))


def _cmd_dual(ns: argparse.Namespace, document: lang.Document) -> CommandResult:
    item = _named_item(document.zigzags, "zigzag", ns.name)
    dual = dualize(item.zigzag)
    if ns.format == "json":
        return CommandResult(EXIT_OK, _json_dump({ns.name: _zigzag_payload(dual)}))
    stanza = lang._serialize_item(lang.ZigZagItem(ns.name, dual))
    return CommandResult(EXIT_OK, stanza + "\n")


def _cmd_ext_class(ns: argparse.Namespace, document: lang.Document) -> CommandResult:
    _named_item(document.extensions, "extension", ns.name)
    classes = extension_class_vector(document.build_extension(ns.name))
    value, normalized = _class_fields(classes)
    split = all(c.normalized == 0 for c in classes)
    if ns.format == "json":
        payload = {"extension": ns.name, "value": value, "normalized": normalized, "split": split}
        return CommandResult(EXIT_OK, _json_dump(payload))
    kind = "split" if split else "non-split"
    return CommandResult(
        EXIT_OK,
        f"extension {ns.name}: class {_class_text(value)}, "
        f"normalized {_class_text(normalized)} ({kind})\n",
    )


def _assemble_from_document(
    document: lang.Document,
    built: Mapping[str, ExtensionPresentation | ValueError] | None = None,
):
    """Assemble the nodes block.  `built` holds every extension already
    built, or the ValueError building it raised, which is raised again."""
    nodes_item = document.nodes_item
    if nodes_item is None:
        raise ValueError("document has no nodes block")
    node_data = []
    for name in nodes_item.names:
        pres = document.build_extension(name) if built is None else built[name]
        if isinstance(pres, ValueError):
            raise pres
        node_data.append(NodeDatum(name, pres))
    return assemble(node_data[0].bulk[0], node_data)


def _cmd_assemble(ns: argparse.Namespace, document: lang.Document) -> CommandResult:
    datum = _assemble_from_document(document)
    report = verify_shadow_compat(datum)
    shadow = datum.shadow
    if ns.format == "json":
        payload = {
            "bulk": datum.bulk_label,
            "nodes": list(datum.node_labels),
            "classes": [format_rational(c) for c in shadow.class_vector],
            "total": _zigzag_payload(shadow.total),
            "report": report.to_payload(),
        }
        code = EXIT_OK if report.passed else EXIT_CHECK_FAILED
        return CommandResult(code, _json_dump(payload))
    lines = [
        f"bulk: {datum.bulk_label}",
        f"nodes: {', '.join(datum.node_labels)}",
        "classes: "
        + ", ".join(
            f"{label}={format_rational(c)}"
            for label, c in zip(datum.node_labels, shadow.class_vector)
        ),
        f"shadow total: {_zigzag_tuple(shadow.total)}",
        "",
    ]
    code = EXIT_OK if report.passed else EXIT_CHECK_FAILED
    return CommandResult(code, "\n".join(lines) + _render_report(report, "text"))


def _cmd_gluing(ns: argparse.Namespace, document: lang.Document) -> CommandResult:
    _named_item(document.gluings, "gluing", ns.name)
    report = verify_gluing(document.build_gluing(ns.name))
    code = EXIT_OK if report.passed else EXIT_CHECK_FAILED
    return CommandResult(code, _render_report(report, ns.format))


def _cmd_skeleton(ns: argparse.Namespace, document: lang.Document) -> CommandResult:
    sk = skeleton_of(_assemble_from_document(document))
    if ns.format == "json":
        return CommandResult(EXIT_OK, skeleton_json(sk))
    return CommandResult(EXIT_OK, to_dot(sk))


def _table1_rows() -> list[tuple[str, ZigZag, str, bool]]:
    label = "Q_U[3]"
    ic = std_ic(label, 1, 1)
    sky = std_skyscraper(1)
    corrected = std_corrected(label, 1, 1)
    multi = MultiZigZag.skyscrapers(["p1", "p2", "p3"]).total()

    ic_ok = (
        not validate(ic)
        and ic.a_dim == 0 == ic.b_dim
        and self_dual(ic)
    )
    sky_ok = (
        not validate(sky)
        and sky.a_dim == sky.b_dim == 1
        and sky.beta == QMatrix.identity(1)
        and sky.alpha.is_zero() and sky.gamma.is_zero()
        and self_dual(sky)
    )
    corrected_pres = make_extension(ic, sky, 1)
    corrected_ok = (
        not validate(corrected)
        and corrected == corrected_pres.total
        and extension_class(corrected_pres).normalized == 1
        and self_dual(corrected)
    )
    multi_ok = (
        not validate(multi)
        and multi == std_skyscraper(3)
        and multi == direct_sum(direct_sum(sky, sky), sky)
    )
    return [
        ("minimal extension", ic, "zero point terms", ic_ok),
        ("point-supported rank-one", sky, "self-dual skyscraper", sky_ok),
        ("corrected object", corrected, "distinguished non-split class", corrected_ok),
        ("3-node point sum", multi, "one rank-one summand per node", multi_ok),
    ]


def _table2_rows() -> list[tuple[str, str, str, bool]]:
    label = "Q_U[3]"
    ic = std_ic(label, 1, 1)
    sky = std_skyscraper(1)
    split = make_extension(ic, sky, 0)
    corrected = make_extension(ic, sky, 1)

    split_total = split.total
    split_ok = (
        extension_class(split).normalized == 0
        and is_isomorphic(split_total, direct_sum(ic, sky))
        and is_self_dual(split)
    )
    block_sub = std_corrected(label, 1, 1)
    u = QMatrix.from_rows([[1]])
    general = make_extension(block_sub, sky, u)
    general_ok = general.total.beta == block_assemble(
        [[block_sub.beta, u], [None, sky.beta]], [1, 1], [1, 1]
    )
    corrected_ok = (
        extension_class(corrected).normalized == 1
        and compressed_shape(corrected.total) == compressed_shape(split_total)
        and not ext_isomorphic(corrected, split)
        and is_self_dual(corrected)
    )
    return [
        ("split extension", _zigzag_tuple(split_total), "trivial class", split_ok),
        (
            "general extension",
            "beta block [[beta, u], [0, 1]]",
            "class is u modulo im(beta)",
            general_ok,
        ),
        (
            "corrected non-split extension",
            _zigzag_tuple(corrected.total),
            "same compressed shape as split, class 1, self-dual",
            corrected_ok,
        ),
    ]


def _cmd_tables(ns: argparse.Namespace, document: None) -> CommandResult:
    t1 = _table1_rows()
    t2 = _table2_rows()
    all_ok = all(ok for *_, ok in t1) and all(ok for *_, ok in t2)
    if ns.format == "json":
        payload = {
            "table1": [
                {
                    "object": name,
                    "zigzag": _zigzag_tuple(z),
                    "comment": comment,
                    "verified": ok,
                }
                for name, z, comment, ok in t1
            ],
            "table2": [
                {"object": name, "zigzag": shown, "comment": comment, "verified": ok}
                for name, shown, comment, ok in t2
            ],
            "status": "pass" if all_ok else "fail",
        }
        return CommandResult(
            EXIT_OK if all_ok else EXIT_CHECK_FAILED, _json_dump(payload)
        )
    lines = ["Table 1: standard zig-zags (ordinary double point)"]
    for name, z, comment, ok in t1:
        mark = "VERIFIED" if ok else "FAILED"
        lines.append(f"  {name:<28} {_zigzag_tuple(z):<32} {comment:<36} {mark}")
    lines.append("Table 2: extension templates")
    for name, shown, comment, ok in t2:
        mark = "VERIFIED" if ok else "FAILED"
        lines.append(f"  {name:<28} {shown:<32} {comment:<46} {mark}")
    lines.append(f"status: {'pass' if all_ok else 'fail'}")
    return CommandResult(
        EXIT_OK if all_ok else EXIT_CHECK_FAILED, "\n".join(lines) + "\n"
    )


def _square_map(document: lang.Document, name: str) -> QMatrix:
    item = _named_item(document.maps, "map", name)
    if not item.matrix.is_square():
        raise ValueError(f"map {name!r} is not square")
    return item.matrix


def _cmd_wfilt(ns: argparse.Namespace, document: lang.Document) -> CommandResult:
    operator = NilpotentOperator(_square_map(document, ns.name))
    filtration = weight_filtration(operator, ns.center)
    if ns.format == "json":
        steps = [
            {
                "weight": w,
                "dimension": sub.dim,
                "basis": _matrix_payload(sub.basis.transpose()),
            }
            for w, sub in filtration.steps
        ]
        payload = {
            "map": ns.name,
            "center": ns.center,
            "steps": steps,
            "graded": {str(w): d for w, d in filtration.graded_dims().items()},
        }
        return CommandResult(EXIT_OK, _json_dump(payload))
    lines = [f"weight filtration of {ns.name} centered at {ns.center}"]
    lines += [f"  W_{w}: dim {sub.dim}" for w, sub in filtration.steps]
    graded = ", ".join(
        f"Gr_{w}={d}" for w, d in sorted(filtration.graded_dims().items())
    )
    lines.append(f"  graded dims: {graded}")
    return CommandResult(EXIT_OK, "\n".join(lines) + "\n")


def _cmd_nlog(ns: argparse.Namespace, document: lang.Document) -> CommandResult:
    logarithm = nilpotent_log(_square_map(document, ns.name))
    if ns.format == "json":
        payload = {"map": ns.name, "log": _matrix_payload(logarithm.matrix)}
        return CommandResult(EXIT_OK, _json_dump(payload))
    return CommandResult(
        EXIT_OK, f"log {ns.name} = {serialize_matrix(logarithm.matrix)}\n"
    )


def _cmd_pl(ns: argparse.Namespace, document: lang.Document) -> CommandResult:
    alpha_item = _named_item(document.maps, "map", ns.alpha)
    delta_item = _named_item(document.maps, "map", ns.delta)
    gram = _square_map(document, ns.pairing)
    if alpha_item.matrix.cols != 1 or delta_item.matrix.cols != 1:
        raise ValueError("--alpha and --delta must name column vectors (n x 1 maps)")
    pairing = Pairing(gram)
    alpha = alpha_item.matrix.col(0)
    delta = delta_item.matrix.col(0)
    image = pl_transform(alpha, delta, pairing)
    if ns.format == "json":
        payload = {
            "alpha": [format_rational(x) for x in alpha],
            "delta": [format_rational(x) for x in delta],
            "pairing": ns.pairing,
            "skew": pairing.is_skew,
            "transformed": [format_rational(x) for x in image],
        }
        return CommandResult(EXIT_OK, _json_dump(payload))
    rendered = ", ".join(format_rational(x) for x in image)
    return CommandResult(EXIT_OK, f"T(alpha) = [{rendered}]\n")


# -- argument plumbing --------------------------------------------------


@functools.cache  # one parser per process, built at the first run
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="zzl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str, *positionals: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=func)
        return p

    add("check", _cmd_check, "parse and validate every item in a file", "file")
    add("dual", _cmd_dual, "dualize a named zig-zag", "file", "name")
    add("ext-class", _cmd_ext_class, "extension class of a named extension", "file", "name")
    add("assemble", _cmd_assemble, "assemble the nodes block into the global shadow", "file")
    add("gluing", _cmd_gluing, "verify a named gluing quadruple", "file", "name")
    add("skeleton", _cmd_skeleton, "export the combinatorial skeleton", "file")
    add("tables", _cmd_tables, "rebuild and verify the reference tables")
    p = add("wfilt", _cmd_wfilt, "weight filtration of a named nilpotent map", "file", "name")
    p.add_argument("--center", type=int, required=True)
    add("nlog", _cmd_nlog, "nilpotent logarithm of a named unipotent map", "file", "name")
    p = add("pl", _cmd_pl, "apply the vanishing-cycle reflection formula", "file")
    for option in ("--alpha", "--delta", "--pairing"):
        p.add_argument(option, required=True)

    # the options every subcommand shares, after its own in the usage line
    for name, p in sub.choices.items():
        formats = ("dot", "json") if name == "skeleton" else ("text", "json")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write the payload to this path")

    return parser


def run(argv: list[str]) -> CommandResult:
    """Execute one command; never raises for user-level failures.

    Every subcommand that takes a FILE gets it loaded and parsed here;
    parse diagnostics are rendered in the requested format and exit 2,
    and a document item the command cannot act on (a ValueError from
    the engine) exits 1.
    """
    try:
        ns = _build_parser().parse_args(argv)
        document = _load_document(ns.file) if "file" in ns else None
    except _UsageError as exc:
        return CommandResult(EXIT_USAGE, str(exc) + "\n")
    if isinstance(document, list):
        return CommandResult(EXIT_USAGE, _render_diagnostics(document, ns.format), ns.out)
    try:
        result = ns.func(ns, document)
    except _UsageError as exc:
        return CommandResult(EXIT_USAGE, str(exc) + "\n")
    except ValueError as exc:
        subject = f"extension {ns.name}" if ns.command == "ext-class" else ns.command
        result = CommandResult(EXIT_CHECK_FAILED, f"{subject}: {exc}\n")
    return replace(result, out=ns.out)


def main(argv: list[str] | None = None) -> int:
    result = run(list(sys.argv[1:] if argv is None else argv))
    if result.exit_code == EXIT_USAGE:
        sys.stderr.write(result.payload)
    elif result.out is not None:
        try:
            with open(result.out, "w", encoding="utf-8") as handle:
                handle.write(result.payload)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {result.out}: {exc.strerror or exc}\n")
            return EXIT_USAGE
    else:
        sys.stdout.write(result.payload)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
