import json
import random
import time
from pathlib import Path

import pytest

from zzl.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main, run
from zzl.extension import ExtensionPresentation
from zzl.lang import parse

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


class TestExitCodes:
    def test_check_valid_file(self):
        result = run(["check", fx("table1.zzl")])
        assert result.exit_code == EXIT_OK, result.payload

    def test_check_corrupted_exits_one_naming_position(self):
        result = run(["check", fx("corrupted.zzl")])
        assert result.exit_code == EXIT_CHECK_FAILED
        assert "at A" in result.payload or "at B" in result.payload

    def test_check_malformed_exits_two(self):
        result = run(["check", fx("malformed.zzl")])
        assert result.exit_code == EXIT_USAGE
        assert "error" in result.payload

    def test_usage_error(self):
        assert run(["frobnicate"]).exit_code == EXIT_USAGE
        assert run([]).exit_code == EXIT_USAGE

    def test_missing_file(self):
        assert run(["check", "no_such_file.zzl"]).exit_code == EXIT_USAGE

    def test_unknown_name(self):
        result = run(["dual", fx("table1.zzl"), "ghost"])
        assert result.exit_code == EXIT_USAGE

    def test_bad_gluing_exits_one(self):
        result = run(["gluing", fx("bad_gluing.zzl"), "unit"])
        assert result.exit_code == EXIT_CHECK_FAILED
        assert "nilpotent" in result.payload

    def test_non_ascii_digit_exits_two(self, tmp_path):
        path = tmp_path / "digit.zzl"
        path.write_bytes(b"space V dim \xb2\n")
        result = run(["check", str(path)])
        assert result.exit_code == EXIT_USAGE
        assert result.payload.startswith("1:13: error [lexical]")

    def test_overlong_integer_literal_exits_two(self, tmp_path):
        path = tmp_path / "long.zzl"
        path.write_text("space V dim " + "1" * 5000 + "\n")
        result = run(["check", str(path)])
        assert result.exit_code == EXIT_USAGE
        assert result.payload.startswith("1:13: error [lexical] integer literal of 5000 digits")

    def test_good_gluing(self):
        assert run(["gluing", fx("gluing.zzl"), "g1"]).exit_code == EXIT_OK
        assert run(["gluing", fx("gluing.zzl"), "g2"]).exit_code == EXIT_OK


class TestInputBudget:
    # a 226-byte file whose class-0 u-block and total would hold 2000x2000
    # zeros: before the input budget it cost `zzl check` seconds and 139 MB
    REPRODUCER = (
        "zigzag S { open = C, eminus = 0, ezero = 0, A = 0, B = 2000, alpha = [], beta = [], gamma = [] }\n"
        "zigzag Q { open = 0, eminus = 0, ezero = 0, A = 2000, B = 0, alpha = [], beta = [], gamma = [] }\n"
        "extension P = ext(S, Q) class 0\n"
    )

    def check(self, tmp_path, text: str):
        path = tmp_path / "budget.zzl"
        path.write_text(text)
        start = time.perf_counter()
        result = run(["check", str(path)])
        assert time.perf_counter() - start < 1.0
        return result

    def test_declared_dimensions_over_the_limit_exit_two(self, tmp_path):
        assert len(self.REPRODUCER) == 226
        result = self.check(tmp_path, self.REPRODUCER)
        assert result.exit_code == EXIT_USAGE
        assert result.payload == (
            "1:56: error [limit] value of B is above the limit of 256 on a declared dimension\n"
            "2:49: error [limit] value of A is above the limit of 256 on a declared dimension\n"
        )

    def test_implied_matrices_over_the_limit_exit_two(self, tmp_path):
        # each extension implies a 256x256 u-block and a 256x256 total beta
        head = self.REPRODUCER.replace("2000", "256").split("extension")[0]
        text = head + "".join(f"extension P{k} = ext(S, Q) class 0\n" for k in range(8))
        result = self.check(tmp_path, text)
        assert result.exit_code == EXIT_USAGE
        assert result.payload == (
            "10:1: error [limit] extension 'P7': checking the document would build 1048576 "
            "implied matrix entries, above the limit of 1000000\n"
        )

    def test_written_matrix_over_the_work_limit_exits_two(self, tmp_path):
        # a 286 KB file holding one 256x256 integer beta of rank 255: before
        # the work budget, `zzl check` spent 53.7 s eliminating it (2 vCPUs) and exited 1
        rng = random.Random(0)
        rows = [", ".join(str(rng.randint(-99, 99)) for _ in range(256)) for _ in range(255)]
        beta = "[" + "; ".join(rows + rows[:1]) + "]"
        text = ("zigzag z { open = 0, eminus = 0, ezero = 0, A = 256, B = 256, "
                f"alpha = [], beta = {beta}, gamma = [] }}\n")
        assert 280_000 < len(text) < 290_000
        result = self.check(tmp_path, text)
        assert result.exit_code == EXIT_USAGE
        assert result.payload == (
            "1:1: error [limit] zigzag 'z': checking the document would spend 117440512 "
            "units of elimination work on the matrices it writes, above the limit of 8000000\n"
        )

    def test_extension_eliminations_over_the_work_limit_exit_two(self, tmp_path):
        # 67 class-0 extensions over one written 120x120 beta with entries in
        # [-1, 1], as many as the implied-entry cap admits: each check
        # eliminates the 121x121 total beta and the 120x121 class-test stack
        # (before they were charged, 4 extensions took 3.7 s on 2 vCPUs)
        rng = random.Random(0)
        rows = [", ".join(str(rng.randint(-1, 1)) for _ in range(120)) for _ in range(120)]
        text = (
            "zigzag S { open = C, eminus = 0, ezero = 0, A = 120, B = 120, "
            f"alpha = [], beta = [{'; '.join(rows)}], gamma = [] }}\n"
            "zigzag Q { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, alpha = [], beta = [1], gamma = [] }\n"
        ) + "".join(f"extension P{k} = ext(S, Q) class 0\n" for k in range(67))
        result = self.check(tmp_path, text)
        assert result.exit_code == EXIT_USAGE
        # S costs 120^3 = 1728000, each extension 121^3 + 120*121*120 = 3513961
        assert result.payload == (
            "4:1: error [limit] extension 'P1': checking the document would spend 8755922 "
            "units of elimination work on the matrices it writes, above the limit of 8000000\n"
        )


class TestRankTwoQuotient:
    # a class-0 extension over a rank-2 quotient: one class per coordinate
    DOCUMENT = (
        "zigzag ic { open = Q_U[3], eminus = 1, ezero = 1, A = 0, B = 0, alpha = [], beta = [], gamma = [] }\n"
        "zigzag sky2 { open = 0, eminus = 0, ezero = 0, A = 2, B = 2, alpha = [], beta = [1,0;0,1], gamma = [] }\n"
        "extension P = ext(ic, sky2) class 0\n"
    )

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "sky2.zzl"
        path.write_text(self.DOCUMENT)
        return str(path)

    def test_check_reports_one_class_per_coordinate(self, path):
        result = run(["check", path])
        assert result.exit_code == EXIT_OK, result.payload
        assert "[PASS] extension P: total and class: class [0, 0] (normalized [0, 0])\n" in result.payload

    def test_ext_class_text(self, path):
        result = run(["ext-class", path, "P"])
        assert (result.exit_code, result.payload) == (
            EXIT_OK, "extension P: class [0, 0], normalized [0, 0] (split)\n"
        )

    def test_ext_class_json(self, path):
        result = run(["ext-class", path, "P", "--format", "json"])
        assert result.exit_code == EXIT_OK
        assert json.loads(result.payload) == {
            "extension": "P", "value": ["0", "0"], "normalized": ["0", "0"], "split": True,
        }


class TestTables:
    def test_all_rows_verified(self):
        result = run(["tables"])
        assert result.exit_code == EXIT_OK
        assert result.payload.count("VERIFIED") == 7
        assert "FAILED" not in result.payload

    def test_json_stable(self):
        first = run(["tables", "--format", "json"])
        second = run(["tables", "--format", "json"])
        assert first.exit_code == EXIT_OK
        assert first.payload == second.payload
        payload = json.loads(first.payload)
        assert payload["status"] == "pass"
        assert len(payload["table1"]) == 4
        assert len(payload["table2"]) == 3
        assert all(row["verified"] for row in payload["table1"] + payload["table2"])


class TestSubcommands:
    def test_dual_emits_parseable_stanza(self):
        result = run(["dual", fx("table1.zzl"), "corrected"])
        assert result.exit_code == EXIT_OK
        from zzl.lang import Document, parse

        assert isinstance(parse(result.payload), Document)

    def test_ext_class(self):
        result = run(["ext-class", fx("table1.zzl"), "P", "--format", "json"])
        assert result.exit_code == EXIT_OK
        payload = json.loads(result.payload)
        assert payload["normalized"] == "1" and payload["split"] is False

    def test_work_gate_check_builds_each_extension_once(self, monkeypatch):
        # the document keeps each extension it builds, so assembling the
        # nodes block reuses the ones the per-extension checks built
        built = []
        original = ExtensionPresentation.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(ExtensionPresentation, "__post_init__", counting)
        declared = len(parse((FIXTURES / "three_nodes.zzl").read_text()).extensions)
        assert declared == 3
        for command in ("check", "assemble"):
            built.clear()
            result = run([command, fx("three_nodes.zzl"), "--format", "json"])
            assert result.exit_code == EXIT_OK, result.payload
            # one per extension declaration, then the shadow that assembling
            # the nodes block builds over all three
            assert len(built) == declared + 1, command
            assert [len(p.class_vector) for p in built] == [1] * declared + [3]

    def test_failing_extension_fails_its_node_with_the_same_message(self, tmp_path):
        # a build that raises is not kept: the nodes block builds it again
        # and reports what the extension's own check reported
        path = tmp_path / "bad_node.zzl"
        text = (FIXTURES / "three_nodes.zzl").read_text().replace(
            "zigzag sky ",
            "zigzag bad { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, "
            "alpha = [], beta = [0], gamma = [] }\nzigzag sky ",
        ).replace("p2 = ext(ic, sky)", "p2 = ext(ic, bad)")
        path.write_text(text)
        result = run(["check", str(path), "--format", "json"])
        assert result.exit_code == EXIT_CHECK_FAILED
        checks = {c["name"]: c for c in json.loads(result.payload)["per_check"]}
        failed = checks["extension p2: total and class"]
        assert not failed["pass"] and "violates exactness" in failed["detail"]
        assert checks["nodes: assembly"] == dict(failed, name="nodes: assembly")

    def test_assemble(self):
        result = run(["assemble", fx("three_nodes.zzl"), "--format", "json"])
        assert result.exit_code == EXIT_OK
        payload = json.loads(result.payload)
        assert payload["nodes"] == ["p1", "p2", "p3"]
        assert payload["classes"] == ["1", "0", "1"]
        assert payload["report"]["status"] == "pass"

    def test_assemble_without_nodes_block(self):
        result = run(["assemble", fx("table1.zzl")])
        assert result.exit_code == EXIT_CHECK_FAILED

    def test_skeleton_matches_golden(self):
        result = run(["skeleton", fx("three_nodes.zzl"), "--format", "dot"])
        assert result.exit_code == EXIT_OK
        golden = (FIXTURES / "skeleton_three_nodes.dot").read_text()
        assert result.payload == golden

    def test_skeleton_json(self):
        result = run(["skeleton", fx("three_nodes.zzl"), "--format", "json"])
        assert result.exit_code == EXIT_OK
        payload = json.loads(result.payload)
        assert len(payload["vertices"]) == 4
        assert len(payload["edges"]) == 6

    def test_skeleton_json_renders_diagnostics_as_json(self):
        result = run(["skeleton", fx("malformed.zzl"), "--format", "json"])
        assert result.exit_code == EXIT_USAGE
        payload = json.loads(result.payload)
        assert payload["status"] == "parse-error" and payload["diagnostics"]

    def test_wfilt(self):
        result = run(["wfilt", fx("monodromy.zzl"), "nilp", "--center", "0"])
        assert result.exit_code == EXIT_OK
        assert "W_-1: dim 1" in result.payload
        assert "Gr_-1=1" in result.payload

    def test_wfilt_rejects_non_nilpotent(self):
        result = run(["wfilt", fx("monodromy.zzl"), "T", "--center", "0"])
        assert result.exit_code == EXIT_CHECK_FAILED

    def test_nlog(self):
        result = run(["nlog", fx("monodromy.zzl"), "T"])
        assert result.exit_code == EXIT_OK
        assert "[0,1;0,0]" in result.payload

    def test_nlog_rejects_non_unipotent(self):
        result = run(["nlog", fx("monodromy.zzl"), "notuni"])
        assert result.exit_code == EXIT_CHECK_FAILED

    def test_pl(self):
        result = run(
            ["pl", fx("monodromy.zzl"), "--alpha", "alpha", "--delta", "delta",
             "--pairing", "omega"]
        )
        assert result.exit_code == EXIT_OK
        assert "T(alpha) = [-1, 1]" in result.payload

    def test_pl_json_records_skewness(self):
        result = run(
            ["pl", fx("monodromy.zzl"), "--alpha", "alpha", "--delta", "delta",
             "--pairing", "omega", "--format", "json"]
        )
        payload = json.loads(result.payload)
        assert payload["skew"] is True
        assert payload["transformed"] == ["-1", "1"]


class TestJsonDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "FIXDIR/table1.zzl", "--format", "json"],
            ["assemble", "FIXDIR/three_nodes.zzl", "--format", "json"],
            ["skeleton", "FIXDIR/three_nodes.zzl", "--format", "json"],
            ["gluing", "FIXDIR/gluing.zzl", "g1", "--format", "json"],
            ["ext-class", "FIXDIR/table1.zzl", "P", "--format", "json"],
        ],
    )
    def test_byte_identical_across_runs(self, argv):
        argv = [a.replace("FIXDIR", str(FIXTURES)) for a in argv]
        assert run(argv).payload == run(argv).payload


class TestMain:
    def test_main_writes_out_file(self, tmp_path, capsys):
        out = tmp_path / "skeleton.dot"
        code = main(["skeleton", fx("three_nodes.zzl"), "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == (FIXTURES / "skeleton_three_nodes.dot").read_text()
        assert capsys.readouterr().out == ""

    def test_main_stdout(self, capsys):
        code = main(["tables"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "VERIFIED" in captured.out

    def test_main_usage_to_stderr(self, capsys):
        code = main(["nope"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err

    def test_main_out_path_separate(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        code = main(["check", fx("table1.zzl"), "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["status"] == "pass"
        assert capsys.readouterr().out == ""

    def test_main_out_path_with_equals(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        code = main(["check", fx("table1.zzl"), "--format", "json", f"--out={out}"])
        assert code == EXIT_OK
        assert out.read_text() == run(["check", fx("table1.zzl"), "--format", "json"]).payload
        assert capsys.readouterr().out == ""

    def test_directory_as_file_exits_two(self, tmp_path, capsys):
        result = run(["check", str(tmp_path)])
        assert result.exit_code == EXIT_USAGE
        assert result.payload.count("\n") == 1 and str(tmp_path) in result.payload
        assert main(["check", str(tmp_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == result.payload

    def test_unwritable_out_path_exits_two(self, tmp_path, capsys):
        code = main(["tables", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == "" and captured.err.count("\n") == 1


_IC = "zigzag ic { open = C, eminus = 1, ezero = 1, A = 0, B = 0, alpha = [], beta = [], gamma = [] }\n"
_SKY = "zigzag sky { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, alpha = [], beta = [1], gamma = [] }\n"
# exact, with A = B = 1: not the minimal extension over C
_COR = "zigzag cor { open = C, eminus = 1, ezero = 1, A = 1, B = 1, alpha = [0], beta = [1], gamma = [0] }\n"
# beta*alpha = 1: not exact at A or B, and neither is any total over it
_INEXACT = "zigzag s { open = C, eminus = 1, ezero = 1, A = 1, B = 1, alpha = [1], beta = [1], gamma = [1] }\n"
_INEXACT_TOTAL = (
    "assembled total violates exactness: at A: im(alpha) has dim 1, ker(beta) has dim 0; "
    "at B: im(beta) has dim 2, ker(gamma) has dim 1"
)
_INEXACT_SUB = (
    "[FAIL] zigzag s: exactness at A: at A: im(alpha) has dim 1, ker(beta) has dim 0\n"
    "[FAIL] zigzag s: exactness at B: at B: im(beta) has dim 1, ker(gamma) has dim 0\n"
)
_EXACT = "exactness: exact at A and B\n"

# (document, exit code, every byte of the text report) for branches of
# `zzl check` that no fixture reaches
PINNED_CHECKS = {
    "extension-over-inexact-sub": (
        _INEXACT + _SKY + "extension P = ext(s, sky) class 0\n",
        EXIT_CHECK_FAILED,
        _INEXACT_SUB + "[PASS] zigzag sky: " + _EXACT
        + f"[FAIL] extension P: total and class: {_INEXACT_TOTAL}\nstatus: fail\n",
    ),
    "nodes-naming-a-failed-extension": (
        _INEXACT + _SKY + _IC
        + "extension P = ext(s, sky) class 0\nextension Q = ext(ic, sky) class 1\nnodes { Q, P }\n",
        EXIT_CHECK_FAILED,
        "[PASS] zigzag ic: " + _EXACT + _INEXACT_SUB + "[PASS] zigzag sky: " + _EXACT
        + f"[FAIL] extension P: total and class: {_INEXACT_TOTAL}\n"
        "[PASS] extension Q: total and class: class 1 (normalized 1)\n"
        f"[FAIL] nodes: assembly: {_INEXACT_TOTAL}\nstatus: fail\n",
    ),
    "nodes-over-two-bulk-labels": (
        _IC + _IC.replace("ic", "id").replace("C", "D") + _SKY
        + "extension P = ext(ic, sky) class 1\nextension Q = ext(id, sky) class 0\nnodes { P, Q }\n",
        EXIT_CHECK_FAILED,
        "[PASS] zigzag ic: " + _EXACT + "[PASS] zigzag id: " + _EXACT + "[PASS] zigzag sky: " + _EXACT
        + "[PASS] extension P: total and class: class 1 (normalized 1)\n"
        "[PASS] extension Q: total and class: class 0 (normalized 0)\n"
        "[FAIL] nodes: assembly: local extensions disagree on the bulk part: "
        "[('C', 1, 1), ('D', 1, 1)]\nstatus: fail\n",
    ),
    "nodes-over-a-sub-that-is-not-the-minimal-extension": (
        _COR + _SKY + "extension p = ext(cor, sky) class 0\nnodes { p }\n",
        EXIT_CHECK_FAILED,
        "[PASS] zigzag cor: " + _EXACT + "[PASS] zigzag sky: " + _EXACT
        + "[PASS] extension p: total and class: class 0 (normalized 0)\n"
        "[FAIL] nodes: assembly: nodes ['p']: local sub is not the bulk's minimal extension\n"
        "status: fail\n",
    ),
    "gluing-with-a-zero-u-row": (
        "gluing g { psi = 2, u = [1,0;0,0], v = [0,0;1,0] }\n",
        EXIT_CHECK_FAILED,
        "[PASS] gluing g: decomposition ranges disjoint and in bounds: psi = 2, ranges [(0, 2), (0, 0)]\n"
        "[PASS] gluing g: u and v respect the node decomposition: all block supports inside their ranges\n"
        "[PASS] gluing g: n equals v*u entrywise: equal\n"
        "[PASS] gluing g: n is nilpotent: n^2 = 0\n"
        "[PASS] gluing g: node block_1: rank-one block (ODP): rank block has dimension 1\n"
        "[FAIL] gluing g: node block_2: rank-one block (ODP): u row and v column are zero over an empty psi range\n"
        "notice: gluing g: filtration compatibilities (Hodge, weight, V): not checked\n"
        "status: fail\n",
    ),
    "gluing-with-zero-maps": (
        "gluing g { psi = 2, u = [1,0], v = [0;0] }\n",
        EXIT_CHECK_FAILED,
        "[PASS] gluing g: decomposition ranges disjoint and in bounds: psi = 2, ranges [(0, 1)]\n"
        "[PASS] gluing g: u and v respect the node decomposition: all block supports inside their ranges\n"
        "[PASS] gluing g: n equals v*u entrywise: equal\n"
        "[PASS] gluing g: n is nilpotent: n^1 = 0\n"
        "[FAIL] gluing g: node block_1: rank-one block (ODP): u row or v column is zero, so v*u has rank 0\n"
        "notice: gluing g: filtration compatibilities (Hodge, weight, V): not checked\n"
        "status: fail\n",
    ),
    "duplicate-field": (
        "zigzag z { open = C, open = C }\n", EXIT_USAGE,
        "1:22: error [syntax] duplicate field 'open'\n",
    ),
    "gluing-missing-fields": (
        "gluing g { psi = 2 }\n", EXIT_USAGE,
        "2:1: error [syntax] gluing 'g' is missing fields ['u', 'v']\n",
    ),
    "gluing-u-rows-against-v-columns": (
        "gluing g { psi = 2, u = [1,0], v = [0,0;1,0] }\n", EXIT_USAGE,
        "1:1: error [shape] u has 1 rows but v has 2 columns\n",
    ),
    "two-nodes-blocks": (
        _IC + _SKY + "extension P = ext(ic, sky) class 1\nnodes { P }\nnodes { P }\n", EXIT_USAGE,
        "5:1: error [name] multiple nodes blocks\n",
    ),
    "nonzero-class-over-a-rank-two-quotient": (
        _IC + "zigzag sky2 { open = 0, eminus = 0, ezero = 0, A = 2, B = 2, alpha = [], "
        "beta = [1,0;0,1], gamma = [] }\nextension P = ext(ic, sky2) class 1\n",
        EXIT_USAGE,
        "3:1: error [shape] extension 'P': scalar class over a rank-2 quotient\n",
    ),
    "duplicate-node-names": (
        _IC + _SKY + "extension P = ext(ic, sky) class 1\nnodes { P, P }\n", EXIT_USAGE,
        "4:1: error [name] duplicate node names ['P']\n",
    ),
    "empty-quoted-field-name": (
        'zigzag z { "" = 1 }\n', EXIT_USAGE,
        "1:12: error [syntax] expected field name, found ''\n",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECKS))
def test_pinned_check_output(name, tmp_path):
    text, code, payload = PINNED_CHECKS[name]
    path = tmp_path / "doc.zzl"
    path.write_text(text)
    result = run(["check", str(path)])
    assert (result.exit_code, result.payload) == (code, payload)
