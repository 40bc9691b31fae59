"""Post-condition checks raise PostconditionError in every interpreter mode.

Each case swaps the verifier a result is re-checked with, or a step its
certificate rests on, for one that fails, and expects the named error
instead of a wrong result.  The same cases run again in a ``python -O``
subprocess, where ``assert`` statements would have vanished.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zzl
from zzl.extension import classify_selfdual_rank_one, ext_isomorphism_witness, make_extension
from zzl.linalg import PostconditionError, QMatrix, _columns, independent_modulo
from zzl.monodromy import jordan_nilpotent, nilpotent_log, weight_filtration
from zzl.zigzag import ZigZag, iso_witness, std_corrected, std_ic, std_skyscraper


def _corrected_times_two() -> ZigZag:
    # std_corrected with beta = [2]: isomorphic to it, but not equal
    return ZigZag("L", 1, 1, 1, 1, QMatrix.zero(1, 1), QMatrix.from_rows([[2]]), QMatrix.zero(1, 1))


def _block_regime():
    return make_extension(std_corrected("L", 1, 1), std_skyscraper(1), QMatrix.from_rows([[1]]))


def _never(*_args):
    return False


def _losing_the_last_column(b, c):
    kept = independent_modulo(b, c)
    return _columns(kept, range(kept.cols - 1))


# name -> (module, verifier attribute, failing stand-in, call that re-checks)
CASES = {
    "iso_witness": (
        "zzl.zigzag", "verify_witness", _never,
        lambda: iso_witness(std_corrected("L", 1, 1), _corrected_times_two()),
    ),
    # the rank profiles agree, so a search that finds no witness is wrong
    "iso_witness_search": (
        "zzl.intertwine", "find_invertible", lambda _system, _names: None,
        lambda: iso_witness(std_corrected("L", 1, 1), _corrected_times_two()),
    ),
    "ext_witness_collapsed": (
        "zzl.extension", "verify_ext_witness", _never,
        lambda: ext_isomorphism_witness(
            make_extension(std_ic("L", 1, 1), std_skyscraper(1), 1),
            make_extension(std_ic("L", 1, 1), std_skyscraper(1), 2),
        ),
    ),
    "ext_witness_block": (
        "zzl.extension", "verify_ext_witness", _never,
        lambda: ext_isomorphism_witness(_block_regime(), _block_regime()),
    ),
    # isomorphic subs make the block-regime system consistent, so a
    # solve that finds nothing is wrong
    "ext_witness_block_solve": (
        "zzl.extension", "solve", lambda _a, _b: None,
        lambda: ext_isomorphism_witness(_block_regime(), _block_regime()),
    ),
    "classify_selfdual": (
        "zzl.extension", "is_self_dual", _never,
        lambda: classify_selfdual_rank_one((1, 1), grid=[0, 1]),
    ),
    # N must vanish on the string vectors at height 1, the one part of
    # N G = G S that the construction does not give
    "weight_filtration": (
        "zzl.monodromy", "product_is_zero", _never,
        lambda: weight_filtration(jordan_nilpotent([2, 1]), 0),
    ),
    # the rank of the Jordan string basis is the certificate read first
    "weight_filtration_certificate": (
        "zzl.monodromy", "rank", lambda _m: -1,
        lambda: weight_filtration(jordan_nilpotent([2, 1]), 0),
    ),
    # a string top that the keep-first step loses leaves G short of a basis
    "weight_filtration_lost_string": (
        "zzl.monodromy", "independent_modulo", _losing_the_last_column,
        lambda: weight_filtration(jordan_nilpotent([2, 1]), 0),
    ),
    "nilpotent_log": (
        "zzl.monodromy", "unipotent_exp", lambda n: n.matrix,
        lambda: nilpotent_log(QMatrix.from_rows([[1, 1], [0, 1]])),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_unforced_case_passes(name):
    assert CASES[name][3]() is not None


@pytest.mark.parametrize("name", sorted(CASES))
def test_forced_failure_raises(name, monkeypatch):
    module, attr, failing, call = CASES[name]
    monkeypatch.setattr(importlib.import_module(module), attr, failing)
    with pytest.raises(PostconditionError):
        call()


def test_failing_certificate_raises_before_the_post_check(monkeypatch):
    monkeypatch.setattr(importlib.import_module("zzl.monodromy"), "rank", lambda _m: -1)
    with pytest.raises(PostconditionError, match="Jordan string basis has rank -1, not 3"):
        weight_filtration(jordan_nilpotent([2, 1]), 0)


def run_forced_cases() -> list[str]:
    """Force every case once; returns the names that raised PostconditionError."""
    raised = []
    for name, (module, attr, failing, call) in sorted(CASES.items()):
        owner = importlib.import_module(module)
        original = getattr(owner, attr)
        setattr(owner, attr, failing)
        try:
            call()
        except PostconditionError:
            raised.append(name)
        finally:
            setattr(owner, attr, original)
    return raised


def test_forced_failures_raise_under_python_O():
    here = Path(__file__).resolve().parent
    src = Path(zzl.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(here)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    script = (
        "import sys, test_postconditions as t\n"
        "print(sys.flags.optimize, *t.run_forced_cases())\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.split() == ["1"] + sorted(CASES)
