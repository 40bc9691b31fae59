"""Per-layer tracing from outside the engine.

The layers are the engine's modules.  ``install`` wraps each public
function listed in ``FUNCTIONS`` and rebinds the wrapper at every place
that holds the original: the defining module, every module that did
``from .linalg import rank`` (zigzag, extension, intertwine, monodromy,
assembly, lang, cli, the package itself) and the benchmark's own modules.
Methods are wrapped once on their class.  Patching ``zzl.linalg.rank``
alone would miss every call made through those other names.

Each call of a wrapped function is a span inside the span of the
benchmark operation that caused it.  A span's self time is its duration
minus the time covered by its child spans; it is accumulated on a stack,
so nothing is stored per call.  Work counts are computed from argument
shapes (``linalg.elim.entries``, ``linalg.matmul.mults``) or from results
(``zigzag.iso_witness.found``).  Each operation's span (id, kind, start,
end) with the self time of every layer inside it is kept in memory and
written out when the run ends.

The engine is single-threaded and nothing in it waits on a queue or a
lock, so there is no wait metric.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# metric name -> (module, attribute); "Class.attr" wraps a method on its class
FUNCTIONS = {
    "linalg.rref": ("zzl.linalg", "rref"),
    "linalg.rank": ("zzl.linalg", "rank"),
    "linalg.solve": ("zzl.linalg", "solve"),
    "linalg.kernel_basis": ("zzl.linalg", "kernel_basis"),
    "linalg.image_basis": ("zzl.linalg", "image_basis"),
    "linalg.inverse": ("zzl.linalg", "QMatrix.inverse"),
    "linalg.subspace_intersect": ("zzl.linalg", "subspace_intersect"),
    "linalg.subspace_sum": ("zzl.linalg", "subspace_sum"),
    "linalg.Subspace": ("zzl.linalg", "Subspace.__post_init__"),
    "linalg.contains": ("zzl.linalg", "Subspace.contains"),
    "linalg.matmul": ("zzl.linalg", "QMatrix.__mul__"),
    "zigzag.validate": ("zzl.zigzag", "validate"),
    "zigzag.iso_witness": ("zzl.zigzag", "iso_witness"),
    "zigzag.verify_witness": ("zzl.zigzag", "verify_witness"),
    "intertwine.add_equation": ("zzl.intertwine", "BlockSystem.add_equation"),
    "intertwine.solve_affine": ("zzl.intertwine", "BlockSystem.solve_affine"),
    "intertwine.find_invertible": ("zzl.intertwine", "find_invertible"),
    "monodromy.weight_filtration": ("zzl.monodromy", "weight_filtration"),
    "monodromy.check_weight_conditions": ("zzl.monodromy", "check_weight_conditions"),
    "monodromy.nilpotency_index": ("zzl.monodromy", "nilpotency_index"),
    "monodromy.nilpotent_log": ("zzl.monodromy", "nilpotent_log"),
    "monodromy.unipotent_exp": ("zzl.monodromy", "unipotent_exp"),
    "extension.presentation": ("zzl.extension", "ExtensionPresentation.__post_init__"),
    "extension.extension_class": ("zzl.extension", "extension_class"),
    "extension.ext_isomorphism_witness": ("zzl.extension", "ext_isomorphism_witness"),
    "extension.is_self_dual": ("zzl.extension", "is_self_dual"),
    "assembly.assemble": ("zzl.assembly", "assemble"),
    "assembly.verify_shadow_compat": ("zzl.assembly", "verify_shadow_compat"),
    "assembly.assemble_gluing": ("zzl.assembly", "assemble_gluing"),
    "assembly.verify_gluing": ("zzl.assembly", "verify_gluing"),
    "lang.parse": ("zzl.lang", "parse"),
    "cli.run": ("zzl.cli", "run"),
}

# the Document kind properties, each rebuilding a dict on access
DOCUMENT_PROPERTIES = ("spaces", "maps", "zigzags", "extensions", "gluings", "nodes_item")

COUNTS = (
    "linalg.elim.entries",
    "linalg.matmul.mults",
    "zigzag.iso_witness.found",
    "intertwine.candidates",
    "lang.parse.bytes",
)

LAYERS = ("linalg", "zigzag", "intertwine", "monodromy", "extension", "assembly", "lang", "cli")


def _elim_entries(args):
    a = args[0]
    return a.rows * a.cols


def _solve_entries(args):
    a = args[0]
    return a.rows * (a.cols + 1)  # augmented with the right-hand side


def _inverse_entries(args):
    a = args[0]
    return a.rows * 2 * a.cols  # augmented with the identity


def _matmul_mults(args):
    a, b = args[0], args[1]
    return a.rows * a.cols * b.cols if hasattr(b, "cols") else 0


# metric name -> (count name, function of the call's arguments)
ARG_COUNTS = {
    "linalg.rref": ("linalg.elim.entries", _elim_entries),
    "linalg.solve": ("linalg.elim.entries", _solve_entries),
    "linalg.inverse": ("linalg.elim.entries", _inverse_entries),
    "linalg.matmul": ("linalg.matmul.mults", _matmul_mults),
    "lang.parse": ("lang.parse.bytes", lambda args: len(args[0])),
}


class Tracer:
    """Call counts, self times and work counts for the wrapped functions."""

    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.witnesses = 0  # find_invertible calls that returned an element
        self.spans: list[dict] = []
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._open: dict[str, int] = defaultdict(int)
        self._op_layers: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        arg_count = ARG_COUNTS.get(name)
        calls, self_s, stack, opened = self.calls, self.self_s, self._stack, self._open
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if arg_count is not None:
                tracer.counts[arg_count[0]] += arg_count[1](args)
            if name == "linalg.rank" and opened["intertwine.find_invertible"]:
                tracer.counts["intertwine.candidates"] += 1
            frame = [0.0]
            stack.append(frame)
            opened[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                opened[name] -= 1
                stack.pop()
                own = dt - frame[0]
                calls[name] += 1
                self_s[name] += own
                tracer._op_layers[layer] += own
                if stack:
                    stack[-1][0] += dt
            if name == "zigzag.iso_witness" and result is not None:
                tracer.counts["zigzag.iso_witness.found"] += 1
            elif name == "intertwine.find_invertible" and result is not None:
                tracer.witnesses += 1
            return result

        return wrapper

    def begin_op(self, op_id: int, kind: str) -> None:
        self._op_layers = defaultdict(float)
        self._op = (op_id, kind, perf_counter())
        self.active = True

    def end_op(self) -> None:
        self.active = False
        op_id, kind, start = self._op
        self.spans.append({
            "id": op_id, "kind": kind, "start": start, "end": perf_counter(),
            "self_s": dict(self._op_layers),
        })

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name, zero where a function never ran."""
        out: dict[str, tuple[float, str]] = {}
        for name in list(FUNCTIONS) + ["lang.document_index"]:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        for name in COUNTS:
            out[name] = (self.counts.get(name, 0), "bytes" if name.endswith("bytes") else "count")
        cands = self.counts.get("intertwine.candidates", 0)
        ratio = cands / self.witnesses if self.witnesses else 0.0
        out["intertwine.candidates_per_witness"] = (ratio, "ratio")
        return out


def _rebind(original, wrapper, modules) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer, extra_modules=()) -> None:
    """Wrap every function in FUNCTIONS and the Document kind properties."""
    import zzl.lang

    modules = [m for n, m in sorted(sys.modules.items()) if n == "zzl" or n.startswith("zzl.")]
    modules += list(extra_modules)
    for name, (modname, attr) in FUNCTIONS.items():
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, vars(cls)[meth]))
        else:
            original = getattr(owner, attr)
            _rebind(original, tracer.wrap(name, original), modules)
    doc = zzl.lang.Document
    for prop in DOCUMENT_PROPERTIES:
        getter = vars(doc)[prop].fget
        setattr(doc, prop, property(tracer.wrap("lang.document_index", getter)))
