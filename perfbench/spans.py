"""Spans and counts around romkit's public functions, recorded from outside.

The tracer replaces functions in the modules that call them (``romkit.fom.cg``
is the CG the FOM step calls, ``romkit.rom.cg`` the one the supremizer solve
calls), so every layer is timed at its boundary without touching the program.
Each span records its name, start, end, parent span and the id of the
benchmark operation (one offline call, one query, one bundle load) it belongs
to.  Spans stay in memory and are written once, when the run ends.

Every target must exist: a Tracer refuses to start when romkit no longer has
one, so that a layer which stops being measured fails the run instead of
reading zero.  A change that moves a layer updates TARGETS with it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (calling module, attribute, layer).  The span name is "<module>.<attribute>"
# with the "romkit." prefix dropped.
TARGETS = [
    ("romkit.pipeline", "fom_run", "fom"),
    ("romkit.fom", "cg", "poisson"),
    ("romkit.fom", "wk_step", "windkessel"),
    ("romkit.pipeline", "compute_lifting", "lifting"),
    ("romkit.lifting", "cg", "lifting"),
    ("romkit.pipeline", "homogenize", "lifting"),
    ("romkit.pipeline", "pod_basis", "pod"),
    ("romkit.pod", "symmetric_eig", "pod"),
    ("romkit.pipeline", "project_coefficients", "pod"),
    ("romkit.pipeline", "supremizer_enrich", "supremizer"),
    ("romkit.rom", "cg", "supremizer"),
    ("romkit.pipeline", "assemble_operators", "assemble"),
    ("romkit.pipeline", "init_model", "nn_train"),
    ("romkit.pipeline", "nn_train", "nn_train"),
    ("romkit.pipeline", "predict_outflow", "nn_eval"),
    ("romkit.pipeline", "integrate_rom", "integrate"),
    ("romkit.pipeline", "reconstruct", "reconstruct"),
    ("romkit.pipeline", "compare", "compare"),
    ("romkit.pipeline", "save_loss_history", "io"),
    ("romkit.pipeline", "_write_timings", "io"),
    ("romkit.pipeline", "Bundle.save", "io"),
    ("romkit.pipeline", "Bundle.load", "io"),
    ("romkit.grid", "snapshot_matrix", "grid"),
    ("romkit.pod", "snapshot_matrix", "grid"),
    ("romkit.rom", "snapshot_matrix", "grid"),
]
# the stencils of romkit.operators as each calling module imports them
STENCIL_CALLERS = {
    "romkit.fom": ("vec_laplacian", "convection", "divergence", "gradient", "center_laplacian"),
    "romkit.rom": ("vec_laplacian", "convection", "divergence", "gradient"),
    "romkit.lifting": ("center_laplacian", "divergence"),
}
STENCILS = STENCIL_CALLERS["romkit.fom"]
TARGETS += [(mod, fn, "operators") for mod, fns in STENCIL_CALLERS.items() for fn in fns]

LAYERS = ("pipeline", "io", "fom", "poisson", "windkessel", "operators", "lifting", "pod",
          "supremizer", "assemble", "nn_train", "nn_eval", "integrate", "reconstruct",
          "compare", "grid")


def _span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('romkit.')}.{attr}"


# the operation roots are the only spans not named here; they count as "pipeline"
LAYER_OF = {_span_name(module, attr): layer for module, attr, layer in TARGETS}


def _resolve() -> list:
    """(owner, attribute name, span name) per target; raises if one is missing."""
    import importlib

    found, missing = [], []
    for module, attr, _ in TARGETS:
        owner, name = importlib.import_module(module), attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(owner, cls_name, None)
        if owner is None or name not in vars(owner):
            missing.append(f"{module}.{attr}")
        else:
            found.append((owner, name, _span_name(module, attr)))
    if missing:
        raise LookupError("romkit has no " + ", ".join(missing)
                          + "; update TARGETS in perfbench/spans.py")
    return found


class Tracer:
    """In-memory span and count recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self._targets = _resolve()
        self.spans = []          # (name, parent, op_id, t0, t1); parent None for roots
        self.ops = []            # op kind per op id
        self.counts = defaultdict(float)
        self._stack = []
        self._saved = []
        self._op_id = None

    # -- patching --------------------------------------------------------------
    def install(self) -> None:
        for owner, name, span in self._targets:
            original = vars(owner)[name]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(span, original.__func__))
            else:
                replacement = self._wrap(span, original)
            self._saved.append((owner, name, original))
            setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, span: str, fn):
        tracer = self
        count = self._count_hook(span)
        is_cg = span.endswith(".cg")
        calls = span + ":calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_cg:
                kwargs["callback"] = tracer._iteration_counter(span, kwargs.get("callback"))
            sid = len(tracer.spans)
            parent = tracer._stack[-1]
            tracer.spans.append(None)
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (span, parent, tracer._op_id, t0, t1)
            tracer.counts[calls] += 1
            if count is not None:
                count(args, out)
            return out

        return wrapper

    def _iteration_counter(self, span: str, inner):
        key = span + ":iters"

        def callback(xk):
            self.counts[key] += 1
            if inner is not None:
                inner(xk)

        return callback

    def _count_hook(self, span: str):
        """Exact counts read from a call's arguments or result."""
        counts = self.counts
        if span == "pipeline.fom_run":
            def hook(args, out):
                counts["fom.steps"] += out.n_steps
        elif span == "pipeline.nn_train":
            def hook(args, out):
                counts["nn.epochs"] += out[1].shape[0]
        elif span == "pipeline.integrate_rom":
            def hook(args, out):
                counts["rom.steps"] += len(args[2]) - 1
        elif span.endswith(".snapshot_matrix"):
            def hook(args, out):
                counts["grid.stack_bytes:" + self.ops[self._op_id]] += out.nbytes
        else:
            return None
        return hook

    # -- operations ------------------------------------------------------------
    def run_op(self, kind: str, fn, *args):
        """Run one benchmark operation with every target traced.

        The caller's clock should enclose this call, so that the patching cost
        is part of the traced time the self times are checked against.
        """
        self.install()
        self._op_id = len(self.ops)
        self.ops.append(kind)
        root = len(self.spans)
        self.spans.append(None)
        self._stack = [root]
        s0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            s1 = time.perf_counter()
            self.spans[root] = ("op." + kind, None, self._op_id, s0, s1)
            self._stack = []
            self.uninstall()

    # -- analysis --------------------------------------------------------------
    def self_times(self) -> dict:
        """Seconds of self time per layer: span duration minus its children's."""
        child = defaultdict(float)
        for name, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, (name, _, _, t0, t1) in enumerate(self.spans):
            out[LAYER_OF.get(name, "pipeline")] += (t1 - t0) - child[sid]
        return out

    def totals(self, kind: str) -> tuple[dict, dict]:
        """Inclusive seconds and call counts per span name within one op kind."""
        secs, calls = defaultdict(float), defaultdict(int)
        for name, _, op, t0, t1 in self.spans:
            if self.ops[op] == kind:
                secs[name] += t1 - t0
                calls[name] += 1
        return secs, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, parent, op, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent, "op": op,
                                     "kind": self.ops[op], "start": t0, "end": t1}) + "\n")
