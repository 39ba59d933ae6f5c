"""romkit benchmark: offline bundle builds and online reduced-order queries.

Run from the repository root:

    python3 perfbench/run.py --workload offline_channel --seed 1 --seconds 16 --trace 0

Workloads (closed loop, one caller, one process; BLAS pinned to one thread):

  offline_channel  the paper's default channel through pipeline.offline; each
                   offline call is followed by a round of seeded online
                   queries on the bundle it built
  offline_fine     the same at nx=96, ny=24, dt=1.25e-3 and 121 snapshots
  online_sweep     one default bundle built before timing, then whole passes
                   of seeded pipeline.online queries while they fit in the
                   measured seconds

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
every operation runs twice, untraced then traced, and the run prints the
per-layer split (see spans.py).  Every output is checked against
reference.json; an operation that raises or fails its check counts in
``failed`` and the run goes on.
The last line of standard output is one JSON object.  README.md lists the
metrics and what each one should move.
"""

import os

# one process with a single compute thread: BLAS must not start its own pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

CONFIGS = {
    "channel": {},
    "fine": {"nx": "96", "ny": "24", "dt": "1.25e-3", "snap_stride": "4",
             "train_subsample": "1"},
    # lets lazy imports and first-call set-up finish before anything is timed
    "warmup": {"nx": "16", "ny": "4", "nn_epochs": "50"},
}
WORKLOADS = {
    # name: (config, offline calls at least).  online_sweep builds its bundles
    # in subprocesses instead.  One fine offline call takes 15-25 s, so a
    # second one would not fit the per-run time budget.
    "offline_channel": ("channel", 2),
    "offline_fine": ("fine", 1),
    "online_sweep": ("channel", 1),
}
DT_MULTS = ("1", "2", "0.5")   # dt_r as a multiple of the full-order dt
QUERY_KINDS = ("stored", "arbitrary")
PASS_BLOCKS = 34             # a pass of 204 queries: p95 leaves at least ten beyond it
TRACE_QUERY_BLOCKS = 2       # query blocks run untraced + traced per offline workload
SETUP_REPS = 7
SETUP_EVERY = 4              # query blocks between set-up repetitions
ERR_TOL = 1e-2               # an error may exceed its reference by this share
UNHASHED = {"manifest.json", "timings.csv", "report.json", "runtime.json"}

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
from romkit.pipeline import DEFAULT_CONFIG, Bundle, build_fom_config
build_fom_config({**DEFAULT_CONFIG, **json.loads(sys.argv[1])})
if sys.argv[2]:
    Bundle.load(sys.argv[2])
print(time.perf_counter() - t0)
"""


def import_romkit():
    sys.path.insert(0, str(SRC))
    try:
        import romkit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import romkit from {SRC}: {exc}")
    if not Path(romkit.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: romkit imported from {romkit.__file__}, not from {SRC}")
    return romkit


# -- the operations ----------------------------------------------------------

class Query:
    def __init__(self, n_u, n_p, dt_mult, kind, times):
        self.n_u, self.n_p, self.dt_mult, self.kind, self.times = n_u, n_p, dt_mult, kind, times

    @property
    def key(self) -> str:
        return f"{self.n_u},{self.n_p},{self.dt_mult}"


def mode_pairs() -> list:
    """PASS_BLOCKS (n_u, n_p) pairs spread evenly over n_u in 1..16 and
    n_p in 0..min(n_u, 8)."""
    combos = [(n_u, n_p) for n_u in range(1, 17) for n_p in range(min(n_u, 8) + 1)]
    return [combos[k * len(combos) // PASS_BLOCKS] for k in range(PASS_BLOCKS)]


def query_blocks(seed: int, train_times: np.ndarray):
    """Endless seeded query mix in blocks of six, one per (dt_r, time kind).

    Every pass of PASS_BLOCKS blocks holds the same queries: each (dt_r, kind)
    class meets every pair of mode_pairs() once, and its arbitrary-instant
    queries ask for 1 to len(train_times) instants in evenly spread counts.
    So the seed moves no cost between runs: it shuffles which block a query
    lands in and the order within a block, and it draws the arbitrary
    instants uniformly from the start of the training window to 10% past its
    end, the range online() accepts.
    """
    rng = np.random.default_rng(seed)
    t_lo, t_hi = float(train_times[0]), float(train_times[-1])
    t_end = t_hi + 0.1 * (t_hi - t_lo)
    pairs = mode_pairs()
    counts = np.linspace(1, train_times.size, PASS_BLOCKS).round().astype(int)
    classes = [(m, k) for m in DT_MULTS for k in QUERY_KINDS]
    while True:
        columns = []
        for mult, kind in classes:
            n_ts = rng.permutation(counts)
            column = []
            for b, j in enumerate(rng.permutation(PASS_BLOCKS)):
                n_u, n_p = pairs[j]
                times = (np.sort(rng.uniform(t_lo, t_end, size=n_ts[b]))
                         if kind == "arbitrary" else None)
                column.append(Query(n_u, n_p, mult, kind, times))
            columns.append(column)
        for b in range(PASS_BLOCKS):
            yield [columns[j][b] for j in rng.permutation(len(classes))]


def run_query(romkit, bundle, q: Query):
    return romkit.pipeline.online(bundle, query_times=q.times,
                                  dt_r=bundle.dt_fom * float(q.dt_mult),
                                  modes=(q.n_u, q.n_p), timing_reps=1)


def build_main(argv) -> None:
    """Subprocess entry: warm up, then time one offline call into argv[1]."""
    romkit = import_romkit()
    cfg = json.loads(argv[0])
    romkit.pipeline.offline(CONFIGS["warmup"], argv[1] + "_warmup")
    t0 = time.perf_counter()
    romkit.pipeline.offline(cfg, argv[1])
    print(time.perf_counter() - t0)


# -- output checks -------------------------------------------------------------

def within(value, ref) -> bool:
    """Finite, positive and not worse than the reference beyond ERR_TOL."""
    if ref is None or value is None:
        return ref is None and value is None
    return bool(np.isfinite(value) and 0 < value <= ref * (1 + ERR_TOL))


def snapshot_norms(romkit, bundle):
    l2 = romkit.grid.l2_norm
    return (np.array([l2(f) for f in bundle.train.velocity]),
            np.array([l2(f) for f in bundle.train.pressure]))


def rel_errors(norms, report):
    """Time-averaged relative L2 errors: sum of errors over sum of field norms."""
    eu = None if report.err_u is None else float(np.sum(report.err_u) / np.sum(norms[0]))
    ep = None if report.err_p is None else float(np.sum(report.err_p) / np.sum(norms[1]))
    return eu, ep


def fields_finite(snaps) -> bool:
    return bool(all(np.all(np.isfinite(f.values)) for f in snaps.velocity)
                and all(np.all(np.isfinite(f.values)) for f in snaps.pressure))


def check_query(q: Query, rec, report, norms, ref) -> bool:
    times_ok = (np.array_equal(rec.times, q.times) if q.kind == "arbitrary"
                else rec.times.size == norms[0].size)
    if not (times_ok and fields_finite(rec)):
        return False
    if q.kind == "arbitrary":
        # no reference: online() compares only if every instant is a stored one
        return report.err_u is None or bool(np.all(np.isfinite(report.err_u)))
    eu, ep = rel_errors(norms, report)
    ref_u, ref_p = ref["queries"][q.key]
    return within(eu, ref_u) and within(ep, ref_p)


def check_bundle_dir(romkit, d: Path, ref):
    """Load the bundle, verify its manifest and canonical errors.

    Returns (ok, bundle or None, (err_u_rel, err_p_rel)).
    """
    bundle = romkit.pipeline.Bundle.load(d)
    manifest = json.loads((d / "manifest.json").read_text())["files"]
    present = {p.relative_to(d).as_posix() for p in d.rglob("*")
               if p.is_file() and p.name not in UNHASHED}
    ok = set(manifest) == present and all(
        hashlib.sha256((d / name).read_bytes()).hexdigest() == digest
        for name, digest in manifest.items())
    ok &= bundle.cycle_drift is not None and bool(np.isfinite(bundle.cycle_drift))
    for k in bundle.nn_models:
        last = (d / f"loss_{k}.csv").read_text().strip().splitlines()[-1]
        ok &= bool(np.isfinite(float(last.split(",")[2])))
    rec, report = romkit.pipeline.online(bundle, timing_reps=1)
    errs = rel_errors(snapshot_norms(romkit, bundle), report)
    ok &= fields_finite(rec)
    ok &= within(errs[0], ref["canonical"][0]) and within(errs[1], ref["canonical"][1])
    return ok, bundle, errs


# -- the run -------------------------------------------------------------------

class Run:
    def __init__(self, romkit, workload: str, seed: int, seconds: float, trace: bool):
        from spans import Tracer

        self.romkit = romkit
        self.workload = workload
        self.config_name, self.min_offline = WORKLOADS[workload]
        self.cfg = CONFIGS[self.config_name]
        self.ref = json.loads((HERE / "reference.json").read_text())[self.config_name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0          # operations that raised or returned a wrong output
        self.wrong = 0           # of those, the ones that returned a wrong output
        self.setup_dir = ""
        self.setup_s = []
        self.offline_s = []
        self.query_s = []
        self.pairs = []          # (untraced seconds, traced seconds) per operation
        self.errs = None
        self.bundle = None
        self.norms = None
        self.n_built = 0
        self.blocks = None       # the seeded query mix, made once the first bundle exists
        self.n_blocks = 0
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))

    # -- counted executions ----------------------------------------------------
    def _execute(self, call, check):
        """One counted execution; returns (output, or None if it raised, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failing operation is counted, not fatal
            print(f"perfbench: operation failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        if check is not None:
            self._check(check, out)
        return out, seconds

    def _check(self, check, out) -> None:
        try:
            ok = bool(check(out))
        except Exception as exc:
            print(f"perfbench: output check raised: {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            self.wrong += 1

    def attempt(self, kind, fn, *args, check=None):
        """Run one operation: once untraced, or untraced then traced."""
        if self.tracer is None:
            return self._execute(lambda: fn(*args), check)
        _, untraced = self._execute(lambda: fn(*args), check)
        out, traced = self._execute(lambda: self.tracer.run_op(kind, fn, *args), check)
        self.pairs.append((untraced, traced))
        return out, traced

    # -- phases ----------------------------------------------------------------
    def setup_rep(self) -> None:
        """Seconds to import romkit, read the config and (online_sweep) load the
        bundle, in a fresh interpreter.  Repetitions are spread over the run so
        that their median does not hinge on one busy moment of the machine."""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(self.cfg),
                              self.setup_dir], env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        self.setup_s.append(float(out.stdout.strip().splitlines()[-1]))

    def warm_up(self):
        bundle, _ = self.romkit.pipeline.offline(CONFIGS["warmup"], self.tmp / "warmup")
        self.romkit.pipeline.online(bundle, timing_reps=1)

    def offline_once(self) -> Path:
        d = self.tmp / f"bundle_{self.n_built}"
        self.n_built += 1
        self.romkit.pipeline.offline(self.cfg, d)
        return d

    def check_offline(self, d: Path) -> bool:
        ok, self.bundle, self.errs = check_bundle_dir(self.romkit, d, self.ref)
        self.norms = snapshot_norms(self.romkit, self.bundle)
        return ok

    def offline_round(self) -> None:
        """One offline call; the bundle it wrote serves the queries that follow."""
        d, seconds = self.attempt("offline", self.offline_once, check=self.check_offline)
        self.offline_s.append(seconds)
        if d is not None:
            self.load(d)
        if self.bundle is None:
            raise RuntimeError("no offline call produced a bundle")

    def build_in_subprocess(self) -> Path:
        """The online workload's bundle, built in its own process so that the
        build does not set this process's peak memory."""
        d = self.tmp / f"bundle_{self.n_built}"
        self.n_built += 1
        code = ("import sys; sys.path[:0] = [sys.argv[1]]; import run; "
                "run.build_main(sys.argv[2:])")
        out = subprocess.run([sys.executable, "-c", code, str(HERE), json.dumps(self.cfg),
                              str(d)], capture_output=True, text=True, timeout=170,
                             check=True)
        self.attempted += 1
        self.offline_s.append(float(out.stdout.strip().splitlines()[-1]))
        self._check(self.check_offline, d)
        return d

    def load_bundle(self, d: Path):
        return self.romkit.pipeline.Bundle.load(d)

    def load(self, d: Path):
        bundle, _ = self.attempt("load", self.load_bundle, d,
                                 check=lambda b: len(b.train) == self.norms[0].size)
        if bundle is not None:
            self.bundle = bundle

    def query_round(self, n_blocks: int) -> None:
        """n_blocks blocks of queries; a query that raised has no latency."""
        if self.blocks is None:
            self.blocks = query_blocks(self.seed, self.bundle.train.times)
        for _ in range(n_blocks):
            self.n_blocks += 1
            if self.tracer is None and self.n_blocks % SETUP_EVERY == 0 \
                    and len(self.setup_s) < SETUP_REPS:
                self.setup_rep()
            for q in next(self.blocks):
                out, seconds = self.attempt(
                    "query", run_query, self.romkit, self.bundle, q,
                    check=lambda out, q=q: check_query(q, *out, self.norms, self.ref))
                if out is not None:
                    self.query_s.append(seconds)

    def execute(self):
        if self.workload == "online_sweep":
            # the build is set-up: only the load and the queries are measured
            d = self.build_in_subprocess()
            self.setup_dir = str(d)
            self.warm_up()
            self.load(d)
            start = time.perf_counter()
            if self.tracer is not None:
                while time.perf_counter() - start < self.seconds:
                    self.query_round(1)
                return
            # whole passes only, so that every run measures the same mix
            while True:
                self.query_round(PASS_BLOCKS)
                n = self.n_blocks // PASS_BLOCKS
                if (time.perf_counter() - start) * (n + 1) / n > self.seconds:
                    break
            # a second build, apart from the first, for the median of offline_s
            self.build_in_subprocess()
        else:
            self.warm_up()
            if self.tracer is not None:
                self.offline_round()
                self.query_round(TRACE_QUERY_BLOCKS)
                return
            # offline calls alternate with query rounds, so that both sample
            # the whole run rather than one stretch of it
            start = time.perf_counter()
            while True:
                self.offline_round()
                self.query_round(PASS_BLOCKS // self.min_offline)
                n = len(self.offline_s)
                elapsed = time.perf_counter() - start
                if n >= self.min_offline and elapsed * (n + 1) / n > self.seconds:
                    break
        while len(self.setup_s) < SETUP_REPS:
            self.setup_rep()

    # -- results ---------------------------------------------------------------
    def end_to_end(self) -> dict:
        q_ms = 1e3 * np.array(self.query_s)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "offline_s": (statistics.median(self.offline_s), "s"),
            "query_p50_ms": (float(np.percentile(q_ms, 50)), "ms"),
            "query_p95_ms": (float(np.percentile(q_ms, 95)), "ms"),
            "err_u_rel": (self.errs[0], "frac"),
            "err_p_rel": (self.errs[1], "frac"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        from spans import LAYERS, STENCILS

        tr = self.tracer
        off, _ = tr.totals("offline")
        qry, qcalls = tr.totals("query")
        lod, lcalls = tr.totals("load")
        c = tr.counts
        n_off = max(1, tr.ops.count("offline"))
        n_q = max(1, tr.ops.count("query"))

        def per(total, n):
            return total / n if n else 0.0

        stencil = [k for k in off if k.split(".")[-1] in STENCILS]
        fom_s = off["pipeline.fom_run"] / n_off
        fom_wall = self.bundle.fom_wall_time   # as recorded by the offline call
        integrate = qry["pipeline.integrate_rom"] / n_q
        selfs = tr.self_times()
        traced_total = sum(t for _, t in self.pairs)
        m = {
            "fom.run_s": (fom_s, "s"),
            "fom.steps": (c["fom.steps"] / n_off, "count"),
            "fom.step_ms": (1e3 * per(off["pipeline.fom_run"], c["fom.steps"]), "ms"),
            "fom.poisson_s": (off["fom.cg"] / n_off, "s"),
            "fom.poisson_iters_per_step": (per(c["fom.cg:iters"], c["fom.cg:calls"]), "count"),
            "windkessel.s": (off["fom.wk_step"] / n_off, "s"),
            "windkessel.steps": (c["fom.wk_step:calls"] / n_off, "count"),
            "operators.s": (sum(off[k] for k in stencil) / n_off, "s"),
            "operators.calls": (sum(c[k + ":calls"] for k in stencil) / n_off, "count"),
        }
        for mod in ("fom", "rom", "lifting"):
            m[f"operators.{mod}_calls"] = (sum(c[k + ":calls"] for k in stencil
                                               if k.startswith(mod + ".")) / n_off, "count")
        m.update({
            "nn.train_s": (off["pipeline.nn_train"] / n_off, "s"),
            "nn.epochs": (c["nn.epochs"] / n_off, "count"),
            "nn.epoch_us": (1e6 * per(off["pipeline.nn_train"], c["nn.epochs"]), "us"),
            "nn.eval_us": (1e6 * per(qry["pipeline.predict_outflow"],
                                     qcalls["pipeline.predict_outflow"]), "us"),
            "nn.eval_calls": (qcalls["pipeline.predict_outflow"] / n_q, "count"),
            "pod.basis_s": (off["pipeline.pod_basis"] / n_off, "s"),
            "pod.eig_s": (off["pod.symmetric_eig"] / n_off, "s"),
            "pod.project_s": (qry["pipeline.project_coefficients"] / n_q, "s"),
            "lifting.compute_s": (off["pipeline.compute_lifting"] / n_off, "s"),
            "lifting.homogenize_s": (off["pipeline.homogenize"] / n_off, "s"),
            "rom.supremizer_s": (off["pipeline.supremizer_enrich"] / n_off, "s"),
            "rom.supremizer_cg_iters": (c["rom.cg:iters"] / n_off, "count"),
            "rom.assemble_s": (off["pipeline.assemble_operators"] / n_off, "s"),
            "rom.integrate_s": (integrate, "s"),
            "rom.steps_per_query": (c["rom.steps"] / n_q, "count"),
            "rom.step_us": (1e6 * per(qry["pipeline.integrate_rom"], c["rom.steps"]), "us"),
            "rom.reconstruct_s": (qry["pipeline.reconstruct"] / n_q, "s"),
            "grid.stack_calls": (sum(v for k, v in qcalls.items()
                                     if k.endswith(".snapshot_matrix")) / n_q, "count"),
            "grid.stack_s": (sum(v for k, v in qry.items()
                                 if k.endswith(".snapshot_matrix")) / n_q, "s"),
            "grid.stack_mb": (c["grid.stack_bytes:query"] / n_q / 1e6, "MB"),
            "grid.offline_stack_mb": (c["grid.stack_bytes:offline"] / n_off / 1e6, "MB"),
            "pipeline.compare_s": (per(qry["pipeline.compare"], qcalls["pipeline.compare"]), "s"),
            "pipeline.load_s": (per(lod["pipeline.Bundle.load"], lcalls["pipeline.Bundle.load"]),
                                "s"),
            "pipeline.save_s": (sum(off[k] for k in ("pipeline.Bundle.save",
                                                    "pipeline.save_loss_history",
                                                    "pipeline._write_timings")) / n_off, "s"),
            "speedup_solve": (per(fom_wall, integrate), "x"),
            "speedup_online": (per(fom_wall, statistics.median(self.query_s)), "x"),
            "trace_overhead_frac": (statistics.median(t / u for u, t in self.pairs) - 1.0,
                                    "frac"),
            "trace.traced_s": (traced_total, "s"),
            "trace.self_sum_frac": (sum(selfs.values()) / traced_total, "frac"),
        })
        for layer in LAYERS:
            m[f"self.{layer}_s"] = (selfs[layer], "s")
        return m

    def finish(self) -> dict:
        if self.tracer is None:
            metrics = self.end_to_end()
            correct = self.wrong == 0
        else:
            metrics = self.per_layer()
            self.tracer.write(OUT / f"trace_{self.workload}_seed{self.seed}.jsonl")
            correct = self.wrong == 0 and abs(metrics["trace.self_sum_frac"][0] - 1) <= 0.05
        for name, (value, unit) in metrics.items():
            print(f"{name:32s} {value:14.6g} {unit}")
        print(f"{'failed_frac':32s} {self.failed / max(1, self.attempted):14.6g} frac")
        return {"correct": bool(correct), "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def environment() -> dict:
    import scipy

    return {"nproc": os.cpu_count(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    romkit = import_romkit()
    print("perfbench environment: " + json.dumps(environment()), file=sys.stderr)
    run = Run(romkit, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
        result = run.finish()
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
