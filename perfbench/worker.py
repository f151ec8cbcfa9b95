"""One benchmark worker: set up a workload, run it for a fixed time, report.

Started by run.py, once per set-up measurement. The worker prints
``PERFBENCH-READY <monotonic time>`` when its set-up is done (or exits there
with ``--setup-only``), then runs timed ops in a closed loop with one client
and prints ``PERFBENCH-RESULT <json>`` as its last line.

Set-up is the same for every workload: import varcert from the checkout's
``src/``, write the seeded input files, parse them back, run the known-answer
gate (the cli-cold command lines, in process, at n=512, every output checked
by an oracle) and, for fine-grid, the warm-up round. Every op outside the
timed loop is still checked and counted as attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(SRC))

import varcert  # noqa: E402
import varcert.cli  # noqa: E402
import varcert.expr  # noqa: E402
from varcert import (  # noqa: E402
    RANDOM_SPLINE,
    SINE_BASIS,
    Extremal,
    Grid,
    Integrand,
    PerturbationFamily,
    certify,
    compare_criteria,
    empirical_verify,
    sample_corpus,
    unparse,
)

import inputs  # noqa: E402
import oracles  # noqa: E402
from tracer import LAYERS, NullTracer, Tracer, median  # noqa: E402

WORKLOADS = ("cli-cold", "corpus-screen", "fine-grid")
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT"

# the highest percentile with at least ten samples beyond it at the run
# length, on the seed code; fixed so that both sides of a comparison use it
TAIL_PERCENTILE = {"cli-cold": 65.0, "corpus-screen": 99.0, "fine-grid": 90.0}
# per-layer work counts cover set-up and this many timed rounds, so they
# are exact for a seed; in-process workloads trace every other round
COUNT_ROUNDS = {"cli-cold": 1, "corpus-screen": 40, "fine-grid": 2}
# corpus-screen's caches grow with every op, so its peak RSS is read after a
# fixed number of ops: memory per unit of work, not per second
RSS_AFTER_OPS = {"corpus-screen": 1500}

PARTIALS = ("f_y", "f_z", "f_yy", "f_yz", "f_zz", "f_xz", "f_xyz", "f_yyz", "f_yzz")
GATE_N = 512
# certifies per problem and round: a certify is short, so it needs more
# repetitions than a compare or verify to catch a quiet moment of the host
FINE_CERTIFY_REPEATS = 4
CHILD_TIMEOUT_S = 120
IMPORT_PROBES = 3
ENTRY = "import sys; from varcert.cli import cli_main; sys.argv[0] = 'varcert'; cli_main()"

NULL = NullTracer()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("VARCERT_GRID_N", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list) -> tuple:
    """Run a fresh interpreter; return (exit code, stdout, stderr, wall seconds)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


def clear_symbolic_caches() -> None:
    """Empty varcert.expr's memo tables, so in-process commands start cold."""
    for name in ("diff", "simplify", "free_vars"):
        getattr(getattr(varcert.expr, name, None), "cache_clear", lambda: None)()


def count_nodes(roots) -> tuple:
    """(tree nodes, distinct subexpressions) over the given expressions.

    Walks ``Expr.args``; attributes are read leniently so that a changed
    node class gives wrong counts rather than a failed run.
    """
    size = {}
    canon = {}
    keys = {}
    tree = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in size:
                continue
            args = getattr(node, "args", ())
            if not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in args)
                continue
            size[id(node)] = 1 + sum(size[id(c)] for c in args)
            key = (getattr(node, "op", None), repr(getattr(node, "value", None)),
                   tuple(canon[id(c)] for c in args))
            canon[id(node)] = keys.setdefault(key, len(keys))
        tree += size[id(root)]
    return tree, len(keys)


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Bench:
    """State shared by the three workloads: op accounting, timing, tracing."""

    def __init__(self, workload: str, seed: int, tracer):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.workdir = WORK / f"inputs-{workload}-{seed}"
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.next_id = 0
        self.window_end = None
        self.latencies = []
        self.stages = {"certify": [], "compare": [], "verify": []}
        self.traced_ms = []
        self.untraced_ms = []
        self.main_ms = []
        self.startup_ms = []
        self.wall = 0.0
        self.rss_mark = None

    # -- ops ------------------------------------------------------------

    @contextlib.contextmanager
    def step(self, kind: str, traced: bool = True):
        """Number the next op and, if traced, wrap the layers around it."""
        tracer = self.tracer if (traced and self.tracer is not None) else NULL
        if tracer.enabled:
            tracer.op = self.next_id
        self.next_id += 1
        with tracer.installed(), tracer.span("bench." + kind):
            yield tracer

    def op(self, kind: str, fn, check, traced: bool = True) -> tuple:
        """Run fn(tracer) as one checked op; return (latency ms, result or None)."""
        self.attempted += 1
        result = None
        start = time.perf_counter()
        try:
            with self.step(kind, traced) as tracer:
                result = fn(tracer)
            ms = (time.perf_counter() - start) * 1e3
            failures = check(result)
        except Exception as exc:  # an op that raises is a failed op
            ms = (time.perf_counter() - start) * 1e3
            failures = [f"{type(exc).__name__}: {exc}"]
        if failures:
            self.failed += 1
            self.failures.extend(f"{kind}: {message}" for message in failures[:2])
        return ms, result

    def load(self, tracer, integrand: str, extremal: str, a: float, b: float) -> tuple:
        """Parse a problem and take the first access of every partial."""
        with tracer.span("expr.parse"):
            f = Integrand.from_text(integrand)
            y0 = Extremal.from_text(extremal, a, b)
        with tracer.span("expr.diff") as span:
            partials = [getattr(f, name) for name in PARTIALS]
            _ = (y0.y0p, y0.y0pp)
        if tracer.enabled and self.in_count_window():
            span.tree, span.dag = count_nodes([f.f, *partials])
        return f, y0

    def load_file(self, tracer, path) -> tuple:
        problem = inputs.read_problem(path)
        interval = problem["interval"]
        f, y0 = self.load(tracer, problem["integrand"], problem["extremal"],
                          interval["a"], interval["b"])
        return f, y0, Grid(interval["a"], interval["b"], problem["grid_n"])

    def cli_main(self, argv: tuple, traced: bool, kind: str) -> tuple:
        """varcert.cli.main(argv) in process, stdout captured; (ms, (code, stdout))."""
        def call(tracer):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                with tracer.span("cli.main"):
                    code = varcert.cli.main(list(argv))
            return code, out.getvalue()

        clear_symbolic_caches()
        return self.op(kind, call, lambda result: oracles.CLI_ORACLES[kind](*result), traced)

    def in_count_window(self) -> bool:
        return self.window_end is None or self.next_id <= self.window_end

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        # unchecked steps: an error here ends the run
        with self.step("setup-inputs") as tracer:
            with tracer.span("generator.sample") as span:
                triples = inputs.draw_corpus(self.workload, self.seed)
            span.instances = len(triples)
            files = inputs.write_inputs(self.workdir, self.workload, self.seed, triples)
        self.files = files
        self.problems = []
        for path in files["corpus"] + [files["oscillator"]]:
            with self.step("setup-load") as tracer:
                self.problems.append((path, self.load_file(tracer, path)))
        corpus0 = str(files["corpus"][0])
        oscillator = str(files["oscillator"])
        n = ["--grid-n", str(GATE_N)]
        self.gate = (
            ("certify-corpus", ("certify", corpus0, *n)),
            ("certify-oscillator", ("certify", oscillator, *n)),
            ("compare-oscillator", ("compare", oscillator, *n)),
            ("verify-corpus", ("verify", corpus0, *n)),
            ("generate-table", ("generate", str(files["spec"]), *n)),
        )
        for kind, argv in self.gate:
            self.cli_main(argv, traced=True, kind=kind)

    # -- timed loop -----------------------------------------------------

    def run(self, seconds: float) -> None:
        """Whole rounds until the time is up, so every op kind keeps its share.

        In a traced run, odd rounds are traced and even rounds are not, so
        the two halves see the same mix of ops.
        """
        start = time.perf_counter()
        deadline = start + seconds
        for number, ops in enumerate(self.rounds()):
            if number == COUNT_ROUNDS[self.workload]:
                self.window_end = self.next_id
            traced = self.tracer is not None and self.traced_round(number)
            for kind, fn, check in ops:
                ms, result = self.op(kind, fn, check, traced)
                self.record(kind, ms, result, traced)
            # a traced run needs a traced and an untraced round
            if time.perf_counter() >= deadline and (self.tracer is None or number >= 1):
                break
        self.wall = time.perf_counter() - start

    def traced_round(self, number: int) -> bool:
        return number % 2 == 1

    def record(self, kind: str, ms: float, result, traced: bool) -> None:
        self.record_latency(kind, ms)
        if self.tracer is not None:
            (self.traced_ms if traced else self.untraced_ms).append(ms)

    def record_latency(self, kind: str, ms: float) -> None:
        self.latencies.append(ms)
        if len(self.latencies) == RSS_AFTER_OPS.get(self.workload):
            self.rss_mark = self.peak_rss_mb()
        for stage in self.stages:
            if kind.startswith(stage):
                self.stages[stage].append(ms)

    def probe_startup(self) -> None:
        """Traced runs only: child wall minus in-process main on the gate argvs."""
        for kind, argv in self.gate:
            self.record_startup(kind, argv, run_child(["-c", ENTRY, *argv])[3])

    def record_startup(self, kind: str, argv: tuple, wall: float) -> float:
        """Time argv in process, untraced; the rest of the child's wall is start-up."""
        ms, _ = self.cli_main(argv, traced=False, kind=kind)
        self.main_ms.append(ms)
        self.startup_ms.append(wall * 1e3 - ms)
        return ms

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- metrics --------------------------------------------------------

    def end_to_end(self) -> dict:
        pct = TAIL_PERCENTILE[self.workload]
        lat = self.latencies
        tail = percentile(lat, pct)
        certify_ms = self.stages["certify"]
        out = {
            "op_p50_ms": (median(lat), "ms", len(lat), ""),
            "op_tail_ms": (tail, "ms", len(lat),
                           f"p{pct:g}, {sum(v > tail for v in lat)} samples beyond"),
            "ops_per_s": (len(lat) / self.wall, "1/s", len(lat), f"{self.wall:.2f} s timed"),
            "certify_p50_ms": (median(certify_ms), "ms", len(certify_ms), ""),
            "peak_rss_mb": (self.rss_mark or self.peak_rss_mb(), "MB", 1,
                            "read after a fixed op count" if self.rss_mark else ""),
        }
        return {name: {"value": v, "unit": u, "n": n, "note": note}
                for name, (v, u, n, note) in out.items()}

    def reported(self) -> dict:
        """Figures printed for reading but not gated (see BENCHMARK.json)."""
        out = {"fail_frac": {"value": self.failed / max(self.attempted, 1), "unit": "ratio",
                             "n": self.attempted, "note": f"{self.failed} failed"}}
        for stage in ("compare", "verify"):
            values = self.stages[stage]
            if values:
                out[f"{stage}_p50_ms"] = {"value": median(values), "unit": "ms",
                                          "n": len(values), "note": ""}
        return out

    def per_layer(self) -> dict:
        t = self.tracer
        imports, numpy_ms, scipy_ms = import_probe()
        window = self.window_end if self.window_end is not None else self.next_id

        def ms(values):
            return (median(values) * 1e3, "ms", len(values))

        def count(field, *names):
            return (t.total(field, names, window), "count", 1)

        classify = t.summed_by_parent("certify.classify", "certify.quad_coefficient")
        draws = t.total("calls", ("generator.build",), window)
        instances = t.total("instances", ("generator.sample",), window)
        main_ms = [v / 1e3 for v in self.main_ms]
        startup = [v / 1e3 for v in self.startup_ms]
        traced = median(self.traced_ms)
        untraced = median(self.untraced_ms)
        out = {
            "cli.import_ms": ms(imports),
            "cli.import_numpy_ms": ms(numpy_ms),
            "cli.import_scipy_ms": ms(scipy_ms),
            "cli.main_ms": ms(main_ms),
            "cli.startup_ms": ms(startup),
            "generator.sample_ms": ms(t.durations("generator.sample")),
            "generator.build_ms": ms(t.durations("generator.build")),
            "generator.draws": (draws, "count", 1),
            "generator.accept_ratio": (instances / draws if draws else 0.0, "ratio", draws),
            "expr.parse_ms": ms(t.durations("expr.parse")),
            "expr.diff_ms": ms(t.durations("expr.diff")),
            "expr.tree_nodes": count("tree", "expr.diff"),
            "expr.dag_nodes": count("dag", "expr.diff"),
            "variational.el_residual_ms": ms(t.durations("variational.el_residual")),
            "variational.profile_ms": ms(t.durations("variational.profile")),
            "variational.points": count("points", "variational.el_residual",
                                        "variational.profile", "jacobi.resample"),
            "certify.classify_us": (median(classify) * 1e6, "us", len(classify)),
            "certify.ladder_ms": ms(t.durations("certify.ladder")),
            "certify.functional_value_ms": ms(t.durations("certify.functional_value")),
            "certify.functional_evals": count("calls", "certify.functional_value"),
            "calculus.integrate_ms": ms(t.durations("calculus.integrate")),
            "jacobi.accessory_ms": ms(t.durations("jacobi.accessory")),
            "jacobi.resample_ms": ms(t.summed_by_parent("jacobi.resample")),
            "jacobi.conjugate_ms": ms(t.durations("jacobi.conjugate")),
            "jacobi.steps": count("steps", "jacobi.accessory"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = ms(t.layer_self_per_op(layer))
        out["trace.op_p50_ms"] = (traced, "ms", len(self.traced_ms))
        out["trace.untraced_op_p50_ms"] = (untraced, "ms", len(self.untraced_ms))
        out["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0) if untraced else 0.0,
                                     "%", len(self.traced_ms))
        return {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in out.items()}


def import_probe() -> tuple:
    """Fresh-interpreter `import varcert` times, and numpy/scipy import shares."""
    code = "import time; t = time.perf_counter(); import varcert; print(time.perf_counter() - t)"
    imports, numpy_s, scipy_s = [], [], []
    for _ in range(IMPORT_PROBES):
        rc, out, _, _ = run_child(["-c", code])
        if rc == 0:
            imports.append(float(out.strip()))
        rc, _, err, _ = run_child(["-X", "importtime", "-c", "import varcert"])
        if rc == 0:
            tops = importtime_tops(err)
            numpy_s.append(tops["numpy"])
            scipy_s.append(tops["scipy"])
    return imports, numpy_s, scipy_s


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")
DEPENDENCIES = ("numpy", "scipy")


def importtime_tops(stderr: str) -> dict:
    """Cumulative seconds per dependency, over its outermost -X importtime entries.

    An entry counts when no enclosing entry belongs to a dependency, so a
    numpy submodule that scipy pulls in is part of scipy's figure.
    """
    entries = [(len(m.group(2)), m.group(3).split(".", 1)[0], int(m.group(1)) * 1e-6)
               for m in map(_IMPORTTIME.match, stderr.splitlines()) if m]
    totals = dict.fromkeys(DEPENDENCIES, 0.0)
    ancestors = []
    # importtime prints a module after its children; reversed, parents come first
    for depth, package, cumulative in reversed(entries):
        del ancestors[depth:]
        if package in totals and not any(a in totals for a in ancestors):
            totals[package] += cumulative
        ancestors.extend([None] * (depth - len(ancestors)))
        ancestors.append(package)
    return totals


# ---------------------------------------------------------------------------
# workloads


class CliCold(Bench):
    """Each op is a fresh interpreter running the console-script entry."""

    def setup(self) -> None:
        super().setup()
        self.repeat = oracles.RepeatCheck()

    def rounds(self):
        corpus = [str(p) for p in self.files["corpus"]]
        oscillator = str(self.files["oscillator"])
        spec = str(self.files["spec"])
        number = 0
        while True:
            problem = corpus[number % len(corpus)]
            number += 1
            yield [(kind, self.child_op(argv), self.child_check(kind, argv)) for kind, argv in (
                ("certify-corpus", ("certify", problem)),
                ("certify-oscillator", ("certify", oscillator)),
                ("compare-oscillator", ("compare", oscillator)),
                ("verify-corpus", ("verify", problem)),
                ("generate-table", ("generate", spec)),
            )]

    def child_op(self, argv):
        def call(tracer):
            code, out, err, wall = run_child(["-c", ENTRY, *argv])
            return argv, code, out, wall
        return call

    def child_check(self, kind, argv):
        def check(result):
            _, code, out, _ = result
            return oracles.CLI_ORACLES[kind](code, out) + self.repeat(argv, out)
        return check

    def traced_round(self, number: int) -> bool:
        return False

    def record(self, kind, ms, result, traced) -> None:
        """The child is never traced; in a traced run the same argv then runs
        in process, untraced and traced, for cli.main_ms and the overhead."""
        self.record_latency(kind, ms)
        if self.tracer is None or result is None:
            return
        argv, _, _, wall = result
        self.untraced_ms.append(self.record_startup(kind, argv, wall))
        traced_ms, _ = self.cli_main(argv, traced=True, kind=kind)
        self.traced_ms.append(traced_ms)

    def probe_startup(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class CorpusScreen(Bench):
    """Each op draws a fresh instance, round-trips its text, and certifies it."""

    def rounds(self):
        a, b = inputs.CORPUS_INTERVAL
        grid = Grid(a, b, inputs.GRID_N[self.workload])
        k = 0
        while True:
            yield [("screen", self.screen_op(inputs.screen_seed(self.seed, k), grid), self.check)]
            k += 1

    def screen_op(self, seed: int, grid: Grid):
        def call(tracer):
            with tracer.span("generator.sample") as span:
                triples = sample_corpus(seed, 1, grid.a, grid.b)
            span.instances = len(triples)
            spec, integrand, extremal = triples[0]
            with tracer.span("expr.unparse"):
                texts = unparse(integrand.f), unparse(extremal.y0)
            f, y0 = self.load(tracer, *texts, spec.a, spec.b)
            start = time.perf_counter()
            with tracer.span("certify.certify"):
                cert = certify(f, y0, grid)
            return cert, (time.perf_counter() - start) * 1e3
        return call

    @staticmethod
    def check(result) -> list:
        cert, _ = result
        return oracles.corpus_certificate(cert.verdict.kind.value, cert.verdict.el_residual_max,
                                          cert.quad_coefficient)

    def record(self, kind, ms, result, traced) -> None:
        super().record(kind, ms, result, traced)
        if result is not None:
            self.stages["certify"].append(result[1])


class FineGrid(Bench):
    """Certify, compare and verify a fixed seeded set at n=65536, caches warm.

    Every round repeats the same 29 calls on the same inputs, so op and
    certify latency are each call's fastest repetition in the run:
    contention from other tenants of the host only ever adds time, and a
    short call often runs between its bursts. The calls differ in cost by
    three orders of magnitude, so their fastest times are summarised by a
    geometric mean; a median of so few clusters jumps between them.
    """

    def __init__(self, workload: str, seed: int, tracer):
        super().__init__(workload, seed, tracer)
        self.calls = {}

    def setup(self) -> None:
        super().setup()
        self.certificates = {}
        for path, (f, y0, grid) in self.problems:
            self.op("warmup-certify", self.certify_op(path, f, y0, grid), self.certify_check(path))
        # the first compare and verify in a process pay one-time costs
        path, (f, y0, grid) = self.problems[0]
        self.op("warmup-compare", self.compare_op(f, y0, grid), self.compare_check(path, grid))
        self.op("warmup-verify", self.verify_op(path, f, y0, grid), self.verify_check)

    def is_oscillator(self, path) -> bool:
        return path == self.files["oscillator"]

    def certify_op(self, path, f, y0, grid):
        def call(tracer):
            with tracer.span("certify.certify"):
                cert = certify(f, y0, grid)
            self.certificates[path] = cert
            return cert
        return call

    def certify_check(self, path):
        def check(cert):
            if self.is_oscillator(path):
                return oracles.oscillator_certificate(cert.verdict.kind.value)
            return oracles.corpus_certificate(cert.verdict.kind.value,
                                              cert.verdict.el_residual_max,
                                              cert.quad_coefficient)
        return check

    def compare_op(self, f, y0, grid):
        def call(tracer):
            with tracer.span("jacobi.compare"):
                return compare_criteria(f, y0, grid)
        return call

    def compare_check(self, path, grid):
        def check(comparison):
            if self.is_oscillator(path):
                return oracles.oscillator_comparison(comparison.conjugate_point, comparison.ratio)
            return oracles.corpus_comparison(comparison.conjugate_point, comparison.ratio, grid.b)
        return check

    def verify_op(self, path, f, y0, grid):
        def call(tracer):
            families = (PerturbationFamily(SINE_BASIS, count=8, seed=self.seed),
                        PerturbationFamily(RANDOM_SPLINE, count=4, seed=self.seed))
            reports = []
            for family in families:
                with tracer.span("certify.ladder"):
                    reports.append(empirical_verify(f, y0, self.certificates[path], family, grid))
            return reports
        return call

    @staticmethod
    def verify_check(reports) -> list:
        return oracles.verification(all(report.passed for report in reports))

    def rounds(self):
        """Each round visits every problem: certify, compare, then verify.

        An op's kind names its call and problem, as in ``compare-2``.
        """
        while True:
            ops = []
            for index, (path, (f, y0, grid)) in enumerate(self.problems):
                ops += [(f"certify-{index}", self.certify_op(path, f, y0, grid),
                         self.certify_check(path))] * FINE_CERTIFY_REPEATS
                ops.append((f"compare-{index}", self.compare_op(f, y0, grid),
                            self.compare_check(path, grid)))
                if not self.is_oscillator(path):
                    ops.append((f"verify-{index}", self.verify_op(path, f, y0, grid),
                                self.verify_check))
            yield ops

    def record_latency(self, kind: str, ms: float) -> None:
        super().record_latency(kind, ms)
        self.calls.setdefault(kind, []).append(ms)

    def fastest(self, stage: str = "") -> dict:
        """Geometric mean over the calls of each one's fastest repetition."""
        best = [min(values) for kind, values in self.calls.items() if kind.startswith(stage)]
        return {"value": statistics.geometric_mean(best) if best else 0.0, "unit": "ms",
                "n": len(best), "note": f"geometric mean over {len(best)} calls of the fastest"}

    def end_to_end(self) -> dict:
        return {**super().end_to_end(), "op_p50_ms": self.fastest(),
                "certify_p50_ms": self.fastest("certify")}

    def reported(self) -> dict:
        return {**super().reported(), "compare_p50_ms": self.fastest("compare"),
                "verify_p50_ms": self.fastest("verify")}


CLASSES = {"cli-cold": CliCold, "corpus-screen": CorpusScreen, "fine-grid": FineGrid}


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "unknown"
    return {"python": sys.version.split()[0], **versions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not Path(varcert.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: varcert imported from {varcert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("VARCERT_GRID_N", None)
    bench = CLASSES[args.workload](args.workload, args.seed, Tracer() if args.trace else None)
    bench.setup()
    print(READY, time.monotonic(), flush=True)
    if args.setup_only:
        return 0
    bench.run(args.seconds)
    result = {
        "inputs": inputs.digest(bench.workdir.iterdir()),
        "environment": environment(),
    }
    if args.trace:
        bench.probe_startup()
        result["per_layer"] = bench.per_layer()
        spans = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(bench.tracer.dump()) + "\n", encoding="utf-8")
        result["spans"] = str(spans.relative_to(ROOT))
    else:
        result["end_to_end"] = bench.end_to_end()
    result["reported"] = bench.reported()
    result.update(attempted=bench.attempted, failed=bench.failed,
                  failures=bench.failures[:20])
    print(RESULT, json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
