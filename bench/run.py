"""lierine benchmark: three exact-calculator workloads, checked answers.

Run from the root of a checkout:

    python3 bench/run.py --workload coh-gl3 --seed 1 --seconds 60 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end ones; with `--trace 1` they are the per-layer ones from a
traced pass (see README.md next to this file).  Inputs are generated
from the seed into `.bench_work/` under the checkout.  The library is
imported from `src/` of the checkout; without it the benchmark exits 1.

`python3 bench/run.py --write-golden` rewrites `golden.json` from the
current library (exit codes and stdout of the fixture operations).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from math import comb
from typing import Callable, Dict, List, Optional, Sequence

import gen
from spans import Tracer
from speed import SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))

WORK = ".bench_work"
GOLDEN = os.path.join(HERE, "golden.json")
FIXTURES = os.path.join("src", "lierine", "fixtures")
MIN_SETUPS = 3

GL3_DIMS = [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]  # Koszul: prod (1 + t^(2i-1)), i = 1..3
WITT7_DIMS = [1, 3, 3, 1, 0, 0, 0, 0]  # recorded when this benchmark was written

# (fixture, command, extra arguments): every fixture with each command
# that applies to it, plus two usage errors (exit 2)
FIXTURE_OPS = [
    ("abelian2", "check-lr", []),
    ("abelian2", "cohomology", []),
    ("abelian2", "bracket", []),
    ("derx2", "check-lr", []),
    ("derx2", "cohomology", []),
    ("derx3", "check-lr", []),
    ("derx3", "cohomology", []),
    ("derx3", "bracket", []),
    ("derx3", "generator", ["--name", "flat_line"]),
    ("derx3", "generator", ["--name", "curved_line"]),
    ("derx3", "generator", []),
    ("desk", "check-twilled", []),
    ("desk", "cohomology", []),
    ("desk", "check-bialgebra", []),
    ("direct_sum22", "check-twilled", []),
    ("direct_sum22", "cohomology", []),
    ("direct_sum22", "check-bialgebra", []),
    ("flat_broken", "check-twilled", []),
    ("flat_broken", "cohomology", []),
    ("flat_broken", "check-bialgebra", []),
    ("matched_pair", "check-twilled", []),
    ("matched_pair", "cohomology", []),
    ("matched_pair", "bracket", []),
    ("matched_pair", "check-bialgebra", []),
    ("matched_pair_flipped", "check-twilled", []),
    ("matched_pair_flipped", "cohomology", []),
    ("matched_pair_flipped", "check-bialgebra", []),
    ("sl2", "check-lr", ["--name", "sl2"]),
    ("sl2", "cohomology", ["--name", "sl2", "--max-degree", "3"]),
    ("sl2", "check-bialgebra", []),
]


def load_lierine():
    """Import the library from src/ of the current directory, or exit 1."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "lierine", "__init__.py")):
        sys.exit(f"benchmark: no library at {src}; run from the root of a checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    import lierine
    import lierine.bialg
    import lierine.cli
    import lierine.gerst
    import lierine.twilled

    if not os.path.abspath(lierine.__file__).startswith(src + os.sep):
        sys.exit(f"benchmark: imported lierine from {lierine.__file__}, not {src}")
    return lierine


class Op:
    """One timed operation: `run` does the work, `check` returns None when
    the outcome is right and a one-line reason otherwise."""

    def __init__(self, name: str, run: Callable, check: Callable) -> None:
        self.name = name
        self.run = run
        self.check = check


def cli_call(cli, argv: Sequence[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_op(cli, name: str, argv: Sequence[str], check: Callable) -> Op:
    return Op(name, lambda: cli_call(cli, argv), check)


def golden_check(want: Dict) -> Callable:
    def check(outcome) -> Optional[str]:
        code, stdout = outcome
        if code != want["exit"]:
            return f"exit {code}, expected {want['exit']}"
        if stdout != want["stdout"]:
            return "stdout differs from the golden copy"
        return None
    return check


def dims_of(stdout: str) -> Optional[List[int]]:
    for line in stdout.splitlines():
        if line.startswith("dims:"):
            return [int(x) for x in line.split()[1:]]
    return None


def dims_check(expected: List[int], rank: int, base_dim: int) -> Callable:
    """Exit 0, the expected dimensions, H^0 = 1 and the Euler identity
    sum (-1)^q dim H^q = sum (-1)^q dim C^q."""
    euler_c = sum((-1) ** q * comb(rank, q) * base_dim for q in range(rank + 1))

    def check(outcome) -> Optional[str]:
        code, stdout = outcome
        dims = dims_of(stdout)
        if code != 0 or dims is None:
            return f"exit {code}, no dims line"
        if dims[:1] != [1]:
            return f"H^0 = {dims[:1]}, expected [1]"
        if sum((-1) ** q * d for q, d in enumerate(dims)) != euler_c:
            return f"Euler characteristic of {dims} is not {euler_c}"
        if dims != expected:
            return f"dims {dims}, expected {expected}"
        return None
    return check


def write_input(workload: str, filename: str, text: str) -> str:
    folder = os.path.join(WORK, workload)
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, filename)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def expect_pass(cli, argv: Sequence[str]) -> Optional[str]:
    code, stdout = cli_call(cli, argv)
    if code != 0:
        return f"{' '.join(argv)}: exit {code}\n{stdout}"
    return None


def setup_coh(lib, workload: str, seed: int) -> tuple:
    """Generate one structure, check it with check-lr, return the op."""
    cli = lib.cli
    if workload == "coh-gl3":
        path = write_input(workload, "gl3.lri", gen.gl_n(3, seed))
        check = dims_check(GL3_DIMS, 9, 1)
    else:
        path = write_input(workload, "witt7.lri", gen.witt(7, seed))
        check = dims_check(WITT7_DIMS, 7, 7)
    problems = [expect_pass(cli, ["check-lr", "--input", path])]
    ops = [cli_op(cli, f"cohomology {path}", ["cohomology", "--input", path], check)]
    return ops, [p for p in problems if p]


def fixture_argv(fixture: str, command: str, extra: Sequence[str]) -> List[str]:
    return [command, "--input", os.path.join(FIXTURES, fixture + ".lri"), *extra]


def golden_ops():
    """(name, argv) of every operation whose output has a golden copy."""
    out = [(" ".join([f, c, *x]), fixture_argv(f, c, x)) for f, c, x in FIXTURE_OPS]
    # the generated double is the same up to relabelling for every seed,
    # and its report names no basis index, so one golden copy serves all
    path = os.path.join(WORK, "identities", "sl2_double.lri")
    out.append(("check-twilled sl2_double", ["check-twilled", "--input", path]))
    return out


def setup_identities(lib, seed: int) -> tuple:
    cli = lib.cli
    path = write_input("identities", "sl2_double.lri", gen.sl2_double(seed))
    problems = [
        expect_pass(cli, ["check-lr", "--input", path, "--name", "sl2"]),
        expect_pass(cli, ["check-lr", "--input", path, "--name", "sl2_dual"]),
    ]
    inst = cli.parse_instance(path)
    double = inst.build_twilled("double")
    if lib.twilled.is_twilled(double):
        problems.append(f"{path}: the generated double is not twilled")
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    ops = []
    for name, argv in golden_ops():
        ops.append(cli_op(cli, name, argv, golden_check(golden[name])))

    g, d = inst.lr("sl2"), inst.lr("sl2_dual")
    ops.append(Op(
        "matched_pair_from_bialgebra sl2 standard",
        lambda: lib.bialg.matched_pair_from_bialgebra(g, d.bracket),
        lambda mp: None if mp == double else "constructed pair differs from the generated double",
    ))
    derx3 = cli.parse_instance(os.path.join(FIXTURES, "derx3.lri")).lr("derx3")
    ops.append(Op(
        "gerstenhaber_validate derx3 2",
        lambda: lib.gerst.gerstenhaber_validate(derx3, 2),
        lambda bad: None if repr(bad) == golden["gerstenhaber_validate derx3 2"]["return"]
        else f"returned {bad!r}",
    ))
    random.Random(seed).shuffle(ops)
    return ops, [p for p in problems if p]


def setup(lib, workload: str, seed: int) -> tuple:
    if workload == "identities":
        return setup_identities(lib, seed)
    return setup_coh(lib, workload, seed)


class PassResult:
    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.failures: List[str] = []

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(ops: List[Op], clock: Callable[[], float] = time.perf_counter) -> PassResult:
    """Run every op once; a wrong answer or an exception is a failure and
    the pass goes on.

    Garbage left by earlier ops is collected before each op, outside the
    timed region, as a fresh `lierine` process would start without it;
    otherwise the seeded op order decides which short op pays for a full
    collection."""
    res = PassResult()
    for op in ops:
        gc.collect()
        start = clock()
        try:
            outcome = op.run()
        except Exception:
            res.latencies.append(clock() - start)
            res.failures.append(f"{op.name}: raised\n{traceback.format_exc()}")
            continue
        res.latencies.append(clock() - start)
        try:
            reason = op.check(outcome)
        except Exception:
            reason = f"check raised\n{traceback.format_exc()}"
        if reason:
            res.failures.append(f"{op.name}: {reason}")
    return res


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Bench:
    """The current ops of one workload and the time of every set-up.

    The library is imported once.  Each set-up rebuilds and checks the
    inputs.  Set-ups are spread over the run, one after every pass, so
    their median samples the machine at several moments, as `wall_s` does.
    Times are taken on the meter's clock, which leaves out its probes.
    """

    def __init__(self, lib, workload: str, seed: int, meter: SpeedMeter) -> None:
        self.lib = lib
        self.meter = meter
        self.workload = workload
        self.seed = seed
        self.setup_times: List[float] = []
        self.problems: List[str] = []
        self.ops: List[Op] = []
        self.first_pass_rss_mb = 0.0

    def set_up(self) -> None:
        start = self.meter.clock()
        self.ops, problems = setup(self.lib, self.workload, self.seed)
        self.setup_times.append(self.meter.clock() - start)
        self.problems += [p for p in problems if p not in self.problems]

    def measure(self, seconds: float) -> List[PassResult]:
        """Whole passes, each followed by a set-up, until the next one would
        end after `seconds`; at least one pass and MIN_SETUPS set-ups.

        The peak RSS is read right after the first pass, so it covers one
        import, one set-up and one pass whatever the number of passes."""
        passes: List[PassResult] = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(self.ops, self.meter.clock))
            if len(passes) == 1:
                self.first_pass_rss_mb = peak_rss_mb()
            self.set_up()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
        while len(self.setup_times) < MIN_SETUPS:
            self.set_up()
        return passes


def hd_median(xs: Sequence[float]) -> float:
    """Harrell-Davis estimate of the median (Biometrika 69, 1982).

    It is a mean of the order statistics, weighted by a Beta((n+1)/2,
    (n+1)/2) density over each rank's share of [0, 1].  The `identities`
    ops differ in size by steps of 50% near the middle, and the plain
    median jumps between them when a few ops slow down.  This estimate
    moves smoothly instead.
    """
    xs = sorted(xs)
    n = len(xs)
    if n == 1:
        return xs[0]
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(x: float) -> float:
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * (math.log(x) + math.log1p(-x)) - log_beta)

    steps = 16  # Simpson's rule on each rank's interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def metric(value, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: List[PassResult], setup_s: float, rss_mb: float, factor: float) -> Dict:
    """The metrics of an untraced run; every time is multiplied by the
    speed meter's `factor`."""
    return {
        "wall_s": metric(statistics.fmean(p.wall_s for p in passes) * factor, "s"),
        "setup_s": metric(setup_s * factor, "s"),
        "op_p50_ms": metric(hd_median([t for p in passes for t in p.latencies]) * 1e3 * factor, "ms"),
        "op_max_ms": metric(hd_median([max(p.latencies) for p in passes]) * 1e3 * factor, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, traced: PassResult, untraced: List[PassResult]) -> Dict:
    out: Dict[str, Dict] = {}
    for label in tracer.installed:
        if label in tracer.self_s:
            out[f"{label}_s"] = metric(tracer.self_s[label], "s")
        out[f"{label}_calls"] = metric(tracer.calls[label], "count")
    if "exactla.rank" in tracer.installed:
        out["exactla.rank_entries"] = metric(tracer.rank_entries, "count")
        out["exactla.rank_nnz"] = metric(tracer.rank_nnz, "count")
        if tracer.rank_entries:
            out["exactla.density"] = metric(tracer.rank_nnz / tracer.rank_entries, "ratio")
    out["trace.wall_s"] = metric(traced.wall_s, "s")
    out["trace.overhead_s"] = metric(traced.wall_s - statistics.fmean(p.wall_s for p in untraced), "s")
    out["trace.unattributed_s"] = metric(traced.wall_s - tracer.attributed_s(), "s")
    return out


def write_spans(tracer: Tracer, workload: str, seed: int) -> str:
    path = os.path.join(WORK, f"{workload}-seed{seed}.spans.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["label", "start_s", "end_s", "parent"], "spans": tracer.spans}, fh)
    return path


def write_golden(lib) -> None:
    """Record exit code and stdout of every golden op at this commit."""
    write_input("identities", "sl2_double.lri", gen.sl2_double(0))
    golden = {}
    for name, argv in golden_ops():
        code, stdout = cli_call(lib.cli, argv)
        golden[name] = {"exit": code, "stdout": stdout}
    derx3 = lib.cli.parse_instance(os.path.join(FIXTURES, "derx3.lri")).lr("derx3")
    golden["gerstenhaber_validate derx3 2"] = {"return": repr(lib.gerst.gerstenhaber_validate(derx3, 2))}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("coh-gl3", "coh-witt7", "identities"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_golden and args.workload is None:
        ap.error("--workload is required")

    if args.write_golden:
        write_golden(load_lierine())
        return 0

    lib = load_lierine()
    import_s = time.perf_counter() - T_START
    meter = SpeedMeter()
    meter.start()
    bench = Bench(lib, args.workload, args.seed, meter)
    bench.set_up()
    if args.trace:
        untraced = bench.measure(args.seconds / 2)
        meter.stop()  # its probes would land in the layers' self times
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(bench.ops)
        finally:
            tracer.uninstall()
        passes = untraced + [traced]
        metrics = per_layer(tracer, traced, untraced)
        print(f"spans: {write_spans(tracer, args.workload, args.seed)}")
        for label in tracer.missing:
            print(f"entry points gone, metrics absent: {label}", file=sys.stderr)
    else:
        passes = bench.measure(args.seconds)
        meter.stop()
        metrics = end_to_end(passes, import_s + statistics.median(bench.setup_times),
                             bench.first_pass_rss_mb, meter.factor())

    attempted = sum(len(p.latencies) for p in passes)
    failures = bench.problems + [f for p in passes for f in p.failures]
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    failed = sum(len(p.failures) for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {len(bench.ops)} ops, "
          f"fail_ratio {failed / attempted:.4f}")
    print(f"  speed factor {meter.factor():.4f} from {len(meter.samples)} probes")
    print("  pass wall_s, unscaled: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print(f"  import_s: {import_s:.3f}  set-ups: " + " ".join(f"{t:.3f}" for t in bench.setup_times))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
