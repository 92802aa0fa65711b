#!/usr/bin/env python3
"""eliastream benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (parameters in plan.py), each a closed loop with one client and
one op in flight:

  extract_long   in-process `eliastream extract` on 16 KiB Bernoulli(p) inputs,
                 p cycling through 0.05, 0.3, 0.5.  StreamExtractor.push does
                 almost all the work, and its per-bit cost grows with the
                 stream, which is what a windowed engine would remove.
  extract_short  the same call on 512-byte inputs, ops alternating between
                 streaming and `--demand 512`.  Coefficients stay small, so
                 argparse, file I/O, bit packing and the report carry a real
                 share; a change that adds per-call cost shows here.
  oracles        a fresh `python -m eliastream.cli` process per op, cycling
                 through verify and the known, universal and von Neumann
                 simulators with seeded p and theta.  It never touches
                 StreamExtractor: the no-change control for extractor work.

Ops run until --seconds have passed, stopping at the end of a whole cycle of
the op sequence so every run has the same mix.  Outputs are checked after the
timed loop (checks.py); a failed check, a non-zero exit or an op over its
time budget counts the op as failed.  With --trace 0 the last stdout line
holds the end-to-end metrics of BENCHMARK.json:

  setup_s           median of 5 fresh processes' time from spawn to the first
                    timed op (import, input generation, one warm-up op)
  ops_per_s         ops / summed op time
  input_bits_per_s  input bits the ops' walks consume / summed op time
  op_p50_s, op_p90_s  per op class (p and mode, or command), then averaged
  peak_rss_mb       ru_maxrss of this process (extract) or of the largest
                    child (oracles), read before any output check

Times are calibrated seconds (see Reference below).  With --trace 1 each op
is followed by a traced replay (replay.py) and the line holds the per-layer
metrics, from raw wall-clock spans.  Spans and a stamped result are written
under bench/.out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import OpRecord, make_checker, parse_report
from plan import DEFAULT_SEED, WORKLOADS, Plan, oracle_walk_bits
from replay import Tracer, replay_extract

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
SETUP_PROBES = 5  # setup_s is the median of this many fresh set-ups
IMPORT_PROBES = 3  # traced runs time this many fresh imports of eliastream.cli

# Calibration.  On a shared host the speed of one core can change by 40% from
# one second to the next, and not by the same factor for every kind of work,
# so raw wall-clock medians of the same code spread by 10-20% between runs.
# Timed end-to-end metrics are therefore reported in calibrated seconds: an
# op's wall seconds * nominal / (mean time of the reference samples taken just
# before and just after it on the same pinned core).  Each workload names the
# reference whose work resembles its ops (plan.py).  The references are
# benchmark code, so no change to eliastream moves them.
REF_SHARE = 0.01  # reference sampling after an op lasts this share of the op
_REF_BIG = 3**40000


def _interpreter_reference() -> None:
    """Small-int loop work, as in argparse, bit packing and the short-stream walk."""
    acc, out = 0, []
    for i in range(3000):
        acc = (acc * 31 + i) & 0xFFFF
        out.append(acc & 1)
    _REF_BIG * 12345 // 6789


def _bigint_reference() -> None:
    """Multiply and divide of ~60k-bit integers by small ones, as in the long-stream walk."""
    acc, out = 0, []
    for i in range(1000):
        acc = (acc * 31 + i) & 0xFFFF
        out.append(acc & 1)
    big = _REF_BIG
    for _ in range(3):
        big = big * 12345 // 6789


# name -> (work, its seconds on an idle core of a 2.1 GHz Xeon)
REFERENCES = {"interpreter": (_interpreter_reference, 4.0e-4), "bigint": (_bigint_reference, 2.0e-4)}


class Reference:
    """Samples one reference and turns wall seconds into calibrated seconds."""

    def __init__(self, name: str):
        self.work, self.nominal = REFERENCES[name]

    def sample(self) -> float:
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def mean(self, min_seconds: float) -> float:
        """Mean of samples taken for at least `min_seconds` (one at least)."""
        samples = [self.sample()]
        while sum(samples) < min_seconds:
            samples.append(self.sample())
        return statistics.mean(samples)

    def calibrate(self, seconds: float, before: float, after: float) -> float:
        return seconds * 2 * self.nominal / (before + after)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one core, the one the reference samples."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass  # calibration still holds per op, only with more noise


def import_cli():
    """Import eliastream.cli from the checkout's src/, or stop without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import eliastream.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import eliastream from {SRC}: {exc}")
    if SRC not in Path(eliastream.cli.__file__).resolve().parents:
        raise SystemExit(f"error: eliastream was imported from outside {SRC}")
    return eliastream.cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


def _strip_elapsed(report: bytes) -> bytes:
    return b"".join(line for line in report.splitlines(True) if not line.startswith(b"elapsed="))


class Runner:
    """Runs the ops of one plan in a private work directory."""

    def __init__(self, plan: Plan, work: Path, cli):
        self.plan = plan
        self.work = work
        self.cli = cli
        self.env = child_env()
        self.budget = plan.params["budget_s"]
        self._interned: dict = {}
        for inp in plan.inputs:
            self.input_path(inp.input_id).write_bytes(inp.data)

    def input_path(self, input_id: int) -> Path:
        return self.work / f"in-{input_id}.bin"

    def argv(self, op, out: Path, rep: Path) -> list[str]:
        """The op's eliastream arguments, writing its output and report to out and rep."""
        if self.plan.kind == "oracles":
            return [*op.argv, "--report", str(rep)]
        argv = ["extract", "--input", str(self.input_path(op.input_id)),
                "--output", str(out), "--report", str(rep)]
        if op.mode == "on-demand":
            argv += ["--demand", str(self.plan.params["demand"])]
        return argv

    def run(self, op) -> OpRecord:
        out, rep = self.work / "out.bin", self.work / "report.txt"
        out.unlink(missing_ok=True)
        rep.unlink(missing_ok=True)
        argv = self.argv(op, out, rep)
        rc = error = None
        if self.plan.kind == "extract":
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                error = f"raised {exc!r}"
            duration = time.perf_counter() - start
        else:
            cmd = [sys.executable, "-m", "eliastream.cli", *argv]
            start = time.perf_counter()
            try:
                rc = subprocess.run(cmd, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, timeout=self.budget).returncode
            except subprocess.TimeoutExpired:
                error = f"over budget (killed after {self.budget} s)"
            duration = time.perf_counter() - start
        # Interned: a run repeats few distinct outputs, so memory does not
        # grow with the op count (the elapsed line is never checked).
        output = _read(out)
        output = self._interned.setdefault(output, output)
        report = _strip_elapsed(_read(rep)).decode(errors="replace")
        return OpRecord(op, duration, rc, error, output, self._interned.setdefault(report, report))

    def replay(self, op_id: int, rec: OpRecord, tracer: Tracer) -> tuple[float, str | None]:
        """Traced replay of a finished op: (traced seconds, mismatch or None).

        Traced seconds exclude spans labelled replayed, so they compare with
        the untraced op's time.
        """
        out, rep = self.work / "replay-out.bin", self.work / "replay-report.txt"
        out.unlink(missing_ok=True)
        rep.unlink(missing_ok=True)
        first = len(tracer.spans)
        tracer.op = op_id
        argv = self.argv(rec.op, out, rep)
        if self.plan.kind == "extract":
            replay_extract(tracer, argv)
            root = tracer.spans[first]
            traced = root["end"] - root["start"]
        else:
            spans_file = self.work / "spans.json"
            spans_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "replay.py"), "--spans", str(spans_file), *argv]
            start = time.perf_counter()
            try:
                subprocess.run(cmd, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, timeout=self.budget, check=True)
            except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
                return time.perf_counter() - start, f"replay failed: {exc}"
            traced = time.perf_counter() - start
            for span in json.loads(spans_file.read_text()):
                span["op"] = op_id
                if span["parent"] is not None:
                    span["parent"] += first
                tracer.spans.append(span)
        traced -= sum(s["end"] - s["start"] for s in tracer.spans[first:] if s["attrs"].get("replayed"))
        if _read(out) != rec.output or _strip_elapsed(_read(rep)).decode() != rec.report:
            return traced, "replay output differs from the op's output"
        return traced, None


def run_loop(runner: Runner, seconds: float, tracer: Tracer | None, ref: Reference):
    """Closed loop over whole op cycles until `seconds` have passed.

    Returns the op records, the traced replays, and the reference means
    taken before the first op and after every op.
    """
    records, traced, refs = [], [], [ref.mean(0.005)]
    start = time.perf_counter()
    for k, op in enumerate(runner.plan.ops()):
        records.append(runner.run(op))
        if tracer is not None:
            traced.append(runner.replay(k, records[-1], tracer))
        refs.append(ref.mean(REF_SHARE * records[-1].duration))
        if (k + 1) % runner.plan.cycle == 0 and time.perf_counter() - start >= seconds:
            return records, traced, refs


def setup_samples(cmd: list[str], count: int, env: dict, ref: Reference) -> list[float]:
    """Calibrated set-up times of `count` fresh probes, each printing perf_counter() when ready.

    perf_counter is the system-wide monotonic clock on Linux, so a sample is
    the time from just before the child is spawned to the moment it is ready.
    """
    samples = []
    for _ in range(count):
        before = ref.mean(0.005)
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=170, check=True)
        ready = float(proc.stdout.split()[-1]) - start
        samples.append(ref.calibrate(ready, before, ref.mean(0.005)))
    return samples


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamp(args, plan: Plan) -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__, "mpmath": mpmath.__version__,
        "commit": git_commit(), "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workload": args.workload, "params": plan.params,
    }


def class_percentile(plan: Plan, records, durations, q: int) -> float:
    """Mean over op classes of each class's q-th percentile of op time.

    A class is a (p, mode) pair for extract and a command for oracles.  The
    cycle fixes the class mix, and classes differ in cost by up to 4x, so a
    percentile of the pooled times can fall in the gap between two classes and
    jump from run to run; per-class percentiles do not.
    """
    classes: dict = {}
    for r, d in zip(records, durations):
        key = r.op.kind if plan.kind == "oracles" else (plan.inputs[r.op.input_id].p, r.op.mode)
        classes.setdefault(key, []).append(d)
    values = [statistics.quantiles(d, n=100, method="inclusive")[q - 1] if len(d) > 1 else d[0]
              for d in classes.values()]
    return statistics.mean(values)


def op_bits(plan: Plan, rec: OpRecord) -> int:
    if plan.kind == "oracles":
        return oracle_walk_bits(rec.op)
    return int(parse_report(rec.report)["bits_read"])


def end_to_end(plan: Plan, records, ok, setup, rss_mb, ref: Reference, refs) -> dict[str, float]:
    durations = [ref.calibrate(r.duration, a, b) for r, a, b in zip(records, refs, refs[1:])]
    busy = sum(durations)
    bits = sum(op_bits(plan, r) for r, good in zip(records, ok) if good)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(records) / busy,
        "input_bits_per_s": bits / busy,
        "op_p50_s": class_percentile(plan, records, durations, 50),
        "op_p90_s": class_percentile(plan, records, durations, 90),
        "peak_rss_mb": rss_mb,
    }


def per_layer(spans: list[dict], records, traced) -> dict[str, float]:
    """Per-layer metrics from the replay spans; 0 where a layer is not reached."""
    selfs = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            selfs[s["parent"]] -= s["end"] - s["start"]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def total(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def per_op(name):
        ops = {spans[i]["op"] for i in by_name.get(name, ())}
        return total(name) / len(ops) if ops else 0.0

    def attr_sum(name, key, **match):
        return sum(spans[i]["attrs"].get(key, 0) for i in by_name.get(name, ())
                   if all(spans[i]["attrs"].get(k) == v for k, v in match.items()))

    def attr_max(name, key):
        return max((spans[i]["attrs"].get(key, 0) for i in by_name.get(name, ())), default=0)

    def ratio(a, b):
        return a / b if b else 0.0

    def chunk_rate(chunk):
        t = sum(selfs[i] for i in by_name.get("extractor.push", ())
                if spans[i]["attrs"]["chunk"] == chunk and spans[i]["attrs"]["streaming"])
        return ratio(t, attr_sum("extractor.push", "calls", chunk=chunk, streaming=True))

    n_ops = len(records)
    push_calls = attr_sum("extractor.push", "calls")
    amps = [spans[i]["attrs"]["amplitudes"] for i in by_name.get("schursim.state_build", ())
            if "amplitudes" in spans[i]["attrs"]]
    contraction_ops = {spans[i]["op"] for i in by_name.get("schursim.contraction", ())}
    return {
        "cli.import_s": ratio(total("cli.import"), len(by_name.get("cli.import", ()))),
        "cli.report_s": per_op("cli.report"),
        "cli.unpack_s": per_op("cli.unpack"),
        "cli.unpack_mb_per_s": ratio(attr_sum("cli.unpack", "bytes") / 1e6, total("cli.unpack")),
        "cli.pack_s": per_op("cli.pack"),
        "cli.pack_mb_per_s": ratio(attr_sum("cli.pack", "bytes") / 1e6, total("cli.pack")),
        "extractor.push_calls": push_calls / n_ops,
        "extractor.push_s": total("extractor.push") / n_ops,
        "extractor.push_bits_per_s": ratio(push_calls, total("extractor.push")),
        "extractor.push_share": ratio(total("extractor.push"),
                                      sum(spans[i]["end"] - spans[i]["start"] for i in by_name["op"])),
        "extractor.per_bit_growth": ratio(chunk_rate(9), chunk_rate(0)),
        "extractor.coeff_bits_max": attr_max("op", "coeff_bits"),
        "extractor.emit_ratio": ratio(attr_sum("op", "emitted"), attr_sum("op", "calls")),
        "extractor.cascade_max": attr_max("op", "cascade_max"),
        "extractor.cascade_mean": ratio(attr_sum("op", "emitted"), attr_sum("op", "emitting")),
        "extractor.silent_run_max": attr_max("op", "silent_run_max"),
        "binomial.table_rows": attr_max("op", "table_rows"),
        "verify.equivalence_s": per_op("verify.equivalence"),
        "verify.balanced_s": per_op("verify.balanced"),
        "verify.yield_s": per_op("verify.yield"),
        "elias.expected_yield_s": per_op("elias.expected_yield"),
        "young.q_run_s": per_op("young.q_run"),
        "young.paths": attr_max("young.q_run", "paths"),
        "schursim.transform_s": per_op("schursim.transform"),
        "schursim.state_build_s": per_op("schursim.state_build"),
        "schursim.contraction_s": per_op("schursim.contraction"),
        "schursim.contraction_calls": ratio(len(by_name.get("schursim.contraction", ())),
                                            len(contraction_ops)),
        "schursim.amplitudes": ratio(sum(amps), len(amps)),
        "trace.overhead_ratio": ratio(sum(t for t, _ in traced), sum(r.duration for r in records)),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="eliastream benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    pin_to_one_cpu()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, cli, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, cli, spec, work: Path) -> int:
    # --- set-up: everything before the first timed op ---
    plan = Plan(args.workload, args.seed)
    runner = Runner(plan, work, cli)
    warm = runner.run(plan.warmup_op())
    if args.setup_probe:
        print(time.perf_counter(), flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    ref = Reference(plan.params["reference"])
    records, traced, refs = run_loop(runner, args.seconds, tracer, ref)
    who = resource.RUSAGE_SELF if plan.kind == "extract" else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024  # before any output check

    env = child_env()
    if args.trace:
        probe = [sys.executable, str(BENCH / "replay.py"), "--import-only", "--spans", str(work / "spans.json")]
        for _ in range(IMPORT_PROBES):
            subprocess.run(probe, cwd=ROOT, env=env, timeout=170, check=True)
            for span in json.loads((work / "spans.json").read_text()):
                span["op"] = "import-probe"
                tracer.spans.append(span)
    else:
        setup_cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--setup-probe"]
        setup = setup_samples(setup_cmd, SETUP_PROBES, env, ref)

    # --- output checks, outside every timed region ---
    digests = None
    if args.seed == DEFAULT_SEED and plan.kind == "extract":
        digests = json.loads(DIGESTS.read_text())[args.workload]
    checker = make_checker(plan, digests)
    warm_error = checker.check(warm)
    errors = [checker.check(r) for r in records]
    for i, (_, mismatch) in enumerate(traced):
        errors[i] = errors[i] or mismatch
    failed = sum(e is not None for e in errors)

    if args.trace:
        values = per_layer(tracer.spans, records, traced)
        names = spec["per_layer"]
    else:
        values = end_to_end(plan, records, [e is None for e in errors], setup, rss_mb, ref, refs)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    info = stamp(args, plan)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"stamp": info, "metrics": metrics, "warmup_error": warm_error, "reference_s": refs,
              "ops": [{"op": list(r.op), "duration_s": r.duration, "error": e}
                      for r, e in zip(records, errors)]}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.spans))

    print(f"# stamp {json.dumps(info)}")
    print(f"# {args.workload}: {len(records)} ops in {sum(r.duration for r in records):.3f} s, "
          f"{failed} failed (fail_ratio {failed / len(records):.4f})")
    if not args.trace:
        print(f"# {plan.params['reference']} reference: {statistics.mean(refs) * 1e3:.4f} ms mean over "
              f"{len(refs)} op boundaries, {ref.nominal * 1e3} ms nominal; op times below are calibrated")
    if warm_error:
        print(f"# warm-up op failed: {warm_error}")
    for i, e in enumerate(errors):
        if e:
            print(f"# op {i} {list(records[i].op)[:2]} failed: {e}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and warm_error is None, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
