"""Traced replay: repeat an op by calling eliastream's public functions.

The replay calls the same functions in the same order as the CLI command it
mirrors, records an in-memory span around each call, and writes the same
output and report, so the benchmark can check that it is byte-identical to
the real op.  Work the op itself does not do, but which the replay adds to
time a layer in isolation, is labelled ``replayed``.

Extract ops are replayed in-process (as the extract workloads run them).
Oracle ops are replayed in a fresh process, because that is how the oracle
workload runs them; as a script this module is that process:

    python3 bench/replay.py --spans OUT.json verify --max-n 12 --report R   # one oracle op
    python3 bench/replay.py --spans OUT.json --import-only                  # time the import
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


class Tracer:
    """In-memory spans: name, start, end, parent span, op id, and counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record["attrs"]
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def push_stats(lens: list[int]) -> dict:
    """Counts derived from push() return lengths: emissions, cascades, silent runs."""
    cascades = [k for k in lens if k]
    silent = max(map(len, bytes(1 if k else 0 for k in lens).split(b"\x01")), default=0)
    return {"calls": len(lens), "emitted": sum(cascades), "emitting": len(cascades),
            "cascade_max": max(cascades, default=0), "silent_run_max": silent}


def replay_extract(tr: Tracer, argv: list[str]) -> None:
    """Mirror of `eliastream extract`: parse, read, unpack, push bit by bit, pack, write, report."""
    from eliastream import binomial, cli
    from eliastream.extractor import StreamExtractor

    with tr.span("op") as op_attrs:
        with tr.span("cli.parse"):
            args = cli.build_parser().parse_args(argv)
        started = time.monotonic()
        demand = args.demand
        with tr.span("cli.read"):
            data = Path(args.input).read_bytes()
        with tr.span("cli.unpack", bytes=len(data)):
            bits = cli.unpack_bytes(data)
        machine = StreamExtractor()
        push = machine.push
        produced: list[int] = []
        lens: list[int] = []
        tenth = -(-len(bits) // 10)
        for chunk in range(10):
            part = bits[chunk * tenth:(chunk + 1) * tenth]
            before = len(lens)
            with tr.span("extractor.push", chunk=chunk, streaming=demand is None) as attrs:
                if demand is None:
                    for b in part:
                        emitted = push(b)
                        produced.extend(emitted)
                        lens.append(len(emitted))
                else:
                    for b in part:
                        if len(produced) >= demand:
                            break
                        emitted = push(b)
                        produced.extend(emitted)
                        lens.append(len(emitted))
            attrs["calls"] = len(lens) - before
            if demand is not None and len(produced) >= demand:
                break
        delivered = produced if demand is None else produced[:demand]
        with tr.span("cli.pack") as attrs:
            packed, pad = cli.pack_bits(delivered)
            attrs["bytes"] = len(packed)
        with tr.span("cli.write"):
            Path(args.output).write_bytes(packed)
        state = machine.state
        fields = {
            "mode": "streaming" if demand is None else "on-demand",
            "bits_read": state.n, "bits_emitted": state.l, "purity_len": state.n - state.l,
            "delivered": len(delivered), "pending": state.l - len(delivered),
            "n": state.n, "t": state.t, "l": state.l, "pad_len": pad,
            "elapsed": f"{time.monotonic() - started:.6f}",
        }
        with tr.span("cli.report"):
            cli.write_report(fields, args.report)
    op_attrs.update(push_stats(lens))
    op_attrs["coeff_bits"] = math.comb(state.n, state.t).bit_length()
    op_attrs["table_rows"] = binomial.shared_table().max_n


def replay_oracle(tr: Tracer, argv: list[str]) -> None:
    """Mirror of `eliastream verify` / `eliastream simulate` for one oracle op."""
    with tr.span("op") as op_attrs:
        with tr.span("cli.import"):
            from eliastream import binomial, cli, elias, schursim, verify, young
        with tr.span("cli.parse"):
            args = cli.build_parser().parse_args(argv)
        fields: dict = {}
        if args.command == "verify":
            max_n = args.max_n
            with tr.span("verify.equivalence"):
                for n in range(max_n + 1):
                    ok = verify.exhaustive_equivalence(n).ok
                    fields[f"equivalence[{n}]"] = "pass" if ok else "FAIL"
            with tr.span("verify.balanced"):
                for n in range(min(max_n, verify.BALANCED_CAP) + 1):
                    ok = verify.balanced_paths(n).ok
                    fields[f"balanced[{n}]"] = "pass" if ok else "FAIL"
            with tr.span("verify.yield"):
                ok = verify.yield_bound_sweep(max_n).ok
                fields["yield_bound"] = "pass" if ok else "FAIL"
            with tr.span("cli.report"):
                cli.write_report(fields, args.report)
            # The yield suite's own expected_yield calls, timed on their own.
            with tr.span("elias.expected_yield", replayed=True):
                for n in range(1, max_n + 1):
                    for k in (1, 3, 5, 7, 9):
                        elias.expected_yield(n, elias.SourceModel(Fraction(k, 10)), cap=max(24, max_n))
        else:
            _replay_simulate(tr, args, fields, cli, schursim)
            if args.mode == "universal":
                with tr.span("young.q_run", replayed=True) as attrs:
                    paths = list(young.ballot_paths(args.n))
                    for path in paths:
                        young.q_run(path)
                    attrs["paths"] = len(paths)
        op_attrs["table_rows"] = binomial.shared_table().max_n


def _contract(tr: Tracer, fn, *args):
    with tr.span("schursim.contraction"):
        return fn(*args)


def _replay_simulate(tr, args, fields, cli, schursim) -> None:
    n, p, theta, mode = args.n, args.p, args.theta, args.mode
    fields.update({"simulate_mode": mode, "n": n})
    if mode == "known":
        with tr.span("schursim.state_build"):
            state = schursim.simulate_known_basis(p, n)
    elif mode == "universal":
        with tr.span("schursim.transform"):
            schursim.schur_transform(n, cap=max(schursim.SCHUR_CAP, n))
        with tr.span("schursim.state_build") as attrs:
            state = schursim.simulate_universal(n, p=p, theta=theta)
            attrs["amplitudes"] = len(state.amps)
        fields["theta"] = theta
    else:
        with tr.span("schursim.state_build"):
            state = schursim.simulate_von_neumann(p, n)
        amp = _contract(tr, schursim.nonhalting_amplitude, state)
        fields["nonhalting_amplitude"] = f"{amp:.9f}"
    fields["p"] = p
    max_len = max(len(la.tape) for (la, _) in state.amps)
    dist = _contract(tr, schursim.tape_length_distribution, state)
    fields["expected_pairs"] = f"{sum(l * pr for l, pr in dist.items()):.6f}"
    fields["certain_pairs"] = _contract(tr, schursim.certain_pairs, state)
    for k in range(1, max_len + 1):
        prob = _contract(tr, schursim.emission_probability, state, k)
        fields[f"emit_prob[{k}]"] = f"{prob:.6f}"
        if prob > 0:
            fields[f"fidelity[{k}]"] = f"{_contract(tr, schursim.pair_fidelity, state, k):.9f}"
    if mode in ("known", "universal"):
        t_dist = _contract(tr, schursim.register_distribution, state, "t")
        l_dist = _contract(tr, schursim.register_distribution, state, "l")
        fields["t_entropy"] = f"{_contract(tr, schursim.distribution_entropy, t_dist):.6f}"
        fields["l_entropy"] = f"{_contract(tr, schursim.distribution_entropy, l_dist):.6f}"
    fields["seeded"] = state.meta.get("seeded", 0)
    with tr.span("cli.report"):
        cli.write_report(fields, args.report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path, help="where to write the spans")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="the op's eliastream arguments")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    tr = Tracer()
    if args.import_only:
        with tr.span("cli.import"):
            import eliastream.cli  # noqa: F401
    else:
        replay_oracle(tr, args.cli_args)
    args.spans.write_text(json.dumps(tr.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
