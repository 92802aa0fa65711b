"""Command-line front end: extract from byte streams, verify, simulate.

Bit order is MSB-first within each byte, both on input and output; a final
partial output byte is zero-padded and the pad length is recorded in the
report.  Reports are line-delimited ``key=value`` pairs with a leading
schema field, written to a side channel (stderr by default).

Exit codes: 0 success, 1 verification violation, 2 usage or I/O error.

Each command imports only what it runs: ``extract`` the walk alone (bytes
become bits and back through the stdlib's ``int``/``bytes.translate``), the
simulators inside ``simulate`` and the verification suites inside
``verify``, so a fresh process pays for nothing else.
"""

from __future__ import annotations

import argparse
import sys
import time

from .extractor import _TEXT_BITS, StreamExtractor, pause_mode_run, walk_tree

REPORT_SCHEMA = "eliastream/1"


_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def unpack_bytes(data: bytes) -> list[int]:
    """Bytes to bits, most significant bit of each byte first.  The leading
    1 byte keeps the leading zero bits in the binary numeral."""
    return list(bin(int.from_bytes(b"\x01" + data, "big"))[3:].encode().translate(_TEXT_BITS))


def pack_bits(bits) -> tuple[bytes, int]:
    """Bits to bytes (MSB-first); returns (data, zero-pad length).  A value
    other than 0/1 raises ValueError: ``int`` would read '_' as a separator.
    (``iter`` keeps ``bytes`` from copying an int64 array's raw buffer.)"""
    raw = bytes(iter(bits))
    if raw.translate(None, b"\x00\x01"):
        raise ValueError("bits to pack must be 0 or 1")
    text = raw.translate(_BIT_TEXT)
    pad = -len(text) % 8
    return (int(text or b"0", 2) << pad).to_bytes((len(text) + pad) // 8, "big"), pad


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _write_output(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as handle:
            handle.write(data)


def write_report(fields: dict, path: str | None) -> None:
    lines = [f"schema={REPORT_SCHEMA}"]
    lines += [f"{key}={value}" for key, value in fields.items()]
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stderr.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def cmd_extract(args) -> int:
    started = time.monotonic()
    if args.demand is not None and args.demand < 0:
        raise ValueError("--demand must be >= 0")
    data = _read_input(args.input)
    bits = unpack_bytes(data)
    if args.demand is None:
        machine = StreamExtractor()
        delivered = machine.feed(bits)
        state = machine.state
        mode = "streaming"
    else:
        paused = pause_mode_run(bits, args.demand)
        delivered, state = paused.output, paused.state
        mode = "on-demand"
    packed, pad = pack_bits(delivered)
    _write_output(args.output, packed)
    # bits_read = bits_emitted + purity_len holds exactly; a multi-bit final
    # move can leave produced-but-undelivered bits, reported as pending.
    fields = {
        "mode": mode, "bits_read": state.n, "bits_emitted": state.l,
        "purity_len": state.n - state.l, "delivered": len(delivered),
        "pending": state.l - len(delivered), "n": state.n, "t": state.t, "l": state.l,
        "pad_len": pad, "elapsed": f"{time.monotonic() - started:.6f}",
    }
    write_report(fields, args.report)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    suites = [s.strip() for s in args.suites.split(",") if s.strip()]
    if not suites:
        raise ValueError("--suites names no suite")
    unknown = set(suites) - {"equivalence", "balanced", "yield", "stats"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    if args.max_n < 0:
        raise ValueError("--max-n must be >= 0")
    eq_to = args.max_n if "equivalence" in suites else -1
    bal_to = min(args.max_n, verify.BALANCED_CAP) if "balanced" in suites else -1
    if eq_to > verify.EXHAUSTIVE_CAP:
        raise ValueError(f"--max-n exceeds the equivalence cap {verify.EXHAUSTIVE_CAP}")
    # One walk, tallied once, serves both suites at every n; equivalence is listed first.
    depth = max(eq_to, bal_to)
    tallies = verify.tally(walk_tree(depth), bal_to) if depth >= 0 else {}
    ok = {f"equivalence[{n}]": verify.exhaustive_equivalence(n, tallies).ok
          for n in range(eq_to + 1)}
    ok |= {f"balanced[{n}]": verify.balanced_paths(n, tallies).ok for n in range(bal_to + 1)}
    if "yield" in suites:
        ok["yield_bound"] = verify.yield_bound_sweep(args.max_n).ok
    fields: dict = {name: "pass" if passed else "FAIL" for name, passed in ok.items()}
    failed = not all(ok.values())
    if "stats" in suites:
        for p in (0.3, 0.5):
            report = verify.statistical_battery(p, args.samples, args.seed)
            fields[f"stats[p={p}]"] = (
                f"{'pass' if report.ok else 'FAIL'} rate={report.rate:.4f} "
                f"monobit_z={report.monobit_z:.3f} serial_z={report.serial_z:.3f}"
            )
            failed |= not report.ok
    write_report(fields, args.report)
    return 1 if failed else 0


def cmd_simulate(args) -> int:
    from . import schursim

    fields: dict = {"simulate_mode": args.mode, "n": args.n}
    if args.mode == "known":
        state = schursim.simulate_known_basis(args.p, args.n)
    elif args.mode == "universal":
        state = schursim.simulate_universal(args.n, p=args.p, theta=args.theta)
        fields["theta"] = args.theta
    elif args.mode == "huffman":
        state = schursim.huffman_output_state()
        fields["n"] = state.n  # the scenario is one qubit pair whatever --n says
        fields["fidelity"] = f"{schursim.huffman_counterexample():.9f}"
    else:  # vonneumann: argparse restricts the choices
        state = schursim.simulate_von_neumann(args.p, args.n)
        fields["nonhalting_amplitude"] = f"{schursim.nonhalting_amplitude(state):.9f}"
    if args.mode in ("known", "universal", "vonneumann"):
        fields["p"] = args.p
        lengths = schursim.tape_length_distribution(state)
        fields["expected_pairs"] = f"{sum(l * pr for l, pr in lengths.items()):.6f}"
        fields["certain_pairs"] = schursim.certain_pairs(state)
        for k in range(1, max(lengths) + 1):
            prob = schursim.emission_probability(state, k)
            fields[f"emit_prob[{k}]"] = f"{prob:.6f}"
            if prob > 0:
                fields[f"fidelity[{k}]"] = f"{schursim.pair_fidelity(state, k):.9f}"
        if args.mode in ("known", "universal"):
            t_dist = schursim.register_distribution(state, "t")
            l_dist = schursim.register_distribution(state, "l")
            fields["t_entropy"] = f"{schursim.distribution_entropy(t_dist):.6f}"
            fields["l_entropy"] = f"{schursim.distribution_entropy(l_dist):.6f}"
    fields["seeded"] = state.meta.get("seeded", 0)
    write_report(fields, args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eliastream",
        description="Streaming entropy extraction and concentration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ext = sub.add_parser("extract", help="extract random bits from a byte stream")
    p_ext.add_argument("--input", default="-", help="input path or - for stdin")
    p_ext.add_argument("--output", default="-", help="output path or - for stdout")
    p_ext.add_argument("--demand", type=int, default=None, help="stop after K output bits")
    p_ext.add_argument("--report", default=None, help="report path (default stderr)")
    p_ext.set_defaults(func=cmd_extract)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suites", default="equivalence,balanced,yield")
    p_ver.add_argument("--max-n", type=int, default=12, dest="max_n")
    p_ver.add_argument("--samples", type=int, default=100_000)
    p_ver.add_argument("--seed", type=int, default=2024)
    p_ver.add_argument("--report", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="run a coherent simulation")
    p_sim.add_argument("--mode", choices=["known", "universal", "huffman", "vonneumann"], required=True)
    p_sim.add_argument("--n", type=int, default=4, help="qubits (or pairs for vonneumann)")
    p_sim.add_argument("--p", type=float, default=0.5)
    p_sim.add_argument("--theta", type=float, default=0.0)
    p_sim.add_argument("--report", default=None)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # SimulatorCapError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
