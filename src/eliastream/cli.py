"""Command-line front end: extract from byte streams, verify, simulate.

Bit order is MSB-first within each byte, both on input and output; a final
partial output byte is zero-padded and the pad length is recorded in the
report.  Reports are line-delimited ``key=value`` pairs with a leading
schema field, written to a side channel (stderr by default).

Exit codes: 0 success, 1 verification violation, 2 usage or I/O error.

``extract`` streams.  It reads its input in fixed-size blocks, walks them
through one ``StreamExtractor`` and writes each whole output byte once the
next block is read, so its memory is bounded by the walk state and one
block, not by the input; a ``--demand`` stops the reading once it is met.
The input is opened before the output and both before the walk.  An
``--output`` naming the ``--input`` file is refused (exit 2), and so is a
stdout that is the input file: opening it for writing would truncate the
input before it is read, and appending to it (``>> input``) would grow it
as fast as it is read.  So is a ``--report`` naming either file, or the
file a redirected stdout writes to, before any file is opened for writing:
the report, written last, would replace it.  A standard stream the process
started without (closed, so Python set it to None) is an I/O error when a
command reads or writes it.

Each command imports only what it runs: ``extract`` the walk alone (bytes
become bits and back through the stdlib's ``int``/``bytes.translate``), the
simulators inside ``simulate`` and the verification suites inside
``verify`` (``young`` for its suite), so a fresh process pays for nothing
else.  No command imports a library outside the stdlib.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import stat
import sys
import time

from .extractor import _TEXT_BITS, ExtractorState, StreamExtractor, walk_tree

REPORT_SCHEMA = "eliastream/1"


_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def _bit_bytes(data: bytes) -> bytes:
    """Bytes to bits, one byte 0 or 1 per bit, most significant bit of each
    byte first.  The leading 1 byte keeps the leading zero bits in the
    binary numeral."""
    return bin(int.from_bytes(b"\x01" + data, "big"))[3:].encode().translate(_TEXT_BITS)


def unpack_bytes(data: bytes) -> list[int]:
    """Bytes to a list of bits, MSB first (see ``_bit_bytes``)."""
    return list(_bit_bytes(data))


def pack_bits(bits) -> tuple[bytes, int]:
    """Bits to bytes (MSB-first); returns (data, zero-pad length).  `bits` is
    bytes or a bytearray holding one bit per byte, read whole, or any other
    iterable of integer 0/1s, read item by item (``iter`` keeps ``bytes``
    from copying an int64 array's raw buffer).  Any other value, a float, a
    str or a numpy bool included, raises ValueError: ``int`` would read '_'
    as a separator.  A non-iterable raises TypeError."""
    items = bits if isinstance(bits, (bytes, bytearray)) else iter(bits)
    try:
        raw = bytes(items)
    except (TypeError, ValueError):  # no __index__, or not in range(256)
        raise ValueError("bits to pack must be 0 or 1") from None
    if raw.translate(None, b"\x00\x01"):
        raise ValueError("bits to pack must be 0 or 1")
    text = raw.translate(_BIT_TEXT)
    pad = -len(text) % 8
    return (int(text or b"0", 2) << pad).to_bytes((len(text) + pad) // 8, "big"), pad


def _std(name: str):
    """``sys.stdin``, ``sys.stdout`` or ``sys.stderr`` by name; OSError where
    the process started with that stream closed and Python set it to None."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"{name} is closed")
    return stream


def write_report(fields: dict, path: str | None) -> None:
    lines = [f"schema={REPORT_SCHEMA}"]
    lines += [f"{key}={value}" for key, value in fields.items()]
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        _std("stderr").write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


# Input bytes read, unpacked and walked at a time.  Measured on a 2-core Xeon,
# one pinned core, on a 16 KiB input: the run raised peak RSS above the
# imports by under 0.1 MB with blocks of 256 B to 2 KiB, 0.3 MB at 4 KiB and
# 1.0 MB at 8 KiB (2.7 MB walking the whole input at once).  On the
# benchmark's 16 KiB inputs, ops interleaved in one process against the
# whole-input walk took x0.97-1.06 the time (median x1.00) at 1 KiB and
# x0.93-1.05 (median x1.00) at 4 KiB.
_BLOCK = 1024


def _open(path: str, mode: str):
    """The file at `path`, or for "-" the standard stream, left open on exit."""
    if path == "-":
        return contextlib.nullcontext(_std("stdin" if "r" in mode else "stdout").buffer)
    return open(path, mode)


def _stat(file) -> os.stat_result:
    """The status of a path, or of an open handle's file descriptor."""
    return os.stat(file) if isinstance(file, str) else os.fstat(file.fileno())


def _same_file(src, dst) -> bool:
    """Whether `src` and `dst`, each an open handle or a path, stand for one
    regular file.  A path may name no file yet; a handle with no file
    descriptor (an in-memory stream) stands for no file."""
    try:
        there = _stat(dst)
    except FileNotFoundError:
        # No file yet: the same one only if both paths resolve to one place.
        # realpath stats every component, so it runs only on equal base names.
        return (isinstance(src, str) and os.path.basename(src) == os.path.basename(dst)
                and os.path.realpath(src) == os.path.realpath(dst))
    except io.UnsupportedOperation:
        return False
    try:
        here = _stat(src)
    except (FileNotFoundError, io.UnsupportedOperation):
        return False
    return stat.S_ISREG(here.st_mode) and os.path.samestat(here, there)


def _extract_blocks(src, sink, demand: int | None) -> tuple[ExtractorState, int, int]:
    """Walk the bytes of `src` block by block through one ``StreamExtractor``
    and write the output to `sink`: (final state, bits delivered, pad length).

    A demand stops the walk, and the reading, after the move that brings the
    output to `demand` bits; the bits that move made past it are not
    delivered.  Each block reaches the walk as the bytes ``_bit_bytes``
    makes, bits by construction, so no bit is checked, and the walk appends
    its output to `tail`, a bytearray of 0/1.  Once the next block is in
    hand, the whole bytes of `tail` are written, packed in one ``pack_bits``
    pass, and cut from its front, so the last block's bytes go out with the
    zero-padded tail in one write, and an input of one block is packed
    once.  No list of bits is built."""
    machine = StreamExtractor()
    walk = machine._walk
    written = 0  # output bits written, whole bytes
    tail = bytearray()  # output bits after those, one byte 0 or 1 per bit
    block = src.read(_BLOCK) if demand != 0 else b""
    while block:
        walk(_bit_bytes(block), None if demand is None else demand - machine.l, tail)
        if demand is not None and machine.l >= demand:
            del tail[demand - written:]
            break
        block = src.read(_BLOCK)
        if block and len(tail) >= 8:
            whole = len(tail) >> 3
            sink.write(pack_bits(tail)[0][:whole])
            del tail[:whole << 3]
            written += whole << 3
    packed, pad = pack_bits(tail)
    sink.write(packed)
    sink.flush()
    return machine.state, written + len(tail), pad


def cmd_extract(args) -> int:
    started = time.monotonic()
    if args.demand is not None and args.demand < 0:
        raise ValueError("--demand must be >= 0")
    # Input before output, and both before the walk: a missing input leaves
    # no output file, and an unwritable output walks nothing.  The output, a
    # path or stdout, is written while the input is read, so it must not be
    # the input file, and the report is written last, so it must be neither,
    # nor the stdout file.
    with _open(args.input, "rb") as src:
        output = _std("stdout").buffer if args.output == "-" else args.output
        if _same_file(src, output):
            raise ValueError("--output names the --input file")
        if args.report not in (None, "-"):
            if _same_file(src, args.report):
                raise ValueError("--report names the --input file")
            if _same_file(output, args.report):
                raise ValueError("--report names the --output file")
        with _open(args.output, "wb") as sink:
            state, delivered, pad = _extract_blocks(src, sink, args.demand)
    # bits_read = bits_emitted + purity_len holds exactly; a multi-bit final
    # move can leave produced-but-undelivered bits, reported as pending.
    fields = {
        "mode": "streaming" if args.demand is None else "on-demand",
        "bits_read": state.n, "bits_emitted": state.l,
        "purity_len": state.n - state.l, "delivered": delivered,
        "pending": state.l - delivered, "n": state.n, "t": state.t, "l": state.l,
        "pad_len": pad, "elapsed": f"{time.monotonic() - started:.6f}",
    }
    write_report(fields, args.report)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    suites = [s.strip() for s in args.suites.split(",") if s.strip()]
    if not suites:
        raise ValueError("--suites names no suite")
    unknown = set(suites) - {"equivalence", "balanced", "young", "yield", "stats"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    if args.max_n < 0:
        raise ValueError("--max-n must be >= 0")
    eq_to = args.max_n if "equivalence" in suites else -1
    bal_to = min(args.max_n, verify.BALANCED_CAP) if "balanced" in suites else -1
    if args.max_n > verify.EXHAUSTIVE_CAP and {"equivalence", "young"} & set(suites):
        raise ValueError(f"--max-n exceeds the equivalence cap {verify.EXHAUSTIVE_CAP}")
    # The suites that walk no tree run first, so their own argument checks
    # fail before any walk; their fields still come last.
    yields = {"yield_bound": verify.yield_bound_sweep(args.max_n).ok} if "yield" in suites else {}
    stats = [verify.statistical_battery(p, args.samples, args.seed) for p in (0.3, 0.5)
             if "stats" in suites]
    # One walk, tallied once, serves both suites at every n; equivalence is listed first.
    depth = max(eq_to, bal_to)
    tallies = verify.tally(walk_tree(depth), bal_to) if depth >= 0 else {}
    ok = {f"equivalence[{n}]": verify.exhaustive_equivalence(n, tallies).ok
          for n in range(eq_to + 1)}
    ok |= {f"balanced[{n}]": verify.balanced_paths(n, tallies).ok for n in range(bal_to + 1)}
    if "young" in suites:  # the equivalence suite on the Young lattice, from its own walk
        from .young import YOUNG

        tallies = verify.tally(walk_tree(args.max_n, YOUNG))
        ok |= {f"young[{n}]": verify.exhaustive_equivalence(n, tallies, YOUNG).ok
               for n in range(args.max_n + 1)}
    ok |= yields
    fields: dict = {name: "pass" if passed else "FAIL" for name, passed in ok.items()}
    failed = not all(ok.values())
    for report in stats:
        fields[f"stats[p={report.p}]"] = (
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.  Each
    ``parse_args`` returns a fresh Namespace, so calls share no state."""
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
        if sys.stderr is not None:
            sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
