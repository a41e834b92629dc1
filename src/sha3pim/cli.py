"""Command-line front end: hash on the simulated crossbar, report metrics.

Every digest is cross-checked against the software reference; the exit
status is nonzero if any digest mismatches (1), an input cannot be parsed
or read, an output path cannot be written or names the same file as
another output or a ``--file`` input, the crossbar geometry is invalid, or
the host cannot allocate the memory the run needs (2), the message count
exceeds unit capacity (3, checked before any ``--random`` message is
generated), the C replay kernel cannot be built or loaded, as without a C
compiler (4), or the reader of stdout closed it early (141, as a shell
reports SIGPIPE; nothing more is printed).

Output: one line per message (``<digest-hex>  <OK|MISMATCH>``), then a
versioned JSON report (redirect with ``--report``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import engine, keccak_ref, metrics
from .crossbar import CapacityError, CrossbarConfig
from .keccak_xbar import (
    KECCAK,
    CrossbarLayout,
    check_capacity,
    hash_messages,
    measure_round_stats,
    pad_message,
    plan_cohorts,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_CAPACITY = 3
EXIT_NO_KERNEL = 4
EXIT_CLOSED_STDOUT = 141


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sha3pim",
        description="SHA3-256 on a simulated memristive crossbar "
                    "(stateful-logic, cycle-accurate)")
    src = parser.add_argument_group("message sources")
    src.add_argument("--text", action="append", default=[], metavar="STR",
                     help="hash a literal string (UTF-8; repeatable)")
    src.add_argument("--hex", action="append", default=[], metavar="HEX",
                     help="hash a hex-encoded byte string (repeatable)")
    src.add_argument("--file", action="append", default=[], metavar="PATH",
                     help="hash a file's contents (repeatable)")
    src.add_argument("--random", type=int, metavar="N",
                     help="hash N pseudorandom messages")
    src.add_argument("--len", type=int, metavar="L",
                     help="with --random: length in bytes of each message "
                          "(default 136)")
    src.add_argument("--seed", type=int, metavar="S",
                     help="with --random: PRNG seed (default 1; printed)")

    hw = parser.add_argument_group("crossbar configuration")
    hw.add_argument("--crossbars", type=int, default=1, metavar="N",
                    help="number of crossbar arrays (default 1)")
    hw.add_argument("--rows", type=int, default=1024)
    hw.add_argument("--cols", type=int, default=1024)
    hw.add_argument("--hpart", type=int, default=27,
                    help="horizontal partition count (default 27)")
    hw.add_argument("--vpart", type=int, default=14,
                    help="vertical partition count (default 14)")
    hw.add_argument("--gate-delay-ns", type=float, default=3.0)
    hw.add_argument("--gate-energy-fj", type=float, default=6.4)
    hw.add_argument("--strict-init", action="store_true",
                    help="fail if any gate reads a never-written cell")

    out = parser.add_argument_group("reporting")
    out.add_argument("--metrics", action="store_true",
                     help="include throughput/power/area metrics in the report")
    out.add_argument("--paper-constants", action="store_true",
                     help="with --metrics: compute metrics from the "
                          "published reference operating point (3,494 "
                          "cycles, 0.765 nJ, 378 units, 333 MHz) instead of "
                          "measuring")
    out.add_argument("--trace", metavar="PATH",
                     help="write the vector events replay ran, one JSON "
                          "line per cycle, with the dead presets it skipped "
                          "(trace schema 3)")
    out.add_argument("--report", metavar="PATH",
                     help="write the JSON report here instead of stdout")
    return parser


def _collect_messages(args, config: CrossbarConfig) -> tuple[list[bytes], int | None]:
    """Every source's messages and the ``--random`` seed or None; the units
    must hold them before any ``--random`` one is made (``CapacityError``)."""
    messages: list[bytes] = []
    for text in args.text:
        try:
            messages.append(text.encode("utf-8"))
        except UnicodeEncodeError:      # argv held bytes that are not UTF-8
            raise SystemExit2(f"--text is not valid UTF-8: {text!r}")
    for hx in args.hex:
        try:
            messages.append(bytes.fromhex(hx))
        except ValueError:
            raise SystemExit2(f"malformed hex input: {hx!r}")
    for path in args.file:
        try:
            with open(path, "rb") as fh:
                messages.append(fh.read())
        except OSError as exc:
            raise SystemExit2(f"cannot read file {path}: {exc}")
    length = 136 if args.len is None else args.len
    seed = 1 if args.seed is None else args.seed
    if args.random is None:
        for flag, value in (("--len", args.len), ("--seed", args.seed)):
            if value is not None:
                raise SystemExit2(f"{flag} only applies with --random")
    elif args.random <= 0 or length < 0:
        raise SystemExit2("--random needs N > 0 and --len L >= 0")
    elif seed < 0:
        raise SystemExit2(f"--seed needs S >= 0, got {seed}")
    check_capacity(len(messages) + (args.random or 0), config, args.crossbars)
    if args.random is None:
        return messages, None
    rng = np.random.default_rng(seed)
    for _ in range(args.random):
        messages.append(rng.integers(0, 256, size=length,
                                     dtype=np.uint8).tobytes())
    return messages, seed


def _shared_output(args) -> str | None:
    """Why an output would clobber another output or a ``--file`` input (the
    same regular file, by ``realpath``), or None; devices such as /dev/null
    are exempt."""
    claimed = {os.path.realpath(path): f"--file {path}" for path in args.file}
    for flag, path in (("--trace", args.trace), ("--report", args.report)):
        if not path:
            continue
        real = os.path.realpath(path)
        if os.path.exists(real) and not os.path.isfile(real):
            continue
        if real in claimed:
            return f"{flag} {path} is the same file as {claimed[real]}"
        claimed[real] = f"{flag} {path}"
    return None


class SystemExit2(Exception):
    """Bad input: distinct message, exit status 2."""


def main(argv: list[str] | None = None) -> int:
    try:    # grids, compile and --random messages all allocate host memory
        return _main(build_parser().parse_args(argv))
    except MemoryError as exc:      # numpy's names the array it could not get
        print(f"error: out of host memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_BAD_INPUT


def _main(args) -> int:
    if args.paper_constants and not args.metrics:
        print("error: --paper-constants only applies with --metrics",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if not (args.text or args.hex or args.file or args.random is not None
            or args.metrics):
        build_parser().error("no message source given (and no --metrics)")

    if args.crossbars < 1:
        print(f"error: --crossbars needs N >= 1, got {args.crossbars}",
              file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        config = CrossbarConfig(
            rows=args.rows, cols=args.cols,
            horizontal_partitions=args.hpart, vertical_partitions=args.vpart,
            gate_delay_ns=args.gate_delay_ns, gate_energy_fj=args.gate_energy_fj,
            strict_init=args.strict_init)
        CrossbarLayout(config)      # the hash units and shared blocks must fit
    except ValueError as exc:
        print(f"error: bad crossbar geometry: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    clash = _shared_output(args)
    if clash:
        print(f"error: {clash}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        messages, seed = _collect_messages(args, config)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CapacityError as exc:    # before the outputs, so none is left empty
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    if messages:
        try:    # built here, not by the first hash, so it fails before any output
            engine.kernel()
        except engine.KernelBuildError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_KERNEL
    measured = None
    if args.metrics and not args.paper_constants:
        measured = measure_round_stats(n_units=config.num_units, config=config)
    try:
        modelled = _metrics(args, config, measured) if args.metrics else {}
    except (ValueError, OverflowError) as exc:     # a metric is out of range
        print(f"error: bad crossbar geometry: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    with contextlib.ExitStack() as outputs:
        try:        # before hashing, so a bad path costs no hash
            trace, report_file = (
                outputs.enter_context(open(path, "w")) if path else None
                for path in (args.trace, args.report))
        except OSError as exc:
            print(f"error: cannot write {exc.filename}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
        try:
            status = _run(args, config, messages, seed, modelled, trace,
                          report_file)
            sys.stdout.flush()      # a closed pipe shows here, not at exit
        except BrokenPipeError:     # e.g. ``sha3pim ... | head -2``
            # point stdout at devnull so the shutdown flush stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_CLOSED_STDOUT
        return status


def _metrics(args, config: CrossbarConfig, measured: dict | None) -> dict:
    """The report's ``metrics`` entry, from the reference constants, or
    from the round measurement ``measured``, which is reported before it;
    raises ``ValueError`` if a metric would not be a finite positive float."""
    entries: dict = {}
    if measured is None:
        inputs = dataclasses.replace(metrics.REFERENCE_INPUT,
                                     crossbars=args.crossbars)
        source = "reference-constants"
    else:
        entries["round_measurement"] = measured
        inputs = metrics.MetricsInput(
            clock_hz=config.clock_hz,
            latency_round_cycles=measured["cycles_per_round"],
            energy_unit_j=measured["energy_per_round_per_unit_nj"] * 1e-9,
            units_per_crossbar=config.num_units,
            crossbars=args.crossbars,
            cell_area_f2=config.cell_area_f2,
            crossbar_cells=config.rows * config.cols)
        source = "measured"
    entries["metrics"] = {"source": source,
                          "inputs": dataclasses.asdict(inputs),
                          **metrics.compute(inputs).as_dict()}
    return entries


def _run(args, config: CrossbarConfig, messages: list[bytes],
         seed: int | None, modelled: dict, trace, report_file) -> int:
    """Hash, check and report, with the ``modelled`` metrics entries;
    ``trace`` and ``report_file`` are open streams or None."""
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "backend": engine.active_backend(),
        "crossbar": {**dataclasses.asdict(config),
                     "units_per_crossbar": config.num_units,
                     "crossbars": args.crossbars},
    }
    if seed is not None:
        print(f"seed: {seed}")
        report["seed"] = seed

    status = EXIT_OK
    if messages:
        digests, stats = hash_messages(messages, config=config,
                                       crossbars=args.crossbars, trace=trace)

        entries = []
        for i, (message, digest) in enumerate(zip(messages, digests)):
            expected = keccak_ref.sha3_256(message)
            verdict = "OK" if digest == expected else "MISMATCH"
            if verdict != "OK":
                status = EXIT_MISMATCH
            print(f"{digest.hex()}  {verdict}")
            entries.append({"index": i, "bytes": len(message),
                            "blocks": len(pad_message(message)),
                            "digest": digest.hex(), "verdict": verdict})
        report["messages"] = entries
        report["stats"] = stats.as_dict()
        # a lockstep cohort runs one permutation per block for all its units
        cohorts = plan_cohorts([e["blocks"] for e in entries], config.num_units)
        permutations = sum(entries[c[0]]["blocks"] for c in cohorts)
        non_io_cycles = sum(v.cycles for k, v in stats.per_label.items()
                            if k != "io")
        report["stats"]["keccak_cycles_per_round"] = (
            non_io_cycles / (KECCAK.rounds * permutations))
        report["unit_packing"] = {
            "units_per_crossbar": config.num_units,
            "unit_cells": [config.unit_rows, config.unit_cols],
            "messages": len(entries),
            "lockstep_cohorts": [{"units": len(c),
                                  "blocks": entries[c[0]]["blocks"]}
                                 for c in cohorts],
        }

    report.update(modelled)
    print(json.dumps(report, indent=2), file=report_file)
    return status


if __name__ == "__main__":
    sys.exit(main())
