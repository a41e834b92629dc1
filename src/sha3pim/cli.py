"""Command-line front end: hash on the simulated crossbar, report metrics.

Every digest is cross-checked against the software reference. Exit status:
1 only if a digest mismatches; 2 if an input cannot be parsed or read, an
output names the same file as another output or a ``--file`` input, an
output cannot be opened or fails while it is written (a full disk, a closed
stdout), the crossbar geometry is invalid, a report figure overflows to a
value strict JSON cannot hold (infinity or NaN; nothing goes to stdout),
or the host cannot allocate the memory the run needs; 3 if the message
count exceeds unit capacity (checked before any ``--random`` message is
generated); 4 if the C replay kernel cannot be built or loaded, as
without a C compiler; 141 if the reader of stdout closed it early (as a
shell reports SIGPIPE). Statuses 2, 3 and 4 come with one ``error:`` line
on stderr, 141 with nothing more.

Output: one line per message (``<digest-hex>  <OK|MISMATCH>``), then a
versioned JSON report (redirect with ``--report``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import engine, keccak_ref, metrics, native
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


class CliError(Exception):
    """A failed check: its one-line message and the exit status it picks."""

    status = EXIT_BAD_INPUT


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
            raise CliError(f"--text is not valid UTF-8: {text!r}")
    for hx in args.hex:
        try:
            messages.append(bytes.fromhex(hx))
        except ValueError:
            raise CliError(f"malformed hex input: {hx!r}")
    for path in args.file:
        try:
            with open(path, "rb") as fh:
                messages.append(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read file {path}: {exc}")
    length = 136 if args.len is None else args.len
    seed = 1 if args.seed is None else args.seed
    if args.random is None:
        for flag, value in (("--len", args.len), ("--seed", args.seed)):
            if value is not None:
                raise CliError(f"{flag} only applies with --random")
    elif args.random <= 0 or length < 0:
        raise CliError("--random needs N > 0 and --len L >= 0")
    elif seed < 0:
        raise CliError(f"--seed needs S >= 0, got {seed}")
    check_capacity(len(messages) + (args.random or 0), config, args.crossbars)
    if args.random is None:
        return messages, None
    rng = np.random.default_rng(seed)
    for _ in range(args.random):
        messages.append(rng.integers(0, 256, size=length,
                                     dtype=np.uint8).tobytes())
    return messages, seed


def _check_outputs(args) -> None:
    """Refuse a closed stdout, or an output that would clobber another
    output or a ``--file`` input (the same regular file, by ``realpath``);
    devices such as /dev/null are exempt."""
    if sys.stdout is None:      # fd 1 was closed when the process started
        raise CliError("cannot write stdout: it is closed")
    claimed = {os.path.realpath(path): f"--file {path}" for path in args.file}
    for flag, path in (("--trace", args.trace), ("--report", args.report)):
        if not path:
            continue
        real = os.path.realpath(path)
        if os.path.exists(real) and not os.path.isfile(real):
            continue
        if real in claimed:
            raise CliError(f"{flag} {path} is the same file as {claimed[real]}")
        claimed[real] = f"{flag} {path}"


def _open_output(outputs: contextlib.ExitStack, path: str):
    """A text stream for output ``path``, and the call that puts what it
    holds in place once the run has succeeded.

    A device or a pipe is written in place. Any other path is written to
    a temporary file in its directory, with the mode the path has or a new
    file would get, and the call renames it onto the path, so a run that
    fails leaves no new file and an existing file as it was; ``outputs``
    removes the temporary file if it is still there.
    """
    real = os.path.realpath(path)
    if os.path.exists(real) and not os.path.isfile(real):
        return outputs.enter_context(open(path, "w")), lambda: None
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(real)}.",
                                   dir=os.path.dirname(real))
    except OSError as exc:      # name the output, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    stream = outputs.enter_context(open(fd, "w"))
    outputs.callback(_remove_if_there, tmp)
    if os.path.exists(real):
        mode = os.stat(real).st_mode
    else:
        mode = os.umask(0)
        os.umask(mode)
        mode = 0o666 & ~mode
    os.fchmod(fd, mode & 0o7777)
    return stream, lambda: os.replace(tmp, real)


def _remove_if_there(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; the one place a failure becomes its exit status."""
    try:    # grids, compile and --random messages all allocate host memory
        return _main(build_parser().parse_args(argv))
    except BrokenPipeError:     # e.g. ``sha3pim ... | head -2``
        return EXIT_CLOSED_STDOUT
    except CliError as exc:
        error, status = exc, exc.status
    except CapacityError as exc:
        error, status = exc, EXIT_CAPACITY
    except native.KernelBuildError as exc:
        error, status = exc, EXIT_NO_KERNEL
    except MemoryError as exc:      # numpy's names the array it could not get
        error = f"out of host memory: {str(exc) or 'allocation failed'}"
        status = EXIT_BAD_INPUT
    print(f"error: {error}", file=sys.stderr)
    return status


def _main(args) -> int:
    if args.paper_constants and not args.metrics:
        raise CliError("--paper-constants only applies with --metrics")
    if not (args.text or args.hex or args.file or args.random is not None
            or args.metrics):
        build_parser().error("no message source given (and no --metrics)")

    if args.crossbars < 1:
        raise CliError(f"--crossbars needs N >= 1, got {args.crossbars}")

    try:
        config = CrossbarConfig(
            rows=args.rows, cols=args.cols,
            horizontal_partitions=args.hpart, vertical_partitions=args.vpart,
            gate_delay_ns=args.gate_delay_ns, gate_energy_fj=args.gate_energy_fj,
            strict_init=args.strict_init)
        CrossbarLayout(config)      # the hash units and shared blocks must fit
    except ValueError as exc:
        raise CliError(f"bad crossbar geometry: {exc}") from None
    _check_outputs(args)
    messages, seed = _collect_messages(args, config)
    if messages:    # built here, not by the first hash, so it fails before any output
        native.kernel()
    modelled = _metrics(args, config) if args.metrics else {}
    name = args.trace       # the output being written, for an OSError naming none
    try:
        with contextlib.ExitStack() as outputs:
            # opened before hashing, so a bad path costs no hash
            (trace, place_trace), (report_file, place_report) = (
                _open_output(outputs, path) if path else (None, None)
                for path in (args.trace, args.report))
            report = _report(args, config, messages, seed, modelled, trace)
            _check_finite(report)
            if trace:
                trace.close()
            entries = report.get("messages", [])
            lines = [] if seed is None else [f"seed: {seed}"]
            lines += [f"{e['digest']}  {e['verdict']}" for e in entries]
            text = json.dumps(report, indent=2)
            if report_file:
                name = args.report
                print(text, file=report_file)
                report_file.close()
            else:
                lines.append(text)
            name = "stdout"
            sys.stdout.write("".join(f"{line}\n" for line in lines))
            sys.stdout.flush()      # a failure shows here, not at exit
            for place in filter(None, (place_trace, place_report)):
                place()
    except OSError as exc:
        if name == "stdout":    # drop what it holds, so the shutdown flush stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise CliError(f"cannot write {exc.filename or name}: "
                       f"{exc.strerror or exc}") from None
    mismatch = any(e["verdict"] != "OK" for e in entries)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _check_finite(value, name: str = "") -> None:
    """Raise ``CliError`` naming the first figure of the report ``value``
    (``stats.energy_fj``, say) that is infinite or NaN, as an overflowed
    product is: strict JSON has no such number."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        _check_finite(item, f"{name}.{key}" if name else str(key))
    if isinstance(value, float) and not math.isfinite(value):
        raise CliError(f"{name} is {value}, which a JSON report cannot hold")


def _metrics(args, config: CrossbarConfig) -> dict:
    """The report's ``metrics`` entry, from the reference constants, or
    from a round measurement on ``config``, which is reported before it; a
    metric that would not be a finite positive float is bad geometry."""
    entries: dict = {}
    if args.paper_constants:
        inputs = dataclasses.replace(metrics.REFERENCE_INPUT,
                                     crossbars=args.crossbars)
        source = "reference-constants"
    else:
        measured = measure_round_stats(n_units=config.num_units, config=config)
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
    try:
        entries["metrics"] = {"source": source,
                              "inputs": dataclasses.asdict(inputs),
                              **metrics.compute(inputs).as_dict()}
    except (ValueError, OverflowError) as exc:     # a metric is out of range
        raise CliError(f"bad crossbar geometry: {exc}") from None
    return entries


def _report(args, config: CrossbarConfig, messages: list[bytes],
            seed: int | None, modelled: dict, trace) -> dict:
    """Hash (writing the open stream ``trace``, if any), check, and report,
    with the ``modelled`` metrics entries."""
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "backend": engine.active_backend(),
        "crossbar": {**dataclasses.asdict(config),
                     "units_per_crossbar": config.num_units,
                     "crossbars": args.crossbars},
    }
    if seed is not None:
        report["seed"] = seed

    if messages:
        digests, stats = hash_messages(messages, config=config,
                                       crossbars=args.crossbars, trace=trace)

        entries = []
        for i, (message, digest) in enumerate(zip(messages, digests)):
            expected = keccak_ref.sha3_256(message)
            verdict = "OK" if digest == expected else "MISMATCH"
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
    return report


if __name__ == "__main__":
    sys.exit(main())
