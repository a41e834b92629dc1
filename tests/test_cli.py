"""Command-line behavior: digests, verdicts, reports, errors, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sha3pim
from sha3pim import cli, keccak_ref as ref, native
from sha3pim.crossbar import Crossbar
from sha3pim.cli import (
    EXIT_BAD_INPUT,
    EXIT_CAPACITY,
    EXIT_CLOSED_STDOUT,
    EXIT_MISMATCH,
    EXIT_NO_KERNEL,
    EXIT_OK,
    main,
)
from sha3pim.keccak_xbar import hash_messages

EMPTY_DIGEST = "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"


def run_cli(capsys, *argv):
    status = main(list(argv))
    out, err = capsys.readouterr()
    return status, out, err


def split_output(out):
    """Digest lines precede the JSON report."""
    lines = out.splitlines()
    json_start = next(i for i, line in enumerate(lines) if line.startswith("{"))
    return lines[:json_start], json.loads("\n".join(lines[json_start:]))


def test_empty_text(capsys):
    status, out, _ = run_cli(capsys, "--text", "")
    assert status == EXIT_OK
    digests, report = split_output(out)
    assert digests == [f"{EMPTY_DIGEST}  OK"]
    assert report["schema_version"] == 1
    assert report["messages"][0]["verdict"] == "OK"
    assert report["stats"]["per_label"]["rho"]["cycles"] > 0


def test_hex_and_file_inputs(capsys, tmp_path):
    payload = bytes(range(64))
    path = tmp_path / "message.bin"
    path.write_bytes(payload)
    status, out, _ = run_cli(capsys, "--hex", payload.hex(),
                             "--file", str(path))
    assert status == EXIT_OK
    digests, report = split_output(out)
    expected = ref.sha3_256(payload).hex()
    assert digests == [f"{expected}  OK", f"{expected}  OK"]


def test_malformed_hex(capsys):
    status, _, err = run_cli(capsys, "--hex", "zz")
    assert status == EXIT_BAD_INPUT
    assert "malformed hex" in err


def test_unreadable_file(capsys, tmp_path):
    status, _, err = run_cli(capsys, "--file", str(tmp_path / "missing.bin"))
    assert status == EXIT_BAD_INPUT
    assert "cannot read file" in err


@pytest.mark.parametrize("flag,value", [("--hpart", "28"), ("--vpart", "15"),
                                        ("--rows", "1010"),
                                        ("--gate-delay-ns", "0"),
                                        ("--gate-delay-ns", "nan"),
                                        ("--gate-delay-ns", "inf"),
                                        ("--gate-delay-ns", "1e-320"),
                                        ("--gate-energy-fj", "1e-320"),
                                        ("--gate-energy-fj", "1e-300")])
def test_bad_geometry(capsys, flag, value):
    # both with a hash and with --metrics alone, which reads the cost
    # parameters that a hash only reports
    for source in (("--text", "abc"), ("--metrics",)):
        status, out, err = run_cli(capsys, *source, flag, value)
        assert status == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error: bad crossbar geometry")
        assert len(err.splitlines()) == 1


def test_gate_power_underflow_rejected(capsys):
    # each value is fine alone, but a gate's power, energy over delay,
    # underflows to 0 W, and so would the system power of the metrics
    for source in (("--text", "abc"), ("--metrics",)):
        status, out, err = run_cli(capsys, *source, "--gate-delay-ns", "1e300",
                                   "--gate-energy-fj", "1e-290")
        assert status == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error: bad crossbar geometry")
        assert len(err.splitlines()) == 1


def test_overflowed_report_figure_rejected(capsys):
    # a finite gate energy whose product over the run's gates overflows;
    # strict JSON has no infinity, so no report is printed
    status, out, err = run_cli(capsys, "--text", "a", "--gate-energy-fj", "1e308")
    assert status == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: stats.energy_fj ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_failed_run_leaves_its_outputs_as_they_were(capsys, tmp_path, existing):
    # the report is refused after hashing, with the trace written; each
    # output goes to a temporary file that only a run that succeeds puts
    # in place, so no new file is left and an existing one is unchanged
    report, trace = tmp_path / "report.json", tmp_path / "trace.jsonl"
    if existing:
        report.write_text("old report")
        trace.write_text("old trace")
    status, out, err = run_cli(capsys, "--text", "a", "--gate-energy-fj", "1e308",
                               "--report", str(report), "--trace", str(trace))
    assert status == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: stats.energy_fj ")
    if existing:
        assert (report.read_text(), trace.read_text()) == ("old report", "old trace")
    assert sorted(tmp_path.iterdir()) == ([report, trace] if existing else [])


# each case ends in a flag given a count it rejects; the error names that flag
@pytest.mark.parametrize("argv", [("--metrics", "--paper-constants",
                                   "--crossbars", "0"),
                                  ("--text", "abc", "--crossbars", "-1"),
                                  ("--random", "0")])
def test_bad_crossbar_count(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith(f"error: {argv[-2]} ")
    assert len(err.splitlines()) == 1


# --len and --seed only shape the --random messages; alone they are bad input
@pytest.mark.parametrize("flag,value", [("--len", "-5"), ("--seed", "3")])
def test_random_option_without_random(capsys, flag, value):
    status, out, err = run_cli(capsys, "--text", "abc", flag, value)
    assert status == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith(f"error: {flag} ") and "--random" in err
    assert len(err.splitlines()) == 1


# inputs that reach the encoder or the PRNG before any check of their own
@pytest.mark.parametrize("argv", [("--text", "\udcff"),   # argv byte 0xff
                                  ("--random", "1", "--len", "3", "--seed", "-1")])
def test_unusable_input_value(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith(f"error: {argv[-2]} ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [("--paper-constants",),
                                  ("--text", "abc", "--paper-constants")])
def test_paper_constants_needs_metrics(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: ") and "--metrics" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("report", [False, True], ids=["stdout", "report"])
def test_capacity_exceeded(capsys, tmp_path, report):
    path = tmp_path / "cap.json"
    extra = ("--report", str(path)) if report else ()
    status, _, err = run_cli(capsys, "--random", "379", "--len", "1", *extra)
    assert status == EXIT_CAPACITY
    assert "exceed" in err
    assert not path.exists()


def test_capacity_checked_before_random_messages_exist(capsys, monkeypatch):
    # 10^11 messages would take hours to generate before being refused
    def no_generator(*_):
        raise AssertionError("a --random message was generated")
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    status, out, err = run_cli(capsys, "--text", "abc", "--random",
                               "100000000000", "--len", "1")
    assert status == EXIT_CAPACITY
    assert out == ""
    assert err.startswith("error: 100000000001 messages exceed 378 units")
    assert len(err.splitlines()) == 1


def out_of_memory(*_, **__):
    # stands in for an allocation the host refuses; a test must not make a
    # huge one, which a host that overcommits memory may grant lazily
    raise MemoryError("Unable to allocate 3.64 TiB for an array with shape "
                      "(2000000, 2000000) and data type uint8")


# the crossbar's grids (allocated by the hash or, with --metrics, by the
# compile of a new geometry) and the --random messages
@pytest.mark.parametrize("argv, owner, attr", [
    (("--text", "abc"), Crossbar, "__init__"),
    (("--cols", "1100", "--metrics"), Crossbar, "__init__"),
    (("--random", "1", "--len", "5"), np.random, "default_rng"),
], ids=["hash", "metrics", "random"])
def test_out_of_host_memory(capsys, monkeypatch, argv, owner, attr):
    monkeypatch.setattr(owner, attr, out_of_memory)
    status, out, err = run_cli(capsys, *argv)
    assert status == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: out of host memory: Unable to allocate")
    assert len(err.splitlines()) == 1


def test_random_is_deterministic(capsys):
    args = ("--random", "3", "--len", "20", "--seed", "7")
    status1, out1, _ = run_cli(capsys, *args)
    status2, out2, _ = run_cli(capsys, *args)
    assert status1 == status2 == EXIT_OK
    assert out1 == out2
    assert "seed: 7" in out1


@pytest.mark.parametrize("args", [
    ("--random", "3", "--len", "20"),
    ("--text", "", "--text", "x" * 200),        # cohorts of 1 and 2 blocks
], ids=["random-3", "two-cohorts"])
def test_keccak_cycles_per_round(capsys, args):
    # the non-io cycles over 24 rounds of each permutation actually run,
    # which lockstep units share
    status, out, _ = run_cli(capsys, *args)
    assert status == EXIT_OK
    _, report = split_output(out)
    assert report["stats"]["keccak_cycles_per_round"] == 3250


def test_missing_compiler(capsys, monkeypatch, tmp_path):
    # a fresh kernel cache and no compiler: one line, no traceback, no output
    monkeypatch.setattr(native, "_CACHE", tmp_path / "cache")
    monkeypatch.setattr(native, "_compiler",
                        lambda: [str(tmp_path / "missing-cc")])
    native.kernel.cache_clear()
    try:
        status, out, err = run_cli(capsys, "--text", "abc")
    finally:
        native.kernel.cache_clear()
    assert status == EXIT_NO_KERNEL
    assert out == ""
    assert err.startswith("error: cannot build the C replay kernel")
    assert len(err.splitlines()) == 1
    assert not list((tmp_path / "cache").iterdir())     # no partial file


def test_metrics_with_reference_constants(capsys):
    status, out, _ = run_cli(capsys, "--metrics", "--paper-constants")
    assert status == EXIT_OK
    _, report = split_output(out)
    metrics = report["metrics"]
    assert metrics["source"] == "reference-constants"
    assert metrics["tput_system_gbps"] == pytest.approx(39.2, rel=0.01)
    assert metrics["tput_per_watt_gbps"] == pytest.approx(1422, rel=0.01)


def test_metrics_two_crossbars(capsys):
    status, out, _ = run_cli(capsys, "--metrics", "--paper-constants",
                             "--crossbars", "2")
    _, report = split_output(out)
    assert report["metrics"]["tput_system_gbps"] == pytest.approx(78.4, rel=0.01)
    assert report["metrics"]["tput_per_watt_gbps"] == pytest.approx(1422, rel=0.01)


def test_no_input_errors(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_report_file_and_trace(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.jsonl"
    status, out, _ = run_cli(capsys, "--text", "hi",
                             "--report", str(report_path),
                             "--trace", str(trace_path))
    assert status == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["messages"][0]["digest"] == ref.sha3_256(b"hi").hex()
    # every gate execution the report counts is one traced event cell on
    # one copy of its set
    executions = 0
    with open(trace_path) as trace:
        for record in map(json.loads, trace):
            if "trace_schema" in record:
                shifts = record["shifts"]
            else:
                copies = len(shifts[record["set"]])
                executions += copies * sum(e[1] for e in record["events"])
    assert executions == report["stats"]["gate_executions"] == 3_009_744


@pytest.mark.parametrize("flag", ["--trace", "--report"])
def test_unwritable_output_path(capsys, tmp_path, flag):
    # rejected before hashing, with one line and the bad-input status
    status, out, err = run_cli(capsys, "--text", "abc",
                               flag, str(tmp_path / "missing" / "out.json"))
    assert status == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: cannot write ")
    assert len(err.splitlines()) == 1


# an output may not land on another output or on a --file input, by any
# name; the refusal comes before any file is opened
@pytest.mark.parametrize("argv", [
    ("--text", "hi", "--trace", "{new}", "--report", "{new}"),
    ("--text", "hi", "--trace", "{old}", "--report", "{link}"),
    ("--file", "{old}", "--trace", "{old}"),
    ("--file", "{link}", "--report", "{old}"),
], ids=["trace-report-new", "trace-report-link", "file-trace", "file-report"])
def test_output_shares_a_file(capsys, tmp_path, argv):
    old, new, link = tmp_path / "old.bin", tmp_path / "new.json", tmp_path / "link"
    old.write_bytes(b"keep")
    link.symlink_to(old)
    status, out, err = run_cli(
        capsys, *(a.format(old=old, new=new, link=link) for a in argv))
    assert status == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: --") and "same file" in err
    assert len(err.splitlines()) == 1
    assert old.read_bytes() == b"keep" and not new.exists()


def test_device_outputs_may_repeat(capsys):
    status, out, _ = run_cli(capsys, "--text", "abc", "--trace", os.devnull,
                             "--report", os.devnull)
    assert status == EXIT_OK
    assert out == f"{ref.sha3_256(b'abc').hex()}  OK\n"


def test_stdout_closed_early():
    # stdout is a pipe whose reader is already gone, as after ``| head``;
    # --metrics --paper-constants writes a report without compiling
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(sha3pim.__file__).parents[1])}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "sha3pim.cli", "--metrics",
             "--paper-constants"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr.decode()
    assert done.returncode == EXIT_CLOSED_STDOUT == 141


def run_child(argv, stdout=subprocess.DEVNULL, wrapper=()):
    """``sha3pim argv`` in a child process (started through the ``wrapper``
    command, if any), its stderr captured as text; its stdout is buffered,
    as by default, so a failed write can first show at a flush."""
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(sha3pim.__file__).parents[1])
    return subprocess.run([*wrapper, sys.executable, "-m", "sha3pim.cli",
                           *argv], stdout=stdout, stderr=subprocess.PIPE,
                          env=env, text=True, timeout=120)


# an output that opens but fails while it is written: a full disk, which
# /dev/full stands in for, or a stdout closed before the run (``>&-``)
@pytest.mark.parametrize("where", ["stdout", "--report", "--trace", "closed"])
def test_output_write_fails(where):
    if where != "closed" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    argv = ["--text", "abc"]
    if where == "closed":
        done = run_child(argv, wrapper=["sh", "-c", 'exec "$@" >&-', "sh"])
    elif where == "stdout":
        with open("/dev/full", "w") as full:
            done = run_child(argv, stdout=full)
    else:
        done = run_child(argv + [where, "/dev/full"])
    assert done.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: cannot write ")


def test_digest_mismatch(capsys, monkeypatch, tmp_path):
    # status 1 is kept for a wrong digest: its line and its report entry say
    # MISMATCH, the others OK, and nothing goes to stderr
    def one_wrong(messages, **kwargs):
        digests, stats = hash_messages(messages, **kwargs)
        digests[1] = bytes([digests[1][0] ^ 1]) + digests[1][1:]
        return digests, stats
    monkeypatch.setattr(cli, "hash_messages", one_wrong)
    report_path = tmp_path / "report.json"
    status, out, err = run_cli(capsys, "--text", "a", "--text", "b",
                               "--text", "c", "--report", str(report_path))
    assert status == EXIT_MISMATCH == 1
    assert err == ""
    wrong = bytearray(ref.sha3_256(b"b"))
    wrong[0] ^= 1
    assert out.splitlines() == [f"{ref.sha3_256(b'a').hex()}  OK",
                                f"{wrong.hex()}  MISMATCH",
                                f"{ref.sha3_256(b'c').hex()}  OK"]
    report = json.loads(report_path.read_text())
    assert [(m["digest"], m["verdict"]) for m in report["messages"]] == \
        [tuple(line.split("  ")) for line in out.splitlines()]


def test_strict_init_flag(capsys):
    status, out, _ = run_cli(capsys, "--text", "abc", "--strict-init")
    assert status == EXIT_OK
    digests, _ = split_output(out)
    assert digests[0].startswith(ref.sha3_256(b"abc").hex())


def test_full_crossbar_lockstep(capsys):
    # 378 equal-length messages fill one crossbar and run in lockstep
    status, out, _ = run_cli(capsys, "--random", "378", "--len", "136",
                             "--seed", "3")
    assert status == EXIT_OK
    digests, report = split_output(out)
    assert len(digests) == 379              # seed line + 378 digest lines
    assert all(line.endswith("OK") for line in digests[1:])
    assert len(report["messages"]) == 378
    assert report["unit_packing"]["lockstep_cohorts"] == [
        {"units": 378, "blocks": 2}]
    # lockstep: cycle count equals a single two-block message's, per label
    solo, solo_report = run_cli(capsys, "--random", "1", "--len", "136",
                                "--seed", "3")[:2]
    _, solo_report = split_output(solo_report)
    for label in ("theta", "rho", "pi", "chi", "iota"):
        assert report["stats"]["per_label"][label]["cycles"] == \
            solo_report["stats"]["per_label"][label]["cycles"]
