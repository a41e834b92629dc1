"""The C library compiles without warnings, runs the replay and io tests
that cross its words free of undefined behaviour, and the benchmark's
workloads run every copy of its loops."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sha3pim import keccak_xbar, native
from sha3pim.crossbar import GATE_TABLE, CrossbarConfig

ROOT = Path(__file__).resolve().parent.parent
# the tests whose replays reach a second word of the kernel's grid, run a
# set with no copies or run a stored bundle twice, and those of the io
# entry points, whose regions reach a second word at the default geometry
WORD_TESTS = [
    "tests/test_engine.py::test_replay_across_words_matches_serial_execution",
    "tests/test_engine.py::test_input_key_offset_from_its_output_key",
    "tests/test_engine.py::test_strided_keys_match_serial_execution",
    "tests/test_engine.py::test_every_gate_form_on_every_path",
    "tests/test_engine.py::test_strict_failure_in_the_second_word",
    "tests/test_engine.py::test_replay_keys_past_the_int16_range",
    "tests/test_engine.py::test_a_set_with_no_copies_runs_nothing",
    "tests/test_engine.py::test_a_repeated_program_replays_like_the_oracle",
    "tests/test_engine.py::test_strict_failure_after_a_repeated_program",
    "tests/test_keccak_xbar.py::test_hash_cohorts_at_word_boundaries",
    "tests/test_crossbar.py::test_region_io_agrees_with_load_and_cells",
    "tests/test_crossbar.py::test_region_write_of_a_bad_bit_sets_nothing",
    "tests/test_crossbar.py::test_strict_read_of_a_partly_written_region",
    "tests/test_crossbar.py::test_region_io_out_of_range",
]
UNDEFINED_ABORTS = ["-fsanitize=undefined", "-fno-sanitize-recover=undefined"]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def compiler():
    command = native._compiler()
    if shutil.which(command[0]) is None:
        pytest.skip(f"no C compiler: {command[0]} is not on PATH")
    return command


def test_kernel_compiles_without_warnings(compiler, tmp_path):
    done = subprocess.run(
        [*compiler, "-O3", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "rows.so"), str(native._SOURCE)],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_word_tests_pass_with_undefined_behaviour_aborting(compiler, tmp_path):
    # a child process builds its kernel with the undefined-behaviour
    # sanitizer into tmp_path, so a shift by 64 or an out-of-range index
    # aborts it, and runs the word tests on that kernel
    script = "\n".join([
        "import sys",
        "from pathlib import Path",
        "import pytest",
        "from sha3pim import native",
        f"native._compiler = lambda: {compiler + UNDEFINED_ABORTS!r}",
        f"native._CACHE = Path({str(tmp_path)!r})",
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *{WORD_TESTS!r}]))",
    ])
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert len(list(tmp_path.glob("_rows-*.so"))) == 1


def test_workloads_run_every_form_copy(compiler, tmp_path):
    # run() dispatches each row to the copy of the kernel's loops compiled
    # for its gate form, one copy per form of GATE_TABLE; a child process
    # builds the kernel with coverage counters into tmp_path and hashes the
    # benchmark's messages, b"abc" and the 0-200-byte sweep, and gcov must
    # count a run of every copy, so no copy is code that no workload runs
    if shutil.which("gcov") is None:
        pytest.skip("no gcov on PATH")
    script = "\n".join([
        "import random",
        "from pathlib import Path",
        "from sha3pim import keccak_xbar, native",
        f"native._compiler = lambda: {compiler + ['--coverage']!r}",
        f"native._CACHE = Path({str(tmp_path)!r})",
        "keccak_xbar.hash_messages([b'abc'])",
        "rng = random.Random(1)",
        "keccak_xbar.hash_messages([rng.randbytes(n) for n in range(201)])",
    ])
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    [data] = tmp_path.glob("*.gcda")
    report = subprocess.run(["gcov", "-t", data.name], cwd=tmp_path,
                            capture_output=True, text=True)
    assert report.returncode == 0, report.stderr
    # gcov's lines are count:line:source, from run()'s signature to its "}"
    lines = [line.split(":", 2) for line in report.stdout.splitlines()]
    first = next(i for i, (_, _, text) in enumerate(lines)
                 if text.startswith("static void run("))
    last = next(i for i in range(first, len(lines)) if lines[i][2] == "}")
    counts = [count.strip().rstrip("*") for count, _, text in lines[first:last]
              if "run_form(" in text]
    assert len(counts) == len({form[1:] for form in GATE_TABLE.values()})
    assert all(count.isdigit() and int(count) > 0 for count in counts), counts


def test_a_build_removes_superseded_builds(compiler, tmp_path, monkeypatch):
    # a build made for an older source or compiler is never loaded again
    (tmp_path / "_rows-deadbeef.so").write_bytes(b"stale")
    monkeypatch.setattr(native, "_CACHE", tmp_path)
    native.kernel.cache_clear()
    try:
        native.kernel()
        assert len(list(tmp_path.glob("_rows-*.so"))) == 1
        assert not (tmp_path / "_rows-deadbeef.so").exists()
    finally:
        native.kernel.cache_clear()


def test_set_up_neither_builds_nor_loads_the_library(tmp_path, monkeypatch):
    # compiling the microcode schedules, checks and freezes without it; its
    # first use is a hash's first write_region, which reports the failure
    monkeypatch.setattr(native, "_CACHE", tmp_path)
    monkeypatch.setattr(native, "_compiler", lambda: [str(tmp_path / "missing-cc")])
    native.kernel.cache_clear()
    try:
        config = CrossbarConfig(rows=78, cols=61, vertical_partitions=1,
                                horizontal_partitions=1)
        keccak_xbar.CompiledKeccak(config)
        assert native.kernel.cache_info().misses == 0
        with pytest.raises(native.KernelBuildError, match="missing-cc"):
            keccak_xbar.hash_messages([b"abc"], config)
        assert native.kernel.cache_info().misses == 1
        assert not list(tmp_path.iterdir())
    finally:
        native.kernel.cache_clear()
