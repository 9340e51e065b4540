import gc
import hashlib
import re
import tracemalloc

import pytest

import legrack.coloring
from legrack import __version__
from legrack.census import MAX_ENUM_ORDER
from legrack.cli import MAX_VERIFY_ORDER, build_parser, main
from legrack.front import (
    builtin_fixtures,
    fundamental_presentation,
    left_trefoil,
    save_front,
    standard_unknot,
)
from legrack.perms import burnside_pair_count, symmetric_group
from legrack.racks import dihedral_quandle, save_rack, trivial_quandle


@pytest.fixture()
def unknot_file(tmp_path):
    path = tmp_path / "unknot.front"
    save_front(standard_unknot(), path)
    return str(path)


@pytest.fixture()
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.front"
    save_front(left_trefoil(), path)
    return str(path)


@pytest.fixture()
def t3_file(tmp_path):
    path = tmp_path / "t3.rack"
    save_rack(trivial_quandle(3), path)
    return str(path)


@pytest.fixture()
def fixtures_dir(tmp_path):
    """The 12 built-in fixtures, one ``.front`` file each."""
    fronts = tmp_path / "fixtures"
    fronts.mkdir()
    for name, code in builtin_fixtures().items():
        save_front(code, fronts / f"{name}.front")
    return str(fronts)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_jobs_and_no_header_only_on_commands_that_read_them(capsys):
    parser = build_parser()
    required = {"census": ["--max-order", "1"], "classify": ["--rack", "r"],
                "invariants": ["--front", "f"],
                "presentation": ["--front", "f"],
                "colorings": ["--front", "f", "--rack", "r"],
                "verify": ["--fronts", "d"]}

    def accepts(command, flags):
        try:
            parser.parse_args([command, *required[command], *flags])
        except SystemExit:
            return False
        return True

    assert all(accepts(command, []) for command in required)
    assert {c for c in required if accepts(c, ["--jobs", "1"])} == {"census"}
    assert {c for c in required if accepts(c, ["--no-header"])} == \
        {"census", "classify", "verify"}


@pytest.mark.parametrize("jobs", ["2", "0", "-3", "two"])
def test_census_rejects_jobs_that_are_not_positive(capsys, jobs):
    # the census runs in one process: any value but 1 is a usage error,
    # not a request to run serially anyway
    with pytest.raises(SystemExit) as exc:
        main(["census", "--max-order", "1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "argument --jobs: invalid" in capsys.readouterr().err


def test_census_takes_the_benchmark_argv(capsys, tmp_path):
    # the argv shape perfbench's census workload builds; ``--jobs 1`` must
    # stay accepted and change no byte of the report
    with_jobs, without = tmp_path / "jobs.csv", tmp_path / "plain.csv"
    assert main(["census", "--max-order", "1", "--no-header", "--jobs", "1",
                 "--output", str(with_jobs)]) == 0
    assert main(["census", "--max-order", "1", "--no-header",
                 "--output", str(without)]) == 0
    assert capsys.readouterr().out == ""
    assert with_jobs.read_bytes() == without.read_bytes() != b""


@pytest.mark.parametrize("order", [str(MAX_ENUM_ORDER + 1), "-1", "-2", "six"])
def test_census_rejects_orders_it_cannot_enumerate(capsys, order):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--max-order", order])
    assert exc.value.code == 2
    assert (f"argument --max-order: expected an order from 0 to "
            f"{MAX_ENUM_ORDER}, got {order!r}") in capsys.readouterr().err


@pytest.mark.parametrize("order", ["0", "-5"])
def test_verify_rejects_orders_below_one(capsys, fixtures_dir, order):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fronts", fixtures_dir, "--max-order", order])
    assert exc.value.code == 2
    assert "argument --max-order: expected a positive integer" in \
        capsys.readouterr().err


@pytest.mark.parametrize("order", [str(MAX_VERIFY_ORDER + 1), "8", "1000000"])
def test_verify_rejects_orders_above_the_enumeration_bound(
        capsys, monkeypatch, fixtures_dir, order):
    # rejected while the arguments are parsed, before any rack is built
    def unreachable(*args):
        raise AssertionError("verify ran")

    monkeypatch.setattr(legrack.cli, "verify_indistinguishability",
                        unreachable)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fronts", fixtures_dir, "--max-order", order])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert (f"argument --max-order: expected an order of at most "
            f"{MAX_VERIFY_ORDER}, got {order!r}") in err
    assert "25,401,600 structures" in err


def test_census_csv(capsys):
    code, out, _ = run(capsys, ["census", "--max-order", "2", "--no-header"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order,family,rack_classes,structure_classes"
    assert lines[1] == "0,racks,1,1"
    assert "2,racks,2,8" in lines
    assert "2,quandles,1,4" in lines
    assert len(lines) == 1 + 4 * 3


def test_a_second_call_leaves_no_cyclic_garbage(capsys):
    # the parser is built once per process, so a repeated call makes no
    # argparse objects for the collector; a parser per call left 285
    argv = ["census", "--max-order", "6", "--no-header"]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert build_parser() is build_parser()
    capsys.readouterr()


def test_census_header_and_output_file(capsys, tmp_path):
    out_file = tmp_path / "census.csv"
    code, out, _ = run(capsys, ["census", "--max-order", "1",
                                "--output", str(out_file)])
    assert code == 0 and out == ""
    text = out_file.read_text()
    assert text.startswith(f"# legrack {__version__} | ")
    assert "census --max-order 1" in text.splitlines()[0]


def test_census_no_header_is_deterministic(capsys):
    _, first, _ = run(capsys, ["census", "--max-order", "3", "--no-header"])
    _, second, _ = run(capsys, ["census", "--max-order", "3", "--no-header"])
    assert first == second


def test_classify(capsys, t3_file):
    code, out, _ = run(capsys, ["classify", "--rack", t3_file, "--no-header"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rack_id,class_index,ul,ur,orbit_size"
    rows = lines[1:]
    assert len(rows) == 11
    assert rows[0] == "t3.rack,0,(),(),1"
    assert sum(int(r.rsplit(",", 1)[1]) for r in rows) == 36


def test_classify_large_gl_center(capsys, tmp_path):
    # T_7: |U_X| = |Aut| = 5040, so conjugating all 5040^2 pairs by every
    # automorphism would take about 50 min; class representatives and their
    # centralizers list the classes in well under a second
    path = tmp_path / "t7.rack"
    save_rack(trivial_quandle(7), path)
    code, out, _ = run(capsys, ["classify", "--rack", str(path), "--no-header"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 5579 == burnside_pair_count(symmetric_group(7))
    assert sum(int(r.rsplit(",", 1)[1]) for r in rows) == 5040 ** 2


def test_invariants(capsys, trefoil_file, unknot_file):
    code, out, _ = run(capsys, ["invariants", "--front", trefoil_file])
    assert code == 0 and out == "tb=-6 rot=-1\n"
    code, out, _ = run(capsys, ["invariants", "--front", unknot_file])
    assert code == 0 and out == "tb=-1 rot=0\n"


def test_presentation(capsys, trefoil_file, unknot_file):
    code, out, _ = run(capsys, ["presentation", "--front", trefoil_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generators=3"
    assert len(lines) == 4
    assert all(">^-1" in line for line in lines[1:])
    code, out, _ = run(capsys, ["presentation", "--front", unknot_file])
    assert out.splitlines() == ["generators=1", "closure: ur dl"]


def test_colorings(capsys, trefoil_file, unknot_file, t3_file):
    code, out, _ = run(capsys, ["colorings", "--front", trefoil_file,
                                "--rack", t3_file])
    assert code == 0 and out == "3\n"
    code, out, _ = run(capsys, ["colorings", "--front", unknot_file,
                                "--rack", t3_file, "--ul", "(0 1 2)"])
    assert code == 0
    brute = run(capsys, ["colorings", "--front", unknot_file,
                         "--rack", t3_file, "--ul", "(0 1 2)",
                         "--brute-force"])
    assert brute[1] == out


def test_colorings_rejects_invalid_structure(capsys, unknot_file, tmp_path):
    rack_file = tmp_path / "d3.rack"
    save_rack(dihedral_quandle(3), rack_file)
    # (0 1) is not in the structure group of the dihedral quandle of order 3
    code, _, err = run(capsys, ["colorings", "--front", unknot_file,
                                "--rack", str(rack_file), "--ul", "(0 1)"])
    assert code == 1
    assert "error" in err


def test_verify_pass(capsys, tmp_path):
    fronts = tmp_path / "fronts"
    fronts.mkdir()
    fixtures = builtin_fixtures()
    for name in ("unknot", "unknot_kinks_pm", "trefoil", "unknot_s2p3m"):
        save_front(fixtures[name], fronts / f"{name}.front")
    code, out, _ = run(capsys, ["verify", "--fronts", str(fronts),
                                "--max-order", "2", "--no-header"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "code_name,tb,rot,rack_id,ul,ur,count"
    groups = [line for line in lines if line.startswith("# group")]
    assert len(groups) == 2
    assert all(line.endswith("PASS") for line in groups)
    assert not any("violation" in line for line in lines)


def test_verify_fixtures_output_is_pinned(capsys, fixtures_dir):
    code, out, _ = run(capsys, ["verify", "--fronts", fixtures_dir,
                                "--max-order", "3", "--no-header"])
    assert code == 0
    assert len(out.splitlines()) == 703
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "38438d96c0756fad1547966e2e07ce69a6c043c82b723b2b71bbcbc205d9af90"


def test_verify_fixtures_output_at_order_five_is_pinned(capsys,
                                                       fixtures_dir):
    code, out, _ = run(capsys, ["verify", "--fronts", fixtures_dir,
                                "--max-order", "5", "--no-header"])
    assert code == 0
    assert len(out.splitlines()) == 185527
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "c4859fd5f48b19c3caba6de78a3b2b6a80546163457fbb84c41052ccf6ea0f1b"


def test_census_output_to_order_six_is_pinned(capsys):
    code, out, _ = run(capsys, ["census", "--max-order", "6", "--no-header"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "9c7bd9f8b9cf58eef7ced2f0afb411cd12c1a64e6d591b9b99abe1a172df40d6"


def _verify_peak_bytes(fronts, order, path):
    tracemalloc.start()
    try:
        code = main(["verify", "--fronts", fronts, "--max-order", order,
                     "--no-header", "--output", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_verify_does_not_hold_its_rows(fixtures_dir, tmp_path):
    # order 4 writes many times the rows of order 3, and each row is
    # written as it is counted, so the peak grows by the per-rack memos
    # alone, not by the rows
    _verify_peak_bytes(fixtures_dir, "2", tmp_path / "warm.csv")
    peaks = {order: _verify_peak_bytes(fixtures_dir, order,
                                       tmp_path / f"{order}.csv")
             for order in ("3", "4")}
    lines = {order: len((tmp_path / f"{order}.csv").read_text().splitlines())
             for order in peaks}
    assert lines["4"] > 5 * lines["3"]
    assert peaks["4"] - peaks["3"] < 256 * 1024, peaks


def test_verify_fail_marks_only_the_broken_group(capsys, monkeypatch,
                                                 fixtures_dir):
    # one front of the (tb, rot) = (-1, 0) group is miscounted by one
    broken = fundamental_presentation(builtin_fixtures()["unknot_kinks_pm"])
    count = legrack.coloring.count_colorings
    monkeypatch.setattr(legrack.coloring, "count_colorings",
                        lambda pres, fl: count(pres, fl) + (pres == broken))
    code, out, _ = run(capsys, ["verify", "--fronts", fixtures_dir,
                                "--max-order", "2", "--no-header"])
    assert code == 3
    lines = out.splitlines()
    groups = [line for line in lines if line.startswith("# group")]
    failed = [line for line in groups if line.endswith(": FAIL")]
    assert failed == ["# group tb=-1 rot=0 [unknot unknot_kinks_pm]: FAIL"]
    assert all(line.endswith(": PASS") for line in groups
               if line not in failed)
    assert len(groups) == 6
    violations = [line for line in lines if line.startswith("# violation: ")]
    assert violations
    assert all("(tb,rot)=(-1, 0)" in v and "unknot_kinks_pm=" in v
               for v in violations)


def test_verify_empty_directory(capsys, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code, _, err = run(capsys, ["verify", "--fronts", str(empty)])
    assert code == 1 and "no .front files" in err


def test_bad_input_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.front"
    bad.write_text("CUSP R U\nCUSP R D\n")
    code, _, err = run(capsys, ["invariants", "--front", str(bad)])
    assert code == 1 and "legrack: error:" in err
    code, _, err = run(capsys, ["invariants", "--front",
                                str(tmp_path / "missing.front")])
    assert code == 1


@pytest.mark.parametrize("name", ["un,known", 'un"known', "un\rknown",
                                  "un\nknown"])
def test_names_that_would_break_the_csv_are_rejected(capsys, tmp_path, name):
    """A front or rack file name with a comma, a double quote, CR or LF
    would shift or split its CSV rows, so ``verify`` and ``classify``
    exit 1 with a reason and write no row."""
    fronts = tmp_path / "fronts"
    fronts.mkdir()
    save_front(standard_unknot(), fronts / f"{name}.front")
    save_front(left_trefoil(), fronts / "trefoil.front")
    rack = tmp_path / f"{name}.rack"
    save_rack(trivial_quandle(1), rack)
    out_file = tmp_path / "report.csv"
    for argv, what in ((["verify", "--fronts", str(fronts),
                         "--max-order", "1"], "front file name"),
                       (["classify", "--rack", str(rack)], "rack file name")):
        code, out, err = run(capsys, argv + ["--no-header"])
        assert code == 1 and out == ""
        assert err.startswith(f"legrack: error: {what} ")
        assert "a comma, a double quote or a line break" in err
        code, out, _ = run(capsys, argv + ["--output", str(out_file)])
        assert code == 1 and out == "" and not out_file.exists()


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
def test_paths_that_would_split_the_header_are_rejected(capsys, tmp_path,
                                                       brk):
    """A ``--rack`` or ``--fronts`` path holding CR or LF, here in a
    directory name, would split the header line that echoes it, so
    ``classify`` and ``verify`` exit 1 with a reason and write nothing, to
    standard output or to ``--output``.  Under ``--no-header`` nothing
    echoes the path, and both run."""
    odd = tmp_path / f"a{brk}b"
    fronts = odd / "fronts"
    fronts.mkdir(parents=True)
    save_front(standard_unknot(), fronts / "unknot.front")
    rack = odd / "t1.rack"
    save_rack(trivial_quandle(1), rack)
    out_file = tmp_path / "report.csv"
    for argv, echo, row in (
            (["classify", "--rack", str(rack)], f"classify --rack {rack}",
             "t1.rack,0,(),(),1"),
            (["verify", "--fronts", str(fronts), "--max-order", "1"],
             f"verify --fronts {fronts} --max-order 1",
             "unknot,-1,0,perm1:(),(),(),1")):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err == (f"legrack: error: the header line would echo "
                       f"{echo!r}, whose line break would split it: use a "
                       f"path without CR or LF, or --no-header\n")
        code, out, _ = run(capsys, argv + ["--output", str(out_file)])
        assert code == 1 and out == "" and not out_file.exists()
        code, out, _ = run(capsys, argv + ["--no-header"])
        assert code == 0 and out.splitlines()[1] == row


def test_headers_echo_each_command_as_before(capsys, tmp_path, t3_file,
                                             fixtures_dir):
    """Every header that echoes a path without CR or LF is the line it was:
    version, UTC time to the second, and the command with its paths."""
    stamp = r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00"
    for argv, echo in (
            (["census", "--max-order", "1"], "census --max-order 1"),
            (["classify", "--rack", t3_file], f"classify --rack {t3_file}"),
            (["verify", "--fronts", fixtures_dir, "--max-order", "1"],
             f"verify --fronts {fixtures_dir} --max-order 1")):
        code, out, _ = run(capsys, argv)
        assert code == 0
        first, second = out.splitlines()[:2]
        assert re.fullmatch(
            rf"# legrack {re.escape(__version__)} \| {stamp} \| "
            rf"{re.escape(echo)}", first), first
        assert not second.startswith("#")


def test_names_with_other_characters_are_written_as_they_are(capsys,
                                                             tmp_path):
    name = "un known;'x'"
    fronts = tmp_path / "fronts"
    fronts.mkdir()
    save_front(standard_unknot(), fronts / f"{name}.front")
    rack = tmp_path / f"{name}.rack"
    save_rack(trivial_quandle(1), rack)
    code, out, _ = run(capsys, ["verify", "--fronts", str(fronts),
                                "--max-order", "1", "--no-header"])
    assert code == 0
    assert out.splitlines()[1] == f"{name},-1,0,perm1:(),(),(),1"
    code, out, _ = run(capsys, ["classify", "--rack", str(rack),
                                "--no-header"])
    assert code == 0
    assert out.splitlines()[1:] == [f"{name}.rack,0,(),(),1"]


def test_unrealizable_front_exits_one(capsys, tmp_path):
    # the unknot with one kink: tb + rot = -2, even, so no Legendrian knot
    kinked = tmp_path / "kinked.front"
    kinked.write_text("CUSP R U\nCUSP L D\nX 1 - O\nX 1 - U\n")
    for command in ("invariants", "presentation"):
        code, out, err = run(capsys, [command, "--front", str(kinked)])
        assert code == 1 and out == ""
        assert "tb + rot = writhe - up cusps = -2 is even" in err


def test_console_script_installed(tmp_path):
    """The ``legrack`` console script declared in pyproject.toml starts the CLI.

    Always runs: read the ``[project.scripts]`` entry and run, in a fresh
    interpreter on the same ``legrack`` package the tests import, the launcher
    pip writes for it (``sys.exit(main())``). ``--version`` must print this
    version and exit 0; a missing input file must exit 1, which holds only if
    the entry point returns its exit code. Runs only on a machine where
    ``legrack`` is on PATH: the installed executable is run with ``--version``
    too, so a stale or broken install fails here.
    """
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import legrack

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["legrack"]
    module, sep, func = spec.partition(":")
    assert sep and module and func.isidentifier(), spec
    launcher = [sys.executable, "-c",
                f"import sys; from {module} import {func}; sys.exit({func}())"]
    env = dict(os.environ,
               PYTHONPATH=str(Path(legrack.__file__).resolve().parent.parent))
    expected = f"legrack {__version__}\n"

    result = subprocess.run(launcher + ["--version"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected
    missing = str(tmp_path / "missing.front")
    result = subprocess.run(launcher + ["invariants", "--front", missing],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 1
    assert result.stderr.startswith("legrack: error:")

    exe = shutil.which("legrack")
    if exe is not None:
        result = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected
