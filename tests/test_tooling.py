"""The repository's tooling: its pytest configuration, its exports and the
report-digest tool."""

import importlib
import importlib.util
import json
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import movingframes

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(k):
    assert k < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    """Under the repository's warning filters a failing @given test is one
    failure: the report Hypothesis writes for it must not turn a warning into
    an INTERNALERROR that silently skips every later test."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), str(probe)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_every_export_resolves():
    """Every name in the package's ``__all__`` and in each of its modules'
    resolves to an attribute, so a deleted member cannot stay exported."""
    modules = [movingframes] + [importlib.import_module(f"movingframes.{info.name}")
                                for info in pkgutil.iter_modules(movingframes.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_report_digests_run_and_compare(tmp_path):
    """tools/report_digests.py digests every cold and warm run of a
    workload's sessions, and its compare mode names a session that differs."""
    tool = PYPROJECT.parent / "tools" / "report_digests.py"
    out = tmp_path / "digests.json"
    run = subprocess.run([sys.executable, str(tool), "run", "--seeds", "1",
                          "--workloads", "screw-eval", "--size", "tiny", "--out", str(out)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    sessions = json.loads(out.read_text())["sessions"]
    assert sorted(sessions) == ["screw-eval:1:0", "screw-eval:1:1", "screw-eval:1:2"]
    for rows in sessions.values():
        # one config per session: its cold and its warm run, both exit 0 with one report
        assert [row[:3] for row in rows] == [[0, 0, 0], [1, 0, 0]]
        assert rows[0][3] == rows[1][3] and len(rows[0][3]) == 64
    same = subprocess.run([sys.executable, str(tool), "compare", str(out), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert same.returncode == 0 and "0 of 3 sessions differ" in same.stdout
    changed = json.loads(out.read_text())
    changed["sessions"]["screw-eval:1:1"][1][3] = "0" * 64
    other = tmp_path / "changed.json"
    other.write_text(json.dumps(changed))
    diff = subprocess.run([sys.executable, str(tool), "compare", str(out), str(other)],
                          capture_output=True, text=True, timeout=60)
    assert diff.returncode == 1
    assert diff.stdout.splitlines() == ["differs: screw-eval:1:1", "1 of 3 sessions differ"]


def test_report_digests_check_runs_two_sources_and_compares(tmp_path):
    """tools/report_digests.py check runs both sources' sessions and exits as
    compare does: 0 for the same source twice, 1 when one source's
    serialize_report appends a byte."""
    tool = PYPROJECT.parent / "tools" / "report_digests.py"
    src = PYPROJECT.parent / "src"
    changed = tmp_path / "src"
    shutil.copytree(src, changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "movingframes" / "cli.py"
    text = cli.read_text()
    line = '    return "".join(chunks) + "\\n"\n'
    assert text.count(line) == 1
    cli.write_text(text.replace(line, line.replace('"\\n"', '"\\n "')))
    args = ["--seeds", "1", "--workloads", "screw-eval", "--size", "tiny"]
    for other, code, last in ((src, 0, "0 of 3 sessions differ"),
                              (changed, 1, "3 of 3 sessions differ")):
        run = subprocess.run([sys.executable, str(tool), "check", str(src), str(other), *args],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == code, run.stderr
        assert run.stdout.splitlines()[-1] == last


def test_inprocess_ab_runs_two_checkouts_in_one_interpreter():
    """tools/inprocess_ab.py loads a checkout's package twice under distinct
    names, interleaves warm passes of a workload's configs and prints the
    median ratio between its quartiles and the rounds the second side was
    faster."""
    tool = PYPROJECT.parent / "tools" / "inprocess_ab.py"
    src = str(PYPROJECT.parent / "src")
    run = subprocess.run([sys.executable, str(tool), src, src, "--workload", "screw-eval",
                          "--rounds", "3", "--size", "tiny"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "screw-eval seed 41 (tiny, 3 configs), 3 rounds"
    assert lines[1].startswith("A median ") and " ms  B median " in lines[1]
    ratio = re.fullmatch(r"median B/A (\d+\.\d{4}) \(quartiles (\d+\.\d{4}), "
                         r"(\d+\.\d{4})\), B lower in [0-3] of 3", lines[2])
    assert ratio, lines[2]
    median, low, high = (float(v) for v in ratio.groups())
    assert low <= median <= high


def test_report_digests_fields_names_each_moved_field(tmp_path):
    """tools/report_digests.py fields prints, per session that differs, each
    report field that moved with its largest |difference| and the number of
    runs, then whether anything non-numeric moved.  It exits 0 with the same
    source twice, printing no session, 1 when only numbers moved and 2 when a
    string moved too."""
    tool = PYPROJECT.parent / "tools" / "report_digests.py"
    src = PYPROJECT.parent / "src"
    args = ["--seeds", "1", "--workloads", "screw-eval", "--size", "tiny"]
    same = subprocess.run([sys.executable, str(tool), "fields", str(src), str(src), *args],
                          capture_output=True, text=True, timeout=300)
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines() == [
        "all sessions:",
        "0 of 3 sessions differ; exit codes, verdicts, flags and strings unchanged"]
    changed = tmp_path / "src"
    shutil.copytree(src, changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "movingframes" / "cli.py"
    text = cli.read_text()
    for old, new in (('"two_path_residual": flow_data.two_path,',
                      '"two_path_residual": flow_data.two_path + 0.5,'),
                     ('"frame": "coordinate Gram-Schmidt",', '"frame": "another frame",')):
        assert text.count(old) == 1
        text = text.replace(old, new)
        cli.write_text(text)
        if new.startswith('"two_path'):         # a roundoff-only change: numbers alone
            run = subprocess.run([sys.executable, str(tool), "fields", str(src), str(changed),
                                  *args], capture_output=True, text=True, timeout=300)
            assert run.returncode == 1, run.stderr
            assert run.stdout.splitlines()[-1] == (
                "3 of 3 sessions differ; exit codes, verdicts, flags and strings unchanged")
    run = subprocess.run([sys.executable, str(tool), "fields", str(src), str(changed), *args],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 2, run.stderr
    lines = run.stdout.splitlines()
    assert lines[:4] == ["differs: screw-eval:1:0",
                         "  tasks.flow.two_path_residual  max |d| 0.5  runs 2",
                         "  non-numeric moved: tasks.curvature.frame  runs 2",
                         "differs: screw-eval:1:1"]
    assert lines[-3:] == ["all sessions:", "  tasks.flow.two_path_residual  max |d| 0.5  runs 6",
                          "3 of 3 sessions differ; exit codes, verdicts, flags and strings moved"]



def test_report_digests_fields_exits_3_when_a_session_fails(tmp_path):
    """tools/report_digests.py fields exits 3, not the 1 of a roundoff-only
    change, when a session interpreter fails: here one source's package
    raises on import."""
    tool = PYPROJECT.parent / "tools" / "report_digests.py"
    broken = tmp_path / "src" / "movingframes"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text("raise ImportError('broken package')\n")
    run = subprocess.run([sys.executable, str(tool), "fields", str(PYPROJECT.parent / "src"),
                          str(tmp_path / "src"), "--seeds", "1", "--workloads", "screw-eval",
                          "--size", "tiny"], capture_output=True, text=True, timeout=300)
    assert run.returncode == 3, run.stderr
    assert "session interpreter exited 1" in run.stderr and "broken package" in run.stderr

def test_report_digests_field_moves_reads_codes_checks_and_errors():
    """field_moves keys a check by its task and name, takes the largest
    |difference| of a number over the runs, and counts a changed exit code,
    flag or error message as non-numeric."""
    spec = importlib.util.spec_from_file_location(
        "report_digests", PYPROJECT.parent / "tools" / "report_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def report(value, flag):
        return json.dumps({"checks": [{"task": "flow", "name": "rigidity", "value": value}],
                           "all_passed": flag, "kappa": 1})

    a = [[0, 0, 0, report(1e-16, True)], [1, 0, 0, report(1e-16, True)],
         [0, 1, 2, "EvalDomainError: division by zero"]]
    b = [[0, 0, 0, report(3e-16, True)], [1, 0, 1, report(2e-16, False)],
         [0, 1, 2, "EvalDomainError: log of non-positive value"]]
    numbers, other = tool.field_moves(a, b)
    assert numbers == {"checks[flow:rigidity].value": (2e-16, 2)}
    assert other == {"exit code": 1, "all_passed": 1, "error message": 1}
    assert tool.field_moves(a, a) == ({}, {})
