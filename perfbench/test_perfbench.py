"""Tests of the benchmark itself, through its short mode.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT,
              smoke: bool = True) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_short_mode_reports_every_metric(workload: str, trace: int) -> None:
    completed = run_bench(workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in listed] == list(result["metrics"])
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        if not trace:
            assert reported["value"] > 0, metric["name"]
    health = json.loads(next(line for line in lines
                             if line.startswith("## health "))[10:])
    assert health["clean"], health
    assert not health["wrong"] and not health["errors"]


def test_command_matches_spec() -> None:
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = run_bench("xmark_read", 0, cwd=tmp_path, smoke=False)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def _session_members(sid: int) -> list[int]:
    """Pids whose session id is ``sid`` (from ``/proc/<pid>/stat``)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid:  # state ppid pgrp session ...
            members.append(int(entry.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to list processes")
def test_leaves_no_process_behind() -> None:
    # The process tier starts pool workers and the shared-memory
    # resource tracker; none may outlive the run, not even as a zombie.
    process = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "xmark_batch",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    stdout, stderr = process.communicate(timeout=600)
    assert process.returncode == 0, stderr
    assert json.loads(stdout.strip().splitlines()[-1])["correct"] is True
    assert _session_members(process.pid) == []
