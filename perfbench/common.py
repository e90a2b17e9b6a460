"""Inputs and settings shared by run.py and its child processes."""
from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Acceptance scale of tests/test_acceptance.py::_run_pipeline.
SYNTH = {
    "n_users": 200,
    "n_reports": 60,
    "sessions_per_user": 20,
    "intent_count": 3,
    "context_signal_strength": 0.8,
}
FIT_SETTINGS = {"process_noise": 1.0, "rank_epochs": 200}
# The serve and cli workloads only read the fitted model, whose serving cost
# does not depend on how long the rank weights were trained; fewer epochs
# keep their per-run model fit short.
SERVING_MODEL_SETTINGS = {"process_noise": 1.0, "rank_epochs": 10}


def _known(cls, wanted: dict) -> dict:
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in wanted.items() if k in names}


def pipeline_config(seed: int, settings: dict):
    """A PipelineConfig from the settings it still defines; others are dropped."""
    from intentrec.pipeline import PipelineConfig

    return PipelineConfig(**_known(PipelineConfig, {**settings, "seed": seed}))


def synth_config(seed: int):
    from intentrec.synth import SynthConfig

    return SynthConfig(**_known(SynthConfig, {**SYNTH, "seed": seed}))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest48(hex_digest: str) -> int:
    """The first 48 bits of a digest, exact as a JSON number."""
    return int(hex_digest[:12], 16)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], stdout: Path, stderr: Path, timeout: float, append_stderr=False) -> int:
    """Run a command to completion, killing it after `timeout` seconds;
    returns its exit code."""
    with stdout.open("wb") as out, stderr.open("ab" if append_stderr else "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
    # A blocking wait, not wait(timeout=...): that one polls with sleeps of
    # up to 50 ms, which would round every timed call up to a 50 ms step.
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


def peak_rss_mb() -> float:
    """This process's own peak resident set size (VmHWM). getrusage's
    ru_maxrss is not used: exec() carries the spawning process's peak into
    it, so a child started from a large process reads that process's peak."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0


# `python -c CLI_LAUNCHER PATH ARGS...` runs `python -m intentrec.cli ARGS`
# and, at exit, writes the process's own peak RSS in MB to PATH.
CLI_LAUNCHER = """\
import atexit, runpy, sys
def _peak(path=sys.argv[1]):
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(str(kb / 1024.0))
atexit.register(_peak)
sys.argv = ["intentrec.cli", *sys.argv[2:]]
runpy.run_module("intentrec.cli", run_name="__main__", alter_sys=True)
"""


def fit_serving_model(workdir: Path, seed: int, log_path: Path):
    """Fit the model the serve and cli workloads read, in a child process so
    that the fit's memory does not count towards theirs."""
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "fit", str(workdir), str(seed)]
    code = run_child(cmd, log_path.with_suffix(".out"), log_path, timeout=170)
    if code != 0:
        raise RuntimeError(f"serving model fit failed with exit code {code}; see {log_path}")
