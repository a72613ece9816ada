"""Starting, timing and stopping the program's processes.

Short-lived commands (`gen`, `allocate`) are reaped with
`os.wait4`, whose rusage gives their peak resident set. A child's
`ru_maxrss` also counts the resident set of the process that forked it,
which for this client grows past 140 MiB once the oracle is loaded, so
the commands are forked by a small launcher process started before
anything is loaded. Servers run until their stdin closes;
their peak is `VmHWM` from `/proc/<pid>/status`, which counts only their
own memory, read just before they are told to stop.
"""

import json
import os
import subprocess
import sys
import time


class ProgramError(Exception):
    pass


class Command:
    """One finished short-lived command."""

    def __init__(self, args, seconds, peak_kib, stdout):
        self.args, self.seconds, self.peak_kib, self.stdout = args, seconds, peak_kib, stdout


# Reads [args, log] lines; runs each command to its end and answers
# [exit code, wall seconds, ru_maxrss in KiB].
_LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    args, log = json.loads(line)
    t0 = time.perf_counter()
    with open(log, "w") as out:
        p = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=out,
                             stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(p.pid, 0)
    seconds = time.perf_counter() - t0
    print(json.dumps([os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss]), flush=True)
"""
_launcher = None


def start_launcher():
    global _launcher
    _launcher = subprocess.Popen([sys.executable, "-c", _LAUNCHER], stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, text=True)


def stop_launcher():
    """Close the launcher's stdin and wait; it ends after its current command."""
    global _launcher
    if _launcher is not None:
        _launcher.stdin.close()
        _launcher.wait()
        _launcher.stdout.close()
        _launcher = None


def run(args, log):
    """Run a command to its end through the launcher; raise ProgramError
    unless it exits 0."""
    _launcher.stdin.write(json.dumps([args, log]) + "\n")
    _launcher.stdin.flush()
    reply = _launcher.stdout.readline()
    if not reply:
        raise ProgramError("the command launcher exited")
    code, seconds, peak_kib = json.loads(reply)
    with open(log) as out:
        text = out.read()
    if code != 0:
        raise ProgramError(f"{' '.join(args)} exited {code}:\n{text[-2000:]}")
    return Command(args, seconds, peak_kib, text)


class Server:
    """A `serve` process, ready once it prints its address."""

    def __init__(self, args, log):
        self.args = args
        self.log = open(log, "w")
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log)
        self.addr = None
        self.peak_kib = 0

    def wait_ready(self):
        line = self.proc.stdout.readline().decode().strip()
        if not line:
            self.proc.wait()
            raise ProgramError(f"{' '.join(self.args)} exited {self.proc.returncode} "
                               f"before printing its address")
        self.addr = line
        return line

    def peak(self):
        """VmHWM in KiB (0 once the process has gone)."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        self.peak_kib = max(self.peak_kib, int(line.split()[1]))
        except OSError:
            pass
        return self.peak_kib

    def stop(self, timeout=60):
        """Close stdin (graceful shutdown) and wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.peak()
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise ProgramError(f"{' '.join(self.args)} did not stop within {timeout}s")
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


def start_all(specs):
    """Start every (args, log) at once and wait until all are ready."""
    servers = [Server(args, log) for args, log in specs]
    try:
        for s in servers:
            s.wait_ready()
    except Exception:
        stop_all(servers)
        raise
    return servers


def stop_all(servers):
    for s in servers:
        try:
            s.stop()
        except ProgramError:
            pass
