#!/usr/bin/env python3
"""Run a command and gate its own peak resident set size.

    python3 .github/peak_rss.py LABEL CEILING_MIB [--stdout FILE] -- COMMAND...

The peak is the command's VmHWM, read from /proc/<pid>/status every
millisecond until it exits. getrusage(RUSAGE_CHILDREN).ru_maxrss does
not measure the command: at exec, Linux seeds it with the launching
process's own high-water mark, so anything launched from python3 reads
at least the interpreter's ~14 MiB. Samples taken before the exec (while
the child still runs python3) are skipped by process name.

Prints the peak and exits 1 when it exceeds the ceiling, when no sample
was taken, or when the command fails.
"""

import argparse
import os
import subprocess
import sys
import time


def vm_hwm_kib(pid, name):
    """The process's VmHWM in KiB, or None before its exec or after it exits."""
    try:
        with open(f"/proc/{pid}/status") as status:
            fields = dict(line.split(":", 1) for line in status)
    except (OSError, ValueError):
        return None
    if fields.get("Name", "").strip() != name or "VmHWM" not in fields:
        return None
    return int(fields["VmHWM"].split()[0])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("ceiling_mib", type=float)
    parser.add_argument("--stdout", help="file for the command's stdout (default: discarded)")
    parser.add_argument("command", nargs="+")
    args = parser.parse_args()

    # The kernel keeps the first 15 bytes of the executable's name.
    name = os.path.basename(args.command[0])[:15]
    out = open(args.stdout, "w") if args.stdout else subprocess.DEVNULL
    proc = subprocess.Popen(args.command, stdout=out)
    peak_kib = None
    while proc.poll() is None:
        sample = vm_hwm_kib(proc.pid, name)
        if sample is not None:
            peak_kib = max(peak_kib or 0, sample)
        time.sleep(0.001)
    if args.stdout:
        out.close()
    if proc.returncode != 0:
        sys.exit(f"{args.label}: command exited {proc.returncode}")
    if peak_kib is None:
        sys.exit(f"{args.label}: no VmHWM sample before the command exited")
    peak = peak_kib / 1024
    print(f"{args.label} peak RSS {peak:.2f} MiB (ceiling {args.ceiling_mib:g} MiB)")
    if peak > args.ceiling_mib:
        sys.exit(f"{args.label}: peak RSS {peak:.2f} MiB exceeds the {args.ceiling_mib:g} MiB ceiling")


if __name__ == "__main__":
    main()
