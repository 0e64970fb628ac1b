"""Child-process entry point for one benchmarked CLI invocation.

    python child.py STATS_FILE MODE OUT_FILE -- CLI_ARGS...

The process imports `wctree.cli`, notes the monotonic clock (the same clock
the parent reads before launching, so the difference is set-up time), and
then runs `wctree.cli.main(CLI_ARGS)` exactly as the `wctree` console script
would.  MODE selects what else happens:

* ``setup``   - no command at all (CLI_ARGS is empty): the process only
                reports its ready time, so that a run samples set-up time
                more often than it runs commands;
* ``plain``   - nothing else; this is the measured end-to-end run;
* ``trace``   - spans are recorded around the public functions of each layer
                (see spans.py) and written to OUT_FILE after the command;
* ``profile`` - cProfile counts calls into ``fractions.py``; the count goes
                to OUT_FILE and no time from this pass is reported.

After the command, STATS_FILE receives the ready time and the peak resident
set of this process.  The peak is read from VmHWM, which belongs to the
process image started by exec; the rusage of a child would also include the
launching parent's peak, which the kernel carries across exec.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    stats_path, mode, out_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py STATS_FILE MODE OUT_FILE -- CLI_ARGS...")
    from wctree import cli

    ready = time.monotonic()
    if mode == "setup":
        code = 0
    elif mode == "plain":
        code = cli.main(cli_args)
    elif mode == "trace":
        import spans

        recorder = spans.install()
        code = recorder.run(cli.main, cli_args)
        recorder.dump(out_path)
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        code = profiler.runcall(cli.main, cli_args)
        profiler.create_stats()
        calls = sum(stat[1] for key, stat in profiler.stats.items()
                    if key[0].endswith("fractions.py"))
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"fraction.calls": calls}, fh)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "peak_rss_kb": peak_rss_kb()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
