"""One benchmark pass, run in a fresh interpreter by run.py.

Usage: child.py RESULT_JSON LAUNCH_MONOTONIC TRACE CONFIG_PATH -- CLI_ARGS...

Set-up ends once ``dirac_cyclotron.cli`` is imported and the workload config
is parsed; the pass then times ``cli.main(CLI_ARGS)`` and writes its timings,
resource usage and (when TRACE is 1) the recorded spans to RESULT_JSON.
With no CLI_ARGS the child only sets up and records the set-up time.
"""

import json
import resource
import sys
import time


def peak_rss_kib() -> int:
    """This process's peak resident set size (VmHWM).

    ``ru_maxrss`` would do, except that Linux carries it across fork and
    exec, so it reports the parent's size whenever that is the larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    result_path, launched, trace, config_path = sys.argv[1:5]
    cli_args = sys.argv[6:]

    from dirac_cyclotron import cli

    if config_path != "-":
        with open(config_path) as fh:
            cli.parse_config(fh.read())
    setup_s = time.monotonic() - float(launched)
    if not cli_args:
        with open(result_path, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    exit_code = cli.main(cli_args)
    wall = time.perf_counter() - start

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit_code": exit_code,
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,  # all threads
        "peak_rss_mb": peak_rss_kib() / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
