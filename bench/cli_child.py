"""Run one `rowcover` command with phase timers, for the traced cli workload.

Usage: python3 bench/cli_child.py <rowcover arguments...>

Behaves as `python3 -m rowcover.cli <arguments>`: stdout is the command's
own output, unchanged.  The timers are wrapped around the CLI module's
subcommand handlers (`_cmd_*`) and emitters (`_emit_*`), and reported as
one JSON line appended to stderr: `started` (perf_counter when this file
began executing), `import_s`, `handler_s` and `emit_s`.  Emit time
includes flushing stdout.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    before_import = time.perf_counter()
    from rowcover import cli

    spent = {"import_s": time.perf_counter() - before_import, "handler_s": 0.0, "emit_s": 0.0}

    def timed(key, function, flush=False):
        def wrapper(*args, **kwargs):
            begin = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                if flush:
                    sys.stdout.flush()
                return result
            finally:
                spent[key] += time.perf_counter() - begin
        return wrapper

    for name in dir(cli):
        if name.startswith("_cmd_"):
            setattr(cli, name, timed("handler_s", getattr(cli, name)))
        elif name.startswith("_emit_"):
            setattr(cli, name, timed("emit_s", getattr(cli, name), flush=True))

    code = cli.run(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(dict(spent, started=STARTED)) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
