"""One benchmark operation: a `hopfmonad` CLI call in a fresh interpreter.

    python worker.py SIDECAR [--setup-only] [--spans FILE] -- CLI-ARGS...

Runs `hopfmonad.cli.main(CLI-ARGS)` exactly as the console script would, so
stdout carries the report and the exit code is the CLI's.  Timestamps are
taken around the CLI's own calls (`_read_presentation`, `load`,
`verify_model`, `Report.dumps`) by wrapping them from here, and written with
resource usage to the SIDECAR JSON file.  With --setup-only the call stops
after the presentation is loaded.  With --spans the layer functions are
traced (see tracing.py) and the spans are written to FILE.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _timed(fn, marks: dict, key: str):
    def wrapper(*args, **kwargs):
        marks[key + "_start"] = time.monotonic()
        marks[key + "_cpu_start"] = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            marks[key + "_end"] = time.monotonic()
            marks[key + "_cpu_end"] = time.process_time()
    return wrapper


def _environment() -> dict:
    import numpy as np

    from hopfmonad.exactla import kernel_backend
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS") if k in os.environ},
        "process_threads": len(os.listdir("/proc/self/task")),
        "kernel_backend": kernel_backend(),
    }


def main(argv: list[str]) -> int:
    sidecar = argv[0]
    sep = argv.index("--")
    opts, cli_args = argv[1:sep], argv[sep + 1:]
    spans = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    from hopfmonad import cli
    from hopfmonad.report import Report
    marks = {"t_start": T_START, "t_imported": time.monotonic()}

    rec = None
    if spans:
        import tracing  # beside this script, so on sys.path
        rec = tracing.Recorder()
        tracing.install(rec)

    cli._read_presentation = _timed(cli._read_presentation, marks, "build")
    cli.load = _timed(cli.load, marks, "load")
    cli.verify_model = _timed(cli.verify_model, marks, "verify")
    Report.dumps = _timed(Report.dumps, marks, "dumps")

    code, error = 0, None
    try:
        if "--setup-only" in opts:
            cli._load_model(cli_args[1])
        else:
            code = cli.main(cli_args)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    except Exception as e:  # the CLI lets it escape: report it as Python would
        traceback.print_exc()
        code, error = 1, f"{type(e).__name__}: {e}"
    sys.stdout.flush()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {"marks": marks, "exit": code, "error": error,
           "maxrss_kb": usage.ru_maxrss, "env": _environment()}
    if rec is not None:
        rec.dump(spans)
        out["trace"] = rec.summary()
        out["cache"] = tracing.cache_info(since=rec.cache_at_run)
    with open(sidecar, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
