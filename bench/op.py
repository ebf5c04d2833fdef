"""Run one adreg operation in this fresh process and report on it.

    python3 -I bench/op.py REPORT MODE [ADREG_ARGS...]

MODE is ``plain`` (time the operation; a one-shot hook notes the first RK4
step), ``trace`` (wrap every layer with ``tracer.py``) or ``warm`` (import
adreg and report the environment only). adreg's own output goes to stdout,
exactly as ``adreg ADREG_ARGS`` would print it; this script writes its
measurements as JSON to REPORT and exits with the CLI's exit code.

Nothing that loads numpy is imported before adreg, so a thread policy that
adreg sets at import time is the one measured.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def blas_libraries():
    """Name, version and thread count of each BLAS library this process has
    loaded, read through the library's own C API."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "blas" in line.rsplit("/", 1)[-1].lower()
                        and line.rsplit("/", 1)[-1].startswith("lib")})
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"file": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    info["config"] = get_config().decode()
                    info["threads"] = get_threads()
                    break
            if "threads" in info:
                break
        libs.append(info)
    return libs


def environment():
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_libraries(),
    }


def clock_jump_times(config):
    """Jump instants the config's clock must produce, replayed from the
    clock's definition: periodic gaps, or gaps drawn uniformly from
    [t_low, t_high] by numpy's default_rng(seed)."""
    import numpy as np

    clock, horizon = config["clock"], config["sim"]["horizon"]
    rng = np.random.default_rng(clock.get("seed", 0))
    times, t = [], 0.0
    while True:
        if clock.get("strategy", "periodic") == "periodic":
            t = t + clock.get("period", clock["t_low"])
        else:
            t = t + rng.uniform(clock["t_low"], clock["t_high"])
        if t > horizon:
            return times
        times.append(t)


def main():
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path[:0] = [SRC, HERE]
    t0 = time.perf_counter()
    import adreg.cli
    import_s = time.perf_counter() - t0

    report = {"import_s": import_s, "adreg_file": adreg.__file__}
    code = 0
    if mode == "plain":
        import adreg.hybrid as hybrid

        rk4_step = hybrid.rk4_step

        def first_step(*args, **kw):
            report["first_step_monotonic"] = time.monotonic()
            hybrid.rk4_step = rk4_step
            return rk4_step(*args, **kw)

        hybrid.rk4_step = first_step
        t0 = time.perf_counter()
        code = adreg.cli.main(argv)
        report["wall_s"] = time.perf_counter() - t0
    elif mode == "trace":
        import tracer

        tr = tracer.Tracer()
        tr.notes["import_s"] = import_s
        tracer.install(tr, adreg)
        t0 = time.perf_counter()
        code = tr.span("cli.main", adreg.cli.main)(argv)
        report["wall_s"] = time.perf_counter() - t0
        tr.close()
        report["trace"] = tr.dump()
    elif mode != "warm":
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["env"] = environment()
    if argv:
        with open(argv[1]) as fh:
            report["expected_jump_times"] = clock_jump_times(json.load(fh))
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
