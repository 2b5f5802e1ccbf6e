#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout.  The benchmark binary is built from
the checkout's sources into .bench_build/ (CMake, Release).  Each run gets
a private scratch directory under .bench_build/ for the native object
cache and the toolchain's temporary files, removed at exit, so no cache
outside the checkout is read or written.  The last line of standard output
is the benchmark's JSON result; build output goes to standard error.  The
exit code is the benchmark's: non-zero when the build fails or any
operation fails verification.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def cache_value(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def build():
    """Configures (once per checkout location) and builds the binary."""
    home = cache_value("CMAKE_HOME_DIRECTORY")
    if home is not None and Path(home).resolve() != BENCH_DIR:
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if cache_value("CMAKE_HOME_DIRECTORY") is None:
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return None
    if subprocess.call(["cmake", "--build", str(BUILD_DIR), "--target",
                        "perfbench", "-j", BUILD_JOBS],
                       stdout=sys.stderr) != 0:
        return None
    return BUILD_DIR / "perfbench"


def compiler_version():
    cxx = cache_value("CMAKE_CXX_COMPILER") or "c++"
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=30).stdout
        return out.splitlines()[0] if out else cxx
    except (OSError, subprocess.SubprocessError):
        return cxx


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "tools/samples"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny problem sizes (smoke test)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb one reference store (smoke test)")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no library sources under {ROOT / 'src'}")
        return 2
    binary = build()
    if binary is None:
        log("build failed")
        return 2

    scratch = BUILD_DIR / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    for var in ("SPMD_NATIVE_DISABLE", "SPMD_CXX", "XDG_CACHE_HOME"):
        env.pop(var, None)
    env["SPMD_NATIVE_CACHE_DIR"] = str(scratch / "cache")
    env["TMPDIR"] = str(scratch / "tmp")

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch),
           "--compiler", compiler_version(), "--commit", source_revision()]
    if args.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--chrome-trace",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")

    proc = None
    # Terminating this script must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.stdout.flush()
        proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT))
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
