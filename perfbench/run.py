#!/usr/bin/env python3
"""Per-step benchmark of the igrflow solver (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which builds the library from the repository root) into
.bench_build/, then runs solves of one workload, each in a fresh
igr_stepbench process with a fixed thread budget and a fresh scratch
directory, until S seconds are spent.  Every solve's state and dt
fingerprints are checked against the pinned ones.  The last line of stdout
is one JSON result: the end-to-end metrics with --trace 0; with --trace 1
every other solve is traced and the result holds the per-layer metrics.  A
provenance line (host, ISA, compiler, flags, source revision, workload
configuration, raw samples) precedes it.

    python3 perfbench/run.py --workload NAME --seed N --pin

prints the fingerprints of one solve instead (to pin a new input variant).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "runs"
TRACES_DIR = ROOT / ".bench_build" / "traces"
BINARY = BUILD_DIR / "igr_stepbench"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# One solve takes a few seconds; a stuck one counts as failed.
SOLVE_TIMEOUT_S = 60

# Each workload keeps at most 2 compute threads (ranks x threads) on the
# host's cores, so the numbers measure the solver, not the scheduler.  Why
# each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    "jet-fp64-t2": {"n": 96, "precision": "fp64", "ranks": 1, "threads": 2,
                    "ckpt_every": 0},
    # FP16/32 jet-single diverges at n >= 64 (NaN state after step 2 at
    # n = 64, after step 1 at n >= 80), so this workload runs at n = 48.
    "jet-fp16-t1": {"n": 48, "precision": "fp16x32", "ranks": 1,
                    "threads": 1, "ckpt_every": 0},
    "jet-tcp2-ckpt": {"n": 96, "precision": "fp64", "ranks": 2, "threads": 1,
                      "ckpt_every": 5},
}

# The seed picks one of these initial-condition perturbation amplitudes
# (variant = seed mod 4); the registered jet-single uses variant 0.  The
# per-step cost does not depend on the amplitude, the fingerprints do.
NOISE = [0.005, 0.00625, 0.0075, 0.00875]

# (state_fnv, dt_fnv) of one solve (2 warm-up + 8 timed steps), per workload
# and variant.  Red-black sweeps are not decomposition-exact, so the 2-rank
# state differs from the single-domain one while the dt trajectory matches.
PINS = {
    "jet-fp64-t2": [
        ("0x59913124b0e32e9b", "0xb153870580d17e3d"),
        ("0x6a3b5004f3b6d67e", "0xf2eb5ea7f1dcaf63"),
        ("0xfdb6634e8b444eb1", "0x9d6a8a2fbb1a1381"),
        ("0xfd6a647230c0f805", "0xdbbde789fa56077e"),
    ],
    "jet-fp16-t1": [
        ("0xb8aa37a2d77ddd49", "0xbb0fd867b8648797"),
        ("0x6a02013d34dc4a61", "0x83b2890d2da12d10"),
        ("0xc6e2a9b749403444", "0x179eaf7796fd30dd"),
        ("0x9a5d0fbd770ac20a", "0xdbde4b35309498ac"),
    ],
    "jet-tcp2-ckpt": [
        ("0x0c890e7ed7f8e87f", "0xb153870580d17e3d"),
        ("0xe952e8446fa36ebf", "0xf2eb5ea7f1dcaf63"),
        ("0x0c0fafe1f42016c0", "0x9d6a8a2fbb1a1381"),
        ("0xbd88cde9d897fa37", "0xdbbde789fa56077e"),
    ],
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no igrflow source tree at {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    with open(log, "w") as out:
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "igr_stepbench", "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
            if proc.returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")


def cpu_info():
    model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, val = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = val.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(val.split())
    except OSError:
        pass
    isa = ("f16c", "avx512_bf16", "avx512_fp16")
    return model, {f: f in flags for f in isa}


def source_revision():
    """The git revision when there is one, and always a digest of the
    sources the binary is built from (checkouts need not be repositories)."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git = None
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*")) + \
        sorted(BENCH_DIR.glob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return git, h.hexdigest()[:16]


def solve(name, wl, variant, run_dir, trace_file, pin):
    """One solve in a fresh igr_stepbench process: its raw result, or a
    record holding only the reason it failed."""
    threads = wl["threads"]
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OMP_DYNAMIC="false")
    cmd = [str(BINARY), "--precision", wl["precision"], "--n", str(wl["n"]),
           "--ranks", str(wl["ranks"]), "--threads", str(threads),
           "--ckpt-every", str(wl["ckpt_every"]),
           "--noise", repr(NOISE[variant]), "--dir", str(run_dir)]
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    if not pin:
        state_fnv, dt_fnv = PINS[name][variant]
        cmd += ["--expect-state", state_fnv, "--expect-dt", dt_fnv]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=SOLVE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failure": f"solve did not finish within {SOLVE_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode == 2:
        fail("igr_stepbench refused the workload")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failure": f"igr_stepbench exited {proc.returncode}"}
    return json.loads(lines[-1])


def run_solves(name, wl, seed, seconds, trace):
    """Solves until the budget is spent; a new one starts only if it is
    expected to end within it.  With trace, every other solve is traced, so
    traced and untraced solves meet the same host conditions.  Returns
    (traced, raw) pairs."""
    variant = seed % len(NOISE)
    tag = f"{name}-s{seed}-{os.getpid()}-{time.time_ns()}"
    trace_dir = TRACES_DIR / f"{name}-s{seed}"
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    solves, last = [], {}
    t0 = time.monotonic()
    while True:
        k = len(solves)
        traced = bool(trace) and k % 2 == 1
        if k >= (2 if trace else 1) and \
                time.monotonic() - t0 + last.get(traced, 0.0) > seconds:
            break
        ts = time.monotonic()
        raw = solve(name, wl, variant, RUNS_DIR / f"{tag}-{k}",
                    trace_dir / f"solve{k}.json" if traced else None, False)
        last[traced] = time.monotonic() - ts
        if raw["failure"]:
            print(f"perfbench: solve {k} failed: {raw['failure']}",
                  file=sys.stderr)
        solves.append((traced, raw))
    return solves, (trace_dir if trace else None)


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(good):
    steps = [t for r in good for t in r["step_s"]]
    return {
        "grind_ns": median(steps) * 1e9 / good[0]["cells"],
        "wall_s": median([r["wall_s"] for r in good]),
        "setup_s": median([r["setup_s"] for r in good]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
    }


def per_layer(traced, plain, ranks):
    """Per-layer metrics of the traced solves; ns figures are per global
    cell per timed step, sim figures per rank per timed step."""
    def cat(key):
        return [v for r in traced for v in r["traced"][key]]

    def total(key):
        return sum(r["traced"][key] for r in traced)

    steps = [t for r in traced for t in r["step_s"]]
    plain_steps = [t for r in plain for t in r["step_s"]]
    n = len(steps)
    per_cell_step = 1e9 / (traced[0]["cells"] * n)
    phases = [sum(r["traced"]["phase_s"][p] for r in traced)
              for p in range(5)]
    rank_steps = n * ranks
    write, read = median(cat("ckpt_write_s")), median(cat("ckpt_read_s"))
    ckpt_mb = max(r["traced"]["ckpt_bytes"] for r in traced) * 1e-6
    m = {
        "cases.step_ms_p50": median(steps) * 1e3,
        "cases.step_ms_p90":
            statistics.quantiles(steps, n=10, method="inclusive")[8] * 1e3,
        "cases.steps_timed": n,
        "trace.overhead_pct":
            (median(steps) / median(plain_steps) - 1.0) * 100.0,
        "app.init_ms": median([r["traced"]["app_init_s"] for r in traced])
        * 1e3,
        "app.health_ms": median(cat("health_s")) * 1e3,
    }
    for key, p in zip(("core.bc_ns", "core.sigma_source_ns",
                       "core.sigma_sweeps_ns", "core.flux_ns",
                       "core.rk_dt_ns"), phases):
        m[key] = p * per_cell_step
    m.update({
        "core.unattributed_ns": (sum(steps) - sum(phases)) * per_cell_step,
        "core.sigma_sweeps_per_step": total("sigma_sweeps") / n,
        "common.exec_barrier_us":
            median([r["traced"]["exec_barrier_us"] for r in traced]),
        "common.half_widen_gbps": median(cat("half_widen_gbps")),
        "common.half_narrow_gbps": median(cat("half_narrow_gbps")),
        "sim.halo_wait_ms": total("halo_wait_s") * 1e3 / rank_steps,
        "sim.halo_epochs_per_step": total("halo_epochs") / rank_steps,
        "sim.wire_mb_per_step": total("wire_bytes") * 1e-6 / rank_steps,
        "sim.frames_per_step": total("frames") / rank_steps,
        "sim.tcp_mb_per_step": total("tcp_bytes") * 1e-6 / rank_steps,
        "sim.allreduce_us": median(cat("allreduce_s")) * 1e6,
        "io.ckpt_write_ms": write * 1e3,
        "io.ckpt_read_ms": read * 1e3,
        "io.ckpt_mb": ckpt_mb,
        "io.ckpt_write_mbps": ckpt_mb / write if write else 0.0,
        "io.ckpt_read_mbps": ckpt_mb / read if read else 0.0,
    })
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="print one solve's fingerprints and exit")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    if set(why) != set(WORKLOADS):
        fail("BENCHMARK.json and run.py list different workloads")
    wl = WORKLOADS[args.workload]

    build()
    if args.pin:
        variant = args.seed % len(NOISE)
        RUNS_DIR.mkdir(parents=True, exist_ok=True)
        raw = solve(args.workload, wl, variant,
                    RUNS_DIR / f"pin-{os.getpid()}-{time.time_ns()}", None,
                    True)
        if raw["failure"]:
            fail(f"refusing to pin a failed solve: {raw['failure']}")
        print(json.dumps({"workload": args.workload, "variant": variant,
                          "state_fnv": raw["state_fnv"],
                          "dt_fnv": raw["dt_fnv"]}))
        return

    solves, trace_dir = run_solves(args.workload, wl, args.seed,
                                   args.seconds, args.trace)
    failures = [raw["failure"] for _, raw in solves if raw["failure"]]
    plain = [raw for traced, raw in solves if not traced and
             not raw["failure"]]
    traced = [raw for is_traced, raw in solves if is_traced and
              not raw["failure"]]
    if not plain or (args.trace and not traced):
        fail(f"no solve passed the output check: {failures}")

    if args.trace:
        self_ms = {}
        for r in traced:
            for span, ms in r["traced"]["self_ms"].items():
                self_ms[span] = self_ms.get(span, 0.0) + ms
        print(json.dumps({"self_ms": self_ms}))
    model, isa = cpu_info()
    git, digest = source_revision()
    first = plain[0]
    print(json.dumps({"provenance": {
        "cpu": model, "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "isa": isa, "build": first["build"], "git_revision": git,
        "source_digest": digest,
        "workload": {"name": args.workload, "why": why[args.workload], "case":
                     "jet-single", "n": wl["n"], "precision": wl["precision"],
                     "ranks": wl["ranks"], "threads": wl["threads"],
                     "ckpt_every": wl["ckpt_every"], "seed": args.seed,
                     "variant": args.seed % len(NOISE),
                     "noise": NOISE[args.seed % len(NOISE)],
                     "warmup_steps": first["warmup_steps"],
                     "timed_steps_per_solve": first["timed_steps"]},
        "solves": len(solves), "traced_solves": len(traced),
        "failures": failures,
        "samples": {"step_ms": [t * 1e3 for r in plain for t in r["step_s"]],
                    "setup_s": [r["setup_s"] for r in plain],
                    "wall_s": [r["wall_s"] for r in plain],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in plain]},
        "trace_dir": str(trace_dir.relative_to(ROOT)) if trace_dir else None,
    }}))

    measured = per_layer(traced, plain, wl["ranks"]) if args.trace \
        else end_to_end(plain)
    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": len(solves),
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
