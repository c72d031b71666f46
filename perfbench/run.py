#!/usr/bin/env python3
"""modemerge benchmark: one named workload, timed end to end through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
libraries, the modemerge CLI and perfbench_tool into .bench_build/ (or
$CARGO_TARGET_DIR); later runs only check the build is current. Inputs and
outputs live in .bench_work/<workload>-s<seed>-<pid>/, removed after a clean
run and kept (path printed) after a failure.

--trace 0: closed loop, one client. Each operation is one modemerge child
process; the next starts when the previous has exited, until S seconds have
passed. Wall time and peak RSS come from wait4; the first operation is a
warm-up and is not timed. Prints the end-to-end metrics.

--trace 1: one CLI operation (its rusage and merged decks are the
reference), then traced replays (perfbench_tool trace) in a closed loop for
S seconds. Prints the per-layer metrics, medians over the replays.

Both modes check the outputs (see README.md) and end with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A failed check prints "FAIL workload=... check=...: <first differing item>"
lines just before it.
"""

import time

T0 = time.monotonic()

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NPROC = len(os.sched_getaffinity(0))
# --threads for every child. Two, not nproc: with a thread per core of a
# shared 4-vCPU host, every neighbour's burst stalls some worker, and the
# operation-to-operation spread of family_cold doubled (0.19-0.27 vs
# 0.10-0.13 of the median, 12 interleaved operations each).
THREADS = min(2, NPROC)
JOBS = min(4, NPROC)  # the build and the untimed oracle
OP_TIMEOUT_S = 60.0   # a child still running after this counts as hung
REF_TIMEOUT_S = 60.0  # reference runs made by the checks

WORKLOADS = ("family_cold", "mcmm_matrix", "edit_loop")

# Per-layer metric -> span name whose self time it sums (perfbench_tool trace).
SPAN_METRICS = {
    "netlist.read_s": "netlist/read_verilog",
    "sdc.parse_s": "sdc/parse",
    "sdc.write_s": "sdc/write",
    "timing.graph_s": "timing/graph",
    "timing.mode_graph_s": "timing/mode_graph",
    "timing.sta_individual_s": "timing/sta_individual",
    "timing.sta_merged_s": "timing/sta_merged",
    "merge.extract_s": "merge/extract",
    "merge.pair_check_s": "merge/pair_check",
    "merge.cover_s": "merge/cover",
    "merge.preliminary_s": "merge/preliminary",
    "merge.clock_refine_s": "merge/clock_refine",
    "merge.data_refine_s": "merge/data_refine",
    "merge.validate_s": "merge/validate",
    "merge.qor_s": "merge/qor",
}

# Metric names and units, as BENCHMARK.json declares them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class CheckFailed(Exception):
    def __init__(self, check, detail):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


# --------------------------------------------------------------- build ----

def build():
    """Configure (once) and build modemerge + perfbench_tool; returns
    (build_dir, seconds spent)."""
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                 "tools/modemerge_main.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log(f"perfbench: {need} missing under {ROOT}: not a full checkout")
            sys.exit(2)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            log(f"perfbench: '{tool}' not found on PATH")
            sys.exit(2)
    t = time.monotonic()
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(bdir, exist_ok=True)
    build_log = os.path.join(bdir, "perfbench_build.log")
    with open(build_log, "ab") as out:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", *gen, "-S", BENCH_DIR, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                fail_build(build_log, "configure")
        cmd = ["cmake", "--build", bdir, "--target", "modemerge", "perfbench_tool",
               "-j", str(JOBS)]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
            fail_build(build_log, "build")
    return bdir, time.monotonic() - t


def fail_build(build_log, step):
    with open(build_log, errors="replace") as f:
        tail = f.read().splitlines()[-15:]
    for line in tail:
        log(line)
    log(f"perfbench: {step} failed (log: {build_log})")
    sys.exit(2)


# ------------------------------------------------------------ children ----

class Op:
    """One finished child process."""

    def __init__(self, wall, rusage, status, hung, out_path, err_path):
        self.wall = wall
        self.rusage = rusage
        self.status = status
        self.hung = hung
        self.out_path = out_path
        self.err_path = err_path

    @property
    def ok(self):
        return not self.hung and os.WIFEXITED(self.status) and \
            os.WEXITSTATUS(self.status) == 0

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux

    def stdout(self):
        with open(self.out_path, errors="replace") as f:
            return f.read()

    def describe(self):
        if self.hung:
            how = f"hung, killed after {OP_TIMEOUT_S:.0f} s"
        elif os.WIFSIGNALED(self.status):
            sig = os.WTERMSIG(self.status)
            how = f"killed by signal {sig} ({signal.Signals(sig).name})"
        else:
            how = f"exit code {os.WEXITSTATUS(self.status)}"
        last = ""
        with open(self.err_path, errors="replace") as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if lines:
            last = lines[-1]
        return f"{how}; last stderr line: {last or '(none)'}"


def run_child(args, log_base, timeout):
    """Run one child to completion; wall clock and rusage via wait4."""
    done = threading.Event()
    hung = []
    with open(log_base + ".out", "wb") as fo, open(log_base + ".err", "wb") as fe:
        t = time.monotonic()
        p = subprocess.Popen(args, stdout=fo, stderr=fe, cwd=ROOT)

        def kill():
            if not done.is_set():
                hung.append(True)
                os.kill(p.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(p.pid, 0)
        except BaseException:  # SIGTERM/SIGINT: stop the child before leaving
            done.set()
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t
        done.set()
        timer.join()
        p.returncode = os.waitstatus_to_exitcode(status)
    return Op(wall, rusage, status, bool(hung), log_base + ".out", log_base + ".err")


def digest_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.startswith("merged_") and name.endswith(".sdc"):
            h.update(name.encode())
            with open(os.path.join(path, name), "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def merged_files(path):
    return sorted(n for n in os.listdir(path)
                  if n.startswith("merged_") and n.endswith(".sdc"))


def compare_decks(check, got_dir, want_dir, rename=lambda n: n, suffix=".sdc"):
    """Byte-compare the merged decks of got_dir with those of want_dir whose
    names end in `suffix`; raise naming the first differing file."""
    names = merged_files(got_dir)
    want = {n for n in merged_files(want_dir) if n.endswith(suffix)}
    if not names:
        raise CheckFailed(check, f"no merged decks in {got_dir}")
    expected = sorted(rename(n) for n in names)
    if sorted(want) != expected:
        missing = sorted(set(expected) ^ want)
        raise CheckFailed(check, f"merged deck sets differ: {missing[:3]} "
                                 f"({len(expected)} vs {len(want)} decks)")
    for n in names:
        with open(os.path.join(got_dir, n), "rb") as a, \
                open(os.path.join(want_dir, rename(n)), "rb") as b:
            x, y = a.read(), b.read()
        if x != y:
            lx, ly = x.decode(errors="replace").splitlines(), \
                y.decode(errors="replace").splitlines()
            line = next((i for i in range(max(len(lx), len(ly)))
                         if i >= len(lx) or i >= len(ly) or lx[i] != ly[i]), 0)
            raise CheckFailed(check, f"{got_dir}/{n} differs from "
                                     f"{want_dir}/{rename(n)} at line {line + 1}: "
                                     f"{(lx[line] if line < len(lx) else '<eof>')!r} vs "
                                     f"{(ly[line] if line < len(ly) else '<eof>')!r}")


# ------------------------------------------------------------ workload ----

class Workload:
    def __init__(self, name, seed, bdir, work):
        self.name = name
        self.seed = seed
        self.work = work
        self.modemerge = os.path.join(bdir, "mm_tools", "modemerge")
        self.tool = os.path.join(bdir, "perfbench_tool")
        self.inputs = os.path.join(work, "inputs")

    def generate(self):
        r = subprocess.run([self.tool, "gen", "--workload", self.name, "--seed",
                            str(self.seed), "--out", self.inputs],
                           capture_output=True, text=True)
        if r.returncode != 0:
            raise CheckFailed("generate", (r.stderr or r.stdout).strip()[-300:])
        with open(os.path.join(self.inputs, "manifest.json")) as f:
            self.m = json.load(f)
        self.M = len(self.m["modes"])
        self.C = self.m["corners"]
        self.G = self.m["groups"]

    def deck(self, rel):
        return os.path.join(self.inputs, rel)

    def cli_args(self, out_dir):
        args = [self.modemerge, "--netlist", self.deck(self.m["netlist"]),
                "--threads", str(THREADS), "--out", out_dir]
        if self.name == "edit_loop":
            return args + ["--script", self.deck(self.m["script"])]
        for mode in self.m["modes"]:
            for d in mode["decks"]:
                args += ["--mode", self.deck(d)]
        if self.name == "family_cold":
            return args + ["--sta"]
        return args + ["--corners", str(self.C), "--qor-out",
                       os.path.join(out_dir, "qor.json")]

    # -- checks on one successful CLI operation ----------------------------

    def cliques_from_stdout(self, text):
        """Clique membership (mode indices) as the CLI reports it."""
        if self.name == "edit_loop":
            index = {m["name"]: i for i, m in enumerate(self.m["modes"])}
        else:
            index = {self.deck(m["decks"][0]): i for i, m in enumerate(self.m["modes"])}
        cliques = []
        for k, members in re.findall(r"^--- merged mode (\d+) <- \{(.*)\} ---$",
                                     text, re.M):
            if int(k) != len(cliques):
                raise CheckFailed("report", f"merged mode {k} out of order")
            try:
                cliques.append([index[x] for x in members.split(", ")])
            except KeyError as e:
                raise CheckFailed("report", f"merged mode {k}: unknown member {e}")
        return cliques

    def check_planted(self, cliques):
        planted = {}
        for i, mode in enumerate(self.m["modes"]):
            planted.setdefault(mode["group"], set()).add(i)
        if len(cliques) != self.G:
            raise CheckFailed("merged-modes", f"{len(cliques)} merged modes, "
                                              f"generator planted {self.G} groups")
        for k, c in enumerate(cliques):
            groups = sorted({self.m["modes"][i]["group"] for i in c})
            if len(groups) != 1 or set(c) != planted[groups[0]]:
                g = groups[0]
                extra = sorted(self.m["modes"][i]["name"] for i in set(c) - planted[g])
                missing = sorted(self.m["modes"][i]["name"] for i in planted[g] - set(c))
                raise CheckFailed("planted-groups",
                                  f"clique {k} spans groups {groups}; vs planted "
                                  f"group {g}: extra {extra[:3]}, missing {missing[:3]}")

    def check_counts(self, text):
        M, C, G = self.M, self.C, self.G
        if self.name == "mcmm_matrix":
            m = re.search(r"mcmm: \d+ pair-corner checks \(\d+ reused\), (\d+) skeleton "
                          r"extractions, (\d+) corner delta fills, (\d+) skeleton "
                          r"mismatches", text)
            if not m:
                raise CheckFailed("counts", "no mcmm summary line in CLI output")
            got = tuple(int(x) for x in m.groups())
            want = (M, M * (C - 1), 0)
            if got != want:
                raise CheckFailed("counts", f"(extractions, delta fills, mismatches) "
                                            f"= {got}, expected {want}")
        if self.name == "edit_loop":
            commits = re.findall(r"^commit (\d+): (\d+) modes -> (\d+) merged \((\d+) "
                                 r"reused, (\d+) re-merged\), (\d+) pairs re-checked",
                                 text, re.M)
            if len(commits) != 1 + len(self.m["edits"]):
                raise CheckFailed("counts", f"{len(commits)} commit lines, expected "
                                            f"{1 + len(self.m['edits'])}")
            for k, modes, merged, reused, remerged, pairs in commits:
                got = (int(pairs), int(remerged), int(merged))
                want = (M * (M - 1) // 2, G, G) if k == "1" else (M - 1, 1, G)
                if got != want:
                    raise CheckFailed("counts", f"commit {k}: (pairs re-checked, "
                                                f"re-merged, merged) = {got}, "
                                                f"expected {want}")

    def oracle_cliques(self, out_dir, cliques):
        entries = []
        for c in range(self.C):
            for k, members in enumerate(cliques):
                name = f"merged_{k}.sdc" if self.C == 1 else f"merged_{k}_corner{c}.sdc"
                if self.name == "edit_loop":
                    decks = [self.deck(self.m["final_decks"][i]) for i in members]
                else:
                    decks = [self.deck(self.m["modes"][i]["decks"][c]) for i in members]
                entries.append({"clique": k, "corner": c, "members": decks,
                                "merged": os.path.join(out_dir, name)})
        path = os.path.join(self.work, "cliques.json")
        with open(path, "w") as f:
            json.dump({"cliques": entries}, f)
        return path

    def run_oracle(self, out_dir, cliques):
        path = self.oracle_cliques(out_dir, cliques)
        base = [self.tool, "oracle", "--netlist", self.deck(self.m["netlist"]),
                "--cliques", path, "--threads", str(JOBS)]
        r = subprocess.run(base, capture_output=True, text=True, timeout=REF_TIMEOUT_S)
        if r.returncode != 0:
            lines = (r.stdout + r.stderr).strip().splitlines() or ["(no output)"]
            raise CheckFailed("never-optimistic", lines[0])
        log(r.stdout.strip())
        r = subprocess.run(base + ["--inject"], capture_output=True, text=True,
                           timeout=REF_TIMEOUT_S)
        if r.returncode != 0:
            lines = (r.stdout + r.stderr).strip().splitlines() or ["(no output)"]
            raise CheckFailed("oracle-self-test", lines[-1])
        log(r.stdout.strip())

    def reference_run(self, tag, decks):
        """Flat batch modemerge over `decks`; returns its output directory."""
        out = os.path.join(self.work, tag)
        args = [self.modemerge, "--netlist", self.deck(self.m["netlist"]),
                "--threads", str(THREADS), "--out", out]
        for d in decks:
            args += ["--mode", self.deck(d)]
        op = run_child(args, os.path.join(self.work, tag), REF_TIMEOUT_S)
        if not op.ok:
            raise CheckFailed(f"reference-run:{tag}", op.describe())
        return out

    def check_references(self, out_dir):
        if self.name == "mcmm_matrix":
            for c in range(self.C):
                ref = self.reference_run(
                    f"flat_corner{c}", [m["decks"][c] for m in self.m["modes"]])
                compare_decks(f"corner-parity:corner{c}", ref, out_dir,
                              rename=lambda n, c=c: n[:-4] + f"_corner{c}.sdc",
                              suffix=f"_corner{c}.sdc")
        if self.name == "edit_loop":
            ref = self.reference_run("batch_final", self.m["final_decks"])
            compare_decks("edit-parity", ref, out_dir)

    def check_op(self, op, out_dir):
        """All checks that do not depend on tracing, on one successful op."""
        text = op.stdout()
        cliques = self.cliques_from_stdout(text)
        self.check_planted(cliques)
        self.check_counts(text)
        self.run_oracle(out_dir, cliques)
        self.check_references(out_dir)
        return cliques


# ------------------------------------------------------------- metrics ----

def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[i] for i, s in enumerate(spans)]


def percentile(values, q):
    v = sorted(values)
    return v[min(len(v) - 1, int(q * len(v)))] if v else 0.0


def layer_metrics(trace, tool_wall, cli_op):
    """Per-layer metrics of one traced replay. Spans under a "touch_edits"
    root (replay-only edit commits on batch workloads) count only in the
    merge.commit_edit_* figures; spans under "extra_analysis" (STA or QoR the
    CLI run skips) count in their layer but not against the CLI's wall."""
    spans = trace["spans"]
    counts = trace["counts"]
    commits = trace["commits"]
    selfs = self_times(spans)
    roots = []
    for s in spans:
        roots.append(roots[s["parent"]] if s["parent"] >= 0 else s["name"])
    out = {}
    for metric, name in SPAN_METRICS.items():
        out[metric] = sum(t for s, t, r in zip(spans, selfs, roots)
                          if s["name"] == name and r != "touch_edits")
    edits = [c for c in commits if c["kind"] == "edit"]
    out["merge.commit_cold_s"] = commits[0]["seconds"]
    out["merge.commit_edit_s"] = statistics.median(c["seconds"] for c in edits)
    out["merge.commit_edit_p80_s"] = percentile([c["seconds"] for c in edits], 0.8)
    out["merge.pairs_checked"] = counts["pairs_checked"]
    out["merge.pairs_rechecked"] = sum(c["pairs_rechecked"] for c in edits)
    out["merge.cliques_remerged"] = sum(c["cliques_merged"] for c in edits)
    out["merge.cliques_reused"] = sum(c["cliques_reused"] for c in edits)
    out["merge.extractions"] = counts["extractions"]
    out["merge.delta_fills"] = counts["delta_fills"]
    probes = counts["cache_hits"] + counts["cache_misses"]
    out["merge.cache_hit_ratio"] = counts["cache_hits"] / probes
    for k in ("refine_keys", "pass3_paths", "fixes_added"):
        out["merge." + k] = counts[k]
    out["merge.merged_sdc_kb"] = counts["merged_sdc_bytes"] / 1024.0
    for k in ("serial_walks", "batch_walks", "tag_groups"):
        out["timing." + k] = counts[k]
    out["process.cpu_s"] = cli_op.cpu_s
    out["process.cores_busy"] = cli_op.cpu_s / cli_op.wall
    replay_only = ("touch_edits", "extra_analysis")
    is_cli_work = [not (r in replay_only or r.startswith("session/")) for r in roots]
    layered = sum(t for s, t, cli in zip(spans, selfs, is_cli_work)
                  if cli and s["name"] != "merge/commit")
    extra = sum(s["end"] - s["start"] for s, cli in zip(spans, is_cli_work)
                if not cli and s["parent"] < 0)
    out["layers.unattributed_s"] = cli_op.wall - layered
    out["layers.trace_overhead_pct"] = 100.0 * (tool_wall - extra - cli_op.wall) / cli_op.wall
    return out


def check_trace_counts(w, counts, commits):
    M, C, G = w.M, w.C, w.G
    want = {"pairs_checked_cold": M * (M - 1) // 2, "extractions_cold": M,
            "cliques": G}
    if C > 1:
        want["delta_fills"] = M * (C - 1)
    for k, v in want.items():
        if counts[k] != v:
            raise CheckFailed("trace-counts", f"{k} = {counts[k]}, expected {v}")
    for e, p in enumerate(counts["edit_pairs"]):
        if p != M - 1:
            raise CheckFailed("trace-counts", f"edit {e + 1}: {p} pairs re-checked, "
                                              f"expected {M - 1}")
    for k, c in enumerate(commits):
        got = (c["pairs_rechecked"], c["cliques_merged"])
        want = (M * (M - 1) // 2, G * C) if k == 0 else (M - 1, C)
        if got != want:
            raise CheckFailed("trace-counts", f"{c['kind']} commit {k}: (pairs "
                                              f"re-checked, cliques merged) = {got}, "
                                              f"expected {want}")


# ---------------------------------------------------------------- main ----

def main():
    # A terminated run stops its current child (run_child, subprocess.run)
    # on the way out instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args()
    bdir, build_s = build()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    w = Workload(args.workload, args.seed, bdir, work)

    failures = []   # (check, detail)
    failed_ops = []
    attempted = 0
    metrics = {}
    try:
        w.generate()
        setup_s = time.monotonic() - T0 - build_s
        log(f"perfbench: {w.name} seed {w.seed}: {w.M} modes x {w.C} corners, "
            f"{w.G} groups, {w.m['cells']} cells, {len(w.m['edits'])} edits; "
            f"nproc {NPROC}, hardware threads {os.cpu_count()}, --threads {THREADS}; "
            f"build check {build_s:.2f} s, setup {setup_s:.3f} s")

        # Closed loop of CLI operations (one op in trace mode).
        ops = []
        first_ok = None
        start = time.monotonic()
        while not ops or (args.trace == 0 and time.monotonic() - start < args.seconds):
            k = len(ops)
            out_dir = os.path.join(work, f"op{k}")
            op = run_child(w.cli_args(out_dir), out_dir, OP_TIMEOUT_S)
            ops.append(op)
            attempted += 1
            if not op.ok:
                failed_ops.append(op)
                print(f"op {k}: FAILED: {op.describe()}", flush=True)
                continue
            if first_ok is None:
                first_ok = (op, out_dir, digest_dir(out_dir))
            elif digest_dir(out_dir) != first_ok[2]:
                compare_decks("repeatability", out_dir, first_ok[1])
            if first_ok[1] != out_dir:
                shutil.rmtree(out_dir, ignore_errors=True)
        good = [op for op in ops if op.ok]
        if not good:
            raise CheckFailed("exit-status", "no operation succeeded; first: "
                                             + failed_ops[0].describe())
        op0, out0, _ = first_ok
        cliques = w.check_op(op0, out0)

        if args.trace == 0:
            # The first operation warms the page cache and is not timed.
            timed = good[1:] or good
            walls = [op.wall for op in timed]
            metrics = {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(op.cpu_s for op in timed),
                "peak_rss_mb": statistics.median(op.peak_rss_mb for op in timed),
                "merged_modes": float(len(cliques)),
                "setup_s": setup_s,
            }
            log(f"perfbench: {len(timed)} timed ops, wall min {min(walls):.3f} "
                f"median {metrics['wall_s']:.3f} max {max(walls):.3f} s")
        else:
            replays = []
            start = time.monotonic()
            k = 0
            while k == 0 or time.monotonic() - start < args.seconds:
                tdir = os.path.join(work, f"trace{k}")
                op = run_child([w.tool, "trace", "--inputs", w.inputs, "--out", tdir,
                                "--threads", str(THREADS)], tdir, OP_TIMEOUT_S)
                attempted += 1
                k += 1
                if not op.ok:
                    failed_ops.append(op)
                    print(f"trace {k - 1}: FAILED: {op.describe()}", flush=True)
                    continue
                compare_decks("trace-parity", tdir, out0)
                with open(os.path.join(tdir, "trace.json")) as f:
                    trace = json.load(f)
                if not replays:
                    check_trace_counts(w, trace["counts"], trace["commits"])
                replays.append(layer_metrics(trace, op.wall, op0))
                shutil.rmtree(tdir, ignore_errors=True)
            if not replays:
                raise CheckFailed("exit-status", "no traced replay succeeded; first: "
                                                 + failed_ops[-1].describe())
            metrics = {k: statistics.median(r[k] for r in replays)
                       for k in PER_LAYER_UNITS}
            log(f"perfbench: {len(replays)} traced replays")
    except CheckFailed as e:
        failures.append((e.check, e.detail))
    except subprocess.TimeoutExpired as e:
        failures.append(("timeout", f"{e.cmd[0]} {e.cmd[1]} ran over {e.timeout:.0f} s"))

    units = END_TO_END_UNITS if args.trace == 0 else PER_LAYER_UNITS
    if not failures:
        for name, unit in units.items():
            print(f"{name:28s} {metrics[name]:.6g} {unit}")
    if failures or failed_ops:
        print(f"perfbench: kept inputs and outputs in {work}")
    else:
        shutil.rmtree(work, ignore_errors=True)
    for op in failed_ops:
        print(f"FAILED op workload={w.name}: {op.describe()}")
    for check, detail in failures:
        print(f"FAIL workload={w.name} seed={w.seed} check={check}: {detail}")
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failed_ops) if attempted else 1,
        "metrics": {} if failures else
        {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
