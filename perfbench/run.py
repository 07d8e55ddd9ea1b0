#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the ehsim simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds `ehsim` and the
benchmark's `layer_trace` tool from source into $CARGO_TARGET_DIR (default
.bench_build). A run then:

  1. generates the workload's inputs from --seed (workloads.py);
  2. repeats the workload against the real binary until --seconds elapse,
     one client process, at most two worker threads, and measures set-up
     8 times before each repetition (a one-step invocation of the same
     specs; spawn -> `ready` for serve);
  3. checks every job's outputs against the oracle references in
     reference.json (and optimise results against a cold `ehsim optimise`);
  4. with --trace 1, runs one more pass and sizes the layers by replay
     (layer_trace) instead of reporting end-to-end metrics.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. README.md in this directory documents every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES_PER_REP = 8
BUILD_JOBS = "2"
LAYER_SAMPLES = {"scenario2_retune": 33, "sweep_lockstep": 8, "serve_mixed": 8}

# Oracle agreement bounds, as test_accuracy_matrix pins them for the
# proposed engine: final Vc relative to max(1, |oracle Vc|), binned
# generator energy relative to the oracle's. The matrix reports resonance
# without pinning it; it is held to the final-Vc bound here.
FINAL_VC_BOUND = 2e-3
ENERGY_BOUND = 6e-2
RESONANCE_BOUND = 2e-3
OPTIMISE_RTOL = 1e-9

END_TO_END = {
    "wall_s": "s", "sim_rate": "s/s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "req_p50_ms": "ms", "req_p90_ms": "ms", "req_per_s": "1/s",
}
PER_LAYER = {
    "ode.stability_cap_s": "s", "ode.stability_cap_us": "us", "ode.stability_cap_share": "ratio",
    "linalg.eigenvalues_us": "us", "core.stability_recomputes": "count",
    "core.lle_monitor.update_s": "s", "core.lle_monitor.update_us": "us",
    "core.lle_monitor.update_share": "ratio",
    "core.assembler.jacobians_s": "s", "core.assembler.jacobians_us": "us",
    "core.assembler.jacobians_share": "ratio",
    "core.assembler.eval_s": "s", "core.assembler.eval_share": "ratio",
    "core.assembler.signature_s": "s", "core.assembler.signature_share": "ratio",
    "core.jacobian_builds": "count", "core.jacobian_reuse_ratio": "ratio",
    "linalg.lu_factor_us": "us", "linalg.lu_solve_us": "us", "linalg.lu_s": "s",
    "linalg.lu_share": "ratio",
    "core.algebraic_solves": "count", "core.steps": "count", "core.history_resets": "count",
    "core.advance_s": "s", "core.unattributed_s": "s", "core.unattributed_share": "ratio",
    "digital.events": "count", "core.mixed_signal.sync_points": "count",
    "core.trace.points": "count", "core.probe.samples": "count",
    "sim.lockstep.groups": "count", "sim.lockstep.shared_factorisations": "count",
    "sim.lockstep.share_ratio": "ratio", "sim.pool.utilisation": "ratio",
    "sim.session.init_s": "s", "sim.init_iterations": "count",
    "pwl.diode_table.build_s": "s", "pwl.diode_table.hit_ratio": "ratio",
    "io.parse_s": "s", "io.parse_bytes": "bytes", "io.dump_s": "s", "io.dump_bytes": "bytes",
    "io.checkpoint_write_s": "s", "io.checkpoint_bytes": "bytes",
    "serve.overhead_ms": "ms", "serve.session_pool.hit_ratio": "ratio",
    "serve.op_cache.seeded_runs": "count", "serve.optimise_cache.hit_ratio": "ratio",
    "experiments.optimise.evaluations": "count",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.replay_s": "s",
}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---- build -----------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then (re)build ehsim and layer_trace; returns paths."""
    for required in ("CMakeLists.txt", "src", "tools/ehsim_cli.cpp"):
        if not (ROOT / required).exists():
            raise BenchError(f"'{required}' not found next to perfbench/: run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release",
                        *generator], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "ehsim_cli", "layer_trace",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return out / "ehsim" / "ehsim", out / "layer_trace"


def provenance(workload, seed, inputs):
    cache = {}
    cache_file = build_dir() / "CMakeCache.txt"
    for line in cache_file.read_text().splitlines():
        if "=" in line and not line.startswith(("#", "//")):
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    digest = hashlib.sha256()
    for path in sorted(p for d in ("src", "tools") for p in (ROOT / d).rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    jobs = inputs["jobs"]
    spans = sorted({j["spec"].get("duration", j["spec"].get("base", {}).get("duration"))
                    for j in jobs})
    return {
        "commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "source_sha256": digest.hexdigest(),
        "compiler": version.stdout.splitlines()[0] if version.returncode == 0 else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "requests": len(jobs),
        "spans_s": spans,
    }


# ---- process helpers ---------------------------------------------------------

def wait_rusage(proc):
    """Reap the process; returns (exit code, cpu seconds, peak RSS MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_cli(cmd, cwd):
    """One CLI invocation: (exit code, wall s, cpu s, peak RSS MB)."""
    with open(cwd / "stderr.log", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        code, cpu, rss = wait_rusage(proc)
        return code, time.perf_counter() - start, cpu, rss


class ServeProcess:
    """One `ehsim serve` process driven closed-loop over stdin/stdout."""

    def __init__(self, ehsim, cwd):
        self.start = time.perf_counter()
        self.err = open(cwd / "stderr.log", "ab")
        self.proc = subprocess.Popen([str(ehsim), "serve", "--threads", "1", "--out", "out"],
                                     cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True, bufsize=1)
        try:
            self.read_until(lambda e: e.get("event") == "ready")
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - self.start

    def read_until(self, done):
        events = []
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("ehsim serve closed its output early")
            event = json.loads(line)
            events.append(event)
            if done(event):
                return events

    def request(self, envelope):
        self.proc.stdin.write(json.dumps(envelope) + "\n")
        self.proc.stdin.flush()
        rid = envelope["id"]
        ends = ("result", "error", "cancelled", "stats", "shutdown")
        return self.read_until(lambda e: e.get("id") == rid and e.get("event") in ends)

    def close(self):
        """Shut down and reap; returns (exit code, wall s, cpu s, peak RSS MB)."""
        self.proc.stdin.close()
        self.proc.stdout.read()
        code, cpu, rss = wait_rusage(self.proc)
        self.err.close()
        return code, time.perf_counter() - self.start, cpu, rss

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            wait_rusage(self.proc)
        self.err.close()


# ---- workloads ---------------------------------------------------------------

def write_inputs(work, inputs, span_override=None):
    for job in inputs["jobs"]:
        spec = json.loads(json.dumps(job["spec"]))
        if span_override is not None:
            target = spec["base"] if spec["type"] != "experiment" else spec
            target["duration"] = span_override
        (work / job["file"]).write_text(json.dumps(spec, indent=1))


def one_shot_command(ehsim, job):
    if job["kind"] == "sweep":
        return [str(ehsim), "sweep", job["file"], "--threads", str(workloads.SWEEP_THREADS),
                "--out", "out", "--quiet"]
    return [str(ehsim), "run", job["file"], "--threads", "1", "--out", "out", "--quiet"]


def read_result_docs(out):
    return [json.loads(p.read_text()) for p in sorted(out.glob("*.result.json"))]


def one_shot_rep(ehsim, work, inputs):
    """One invocation per job; returns the rep record."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    rep = {"wall": 0.0, "cpu": 0.0, "rss": 0.0, "exit_codes": [], "latencies_ms": [],
           "docs": [], "optimise_docs": {}, "errors": 0}
    for job in inputs["jobs"]:
        code, wall, cpu, rss = run_cli(one_shot_command(ehsim, job), work)
        rep["wall"] += wall
        rep["cpu"] += cpu
        rep["rss"] = max(rep["rss"], rss)
        rep["exit_codes"].append(code)
        rep["latencies_ms"].append(wall * 1e3)
    rep["docs"] = read_result_docs(out)
    rep["requests"] = len(inputs["jobs"])
    return rep


def envelope(index, job):
    env = {"id": index, "type": "optimise" if job["kind"] == "optimise" else "run",
           "spec_path": job["file"]}
    if job["kind"] == "ckpt":
        env["checkpoint"] = job["checkpoint"]
    return env


def serve_rep(ehsim, work, inputs):
    shutil.rmtree(work / "out", ignore_errors=True)
    shutil.rmtree(work / "ckpt", ignore_errors=True)
    serve = ServeProcess(ehsim, work)
    try:
        rep = {"latencies_ms": [], "docs": [], "optimise_docs": {}, "errors": 0}
        for index, job in enumerate(inputs["jobs"]):
            start = time.perf_counter()
            events = serve.request(envelope(index, job))
            rep["latencies_ms"].append((time.perf_counter() - start) * 1e3)
            for event in events:
                if event.get("event") == "error":
                    rep["errors"] += 1
                    log(f"serve error on request {index}: {event.get('error')}")
                elif event.get("event") == "result":
                    if job["kind"] == "optimise":
                        rep["optimise_docs"][index] = event["result"]
                    else:
                        rep["docs"].append(event["result"])
        rep["stats"] = serve.request({"id": len(inputs["jobs"]), "type": "stats"})[-1]
        serve.request({"id": len(inputs["jobs"]) + 1, "type": "shutdown"})
        code, rep["wall"], rep["cpu"], rep["rss"] = serve.close()
    except BaseException:
        serve.kill()
        raise
    rep["exit_codes"] = [code]
    rep["requests"] = len(inputs["jobs"])
    return rep


def measure_setup(ehsim, work, workload, inputs):
    """SETUP_SAMPLES_PER_REP set-up times: spawn -> ready for serve, otherwise
    a one-step invocation of the workload's own specs (spawn, parse,
    elaboration, diode table, operating point, one step, result write)."""
    samples = []
    if workload == "serve_mixed":
        for _ in range(SETUP_SAMPLES_PER_REP):
            serve = ServeProcess(ehsim, work)
            samples.append(serve.ready_s)
            if serve.close()[0] != 0:
                raise BenchError("ehsim serve failed to shut down cleanly")
        return samples
    setup_dir = work / "setup"
    if not setup_dir.exists():
        setup_dir.mkdir()
        write_inputs(setup_dir, inputs, span_override=1e-6)
    for _ in range(SETUP_SAMPLES_PER_REP):
        total = 0.0
        for job in inputs["jobs"]:
            code, wall, _, _ = run_cli(one_shot_command(ehsim, job), setup_dir)
            if code != 0:
                raise BenchError(f"set-up invocation exited with {code}")
            total += wall
        samples.append(total)
    return samples


def sim_seconds(rep):
    total = sum(doc["sim_seconds"] for doc in rep["docs"])
    for doc in rep["optimise_docs"].values():
        total += doc["best_run"]["sim_seconds"] * (len(doc["evaluations"]) + 1)
    return total


# ---- output checks -----------------------------------------------------------

def load_references():
    return json.loads((HERE / "reference.json").read_text())["references"]


def binned_energy(doc, bin_width):
    return sum(doc["power_bins"]["mean"]) * bin_width


def doc_ref_key(doc, job):
    name = doc["scenario"]
    if job["kind"] == "sweep":
        parts = dict(p.split("=", 1) for p in name.split("/")[1:])
        return job["refs"].get((float(parts["excitation.event[0].frequency_hz"]),
                                float(parts["load.sleep_ohms"])))
    return job["refs"].get(name)


def check_doc(doc, job, references, worst):
    """True when a run result agrees with its oracle reference; records the
    largest relative error seen per quantity in worst."""
    ref = references.get(doc_ref_key(doc, job))
    if ref is None:
        log(f"no reference for result '{doc.get('scenario')}'")
        return False
    bin_width = (job["spec"].get("base") or job["spec"])["power_bin_width"]
    final_vc, f0 = doc.get("final_vc"), doc.get("final_resonance_hz")
    if final_vc is None or f0 is None:
        return False
    errors = {
        "final_vc": abs(final_vc - ref["final_vc"]) / max(1.0, abs(ref["final_vc"])),
        "energy": abs(binned_energy(doc, bin_width) - ref["energy_j"]) / abs(ref["energy_j"]),
        "resonance": abs(f0 - ref["final_resonance_hz"]) / abs(ref["final_resonance_hz"]),
    }
    bounds = {"final_vc": FINAL_VC_BOUND, "energy": ENERGY_BOUND, "resonance": RESONANCE_BOUND}
    for k, v in errors.items():
        worst[k] = max(worst.get(k, 0.0), v)
    bad = {k: v for k, v in errors.items() if not v <= bounds[k]}
    if bad:
        log(f"result '{doc['scenario']}' outside the oracle bounds: {bad}")
    return not bad


def close(a, b):
    return abs(a - b) <= OPTIMISE_RTOL * max(abs(a), abs(b), 1e-300)


def optimise_agrees(doc, cold):
    pairs = [(doc["best"], cold["best"]), *zip(doc["evaluations"], cold["evaluations"])]
    return (len(doc["evaluations"]) == len(cold["evaluations"])
            and all(close(a[k], b[k]) for a, b in pairs for k in ("x", "objective")))


def cold_optimise(ehsim, work, inputs):
    """Cold one-shot `ehsim optimise` of each distinct optimise spec."""
    cold = {}
    cold_dir = work / "cold"
    for job in inputs["jobs"]:
        if job["kind"] != "optimise" or job["file"] in cold:
            continue
        shutil.rmtree(cold_dir, ignore_errors=True)
        code, _, _, _ = run_cli([str(ehsim), "optimise", job["file"], "--out", "cold", "--quiet"],
                                work)
        path = cold_dir / f"{job['spec']['name']}.optimise.json"
        cold[job["file"]] = json.loads(path.read_text()) if code == 0 and path.exists() else None
    return cold


def check_rep(rep, inputs, references, cold, worst):
    """(attempted, failed) for one rep: every run result and every optimise
    request is one operation. A serve `error` or a non-zero exit that left no
    failed operation behind still fails one."""
    run_jobs = [j for j in inputs["jobs"] if j["kind"] != "optimise"]
    by_name = {name: job for job in run_jobs for name in job["refs"]}
    expected = sum(len(j["refs"]) for j in run_jobs)
    failed = max(0, expected - len(rep["docs"]))
    for doc in rep["docs"]:
        if not check_doc(doc, by_name.get(doc["scenario"], run_jobs[0]), references, worst):
            failed += 1
    optimise = [(i, j) for i, j in enumerate(inputs["jobs"]) if j["kind"] == "optimise"]
    for index, job in optimise:
        doc = rep["optimise_docs"].get(index)
        reference = cold.get(job["file"])
        if doc is None or reference is None or not optimise_agrees(doc, reference):
            log(f"optimise request {index} disagrees with the cold run_optimise")
            failed += 1
    attempted = expected + len(optimise)
    if any(code != 0 for code in rep["exit_codes"]) or rep["errors"]:
        log(f"ehsim exit codes {rep['exit_codes']}, {rep['errors']} error events")
        failed = max(failed, rep["errors"], 1)
    return attempted, min(failed, attempted)


# ---- end-to-end metrics ----------------------------------------------------------

def end_to_end(reps, setup_samples):
    setup = benchstats.median(setup_samples)
    latencies = [ms for rep in reps for ms in rep["latencies_ms"]]
    return {
        "wall_s": benchstats.median([r["wall"] for r in reps]),
        "sim_rate": benchstats.median([sim_seconds(r) / max(r["wall"] - setup, 1e-9)
                                       for r in reps]),
        "cpu_s": benchstats.median([r["cpu"] for r in reps]),
        "setup_s": setup,
        "peak_rss_mb": benchstats.median([r["rss"] for r in reps]),
        "req_p50_ms": benchstats.percentile(latencies, 50),
        "req_p90_ms": benchstats.percentile(latencies, 90),
        "req_per_s": benchstats.median([r["requests"] / r["wall"] for r in reps]),
    }


# ---- per-layer metrics -------------------------------------------------------------

def layer_trace(tool, args, work):
    with open(work / "stderr.log", "ab") as err:
        done = subprocess.run([str(tool), *args], cwd=work, stdout=subprocess.PIPE, stderr=err,
                              text=True)
    if done.returncode != 0:
        raise BenchError(f"layer_trace {args[0]} exited with {done.returncode}")
    return json.loads(done.stdout)


def layer_specs(workload, inputs, work):
    """Experiment specs whose operands the replay samples."""
    if workload == "sweep_lockstep":
        targets, ohms = (axis["values"] for axis in inputs["jobs"][0]["spec"]["axes"])
        files = []
        for t, o in ((t, o) for t in targets for o in ohms):
            member = workloads.sweep_member_spec(t, o)
            name = f"member-{t:g}-{o:g}.json"
            (work / name).write_text(json.dumps(member))
            files.append(name)
        return files
    return sorted({j["file"] for j in inputs["jobs"] if j["kind"] != "optimise"})


def direct_jobs(inputs):
    lines = []
    for job in inputs["jobs"]:
        if job["kind"] == "ckpt":
            lines.append(f"ckpt {job['file']} {job['checkpoint']['every']} direct-ckpt")
        elif job["kind"] == "sweep":
            lines.append(f"sweep {job['file']} {workloads.SWEEP_THREADS}")
        else:
            lines.append(f"{job['kind']} {job['file']}")
    return "\n".join(lines) + "\n"


def per_layer(workload, inputs, traced, untraced_walls, tool, work):
    start = time.perf_counter()
    layer_runs = layer_trace(tool, ["layers", "--samples", str(LAYER_SAMPLES[workload]),
                                    *layer_specs(workload, inputs, work)], work)
    (work / "direct.txt").write_text(direct_jobs(inputs))
    shutil.rmtree(work / "direct-ckpt", ignore_errors=True)
    direct = layer_trace(tool, ["direct", "--out", "direct-out", "direct.txt"], work)
    replay_s = time.perf_counter() - start

    us = {key: benchstats.mean_of([run["us"][key] for run in layer_runs])
          for key in layer_runs[0]["us"]}
    docs = list(traced["docs"]) + [d["best_run"] for d in traced["optimise_docs"].values()]

    def total(key):
        return sum(doc["stats"][key] for doc in docs)

    builds, reuses = total("jacobian_builds"), total("jacobian_reuses")
    solves, recomputes = total("algebraic_solves"), total("stability_recomputes")
    advance = sum(doc["cpu_seconds"] for doc in docs)
    layer_s = {
        "ode.stability_cap_s": us["stability_cap"] * 1e-6 * recomputes,
        "core.lle_monitor.update_s": us["lle_update"] * 1e-6 * builds,
        "core.assembler.jacobians_s": us["jacobians"] * 1e-6 * builds,
        "core.assembler.eval_s": us["eval"] * 1e-6 * solves,
        "core.assembler.signature_s": us["signature"] * 1e-6 * solves,
        "linalg.lu_s": (us["lu_factor"] * builds + us["lu_solve"] * solves) * 1e-6,
    }
    unattributed = advance - sum(layer_s.values())

    # Counts that the result documents do not carry come from the in-process
    # replay of the same specs, weighted by how often each spec ran.
    by_spec = {run["spec"]: run for run in layer_runs}
    uses = {}
    if workload == "sweep_lockstep":
        uses = {name: 1 for name in by_spec}
    else:
        for job in inputs["jobs"]:
            if job["kind"] != "optimise":
                uses[job["file"]] = uses.get(job["file"], 0) + 1

    def replayed(key):
        return sum(by_spec[name][key] * n for name, n in uses.items())

    jobs = direct["jobs"]
    lockstep = [doc["batch"] for doc in docs if "batch" in doc]
    shared = lockstep[0]["shared_factorisations"] if lockstep else 0
    stats = traced.get("stats", {})
    pool = stats.get("session_pool", {})
    tables = stats.get("diode_table")
    if tables is not None:
        table_builds, table_hit_ratio = tables["misses"], benchstats.ratio(
            tables["hits"], tables["hits"] + tables["misses"])
    else:
        shared_tables = sum(1 for doc in docs if doc["shared_diode_table"])
        table_builds = len(docs) - shared_tables
        table_hit_ratio = benchstats.ratio(shared_tables, len(docs))
    optimise_cache = stats.get("optimise_cache", {})
    threads = workloads.SWEEP_THREADS if workload == "sweep_lockstep" else 1

    # Cold consistency iterations per job, replaced by the seeded count where
    # the binary reports a warm start.
    cold_iterations = [job["init_iterations"] for job in jobs if job["kind"] != "optimise"]
    if workload == "serve_mixed":
        warm = [doc.get("warm_start", {}).get("init_iterations") for doc in traced["docs"]]
        init_iterations = sum(c if w is None else w for c, w in zip(cold_iterations, warm))
    else:
        init_iterations = sum(cold_iterations)

    latencies = traced["latencies_ms"]
    overhead = [lat - job["direct_s"] * 1e3 for lat, job in zip(latencies, jobs)]

    metrics = {
        **layer_s,
        "ode.stability_cap_us": us["stability_cap"],
        "linalg.eigenvalues_us": us["eigenvalues"],
        "core.lle_monitor.update_us": us["lle_update"],
        "core.assembler.jacobians_us": us["jacobians"],
        "linalg.lu_factor_us": us["lu_factor"],
        "linalg.lu_solve_us": us["lu_solve"],
        "core.stability_recomputes": recomputes,
        "core.jacobian_builds": builds,
        "core.jacobian_reuse_ratio": benchstats.ratio(reuses, builds + reuses),
        "core.algebraic_solves": solves,
        "core.steps": total("steps"),
        "core.history_resets": total("history_resets"),
        "core.advance_s": advance,
        "core.unattributed_s": unattributed,
        "core.unattributed_share": benchstats.ratio(unattributed, advance),
        **{name[:-2] + "_share": benchstats.ratio(seconds, advance)
           for name, seconds in layer_s.items()},
        "digital.events": replayed("digital_events"),
        "core.mixed_signal.sync_points": replayed("sync_points"),
        "core.trace.points": replayed("trace_points"),
        "core.probe.samples": sum(p["samples"] for doc in traced["docs"]
                                  for p in doc.get("probes", [])),
        "sim.lockstep.groups": lockstep[0]["lockstep_groups"] if lockstep else 0,
        "sim.lockstep.shared_factorisations": shared,
        "sim.lockstep.share_ratio": benchstats.ratio(shared, shared + builds),
        "sim.pool.utilisation": benchstats.ratio(traced["cpu"], threads * traced["wall"]),
        "sim.session.init_s": sum(job.get("init_s", 0.0) for job in jobs),
        "sim.init_iterations": init_iterations,
        "pwl.diode_table.build_s": direct["diode_table_build_s"] * table_builds,
        "pwl.diode_table.hit_ratio": table_hit_ratio,
        "io.parse_s": sum(job["parse_s"] for job in jobs),
        "io.parse_bytes": sum(job["parse_bytes"] for job in jobs),
        "io.dump_s": sum(job["dump_s"] for job in jobs),
        "io.dump_bytes": sum(job["dump_bytes"] for job in jobs),
        "io.checkpoint_write_s": sum(job.get("checkpoint_write_s", 0.0) for job in jobs),
        "io.checkpoint_bytes": sum(job.get("checkpoint_bytes", 0) for job in jobs),
        "serve.overhead_ms": benchstats.mean_of(overhead),
        "serve.session_pool.hit_ratio": benchstats.ratio(pool.get("hits", 0),
                                                         pool.get("hits", 0) + pool.get("misses", 0)),
        "serve.op_cache.seeded_runs": stats.get("op_cache", {}).get("seeded_runs", 0),
        "serve.optimise_cache.hit_ratio": benchstats.ratio(
            optimise_cache.get("hits", 0),
            optimise_cache.get("hits", 0) + optimise_cache.get("stores", 0)),
        "experiments.optimise.evaluations": sum(len(d["evaluations"]) for d in
                                                traced["optimise_docs"].values()),
        "trace.wall_s": traced["wall"],
        "trace.untraced_wall_s": benchstats.median(untraced_walls),
        "trace.replay_s": replay_s,
    }
    return metrics


# ---- main -----------------------------------------------------------------------

def run(args):
    ehsim, tool = build()
    references = load_references()
    inputs = workloads.generate(args.workload, args.seed)
    work = build_dir() / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    write_inputs(work, inputs)

    serve = args.workload == "serve_mixed"
    do_rep = serve_rep if serve else one_shot_rep
    # Set-up samples are spread over the whole run, between repetitions, so
    # their median sees the same machine load as the repetitions.
    # A repetition starts only while half of one still fits before the
    # deadline, so a run lasts --seconds give or take half a repetition.
    setup_samples = []
    reps = []
    spans = []
    deadline = time.perf_counter() + args.seconds
    while not reps or time.perf_counter() + benchstats.median(spans) / 2 < deadline:
        start = time.perf_counter()
        setup_samples += measure_setup(ehsim, work, args.workload, inputs)
        reps.append(do_rep(ehsim, work, inputs))
        spans.append(time.perf_counter() - start)
    traced = do_rep(ehsim, work, inputs) if args.trace else None

    cold = cold_optimise(ehsim, work, inputs) if serve else {}
    attempted = failed = 0
    worst = {}
    for rep in reps + ([traced] if traced else []):
        a, f = check_rep(rep, inputs, references, cold, worst)
        attempted += a
        failed += f

    if args.trace:
        values = per_layer(args.workload, inputs, traced, [r["wall"] for r in reps], tool, work)
        units = PER_LAYER
    else:
        values = end_to_end(reps, setup_samples)
        units = END_TO_END
    report = {
        "provenance": {**provenance(args.workload, args.seed, inputs),
                       "rep_wall_s": [r["wall"] for r in reps],
                       "setup_samples": len(setup_samples), "trace": args.trace,
                       "worst_oracle_rel_error": worst},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    reports = build_dir() / "reports"
    reports.mkdir(exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"provenance": report["provenance"]}))
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        run(args)
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
