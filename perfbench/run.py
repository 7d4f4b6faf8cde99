#!/usr/bin/env python3
"""SketchTree benchmark: one command, four workloads, end-to-end metrics
with correctness checks (``--trace 0``) or per-layer attribution from a
traced in-process replay (``--trace 1``).

    python3 perfbench/run.py --workload ingest_default --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root. It builds the library, ``sketchtree_cli``
and the benchmark's own tool (perfbench/src) under .bench_build/, makes
the workload's inputs from --seed, drives the real ``sketchtree_cli
build`` / ``serve`` processes, and prints one JSON object as the last
line of standard output. Workloads, metrics and the layer map are
described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CLI = os.path.join(BUILD, "sketchtree", "tools", "sketchtree_cli")
TOOL = os.path.join(BUILD, "perfbench_tool")

# Thread budget (4 vCPUs): ingest builds use 3 shard workers plus the
# parsing producer; `serve` runs 2 workers and one connection reader
# against the single-threaded load generator (plus, on live_serve, the
# ingest thread).
BUILD_THREADS = 3
SERVE_WORKERS = 2
# Admission queue deep enough that a few-ms host stall at the fixed rates
# queues requests instead of shedding them; past saturation the backlog
# still grows without bound and the ladder's latency limit catches it.
QUEUE = 1024
REPEATS = 24         # set-up and restart launches per run (median)
CPUS = sorted(os.sched_getaffinity(0))

# The open loop: a fixed rate for a fixed window, on every workload, after
# a warm-up at the same rate while a frozen synopsis's plan cache fills.
RATE = 4000.0
WINDOW_S = 4.0
WARMUP_S = 1.0
# The fixed offered-rate ladder for max_qps: 10% steps from the fixed
# open-loop rate up to ~180000/s, LADDER_STEP_S per rung, and the p99
# limit a rung must stay within.
LADDER = [int(round(RATE * 1.1 ** k, -1)) for k in range(41)]
LADDER_STEP_S = 0.5
LATENCY_LIMIT_US = 10000.0
# How often the timed server saves its plan cache into its store, so the
# restart after the SIGKILL restores every plan the window compiled.
PLAN_SAVE_MS = 100
# rel_error skips queries whose exact count is below this share of the
# trees: a few rare patterns would otherwise decide the mean.
REL_ERROR_FLOOR = 0.02


# Sizes are fixed per workload, so a run's work does not depend on how
# fast the program is. Every workload ingests a seeded forest and then
# serves queries from what it built; see perfbench/README.md.
WORKLOADS = {
    # Deep, narrow TREEBANK trees at the CLI defaults (--topk 100); the
    # parallel build is served.
    "ingest_default": dict(dataset="treebank", trees=600, topk=100,
                           served="parallel", queries="banded"),
    # Wide, shallow DBLP trees with Zipf text values, --topk 0.
    "ingest_bulk": dict(dataset="dblp", trees=1300, topk=0,
                        served="parallel", queries="banded"),
    # The serially built TREEBANK synopsis (tracked top-k patterns exist)
    # under a Zipf mix of ordered, unordered and expression queries over a
    # pool 8x the plan cache.
    "query_mix": dict(dataset="treebank", trees=600, topk=100,
                      served="serial", queries="mixed", pool=2048, cache=256,
                      zipf=1.0),
    # serve --input over DBLP with a store and frequent epochs, cheap
    # point queries beside the ingest, then SIGKILL and warm restart.
    "live_serve": dict(dataset="dblp", trees=400, topk=100, queries="point",
                       pool=1024, zipf=0.0, publish_every=16, workers=1),
}
END_TO_END = ["setup_s", "trees_per_s", "serial_trees_per_s", "rel_error",
              "restart_ms", "ok_ratio"]


def start_on(turn):
    """preexec_fn that starts a child on vCPU `turn` (mod their number)
    and then lets it run on any. The vCPUs of a shared host run at
    different speeds (one serve launch took 12 ms on one and 18 ms on
    another), and a child tends to stay where it was forked: left to the
    scheduler, a run's launches cluster on one vCPU and their median
    follows it. Started in turn, every run samples every vCPU alike."""
    cpu = CPUS[turn % len(CPUS)]

    def pre():
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, CPUS)
    return pre


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    pass


class Bench:
    def __init__(self, args):
        self.args = args
        self.w = WORKLOADS[args.workload]
        self.work = os.path.join(ROOT, ".bench_build", "runs",
                                 "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
        self.procs = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.report = {}

    # ----------------------------------------------------------- helpers
    def path(self, name):
        return os.path.join(self.work, name)

    def check(self, ok, what):
        if not ok:
            self.correct = False
            log("CHECK FAILED: " + what)

    def tool(self, *argv):
        out = subprocess.run([TOOL] + [str(a) for a in argv], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        return json.loads(out.strip().splitlines()[-1]) if out.strip() else {}

    def gen(self, dataset, trees, name):
        info = self.tool("gen", "--dataset", dataset, "--trees", trees,
                         "--seed", self.args.seed, "--out", self.path(name))
        log("%s: %d %s trees, %d bytes, %d patterns" % (
            name, info["trees"], dataset, info["bytes"], info["patterns"]))
        return info

    def one_tree_forest(self, forest, name):
        with open(forest) as f:
            lines = f.read().split("\n")
        with open(self.path(name), "w") as f:
            f.write("%s\n%s\n</forest>\n" % (lines[0], lines[1]))
        return self.path(name)

    def timed_build(self, forest, out, threads, topk, trees, turn=0):
        """One `sketchtree_cli build` started on vCPU `turn`: wall seconds
        from launch to the synopsis on disk. Quarantined or unstreamed
        trees count failed."""
        argv = [CLI, "build", "--input", forest, "--output", out,
                "--threads", str(threads), "--topk", str(topk)]
        t0 = time.monotonic()
        res = subprocess.run(argv, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             preexec_fn=start_on(turn))
        wall = time.monotonic() - t0
        self.attempted += trees
        streamed = 0
        for line in res.stdout.splitlines():
            if line.startswith("streamed "):
                streamed = int(line.split()[1])
        if res.returncode != 0:
            log(res.stderr[-2000:])
            streamed = 0
        self.failed += trees - streamed
        return wall

    def sha(self, path):
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    def answers(self, synopsis, queries, out):
        self.tool("answer", "--synopsis", synopsis, "--queries", queries,
                  "--out", out)
        with open(out) as f:
            return [line.rstrip("\n") for line in f]

    # ----------------------------------------------------------- serving
    def launch(self, argv, turn=0):
        """Starts `sketchtree_cli serve --port 0 ...` on vCPU `turn`;
        returns the process, its port and the monotonic launch time."""
        t0 = time.monotonic()
        err = open(self.path("serve-%d.log" % len(self.procs)), "w")
        proc = subprocess.Popen([CLI, "serve", "--port", "0", "--workers",
                                 str(self.w.get("workers", SERVE_WORKERS)),
                                 "--queue", str(QUEUE)]
                                + argv,
                                stdout=subprocess.PIPE, stderr=err, text=True,
                                preexec_fn=start_on(turn))
        err.close()
        self.procs.append(proc)
        line = proc.stdout.readline()
        if "serving on" not in line:
            raise Failure("serve did not start: %r" % line)
        return proc, int(line.rsplit(":", 1)[1]), t0

    def kill(self, proc):
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stdout.close()

    def ask(self, port, op, text, sock=None):
        """One query over a fresh (or given) connection; the parsed reply."""
        own = sock is None
        if own:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        req = json.dumps({"op": op, "q": text, "id": 1}) + "\n"
        sock.sendall(req.encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                raise Failure("connection closed")
            buf += chunk
        if own:
            sock.close()
        return json.loads(buf.decode())

    def first_answer(self, argv, query, expected, turn=0):
        """Launch to the first correct answer: the setup cost a user pays.
        `expected(reply)` says whether a reply is the correct answer."""
        proc, port, t0 = self.launch(argv, turn)
        while True:
            self.attempted += 1
            reply = self.ask(port, query[0], query[1])
            if not reply.get("ok"):
                self.failed += 1
            elif expected(reply):
                return proc, port, time.monotonic() - t0
            if time.monotonic() - t0 > 60:
                self.check(False, "no correct first answer")
                return proc, port, time.monotonic() - t0

    def loadgen(self, port, queries, extra=()):
        """The open loop at RATE for WINDOW_S after WARMUP_S (frozen
        synopses) or from launch (live_serve)."""
        w = self.w
        warmup = 0.0 if "publish_every" in w else WARMUP_S
        res = subprocess.run(
            [TOOL, "loadgen", "--port", str(port), "--queries", queries,
             "--rate", str(RATE), "--seconds", str(WINDOW_S),
             "--warmup", str(warmup), "--zipf", str(w.get("zipf", 0.0)),
             "--seed", str(self.args.seed)] + [str(a) for a in extra],
            check=True, stdout=subprocess.PIPE, text=True)
        out = json.loads(res.stdout.strip().splitlines()[-1])
        self.attempted += int(out["sent"])
        self.failed += int(out["failed"])
        if out["samples"]:
            self.report["latency_samples"] = int(out["samples"])
            self.report["server_samples"] = int(out["server_samples"])
            self.report["generator_late_p99_us"] = out["late_p99_us"]
            self.report["p99_us"] = out["p99_us"]
            self.report["whole_window_p99_us"] = out["whole_p99_us"]
        log("loadgen: " + json.dumps(out))
        return out

    @staticmethod
    def read_queries(path):
        """(op, text, exact count) per line of a query file."""
        with open(path) as f:
            return [(p[0], p[1], int(p[2])) for p in
                    (l.rstrip("\n").split("\t") for l in f if l.strip())]

    # --------------------------------------------------------- workloads
    def inputs(self):
        """The seeded forest and the workload's query file (with exact
        counts computed from the same forest)."""
        w = self.w
        forest = self.path("forest.xml")
        self.gen(w["dataset"], w["trees"], "forest.xml")
        queries = self.path("queries.tsv")
        if w["queries"] == "banded":
            n = w["trees"]
            bands = ",".join(str(n * x) for x in
                             (REL_ERROR_FLOOR, 0.05, 0.1, 0.2, 0.5))
            info = self.tool("queries", "--forest", forest, "--bands", bands,
                             "--per-band", 250, "--seed", self.args.seed,
                             "--out", queries)
        else:
            info = self.tool("pool", "--forest", forest, "--seed",
                             self.args.seed, "--size", w["pool"], "--mix",
                             w["queries"], "--out", queries)
        log("queries: " + json.dumps(info))
        return forest, queries

    def rel_error(self, queries, estimates):
        """Mean relative error against the exact counts, over the queries
        whose exact count is at least REL_ERROR_FLOOR of the trees (the
        banded sets start there) and that are not differences (whose
        exact value can be near 0 however large the operands). The mean,
        not the median: top-k lists answer the most frequent patterns
        exactly, so the median is 0 on a serially built synopsis."""
        floor = REL_ERROR_FLOOR * self.w["trees"]
        rel = [abs(e - a) / a for (_, text, a), e in zip(queries, estimates)
               if a >= floor and ") - COUNT" not in text]
        self.report["rel_error_queries"] = len(rel)
        return statistics.mean(rel)

    def time_to_answer(self, argv_for, query, expected):
        """Median over REPEATS launches of `serve argv_for(i)`, started
        on each vCPU in turn, of the seconds from launch to the first
        correct answer; each server is SIGKILLed after its answer."""
        out = []
        for i in range(REPEATS):
            proc, _, s = self.first_answer(argv_for(i), query, expected, i)
            out.append(s)
            self.kill(proc)
        self.report.setdefault("launch_s", []).append(
            [round(x, 5) for x in sorted(out)])
        return statistics.median(out)

    def builds(self, forest):
        """Parallel (BUILD_THREADS) and serial builds of the forest,
        interleaved in rounds of one pair started on each vCPU: one round,
        and more while they fit in --seconds. The medians of their
        throughputs and the synopsis the workload serves."""
        w = self.w
        topk, n = w["topk"], w["trees"]
        served = w["served"]
        par, ser, serial_hash, synopsis = [], [], None, None
        start, i = time.monotonic(), 0
        while True:
            out = self.path("par-%d.bin" % i)
            par.append(n / self.timed_build(forest, out, BUILD_THREADS, topk,
                                            n, i))
            ser_out = self.path("serial-%d.bin" % i)
            ser.append(n / self.timed_build(forest, ser_out, 1, topk, n, i))
            h = self.sha(ser_out)
            self.check(serial_hash in (None, h), "serial builds differ")
            serial_hash = h
            if topk == 0:
                self.check(self.sha(out) == h,
                           "parallel output differs from serial output")
            synopsis = synopsis or (out if served == "parallel" else ser_out)
            for done in (out, ser_out):
                if done != synopsis:
                    os.remove(done)
            i += 1
            rounds = i / len(CPUS)
            if i % len(CPUS) == 0 and (time.monotonic() - start) * (
                    rounds + 1) / rounds > self.args.seconds:
                break
        self.report["builds"] = i
        return statistics.median(par), statistics.median(ser), synopsis

    def build_and_serve(self):
        w = self.w
        forest, qfile = self.inputs()
        queries = self.read_queries(qfile)
        if self.args.trace:
            return self.traced_build(forest, qfile)
        m = {}
        # setup_s of an ingest workload: the same build over one tree.
        if w["served"] == "parallel":
            one = self.one_tree_forest(forest, "one.xml")
            m["setup_s"] = statistics.median(
                [self.timed_build(one, self.path("one.bin"), BUILD_THREADS,
                                  w["topk"], 1, i) for i in range(REPEATS)])
        m["trees_per_s"], m["serial_trees_per_s"], synopsis = \
            self.builds(forest)

        expected = [float(x) for x in self.answers(
            synopsis, qfile, self.path("expected.txt"))]
        m["rel_error"] = self.rel_error(queries, expected)

        def correct_first(reply):
            return float(reply["estimate"]) == expected[0]

        serve = ["--synopsis", synopsis]
        if "cache" in w:
            serve += ["--cache", str(w["cache"])]
        if w["served"] == "serial":
            # setup_s of a serve workload: launch to the first correct
            # answer, plan cache cold.
            m["setup_s"] = self.time_to_answer(lambda i: serve, queries[0],
                                               correct_first)
        # Write back the builds' output before timing the server.
        os.sync()
        # The served window's server saves its plans into a store; the
        # restarts after its SIGKILL restore them.
        warm = serve + ["--store", self.fresh_dir("store")]
        proc, port, _ = self.launch(warm + ["--plan-save-every-ms",
                                            str(PLAN_SAVE_MS)])
        self.loadgen(port, qfile, ["--answers-out", self.path("tcp.tsv")])
        self.kill_after_plan_save(proc, warm[-1])
        for line in open(self.path("tcp.tsv")):
            q, _, est = line.rstrip("\n").split("\t")
            self.check(float(est) == expected[int(q)],
                       "TCP answer for %r differs from the in-process answer"
                       % (queries[int(q)][1],))
        m["restart_ms"] = 1e3 * self.time_to_answer(
            lambda i: warm, queries[0], correct_first)
        return m

    def kill_after_plan_save(self, proc, store):
        """SIGKILLs a server once its periodic saver has had time to write
        the plans of the window that just ended."""
        time.sleep(5 * PLAN_SAVE_MS / 1e3)
        self.kill(proc)
        self.check(os.path.isfile(os.path.join(store, "plans.skpc")),
                   "the plan cache was not saved into the store")

    def traced_build(self, forest, qfile):
        w = self.w
        if w["served"] == "parallel":
            m = self.tool("replay", "--what", "ingest", "--forest", forest,
                          "--topk", w["topk"], "--threads", BUILD_THREADS)
        else:
            synopsis = self.path("synopsis.bin")
            self.timed_build(forest, synopsis, 1, w["topk"], w["trees"])
            m = self.tool("replay", "--what", "queries", "--synopsis",
                          synopsis, "--queries", qfile, "--cache",
                          w["cache"], "--zipf", w["zipf"], "--seed",
                          self.args.seed, "--picks", int(RATE * WINDOW_S))
            proc, port, _ = self.launch(["--synopsis", synopsis, "--cache",
                                         str(w["cache"])])
            lg = self.loadgen(port, qfile, self.ladder_args())
            self.kill(proc)
            m.update(self.serve_layers(lg))
        self.attempted += w["trees"]
        return m

    def live_ref(self, forest, qfile, name):
        """{(trees, query index): answer} of a serial live ingest
        published at the same points as `serve --input`."""
        w = self.w
        self.tool("liveref", "--forest", forest, "--queries", qfile,
                  "--publish-every", w["publish_every"], "--topk", w["topk"],
                  "--out", self.path(name))
        ref = {}
        for line in open(self.path(name)):
            t, q, est = line.rstrip("\n").split("\t")
            ref[(int(t), int(q))] = float(est)
        return ref

    def live_serve(self):
        w = self.w
        forest, qfile = self.inputs()
        queries = self.read_queries(qfile)
        n = w["trees"]

        def serve_args(source, store):
            return ["--input", source, "--store", store, "--publish-every",
                    str(w["publish_every"]), "--plan-save-every-ms",
                    str(PLAN_SAVE_MS)]

        if self.args.trace:
            m = self.tool("replay", "--what", "live", "--forest", forest,
                          "--topk", w["topk"], "--publish-every",
                          w["publish_every"], "--store",
                          self.fresh_dir("trace-store"))
            proc, port, _ = self.launch(serve_args(forest,
                                                   self.fresh_dir("store")))
            lg = self.loadgen(port, qfile,
                              ["--watch-trees", n] + self.ladder_args())
            self.kill(proc)
            m.update(self.serve_layers(lg))
            self.attempted += n
            return m
        # What the live server must answer at every epoch: a serial live
        # ingest published at the same points.
        ref = self.live_ref(forest, qfile, "liveref.tsv")
        # setup_s: the same live server over a one-tree forest, launch to
        # its first correct answer; its ingest thread is done at once, so
        # nothing competes with the launch.
        one = self.one_tree_forest(forest, "one.xml")
        one_ref = self.live_ref(one, qfile, "one-ref.tsv")
        m = {}
        m["setup_s"] = self.time_to_answer(
            lambda i: serve_args(one, self.fresh_dir("setup-%d" % i)),
            queries[0], lambda reply: one_ref.get((reply["trees"], 0)) ==
            float(reply["estimate"]))
        # One serial build started on each vCPU; they must agree.
        serial, ser, hashes = self.path("serial.bin"), [], set()
        for i in range(len(CPUS)):
            ser.append(n / self.timed_build(forest, serial, 1, w["topk"], n,
                                            i))
            hashes.add(self.sha(serial))
        self.check(len(hashes) == 1, "serial builds differ")
        m["serial_trees_per_s"] = statistics.median(ser)
        build_answers = [float(x) for x in self.answers(
            serial, qfile, self.path("serial.txt"))]
        self.check(build_answers == [ref[(n, q)] for q in range(len(queries))],
                   "serial build answers differ from the live reference")

        store = self.fresh_dir("store")
        proc, port, t0 = self.launch(serve_args(forest, store))
        lg = self.loadgen(port, qfile, ["--watch-trees", n, "--answers-out",
                                        self.path("tcp.tsv")])
        self.check(lg["watch_reached"] > 0, "final epoch never became visible")
        self.check(lg["server_samples"] > 0, "no reply during the ingest")
        m["trees_per_s"] = n / (lg["watch_reached"] - t0)
        for line in open(self.path("tcp.tsv")):
            q, t, est = line.rstrip("\n").split("\t")
            self.check(ref.get((int(t), int(q))) == float(est),
                       "live answer (query %s at %s trees) differs from the "
                       "serial reference" % (q, t))
        final = self.all_answers(port, queries)
        self.check(final == build_answers,
                   "final-epoch answers differ from the serial build's")
        m["rel_error"] = self.rel_error(queries, final)
        self.kill_after_plan_save(proc, store)

        def same_as_final(reply):
            return float(reply["estimate"]) == final[0]

        m["restart_ms"] = 1e3 * self.time_to_answer(
            lambda i: ["--store", store], queries[0], same_as_final)
        proc, port, _ = self.first_answer(["--store", store], queries[0],
                                          same_as_final)
        self.check(self.all_answers(port, queries) == final,
                   "answers after restart differ from before the kill")
        self.kill(proc)
        return m

    def all_answers(self, port, queries):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        out = []
        for op, text, _ in queries:
            self.attempted += 1
            reply = self.ask(port, op, text, sock)
            if not reply.get("ok"):
                self.failed += 1
            out.append(float(reply.get("estimate", "nan")))
        sock.close()
        return out

    def fresh_dir(self, name):
        d = self.path(name)
        os.makedirs(d)
        return d

    @staticmethod
    def ladder_args():
        return ["--ladder", ",".join(str(r) for r in LADDER),
                "--step-seconds", LADDER_STEP_S,
                "--limit-us", LATENCY_LIMIT_US]

    def serve_layers(self, lg):
        return {"server.p50_us": lg["server_p50_us"],
                "server.outside_us": lg["outside_p50_us"],
                "loadgen.p50_us": lg["p50_us"],
                "loadgen.max_qps": lg["max_qps"],
                "server.shed": lg["shed"] + lg["shed_retry_after"],
                "loadgen.late_p99_us": lg["late_p99_us"],
                "loadgen.p99_us": lg["p99_us"],
                "latency.samples": lg["samples"]}

    def run(self):
        os.makedirs(self.work)
        if self.args.workload == "live_serve":
            m = self.live_serve()
        else:
            m = self.build_and_serve()
        if self.args.trace:
            self.check(m.pop("replay.plane_identical", 1) == 1,
                       "replayed counter plane differs from serial synopsis")
        else:
            m["ok_ratio"] = 1.0 - self.failed / max(1, self.attempted)
        return m

    def close(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout:
                proc.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise Failure("the SketchTree sources are not next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "sketchtree_cli", "perfbench_tool"], check=True,
                   stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = load_spec()
        build()
        bench = Bench(args)
        try:
            metrics = bench.run()
        finally:
            bench.close()
    except (Failure, subprocess.CalledProcessError, OSError, KeyError,
            ValueError) as e:
        log("benchmark failed: %s" % e)
        return 1
    if args.trace:
        # Layers a workload does not exercise report 0 (see README.md).
        values = {m["name"]: metrics.get(m["name"], 0.0)
                  for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {name: metrics[name] for name in END_TO_END}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key, value in bench.report.items():
        log("%s: %s" % (key, value))
    result = {"correct": bench.correct, "attempted": max(1, bench.attempted),
              "failed": bench.failed,
              "metrics": {name: {"value": float(v), "unit": units[name]}
                          for name, v in values.items()}}
    for name, v in result["metrics"].items():
        log("%-28s %14.6g %s" % (name, v["value"], v["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
