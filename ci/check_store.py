#!/usr/bin/env python3
"""CI validator for the persistent synopsis store (`--store`).

Scenario: a live-ingest server persists its published epochs into a
store directory (every epoch a full snapshot; the store keeps the newest
and its predecessor) and saves its plan cache; the process is then SIGKILLed — no shutdown handler runs —
and a fresh `serve --store DIR` must warm-restart from the newest
persisted epoch and answer the first query bit-identically to the
pre-kill answer, with `cache: hit` (the plan was restored from disk,
not recompiled), and the restart must map the newest epoch (`(mmap)`).

Also drives `inspect --store DIR` over the surviving files: every
epoch must verify (page CRCs) and carry the whole counter plane, and
at most two epoch files may remain. The newest surviving epoch file is
then an ordinary synopsis file: `query`, `stats`, `merge`,
`build --append` and `inspect --synopsis` take it, `query` agrees with
the server's answer at that epoch, and `serve --synopsis` on it answers
bit for bit the same. Last, `build` refuses a misspelled option
(`--topK`) with exit code 2.

Usage:
  check_store.py [--cli build/tools/sketchtree_cli]

Exits 0 on success, 1 with a diagnostic on any violation.
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

server = None

# 12 trees, published every 3: five epochs, of which two remain.
FOREST = "<forest>" + "".join(
    "<author><name/><affil/></author>"
    "<book><title/><author/></book>"
    "<article><author><name/><affil/></author><year/></article>"
    for _ in range(4)) + "</forest>"
TREES = 12
# The sketch dimensions the server runs with (the CLI defaults, passed
# explicitly): the counter plane is S1 * S2 * STREAMS doubles.
S1, S2, STREAMS = 50, 7, 229
PLANE_PAGES = (S1 * S2 * STREAMS * 8 + 4095) // 4096
QUERY = {"op": "count", "q": "author(name,affil)"}


def fail(message):
    print(f"check_store: FAIL: {message}", file=sys.stderr)
    if server is not None and server.poll() is None:
        server.kill()
    sys.exit(1)


def roundtrip(port, request):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    try:
        sock.sendall(json.dumps(request).encode() + b"\n")
        buffer = b""
        while b"\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                fail(f"connection closed awaiting reply to {request}")
            buffer += chunk
        return json.loads(buffer.split(b"\n", 1)[0])
    finally:
        sock.close()


def start_server(cli, extra_args, stderr_path):
    global server
    stderr_file = open(stderr_path, "w")
    server = subprocess.Popen(
        [cli, "serve", "--port", "0"] + extra_args,
        stdout=subprocess.PIPE, stderr=stderr_file, text=True)
    banner = server.stdout.readline()
    match = re.match(r"serving on 127\.0\.0\.1:(\d+)", banner)
    if not match:
        fail(f"unexpected serve banner: {banner!r} "
             f"(stderr: {open(stderr_path).read()!r})")
    return int(match.group(1))


def wait_for_stderr(stderr_path, needle, timeout_s=30):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        text = open(stderr_path).read()
        if needle in text:
            return text
        if server.poll() is not None:
            fail(f"server exited ({server.returncode}) before "
                 f"{needle!r} appeared; stderr: {text!r}")
        time.sleep(0.05)
    fail(f"{needle!r} never appeared in {stderr_path}")


def run_cli(cli, *argv):
    return subprocess.run([cli, *argv], capture_output=True, text=True)


def check_synopsis_file(cli, tmp, forest, newest, estimate):
    """Every synopsis reader takes a store epoch file, and the answers
    agree with the server's `estimate` at that epoch."""
    def expect_ok(what, result, needle):
        if result.returncode != 0 or needle not in result.stdout:
            fail(f"{what} on an epoch file: exit {result.returncode}, "
                 f"wanted {needle!r} in {result.stdout!r} "
                 f"(stderr: {result.stderr!r})")

    def answer(estimate):
        return f"COUNT({QUERY['q']}) ~= {estimate:.1f}"

    expect_ok("query", run_cli(cli, "query", "--synopsis", newest,
                               "--pattern", QUERY["q"], "--unordered"),
              answer(estimate))
    expect_ok("stats", run_cli(cli, "stats", "--synopsis", newest),
              f"trees processed:    {TREES}")
    merged = os.path.join(tmp, "merged.bin")
    expect_ok("merge", run_cli(cli, "merge", "--inputs",
                               f"{newest},{newest}", "--output", merged),
              f"({2 * TREES} trees total)")
    # With --topk 0 the merged counters are exactly twice the epoch's,
    # and so is every estimate.
    expect_ok("query of the merge", run_cli(
        cli, "query", "--synopsis", merged, "--pattern", QUERY["q"],
        "--unordered"), answer(2 * estimate))
    expect_ok("build --append", run_cli(
        cli, "build", "--input", forest, "--append", newest, "--output",
        os.path.join(tmp, "appended.bin")), f"{2 * TREES} trees total")
    inspected = run_cli(cli, "inspect", "--synopsis", newest, "--json")
    if inspected.returncode != 0:
        fail(f"inspect --synopsis failed: {inspected.stderr}")
    report = json.loads(inspected.stdout)
    if (not report.get("ok") or report["pages"].get("pages_ok") is not True
            or "health" not in report):
        fail(f"inspect --synopsis report incomplete: {report}")

    stderr_path = os.path.join(tmp, "frozen.stderr")
    port = start_server(cli, ["--synopsis", newest], stderr_path)
    frozen = roundtrip(port, QUERY)
    if frozen.get("estimate") != estimate:
        fail(f"serve --synopsis on the epoch file answered {frozen}, the "
             f"live server {estimate!r}")
    roundtrip(port, {"op": "shutdown"})
    if server.wait(timeout=20) != 0:
        fail(f"frozen server exited with status {server.returncode}")

    typo = run_cli(cli, "build", "--input", forest, "--output",
                   os.path.join(tmp, "typo.bin"), "--topK", "1")
    if typo.returncode != 2 or "--topK" not in typo.stderr:
        fail(f"build --topK 1 exited {typo.returncode} (want the usage "
             f"error 2 naming the option): {typo.stderr[:200]!r}")


def main():
    global server
    parser = argparse.ArgumentParser()
    parser.add_argument("--cli", default="build/tools/sketchtree_cli")
    args = parser.parse_args()

    tmp = tempfile.mkdtemp(prefix="check_store_")
    forest = os.path.join(tmp, "forest.xml")
    with open(forest, "w") as f:
        f.write(FOREST)
    store = os.path.join(tmp, "store")

    # --- Run 1: live ingest, persisting every published epoch. -----------
    port = start_server(
        args.cli,
        # --topk 0: with tracking on, this tiny corpus would be tracked
        # in full and the counter plane would stay all zero.
        ["--input", forest, "--store", store, "--publish-every", "3",
         "--topk", "0", "--s1", str(S1), "--s2", str(S2), "--streams",
         str(STREAMS), "--plan-save-every-ms", "200"],
        os.path.join(tmp, "run1.stderr"))
    wait_for_stderr(os.path.join(tmp, "run1.stderr"), "ingest finished")

    before = roundtrip(port, QUERY)
    if not before.get("ok"):
        fail(f"pre-kill query failed: {before}")
    if before.get("trees") != TREES:
        fail(f"pre-kill reply not at the final epoch: {before}")
    if before.get("cache") != "miss":
        fail(f"pre-kill query should be the compiling miss: {before}")

    # Let the periodic saver flush the compiled plan, then crash hard:
    # SIGKILL, so nothing that depends on a shutdown path may matter.
    time.sleep(1.0)
    if not os.path.exists(os.path.join(store, "plans.skpc")):
        fail("plan cache file never appeared despite --plan-save-every-ms")
    server.send_signal(signal.SIGKILL)
    server.wait()

    epochs = sorted(int(m.group(1)) for m in (
        re.match(r"epoch-(\d+)\.sks3$", name)
        for name in os.listdir(store)) if m)
    if not 1 <= len(epochs) <= 2:
        fail(f"expected the newest epoch and at most its predecessor in "
             f"the store, found epoch files {epochs}")

    # --- The surviving files verify and each holds the whole plane. -----
    inspected = subprocess.run(
        [args.cli, "inspect", "--store", store, "--json"],
        capture_output=True, text=True)
    if inspected.returncode != 0:
        fail(f"inspect --store failed: {inspected.stderr}")
    report = json.loads(inspected.stdout)
    if not report.get("ok"):
        fail(f"inspect --store found damage: {report}")
    entries = report.get("epochs", [])
    if [e.get("epoch") for e in entries] != epochs:
        fail(f"inspect listed {entries} but the directory holds {epochs}")
    if any(e.get("pages_ok") is not True for e in entries):
        fail(f"inspect reports unverified pages: {entries}")
    for entry in entries:
        if entry.get("counter_pages") != PLANE_PAGES:
            fail(f"epoch does not carry the whole {PLANE_PAGES}-page "
                 f"counter plane: {entry}")

    # --- The newest epoch file is an ordinary synopsis file. -------------
    newest = os.path.join(store, f"epoch-{epochs[-1]}.sks3")
    check_synopsis_file(args.cli, tmp, forest, newest, before["estimate"])

    # --- Run 2: warm restart from the store alone. -----------------------
    stderr2 = os.path.join(tmp, "run2.stderr")
    port = start_server(args.cli, ["--store", store], stderr2)
    text = wait_for_stderr(stderr2, "warm restart: epoch")
    if "(mmap)" not in text:
        fail(f"warm restart did not map the newest epoch: {text!r}")
    if "plan cache: restored" not in wait_for_stderr(
            stderr2, "plan cache: restored"):
        fail(f"no plan-cache restore message; stderr: {text!r}")

    after = roundtrip(port, QUERY)
    if not after.get("ok"):
        fail(f"post-restart query failed: {after}")
    if after.get("cache") != "hit":
        fail(f"first warm query recompiled its plan: {after}")
    if after.get("estimate") != before.get("estimate"):
        fail(f"warm restart changed the estimate: "
             f"{before['estimate']} vs {after['estimate']}")
    if after.get("trees") != TREES:
        fail(f"warm restart lost trees: {after}")

    if not roundtrip(port, {"op": "shutdown"}).get("ok"):
        fail("shutdown op refused")
    if server.wait(timeout=20) != 0:
        fail(f"restarted server exited with status {server.returncode}")

    shutil.rmtree(tmp, ignore_errors=True)
    print(f"check_store: OK: ingest left epochs {epochs} in the store, "
          "inspect verified every page of every full plane, every synopsis "
          "reader took the newest epoch file and agreed with the server, "
          "SIGKILL survived, the warm restart mapped the newest epoch and "
          "answered the first query bit-identically from the restored plan "
          "cache (cache hit), and a misspelled option was a usage error")


if __name__ == "__main__":
    main()
