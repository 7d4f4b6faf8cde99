#!/usr/bin/env python3
"""CI validator for kill-and-restart build resume (`--checkpoint-dir`).

Scenario, per build configuration: an uninterrupted build is the
reference. The same build with `--checkpoint-dir` is then interrupted
deterministically: `SKETCHTREE_FAULTS=file.torn_rename@2` makes the
third atomic write (the third checkpoint epoch) crash before its
rename, so the build exits 1 and leaves `.tmp` debris. A `--resume`
run must then write a synopsis byte-identical to the reference.

Configurations:
  * serial at defaults (top-k 100) with --summary, one stream tree
    quarantined before the cut (the cursor carries the count);
  * --threads 2 --topk 0, resumed with --threads 2, --threads 3 and
    serially (all byte-identical to the serial --topk 0 build).

Also checks that `inspect --store` verifies every page of the
checkpoint directory, that the resume swept the `.tmp` debris, and that
`--resume` against a different `--input` exits 1 with the
source-mismatch error.

Usage:
  check_resume.py [--cli build/tools/sketchtree_cli]

Exits 0 on success, 1 with a diagnostic on any violation.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

TREES = 200
EVERY = 20
# Third atomic write = third checkpoint (tree 60); epochs 1-2 commit.
CRASH = "file.torn_rename@2"
COMMITTED = 2 * EVERY
# Tree ordinal 5 (inside the committed prefix) is quarantined.
MALFORMED = "tree.malformed@5"

SHAPES = [
    "<article><author><name/><affil/></author><title/><year/></article>",
    "<book><title/><author/><publisher/></book>",
    "<inproceedings><author/><author/><title/><pages/></inproceedings>",
    "<article><journal/><author><name/></author><year/></article>",
    "<book><author><name/><affil/></author><title/></book>",
    "<phdthesis><author/><school/><year/></phdthesis>",
    "<article><title/><author/><author><affil/></author></article>",
]


def fail(message):
    print(f"check_resume: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(cli, args, faults=None):
    env = dict(os.environ)
    env.pop("SKETCHTREE_FAULTS", None)
    if faults:
        env["SKETCHTREE_FAULTS"] = faults
    return subprocess.run([cli, "build"] + args, env=env,
                          capture_output=True, text=True)


def expect_exit(result, code, what):
    if result.returncode != code:
        fail(f"{what}: exit {result.returncode}, expected {code}; "
             f"stderr: {result.stderr!r}")


def check_store(cli, directory, what):
    inspected = subprocess.run(
        [cli, "inspect", "--store", directory, "--json"],
        capture_output=True, text=True)
    if inspected.returncode != 0:
        fail(f"{what}: inspect --store failed: {inspected.stderr}")
    report = json.loads(inspected.stdout)
    entries = report.get("epochs", [])
    if not report.get("ok") or not entries:
        fail(f"{what}: inspect --store found damage or no epochs: {report}")
    for entry in entries:
        if entry.get("pages_ok") is not True:
            fail(f"{what}: unverified pages: {entry}")
        if entry.get("cursor_bytes", 0) < 1:
            fail(f"{what}: epoch without a build cursor: {entry}")
    debris = [n for n in os.listdir(directory) if n.endswith(".tmp")]
    if debris:
        fail(f"{what}: .tmp debris survived the resume: {debris}")


def interrupt(cli, forest, build_args, ckpt, scratch, faults):
    crashed = run(cli, ["--input", forest, "--output", scratch,
                        "--checkpoint-dir", ckpt,
                        "--checkpoint-every", str(EVERY)] + build_args,
                  faults=",".join(f for f in (faults, CRASH) if f))
    expect_exit(crashed, 1, "interrupted build")
    if "injected crash" not in crashed.stderr:
        fail(f"interrupted build did not die at the injected crash: "
             f"{crashed.stderr!r}")
    if not any(n.endswith(".tmp") for n in os.listdir(ckpt)):
        fail(f"interrupted build left no .tmp debris in {ckpt}")
    if os.path.exists(scratch):
        fail("interrupted build wrote its output")


def resume(cli, forest, build_args, ckpt, output, code, what):
    resumed = run(cli, ["--input", forest, "--output", output,
                        "--checkpoint-dir", ckpt,
                        "--checkpoint-every", str(EVERY), "--resume"]
                  + build_args)
    expect_exit(resumed, code, what)
    expected = f"{COMMITTED} trees committed"
    if expected not in resumed.stderr:
        fail(f"{what}: no '{expected}' resume note: {resumed.stderr!r}")
    return resumed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cli", default="build/tools/sketchtree_cli")
    args = parser.parse_args()
    cli = args.cli

    tmp = tempfile.mkdtemp(prefix="check_resume_")
    forest = os.path.join(tmp, "forest.xml")
    with open(forest, "w") as f:
        f.write("<forest>\n")
        for i in range(TREES):
            f.write(SHAPES[(i * 3 + i // 7) % len(SHAPES)] + "\n")
        f.write("</forest>\n")
    other = os.path.join(tmp, "other.xml")
    shutil.copyfile(forest, other)

    def path(name):
        return os.path.join(tmp, name)

    # --- (a) Serial at defaults with --summary and a quarantined tree. ---
    serial_args = ["--summary"]
    reference = run(cli, ["--input", forest, "--output", path("ref_a.bin")]
                    + serial_args, faults=MALFORMED)
    expect_exit(reference, 3, "serial reference build")
    ckpt = path("ckpt_a")
    interrupt(cli, forest, serial_args, ckpt, path("dead_a.bin"), MALFORMED)
    resumed = resume(cli, forest, serial_args, ckpt, path("out_a.bin"), 3,
                     "serial resume")
    if "1 quarantined" not in resumed.stderr or \
            "1 malformed tree(s) quarantined" not in resumed.stderr:
        fail(f"serial resume lost the quarantined count: "
             f"{resumed.stderr!r}")
    if not filecmp.cmp(path("ref_a.bin"), path("out_a.bin"), shallow=False):
        fail("resumed serial build differs from the uninterrupted one")
    check_store(cli, ckpt, "serial")

    # A cursor for another source is refused.
    mismatch = run(cli, ["--input", other, "--output", path("other.bin"),
                         "--checkpoint-dir", ckpt, "--resume"]
                   + serial_args)
    expect_exit(mismatch, 1, "resume against another --input")
    if "was written for" not in mismatch.stderr:
        fail(f"no source-mismatch error: {mismatch.stderr!r}")

    # --- (b) --threads 2 --topk 0, resumed at three thread counts. -------
    reference = run(cli, ["--input", forest, "--output", path("ref_b.bin"),
                          "--topk", "0"])
    expect_exit(reference, 0, "serial --topk 0 reference build")
    ckpt = path("ckpt_b")
    interrupt(cli, forest, ["--threads", "2", "--topk", "0"], ckpt,
              path("dead_b.bin"), None)
    for threads in (2, 3, 1):
        copy = path(f"ckpt_b{threads}")
        shutil.copytree(ckpt, copy)
        output = path(f"out_b{threads}.bin")
        resume(cli, forest, ["--threads", str(threads), "--topk", "0"],
               copy, output, 0, f"--threads {threads} resume")
        if not filecmp.cmp(path("ref_b.bin"), output, shallow=False):
            fail(f"--threads 2 build resumed with --threads {threads} "
                 f"differs from the uninterrupted build")
        check_store(cli, copy, f"--threads {threads}")

    shutil.rmtree(tmp, ignore_errors=True)
    print("check_resume: OK: serial (top-k, summary, quarantine) and "
          "--threads 2 builds interrupted at the third checkpoint resumed "
          "byte-identically (the parallel one at 2, 3 and 1 threads); "
          "every checkpoint page verified; a foreign --input was refused")


if __name__ == "__main__":
    main()
