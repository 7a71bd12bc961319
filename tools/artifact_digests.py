"""Print the sha256 of every CLI artifact on the bundled sbm200 graph.

Runs `elegant train`, `certify`, `fcr`, `sweep` and `attack` for both
backbones at seed 0 with n_outer 60, n_inner 40 and FCR test sets of ratio
0.5, count 120, each with `--jobs N` (default 1), then prints one
`<backbone>/<file> <sha256>` line per artifact and model file, plus each
command's exit code, and a `<backbone>/cache <sha256>` line: the digest
of the classes `PredictionCache.build` writes for the trained
noise-augmented model on that world (60 x 40, seed 0, at `--jobs N`), so
every cache class is compared bit for bit, not only the certificates
derived from them.  Each cache line also checks those classes against the
backbone's float64 path: the cache is built a second time with
`forward_many` running `_exact`, the float64 pass, on every draw, and the
line reads `mismatch` in place of the digest (and the script exits with
status 1) if any class differs, so the float32 filter behind
`forward_many` is held to an independent float64 pass on every cache
world.  Last, `fcr` and `attack` run again with the equal
opportunity metric (`"metric": "eo"`), whose groups are a strict subset of
the test pool, and print their exit codes and the digests of `fcr.json`,
`attack.csv` and `attack.json` on lines of their own, `<backbone>/fcr-eo
...` and `<backbone>/attack-eo ...`, and `sweep` runs again across beta
(`"sweep": {"axis": "beta"}`), whose exit code and `sweep.csv` digest print
as `<backbone>/sweep-beta ...`, so the structure budget across beta is
compared too.  `certify` and `attack` then run with the absolute threshold
`--eta 0.9` (the flag, which has meant an absolute threshold in every
version, not a config `eta` block), printed as `<backbone>/certify-abs ...`
and `<backbone>/attack-abs ...`; on sbm200 both certify there.  Last,
`train` runs on `sbm-german` (seed 0) and a `<backbone>/cache-german
<sha256>` line digests the classes `PredictionCache.build` writes for that
noise-augmented model at n_outer 4 x n_inner 150 (at `--jobs N`): the
shape of perfbench's certify-german workload, n = 1000, whose masks span
several of `forward_many`'s blocks each, which sbm200's 60 x 40 does
not.  A `<backbone>/cache-german-3 <sha256>` line does the same at seed
3, whose GCN masks each leave 61 to 79 node-draws to the float64
re-evaluation (seed 0's 4 to 6), so those classes are compared in volume
too.  Between the two, `fcr` runs with the seed-0 sbm-german models at
n_outer 20 x n_inner 150 over 200 test sets of ratio 0.9, perfbench's
fcr-german world, and a `<backbone>/fcr-german <sha256>` line digests its
`fcr.json`.  It exits with status 1 if any command exited
non-zero or a cache line reads `mismatch`.  Run it in two checkouts and
`diff` the outputs to check that a change leaves every artifact
byte-identical:

    python tools/artifact_digests.py > after.txt
    python tools/artifact_digests.py --src ../parent/src > before.txt
    diff before.txt after.txt

or at two `--jobs` values to check that worker threads change no byte:

    python tools/artifact_digests.py --jobs 1 > jobs1.txt
    python tools/artifact_digests.py --jobs 2 > jobs2.txt
    diff jobs1.txt jobs2.txt

or with OpenBLAS held to one thread, to check that its thread count
changes none of the printed digests either:

    OPENBLAS_NUM_THREADS=1 python tools/artifact_digests.py > blas1.txt
    diff jobs1.txt blas1.txt

That holds for these lines alone, not for every byte the commands can
write: on a 2-core VM, `elegant train` at defaults on sbm-german writes a
different `model.bin` and `model_noise.bin` (for GCN and SAGE alike)
under OPENBLAS_NUM_THREADS=1 than under OpenBLAS's default thread count,
while the `cache-german` classes of that model still match.  So compare
model bytes, or any artifact outside these lines, at one thread count.

`--base REF` does the two-checkout comparison itself: it checks the git
revision REF out into a temporary `git worktree`, runs itself on that
tree's `src` through `--src` and on this checkout's, prints the lines that
differ as a unified diff, removes the worktree and exits with status 1 on
any difference (or when a run failed):

    python tools/artifact_digests.py --base origin/main --jobs 2

Float results depend on the BLAS build and the CPU, so digests are only
comparable between runs on one machine.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile

BACKBONES = ("gcn", "sage")
COMMANDS = ("train", "certify", "fcr", "sweep", "attack")
ARTIFACTS = ("metrics.json", "certify.json", "fcr.json", "sweep.csv", "attack.csv", "attack.json", "model.bin", "model_noise.bin")
CONFIG = {
    "dataset": {"fixture": "sbm200"},
    "seed": 0,
    "smoothing": {"n_outer": 60, "n_inner": 40},
    # pipeline.certify_sets takes 3,276 sets per chunk at n_inner 40, so these 120 are one; tests/test_pipeline.py moves the chunk boundaries
    "fcr": {"ratio": 0.5, "count": 120},
}
GERMAN = {"dataset": {"fixture": "sbm-german"}, "seed": 0, "smoothing": {"n_outer": 4, "n_inner": 150}}
# the world of perfbench's fcr-german workload: one chunk of 200 sets, read one outer sample at a time
GERMAN_FCR = dict(GERMAN, smoothing={"n_outer": 20, "n_inner": 150}, fcr={"ratio": 0.9, "count": 200})
# run in a child on the checkout under test: the sha256 of the prediction cache's classes, or
# "mismatch" if the cache built again through the float64 path (_exact on every draw) differs
CACHE_DIGEST = """
import hashlib, sys
import numpy as np
from elegant import cli
from elegant.fairness import BiasThreshold
from elegant.pipeline import PredictionCache
args = cli.make_parser().parse_args(sys.argv[1:])
cfg = cli.build_config(args.config, args)
g, X, labels, split = cli.load_world(cfg)
noise = cli.load_models(cfg, X.shape[1])[1]
scfg = cli.smoothing_config(cfg, BiasThreshold.absolute(0.0))  # eta plays no part in the cache
classes = PredictionCache.build(noise, g, X, split.vulnerable, scfg, jobs=cfg["jobs"]).classes

def exact(self, ops, X, rows, deltas, out):
    rows = np.asarray(rows, dtype=np.int64)
    return self._exact(ops, rows, deltas, self._pre(ops, X), ops[:, rows].toarray(), out)

type(noise).forward_many = exact  # the model's own class: GcnModel binds forward_many in its namespace
reference = PredictionCache.build(noise, g, X, split.vulnerable, scfg, jobs=cfg["jobs"]).classes
print(hashlib.sha256(classes.tobytes()).hexdigest() if np.array_equal(classes, reference) else "mismatch")
"""


def digests(src: str, backbone: str, out: str, jobs: int = 1) -> tuple[list[str], bool]:
    """Run every command for one backbone into out; return its report lines and whether every command exited 0."""
    env = dict(os.environ, PYTHONPATH=src)
    lines, ok = [], True

    def flags(label: str) -> list[str]:
        return ["--config", os.path.join(out, f"config-{label}.json"), "--out", out, "--backbone", backbone, "--jobs", str(jobs)]

    def run(command: str, label: str, config: dict, *extra: str, quiet: bool = False) -> None:
        """Run command under config; its exit code gets a line of its own unless quiet."""
        nonlocal ok
        with open(os.path.join(out, f"config-{label}.json"), "w") as fh:
            json.dump(config, fh)
        argv = [sys.executable, "-m", "elegant", command, *flags(label), *extra]
        code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        if not quiet:
            lines.append(f"{backbone}/{label} exit {code}")
        ok = ok and code == 0

    def digest(name: str, label: str) -> None:
        path = os.path.join(out, name)
        value = hashlib.sha256(open(path, "rb").read()).hexdigest() if os.path.exists(path) else "missing"
        lines.append(f"{backbone}/{label} {value}")

    for command in COMMANDS:
        run(command, command, CONFIG)
    for name in ARTIFACTS:
        digest(name, name)

    def cache(label: str, trained: str) -> None:
        """Report the sha256 of the cache classes of the noise model trained by run(..., trained, config), under that config, or mismatch if the float64 path gives other classes."""
        nonlocal ok
        done = subprocess.run([sys.executable, "-c", CACHE_DIGEST, "certify", *flags(trained)], env=env, capture_output=True, text=True)
        value = done.stdout.strip() if done.returncode == 0 else "missing"
        lines.append(f"{backbone}/{label} {value}")
        ok = ok and done.returncode == 0 and value != "mismatch"

    cache("cache", "train")
    # the eo, beta and absolute-threshold runs reuse the trained models and overwrite their artifacts, so they go last
    eo = dict(CONFIG, metric="eo")
    run("fcr", "fcr-eo", eo)
    digest("fcr.json", "fcr-eo/fcr.json")
    run("attack", "attack-eo", eo)
    for name in ("attack.csv", "attack.json"):
        digest(name, f"attack-eo/{name}")
    run("sweep", "sweep-beta", dict(CONFIG, sweep={"axis": "beta"}))
    digest("sweep.csv", "sweep-beta/sweep.csv")
    run("certify", "certify-abs", CONFIG, "--eta", "0.9")
    digest("certify.json", "certify-abs/certify.json")
    run("attack", "attack-abs", CONFIG, "--eta", "0.9")
    for name in ("attack.csv", "attack.json"):
        digest(name, f"attack-abs/{name}")
    # overwrites the trained models, so it goes last; a failed training shows as a missing digest
    run("train", "cache-german", GERMAN, quiet=True)
    cache("cache-german", "cache-german")
    run("fcr", "fcr-german", GERMAN_FCR, quiet=True)
    digest("fcr.json", "fcr-german")
    run("train", "cache-german-3", dict(GERMAN, seed=3), quiet=True)
    cache("cache-german-3", "cache-german-3")
    return lines, ok


def against(base: str, src: str, jobs: int) -> int:
    """Run this script on git revision base, checked out in a temporary worktree, and on src; print the differing lines and return 1 if any differ or a run failed."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = subprocess.run(["git", "-C", here, "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True).stdout.strip()

    def run(tree_src: str) -> tuple[list[str], int]:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", tree_src, "--jobs", str(jobs)], capture_output=True, text=True)
        return done.stdout.splitlines(), done.returncode

    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "base")
        subprocess.run(["git", "-C", root, "worktree", "add", "--quiet", "--detach", tree, base], check=True)
        try:
            before, code_before = run(os.path.join(tree, "src"))
        finally:
            subprocess.run(["git", "-C", root, "worktree", "remove", "--force", tree], check=True)
    after, code_after = run(os.path.abspath(src))
    diff = list(difflib.unified_diff(before, after, base, os.path.abspath(src), lineterm=""))
    print("\n".join(diff) if diff else f"{len(after)} lines identical to {base}'s")
    return 1 if diff or code_before or code_after else 0


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(os.path.dirname(here), "src"), help="source tree holding the elegant package (default: this checkout's src)")
    p.add_argument("--jobs", type=int, default=1, help="worker threads passed to every command (default: 1)")
    p.add_argument("--base", metavar="REF", help="diff against the digests of git revision REF, run in a temporary worktree")
    args = p.parse_args(argv)
    if args.base:
        return against(args.base, args.src, args.jobs)
    ok = True
    for backbone in BACKBONES:
        with tempfile.TemporaryDirectory() as out:
            lines, passed = digests(os.path.abspath(args.src), backbone, out, args.jobs)
            print("\n".join(lines), flush=True)
            ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
