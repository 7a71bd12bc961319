"""Print the sha256 of every CLI artifact on the bundled sbm200 graph.

Runs `elegant train`, `certify`, `fcr`, `sweep` and `attack` for both
backbones at seed 0 with n_outer 60, n_inner 40 and FCR test sets of ratio
0.5, count 120, each with `--jobs N` (default 1), then prints one
`<backbone>/<file> <sha256>` line per artifact and model file, plus each
command's exit code, and a `<backbone>/cache <sha256>` line: the digest
of the classes `PredictionCache.build` writes for the trained
noise-augmented model on that world (60 x 40, seed 0, at `--jobs N`), so
every cache class is compared bit for bit, not only the certificates
derived from them.  Last, `fcr` and `attack` run again with the equal
opportunity metric (`"metric": "eo"`), whose groups are a strict subset of
the test pool, and print their exit codes and the digests of `fcr.json`,
`attack.csv` and `attack.json` on lines of their own, `<backbone>/fcr-eo
...` and `<backbone>/attack-eo ...`, and `sweep` runs again across beta
(`"sweep": {"axis": "beta"}`), whose exit code and `sweep.csv` digest print
as `<backbone>/sweep-beta ...`, so the structure budget across beta is
compared too.  `certify` and `attack` then run with the absolute threshold
`--eta 0.9` (the flag, which has meant an absolute threshold in every
version, not a config `eta` block), printed as `<backbone>/certify-abs ...`
and `<backbone>/attack-abs ...`; on sbm200 both certify there.  It exits
with status 1 if any command exited non-zero.  Run it in two checkouts and
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
changes no byte either:

    OPENBLAS_NUM_THREADS=1 python tools/artifact_digests.py > blas1.txt
    diff jobs1.txt blas1.txt

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
    # pipeline.certify_sets takes 54 sets per chunk at 60 x 40, so 120 sets span three chunks
    "fcr": {"ratio": 0.5, "count": 120},
}
# run in a child on the checkout under test: the sha256 of the prediction cache's classes
CACHE_DIGEST = """
import hashlib, sys
from elegant import cli
from elegant.fairness import BiasThreshold
from elegant.pipeline import PredictionCache
args = cli.make_parser().parse_args(sys.argv[1:])
cfg = cli.build_config(args.config, args)
g, X, labels, split = cli.load_world(cfg)
noise = cli.load_models(cfg, X.shape[1])[1]
scfg = cli.smoothing_config(cfg, BiasThreshold.absolute(0.0))  # eta plays no part in the cache
print(hashlib.sha256(PredictionCache.build(noise, g, X, split.vulnerable, scfg, jobs=cfg["jobs"]).classes.tobytes()).hexdigest())
"""


def digests(src: str, backbone: str, out: str, jobs: int = 1) -> tuple[list[str], bool]:
    """Run every command for one backbone into out; return its report lines and whether every command exited 0."""
    env = dict(os.environ, PYTHONPATH=src)
    lines, ok = [], True

    def flags(label: str) -> list[str]:
        return ["--config", os.path.join(out, f"config-{label}.json"), "--out", out, "--backbone", backbone, "--jobs", str(jobs)]

    def run(command: str, label: str, config: dict, *extra: str) -> None:
        nonlocal ok
        with open(os.path.join(out, f"config-{label}.json"), "w") as fh:
            json.dump(config, fh)
        argv = [sys.executable, "-m", "elegant", command, *flags(label), *extra]
        code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
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
    cache = subprocess.run([sys.executable, "-c", CACHE_DIGEST, "certify", *flags("train")], env=env, capture_output=True, text=True)
    lines.append(f"{backbone}/cache {cache.stdout.strip() if cache.returncode == 0 else 'missing'}")
    ok = ok and cache.returncode == 0
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
