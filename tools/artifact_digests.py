"""Print the sha256 of every CLI artifact on the bundled sbm200 graph.

Runs `elegant train`, `certify`, `fcr`, `sweep` and `attack` for both
backbones at seed 0 with n_outer 60, n_inner 40 and FCR test sets of ratio
0.5, count 3, then prints one `<backbone>/<file> <sha256>` line per artifact
and model file, plus each command's exit code.  Run it in two checkouts and
`diff` the outputs to check that a change leaves every artifact
byte-identical:

    python tools/artifact_digests.py > after.txt
    python tools/artifact_digests.py --src ../parent/src > before.txt
    diff before.txt after.txt

Float results depend on the BLAS build and the CPU, so digests are only
comparable between runs on one machine.
"""

from __future__ import annotations

import argparse
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
    "fcr": {"ratio": 0.5, "count": 3},
}


def digests(src: str, backbone: str, out: str) -> list[str]:
    """Run every command for one backbone into out; return its report lines."""
    config = os.path.join(out, "config.json")
    with open(config, "w") as fh:
        json.dump(CONFIG, fh)
    env = dict(os.environ, PYTHONPATH=src)
    lines = []
    for command in COMMANDS:
        argv = [sys.executable, "-m", "elegant", command, "--config", config, "--out", out, "--backbone", backbone]
        code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        lines.append(f"{backbone}/{command} exit {code}")
    for name in ARTIFACTS:
        path = os.path.join(out, name)
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest() if os.path.exists(path) else "missing"
        lines.append(f"{backbone}/{name} {digest}")
    return lines


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(os.path.dirname(here), "src"), help="source tree holding the elegant package (default: this checkout's src)")
    args = p.parse_args(argv)
    for backbone in BACKBONES:
        with tempfile.TemporaryDirectory() as out:
            print("\n".join(digests(os.path.abspath(args.src), backbone, out)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
