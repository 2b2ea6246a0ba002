"""Bit-exact reproducibility of simulation artifacts.

Runs the same CLI command twice into different files and compares bytes,
then replays the first run from its manifest.  The counter-based generator
keys every random draw by (seed, path id, channel, epoch), so a run depends
on nothing but its flags.
"""

import filecmp
import json
import tempfile
from pathlib import Path

from sbmpot import cli

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    argv = ["simulate", "exit", "--kind", "sum", "--alpha", "1.0",
            "--paths", "2000", "--seed", "42", "--output", str(tmp / "a.csv")]
    cli.main(argv)
    cli.main(argv[:-1] + [str(tmp / "b.csv")])
    print("same seed, two runs, identical bytes: ",
          filecmp.cmp(tmp / "a.csv", tmp / "b.csv", shallow=False))

    manifest = json.loads((tmp / "a.csv.manifest.json").read_text())
    print("manifest records:", {k: manifest[k] for k in ("command", "seed", "artifact_version")})
    (tmp / "a.csv").unlink()
    cli.main(["--from-manifest", str(tmp / "a.csv.manifest.json")])
    print("replayed from manifest, identical:     ",
          filecmp.cmp(tmp / "a.csv", tmp / "b.csv", shallow=False))
