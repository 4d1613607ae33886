"""Digests of a fixed stage chain, for comparing outputs across interpreters.

    python tools/chain_digest.py run WORKDIR DIGEST.json
    python tools/chain_digest.py compare DIGEST.json DIGEST.json ...

``run`` makes a small synthetic corpus (seed 1) in WORKDIR and runs every
stage on it, each reading what an earlier one wrote, with paths relative to
WORKDIR so manifests do not depend on where it lies. It writes the sha256 of
every file under each stage's --out and of each stage's stdout, with the
Python and numpy versions that made them. ``compare`` exits 1 if the digest
files disagree, naming each file that differs and the interpreters that
differ on it. Only the standard library is needed to compare.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"  # the checkout's package, whatever the cwd


def _chain(weeks: str) -> list[list[str]]:
    """Each stage's argv after ``moodcycles``; ``--out`` is last."""
    text = ["--records", "synth/records.tsv", "--lexicons", "synth/lexicon.csv"]
    holiday = ["--binned", "bin/binned.tsv", "--holiday-weeks", weeks]
    return [
        ["score", *text, "--out", "score"],
        ["bin", *text, "--out", "bin"],
        ["eigenmood", *holiday, "--out", "eigenmood"],
        ["similarity", *holiday, "--out", "similarity"],
        ["regress", "--y", "synth/search.csv", "--x", "similarity/similarity.csv", "--out", "regress"],
        ["dcor", "--x", "similarity/similarity.csv", "--y", "synth/search.csv",
         "--permutations", "99", "--seed", "1", "--out", "dcor"],
        ["center", "--series", "synth/search.csv", "--anchor", "christmas", "--years", "2011-2013",
         "--out", "center-christmas"],
        ["center", "--series", "synth/search.csv", "--anchor", "eid-al-fitr",
         "--out", "center-eid"],
        ["classify", "--out", "classify"],
        ["report", "--out", "report"],
    ]


def _stage(work: Path, argv: list[str], digests: dict[str, str]) -> None:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-m", "moodcycles.cli", *argv], cwd=work, env=env,
                         capture_output=True)
    out = argv[-1]
    if run.returncode:
        sys.exit(f"moodcycles {' '.join(argv)}: exit {run.returncode}\n"
                 + run.stderr.decode(errors="replace"))
    digests[f"{out}/<stdout>"] = hashlib.sha256(run.stdout).hexdigest()
    for path in sorted((work / out).rglob("*")):
        if path.is_file():
            digests[path.relative_to(work).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()


def run_chain(work: Path, dest: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests: dict[str, str] = {}
    _stage(work, ["synth", "--seed", "1", "--out", "synth"], digests)
    weeks = ",".join(json.loads((work / "synth" / "gen_spec.json").read_text())["holiday_week_starts"])
    for argv in _chain(weeks):
        _stage(work, argv, digests)
    dest.write_text(json.dumps({"python": platform.python_version(), "numpy": version("numpy"),
                                "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {dest}")


def compare(paths: list[Path]) -> int:
    runs = {path.name: json.loads(path.read_text()) for path in paths}
    names = sorted(set().union(*(run["digests"] for run in runs.values())))
    differ = 0
    for name in names:
        seen = {file: run["digests"].get(name, "missing") for file, run in runs.items()}
        if len(set(seen.values())) > 1:
            differ += 1
            print(f"DIFFERS {name}:")
            for file, digest in seen.items():
                run = runs[file]
                print(f"  Python {run['python']}, numpy {run['numpy']} ({file}): {digest[:16]}")
    print(f"{len(names) - differ} of {len(names)} files agree across {len(runs)} digest files")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "run":
        run_chain(Path(argv[1]), Path(argv[2]).resolve())
        return 0
    if len(argv) >= 3 and argv[0] == "compare":
        return compare([Path(p) for p in argv[1:]])
    sys.exit(__doc__.split("\n\n")[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
