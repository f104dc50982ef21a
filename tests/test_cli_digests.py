"""The CLI data files, pinned by their SHA-256 digests.

Each run below goes through ``dispatch`` in this process.  Its exit code,
its stderr and the digest of every file it writes except ``manifest.json``
(which holds the wall time and the input paths) are compared with
``data/cli_digests.json``, and every JSON file a run writes must be strict
JSON (no NaN or Infinity).  A change that moves numbers on purpose rewrites
that file with

    PYTHONPATH=src python tests/test_cli_digests.py

which prints the runs whose digests moved, were added or were removed
against the committed file, with the old and new exit code of a moved run
whose exit code changed (``moved: NAME (exit 2 -> 0)``); the change names
them.  To show by how much
the numbers moved, write every run's data files on both commits and compare:

    PYTHONPATH=src python tests/test_cli_digests.py --dump DIR
    PYTHONPATH=src python tests/test_cli_digests.py --compare OLD_DIR NEW_DIR

--compare prints, for each data file that differs, the count and the
largest relative and largest absolute change of its float values (a float
near zero that moves by rounding reads as a large relative change), and
fails if any key, list length, string, integer, CSV header, exit code or
stderr differs.

The digests are pinned at the default BLAS threading, with no thread
variable set (two threads on the 2-core host where they were pinned).
Under OPENBLAS_NUM_THREADS=1, ``report star5_neumann`` (K = 126) moves in
its last digit: the transfer fidelity 0.9999914582464163 becomes
0.9999914582464162.  So compare digests with the test command as written,
unpinned.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from graphctrl.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "data" / "cli_digests.json"
SAMPLES = ("interval_dirichlet", "star2_dirichlet", "star5_neumann")
COMMANDS = ("spectrum", "check-assumptions", "lowerbounds", "simulate", "liealg", "report")
MOMENT_K = 40

# a fixed trig control for every simulate run
CONTROL = {"kind": "trig", "T": 0.5, "const": 0.01,
           "terms": [[3.0, "cos", 0.05], [5.5, "sin", -0.02]]}

# rationally related lengths: branch points at every multiple of pi, and
# --modes 20 keeps one of the two modes of the branch point at 3 pi
COMMENSURATE = {
    "graph": {
        "topology": "star",
        "edges": [{"id": f"e{j}", "length": L, "from": f"v{j}", "to": "c"}
                  for j, L in enumerate((1.0, 1.0, 2.0, 3.0), start=1)],
        "vertices": [{"id": "v1", "bc": "D"}, {"id": "v2", "bc": "D"}, {"id": "v3", "bc": "D"},
                     {"id": "v4", "bc": "N"}, {"id": "c", "bc": "NK"}],
    },
    "control": {"e3": [0.0, 1.0]},
    "solver": {"num_modes": 20},
}


def _runs():
    """name -> argv, with {control}, {freqs}, {target} and {commensurate} left to fill in."""
    runs = {}
    for sample in SAMPLES:
        problem = str(ROOT / "sample_problems" / f"{sample}.json")
        for command in COMMANDS:
            argv = [command, "--problem", problem]
            if command == "simulate":
                argv += ["--control", "{control}"]
            runs[f"{command} {sample}"] = argv
            runs[f"{command} {sample} --modes 30"] = argv + ["--modes", "30"]
        runs[f"liealg {sample} --modes 8"] = ["liealg", "--problem", problem, "--modes", "8"]
    for mode in ("direct", "dd_preconditioned"):
        runs[f"moment-solve star2_dirichlet K={MOMENT_K} {mode}"] = [
            "moment-solve", "--freqs", "{freqs}", "--target", "{target}", "--T", "4.0",
            "--mode", mode]
    runs["spectrum commensurate --modes 20"] = ["spectrum", "--problem", "{commensurate}"]
    # one mode: no k >= 2 for the Weyl ratios or the sqrt gap
    runs["spectrum star2_dirichlet --modes 1"] = [
        "spectrum", "--problem", str(ROOT / "sample_problems" / "star2_dirichlet.json"),
        "--modes", "1"]
    return runs


RUNS = _runs()


def _inputs(work: Path) -> dict:
    """Write the control, the moment inputs and the commensurate problem into work."""
    work.mkdir(parents=True, exist_ok=True)
    paths = {name: work / file for name, file in
             (("control", "control.json"), ("target", "targets.csv"),
              ("commensurate", "commensurate.json"))}
    paths["control"].write_text(json.dumps(CONTROL))
    paths["commensurate"].write_text(json.dumps(COMMENSURATE))
    # moment targets decaying like 1/k^2, with a real first entry
    rows = ["k,re_x,im_x"] + [f"{k},{1.0 / k**2!r},{(0.0 if k == 1 else (-1) ** k * 0.5 / k**2)!r}"
                              for k in range(1, MOMENT_K + 1)]
    paths["target"].write_text("\r\n".join(rows) + "\r\n")
    # the frequencies are the lambda column of a spectrum run
    spectrum_dir = work / "freqs"
    code = dispatch(["--out-dir", str(spectrum_dir), "spectrum", "--problem",
                     str(ROOT / "sample_problems" / "star2_dirichlet.json"),
                     "--modes", str(MOMENT_K)])
    assert code == 0
    paths["freqs"] = spectrum_dir / "spectrum.csv"
    return {name: str(p) for name, p in paths.items()}


def _record(name, inputs, out: Path, read_stderr) -> dict:
    """Exit code, stderr digest and data-file digests of one run."""
    argv = [a.format(**inputs) for a in RUNS[name]]
    code = dispatch(["--out-dir", str(out)] + argv)
    files = sorted(p for p in out.glob("*") if p.name != "manifest.json") if out.exists() else []
    return {"exit": code,
            "stderr": hashlib.sha256(read_stderr().encode()).hexdigest(),
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _inputs(tmp_path_factory.mktemp("digest_inputs"))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


def test_digest_file_lists_every_run(pinned):
    assert sorted(pinned) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_data_files_match_pinned_digests(name, inputs, pinned, tmp_path, capsys):
    capsys.readouterr()
    assert _record(name, inputs, tmp_path / "out", lambda: capsys.readouterr().err) == pinned[name]


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_json_files_are_strict(name, inputs, pinned, tmp_path, capsys):
    out = tmp_path / "out"
    _record(name, inputs, out, lambda: capsys.readouterr().err)
    written = sorted(out.glob("*.json"))
    assert {p.name for p in written} - {"manifest.json"} == \
        {f for f in pinned[name]["files"] if f.endswith(".json")}
    for path in written:
        json.loads(path.read_text(), parse_constant=_reject_constant)


def _run_all(work: Path, runs_dir: Path) -> dict:
    """Digests of every run; each run's data files, with its exit code and
    stderr as ``_record.json``, are left in runs_dir/<run name>."""
    ins = _inputs(work / "inputs")
    digests = {}
    for name in sorted(RUNS):
        out = runs_dir / name.replace(" ", "_")
        err = io.StringIO()
        with redirect_stderr(err):
            digests[name] = _record(name, ins, out, err.getvalue)
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").unlink(missing_ok=True)
        (out / "_record.json").write_text(json.dumps(
            {"exit": digests[name]["exit"], "stderr": err.getvalue()}))
    return digests


def _float_changes(old, new, where=""):
    """(relative change, absolute change, location) of every float of two parsed JSON
    values; raises ValueError at the first key, length, type, string or integer that differs."""
    if isinstance(old, float) and isinstance(new, float):
        change = abs(new - old)
        return [(0.0 if old == new else change / max(abs(old), abs(new)), change, where)]
    if type(old) is not type(new):
        raise ValueError(f"{where}: {old!r} became {new!r}")
    if isinstance(old, dict):
        if sorted(old) != sorted(new):
            raise ValueError(f"{where}: keys {sorted(old)} became {sorted(new)}")
        return [c for k in old for c in _float_changes(old[k], new[k], f"{where}.{k}")]
    if isinstance(old, list):
        if len(old) != len(new):
            raise ValueError(f"{where}: length {len(old)} became {len(new)}")
        return [c for i, (a, b) in enumerate(zip(old, new))
                for c in _float_changes(a, b, f"{where}[{i}]")]
    if old != new:
        raise ValueError(f"{where}: {old!r} became {new!r}")
    return []


def _csv_tables(old_text, new_text):
    """Two CSV files as {"header", "columns"}: a column whose cells are all
    integers in both files holds ints (%.17g prints 3.0 as 3), any other floats."""
    tables = [[line.split(",") for line in text.splitlines()] for text in (old_text, new_text)]
    rows = [row for table in tables for row in table[1:]]
    width = max(map(len, rows), default=0)
    is_int = [all(re.fullmatch(r"-?\d+", row[j]) for row in rows if j < len(row))
              for j in range(width)]
    return [{"header": table[0],
             "columns": {name: [int(row[j]) if is_int[j] else float(row[j]) for row in table[1:]]
                         for j, name in enumerate(table[0])}} for table in tables]


def _compare(old_dir: Path, new_dir: Path) -> bool:
    """Print what moved between two --dump directories; False if anything
    other than float values differs."""
    ok, moved = True, 0
    runs = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    for run in runs:
        files = sorted({p.name for d in (old_dir, new_dir) if (d / run).is_dir()
                        for p in (d / run).iterdir()})
        changed = []
        for name in files:
            old, new = old_dir / run / name, new_dir / run / name
            if not (old.exists() and new.exists()):
                print(f"differs: {run} {name}: only in {old_dir if old.exists() else new_dir}")
                ok = False
                continue
            if old.read_bytes() == new.read_bytes():
                continue
            texts = old.read_text(), new.read_text()
            try:
                pair = _csv_tables(*texts) if name.endswith(".csv") else map(json.loads, texts)
                rel = _float_changes(*pair, name)
            except ValueError as exc:
                print(f"differs: {run} {exc}")
                ok = False
                continue
            top, _, at = max(rel)
            top_abs, at_abs = max((a, w) for _, a, w in rel)
            changed.append(f"{name} {sum(r > 0 for r, _, _ in rel)}/{len(rel)} floats moved, "
                           f"max rel {top:.2g} at {at}, max abs {top_abs:.2g} at {at_abs}")
        if changed:
            moved += 1
            print(f"moved: {run}: " + "; ".join(changed))
    print(f"{moved} of {len(runs)} runs moved")
    return ok


if __name__ == "__main__":
    import argparse
    import sys
    import tempfile

    ap = argparse.ArgumentParser(description="Rewrite, dump or compare the pinned CLI data files.")
    ap.add_argument("--dump", type=Path, help="write every run's data files to this directory")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                    help="compare two --dump directories")
    args = ap.parse_args()
    if args.compare:
        sys.exit(0 if _compare(*args.compare) else 1)
    with tempfile.TemporaryDirectory() as d:
        digests = _run_all(Path(d), args.dump or Path(d) / "runs")
    if args.dump:
        sys.exit(0)
    committed = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in sorted(set(committed) | set(digests)):
        if name not in committed:
            print(f"added: {name}")
        elif name not in digests:
            print(f"removed: {name}")
        elif committed[name] != digests[name]:
            old, new = committed[name]["exit"], digests[name]["exit"]
            print(f"moved: {name}" + (f" (exit {old} -> {new})" if old != new else ""))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
