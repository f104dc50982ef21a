"""The CLI data files, pinned by their SHA-256 digests.

Each run below goes through ``dispatch`` in this process.  Its exit code,
its stderr and the digest of every file it writes except ``manifest.json``
(which holds the wall time and the input paths) are compared with
``data/cli_digests.json``, and every JSON file a run writes must be strict
JSON (no NaN or Infinity).  A change that moves numbers on purpose rewrites
that file with

    PYTHONPATH=src python tests/test_cli_digests.py

which prints the runs whose digests moved, were added or were removed
against the committed file; the change names them.
"""

import hashlib
import json
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


if __name__ == "__main__":
    import io
    import tempfile
    from contextlib import redirect_stderr

    with tempfile.TemporaryDirectory() as d:
        work = Path(d)
        ins = _inputs(work / "inputs")
        digests = {}
        for i, name in enumerate(sorted(RUNS)):
            err = io.StringIO()
            with redirect_stderr(err):
                digests[name] = _record(name, ins, work / f"run{i}", err.getvalue)
    committed = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in sorted(set(committed) | set(digests)):
        status = ("added" if name not in committed else "removed" if name not in digests
                  else "moved" if committed[name] != digests[name] else None)
        if status:
            print(f"{status}: {name}")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
