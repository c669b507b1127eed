"""Compare what two chaos01 source trees print and write, command by command.

    python3 tools/ledger.py BASE HEAD [--out ledger.json]

BASE and HEAD are source trees, each with the package under ``src/chaos01``.
A parent commit's tree can be unpacked without a worktree or network:

    mkdir ../base && git archive HEAD~1 | tar -x -C ../base

Each case below runs its steps in order in a new, empty directory, once per
tree.  Every step is a fresh ``python`` process that imports chaos01 from
that tree's ``src``: a CLI command, a CLI command that reads a file on its
standard input (as the file itself, or through a pipe), or a short library
call that writes an input file the CLI cannot write or prints K values.  Paths are relative to
the case directory, so printed lines and summary rows do not depend on
where it is; a path into the tree itself, such as the module a Python
warning names, is printed as ``<tree>``.  For each step the ledger records
the exit code and the sha256 of stdout, of stderr and of every file the
step wrote or rewrote.

The JSON written to ``--out`` lists every step with both trees' records and,
for a step that differs, the last line of each tree's stderr.  A differing
"kvalues" step also gets, for each configuration whose K values differ, the
largest |dK_c|, |dK_m| and any label or degenerate flag that changed.  The
command exits 0 when every step is the same on both trees and 1 otherwise.
It uses only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

KINDS = ("sine", "sawtooth", "quasi_periodic", "chirp", "henon", "uniform_random")
FLAGS = ("--n", "1200", "--f", "50", "--fs", "1000", "--seed", "3")
HUGE = str(2**57)  # a count that no machine can allocate
HUGER = str(2**61)  # a count whose byte size numpy cannot address


def _manifest(name: str, doc: dict) -> list[str]:
    """A step that writes ``doc`` as the JSON manifest ``name``."""
    return ["py", f"import json, pathlib; p = pathlib.Path({name!r}); "
                  f"p.parent.mkdir(exist_ok=True); p.write_text(json.dumps({doc!r}))"]


def _stdin(name: str, pipe: bool, *words: str) -> list[str]:
    """A step that runs the CLI's ``words`` with the file ``name`` on standard
    input, through a pipe or as the file itself; ``/dev/stdin`` names it."""
    feed = f"input=open({name!r}, 'rb').read()" if pipe else f"stdin=open({name!r}, 'rb')"
    return ["py", f"import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-m', "
                  f"'chaos01.cli', *{list(words)!r}], {feed}).returncode)"]


# The "reader" case's inputs, each one edit of tv.csv (time_value_csv) or
# sc.txt (single_column): every line break str.splitlines counts, and bytes
# or rows that leave a file to the line parser.  ``put`` replaces the line
# ``row`` (of the file split at each LF) by the lines that ``edit`` returns.
_READER_FILES = r"""
import pathlib
def put(name, source, row=0, edit=lambda line: [line], sep=b'\n'):
    lines = pathlib.Path(source).read_bytes().split(b'\n')
    lines[row:row + 1] = edit(lines[row])
    pathlib.Path(name).write_bytes(sep.join(lines))
for stem, source in (('tv', 'tv.csv'), ('sc', 'sc.txt')):
    put(f'{stem}-crlf', source, sep=b'\r\n')
    put(f'{stem}-cr', source, sep=b'\r')
    put(f'{stem}-open', source, row=-1, edit=lambda line: [])
put('sc-blank', 'sc.txt', 5, lambda line: [b'', line])
put('sc-inf', 'sc.txt', 5, lambda line: [b'inf'])
put('tv-inf', 'tv.csv', 5, lambda line: [line.split(b',')[0] + b',inf'])
put('sc-under', 'sc.txt', 5, lambda line: [b'1_000'])
put('sc-us', 'sc.txt', 5, lambda line: [line + b'\x1f'])
put('tv-us', 'tv.csv', 5, lambda line: [line.replace(b',', b'\x1f,')])
put('sc-nel', 'sc.txt', 5, lambda line: [line + b'\xc2\x85' + line])
put('sc-latin1', 'sc.txt', 5, lambda line: [line + b'\xe9'])
put('tv-gap', 'tv.csv', 600, lambda line: [])
# a bad header, and a byte that is not UTF-8 later in the same block
pathlib.Path('tv-head').write_bytes(b'tim,value\n0.0,1.0\n0.5,2.\xff\n')
pathlib.Path('sc-head').write_bytes(b'# rate=3\n1.0\n2.\xff\n')
"""
_READER_INPUTS = ("tv-crlf", "tv-cr", "tv-open", "sc-crlf", "sc-cr", "sc-open", "sc-blank",
                  "sc-inf", "tv-inf", "sc-under", "sc-us", "tv-us", "sc-nel", "sc-latin1",
                  "tv-gap", "tv-head", "sc-head")

# The "reader" case's inputs of more than one 1 MiB block (2.2 and 3.0 MB): a
# faultless file read through a pipe, the same with lone-CR line ends, a bad
# row and a bad byte past the first block, and two faults in different blocks
# (a blank line 2 and a bad byte at the end), where the first one is named.
_BIG_FILES = r"""
import pathlib, chaos01 as c
s = c.gen_sine(50.0, 1000.0, 120_000)
c.write_series(s, 'tvbig', 'time_value_csv')
c.write_series(s, 'scbig')
tv, sc = pathlib.Path('tvbig').read_bytes(), pathlib.Path('scbig').read_bytes()
pathlib.Path('tvbig-cr').write_bytes(tv.replace(b'\n', b'\r'))
lines = sc.split(b'\n')
pathlib.Path('scbig-row').write_bytes(b'\n'.join(lines[:100_000] + [b'x'] + lines[100_001:]))
lines[100_000] += b'\xff'
pathlib.Path('scbig-byte').write_bytes(b'\n'.join(lines))
head = sc.index(b'\n') + 1
pathlib.Path('scbig-two').write_bytes(sc[:head] + b'\n' + sc[head:] + b'\xff')
"""


# The "export" case's inputs, in both formats, as each tree's writer writes
# them: noise with the values where repr's digits or layout are hardest
# (subnormals, -0.0, integral floats, the 16-digit edge and the 1e-4/1e-5
# edge) set at every 97th sample.  "wide" also holds +-1e300, +-1e-300 and
# the largest float, which the kernel takes scaled by a power of two.
_EXPORT_FILES = r"""
import chaos01 as c, numpy as np
edges = [5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0, 1.0, -2.0, 123.0, 4096.0,
         1e16, 9999999999999998.0, -1e16, 1e-4, 1e-5, -1e-4, -1e-5, 0.00012345, 1e15]
for name, extra in (('mild', []), ('wide', [1e300, -1e300, 1e-300, -1e-300,
                                            1.7976931348623157e308])):
    values = c.gen_uniform_random(20_000, seed=22).samples - 0.5
    values[::97] = np.resize(edges + extra, values[::97].size)
    series = c.TimeSeries(values, sample_rate=1000.0)
    c.write_series(series, f'{name}.txt')
    c.write_series(series, f'{name}.csv', 'time_value_csv')
"""


# The "magnitude" case's inputs: white noise (K_m 0.978) at 1e100 and 2**-1000,
# where the kernel overflowed or underflowed before it scaled its samples, and
# 50 samples of 1.7e308, whose path at a slow angle passes the largest float.
_MAGNITUDE_FILES = r"""
import chaos01 as c, numpy as np
noise = c.gen_uniform_random(5000, seed=3).samples
c.write_series(c.TimeSeries(noise * 1e100, sample_rate=1000.0), 'big.txt')
c.write_series(c.TimeSeries(np.ldexp(noise, -1000), sample_rate=1000.0), 'tiny.txt')
c.write_series(c.TimeSeries(np.full(50, 1.7e308)), 'huge.txt')
"""

# The "kvalues" case: run_test on 120 configurations (length x signal x method
# x MSD variant x workers), all in one process, by ascending or descending
# length (the step's argument), so that memory reused from earlier calls holds
# other lengths' data.  One JSON line per configuration: its sha256 over the
# angles, K_c, flags and K_m as float.hex, and the K_c, flags, K_m and label
# themselves, from which a differing step's changes are reported.
_KVALUES = r"""
import hashlib, itertools, json, sys
import chaos01 as c
from chaos01 import core
core._CHUNKS_IN_FLIGHT = 3
signals = {'quasi_periodic': lambda n: c.gen_quasiperiodic(5000.0, n),
           'henon': lambda n: c.gen_henon(total=n + 1000, keep=n)}
lengths = sorted((800, 2000, 5000, 20000, 100000), reverse=sys.argv[1] == 'down')
for n, kind in itertools.product(lengths, signals):
    series = signals[kind](n)
    for method, variant, workers in itertools.product(c.Method, c.MsdVariant, (1, 2, 3)):
        core.usable_cpus = lambda: workers
        result = c.run_test(series, c.TestConfig(method=method, msd_variant=variant))
        digest = hashlib.sha256()
        for rate in result.per_c:
            digest.update(f'{rate.c.hex()} {rate.k.hex()} {rate.degenerate}\n'.encode())
        digest.update(result.k_m.hex().encode())
        print(json.dumps({'config': [n, kind, method.value, variant.value, workers],
                          'sha256': digest.hexdigest(),
                          'k_c': [rate.k.hex() for rate in result.per_c],
                          'degenerate': [rate.degenerate for rate in result.per_c],
                          'k_m': result.k_m.hex(), 'label': result.label.value}))
"""


def _kvalue_changes(base: bytes, head: bytes) -> list[dict] | None:
    """For each "kvalues" configuration whose sha256 differs between the two
    trees' output: the largest |dK_c|, |dK_m|, the label if it changed and the
    angles (by draw index) whose degenerate flag changed.  None when the two
    outputs are not the same configurations."""
    try:
        pairs = [(json.loads(old), json.loads(new))
                 for old, new in zip(base.splitlines(), head.splitlines(), strict=True)]
    except ValueError:
        return None
    if any(old["config"] != new["config"] for old, new in pairs):
        return None
    changes = []
    for old, new in pairs:
        if old["sha256"] == new["sha256"]:
            continue
        k_c = [abs(float.fromhex(a) - float.fromhex(b)) for a, b in zip(old["k_c"], new["k_c"])]
        change = {"config": old["config"], "max_dk_c": max(k_c, default=0.0),
                  "dk_m": abs(float.fromhex(old["k_m"]) - float.fromhex(new["k_m"]))}
        if old["label"] != new["label"]:
            change["label"] = [old["label"], new["label"]]
        flags = [i for i, (a, b) in enumerate(zip(old["degenerate"], new["degenerate"])) if a != b]
        if flags:
            change["degenerate_changed"] = flags
        changes.append(change)
    return changes


def _reader_args(command: str, name: str, tag: str) -> list[str]:
    """``command``'s arguments after its input, for the "reader" input ``name``;
    every output is named by ``tag``, since a default would sit beside /dev/stdin."""
    fmt = "time_value_csv" if name.startswith("tv") else "single_column"
    outputs = (["--out", f"{tag}.json", "--scatter", f"{tag}.kc.csv"] if command == "analyze"
               else ["--out", f"{tag}.psd.csv"])
    return ["--format", fmt, *outputs]


# Each step is ["cli", *arguments], ["py", code] or ["kv", code, argument], a
# "py" step whose output is compared configuration by configuration when it
# differs.  A case's later steps read what its earlier ones wrote.
CASES: dict[str, list[list[str]]] = {
    "generate-defaults": [["cli", "generate", "--kind", kind, "--out", f"{kind}.csv"]
                          for kind in KINDS],
    "generate-flags": [["cli", "generate", "--kind", kind, "--out", f"{kind}.csv", *FLAGS]
                       for kind in KINDS],
    "analyze-defaults": [
        *(["cli", "generate", "--kind", kind, "--out", f"{kind}.csv"] for kind in KINDS),
        *(["cli", "analyze", f"{kind}.csv"] for kind in KINDS),
        ["cli", "analyze", "henon.csv", "--method", "regression", "--aggregator", "median",
         "--out", "reg.json", "--scatter", "reg.csv"],
        # three floats strictly inside the angle range
        ["cli", "analyze", "sine.csv", "--c-low", "1.0", "--c-high", repr(1.0 + 4 * 2.0**-52),
         "--num-c", "7", "--out", "ulp.json", "--scatter", "ulp.csv"],
        ["cli", "psd", "sine.csv"],
        ["cli", "psd", "quasi_periodic.csv"],
    ],
    "long-record": [
        ["py", "import chaos01 as c; c.write_series("
               "c.gen_quasiperiodic(5000.0, 100_000), 'long.csv', 'time_value_csv')"],
        ["cli", "analyze", "long.csv", "--format", "time_value_csv",
         "--trajectory", "long.traj.csv"],
        ["cli", "psd", "long.csv", "--format", "time_value_csv"],
    ],
    "batch": [
        ["cli", "generate", "--kind", "sine", "--n", "3000", "--out", "sine.csv"],
        ["cli", "generate", "--kind", "henon", "--n", "3000", "--out", "henon.csv"],
        ["py", "import pathlib; pathlib.Path('bad.csv').write_bytes(b'1.0\\n\\xff\\n')"],
        # a flat first half: its window has no usable growth rate
        ["py", "import chaos01 as c, numpy as np; c.write_series(c.TimeSeries(np.concatenate("
               "[np.zeros(1000), c.gen_uniform_random(1000, 3).samples])), 'half.csv')"],
        _manifest("win.json", {"inputs": ["sine.csv", "missing.csv", "bad.csv", "half.csv"],
                               "config": {"num_c": 12},
                               "window": {"window_len": 1000, "stride": 1000}}),
        ["cli", "batch", "win.json", "--jobs", "1", "--out", "win1.csv"],
        ["cli", "batch", "win.json", "--jobs", "2", "--out", "win2.csv"],
        # 2000-sample windows of the default 100 angles: two kernel chunks each
        _manifest("screen.json", {"inputs": ["sine.csv", "henon.csv", "half.csv"],
                                  "window": {"window_len": 2000, "stride": 500}}),
        ["cli", "batch", "screen.json", "--jobs", "1", "--out", "screen1.csv"],
        ["cli", "batch", "screen.json", "--jobs", "3", "--out", "screen3.csv"],
        _manifest("plain.json", {"inputs": ["sine.csv", "henon.csv"], "config": {"num_c": 20}}),
        ["cli", "batch", "plain.json"],
        ["cli", "batch", "plain.json", "--window", "1000", "--out", "plain.win.csv"],
        # windows with gaps between them, and a manifest in a subdirectory
        ["cli", "batch", "plain.json", "--window", "600", "--stride", "1100",
         "--out", "plain.gap.csv"],
        _manifest("sub/man.json", {"inputs": ["../sine.csv", "../half.csv"],
                                   "config": {"num_c": 10}}),
        ["cli", "batch", "sub/man.json", "--window", "800"],
    ],
    "reader": [
        ["py", "import chaos01 as c; s = c.gen_sine(50.0, 1000.0, 1200); "
               "c.write_series(s, 'tv.csv', 'time_value_csv'); c.write_series(s, 'sc.txt')"],
        ["py", _READER_FILES],
        *(["cli", command, name, *_reader_args(command, name, name)]
          for name in _READER_INPUTS for command in ("analyze", "psd")),
        *(_stdin(name, pipe, command, "/dev/stdin",
                 *_reader_args(command, name, f"{name}-{'pipe' if pipe else 'file'}"))
          for name in ("tv-crlf", "sc-blank") for command in ("analyze", "psd")
          for pipe in (True, False)),
        ["py", _BIG_FILES],
        *(_stdin("tvbig", True, command, "/dev/stdin",
                 *_reader_args(command, "tvbig", "tvbig-pipe")) for command in ("analyze", "psd")),
        *(["cli", command, name, *_reader_args(command, name, name)]
          for name in ("tvbig-cr", "scbig-row", "scbig-byte", "scbig-two")
          for command in ("analyze", "psd")),
    ],
    "export": [
        ["py", _EXPORT_FILES],
        *(step for name in ("mild", "wide")
          for ext, fmt in ((".txt", "single_column"), (".csv", "time_value_csv"))
          for step in (["cli", "psd", name + ext, "--format", fmt, "--out", f"{name}{ext}.psd"],
                       ["cli", "analyze", name + ext, "--format", fmt, "--out",
                        f"{name}{ext}.json", "--scatter", f"{name}{ext}.kc",
                        "--trajectory", f"{name}{ext}.traj"])),
        # a sawtooth of short decimals and its spectrum, and a file of many blocks
        ["cli", "generate", "--kind", "sawtooth", "--fs", "1", "--f", "0.125", "--n", "3000",
         "--out", "saw.csv"],
        ["cli", "psd", "saw.csv"],
        ["cli", "generate", "--kind", "uniform_random", "--n", "100000", "--seed", "5",
         "--out", "noise.csv"],
    ],
    "magnitude": [["py", _MAGNITUDE_FILES],
                  *(["cli", command, name] for name in ("big.txt", "tiny.txt")
                    for command in ("analyze", "psd")),
                  ["cli", "analyze", "huge.txt", "--trajectory", "huge.traj.csv",
                   "--trajectory-c", "0.001"]],
    "kvalues": [["kv", _KVALUES, order] for order in ("up", "down")],
    "help": [["cli", *words, "--help"] for words in
             ([], ["generate"], ["analyze"], ["psd"], ["batch"])] + [["cli", "--version"]],
    "errors": [
        ["cli", "generate", "--kind", "sine", "--f", "3000", "--out", "x.csv"],
        ["cli", "generate", "--kind", "sawtooth", "--f", "2500", "--out", "x.csv"],
        ["cli", "generate", "--kind", "quasi_periodic", "--fs", "280", "--out", "x.csv"],
        ["cli", "generate", "--kind", "chirp", "--fs", "150", "--out", "x.csv"],
        ["cli", "generate", "--kind", "sawtooth", "--fs", "1e300", "--n", "20", "--out", "s1.csv"],
        ["cli", "generate", "--kind", "sawtooth", "--f", "1e-300", "--n", "20", "--out", "s2.csv"],
        ["cli", "generate", "--kind", "sawtooth", "--f", "1e-300", "--fs", "1e10", "--n", "20",
         "--out", "s3.csv"],
        *(["cli", "generate", "--kind", kind, "--n", n, "--out", "x.csv"]
          for n in (HUGE, HUGER) for kind in ("sine", "henon", "uniform_random")),
        ["cli", "generate", "--kind", "chirp", "--n", str(10**30), "--out", "x.csv"],
        ["cli", "generate", "--kind", "uniform_random", "--n", "5", "--seed", str(2**64),
         "--out", "r.csv"],
        ["cli", "generate", "--kind", "uniform_random", "--n", "600", "--out", "a.csv"],
        *(["cli", "analyze", "a.csv", "--num-c", n] for n in (HUGE, HUGER)),
        *(step for n in (2**57, 2**61) for step in (
            _manifest(f"n{n}.json", {"inputs": ["a.csv"], "config": {"num_c": n}}),
            ["cli", "batch", f"n{n}.json"])),
        # an output in a missing directory
        ["cli", "analyze", "a.csv", "--scatter", "nodir/k.csv"],
        _manifest("few.json", {"inputs": ["a.csv"], "config": {"num_c": 4}}),
        ["cli", "batch", "few.json", "--out", "nodir/s.csv"],
    ],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict[str, str]:
    return {path.relative_to(root).as_posix(): _sha(path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()}


def _last_line(text: bytes) -> str:
    lines = text.decode(errors="replace").strip().splitlines()
    return lines[-1][:300] if lines else ""


def run_case(tree: Path, steps: list[list[str]]) -> list[dict]:
    """Run one case's steps on ``tree`` in a new directory; one record each."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    own = os.fsencode(tree)  # printed as <tree>
    records = []
    with tempfile.TemporaryDirectory(prefix="ledger-") as work:
        root = Path(work)
        for step in steps:
            kind, *words = step
            argv = ([sys.executable, "-m", "chaos01.cli", *words] if kind == "cli"
                    else [sys.executable, "-c", *words])
            before = _files(root)
            proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=600)
            after = _files(root)
            stdout, stderr = (out.replace(own, b"<tree>") for out in (proc.stdout, proc.stderr))
            records.append({
                "exit": proc.returncode,
                "stdout": _sha(stdout),
                "stderr": _sha(stderr),
                "files": {name: sha for name, sha in after.items() if before.get(name) != sha},
                "stderr_last": _last_line(stderr),
                "stdout_text": stdout if kind == "kv" else b"",
            })
    return records


def _kvalue_summary(changes: list[dict] | None) -> str:
    if changes is None:
        return "K values: the two outputs are not the same configurations"
    flags = sum(len(change.get("degenerate_changed", ())) for change in changes)
    labels = sum("label" in change for change in changes)
    worst = max((change["max_dk_c"] for change in changes), default=0.0)
    k_m = max((change["dk_m"] for change in changes), default=0.0)
    return (f"K values: {len(changes)} configurations differ; max |dK_c| {worst:.3g}, "
            f"max |dK_m| {k_m:.3g}, {labels} labels and {flags} degenerate flags changed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree of the parent")
    parser.add_argument("head", type=Path, help="source tree of the change")
    parser.add_argument("--out", type=Path, default=Path("ledger.json"),
                        help="JSON ledger path [default: ledger.json]")
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not (tree / "src" / "chaos01").is_dir():
            parser.error(f"{tree} has no src/chaos01")

    steps, differ = [], 0
    for case, case_steps in CASES.items():
        base, head = (run_case(tree.resolve(), case_steps) for tree in (args.base, args.head))
        for step, old, new in zip(case_steps, base, head):
            last = (old.pop("stderr_last"), new.pop("stderr_last"))
            text = (old.pop("stdout_text"), new.pop("stdout_text"))
            entry = {"case": case, "step": step, "same": old == new, "base": old, "head": new}
            if old != new:
                differ += 1
                entry["stderr_last"] = last
                if step[0] == "kv":
                    entry["kvalues"] = _kvalue_changes(*text)
            steps.append(entry)
    files = sum(len(entry["head"]["files"]) for entry in steps)
    summary = {"steps": len(steps), "files_written": files, "differ": differ}
    args.out.write_text(json.dumps({"summary": summary, "steps": steps}, indent=1) + "\n")
    print(f"wrote {args.out}: {len(steps)} steps, {files} files, {differ} differ")
    for entry in steps:
        if not entry["same"]:
            kind, *words = entry["step"]
            shown = words[-1] if kind == "kv" else " ".join(words)
            print(f"  {entry['case']}: {shown[:80]}")
            print(f"    exit {entry['base']['exit']} -> {entry['head']['exit']}; "
                  f"stderr {entry['stderr_last'][0]!r} -> {entry['stderr_last'][1]!r}")
            if "kvalues" in entry:
                print(f"    {_kvalue_summary(entry['kvalues'])}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
