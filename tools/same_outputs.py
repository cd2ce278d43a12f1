"""Check that two source trees give the same outputs on the benchmark's ops.

    python3 tools/same_outputs.py PARENT CHANGE [WORKLOAD:SEEDS:CYCLES ...]

PARENT and CHANGE are each a source tree (a directory) or a git revision of
the repository this script is in (``HEAD``, ``main~1``, a sha); a revision
is checked out with ``git worktree add --detach`` into a temporary
directory, which is removed again when the run ends.  Each tree runs in its own Python process, which imports the tree's own
``src/dhym_ruled`` and its ``perfbench/workloads.py`` and
``perfbench/harness.py`` by path.  It draws ``CYCLES`` cycles of each seed's
operation stream, runs every operation untimed and hashes its output with
sha256:
- a CLI operation: its argv, exit code, stdout and stderr;
- an oracle task: the RK4 nodes and values, the quadrature value or the
  extended-precision array, or the type, message, location and estimate of
  the error it raised.

The report gives, per workload and op kind, the number of identical and of
differing operations and one digest per side (the sha256 of that kind's op
digests in order), then the first differing operations.  Under a differing
CLI operation it lists each ``key = value`` line of the output (a
descriptor, ``check``, ``tke``, or a ``# key = value`` line of ``limits``)
whose value differs, with both values and, for two floats, their distance
in ulps and their absolute difference.  Under a differing oracle task it
gives both quadrature values and their relative distance, or an RK4 or
extended-precision array's largest absolute difference (a second run of
both trees lists the arrays of the differing tasks it shows), or the error
either side raised; a last line gives the largest relative move of a
quadrature value.  The exit code is 0 when every operation is identical, 1
otherwise.

SEEDS is one seed or a range ``A-B``.  Without a spec, the set that a change
to the solve path is checked on runs: ``solve_mix:21-24:60``,
``profile_table:1-3:2`` and ``verify_oracles:31-32:3``.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from contextlib import ExitStack, contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SPECS = ("solve_mix:21-24:60", "profile_table:1-3:2", "verify_oracles:31-32:3")
#: Differing operations listed after the table.
SHOW_DIFFERING = 5
#: A ``key = value`` line of a CLI output, bare or after ``# ``.
_KEY_LINE = re.compile(r"^(?:# )?([A-Za-z_]\w*) = (.*)$", re.MULTILINE)


def parse_spec(spec: str) -> tuple[str, list[int], int]:
    """``WORKLOAD:SEEDS:CYCLES`` as (workload, seeds, cycles)."""
    workload, seeds, cycles = spec.split(":")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1)), int(cycles)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else repr(part).encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def _cli_run(cli, argv) -> tuple[str, list]:
    """The digest of a CLI operation, and the (key, value) pairs of its
    ``key = value`` lines."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # usage errors and the semistable gate
            code = exc.code
        except Exception as exc:  # an uncaught error is an outcome too
            code = ("raised", type(exc).__name__, str(exc))
    text = out.getvalue()
    return _digest("cli", tuple(argv), code, text, err.getvalue()), _KEY_LINE.findall(text)


def _oracle_run(harness, op, pkg, api, dump: bool) -> tuple[str, list]:
    """The digest of an oracle task, and its (key, value) pairs: the
    quadrature's ``value``, the ``error`` it raised, and with ``dump`` the
    ``values`` of an RK4 or extended-precision array, base64 of its float64
    bytes."""
    ts = None
    if op.kind == "highprec":  # the points harness.execute hands the task
        x = op.cls[0] / (op.cls[0] + op.cls[2])
        ts = np.linspace(1.0 / x - 1.0, 1.0 / x + 1.0, op.samples)
    try:
        payload = harness._oracle_task(op, pkg, api, ts)
    except Exception as exc:
        return (_digest("error", op.kind, op.cls, type(exc).__name__, str(exc),
                        getattr(exc, "location", None), getattr(exc, "estimate", None)),
                [["error", f"{type(exc).__name__}: {exc}"]])
    if op.kind == "rk4":
        grid = payload[1]
        digest = _digest("rk4", op.cls, grid.nodes.tobytes(), grid.values.tobytes())
        array = grid.values
    elif op.kind == "highprec":
        digest, array = _digest("highprec", op.cls, payload.tobytes()), payload
    else:
        return _digest(op.kind, op.cls, op.beta0, payload.hex()), [["value", repr(payload)]]
    return digest, [["values", base64.b64encode(array.tobytes()).decode()]] if dump else []


def _describe(op) -> str:
    return " ".join(op.argv) if op.argv else f"{op.kind} {op.label} cls={op.cls} beta0={op.beta0}"


def worker(tree: Path, specs, dump=frozenset()) -> None:
    """Print one line per operation: workload, kind, digest, the op and the
    JSON of its (key, value) pairs, with the array of each oracle task whose
    index is in ``dump``."""
    src = (tree / "src").resolve()
    sys.path[:0] = [str(src), str(tree / "perfbench")]
    import dhym_ruled
    from dhym_ruled import cli, coupled, dhym, limits, oracle, params, tke

    if Path(dhym_ruled.__file__).resolve().parent != src / "dhym_ruled":
        sys.exit(f"same_outputs: imported dhym_ruled from {dhym_ruled.__file__}, not {src}")
    import harness
    import workloads

    pkg = SimpleNamespace(root=dhym_ruled, cli=cli, params=params, dhym=dhym,
                          coupled=coupled, limits=limits, tke=tke, oracle=oracle)
    api = harness.api_of(pkg)
    index = 0
    for workload, seeds, cycles in map(parse_spec, specs):
        for seed in seeds:
            stream = workloads.Stream(workload, seed)
            for _ in range(cycles):
                for op in stream.cycle():
                    if op.argv:
                        digest, keys = _cli_run(cli, op.argv)
                    else:
                        digest, keys = _oracle_run(harness, op, pkg, api, index in dump)
                    print(workload, op.kind, digest, _describe(op), json.dumps(keys),
                          sep="\t")
                    index += 1


def _git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


@contextmanager
def checked_out(tree: str):
    """``tree`` itself if it is a directory, else a detached git worktree of
    the revision ``tree``, removed on exit."""
    if Path(tree).is_dir():
        yield Path(tree)
        return
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        path = Path(tmp) / "tree"
        r = _git("worktree", "add", "--detach", "--quiet", str(path), tree)
        if r.returncode != 0:
            sys.exit(f"same_outputs: {tree!r} is neither a directory nor a revision:\n"
                     f"{r.stderr}")
        try:
            yield path
        finally:
            _git("worktree", "remove", "--force", str(path))


def _run_side(tree: Path, specs, dump=()) -> list[list[str]]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"  # as perfbench/run.py pins them
    env.pop("PYTHONPATH", None)
    dump = ["--dump", ",".join(map(str, dump))] if dump else []
    r = subprocess.run([sys.executable, __file__, "--worker", str(tree), *dump, *specs],
                       capture_output=True, text=True, env=env)
    if r.returncode != 0:
        sys.exit(f"same_outputs: the run in {tree} failed:\n{r.stderr}")
    return [line.split("\t") for line in r.stdout.splitlines()]


def ulps(a: float, b: float) -> int:
    """Distance of two floats in ulps: the difference of their bits read as
    ordered int64 (0.0 and -0.0 are 0 apart)."""
    ordered = []
    for v in (a, b):
        bits = struct.unpack("<q", struct.pack("<d", v))[0]
        ordered.append(bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF))
    return abs(ordered[0] - ordered[1])


def _floats(va: str, vb: str):
    """Both values as floats, or None unless both are numbers."""
    try:
        fa, fb = float(va), float(vb)
    except ValueError:
        return None
    return None if math.isnan(fa) or math.isnan(fb) else (fa, fb)


def relative_move(parent: list, change: list):
    """|b - a| / |a| of the oracle ``value`` a of parent and b of change, or
    None unless both are floats."""
    both = _floats(dict(parent).get("value", "nan"), dict(change).get("value", "nan"))
    if both is None:
        return None
    fa, fb = both
    return abs(fb - fa) / abs(fa) if fa else (0.0 if fb == fa else math.inf)


def _array(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype=float)


def key_differences(parent: list, change: list) -> list[str]:
    """One line per key whose value differs between two lists of (key, value)
    pairs: both values, and their distance when both are floats, relative
    for an oracle ``value`` and otherwise in ulps and as |b - a| (an ulp
    count across zero or a sign says nothing of the size of the move); for
    two oracle arrays (``values``), their largest absolute difference."""
    a, b = dict(parent), dict(change)
    lines = []
    for key in dict.fromkeys([*a, *b]):
        va, vb = a.get(key, "<absent>"), b.get(key, "<absent>")
        if va == vb:
            continue
        if key == "values":
            sizes = [len(_array(v)) if v != "<absent>" else v for v in (va, vb)]
            if "<absent>" in sizes or sizes[0] != sizes[1]:
                lines.append(f"  values: {sizes[0]} -> {sizes[1]} values")
            else:
                diff = float(np.max(np.abs(_array(va) - _array(vb))))
                lines.append(f"  values: largest absolute difference {diff!r}")
            continue
        line = f"  {key}: {va} -> {vb}"
        both = _floats(va, vb)
        if key == "value" and both:
            line += f"  (relative {relative_move(parent, change)!r})"
        elif both:
            fa, fb = both
            n = ulps(fa, fb)
            line += f"  ({n} ulp{'' if n == 1 else 's'}, |b - a| = {abs(fb - fa)!r})"
        lines.append(line)
    return lines


def shown_arrays(parent: list, change: list) -> list[int]:
    """Indices of the RK4 and extended-precision tasks among the differing
    operations that compare lists."""
    differing = [i for i, (a, b) in enumerate(zip(parent, change)) if a[:3] != b[:3]]
    return [i for i in differing[:SHOW_DIFFERING] if parent[i][1] in ("rk4", "highprec")]


def compare(parent: list, change: list) -> int:
    """Print the table; 0 if every operation is identical, else 1."""
    groups, differing = {}, []
    for a, b in zip(parent, change):
        g = groups.setdefault((a[0], a[1]), [0, 0, hashlib.sha256(), hashlib.sha256()])
        same = a[:3] == b[:3]
        g[0 if same else 1] += 1
        g[2].update(a[2].encode())
        g[3].update(b[2].encode())
        if not same:
            differing.append((a, b))
    print(f"{'workload':<15} {'kind':<11} {'identical':>9} {'differing':>9}  "
          f"parent / change sha256")
    for (workload, kind), (same, diff, ha, hb) in groups.items():
        print(f"{workload:<15} {kind:<11} {same:>9} {diff:>9}  {ha.hexdigest()}")
        print(f"{'':<47}{hb.hexdigest()}")
    for a, b in differing[:SHOW_DIFFERING]:
        print(f"differs: {a[0]} {a[3]}" + (f"  (change: {b[3]})" if b[3] != a[3] else ""))
        for line in key_differences(json.loads(a[4]), json.loads(b[4])):
            print(line)
    moves = [relative_move(json.loads(a[4]), json.loads(b[4])) for a, b in differing]
    moves = [m for m in moves if m is not None]
    if moves:
        print(f"largest relative move of a quadrature value: {max(moves)!r}"
              f" ({len(moves)} differing)")
    if len(parent) != len(change):
        print(f"operation counts differ: parent {len(parent)}, change {len(change)}")
        return 1
    total = sum(g[0] + g[1] for g in groups.values())
    print(f"{total - len(differing)} of {total} operations identical")
    return 1 if differing else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--worker"]:
        dump = frozenset(map(int, argv[3].split(","))) if argv[2:3] == ["--dump"] else ()
        worker(Path(argv[1]), argv[4:] if dump else argv[2:], dump)
        return 0
    if len(argv) < 2 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    specs = argv[2:] or list(DEFAULT_SPECS)
    for spec in specs:
        parse_spec(spec)  # a malformed spec fails here, before either run
    with ExitStack() as stack:
        trees = [stack.enter_context(checked_out(tree)) for tree in argv[:2]]
        sides = [_run_side(tree, specs) for tree in trees]
        dump = shown_arrays(*sides)
        if dump:  # again, with the arrays that compare shows
            sides = [_run_side(tree, specs, dump) for tree in trees]
    return compare(*sides)


if __name__ == "__main__":
    raise SystemExit(main())
