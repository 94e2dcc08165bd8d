"""Mutation testing of one `emgadapt` module, on a temporary copy of `src/`.

    python tools/mutants.py mkal --sites 40 > mutants-mkal.md
    python tools/mutants.py multi_adapt --sites 51

Run from the repository root.  The script finds the mutation sites of
`src/emgadapt/<module>.py` with the stdlib `ast`:

- arithmetic swaps: + and -, * and /, ** to * (in expressions and in
  augmented assignments);
- comparison boundaries: < and <=, > and >=;
- constant bumps: an int n becomes n + 1, a float x becomes 2x (1.0 when
  x is 0.0).

It draws `--sites` of them with the fixed seed `SEED` (every site when there
are fewer), and for each one writes the mutated module into a fresh copy of
`src/` in a temporary directory, never into the working tree.  It then runs
`tests/test_<module>.py` and `tests/test_acceptance.py` in a subprocess with
`PYTHONPATH` on that copy and `PYTHONDONTWRITEBYTECODE=1`, so no mutant can
run another mutant's cached bytecode.  A failing run kills the mutant, and
so does a run that exceeds `TIMEOUT` seconds.  The result is a Markdown
table on stdout, one row per mutant, with a blank note column for the
reader to say why a survivor is equivalent.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
PACKAGE = ROOT / "src" / "emgadapt"

ACCEPTANCE = "tests/test_acceptance.py"
SEED = 0          # of the draw of sites
TIMEOUT = 300.0   # seconds per mutant run; a longer run is a kill

ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
              ast.Pow: ast.Mult}
BOUNDARY = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**",
          ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


@dataclass(frozen=True)
class Site:
    node: ast.AST  # the node whose source span the mutant replaces
    line: int
    kind: str      # "arithmetic", "boundary" or "constant"
    change: str    # for example "+ -> -" or "1e-06 -> 2e-06"
    text: str      # the replacement text of the node's span


def _bumped(value):
    if isinstance(value, int):
        return value + 1
    return 2.0 * value if value != 0.0 else 1.0


def _skipped_nodes(tree: ast.AST) -> set[int]:
    """ids of every node inside an annotation, where a constant is no value, or inside an
    f-string, whose inner source positions the splice cannot trust."""
    inside = set()
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, ast.JoinedStr):
            notes.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
            args = node.args
            notes += [a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                             args.vararg, args.kwarg) if a is not None]
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        for note in notes:
            if note is not None:
                inside.update(id(n) for n in ast.walk(note))
    return inside


def find_sites(source: str) -> list[Site]:
    """Every mutation site of a module's source, in source order."""
    tree = ast.parse(source)
    skip = _skipped_nodes(tree)
    sites = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITHMETIC:
            old, new = type(node.op), ARITHMETIC[type(node.op)]
            mutant = ast.copy_location(type(node)(**{**vars(node), "op": new()}), node)
            text = ast.unparse(mutant)
            sites.append(Site(node, node.lineno, "arithmetic", f"{SYMBOL[old]} -> {SYMBOL[new]}",
                              text if isinstance(node, ast.AugAssign) else f"({text})"))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in BOUNDARY:
                    ops = list(node.ops)
                    ops[i] = BOUNDARY[type(op)]()
                    mutant = ast.Compare(left=node.left, ops=ops, comparators=node.comparators)
                    sites.append(Site(node, node.lineno, "boundary",
                                      f"{SYMBOL[type(op)]} -> {SYMBOL[type(ops[i])]}",
                                      f"({ast.unparse(mutant)})"))
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
            new = _bumped(node.value)
            sites.append(Site(node, node.lineno, "constant", f"{node.value!r} -> {new!r}", repr(new)))
    return sorted(sites, key=lambda s: (s.line, s.node.col_offset, s.change))


def mutate(source: str, site: Site) -> str:
    """`source` with the span of `site.node` replaced by `site.text`."""
    lines = source.splitlines(keepends=True)
    n = site.node
    start = sum(len(x) for x in lines[: n.lineno - 1]) + len(
        lines[n.lineno - 1].encode()[: n.col_offset].decode())
    end = sum(len(x) for x in lines[: n.end_lineno - 1]) + len(
        lines[n.end_lineno - 1].encode()[: n.end_col_offset].decode())
    out = source[:start] + site.text + source[end:]
    ast.parse(out)  # a mutant must still be Python
    return out


def _copy_src(tmp: str, module: str, text: str) -> dict:
    """A copy of src/ under `tmp` with `module` holding `text`; the environment that imports it."""
    shutil.copytree(ROOT / "src", Path(tmp) / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (Path(tmp) / "src" / "emgadapt" / f"{module}.py").write_text(text)
    return {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def check_import_path(module: str) -> None:
    """Exit unless a subprocess in the mutant environment imports the module from the copy."""
    with tempfile.TemporaryDirectory(prefix="emgadapt-mutant-") as tmp:
        env = _copy_src(tmp, module, (PACKAGE / f"{module}.py").read_text())
        got = subprocess.run([sys.executable, "-c", f"import emgadapt.{module} as m; print(m.__file__)"],
                             cwd=ROOT, env=env, capture_output=True, text=True).stdout.strip()
        if not got.startswith(tmp):
            sys.exit(f"error: the tests would import emgadapt.{module} from {got or 'nowhere'}")


def run_mutant(module: str, mutated: str, tests: list[str]) -> tuple[str, float]:
    """("killed" | "killed (timeout)" | "survived", seconds) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="emgadapt-mutant-") as tmp:
        env = _copy_src(tmp, module, mutated)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed (timeout)", time.monotonic() - t0
        return ("survived" if proc.returncode == 0 else "killed"), time.monotonic() - t0


def _snippet(source: str, line: int, width: int = 60) -> str:
    """Source line `line`, stripped and cut to `width` characters, safe in a Markdown cell."""
    text = source.splitlines()[line - 1].strip().replace("|", "\\|")
    return text if len(text) <= width else text[: width - 3] + "..."


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/emgadapt, for example mkal")
    parser.add_argument("--sites", type=int, default=40, help="sites drawn; every site if fewer")
    args = parser.parse_args(argv)

    path = PACKAGE / f"{args.module}.py"
    tests = [f"tests/test_{args.module}.py", ACCEPTANCE]
    for need in (path, ROOT / tests[0]):
        if not need.is_file():
            parser.error(f"{need} not found; run from the repository root")
    source = path.read_text()
    sites = find_sites(source)
    drawn = sites if args.sites >= len(sites) else sorted(
        random.Random(SEED).sample(sites, args.sites), key=sites.index)

    check_import_path(args.module)
    print(f"`{args.module}`: {len(drawn)} of {len(sites)} sites (seed {SEED}), "
          f"tests {', '.join(tests)}\n")
    print("| # | line | code | mutation | outcome | seconds | note |")
    print("|---|---|---|---|---|---|---|")
    for i, site in enumerate(drawn, 1):
        outcome, seconds = run_mutant(args.module, mutate(source, site), tests)
        print(f"| {i} | {site.line} | `{_snippet(source, site.line)}` | {site.kind} `{site.change}` "
              f"| {outcome} | {seconds:.0f} | |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
