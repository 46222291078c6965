"""Per-module line counts of `src/sdelab` in two checkouts, and their difference.

    python3 tools/src_lines.py PARENT_DIR CHANGE_DIR

For every module of either checkout, prints its `wc -l` and its code lines in
the parent and in the change, then the differences, and last the totals.
Code lines are the lines that are not blank, not comment-only and not part of
a module, class or function docstring.  A module missing on one side counts
as zero lines there.  Standard library only.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path("src/sdelab")


def counts(path: Path) -> tuple:
    """(wc -l, code lines) of one module; (0, 0) when it does not exist."""
    if not path.exists():
        return 0, 0
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skip = {n for n, line in enumerate(lines, 1) if not line.strip()}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not lines[tok.start[0] - 1][: tok.start[1]].strip():
            skip.add(tok.start[0])
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return text.count("\n"), len(lines) - len(skip)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    names = sorted({p.name for side in (args.parent, args.change) for p in (side / PACKAGE).glob("*.py")})
    print(f"{'module':<16}{'wc -l':>14}{'code':>14}{'d wc':>8}{'d code':>8}")
    totals = [0, 0, 0, 0]
    for name in names:
        (pw, pc), (cw, cc) = (counts(side / PACKAGE / name) for side in (args.parent, args.change))
        totals = [a + b for a, b in zip(totals, (pw, pc, cw, cc))]
        print(f"{name:<16}{f'{pw} -> {cw}':>14}{f'{pc} -> {cc}':>14}{cw - pw:>+8}{cc - pc:>+8}")
    pw, pc, cw, cc = totals
    print(f"{'total':<16}{f'{pw} -> {cw}':>14}{f'{pc} -> {cc}':>14}{cw - pw:>+8}{cc - pc:>+8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
