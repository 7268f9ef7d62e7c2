"""Count the lines of src/parkfun, as CI's "Source size" step reports them.

All lines, then code lines per module and in all: a code line holds a token
other than a comment or a line break (tokenize) and is no docstring line
(ast). Standard library only.

    python tools/source_size.py            # the working tree
    python tools/source_size.py HEAD~1     # a git revision, read with git show
"""

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/parkfun"
PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _git(*args: str) -> bytes:
    """git's output; on failure, git's own message and exit status."""
    done = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE)
    if done.returncode:
        raise SystemExit(done.returncode)
    return done.stdout


def modules(revision: str | None) -> list[tuple[str, bytes]]:
    """(path, contents) of each module directly under src/parkfun, by path,
    from the working tree or from `revision`."""
    if revision is None:
        return [(f"{PACKAGE}/{p.name}", p.read_bytes()) for p in sorted((ROOT / PACKAGE).glob("*.py"))]
    names = _git("ls-tree", "-z", "--name-only", revision, f"{PACKAGE}/").decode().split("\0")
    return [(name, _git("show", f"{revision}:{name}")) for name in sorted(names) if name.endswith(".py")]


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    lines = {n for t in tokens if t.type not in PROSE for n in range(t.start[0], t.end[0] + 1)}
    return len(lines - docs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revision", nargs="?", help="a git revision; the working tree when left out")
    files = modules(parser.parse_args().revision)
    lines = sum(data.count(b"\n") for _, data in files)
    print(f"{PACKAGE}: {lines} lines")
    code = 0
    for name, data in files:
        count = code_lines(data.decode("utf-8"))
        print(f"{name}: {count} code lines")
        code += count
    print(f"{PACKAGE}: {code} code lines")


if __name__ == "__main__":
    main()
