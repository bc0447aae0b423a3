"""Tripwires on the size and the import graph of ``src/ucadiv``.

The package is to stay the same size or smaller.  A change that needs more
lines raises a limit below, a one-line diff, and says in CHANGES.md which
lines pay for it.  ``python3 tests/test_source_size.py`` prints both counts
per module, then the totals.  Its modules import each other at module level
only, and in an order without a cycle.
"""

import ast
import graphlib
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ucadiv"

MAX_LINES = 2411  # every line of src/ucadiv/*.py
MAX_CODE_LINES = 1463  # without blank lines, comments and docstrings

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def code_lines(text):
    """Number of lines that hold a token other than a comment or docstring.

    A docstring is a string token that makes up a whole statement.
    """
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for prev, tok, nxt in zip([None] + tokens, tokens, tokens[1:] + [None]):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (prev is None or prev.type in _STATEMENT_START)
                and nxt is not None and nxt.type == tokenize.NEWLINE):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def module_sizes():
    """{module file name: (lines, code lines)} over the package."""
    texts = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    return {name: (len(t.splitlines()), code_lines(t))
            for name, t in texts.items()}


def source_size():
    """(lines, code lines) over every module of the package."""
    sizes = module_sizes().values()
    return sum(s[0] for s in sizes), sum(s[1] for s in sizes)


def package_imports():
    """(graph, nested) of the package's own imports, read with ``ast``.

    ``graph`` maps each module to the package modules it imports, and
    ``nested`` lists "file:line" of each such import below module level.
    No module is imported.
    """
    graph, nested = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            # "from .x import f" imports x, "from . import x, y" x and y
            deps.update([node.module] if node.module
                        else (alias.name for alias in node.names))
            if node not in tree.body:
                nested.append(f"{path.name}:{node.lineno}")
    return graph, nested


def test_code_lines_skip_comments_and_docstrings():
    text = ('"""Module."""\n\n# note\n\n\ndef f(x):\n    """Doc\n\n    more\n'
            '    """\n    y = ("a"\n         "b")  # tail\n    return y\n')
    assert code_lines(text) == 4


def test_source_stays_within_its_line_limits():
    lines, code = source_size()
    hint = ("raise the limit in tests/test_source_size.py only with a "
            "CHANGES.md line that says which lines pay for it")
    assert lines <= MAX_LINES, f"{lines} lines in src/ucadiv: {hint}"
    assert code <= MAX_CODE_LINES, f"{code} code lines in src/ucadiv: {hint}"



def test_package_imports_are_module_level_and_acyclic():
    graph, nested = package_imports()
    assert not nested, f"imports inside a function or block: {nested}"
    graphlib.TopologicalSorter(graph).prepare()  # CycleError names a cycle


if __name__ == "__main__":
    for name, (lines, code) in [*module_sizes().items(),
                                ("total", source_size())]:
        print(f"{name:<12} {lines:5d} {code:5d}")
