#!/usr/bin/env python3
"""Fails when a function declared in a src/ header is referenced nowhere.

A function counts as referenced when its name occurs, as an identifier
outside comments and string literals, anywhere in src/, bench/, examples/,
tools/, perfbench/src/ or tests/ other than in a declaration or definition
of a function of that name. Names are matched without their scope, so an
overload or a same-named member elsewhere keeps a name alive: the check
misses some dead functions but does not flag live ones.

The scanner is a small tokenizer, not a C++ parser. At namespace and class
scope, a statement whose first parenthesis at template depth 0 follows an
identifier declares (or defines) a function of that name, unless an `=`
comes first (a variable initializer) or the statement is a `using`,
`typedef`, `static_assert` or operator. Constructors and destructors are
skipped. Every other identifier token is a reference, including every
token inside a function body.

Usage: scripts/check_unreferenced.py [--root DIR]
Exits 1 and lists each unreferenced function with its declaration site.
"""

import argparse
import pathlib
import re
import sys

TREES = ("src", "bench", "examples", "tools", "perfbench/src", "tests")
SUFFIXES = (".hpp", ".cpp", ".h", ".cc")

# Functions that nothing references on purpose, one reason each.
ALLOWLIST = {
}

SCOPE_KEYWORDS = {"namespace", "class", "struct", "union", "enum"}
NOT_DECLARATORS = {
    "alignas", "alignof", "decltype", "noexcept", "requires", "sizeof",
    "static_assert", "__attribute__", "return", "if", "while", "for",
    "switch", "catch",
}
SKIP_STATEMENTS = {"using", "typedef", "static_assert"}

TOKEN = re.compile(r"[A-Za-z_]\w*|::|\S")


def strip_source(text):
    """Blanks comments, string/char literals and preprocessor lines,
    keeping newlines so that token line numbers stay right."""
    out = []
    i = 0
    n = len(text)
    line_start = True
    while i < n:
        c = text[i]
        if line_start and c in " \t":
            out.append(c)
            i += 1
            continue
        if line_start and c == "#":
            # Preprocessor directive, with backslash continuations.
            while i < n and text[i] != "\n":
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    out.append("\n")
                    i += 2
                    continue
                i += 1
            continue
        line_start = c == "\n"
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
            continue
        raw = c in "uULR" and re.match(r'(?:u8|[uUL])?R"([^(\s]*)\(',
                                        text[i:i + 40])
        if raw and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            end = text.find(")" + raw.group(1) + '"', i)
            end = n if end < 0 else end + len(raw.group(1)) + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
            continue
        if c == '"' or (c == "'" and not (i > 0 and text[i - 1].isalnum())):
            # A ' right after a digit or letter is a digit separator.
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(" ")
            i = j + 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def tokens_of(text):
    stripped = strip_source(text)
    line = 1
    pos = 0
    for m in TOKEN.finditer(stripped):
        line += stripped.count("\n", pos, m.start())
        pos = m.start()
        yield m.group(0), line


def is_ident(tok):
    return bool(tok) and (tok[0].isalpha() or tok[0] == "_")


def declarator(statement, class_name):
    """The function name a scope-level statement declares, or None, as an
    index into `statement` (a list of (token, line) pairs)."""
    toks = [t for t, _ in statement]
    if not toks or toks[0] in SKIP_STATEMENTS or "operator" in toks:
        return None
    depth = 0
    i = 0
    while i < len(toks):
        t = toks[i]
        if t == "<" and i > 0 and is_ident(toks[i - 1]):
            depth += 1
        elif t == ">" and depth > 0:
            depth -= 1
        elif t == "=" and depth == 0:
            return None
        elif t == "(" and depth == 0:
            name = toks[i - 1] if i > 0 else ""
            if not is_ident(name) or name in NOT_DECLARATORS:
                if name in NOT_DECLARATORS and name != "static_assert":
                    # Skip the parenthesized operand and keep looking.
                    level = 0
                    while i < len(toks):
                        level += toks[i] == "("
                        level -= toks[i] == ")"
                        if level == 0:
                            break
                        i += 1
                    i += 1
                    continue
                return None
            if i >= 2 and toks[i - 2] == "~":
                return None
            if name == class_name:
                return None
            return i - 1
        i += 1
    return None


def scan(path):
    """Yields (name, line, is_declaration) for every identifier token."""
    toks = list(tokens_of(path.read_text(encoding="utf-8", errors="replace")))
    # Scope stack: the class name of each enclosing class/struct (None for
    # a namespace), or the marker "body" inside a function body or any
    # other brace that does not open a scope.
    stack = []
    statement = []

    def flush():
        in_scope = not stack or stack[-1] != "body"
        if in_scope and statement:
            class_name = stack[-1] if stack else None
            at = declarator(statement, class_name)
            for k, (tok, line) in enumerate(statement):
                if is_ident(tok):
                    yield tok, line, k == at
        else:
            for tok, line in statement:
                if is_ident(tok):
                    yield tok, line, False
        statement.clear()

    for tok, line in toks:
        if tok == "{":
            head = [t for t, _ in statement]
            in_scope = not stack or stack[-1] != "body"
            opens_scope = False
            name = None
            if in_scope:
                kw = [k for k, t in enumerate(head) if t in SCOPE_KEYWORDS]
                if kw and "(" not in head[kw[-1]:] and "=" not in head:
                    opens_scope = True
                    after = [t for t in head[kw[-1] + 1:] if is_ident(t)]
                    after = [t for t in after if t not in ("class", "struct",
                                                           "final")]
                    name = after[0] if head[kw[-1]] in ("class", "struct",
                                                        "union") and after else None
            yield from flush()
            stack.append(name if opens_scope else "body")
        elif tok == "}":
            yield from flush()
            if stack:
                stack.pop()
        elif tok == ";":
            yield from flush()
        elif tok == ":" and statement and statement[-1][0] in (
                "public", "private", "protected"):
            statement.clear()
        else:
            statement.append((tok, line))
    yield from flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=pathlib.Path(__file__).parent.parent,
                        type=pathlib.Path)
    args = parser.parse_args()
    root = args.root.resolve()

    declared = {}  # name -> first declaration site in a src/ header
    references = {}
    for tree in TREES:
        for path in sorted((root / tree).rglob("*")):
            if path.suffix not in SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            header = rel.startswith("src/") and path.suffix in (".hpp", ".h")
            for name, line, is_decl in scan(path):
                if is_decl:
                    if header:
                        declared.setdefault(name, f"{rel}:{line}")
                else:
                    references[name] = references.get(name, 0) + 1

    unreferenced = sorted(n for n in declared
                          if references.get(n, 0) == 0 and n not in ALLOWLIST)
    stale = sorted(n for n in ALLOWLIST if references.get(n, 0) > 0
                   or n not in declared)
    for name in unreferenced:
        print(f"{declared[name]}: '{name}' is declared in a src/ header but "
              f"referenced nowhere in {', '.join(TREES)}", file=sys.stderr)
    for name in stale:
        print(f"allowlist entry '{name}' is stale (referenced, or no longer "
              "declared): remove it", file=sys.stderr)
    if unreferenced or stale:
        return 1
    print(f"check_unreferenced: {len(declared)} functions declared in src/ "
          f"headers, all referenced ({len(ALLOWLIST)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
