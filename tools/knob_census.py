#!/usr/bin/env python3
"""Counts the settable config fields of the library.

A settable field is a non-static data member of a struct whose name ends in
`Config` or `Options`, declared anywhere under the source tree, including
the members of structs nested inside such a struct (ServeSessionConfig's
`Fleet`, `Generations`, ...). A nested struct declared together with a
member (`struct Fleet { ... } fleet;`) counts its own members only: the
member that holds it sets nothing by itself. Skipped: `static` members
(named constants) and `std::function` members (callbacks are hooks a
caller plugs in, not values it tunes).

Usage:
  tools/knob_census.py [--src DIR] [--max N]

Prints one line per struct ("<file>:<line> <Struct> <count>") and the
total. With --max, exits 1 when the total exceeds N, so a new knob has to
raise the pin on purpose.
"""

import argparse
import pathlib
import re
import sys

STRUCT_RE = re.compile(r"\bstruct\s+(\w+)\s*(?::[^{;]*)?\{")
CONFIG_NAME_RE = re.compile(r"(Config|Options)$")


def strip_comments(text):
    """Blanks comments and string literals, keeping offsets and newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        two = text[i:i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif text[i] in "\"'":
            quote = text[i]
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + quote)
            i = j
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def matching_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced braces")


def strip_templates(decl):
    """Drops <...> argument lists (a std::function<void(int)> is no call)."""
    prev = None
    while prev != decl:
        prev = decl
        decl = re.sub(r"<[^<>]*>", "", decl)
    return decl


def is_function(head):
    head = strip_templates(head)
    # The declarator ends at the initializer, if any.
    head = re.split(r"=", head, maxsplit=1)[0]
    return "(" in head


def count_members(body):
    """Counts the data members in a struct body (the text inside its braces),
    nested structs' members included."""
    count = 0
    i, n = 0, len(body)
    start = 0
    while i < n:
        c = body[i]
        if c == "{":
            head = body[start:i]
            close = matching_brace(body, i)
            if re.match(r"\s*struct\s+\w+\s*$", head):
                count += count_members(body[i + 1:close])
                # Skip the declarator that may follow: `} fleet;`.
                end = body.find(";", close)
                i = n if end < 0 else end + 1
                start = i
                continue
            if is_function(head) and "=" not in head:
                # An inline function body; no ';' follows it.
                i = close + 1
                start = i
                continue
            i = close + 1  # a brace initializer: `x{1}`
            continue
        if c == ";":
            stmt = " ".join(body[start:i].split())
            start = i + 1
            i += 1
            stmt = re.sub(r"^(public|private|protected)\s*:\s*", "", stmt)
            if not stmt:
                continue
            first = stmt.split()[0]
            if first in ("static", "using", "typedef", "friend", "enum",
                         "struct", "class", "template"):
                continue
            if stmt.startswith("std::function<") or is_function(stmt):
                continue
            count += 1
            continue
        i += 1
    return count


def census(src):
    rows = []
    for path in sorted(pathlib.Path(src).rglob("*")):
        if path.suffix not in (".hpp", ".h", ".cpp"):
            continue
        text = strip_comments(path.read_text())
        for m in STRUCT_RE.finditer(text):
            name = m.group(1)
            if not CONFIG_NAME_RE.search(name):
                continue
            open_pos = m.end() - 1
            close = matching_brace(text, open_pos)
            # A Config struct nested in another is counted inside its parent.
            if any(r[3] < m.start() < r[4] for r in rows if r[0] == path):
                continue
            count = count_members(text[open_pos + 1:close])
            line = text.count("\n", 0, m.start()) + 1
            rows.append((path, line, name, open_pos, close, count))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = pathlib.Path(__file__).resolve().parent.parent
    parser.add_argument("--src", default=str(root / "src"))
    parser.add_argument("--max", type=int, default=None,
                        help="fail when the total exceeds this pin")
    args = parser.parse_args()

    rows = census(args.src)
    total = 0
    for path, line, name, _, _, count in rows:
        rel = path.relative_to(pathlib.Path(args.src).parent)
        print(f"{rel}:{line} {name} {count}")
        total += count
    print(f"total {total}")
    if args.max is not None and total > args.max:
        print(f"FAIL: {total} settable config fields, pinned at most "
              f"{args.max}; a new knob raises the pin in tests/CMakeLists.txt "
              f"and says why in CHANGES.md", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
