#!/usr/bin/env python3
"""Check that a regenerated golden is the old golden minus dropped fields.

Usage: check_golden_drop.py [--column NAME]... [--field NAME]... OLD NEW

OLD and NEW are both CSV files (first line the header) or both JSONL files,
told apart by extension. Each --column NAME is cut from every CSV row of OLD;
each --field NAME is cut from every top-level JSON object of OLD. The cuts
are made on the raw text, so every other byte keeps its exact spelling
(quoting, key order, number formatting). The result must equal NEW byte for
byte. Exit 0 when it does, 1 with the first differing line when it does not,
2 on bad usage or input.

To check a regenerated golden against the committed one:

  git show HEAD:tests/golden/pinned_sweep.csv > /tmp/old.csv
  python3 scripts/check_golden_drop.py --column phases \\
      /tmp/old.csv tests/golden/pinned_sweep.csv
"""

import argparse
import json
import sys


def split_raw(line, sep, quote_aware_depth):
    """Splits `line` at each `sep` outside strings (and, for JSON, outside
    nested arrays/objects), returning the raw pieces."""
    pieces, start, depth, in_str, i = [], 0, 0, False, 0
    while i < len(line):
        ch = line[i]
        if in_str:
            if quote_aware_depth and ch == "\\":
                i += 1  # JSON escape: skip the escaped character
            elif ch == '"':
                in_str = False
        elif ch == '"':
            in_str = True
        elif quote_aware_depth and ch in "[{":
            depth += 1
        elif quote_aware_depth and ch in "]}":
            depth -= 1
        elif ch == sep and depth == 0:
            pieces.append(line[start:i])
            start = i + 1
        i += 1
    pieces.append(line[start:])
    return pieces


def drop_csv(lines, columns):
    """CSV quotes a field containing a comma in double quotes and doubles an
    embedded quote; toggling on every quote handles both."""
    header = split_raw(lines[0], ",", False)
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"header has no column {missing[0]!r}")
    keep = [i for i, name in enumerate(header) if name not in columns]
    out = []
    for lineno, line in enumerate(lines, 1):
        fields = split_raw(line, ",", False)
        if len(fields) != len(header):
            raise ValueError(f"line {lineno}: {len(fields)} fields, header "
                             f"has {len(header)}")
        out.append(",".join(fields[i] for i in keep))
    return out


def drop_jsonl(lines, fields):
    out = []
    for lineno, line in enumerate(lines, 1):
        doc = json.loads(line)
        if not isinstance(doc, dict) or not (line.startswith("{")
                                             and line.endswith("}")):
            raise ValueError(f"line {lineno}: not one JSON object")
        members = split_raw(line[1:-1], ",", True)
        kept = [m for m in members
                if json.loads(split_raw(m, ":", True)[0]) not in fields]
        out.append("{" + ",".join(kept) + "}")
    return out


def main(argv):
    ap = argparse.ArgumentParser(
        description="old golden minus dropped fields == new golden")
    ap.add_argument("--column", action="append", default=[])
    ap.add_argument("--field", action="append", default=[])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)

    is_csv = args.old.endswith(".csv")
    if is_csv != args.new.endswith(".csv"):
        print("OLD and NEW must both be .csv or both be .jsonl",
              file=sys.stderr)
        return 2
    dropped = args.column if is_csv else args.field
    if not dropped:
        print("name at least one --column (CSV) or --field (JSONL)",
              file=sys.stderr)
        return 2
    with open(args.old, encoding="utf-8", newline="") as f:
        old = f.read()
    with open(args.new, encoding="utf-8", newline="") as f:
        new = f.read()

    lines = old.split("\n")
    trailing = lines[-1] == ""
    if trailing:
        lines.pop()
    try:
        cut = drop_csv(lines, dropped) if is_csv else drop_jsonl(lines, dropped)
    except (ValueError, json.JSONDecodeError) as e:
        print(f"{args.old}: {e}", file=sys.stderr)
        return 2
    projected = "\n".join(cut) + ("\n" if trailing else "")

    if projected == new:
        print(f"{args.new}: OK, equals {args.old} minus "
              f"{', '.join(dropped)} ({len(cut)} lines)")
        return 0
    want, got = projected.split("\n"), new.split("\n")
    for lineno, (a, b) in enumerate(zip(want, got), 1):
        if a != b:
            print(f"{args.new}:{lineno}: differs from the projected old line\n"
                  f"  projected: {a}\n  new:       {b}", file=sys.stderr)
            return 1
    print(f"{args.new}: {len(got)} lines, the projection has {len(want)}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
