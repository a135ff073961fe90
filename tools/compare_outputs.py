"""Compare two reference output directories, allowing rounding in the last printed digit.

    python tools/compare_outputs.py <parent_dir> <change_dir>

Both directories come from tools/reference_outputs.py.  Every <i>.code,
<i>.out and <i>.err in either directory is compared with its namesake:

- a .code file must match exactly;
- .out and .err files must have equal line counts, and a line that differs is
  split on ",", "=" and whitespace into tokens that must pair up.  A token
  that is not a number must be equal.  A number b matches the parent's a when
  |a - b| <= max(10**(floor(log10|a|) - 11), 1e-14), one unit in the twelfth
  significant digit that %.12g prints.  Rows after an "index,re,im" header
  are state amplitudes and match within 1e-12 absolute.

Numbers are compared as decimals, so a tolerance is never blurred by binary
rounding.  Every differing line is printed with its file, line number and
verdict.  Exit 1 if any difference is out of tolerance, else 0.
"""
from __future__ import annotations

import os
import re
import sys
from decimal import Decimal, InvalidOperation

SUFFIXES = (".code", ".out", ".err")
SEPARATORS = re.compile(r"[,=\s]+")
AMPLITUDE_HEADER = "index,re,im"
AMPLITUDE_ATOL = Decimal("1e-12")
RELATIVE_FLOOR = Decimal("1e-14")


def tokens(line: str) -> list[str]:
    return [tok for tok in SEPARATORS.split(line) if tok]


def as_number(token: str) -> Decimal | None:
    try:
        return Decimal(token)
    except InvalidOperation:
        return None


def tolerance(a: Decimal, amplitude: bool) -> Decimal:
    if amplitude:
        return AMPLITUDE_ATOL
    if a == 0:
        return RELATIVE_FLOOR
    return max(Decimal(1).scaleb(a.adjusted() - 11), RELATIVE_FLOOR)


def lines_match(old: str, new: str, amplitude: bool) -> bool:
    old_tokens, new_tokens = tokens(old), tokens(new)
    if len(old_tokens) != len(new_tokens):
        return False
    for x, y in zip(old_tokens, new_tokens):
        if x == y:
            continue
        a, b = as_number(x), as_number(y)
        if a is None or b is None:
            return False
        if not (a.is_finite() and b.is_finite()):
            if a != b:  # NaN equals nothing
                return False
        elif abs(a - b) > tolerance(a, amplitude):
            return False
    return True


def compare_text(name: str, old: str, new: str) -> tuple[list[str], bool]:
    """Report lines for one .out or .err pair, and whether it is within tolerance."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{name}: {len(old_lines)} lines vs {len(new_lines)}: out of tolerance"], False
    report, ok, amplitude = [], True, False
    for number, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            within = lines_match(a, b, amplitude)
            ok = ok and within
            verdict = "within tolerance" if within else "out of tolerance"
            report += [f"{name}:{number}: {verdict}", f"  parent: {a}", f"  change: {b}"]
        amplitude = amplitude or a == AMPLITUDE_HEADER
    return report, ok


def read(directory: str, name: str) -> str | None:
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="ascii", errors="replace") as fh:
        return fh.read()


def compare(parent: str, change: str) -> tuple[list[str], bool]:
    names = sorted(
        {n for d in (parent, change) for n in os.listdir(d) if n.endswith(SUFFIXES)},
        key=lambda n: (n.split(".")[0].zfill(6), n),
    )
    report, ok = [], True
    for name in names:
        old, new = read(parent, name), read(change, name)
        if old == new:
            continue
        if old is None or new is None:
            side = "parent" if old is None else "change"
            report.append(f"{name}: missing in the {side} directory: out of tolerance")
            ok = False
        elif name.endswith(".code"):
            report.append(f"{name}: exit code {old.strip()} -> {new.strip()}: out of tolerance")
            ok = False
        else:
            lines, within = compare_text(name, old, new)
            report += lines
            ok = ok and within
    return report, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py <parent_dir> <change_dir>", file=sys.stderr)
        return 2
    missing = [d for d in argv if not os.path.isdir(d)]
    if missing:
        print(f"error: not a directory: {missing[0]}", file=sys.stderr)
        return 2
    report, ok = compare(*argv)
    for line in report:
        print(line)
    print("all within tolerance" if ok else "out of tolerance")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
