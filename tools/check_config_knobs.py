#!/usr/bin/env python3
"""Checks that every ftmp::Config field is a setting some workload sets.

A field of ftmp::Config (src/ftmp/config.hpp) passes when a bench, the
wall-clock benchmark, an example, a tool or the chaos engine assigns it
through a variable that file declares as a `Config` (`cfg.x = ...`,
`m.config.x = ...`). A value that only tests set is not a setting: it
belongs in a named constant beside the code that reads it. The fields in
ALLOWED pass for the reason given there.

Every `;`-terminated declaration in the struct body counts as a field; one
the script cannot read as `type name [= value | {value}]` (a member
function, a nested type, a static member) stops the check with status 1
rather than being skipped.

Usage: python3 tools/check_config_knobs.py [REPO_ROOT]
Exit status 0 when every field passes, 1 when some do not (they are named)
or when the struct cannot be read.
"""

import pathlib
import re
import sys

ALLOWED = {
    "byte_order": "heterogeneous hosts pick it "
                  "(Robustness.MixedByteOrderGroupInteroperates)",
    "max_out_of_order_buffer": "a cap on outside input, a defence against "
                               "pathological senders",
}

# Where a workload sets the stack's configuration.
WORKLOAD_PATHS = ("bench", "perfbench", "examples", "tools", "src/ftmp/chaos.cpp")
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")

NOT_A_FIELD = re.compile(r"(using|static|friend|enum|struct|class|typedef)\b|.*\(")
FIELD = re.compile(r"[\w:<>,\s*&]+[\s>*&]([A-Za-z_]\w*)")
CONFIG_VARIABLE = re.compile(r"\bConfig\b\s*[&*]?\s*([A-Za-z_]\w*)")


def fail(message):
    print(f"check_config_knobs: {message}")
    sys.exit(1)


def config_fields(header):
    """The field names of `struct Config`, in declaration order."""
    body = re.search(r"^struct Config \{\n(.*?)^\};", header, re.S | re.M)
    if body is None:
        fail("no `struct Config` in config.hpp")
    code = re.sub(r"/\*.*?\*/", " ", body.group(1), flags=re.S)
    code = re.sub(r"//[^\n]*", " ", code)
    declarations = [d.strip() for d in code.split(";")]
    if declarations[-1]:
        fail(f"cannot read `{declarations[-1]}` in struct Config: no `;`")
    fields = []
    for decl in declarations[:-1]:
        head = re.split(r"[={]", decl, maxsplit=1)[0].strip()
        match = None if NOT_A_FIELD.match(head) else FIELD.fullmatch(head)
        if match is None:
            fail(f"cannot read `{' '.join(decl.split())}` in struct Config "
                 "as a field")
        fields.append(match.group(1))
    return fields


def assigned_fields(root):
    """Every field name assigned through a `Config` variable in the
    workload sources."""
    assigned = set()
    for rel in WORKLOAD_PATHS:
        path = root / rel
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if not (f.is_file() and f.suffix in SOURCE_SUFFIXES):
                continue
            text = f.read_text(errors="replace")
            names = set(CONFIG_VARIABLE.findall(text))
            if not names:
                continue
            target = r"\b(?:" + "|".join(sorted(names)) + r")\s*(?:\.|->)\s*"
            assigned.update(re.findall(target + r"(\w+)\s*=(?!=)", text))
    return assigned


def main():
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent
    fields = config_fields((root / "src/ftmp/config.hpp").read_text())
    assigned = assigned_fields(root)
    unset = [f for f in fields if f not in ALLOWED and f not in assigned]
    stale = sorted(set(ALLOWED) - set(fields))
    for f in unset:
        print(f"check_config_knobs: Config::{f} is set by no workload "
              f"({', '.join(WORKLOAD_PATHS)}); make it a named constant")
    for f in stale:
        print(f"check_config_knobs: allowlisted Config::{f} no longer exists")
    if unset or stale:
        return 1
    print(f"check_config_knobs: ok, {len(fields)} fields, "
          f"{len(fields) - len(ALLOWED)} set by a workload, "
          f"{len(ALLOWED)} allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
