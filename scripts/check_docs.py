#!/usr/bin/env python3
"""Documentation-coverage gate: the README / architecture docs must keep
up with the code.

Fails when:
  * any `bench/bench_fig*.cpp` binary is not mentioned in the docs
    (every figure-reproduction bench must be mapped to its paper figure);
  * any `src/<subsystem>/` directory is not mentioned in the docs
    (the layer map must cover every subsystem);
  * any scenario registered under src/filter/ (add_scenario("name", ...)
    or register_scenario("name", ...)) is not mentioned in the docs
    (the scenario suite must stay documented);
  * any update policy registered under src/autonomy/ (add_policy or
    register_policy with a string-literal name) is not mentioned in the
    docs (the wake-up policy suite must stay documented);
  * any admission policy registered under src/fleet/
    (add_admission_policy or register_admission_policy with a
    string-literal name) is not mentioned in the docs, or docs/fleet.md
    lacks a QoS section (the fleet QoS layer must stay documented);
  * the admission-policy table in docs/fleet.md (the table whose header
    row starts with "| Policy |") is missing, or names a policy that no
    add_admission_policy / register_admission_policy call registers
    (a deleted policy must not keep a stale row);
  * the column-kernel conformance harness is undocumented: docs/conformance.md
    must exist and the docs must mention tests/conformance;
  * a required doc file is missing.

Usage:
  scripts/check_docs.py [--repo-root .]
"""

import argparse
import glob
import os
import re
import sys

DOC_FILES = [
    "README.md",
    os.path.join("docs", "architecture.md"),
    os.path.join("docs", "closed_loop.md"),
    os.path.join("docs", "conformance.md"),
    os.path.join("docs", "fleet.md"),
]

# Test trees whose existence the docs must acknowledge (harnesses with
# their own entry points, beyond the plain tests/test_*.cpp files).
TEST_TREES = [
    "tests/conformance",
]

# Subsystems whose documentation must live in a dedicated doc file, not
# just a passing README mention: subsystem -> required doc file.
SUBSYSTEM_DOCS = {
    "fleet": os.path.join("docs", "fleet.md"),
}

SCENARIO_RE = re.compile(
    r'(?:add_scenario|register_scenario)\(\s*"([A-Za-z0-9_]+)"')

POLICY_RE = re.compile(
    r'(?:add_policy|register_policy)\(\s*"([A-Za-z0-9_]+)"')

ADMISSION_RE = re.compile(
    r'(?:add_admission_policy|register_admission_policy)'
    r'\(\s*"([A-Za-z0-9_]+)"')

# docs/fleet.md must keep a dedicated QoS section (a heading mentioning
# QoS), not just scattered mentions of the policy names.
QOS_SECTION_RE = re.compile(r"^#{2,}\s.*\bQoS\b", re.MULTILINE)

# The admission-policy table in docs/fleet.md: its header row, and the
# backticked policy name opening each body row's first cell.
POLICY_TABLE_HEADER_RE = re.compile(r"^\|\s*Policy\s*\|")
POLICY_TABLE_ROW_RE = re.compile(r"^\|\s*`([A-Za-z0-9_]+)`")

# docs/architecture.md must keep a dedicated compute-reuse section (a
# heading mentioning compute reuse) documenting the delta dispatch and
# the chain-parallel engine.
REUSE_SECTION_RE = re.compile(r"^#{2,}\s.*\b[Cc]ompute reuse\b",
                              re.MULTILINE)


def registered_names(root, subdir, pattern):
    names = []
    for path in sorted(glob.glob(os.path.join(root, "src", subdir,
                                              "*.cpp"))):
        with open(path, encoding="utf-8") as f:
            names.extend(pattern.findall(f.read()))
    return sorted(set(names))


def registered_scenarios(root):
    return registered_names(root, "filter", SCENARIO_RE)


def registered_policies(root):
    return registered_names(root, "autonomy", POLICY_RE)


def registered_admission_policies(root):
    return registered_names(root, "fleet", ADMISSION_RE)


def documented_admission_policies(fleet_doc_text):
    """Policy names in the admission-policy table, or None if absent."""
    lines = fleet_doc_text.splitlines()
    for i, line in enumerate(lines):
        if not POLICY_TABLE_HEADER_RE.match(line):
            continue
        names = []
        for row in lines[i + 1:]:
            if not row.startswith("|"):
                break
            m = POLICY_TABLE_ROW_RE.match(row)
            if m:
                names.append(m.group(1))
        return names
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo-root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir))
    args = ap.parse_args()
    root = os.path.abspath(args.repo_root)

    failures = []
    docs_text = ""
    for rel in DOC_FILES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            failures.append(f"required doc file missing: {rel}")
            continue
        with open(path, encoding="utf-8") as f:
            docs_text += f.read()

    fig_benches = sorted(
        os.path.splitext(os.path.basename(p))[0]
        for p in glob.glob(os.path.join(root, "bench", "bench_fig*.cpp")))
    if not fig_benches:
        failures.append("no bench/bench_fig*.cpp found (wrong --repo-root?)")
    for name in fig_benches:
        if name not in docs_text:
            failures.append(
                f"figure bench '{name}' is not mentioned in the docs "
                f"({' / '.join(DOC_FILES)})")

    subsystems = sorted(
        d for d in os.listdir(os.path.join(root, "src"))
        if os.path.isdir(os.path.join(root, "src", d)))
    if not subsystems:
        failures.append("no src/ subdirectories found (wrong --repo-root?)")
    for sub in subsystems:
        if f"src/{sub}" not in docs_text and f"`{sub}`" not in docs_text:
            failures.append(
                f"subsystem 'src/{sub}' is not mentioned in the docs "
                f"({' / '.join(DOC_FILES)})")
    for sub, doc in sorted(SUBSYSTEM_DOCS.items()):
        path = os.path.join(root, doc)
        if not os.path.exists(path):
            continue  # already reported as a missing required doc file
        with open(path, encoding="utf-8") as f:
            if f"src/{sub}" not in f.read():
                failures.append(
                    f"subsystem 'src/{sub}' must be documented in its "
                    f"dedicated doc file {doc}")

    scenarios = registered_scenarios(root)
    if not scenarios:
        failures.append(
            "no registered scenarios found under src/filter/ "
            "(wrong --repo-root, or the registry moved?)")
    for name in scenarios:
        if name not in docs_text:
            failures.append(
                f"registered scenario '{name}' is not mentioned in the "
                f"docs ({' / '.join(DOC_FILES)})")

    for tree in TEST_TREES:
        if not os.path.isdir(os.path.join(root, tree)):
            failures.append(f"documented test tree '{tree}' is missing")
        if tree not in docs_text:
            failures.append(
                f"test tree '{tree}' is not mentioned in the docs "
                f"({' / '.join(DOC_FILES)})")

    policies = registered_policies(root)
    if not policies:
        failures.append(
            "no registered update policies found under src/autonomy/ "
            "(wrong --repo-root, or the registry moved?)")
    for name in policies:
        if name not in docs_text:
            failures.append(
                f"registered update policy '{name}' is not mentioned in "
                f"the docs ({' / '.join(DOC_FILES)})")

    admissions = registered_admission_policies(root)
    if not admissions:
        failures.append(
            "no registered admission policies found under src/fleet/ "
            "(wrong --repo-root, or the registry moved?)")
    for name in admissions:
        if name not in docs_text:
            failures.append(
                f"registered admission policy '{name}' is not mentioned "
                f"in the docs ({' / '.join(DOC_FILES)})")
    fleet_doc = os.path.join(root, "docs", "fleet.md")
    if os.path.exists(fleet_doc):
        with open(fleet_doc, encoding="utf-8") as f:
            fleet_text = f.read()
        if not QOS_SECTION_RE.search(fleet_text):
            failures.append(
                "docs/fleet.md must keep a QoS section (a heading "
                "mentioning QoS)")
        table = documented_admission_policies(fleet_text)
        if table is None:
            failures.append(
                "docs/fleet.md must keep the admission-policy table "
                "(header row starting '| Policy |')")
        else:
            for name in table:
                if name not in admissions:
                    failures.append(
                        f"docs/fleet.md policy table lists '{name}', "
                        f"which no add_admission_policy / "
                        f"register_admission_policy call registers")
    arch_doc = os.path.join(root, "docs", "architecture.md")
    if os.path.exists(arch_doc):
        with open(arch_doc, encoding="utf-8") as f:
            if not REUSE_SECTION_RE.search(f.read()):
                failures.append(
                    "docs/architecture.md must keep a compute-reuse "
                    "section (a heading mentioning compute reuse)")

    print(f"[check_docs] {len(fig_benches)} figure benches, "
          f"{len(subsystems)} src subsystems, "
          f"{len(scenarios)} registered scenarios, "
          f"{len(policies)} registered policies, "
          f"{len(admissions)} registered admission policies checked "
          f"against {' + '.join(DOC_FILES)}: {len(failures)} failure(s)")
    for f in failures:
        print(f"[check_docs] FAILURE: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
