#!/usr/bin/env python3
"""tertio_lint v2 — multi-pass repo-specific static analysis for tertio.

The analyzer parses every source file once into a shared cache (raw lines +
comment/string-stripped lines) and then runs *rule packs* over it. Packs are
selectable with `--rules=pack1,pack2` (default: all), so CI can run the
dimensional-safety pack standalone while the full pre-commit gate runs
everything.

Rule packs
==========

error-discipline
    `Status` and `Result<T>` in src/util/status.h must be declared
    [[nodiscard]] (the compiler then flags every discarded return; this check
    keeps the attribute from regressing), and explicit `(void)` discards of a
    call must carry a justifying comment on the same line.

hot-path
    The simulator and the join executors must stay deterministic and
    allocation-predictable, so `std::unordered_map` / `std::unordered_multimap`
    (iteration-order nondeterminism), `rand` / `srand` (hidden global state)
    and wall-clock reads (`std::chrono` clocks, `gettimeofday`,
    `clock_gettime`, `time(...)`) are banned in src/join and src/sim.

span-registry
    Every pipeline phase label used by the join executors and the pipeline
    engine must appear in src/sim/span_registry.h, and every registry entry
    must be used somewhere (no orphans). Phase literals special-cased by
    sim/trace_report.cc or src/exec/report.cc must be registered too — a
    typo'd label silently forks a report row.

encapsulation
    - mount: direct `TapeLibrary::Mount` calls are confined to src/tape and
      src/exec; everywhere else mounts go through exec::QuerySession
      (MountR/MountS) or the QueryScheduler.
    - extent-cache: `ExtentCache::Admit` / `ExtentCache::ReadThrough` are
      confined to src/disk and src/exec.
    - drive-lease: `Site::AcquireDrives` / `Site::LeaseDrives` are confined
      to src/exec; everywhere else drive ownership flows through an
      exec::QuerySession so the RAII lease guard (and SimSan's
      lease-exclusivity ledger) cannot be bypassed.
    - simd: raw SIMD intrinsics and intrinsic headers are confined to
      src/join/simd.h; CMake defaults must not pin -march/-mcpu/-mtune.
    - join-admission: under src/join, `BudgetLease::Acquire` is confined to
      src/join/join_method.cc, the admission step. A join's one memory lease
      is taken there, for exactly the planned memory that Requirements()
      reports, so no executor can reserve memory admission did not check.

units
    Dimensional-safety pack backing the strong types in src/util/units.h:
    - units-raw-param: a function parameter in a src/ header typed
      `uint64_t`/`size_t` but *named* `*_blocks`/`*_bytes` (or `double` named
      `*_seconds`) reintroduces the raw-typedef hole the strong types closed.
      Declare it `Blocks`/`Bytes`/`SimSeconds` instead. `--fix` rewrites the
      parameter type in place.
    - units-unwrap: `.value()` escapes in src/ headers (the inline API
      surface) leak raw representations past the type system; each one needs
      a `// tertio-lint: allow(units-unwrap)` waiver explaining why the raw
      value is required (container sizing, ordering keys, printf).
      Implementation (.cc) files may unwrap freely at boundaries.
    - units-arg-order: `BytesToBlocks(bytes, block_bytes)` and
      `BlocksToBytes(blocks, block_bytes)` call sites whose first argument
      *names* the wrong dimension, or whose second argument does not look
      like a block size, are flagged. The strong types already reject a
      swapped call at compile time when both arguments are typed; this
      catches sites where raw `.value()` escapes or literals defeat that.

Waive a specific line with `// tertio-lint: allow(<rule>[, <rule>...])` on
that line or the line above.

Exit status: 0 with no findings, 1 otherwise. Output: `file:line: [rule] msg`.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

DEFAULT_REPO = pathlib.Path(__file__).resolve().parent.parent.parent

WAIVER_RE = re.compile(r"//\s*tertio-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# ---------------------------------------------------------------------------
# Shared single-parse file cache
# ---------------------------------------------------------------------------


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments, preserving line structure so
    reported line numbers stay correct. String/char literals are kept."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append(c + nxt)
                i += 2
                continue
            if c == '"':
                state = "code"
            out.append(c)
        elif state == "char":
            if c == "\\":
                out.append(c + nxt)
                i += 2
                continue
            if c == "'":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


class SourceFile:
    """One parsed source file: raw text/lines plus comment-stripped lines."""

    def __init__(self, path: pathlib.Path):
        self.path = path
        self.raw = path.read_text()
        self.raw_lines = self.raw.splitlines()
        self.stripped = strip_comments(self.raw)
        self.stripped_lines = self.stripped.splitlines()

    def waivers_for(self, lineno: int) -> set[str]:
        """Rules waived for 1-based `lineno` via allow() on it or above."""
        waived: set[str] = set()
        for candidate in (lineno - 1, lineno - 2):
            if 0 <= candidate < len(self.raw_lines):
                m = WAIVER_RE.search(self.raw_lines[candidate])
                if m:
                    waived.update(r.strip() for r in m.group(1).split(","))
        return waived


class Repo:
    """Lazily parses and caches sources under one repo root."""

    def __init__(self, root: pathlib.Path):
        self.root = root
        self._cache: dict[pathlib.Path, SourceFile] = {}

    def file(self, path: pathlib.Path) -> SourceFile:
        if path not in self._cache:
            self._cache[path] = SourceFile(path)
        return self._cache[path]

    def sources(self, dirs: tuple[str, ...], suffixes=(".h", ".cc", ".cpp")):
        for d in dirs:
            root = self.root / d
            if not root.exists():
                continue
            for path in sorted(root.rglob("*")):
                if path.suffix in suffixes and path.is_file():
                    yield self.file(path)


class Finding:
    def __init__(self, path: pathlib.Path, line: int, rule: str, message: str,
                 fix=None):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        # Optional mechanical fix: (old_line_text, new_line_text).
        self.fix = fix

    def rel(self, root: pathlib.Path) -> str:
        try:
            return self.path.relative_to(root).as_posix()
        except ValueError:
            return str(self.path)


# ---------------------------------------------------------------------------
# error-discipline pack
# ---------------------------------------------------------------------------

VOID_DISCARD_RE = re.compile(r"^\s*\(void\)\s*[A-Za-z_][\w:.>-]*\s*\(")


def check_error_discipline(repo: Repo, findings: list[Finding]) -> None:
    status_h = repo.root / "src" / "util" / "status.h"
    text = repo.file(status_h).raw
    if not re.search(r"class\s+\[\[nodiscard\]\]\s+Status\b", text):
        findings.append(Finding(status_h, 1, "nodiscard",
                                "class Status must be declared [[nodiscard]]"))
    if not re.search(r"class\s+\[\[nodiscard\]\]\s+Result\b", text):
        findings.append(Finding(status_h, 1, "nodiscard",
                                "class Result<T> must be declared [[nodiscard]]"))
    for src in repo.sources(("src", "tools")):
        for idx, line in enumerate(src.stripped_lines):
            if VOID_DISCARD_RE.match(line):
                raw = src.raw_lines[idx] if idx < len(src.raw_lines) else ""
                if "//" not in raw and "discard" not in src.waivers_for(idx + 1):
                    findings.append(Finding(
                        src.path, idx + 1, "discard",
                        "(void)-discard of a return value needs a justifying "
                        "comment on the same line (or tertio-lint: allow(discard))"))


# ---------------------------------------------------------------------------
# hot-path pack
# ---------------------------------------------------------------------------

HOT_DIRS = ("src/join", "src/sim")

BANNED = [
    ("unordered-map", re.compile(r"\bstd::unordered_(?:multi)?map\b"),
     "hashed maps are banned in hot paths (nondeterministic iteration order); "
     "use the flat table, std::map, or a vector"),
    ("rand", re.compile(r"\b(?:std::)?s?rand\s*\("),
     "rand()/srand() hide global state; use util/rng.h (seeded, per-stream)"),
    ("wall-clock", re.compile(
        r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b"
        r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\b(?:std::)?time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "wall-clock reads in the simulator break virtual-time determinism; "
     "thread SimSeconds through instead"),
]


def check_hot_paths(repo: Repo, findings: list[Finding]) -> None:
    for src in repo.sources(HOT_DIRS):
        for idx, line in enumerate(src.stripped_lines):
            for rule, pattern, message in BANNED:
                if pattern.search(line) and rule not in src.waivers_for(idx + 1):
                    findings.append(Finding(src.path, idx + 1, rule, message))
            if re.search(r"#\s*include\s*<unordered_map>", line) \
                    and "unordered-map" not in src.waivers_for(idx + 1):
                findings.append(Finding(src.path, idx + 1, "unordered-map",
                                        "#include <unordered_map> in a hot-path directory"))


# ---------------------------------------------------------------------------
# encapsulation pack (mount, extent-cache, drive-lease, simd, join-admission)
# ---------------------------------------------------------------------------

MOUNT_DIRS = ("src", "tools", "examples", "bench")
MOUNT_ALLOWED = ("src/tape", "src/exec")
MOUNT_RE = re.compile(r"(?:\.|->)\s*Mount\s*\(")

CACHE_DIRS = ("src", "tools", "examples", "bench")
CACHE_ALLOWED = ("src/disk", "src/exec")
CACHE_RE = re.compile(r"(?:\.|->)\s*(?:Admit|ReadThrough)\s*\(")

DRIVE_DIRS = ("src", "tools", "examples", "bench")
DRIVE_ALLOWED = ("src/exec",)
DRIVE_RE = re.compile(r"(?:\.|->)\s*(?:AcquireDrives|LeaseDrives)\s*\(")

ADMISSION_DIRS = ("src/join",)
ADMISSION_ALLOWED = ("src/join/join_method.cc",)
ADMISSION_RE = re.compile(r"\bBudgetLease\s*::\s*Acquire\s*\(")

SIMD_DIRS = ("src", "tools", "examples", "bench", "tests")
SIMD_ALLOWED = ("src/join/simd.h",)
SIMD_RE = re.compile(
    r"\b_mm(?:256|512)?_[a-z0-9_]+\s*\("
    r"|\bv(?:ld|st)[1-4]q?_[a-z0-9_]+\s*\("
    r"|\bv(?:ceq|cgt|clt|and|orr|eor|add|sub|mov|get|set|dup|reinterpret)q?_[a-z0-9_]+\s*\(")
SIMD_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:x|e|p|t|s|n|w|a|i)mmintrin\.h>"
    r"|#\s*include\s*<(?:immintrin|arm_neon|arm_sve)\.h>")
MARCH_RE = re.compile(r"-m(?:arch|cpu|tune)=")


def _outside(repo: Repo, src: SourceFile, allowed: tuple[str, ...]) -> bool:
    rel = src.path.relative_to(repo.root).as_posix()
    return rel not in allowed and not any(
        rel.startswith(prefix + "/") for prefix in allowed)


def check_encapsulation(repo: Repo, findings: list[Finding]) -> None:
    for src in repo.sources(MOUNT_DIRS):
        if not _outside(repo, src, MOUNT_ALLOWED):
            continue
        for idx, line in enumerate(src.stripped_lines):
            if MOUNT_RE.search(line) and "mount" not in src.waivers_for(idx + 1):
                findings.append(Finding(
                    src.path, idx + 1, "mount",
                    "direct TapeLibrary::Mount outside src/tape and src/exec bypasses "
                    "session mount accounting; use exec::QuerySession MountR/MountS "
                    "(or tertio-lint: allow(mount) for a deliberate exception)"))
    for src in repo.sources(CACHE_DIRS):
        if not _outside(repo, src, CACHE_ALLOWED):
            continue
        for idx, line in enumerate(src.stripped_lines):
            if CACHE_RE.search(line) and "extent-cache" not in src.waivers_for(idx + 1):
                findings.append(Finding(
                    src.path, idx + 1, "extent-cache",
                    "direct ExtentCache::Admit/ReadThrough outside src/disk and src/exec "
                    "bypasses the cache's residency ledger and SimSan byte accounting; "
                    "go through QuerySession/QueryScheduler "
                    "(or tertio-lint: allow(extent-cache) for a deliberate exception)"))
    for src in repo.sources(DRIVE_DIRS):
        if not _outside(repo, src, DRIVE_ALLOWED):
            continue
        for idx, line in enumerate(src.stripped_lines):
            if DRIVE_RE.search(line) and "drive-lease" not in src.waivers_for(idx + 1):
                findings.append(Finding(
                    src.path, idx + 1, "drive-lease",
                    "direct Site::AcquireDrives/LeaseDrives outside src/exec bypasses "
                    "the session's RAII DriveLease and SimSan's lease-exclusivity "
                    "ledger; open an exec::QuerySession instead "
                    "(or tertio-lint: allow(drive-lease) for a deliberate exception)"))
    for src in repo.sources(ADMISSION_DIRS):
        if not _outside(repo, src, ADMISSION_ALLOWED):
            continue
        for idx, line in enumerate(src.stripped_lines):
            if ADMISSION_RE.search(line) and "join-admission" not in src.waivers_for(idx + 1):
                findings.append(Finding(
                    src.path, idx + 1, "join-admission",
                    "BudgetLease::Acquire in src/join outside join_method.cc reserves "
                    "memory the admission step never checked against Requirements(); "
                    "size the family's JoinPlan and use the run's lease "
                    "(or tertio-lint: allow(join-admission) for a deliberate exception)"))
    for src in repo.sources(SIMD_DIRS):
        if not _outside(repo, src, SIMD_ALLOWED):
            continue
        for idx, line in enumerate(src.stripped_lines):
            if (SIMD_RE.search(line) or SIMD_INCLUDE_RE.search(line)) \
                    and "simd" not in src.waivers_for(idx + 1):
                findings.append(Finding(
                    src.path, idx + 1, "simd",
                    "raw SIMD intrinsics outside src/join/simd.h; call the "
                    "runtime-dispatched simd:: wrappers so forced-scalar runs "
                    "stay bit-identical (or tertio-lint: allow(simd))"))
    for cmake in sorted(repo.root.rglob("CMakeLists.txt")):
        if "build" in cmake.relative_to(repo.root).parts:
            continue
        for idx, line in enumerate(cmake.read_text().splitlines()):
            if MARCH_RE.search(line) and "tertio-lint: allow(simd)" not in line:
                findings.append(Finding(
                    cmake, idx + 1, "simd",
                    "-march/-mcpu/-mtune in CMake defaults pins the ISA at "
                    "compile time; ISA selection is a runtime decision in "
                    "src/join/simd.h"))


# ---------------------------------------------------------------------------
# span-registry pack
# ---------------------------------------------------------------------------

SPAN_USE_DIRS = ("src/join", "src/sim")
REPORT_FILES = ("src/sim/trace_report.cc", "src/exec/report.cc")

PHASE_PATTERNS = [
    re.compile(r"\b(?:Stage|StageWithRetry|Event|Barrier|Record)\(\s*\"([^\"]+)\""),
    re.compile(r"\b(?:read_phase|write_phase|flush_phase)\s*=\s*\"([^\"]+)\""),
    re.compile(r"\bIssue(?:Read|Write|Flush)\(\s*\w+,\s*\"([^\"]+)\""),
    re.compile(r"\bScanAndProbe\(\s*\w+,\s*\"([^\"]+)\""),
    re.compile(r"\bScanDiskAndProbe\(\s*\w+,\s*\w+,\s*\"([^\"]+)\""),
]

REPORT_PHASE_RE = re.compile(r"\bphase(?:\.phase)?\s*==\s*\"([^\"]+)\"")


def load_registry(repo: Repo, findings: list[Finding]) -> list[str]:
    registry = repo.root / "src" / "sim" / "span_registry.h"
    text = repo.file(registry).raw
    m = re.search(r"kRegisteredSpans\[\]\s*=\s*\{(.*?)\};", text, re.DOTALL)
    if not m:
        findings.append(Finding(registry, 1, "span-registry",
                                "could not parse kRegisteredSpans"))
        return []
    body = strip_comments(m.group(1))
    spans = re.findall(r"\"([^\"]+)\"", body)
    if spans != sorted(spans):
        findings.append(Finding(registry, 1, "span-registry",
                                "kRegisteredSpans must be sorted (binary_search contract)"))
    return spans


def check_span_registry(repo: Repo, findings: list[Finding]) -> None:
    registry = repo.root / "src" / "sim" / "span_registry.h"
    registered = load_registry(repo, findings)
    if not registered:
        return
    used: dict[str, tuple[pathlib.Path, int]] = {}
    for src in repo.sources(SPAN_USE_DIRS):
        if src.path == registry:
            continue
        for idx, line in enumerate(src.stripped_lines):
            for pattern in PHASE_PATTERNS:
                for label in pattern.findall(line):
                    used.setdefault(label, (src.path, idx + 1))
    for rel in REPORT_FILES:
        src = repo.file(repo.root / rel)
        for idx, line in enumerate(src.stripped_lines):
            for label in REPORT_PHASE_RE.findall(line):
                used.setdefault(label, (src.path, idx + 1))

    for label, (path, line) in sorted(used.items()):
        if label not in registered:
            findings.append(Finding(
                path, line, "span-registry",
                f'phase label "{label}" is not in src/sim/span_registry.h '
                "(register it or fix the typo — unregistered labels fork report rows)"))
    for label in registered:
        if label not in used:
            findings.append(Finding(
                registry, 1, "span-registry",
                f'registered span "{label}" is used nowhere in {", ".join(SPAN_USE_DIRS)} '
                "(stale entry — remove it or restore the call site)"))


# ---------------------------------------------------------------------------
# units pack
# ---------------------------------------------------------------------------

UNITS_HEADER_DIRS = ("src",)
# The definition site of the strong types is exempt: it *is* the escape hatch.
UNITS_EXEMPT = ("src/util/units.h", "src/util/status.h")

# A raw-typed parameter whose *name* claims a dimension. Matched against
# single parameter declarations split on commas inside parens.
RAW_PARAM_RE = re.compile(
    r"(?P<type>\b(?:std::)?(?:uint64_t|size_t|uint32_t|int64_t)\b)"
    r"(?:\s+|\s*&\s*|\s*\b)"
    r"(?P<name>[A-Za-z_]\w*_(?:blocks|bytes))\b")
RAW_SECONDS_PARAM_RE = re.compile(
    r"(?P<type>\bdouble\b)\s+(?P<name>[A-Za-z_]\w*_seconds)\b")

# Strong type for each name suffix, used by --fix and the message.
SUFFIX_TYPE = {"blocks": "Blocks", "bytes": "Bytes", "seconds": "SimSeconds"}

UNWRAP_RE = re.compile(r"\.\s*value\s*\(\s*\)")

CONV_CALL_RE = re.compile(r"\b(BytesToBlocks|BlocksToBytes)\s*\(")

# Names that legitimately denote a block *size* in bytes (the second
# argument of both conversions).
BLOCK_SIZE_NAME_RE = re.compile(r"block_?(?:bytes|size)|kDefaultBlockBytes|kBlock\b")


def _split_args(text: str, start: int):
    """Splits the argument list starting at the '(' at `start`; returns
    (args, end_index) or None if unbalanced (multi-line call)."""
    depth = 0
    args: list[str] = []
    current: list[str] = []
    for i in range(start, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
            if depth == 1:
                continue
        elif c == ")":
            depth -= 1
            if depth == 0:
                args.append("".join(current).strip())
                return args, i
        elif c == "," and depth == 1:
            args.append("".join(current).strip())
            current = []
            continue
        current.append(c)
    return None


def check_units(repo: Repo, findings: list[Finding]) -> None:
    # units-raw-param: headers only — the API surface the strong types guard.
    for src in repo.sources(UNITS_HEADER_DIRS, suffixes=(".h",)):
        if not _outside(repo, src, UNITS_EXEMPT):
            continue
        for idx, line in enumerate(src.stripped_lines):
            for pattern in (RAW_PARAM_RE, RAW_SECONDS_PARAM_RE):
                for m in pattern.finditer(line):
                    if "units-raw-param" in src.waivers_for(idx + 1):
                        continue
                    suffix = m.group("name").rsplit("_", 1)[1]
                    strong = SUFFIX_TYPE[suffix]
                    raw_line = src.raw_lines[idx]
                    fixed = raw_line.replace(m.group("type"), strong, 1) \
                        if m.group("type") in raw_line else None
                    findings.append(Finding(
                        src.path, idx + 1, "units-raw-param",
                        f"raw {m.group('type')} parameter '{m.group('name')}' in a src/ "
                        f"header reintroduces the implicit-conversion hole; declare it "
                        f"{strong} (or tertio-lint: allow(units-raw-param))",
                        fix=(raw_line, fixed) if fixed else None))

    # units-unwrap: .value() escapes on the inline header API surface.
    for src in repo.sources(UNITS_HEADER_DIRS, suffixes=(".h",)):
        if not _outside(repo, src, UNITS_EXEMPT):
            continue
        for idx, line in enumerate(src.stripped_lines):
            if UNWRAP_RE.search(line) and "units-unwrap" not in src.waivers_for(idx + 1):
                findings.append(Finding(
                    src.path, idx + 1, "units-unwrap",
                    ".value() unwrap in a src/ header leaks the raw representation "
                    "past the unit types; keep the quantity typed or add "
                    "tertio-lint: allow(units-unwrap) with a reason"))

    # units-arg-order: conversion call sites whose argument *names* claim the
    # wrong dimension.
    for src in repo.sources(("src", "tools", "examples", "bench", "tests")):
        text = src.stripped
        for m in CONV_CALL_RE.finditer(text):
            call = m.group(1)
            parsed = _split_args(text, m.end() - 1)
            if not parsed:
                continue
            args, _ = parsed
            if len(args) != 2:
                continue
            lineno = text.count("\n", 0, m.start()) + 1
            if "units-arg-order" in src.waivers_for(lineno):
                continue
            first, second = args[0], args[1]
            first_names = " ".join(re.findall(r"[A-Za-z_]\w*", first))
            problem = None
            if call == "BytesToBlocks":
                # First argument must be a byte count, not a block count.
                if re.search(r"\bblocks\b|_blocks\b", first_names) and \
                        not BLOCK_SIZE_NAME_RE.search(first_names):
                    problem = (f"first argument '{first}' names a block count but "
                               "BytesToBlocks expects bytes")
            else:  # BlocksToBytes
                if re.search(r"\bbytes\b|_bytes\b", first_names) and \
                        not BLOCK_SIZE_NAME_RE.search(first_names):
                    problem = (f"first argument '{first}' names a byte count but "
                               "BlocksToBytes expects blocks")
            if problem is None and second and \
                    not BLOCK_SIZE_NAME_RE.search(second) and \
                    re.search(r"_(?:blocks|seconds)\b", second):
                problem = (f"second argument '{second}' does not look like a "
                           "block size in bytes")
            if problem:
                findings.append(Finding(
                    src.path, lineno, "units-arg-order",
                    f"{call}: {problem} "
                    "(or tertio-lint: allow(units-arg-order) if intentional)"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

PACKS = {
    "error-discipline": check_error_discipline,
    "hot-path": check_hot_paths,
    "encapsulation": check_encapsulation,
    "span-registry": check_span_registry,
    "units": check_units,
}


def apply_fixes(findings: list[Finding]) -> int:
    """Applies the mechanical fixes attached to findings. Returns count."""
    by_file: dict[pathlib.Path, list[Finding]] = {}
    for f in findings:
        if f.fix:
            by_file.setdefault(f.path, []).append(f)
    fixed = 0
    for path, file_findings in by_file.items():
        lines = path.read_text().splitlines(keepends=True)
        for f in file_findings:
            old, new = f.fix
            idx = f.line - 1
            if idx < len(lines) and lines[idx].rstrip("\n") == old:
                eol = "\n" if lines[idx].endswith("\n") else ""
                lines[idx] = new + eol
                fixed += 1
        path.write_text("".join(lines))
    return fixed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rules", default="all",
                        help="comma-separated rule packs to run "
                             f"({', '.join(PACKS)}; default: all)")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanical fixes (units-raw-param type "
                             "rewrites) and re-run the checks")
    parser.add_argument("--root", type=pathlib.Path, default=DEFAULT_REPO,
                        help="repo root to analyze (for the lint's own tests)")
    parser.add_argument("--list-spans", action="store_true",
                        help="print the parsed span registry and exit")
    args = parser.parse_args(argv)

    repo = Repo(args.root.resolve())
    findings: list[Finding] = []
    if args.list_spans:
        for span in load_registry(repo, findings):
            print(span)
        return 0 if not findings else 1

    if args.rules == "all":
        selected = list(PACKS)
    else:
        selected = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in selected if r not in PACKS]
        if unknown:
            print(f"tertio_lint: unknown rule pack(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    for pack in selected:
        PACKS[pack](repo, findings)

    if args.fix:
        # Iterate to a fixed point: two violations on one line produce fixes
        # against the same original text, so only one lands per round.
        total = 0
        for _ in range(8):
            fixed = apply_fixes(findings)
            if not fixed:
                break
            total += fixed
            repo = Repo(args.root.resolve())
            findings = []
            for pack in selected:
                PACKS[pack](repo, findings)
        if total:
            print(f"tertio_lint: applied {total} fix(es)")

    for finding in findings:
        print(f"{finding.rel(repo.root)}:{finding.line}: "
              f"[{finding.rule}] {finding.message}")
    if findings:
        print(f"tertio_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"tertio_lint: clean ({', '.join(selected)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
