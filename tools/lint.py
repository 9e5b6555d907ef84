#!/usr/bin/env python3
"""Repo-specific lint for the untrusted wire surface and suppression hygiene.

Two tiers of rules (docs/STATIC_ANALYSIS.md has the full stack):

FIRST-CLASS — things no AST check can express, enforced everywhere:

  nolint-hygiene: every NOLINT-family suppression must name the check it
     suppresses (`NOLINT(check-name)`, never bare `NOLINT`) and carry a
     justification — trailing text on the same line or a comment directly
     above. A bare NOLINT silences every present and future check at that
     location; an unjustified one cannot be audited when the suppressed
     check evolves.

  confined-intrinsics: vector-intrinsic headers (<immintrin.h>,
     <x86intrin.h>, <arm_neon.h>) and raw intrinsic calls (_mm*/_mm256*/
     _mm512*/vld1q*-family identifiers) are allowed only under
     src/util/simd/. Everything else routes through util::simd::active()
     so the capability check in dispatch.cpp is the single gate deciding
     whether a vector instruction can execute — an intrinsic anywhere else
     can SIGILL on an older CPU before dispatch ever runs.

FALLBACK — regex approximations of the graphene-* clang-tidy checks in
tools/tidy-plugin/. On toolchains that can build and load the plugin, the
flow-aware AST versions are the single source of truth and these are
skipped (GRAPHENE_TIDY_PLUGIN_ENFORCED=1 in the environment — exported by
the CI tidy-plugin leg — or --no-fallback). Everywhere else, e.g. a gcc-only
container with no clang, they stay live so the invariants never go
unenforced:

  raw-reinterpret-cast  (→ graphene-raw-byte-cast): `reinterpret_cast` only
     in src/util/, where util::str_bytes centralizes the one sanctioned
     pointer reinterpretation. The AST check additionally sees C-style byte
     casts; this regex cannot.

  unbounded-wire-length  (→ graphene-bounded-wire-read): in a deserializing
     translation unit under src/, length fields come from
     util::read_varint_bounded, never plain read_varint.

  unchecked-resize-from-reader  (→ graphene-bounded-wire-read): a container
     resize/reserve/assign fed from reader primitives on the same line skips
     both the cap and the buffer bound. Same-line only — the AST check
     tracks the flow across statements; this regex famously missed
     read_full_tx's claimed-size amplification (see wire_limits.hpp
     kMaxTxWireSize).

  raw-chrono-clock  (→ graphene-raw-clock): std::chrono clock reads only in
     src/obs/, behind obs::monotonic_ns and the fake clock.

(graphene-deterministic-rng has no regex fallback: it shipped directly as
an AST check, and the repo's util::Rng idiom never regressed under regex
review.)

Usage: tools/lint.py [--list] [--no-fallback] [paths...]
       (default: every tracked C++ file)
Exits non-zero with file:line diagnostics on any hit.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".inc"}

# Deliberately-violating test corpora (tidy-plugin fixtures, lint.py's own
# test fixtures). Skipped by the default sweep; explicit path arguments
# still lint them, which is how their tests invoke us.
EXCLUDED_PREFIXES = (
    "tools/tidy-plugin/test/fixtures/",
    "tools/tests/fixtures/",
)

RE_REINTERPRET = re.compile(r"\breinterpret_cast\s*<")
RE_PLAIN_READ_VARINT = re.compile(r"(?<![a-zA-Z0-9_])read_varint\s*\(")
RE_DESERIALIZE_DEF = re.compile(r"\bdeserialize\s*\(")
RE_RESIZE_FROM_READER = re.compile(
    r"\.(?:resize|reserve|assign)\s*\(\s*[^;]*"
    r"(?:\breader\.(?:u8|u16|u32|u64)\s*\(|\bread_varint(?:_bounded)?\s*\()"
)
RE_CHRONO_CLOCK = re.compile(
    r"\b(?:std\s*::\s*)?chrono\s*::\s*"
    r"(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
)
# NOLINT / NOLINTNEXTLINE / NOLINTBEGIN / NOLINTEND with an optional
# (check-list); group 2 is None for the bare form.
RE_NOLINT = re.compile(r"\bNOLINT(NEXTLINE|BEGIN|END)?\b(\(([^)]*)\))?")

RE_INTRINSIC_HEADER = re.compile(
    r'#\s*include\s*[<"](?:immintrin|x86intrin|arm_neon|emmintrin|smmintrin|'
    r"tmmintrin|avxintrin|avx2intrin)\.h"
)
# x86 vector intrinsics and types (_mm_/_mm256_/_mm512_, __m128*/__m256*/
# __m512*) and the NEON load/store/arith prefixes (vld1q_u8(...), vaddq, ...).
RE_INTRINSIC_CALL = re.compile(
    r"\b(?:_mm(?:256|512)?_[a-z0-9_]+\s*\(|__m(?:128|256|512)[a-z]*\b|"
    r"v(?:ld|st)[1-4]q?_[a-z0-9_]+\s*\(|"
    r"v(?:add|sub|mul|and|orr|eor|ceq|shl|shr|dup|get|set|ext|tbl)q?_[a-z0-9_]+\s*\()"
)


def _lintable(rel: str) -> bool:
    return Path(rel).suffix in CPP_SUFFIXES and not rel.startswith(EXCLUDED_PREFIXES)


def _walk_cpp_files(root: Path):
    """Every C++ file under `root`, as repo-relative POSIX paths, skipping
    hidden directories and CMake build trees (any directory holding a
    CMakeCache.txt): the files a source export of the repo carries."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and not (Path(dirpath) / d / "CMakeCache.txt").exists()
        )
        for name in filenames:
            rel = (Path(dirpath) / name).relative_to(root).as_posix()
            if _lintable(rel):
                found.append(rel)
    return found


def tracked_cpp_files(root: Path = REPO_ROOT):
    """The C++ files the default sweep lints: `git ls-files` in a work tree,
    else (an exported tree, or no git at all) a walk of `root` with the same
    filters."""
    try:
        out = subprocess.run(
            ["git", "ls-files"], cwd=root, capture_output=True, text=True, check=True
        ).stdout
        rels = [p for p in out.splitlines() if _lintable(p)]
    except (OSError, subprocess.CalledProcessError):
        rels = _walk_cpp_files(root)
    return [Path(p) for p in sorted(rels)]


def strip_comments_and_strings(line: str) -> str:
    """Good-enough single-line scrub: drops // comments and string literals
    so documentation mentioning a banned token does not trip the lint."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return line.split("//", 1)[0]


def fallback_enforced_elsewhere() -> bool:
    """True when the clang-tidy plugin owns the superseded rules (CI tidy
    leg exports the env var after a successful plugin sweep)."""
    return os.environ.get("GRAPHENE_TIDY_PLUGIN_ENFORCED", "") == "1"


def _has_words(text: str) -> bool:
    """A justification needs at least two real words."""
    return len(re.findall(r"[A-Za-z]{2,}", text)) >= 2


def lint_nolint_hygiene(lines):
    """nolint-hygiene findings for one file (list of (lineno, rule, msg)).

    Operates on raw lines: NOLINT lives inside comments, so the comment
    scrub used by the code rules must not run here.
    """
    findings = []
    for lineno, raw in enumerate(lines, 1):
        for m in RE_NOLINT.finditer(raw):
            kind = "NOLINT" + (m.group(1) or "")
            if m.group(2) is None:
                findings.append(
                    (lineno, "nolint-hygiene",
                     f"bare {kind} suppresses every check at this location — "
                     f"scope it: {kind}(check-name)")
                )
                continue
            if not m.group(3).strip():
                findings.append(
                    (lineno, "nolint-hygiene",
                     f"{kind}() with an empty check list — name the check")
                )
                continue
            # Justification: trailing words after the suppression on the same
            # line, or a non-NOLINT comment line directly above.
            trailing = raw[m.end():]
            above = lines[lineno - 2].strip() if lineno >= 2 else ""
            above_ok = (
                above.startswith("//") and "NOLINT" not in above and _has_words(above)
            )
            if not _has_words(trailing) and not above_ok:
                findings.append(
                    (lineno, "nolint-hygiene",
                     f"{kind}({m.group(3).strip()}) without a justification — "
                     "say why the suppression is sound, on this line or the "
                     "comment above")
                )
    return findings


def lint_file(rel: Path, text=None, fallback=True):
    findings = []
    if text is None:
        text = (REPO_ROOT / rel).read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()

    findings.extend(lint_nolint_hygiene(lines))

    # First-class: intrinsics stay behind the runtime dispatch boundary.
    in_simd = rel.parts[:3] == ("src", "util", "simd")
    if not in_simd:
        in_block = False
        for lineno, raw in enumerate(lines, 1):
            line = raw
            if in_block:
                end = line.find("*/")
                if end < 0:
                    continue
                line = line[end + 2:]
                in_block = False
            if "/*" in line and "*/" not in line[line.find("/*"):]:
                line = line[: line.find("/*")]
                in_block = True
            code = strip_comments_and_strings(line)
            if RE_INTRINSIC_HEADER.search(code):
                findings.append(
                    (lineno, "confined-intrinsics",
                     "vector-intrinsic header outside src/util/simd/ — add a "
                     "kernel there and call util::simd::active()")
                )
            elif RE_INTRINSIC_CALL.search(code):
                findings.append(
                    (lineno, "confined-intrinsics",
                     "raw vector intrinsic outside src/util/simd/ — it can "
                     "execute before the CPU capability check; route through "
                     "util::simd::active()")
                )

    if not fallback:
        return sorted(findings)

    in_util = rel.parts[:2] == ("src", "util")
    in_src = rel.parts[:1] == ("src",)
    in_obs = rel.parts[:2] == ("src", "obs")
    has_deserializer = any(RE_DESERIALIZE_DEF.search(strip_comments_and_strings(l))
                           for l in lines)

    in_block_comment = False
    for lineno, raw in enumerate(lines, 1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        if "/*" in line and "*/" not in line[line.find("/*"):]:
            line = line[: line.find("/*")]
            in_block_comment = True
        code = strip_comments_and_strings(line)

        if not in_util and RE_REINTERPRET.search(code):
            findings.append(
                (lineno, "raw-reinterpret-cast",
                 "reinterpret_cast outside src/util/ — use util::str_bytes "
                 "or a ByteReader/ByteWriter primitive")
            )
        if in_src and not in_util and has_deserializer \
                and RE_PLAIN_READ_VARINT.search(code) \
                and "read_varint_bounded" not in code:
            findings.append(
                (lineno, "unbounded-wire-length",
                 "plain read_varint in a deserializing translation unit — "
                 "use util::read_varint_bounded with a wire_limits.hpp cap")
            )
        if in_src and RE_RESIZE_FROM_READER.search(code):
            findings.append(
                (lineno, "unchecked-resize-from-reader",
                 "container sized directly from reader output — bind the "
                 "length to a validated variable first")
            )
        if not in_obs and RE_CHRONO_CLOCK.search(code):
            findings.append(
                (lineno, "raw-chrono-clock",
                 "direct std::chrono clock read outside src/obs/ — use "
                 "obs::monotonic_ns so fake clocks and capture replay work")
            )
    return sorted(findings)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    list_only = "--list" in argv
    fallback = not ("--no-fallback" in argv or fallback_enforced_elsewhere())
    files = [Path(a) for a in args] if args else tracked_cpp_files()

    if list_only:
        for f in files:
            print(f)
        return 0

    total = 0
    for rel in files:
        if not (REPO_ROOT / rel).is_file():
            continue
        for lineno, rule, msg in lint_file(rel, fallback=fallback):
            print(f"{rel}:{lineno}: [{rule}] {msg}")
            total += 1
    if total:
        print(f"lint.py: {total} finding(s)", file=sys.stderr)
        return 1
    tier = "all rules" if fallback else "first-class rules only (AST checks own the rest)"
    print(f"lint.py: clean ({len(files)} files, {tier})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
