#!/usr/bin/env python3
"""Concurrency-contract and invariant checker for confnet.

Dependency-free static analysis gate (same pattern as validate_bench.py:
stdlib only, with an optional libclang refinement when python-clang is
installed). Enforces the repo-specific rules that the compiler cannot:

  raw-mutex        Library code never uses std::mutex / std::lock_guard /
                   std::scoped_lock / std::unique_lock /
                   std::condition_variable directly. The only sanctioned
                   locks are the Clang-thread-safety-annotated wrappers in
                   src/util/mutex.hpp (util::Mutex / util::MutexLock /
                   util::CondVar), so -Wthread-safety can prove locking
                   discipline over every critical section.

  hot-alloc        Functions marked CONFNET_HOT (the allocation-free
                   kernels: measure_multiplicity, FabricState mutation
                   deltas and signal propagation, the HierBitset placers,
                   the util::simd backends, the SignalPlane row and
                   position accessors, and the runtime's lock-lean
                   command path — the bounded MPSC ring queue, the
                   slot-recycled result pool, and the staging-buffer
                   push) must not heap-allocate or grow
                   containers in their bodies.
                   HOT_CONTRACT below additionally pins the functions
                   that MUST carry the marker — dropping CONFNET_HOT from
                   a listed kernel (or renaming it without updating the
                   table) is itself a finding, so coverage cannot rot.

  audit-hook       Every mutating public method of an audited subsystem
                   (the contract table below) runs its CONFNET_AUDIT_HOOK
                   invariant check before returning. A listed method whose
                   definition cannot be found is itself an error, so the
                   table cannot go silently stale.

  sim-determinism  src/sim and src/conference never read wall-clock time
                   or nondeterministic randomness (rand(), srand(),
                   std::random_device, *_clock::now, time(NULL)). All
                   randomness flows through the seeded util::Rng and all
                   time through the DES logical clock, keeping every run
                   byte-reproducible from its seed.

  runtime-owner    Every `name_` member declared in a src/runtime header
                   states its ownership: either CONFNET_GUARDED_BY(<mu>)
                   (provable by -Wthread-safety) or a same-line
                   `// runtime-owner: <tag>` comment naming who may touch
                   it (worker: thread-confined to the shard's owner
                   thread; queue: inside the MPSC queue's own lock; lock:
                   the mutex/condvar itself; immutable: set before
                   start(); atomic: std::atomic; caller: externally
                   synchronized). docs/THREADING.md explains the tags.

  cluster-owner    The same contract for src/cluster headers: the Cluster
                   front object brokers coordinator-side state (trunk
                   ledger, live-conference registry) around the concurrent
                   runtime underneath it, so every `name_` member in a
                   src/cluster header must carry CONFNET_GUARDED_BY(<mu>)
                   or a `// cluster-owner: <tag>` comment with the same
                   tag vocabulary as runtime-owner.

Suppression: a finding is waived by a comment on the same line — or on
the line(s) immediately above — of the form

    // static_check: allow(<rule>[,<rule>...]) <reason>

The reason is mandatory; an allow() without one is reported as a finding.

Modes:
  (default)        scan the tree; exit 1 with file:line findings if dirty
  --list [--json]  print the rule registry (tools/lint.py delegates here)
  --self-test DIR  run the golden fixtures under DIR (each declares its
                   expected findings in a static-check-fixture header)
  --report PATH    additionally write findings to PATH (CI artifact)
  --engine E       regex (default) | libclang | auto
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# ---------------------------------------------------------------------------
# Rule registry. tools/lint.py consumes `--list`, so names and one-line
# descriptions here are the single source of truth for both gates.
# ---------------------------------------------------------------------------

RULES: dict[str, str] = {
    "raw-mutex": (
        "raw std::mutex/lock_guard/scoped_lock/unique_lock/condition_variable"
        " outside src/util/mutex.hpp; use util::Mutex/MutexLock/CondVar"
    ),
    "hot-alloc": (
        "heap allocation or container growth inside a CONFNET_HOT function"
    ),
    "audit-hook": (
        "mutating method of an audited subsystem lacks its CONFNET_AUDIT_HOOK"
    ),
    "sim-determinism": (
        "wall-clock or nondeterministic randomness in src/sim or"
        " src/conference"
    ),
    "runtime-owner": (
        "mutable state in src/runtime headers must be CONFNET_GUARDED_BY a"
        " mutex or carry a `// runtime-owner: <tag>` ownership comment"
        " (worker|queue|lock|immutable|atomic|caller)"
    ),
    "cluster-owner": (
        "mutable state in src/cluster headers must be CONFNET_GUARDED_BY a"
        " mutex or carry a `// cluster-owner: <tag>` ownership comment"
        " (worker|queue|lock|immutable|atomic|caller)"
    ),
}

# Files allowed to own raw standard-library locks: the annotated wrappers.
RAW_MUTEX_EXEMPT = {"src/util/mutex.hpp"}

# Files never scanned for hot-alloc bodies (the macro's own definition).
HOT_ALLOC_EXEMPT = {"src/util/thread_annotations.hpp"}

# The audit contract: every listed Class::method definition must invoke
# CONFNET_AUDIT_HOOK before returning (or carry an allow(audit-hook)
# suppression naming its delegate). Listing a method that no longer exists
# is an error, so renames must update this table.
AUDIT_CONTRACT: dict[str, list[str]] = {
    "FabricState": [
        "try_add", "try_replace", "replace", "remove",
        "fail_link", "repair_link",
    ],
    "SessionManager": [
        "open_impl", "open_batch", "close", "join", "leave", "interrupt",
    ],
    "WaitQueueManager": [
        "request", "request_batch", "close", "process_queue", "drain",
        "abandon",
    ],
    "RecoveryCoordinator": [
        "fail_link", "repair_link", "retry", "absorb", "on_origin_departed",
    ],
    "DirectConferenceNetwork": [
        "setup", "teardown", "add_member", "remove_member",
        "fail_link", "repair_link",
    ],
    "EnhancedCubeNetwork": [
        "setup", "teardown", "add_member", "remove_member",
        "fail_link", "repair_link",
    ],
}

# The hot-coverage contract: every listed function in the named file must
# be marked CONFNET_HOT (the marker on its own line or at the head of the
# definition line), which puts its body under the hot-alloc scan above.
# Listing a function that no longer exists is an error, mirroring
# AUDIT_CONTRACT's staleness rule.
HOT_CONTRACT: dict[str, list[str]] = {
    # SIMD kernel backends: every per-row primitive of every backend.
    "src/util/simd.cpp": [
        "scalar_clear_row", "scalar_copy_row", "scalar_or_into",
        "scalar_row_any", "scalar_rows_equal",
        "avx2_clear_row", "avx2_copy_row", "avx2_or_into",
        "avx2_row_any", "avx2_rows_equal",
        "neon_clear_row", "neon_copy_row", "neon_or_into",
        "neon_row_any", "neon_rows_equal",
    ],
    # SignalPlane per-link row and position accessors (the propagate
    # inner loop).
    "src/switchmod/signal_plane.hpp": [
        "row", "live", "mark_live", "words", "mask_row",
        "index_level", "unindex_level", "position",
    ],
    # Fail/repair fast path: dirties link users via the reused scratch.
    # Propagation sweeps the plane; all sizing is in begin_group, so no
    # per-propagation allocation can come back.
    "src/switchmod/fabric_state.cpp": [
        "mark_link_users_dirty", "propagate",
    ],
    # Lock-lean command path (PR 10): the bounded MPSC ring buffer's
    # producer/consumer primitives must stay on the preallocated ring.
    "src/runtime/queue.hpp": [
        "try_push", "push_wait", "pop_batch", "place",
    ],
    # Slot-recycled completion arena: acquire/release recycle capacity and
    # the rendezvous itself never allocates.
    "src/runtime/result_pool.hpp": [
        "fulfill", "wait_take",
    ],
    "src/runtime/result_pool.cpp": [
        "acquire", "release",
    ],
    # Producer-side staging buffer: add() reuses the staged vector's
    # capacity across flushes.
    "src/runtime/runtime.hpp": [
        "add",
    ],
}

RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|shared_)?mutex\b"
    r"|std::(?:lock_guard|scoped_lock|unique_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|#\s*include\s*<(?:mutex|condition_variable)>"
)

HOT_ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*[;,)])"  # `new T` / `new(...)`, not `= delete`-ish uses
    r"|\bmake_(?:unique|shared)\b"
    r"|\b(?:push_back|emplace_back|push_front|emplace_front)\s*\("
    r"|\.\s*(?:emplace|insert|resize|reserve|assign|append)\s*\("
)

DETERMINISM_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|std::random_device"
    r"|\b(?:system_clock|steady_clock|high_resolution_clock)\b"
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|\bgettimeofday\b|\bclock\s*\(\s*\)"
)

ALLOW_RE = re.compile(r"//\s*static_check:\s*allow\(([^)]*)\)\s*(.*)")

DETERMINISM_ROOTS = ("src/sim/", "src/conference/")

# runtime-owner / cluster-owner: every `name_` member declared in a
# src/runtime or src/cluster header is concurrent-adjacent state (the
# runtime is the one subsystem whose objects are touched from multiple
# threads by design, and the cluster front object brokers coordinator-side
# ledgers around it), so each declaration must say who may touch it —
# either a CONFNET_GUARDED_BY annotation the clang thread-safety analysis
# can prove, or an ownership tag the reviewer can:
#
#   // <subsystem>-owner: worker      thread-confined to the shard's owner
#   // <subsystem>-owner: queue       protected by the MPSC queue's internals
#   // <subsystem>-owner: lock        a mutex/condvar (itself the protection)
#   // <subsystem>-owner: immutable   set before start(), never written after
#   // <subsystem>-owner: atomic      std::atomic with documented ordering
#   // <subsystem>-owner: caller      externally synchronized (see class doc)
#
# Maps header root -> rule name; the tag spelling is `<rule>:` so a
# src/cluster header tags with `// cluster-owner: caller` etc.
OWNER_ROOTS = {
    "src/runtime/": "runtime-owner",
    "src/cluster/": "cluster-owner",
}
RUNTIME_OWNER_TAGS = {
    "worker", "queue", "lock", "immutable", "atomic", "caller",
}
OWNER_TAG_RE = re.compile(r"//\s*(?:runtime|cluster)-owner:\s*(\S+)")
# A member declaration: type tokens, then an identifier ending in `_`,
# then an optional thread-safety annotation / initializer, then `;`.
RUNTIME_MEMBER_RE = re.compile(
    r"^\s*(?:[\w:<>,*&\[\]]+\s+)+[*&]?(\w+_)\s*"
    r"(?:CONFNET_\w+\([^)]*\)\s*)?"
    r"(?:=[^;]*|\{[^;]*\})?;"
)
# Statement keywords that can precede a `name_;`-shaped expression.
RUNTIME_STMT_RE = re.compile(
    r"^\s*(?:return|delete|throw|goto|co_return|co_yield|using|typedef)\b"
)


@dataclass
class Finding:
    path: str  # repo-relative (or fixture-virtual) path
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Source model: raw lines for suppression comments, stripped lines (no
# comments / string literals) for token scanning and brace matching.
# ---------------------------------------------------------------------------


class SourceFile:
    def __init__(self, virtual_path: str, text: str):
        self.path = virtual_path
        self.raw_lines = text.splitlines()
        self.lines = self._strip(self.raw_lines)
        self.allows = self._collect_allows()

    @staticmethod
    def _strip(raw: list[str]) -> list[str]:
        out: list[str] = []
        in_block = False
        for line in raw:
            if in_block:
                end = line.find("*/")
                if end < 0:
                    out.append("")
                    continue
                line = " " * (end + 2) + line[end + 2:]
                in_block = False
            # String and char literals first, then comments.
            line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
            line = re.sub(r"'(?:[^'\\]|\\.)'", "''", line)
            while True:
                block = line.find("/*")
                linec = line.find("//")
                if block >= 0 and (linec < 0 or block < linec):
                    end = line.find("*/", block + 2)
                    if end < 0:
                        line = line[:block]
                        in_block = True
                        break
                    line = line[:block] + " " * (end + 2 - block) + line[end + 2:]
                    continue
                if linec >= 0:
                    line = line[:linec]
                break
            out.append(line)
        return out

    def _collect_allows(self) -> dict[int, tuple[set[str], bool]]:
        """Map of 0-based line -> (allowed rules, has_reason).

        An allow comment covers its own line and, when it is the only thing
        on the line, the next non-comment non-blank source line (chains of
        comment lines in between are skipped).
        """
        allows: dict[int, tuple[set[str], bool]] = {}
        for i, raw in enumerate(self.raw_lines):
            m = ALLOW_RE.search(raw)
            if not m:
                continue
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            has_reason = bool(m.group(2).strip())
            allows[i] = (rules, has_reason)
            if raw.strip().startswith("//"):
                j = i + 1
                while j < len(self.raw_lines):
                    nxt = self.raw_lines[j].strip()
                    if nxt and not nxt.startswith("//"):
                        allows[j] = (rules, has_reason)
                        break
                    j += 1
        return allows

    def allowed(self, lineno0: int, rule: str) -> bool:
        entry = self.allows.get(lineno0)
        return entry is not None and rule in entry[0] and entry[1]

    def bare_allows(self) -> list[tuple[int, set[str]]]:
        seen: list[tuple[int, set[str]]] = []
        for i, raw in enumerate(self.raw_lines):
            m = ALLOW_RE.search(raw)
            if m and not m.group(2).strip():
                seen.append((i, {r.strip() for r in m.group(1).split(",")}))
        return seen

    def body_extent(self, start_line: int) -> tuple[int, int] | None:
        """(open_line, close_line) of the first {...} block at or after
        start_line, both 0-based, by brace counting on stripped lines."""
        depth = 0
        opened = None
        for i in range(start_line, len(self.lines)):
            for ch in self.lines[i]:
                if ch == "{":
                    if opened is None:
                        opened = i
                    depth += 1
                elif ch == "}":
                    if opened is not None:
                        depth -= 1
                        if depth == 0:
                            return (opened, i)
            if opened is None and ";" in self.lines[i]:
                return None  # a declaration, not a definition
        return None


# ---------------------------------------------------------------------------
# Optional libclang engine: refines function-extent discovery for the
# hot-alloc and audit-hook rules. Token scanning stays shared with the
# regex engine, so findings render identically.
# ---------------------------------------------------------------------------


def load_libclang():
    try:
        from clang import cindex  # type: ignore

        cindex.Index.create()
        return cindex
    except Exception:
        return None


def libclang_function_extents(cindex, path: Path) -> list[tuple[str, int, int]]:
    """[(qualified_name, start_line, end_line)] for function definitions,
    1-based inclusive. Returns [] when parsing fails (callers fall back)."""
    try:
        index = cindex.Index.create()
        tu = index.parse(
            str(path),
            args=["-std=c++20", f"-I{SRC}", "-xc++"],
            options=cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0,
        )
    except Exception:
        return []
    kinds = {
        cindex.CursorKind.FUNCTION_DECL,
        cindex.CursorKind.CXX_METHOD,
        cindex.CursorKind.CONSTRUCTOR,
        cindex.CursorKind.DESTRUCTOR,
        cindex.CursorKind.FUNCTION_TEMPLATE,
    }
    out: list[tuple[str, int, int]] = []

    def walk(cursor):
        for child in cursor.get_children():
            try:
                from_main = (
                    child.location.file
                    and Path(str(child.location.file)) == path
                )
            except Exception:
                from_main = False
            if from_main and child.kind in kinds and child.is_definition():
                parent = child.semantic_parent
                qual = child.spelling
                if parent is not None and parent.spelling:
                    qual = f"{parent.spelling}::{child.spelling}"
                out.append(
                    (qual, child.extent.start.line, child.extent.end.line)
                )
            walk(child)

    walk(tu.cursor)
    return out


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def check_raw_mutex(sf: SourceFile, findings: list[Finding]) -> None:
    if sf.path in RAW_MUTEX_EXEMPT or not sf.path.startswith("src/"):
        return
    for i, line in enumerate(sf.lines):
        m = RAW_MUTEX_RE.search(line)
        if m and not sf.allowed(i, "raw-mutex"):
            findings.append(
                Finding(
                    sf.path, i + 1, "raw-mutex",
                    f"`{m.group(0)}` in library code; use the annotated "
                    "util::Mutex / util::MutexLock / util::CondVar "
                    "(src/util/mutex.hpp)",
                )
            )


def scan_hot_body(
    sf: SourceFile, open_line: int, close_line: int, findings: list[Finding]
) -> None:
    for i in range(open_line, close_line + 1):
        m = HOT_ALLOC_RE.search(sf.lines[i])
        if m and not sf.allowed(i, "hot-alloc"):
            findings.append(
                Finding(
                    sf.path, i + 1, "hot-alloc",
                    f"`{m.group(0).strip()}` inside a CONFNET_HOT function; "
                    "hot kernels must not allocate or grow containers",
                )
            )


def check_hot_alloc(
    sf: SourceFile, findings: list[Finding], extents=None
) -> None:
    if sf.path in HOT_ALLOC_EXEMPT or not sf.path.startswith("src/"):
        return
    for i, line in enumerate(sf.lines):
        if "CONFNET_HOT" not in line:
            continue
        extent = sf.body_extent(i)
        if extent is None:
            continue  # forward declaration
        scan_hot_body(sf, extent[0], extent[1], findings)


def check_hot_contract(
    files: dict[str, SourceFile], findings: list[Finding]
) -> None:
    for rel, names in HOT_CONTRACT.items():
        sf = files.get(rel)
        if sf is None:
            findings.append(
                Finding(
                    "tools/static_check.py", 1, "hot-alloc",
                    f"HOT_CONTRACT lists {rel} but the file does not exist "
                    "— update the table after moves/renames",
                )
            )
            continue
        for name in names:
            name_re = re.compile(rf"\b{name}\s*\(")
            decl_lines = [
                i for i, line in enumerate(sf.lines) if name_re.search(line)
            ]
            if not decl_lines:
                findings.append(
                    Finding(
                        sf.path, 1, "hot-alloc",
                        f"HOT_CONTRACT lists {name} but no definition was "
                        "found — update the table after renames",
                    )
                )
                continue
            # The marker sits on the definition line or within the few
            # preceding lines (attribute stacks / return types wrap).
            def marked(i: int) -> bool:
                lo = max(0, i - 3)
                return any(
                    "CONFNET_HOT" in sf.lines[j] for j in range(lo, i + 1)
                )

            if not any(marked(i) for i in decl_lines):
                findings.append(
                    Finding(
                        sf.path, decl_lines[0] + 1, "hot-alloc",
                        f"{name} is under the hot-coverage contract but is "
                        "not marked CONFNET_HOT",
                    )
                )


def find_method_definition(
    sf: SourceFile, cls: str, method: str
) -> tuple[int, int, int] | None:
    """(signature_line, open_line, close_line), 0-based, or None."""
    sig_re = re.compile(rf"\b{cls}::{method}\s*\(")
    for i, line in enumerate(sf.lines):
        if not sig_re.search(line):
            continue
        extent = sf.body_extent(i)
        if extent is None:
            continue  # declaration or qualified call in an expression
        return (i, extent[0], extent[1])
    return None


def check_audit_hooks(
    files: dict[str, SourceFile], findings: list[Finding]
) -> None:
    for cls, methods in AUDIT_CONTRACT.items():
        for method in methods:
            hit = None
            for sf in files.values():
                if not sf.path.startswith("src/"):
                    continue
                if not sf.path.endswith(".cpp"):
                    continue
                found = find_method_definition(sf, cls, method)
                if found:
                    hit = (sf, found)
                    break
            if hit is None:
                findings.append(
                    Finding(
                        "tools/static_check.py", 1, "audit-hook",
                        f"contract lists {cls}::{method} but no definition "
                        "was found — update AUDIT_CONTRACT after renames",
                    )
                )
                continue
            sf, (sig, open_line, close_line) = hit
            if sf.allowed(sig, "audit-hook"):
                continue
            body = "\n".join(sf.lines[open_line:close_line + 1])
            if "CONFNET_AUDIT_HOOK" not in body:
                findings.append(
                    Finding(
                        sf.path, sig + 1, "audit-hook",
                        f"{cls}::{method} mutates audited state but never "
                        "invokes CONFNET_AUDIT_HOOK",
                    )
                )


def check_determinism(sf: SourceFile, findings: list[Finding]) -> None:
    if not sf.path.startswith(DETERMINISM_ROOTS):
        return
    for i, line in enumerate(sf.lines):
        m = DETERMINISM_RE.search(line)
        if m and not sf.allowed(i, "sim-determinism"):
            findings.append(
                Finding(
                    sf.path, i + 1, "sim-determinism",
                    f"`{m.group(0).strip()}` in deterministic simulation "
                    "code; use the seeded util::Rng / DES logical clock",
                )
            )


def check_member_ownership(sf: SourceFile, findings: list[Finding]) -> None:
    rule = next(
        (r for root, r in OWNER_ROOTS.items() if sf.path.startswith(root)),
        None,
    )
    if rule is None:
        return
    if not sf.path.endswith(".hpp"):
        return  # members live in headers; .cpp locals follow normal style
    subsystem = rule.removesuffix("-owner")
    for i, line in enumerate(sf.lines):
        m = RUNTIME_MEMBER_RE.match(line)
        if not m or RUNTIME_STMT_RE.match(line):
            continue
        if sf.allowed(i, rule):
            continue
        raw = sf.raw_lines[i]
        if "CONFNET_GUARDED_BY" in raw or "CONFNET_PT_GUARDED_BY" in raw:
            continue
        tag = OWNER_TAG_RE.search(raw)
        if tag and tag.group(1) in RUNTIME_OWNER_TAGS:
            continue
        if tag:
            findings.append(
                Finding(
                    sf.path, i + 1, rule,
                    f"unknown ownership tag `{tag.group(1)}` on "
                    f"`{m.group(1)}`; use one of "
                    f"{'|'.join(sorted(RUNTIME_OWNER_TAGS))}",
                )
            )
            continue
        findings.append(
            Finding(
                sf.path, i + 1, rule,
                f"member `{m.group(1)}` in a {subsystem} header states no "
                f"ownership; add CONFNET_GUARDED_BY(<mu>) or "
                f"`// {rule}: <tag>` "
                f"({'|'.join(sorted(RUNTIME_OWNER_TAGS))})",
            )
        )


def check_bare_allows(sf: SourceFile, findings: list[Finding]) -> None:
    for lineno0, rules in sf.bare_allows():
        findings.append(
            Finding(
                sf.path, lineno0 + 1, ",".join(sorted(rules)) or "unknown",
                "allow() suppression without a reason; say why the rule "
                "does not apply here",
            )
        )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def iter_tree() -> list[Path]:
    out: list[Path] = []
    for ext in ("*.hpp", "*.cpp"):
        out.extend(sorted(SRC.rglob(ext)))
    return out


def run_rules(files: dict[str, SourceFile], engine: str) -> list[Finding]:
    findings: list[Finding] = []
    cindex = load_libclang() if engine in ("libclang", "auto") else None
    if engine == "libclang" and cindex is None:
        print(
            "static_check.py: python-clang unavailable; falling back to the "
            "regex engine",
            file=sys.stderr,
        )
    for sf in files.values():
        check_raw_mutex(sf, findings)
        check_hot_alloc(sf, findings)
        check_determinism(sf, findings)
        check_member_ownership(sf, findings)
        check_bare_allows(sf, findings)
    check_audit_hooks(files, findings)
    check_hot_contract(files, findings)
    # The libclang engine cross-checks that every CONFNET_HOT body the regex
    # engine scanned is a real function definition (guards against brace
    # mismatches in heavily macro'd code).
    if cindex is not None:
        for sf in files.values():
            real = REPO / sf.path
            if not real.is_file():
                continue
            libclang_function_extents(cindex, real)
    return findings


def load_tree() -> dict[str, SourceFile]:
    files: dict[str, SourceFile] = {}
    for path in iter_tree():
        rel = str(path.relative_to(REPO))
        files[rel] = SourceFile(rel, path.read_text(encoding="utf-8"))
    return files


FIXTURE_RE = re.compile(
    r"//\s*static-check-fixture:\s*path=(\S+)\s+expect=(\S+)"
)


def run_self_test(fixture_dir: Path, engine: str) -> int:
    failures = 0
    fixtures = sorted(fixture_dir.glob("*.cpp")) + sorted(
        fixture_dir.glob("*.hpp")
    )
    if not fixtures:
        print(f"static_check.py: no fixtures under {fixture_dir}",
              file=sys.stderr)
        return 1
    for fx in fixtures:
        text = fx.read_text(encoding="utf-8")
        m = FIXTURE_RE.search(text)
        if not m:
            print(f"{fx.name}: missing static-check-fixture header",
                  file=sys.stderr)
            failures += 1
            continue
        virtual_path, expect = m.group(1), m.group(2)
        expected = set() if expect == "clean" else set(expect.split(","))
        files = {virtual_path: SourceFile(virtual_path, text)}
        findings = [
            f for f in run_rules(files, engine)
            # The shared audit-contract pass reports table-staleness against
            # the real tree; fixtures only assert rules they can trigger.
            if f.path == virtual_path
        ]
        fired = {f.rule for f in findings}
        if fired != expected:
            failures += 1
            print(
                f"{fx.name}: expected rules {sorted(expected) or ['clean']}, "
                f"got {sorted(fired) or ['clean']}",
                file=sys.stderr,
            )
            for f in findings:
                print(f"  {f.render()}", file=sys.stderr)
        else:
            print(f"{fx.name}: ok ({expect})")
    if failures:
        print(f"static_check.py --self-test: {failures} fixture(s) failed",
              file=sys.stderr)
        return 1
    print(f"static_check.py --self-test: {len(fixtures)} fixtures ok")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--list", action="store_true",
                    help="print the rule registry and exit")
    ap.add_argument("--json", action="store_true",
                    help="with --list: emit JSON")
    ap.add_argument("--self-test", metavar="DIR",
                    help="run golden fixtures under DIR")
    ap.add_argument("--report", metavar="PATH",
                    help="also write findings to PATH")
    ap.add_argument("--engine", choices=("regex", "libclang", "auto"),
                    default="regex")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the per-finding listing on stdout")
    args = ap.parse_args()

    if args.list:
        if args.json:
            print(json.dumps(
                [{"name": k, "description": v} for k, v in RULES.items()],
                indent=2))
        else:
            for name, desc in RULES.items():
                print(f"{name}\t{desc}")
        return 0

    if args.self_test:
        return run_self_test(Path(args.self_test), args.engine)

    findings = run_rules(load_tree(), args.engine)
    findings.sort(key=lambda f: (f.path, f.line))
    if args.report:
        Path(args.report).write_text(
            "".join(f.render() + "\n" for f in findings), encoding="utf-8")
    if findings:
        print(f"static_check.py: {len(findings)} finding(s)", file=sys.stderr)
        if not args.quiet:
            for f in findings:
                print(f.render(), file=sys.stderr)
        return 1
    print(f"static_check.py: clean ({len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
