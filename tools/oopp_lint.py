#!/usr/bin/env python3
"""OOPP framework lint — rules the C++ compiler cannot enforce.

Rules
-----
serialize-coverage      Every ``oopp_serialize(Ar&, T&)`` overload must
                        mention every data member of the struct T it
                        serializes (a member that never appears in the
                        body is silently dropped on the wire).  Checked
                        for structs whose serialize function lives in the
                        same file — the framework convention.
raw-thread-primitive    ``std::mutex`` / ``std::shared_mutex`` /
                        ``std::condition_variable`` / ``std::thread`` are
                        banned outside ``src/util/``: locking must go
                        through util::CheckedMutex (lock-order checking),
                        threads through ElasticPool or a named owner in
                        util/.
thread-detach           ``.detach()`` is banned everywhere: a detached
                        thread outlives shutdown and races static
                        destruction.
raw-message-header      Hand-assembled ``net::Message`` headers (naming
                        ``MessageHeader`` or assigning ``.header.<field>``)
                        are banned outside ``src/net/``: go through
                        ``net::make_request`` / ``net::make_response`` so
                        the checksum policy and the trace-id extension
                        cannot be forgotten at any call site.
future-bare-get         A bare ``.get()`` on a future inside the hot
                        paths (``src/core/``, ``src/kv/``, ``src/dsm/``,
                        ``src/coll/``) blocks forever if the peer dies.
                        Use ``get_for``/``get_until`` with a deadline, a
                        retrying CallPolicy, or ``get_expected()`` — or
                        annotate the site to document that an unbounded
                        wait is intended (e.g. behind a caller-supplied
                        policy).  ``src/core/future.hpp`` itself is
                        exempt: it is the implementation.
raw-batch-header        Batch-frame framing (``kBatchMagic`` / the 0xB5
                        magic byte / ``kBatchHeaderSize`` /
                        ``encode_batch_header`` / ``decode_batch_header``)
                        belongs to net::wire alone.  A hand-rolled batch
                        header outside ``src/net/`` silently diverges from
                        the one codec the reactor's decoder understands.
async-then-immediate-get
                        ``async_*(...)`` / ``.async<&M>(...)`` followed by
                        ``.get()`` in the same statement is a blocking
                        call with extra steps: nothing overlaps, but the
                        reply path still pays the future machinery.  Use
                        ``call<&M>`` — or hold the future and do work
                        before collecting it.  Annotate sites where the
                        async spelling is load-bearing (e.g. fan-out
                        helpers collecting a vector of futures).
lock-across-future-get  A ``std::lock_guard``/``unique_lock``/
                        ``scoped_lock``/``shared_lock`` still in scope
                        when ``.get()``/``.get_for()``/``.get_until()``/
                        ``.get_expected()`` is called holds a CheckedMutex
                        across a remote round trip — the static twin of
                        the runtime ``on_blocking_call`` check, catching
                        paths a test run never exercises.  An explicit
                        ``x.unlock()`` before the wait ends the guarded
                        region.
condvar-wait-no-predicate
                        ``CondVar::wait(lock)`` without a predicate (and
                        ``wait_for``/``wait_until`` without one) returns
                        on spurious wakeups with the condition unchecked.
                        Pass the predicate overload, or annotate loops
                        that deliberately re-check state each iteration.
dispatch-thread-blocking
                        Blocking collectives (every ``gather*``/``barrier*``
                        spelling) inside a servant-class method park one
                        dispatch thread per participant simultaneously — a
                        full worker pool of these deadlocks the machine.
                        Point-to-point ``call<&M>`` stays legal (the
                        elastic pool is sized for linear chains).  Servant
                        classes are those with a ``class_def<T>``
                        specialization anywhere in the linted tree.

Usage
-----
  oopp_lint.py PATH...          lint the tree; exit 1 on any violation
  oopp_lint.py --self-test DIR  run against seeded fixtures; every
                                expected violation is marked in-line with
                                ``LINT-EXPECT: <rule>`` and must be
                                reported (and nothing else); exit 1 on
                                mismatch
  oopp_lint.py --list-rules     print every rule id + one-line summary

Suppression: put ``// oopp-lint: allow(<rule>)`` on the offending line or
the line directly above it.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

# Files allowed to use raw thread primitives (the checked wrappers and the
# thread owners live here).
RAW_PRIMITIVE_ALLOWED = ("src/util/",)

# Message headers are assembled by make_request/make_response here only.
MESSAGE_HEADER_ALLOWED = ("src/net/",)

# Batch-frame framing (magic, header layout, codec) lives in net::wire only.
BATCH_HEADER_ALLOWED = ("src/net/",)

# Hot paths where an unbounded Future::get() is a hang waiting to happen.
# future.hpp is the implementation of get() itself and stays exempt.
FUTURE_GET_SCOPED = ("src/core/", "src/kv/", "src/dsm/", "src/coll/")
FUTURE_GET_EXEMPT = ("src/core/future.hpp",)

VIOLATION_FMT = "{file}:{line}: [{rule}] {msg}"

# Rule id -> one-line summary, in the order the docstring documents them.
# `--list-rules` prints this table; keep it in sync with the docstring.
RULES = {
    "serialize-coverage":
        "oopp_serialize must mention every data member of its struct",
    "raw-thread-primitive":
        "std::mutex/condition_variable/thread banned outside src/util/",
    "thread-detach":
        "thread detach() banned everywhere",
    "raw-message-header":
        "hand-built net::Message headers banned outside src/net/",
    "future-bare-get":
        "bare Future::get() in hot paths must be bounded or annotated",
    "raw-batch-header":
        "batch-frame framing (0xB5 codec) belongs to net::wire alone",
    "async-then-immediate-get":
        "async call .get()-ed in the same statement overlaps nothing",
    "lock-across-future-get":
        "lock guard in scope across a Future get/get_for/get_until",
    "condvar-wait-no-predicate":
        "CondVar wait without a predicate misses spurious wakeups",
    "dispatch-thread-blocking":
        "gather*/barrier* collectives inside a servant method",
}


class Violation:
    def __init__(self, file: Path, line: int, rule: str, msg: str):
        self.file = file
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        return VIOLATION_FMT.format(
            file=self.file, line=self.line, rule=self.rule, msg=self.msg
        )


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line numbers
    and byte offsets (replaced with spaces)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == "'" and i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
            out.append(c)  # digit separator (10'000), not a char literal
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def suppressed(raw_lines: list[str], line: int, rule: str) -> bool:
    """A violation is suppressed by `oopp-lint: allow(<rule>)` on the
    offending line or the line directly above it."""
    needle = f"oopp-lint: allow({rule})"
    for ln in (line, line - 1):
        if 1 <= ln <= len(raw_lines) and needle in raw_lines[ln - 1]:
            return True
    return False


# --------------------------------------------------------------------------
# serialize-coverage
# --------------------------------------------------------------------------

STRUCT_RE = re.compile(r"\bstruct\s+(\w+)\s*(?::[^({]*?)?\{")
SERIALIZE_RE = re.compile(
    r"\boopp_serialize\s*\(\s*[\w:]+\s*&\s*\w+\s*,\s*(?:[\w:]+::)?(\w+)\s*&\s*(\w+)\s*\)"
)
MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"(?!using\b|typedef\b|static\b|friend\b|template\b|return\b|struct\b|class\b|enum\b|public\b|private\b|protected\b|if\b|for\b|while\b|else\b|case\b)"
    r"[\w:<>,\s.*&]+?[\s&*>]"
    r"(\w+)\s*(?:=[^;]*|\{[^;{}]*\})?;\s*$"
)


def find_matching_brace(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def find_matching_paren(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def struct_members(body: str) -> list[tuple[str, int]]:
    """Data members of a struct body (heuristic), with line offsets
    relative to the body start.  Only top-level declarations count."""
    # Blank out nested braces (methods, nested types, initializers) so only
    # top-level `type name;` declarations survive.
    flat = []
    depth = 0
    for ch in body:
        if ch == "{":
            depth += 1
            flat.append(" ")
        elif ch == "}":
            depth -= 1
            flat.append(" ")
        elif depth > 0 and ch != "\n":
            flat.append(" ")
        else:
            flat.append(ch)
    members = []
    for i, line in enumerate("".join(flat).split("\n")):
        if "(" in line or ")" in line:
            continue  # function declarations / pointers-to-member
        m = MEMBER_RE.match(line)
        if m:
            members.append((m.group(1), i))
    return members


def check_serialize_coverage(path: Path, text: str, raw_lines: list[str]):
    violations = []
    structs = {}
    for m in STRUCT_RE.finditer(text):
        name = m.group(1)
        open_idx = m.end() - 1
        close_idx = find_matching_brace(text, open_idx)
        structs[name] = (open_idx, close_idx)

    for sm in SERIALIZE_RE.finditer(text):
        struct_name = sm.group(1)
        if struct_name not in structs:
            continue  # serialize for a type defined elsewhere
        open_idx, close_idx = structs[struct_name]
        body = text[open_idx + 1 : close_idx]
        body_line = line_of(text, open_idx)

        # The serialize function body: from the match to its closing brace.
        fn_open = text.find("{", sm.end())
        if fn_open < 0:
            continue
        fn_body = text[fn_open : find_matching_brace(text, fn_open) + 1]

        for member, rel_line in struct_members(body):
            if not re.search(rf"\b{re.escape(member)}\b", fn_body):
                line = body_line + rel_line
                if suppressed(raw_lines, line, "serialize-coverage"):
                    continue
                violations.append(
                    Violation(
                        path,
                        line,
                        "serialize-coverage",
                        f"member '{member}' of struct '{struct_name}' is "
                        f"never mentioned by its oopp_serialize — it will "
                        f"be dropped on the wire",
                    )
                )
    return violations


# --------------------------------------------------------------------------
# raw-thread-primitive / thread-detach
# --------------------------------------------------------------------------

RAW_PRIMITIVE_RE = re.compile(
    r"\bstd\s*::\s*(mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"condition_variable|condition_variable_any|thread|jthread)\b"
)
DETACH_RE = re.compile(r"[.\->]\s*detach\s*\(\s*\)")
# Naming the header type, or writing through `.header.<field> =` (a lone
# `=` — `==` comparisons are reads and stay legal).
MESSAGE_HEADER_RE = re.compile(
    r"\bMessageHeader\b|[.\->]\s*header\s*\.\s*\w+\s*=(?!=)"
)
# `.get()` whose receiver is a plain identifier (a future variable) or a
# call result (`async_ping().get()`).  Subscripted smart-pointer accesses
# like `nodes_[i].get()` have `]` before the dot and do not match.
FUTURE_GET_RE = re.compile(r"[\w)]\s*(?:\.|->)\s*get\s*\(\s*\)")
# Batch-frame framing tokens: the magic byte and the codec entry points.
BATCH_HEADER_RE = re.compile(
    r"\b(kBatchMagic|kBatchVersion|kBatchHeaderSize|"
    r"encode_batch_header|decode_batch_header)\b"
    r"|\b0[xX][bB]5\b"
)


def check_token_rules(path: Path, text: str, raw_lines: list[str], rel: str):
    violations = []

    if not any(rel.startswith(p) or f"/{p}" in rel for p in RAW_PRIMITIVE_ALLOWED):
        for m in RAW_PRIMITIVE_RE.finditer(text):
            line = line_of(text, m.start())
            if suppressed(raw_lines, line, "raw-thread-primitive"):
                continue
            violations.append(
                Violation(
                    path,
                    line,
                    "raw-thread-primitive",
                    f"std::{m.group(1)} outside src/util/ — use "
                    f"util::CheckedMutex / util::CondVar (lock-order "
                    f"checked) or a thread owner in util/",
                )
            )

    for m in DETACH_RE.finditer(text):
        line = line_of(text, m.start())
        if suppressed(raw_lines, line, "thread-detach"):
            continue
        violations.append(
            Violation(
                path,
                line,
                "thread-detach",
                "detach() — a detached thread outlives shutdown and races "
                "static destruction; join it from an owner instead",
            )
        )

    if not any(rel.startswith(p) or f"/{p}" in rel
               for p in MESSAGE_HEADER_ALLOWED):
        for m in MESSAGE_HEADER_RE.finditer(text):
            line = line_of(text, m.start())
            if suppressed(raw_lines, line, "raw-message-header"):
                continue
            violations.append(
                Violation(
                    path,
                    line,
                    "raw-message-header",
                    "hand-built net::Message header outside src/net/ — "
                    "use net::make_request / net::make_response so the "
                    "checksum and trace extension are always stamped",
                )
            )

    in_hot_path = any(rel.startswith(p) or f"/{p}" in rel
                      for p in FUTURE_GET_SCOPED)
    if in_hot_path and not any(rel.endswith(p) for p in FUTURE_GET_EXEMPT):
        for m in FUTURE_GET_RE.finditer(text):
            line = line_of(text, m.start())
            if suppressed(raw_lines, line, "future-bare-get"):
                continue
            violations.append(
                Violation(
                    path,
                    line,
                    "future-bare-get",
                    "bare Future::get() in a hot path blocks forever if "
                    "the peer dies — bound it (get_for/get_until), attach "
                    "a retrying CallPolicy, or use get_expected(); "
                    "annotate if the unbounded wait is intentional",
                )
            )

    if not any(rel.startswith(p) or f"/{p}" in rel
               for p in BATCH_HEADER_ALLOWED):
        for m in BATCH_HEADER_RE.finditer(text):
            line = line_of(text, m.start())
            if suppressed(raw_lines, line, "raw-batch-header"):
                continue
            violations.append(
                Violation(
                    path,
                    line,
                    "raw-batch-header",
                    "batch-frame framing outside src/net/ — only "
                    "net::wire::send_batch / StreamFrameDecoder may emit or "
                    "parse the 0xB5 batch header, so the codec cannot fork",
                )
            )
    return violations


# --------------------------------------------------------------------------
# async-then-immediate-get
# --------------------------------------------------------------------------

# An `async…` member or free call: `.async<&M>(…)`, `async_ping(…)`, …
# The template argument list never contains parentheses in this codebase
# (member pointers like &T::m), which keeps the scan cheap.
ASYNC_CALL_RE = re.compile(r"\basync\w*\s*(?:<[^;{}()]*>)?\s*\(")


def check_async_immediate_get(path: Path, text: str, raw_lines: list[str]):
    """Flag `async_*(...)` whose result is `.get()`-ed in the same
    statement — a blocking call spelled asynchronously."""
    violations = []
    for m in ASYNC_CALL_RE.finditer(text):
        close_idx = find_matching_paren(text, m.end() - 1)
        if close_idx < 0:
            continue
        j = close_idx + 1
        for token in (".", "get", "("):
            while j < len(text) and text[j] in " \t\n":
                j += 1
            if not text.startswith(token, j):
                j = -1
                break
            j += len(token)
        if j < 0:
            continue
        line = line_of(text, m.start())
        if suppressed(raw_lines, line, "async-then-immediate-get"):
            continue
        violations.append(
            Violation(
                path,
                line,
                "async-then-immediate-get",
                "async call immediately .get()-ed in the same statement "
                "— nothing overlaps; use call<&M> for a blocking call, "
                "or hold the future and do work before collecting it",
            )
        )
    return violations


# --------------------------------------------------------------------------
# lock-across-future-get
# --------------------------------------------------------------------------

# A guard object declaration: `std::lock_guard<M> g(mu);`, `std::unique_lock
# lock{mu_};`, `std::scoped_lock both(a, b);`, `std::shared_lock rd(mu_);`.
LOCK_GUARD_RE = re.compile(
    r"\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\s*"
    r"(?:<[^;>]*>)?\s+(\w+)\s*[({]"
)
# The blocking Future collection points.  get_expected() blocks just as
# long as get(); the bounded forms still hold the lock for the full bound.
# CondVar waits are NOT in this set: `cv.wait(lk)` releases the lock.
FUTURE_WAIT_RE = re.compile(
    r"[\w)]\s*(?:\.|->)\s*(get|get_for|get_until|get_expected)\s*\("
)


def guard_scope_end(text: str, decl_end: int) -> int:
    """Offset where the block enclosing a declaration at decl_end closes."""
    depth = 0
    for i in range(decl_end, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth < 0:
                return i
    return len(text)


def check_lock_across_get(path: Path, text: str, raw_lines: list[str]):
    violations = []
    reported = set()
    for gm in LOCK_GUARD_RE.finditer(text):
        var = gm.group(1)
        # The guarded region: from the declaration to the end of its
        # enclosing block, cut short by an explicit `var.unlock()`.
        end = guard_scope_end(text, gm.end())
        um = re.search(rf"\b{re.escape(var)}\s*\.\s*unlock\s*\(",
                       text[gm.end():end])
        if um:
            end = gm.end() + um.start()
        for fm in FUTURE_WAIT_RE.finditer(text, gm.end(), end):
            # Receivers reached through `->` (`it->second.get()`) are
            # iterator / smart-pointer internals, never futures (futures
            # are moved-from values held by name in this codebase).
            recv_start = fm.start()
            while recv_start > 0 and (text[recv_start - 1].isalnum()
                                      or text[recv_start - 1] == "_"):
                recv_start -= 1
            if text[max(0, recv_start - 2):recv_start].endswith("->"):
                continue
            line = line_of(text, fm.start())
            if line in reported:
                continue
            if suppressed(raw_lines, line, "lock-across-future-get"):
                continue
            reported.add(line)
            violations.append(
                Violation(
                    path,
                    line,
                    "lock-across-future-get",
                    f"Future::{fm.group(1)}() while guard '{var}' "
                    f"(declared line {line_of(text, gm.start())}) is still "
                    f"in scope — a remote round trip under a lock; unlock "
                    f"first or collect the future outside the guarded "
                    f"region",
                )
            )
    return violations


# --------------------------------------------------------------------------
# condvar-wait-no-predicate
# --------------------------------------------------------------------------

# A CondVar member/variable declaration anywhere in the linted tree; the
# names feed the per-file wait-site scan (declaration and use may live in
# different files — e.g. node.hpp declares, node.cpp waits).
CONDVAR_DECL_RE = re.compile(r"\b(?:util\s*::\s*)?CondVar\s+(\w+)\s*[;{]")
CONDVAR_WAIT_RE = re.compile(
    r"\b(\w+)\s*(?:\.|->)\s*(wait|wait_for|wait_until)\s*\("
)


def top_level_commas(text: str, open_idx: int) -> int:
    """Commas at depth 1 of the paren at open_idx (i.e. argument
    separators), ignoring nested (), {}, []."""
    depth = 0
    count = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
            if depth == 0:
                return count
        elif c == "," and depth == 1:
            count += 1
    return count


def check_condvar_wait(path: Path, text: str, raw_lines: list[str],
                       condvars: set[str]):
    violations = []
    for m in CONDVAR_WAIT_RE.finditer(text):
        if m.group(1) not in condvars:
            continue
        kind = m.group(2)
        commas = top_level_commas(text, m.end() - 1)
        # wait(lock, pred) has 1 comma; wait_for/until(lock, t, pred) have 2.
        need = 1 if kind == "wait" else 2
        if commas >= need:
            continue
        line = line_of(text, m.start())
        if suppressed(raw_lines, line, "condvar-wait-no-predicate"):
            continue
        violations.append(
            Violation(
                path,
                line,
                "condvar-wait-no-predicate",
                f"{m.group(1)}.{kind}() without a predicate returns on "
                f"spurious wakeups with the condition unchecked — pass the "
                f"predicate overload, or annotate a loop that re-checks "
                f"state every iteration",
            )
        )
    return violations


# --------------------------------------------------------------------------
# dispatch-thread-blocking
# --------------------------------------------------------------------------

# Servant classes: any T with a `class_def<T>` specialization in the tree.
CLASS_DEF_RE = re.compile(r"\bclass_def\s*<\s*(?:[\w]+\s*::\s*)*(\w+)\s*>")
# An out-of-line member definition: `ret Cls::method(...) ... {`.
OUT_OF_LINE_RE = re.compile(r"\b(\w+)\s*::\s*(~?\w+)\s*\(")
# An inline class/struct body: `class Cls ... {`.
CLASS_BODY_RE = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{]*\{")
# Blocking collectives that must not run on a dispatch thread: every
# gather*/barrier* spelling, member or coll::-qualified.  Point-to-point
# call<&M> stays legal — the elastic pool is sized for linear chains, but
# a collective parks one dispatch thread per participant at once.
DISPATCH_BLOCKING_RE = re.compile(
    r"(?:(?:\.|->)\s*(?:template\s+)?|\bcoll\s*::\s*)"
    r"(gather\w*|barrier\w*)\s*[<(]"
)


def collect_context(files: list[Path]) -> dict:
    """Repo-wide pre-pass: servant class names and CondVar variable names.
    Both cross file boundaries (class_def<T> specializations live in
    headers; waits on a header-declared CondVar live in the .cpp)."""
    servants: set[str] = set()
    condvars: set[str] = set()
    for f in files:
        text = strip_comments_and_strings(
            f.read_text(encoding="utf-8", errors="replace"))
        for m in CLASS_DEF_RE.finditer(text):
            if len(m.group(1)) > 1:  # skip template params (class_def<T>)
                servants.add(m.group(1))
        for m in CONDVAR_DECL_RE.finditer(text):
            condvars.add(m.group(1))
    return {"servants": servants, "condvars": condvars}


def servant_regions(text: str, servants: set[str]) -> list[tuple[int, int]]:
    """Offset ranges of servant method bodies: out-of-line `Cls::m(){...}`
    definitions plus whole inline class bodies."""
    regions = []
    for m in OUT_OF_LINE_RE.finditer(text):
        if m.group(1) not in servants:
            continue
        close = find_matching_paren(text, text.find("(", m.end() - 1))
        if close < 0:
            continue
        # A definition's `{` follows the parameter list after only
        # qualifiers (const/noexcept/override/trailing return); a call
        # expression hits `;` or an operator first.
        tail = text[close + 1 : close + 120]
        bm = re.match(
            r"\s*(?:const|noexcept(?:\([^)]*\))?|override|final"
            r"|->\s*[\w:<>,&*\s]+)*\s*\{", tail)
        if not bm:
            continue
        open_idx = close + bm.end()
        regions.append((open_idx, find_matching_brace(text, open_idx - 1)))
    for m in CLASS_BODY_RE.finditer(text):
        if m.group(1) not in servants:
            continue
        open_idx = m.end() - 1
        regions.append((open_idx, find_matching_brace(text, open_idx)))
    return regions


def check_dispatch_blocking(path: Path, text: str, raw_lines: list[str],
                            servants: set[str]):
    violations = []
    regions = servant_regions(text, servants)
    if not regions:
        return violations
    reported = set()
    for m in DISPATCH_BLOCKING_RE.finditer(text):
        if not any(lo <= m.start() < hi for lo, hi in regions):
            continue
        line = line_of(text, m.start())
        if line in reported:
            continue
        if suppressed(raw_lines, line, "dispatch-thread-blocking"):
            continue
        reported.add(line)
        violations.append(
            Violation(
                path,
                line,
                "dispatch-thread-blocking",
                f"blocking collective '{m.group(1)}' inside a servant "
                f"method parks a dispatch thread per participant at once "
                f"— a full worker pool of these deadlocks the machine; "
                f"restructure as async + continuation, or annotate a site "
                f"the elastic pool is sized to absorb",
            )
        )
    return violations


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------


def lint_file(path: Path, root: Path, ctx: dict | None = None
              ) -> list[Violation]:
    ctx = ctx or {"servants": set(), "condvars": set()}
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.split("\n")
    text = strip_comments_and_strings(raw)
    try:
        rel = str(path.resolve().relative_to(root.resolve()))
    except ValueError:
        rel = str(path)
    rel = rel.replace("\\", "/")
    violations = []
    violations += check_serialize_coverage(path, text, raw_lines)
    violations += check_token_rules(path, text, raw_lines, rel)
    violations += check_async_immediate_get(path, text, raw_lines)
    violations += check_lock_across_get(path, text, raw_lines)
    violations += check_condvar_wait(path, text, raw_lines, ctx["condvars"])
    violations += check_dispatch_blocking(path, text, raw_lines,
                                          ctx["servants"])
    return violations


def collect_files(paths: list[Path]) -> list[Path]:
    files = []
    for p in paths:
        if p.is_dir():
            files += [
                f for f in sorted(p.rglob("*")) if f.suffix in CPP_SUFFIXES
            ]
        elif p.is_file():
            if p.suffix in CPP_SUFFIXES:
                files.append(p)
        else:
            # A typo'd path in CI must fail loudly, not lint zero files.
            raise SystemExit(f"oopp_lint: error: no such file or directory: {p}")
    return files


def self_test(fixtures: Path, root: Path) -> int:
    """Every `LINT-EXPECT: rule` comment must produce exactly one matching
    violation on that line; any other violation is a failure."""
    ok = True
    files = collect_files([fixtures])
    # Fixtures are self-contained: the pre-pass context (servant classes,
    # CondVar names) is collected from the fixture set itself.
    ctx = collect_context(files)
    for f in files:
        raw_lines = f.read_text(encoding="utf-8").split("\n")
        expected = set()
        for i, line in enumerate(raw_lines, start=1):
            for m in re.finditer(r"LINT-EXPECT:\s*([\w-]+)", line):
                expected.add((i, m.group(1)))
        got = {(v.line, v.rule) for v in lint_file(f, root, ctx)}
        for miss in sorted(expected - got):
            print(f"SELF-TEST FAIL {f}:{miss[0]}: expected [{miss[1]}] not reported")
            ok = False
        for extra in sorted(got - expected):
            print(f"SELF-TEST FAIL {f}:{extra[0]}: unexpected [{extra[1]}]")
            ok = False
    print("oopp_lint self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("paths", nargs="*", type=Path)
    ap.add_argument("--root", type=Path, default=Path.cwd(),
                    help="repo root for allow-list matching")
    ap.add_argument("--self-test", action="store_true",
                    help="treat paths as fixture dirs with LINT-EXPECT marks")
    ap.add_argument("--list-rules", action="store_true",
                    help="print every rule id and a one-line summary")
    args = ap.parse_args()

    if args.list_rules:
        width = max(len(r) for r in RULES)
        for rule, summary in RULES.items():
            print(f"{rule:<{width}}  {summary}")
        return 0

    if not args.paths:
        ap.error("paths required (or --list-rules)")

    if args.self_test:
        rc = 0
        for p in args.paths:
            rc |= self_test(p, args.root)
        return rc

    violations = []
    files = collect_files(args.paths)
    ctx = collect_context(files)
    for f in files:
        violations += lint_file(f, args.root, ctx)
    for v in violations:
        print(v)
    print(f"oopp_lint: {len(files)} files, {len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
