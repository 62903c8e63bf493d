#!/usr/bin/env python3
"""Project lint for the papd tree: a tokenizer-backed rule engine.

Every rule is a function registered with @rule(...); it receives a FileContext
(raw lines, comment-stripped lines, and a C++ token stream) and yields
Finding objects.  Repo-wide invariants (rules that need to see several files
at once) register with @repo_rule(...) and receive the whole file list.

Rules:

  unit-suffix           A double/float declaration whose name carries a unit
                        suffix (*_w, *_mhz, *_s) must use the matching strong
                        type from src/common/units.h.  `_per_` rate names are
                        compound units with no alias and are exempt.

  include-guard         Header guards follow the full-path style
                        SRC_<DIR>_<FILE>_H_ (tests/..., bench/... likewise).

  naked-double          Public policy headers (src/policy/*.h) must not take
                        naked `double` parameters: every quantity crossing the
                        policy API carries its unit in the type.

  hot-alloc             A function marked `// PAPD_HOT` must not allocate: no
                        local container declarations, no `new`, no growth
                        calls except on `scratch` members.  PAPD_HOT_ALLOW on
                        a line exempts deliberate amortized growth.

  hot-log               A PAPD_HOT function must not log (Logf / PAPD_LOG_*);
                        hot code uses the PAPD_TRACE_* macros instead.

  raw-mutex             `std::mutex` / lock_guard / unique_lock /
                        condition_variable may only appear under src/common/
                        (where the annotated papd::Mutex wrappers live).
                        Everything else uses the wrappers so Clang
                        -Wthread-safety sees every acquisition.

  raw-assert            No raw `assert(...)` under src/: it compiles out under
                        NDEBUG, which the default RelWithDebInfo build
                        defines.  Use PAPD_CHECK (every build) at construction
                        and API boundaries, PAPD_DCHECK on per-tick paths
                        (src/common/check.h).  `static_assert` is exempt.

  trace-side-effect     PAPD_TRACE_* macro arguments must be pure: when
                        tracing is disabled the macro may not evaluate its
                        arguments, so `++`, `--`, and assignments inside the
                        parens silently change behaviour between builds.

  value-unwrap          `.value()` — the strong-type escape hatch — is
                        allowed only in whitelisted boundary files under
                        src/ (MSR encode/decode, physics models, observability
                        export).  Tests, benches, examples, and tools are
                        assertion/printf boundaries and are not scanned.

  registry-completeness Every enumerator of a registered enum must appear in
                        its handler table: PolicyKind vs kRegistry in
                        src/policy/policy_registry.cc, ClusterFaultKind vs
                        kClusterFaultHandlers in src/cluster/budget_tree.cc,
                        and RackArbiterKind vs RackArbiterKindName in
                        src/cluster/socket_stack.cc (see REGISTRY_SPECS).

Suppression: append `// papd-lint: allow(<rule>[, <rule>...])` to a line to
waive named rules on that line.  The hot rules additionally honour the
legacy PAPD_HOT_ALLOW marker.

Usage: papd_lint.py [repo_root] [--json[=FILE]] [--list-rules]
Exits non-zero and prints file:line diagnostics when violations exist;
registered as the `papd_lint` ctest target.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

LINT_DIRS = ("src", "tests", "bench", "examples", "tools")

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# A minimal C++ lexer: enough fidelity that rules never mistake comment or
# string contents for code, and can walk balanced parens.
TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<string>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
    | (?P<number>\.?\d(?:[\w.]|[eEpP][+-])*)
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<punct><<=|>>=|->\*|\.\.\.|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%^&|~!<>=]=|[{}()\[\];,.?:~!<>=&|^%*/+-])
    | (?P<ws>\s+)
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str  # comment | string | number | ident | punct | other
    text: str
    line: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    for m in TOKEN_RE.finditer(text):
        kind = m.lastgroup or "other"
        value = m.group()
        if kind != "ws":
            tokens.append(Token(kind, value, line))
        line += value.count("\n")
    return tokens


def strip_comments(line: str) -> str:
    line = re.sub(r"//.*$", "", line)
    line = re.sub(r"\".*?\"", '""', line)
    return line


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str  # repo-relative, posix separators
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


SUPPRESS_RE = re.compile(r"papd-lint:\s*allow\(([^)]*)\)")


class FileContext:
    """Everything a per-file rule may inspect, computed once per file."""

    def __init__(self, root: Path, path: Path):
        self.root = root
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.lines = self.text.splitlines()
        self.code_lines = [strip_comments(l) for l in self.lines]
        self._tokens: list[Token] | None = None
        # line number -> set of rule names waived on that line.
        self.suppressions: dict[int, set[str]] = {}
        for lineno, raw in enumerate(self.lines, start=1):
            m = SUPPRESS_RE.search(raw)
            if m:
                names = {n.strip() for n in m.group(1).split(",") if n.strip()}
                self.suppressions[lineno] = names

    @property
    def tokens(self) -> list[Token]:
        if self._tokens is None:
            self._tokens = tokenize(self.text)
        return self._tokens

    def code_tokens(self) -> list[Token]:
        return [t for t in self.tokens if t.kind not in ("comment", "string")]

    def suppressed(self, rule_name: str, lineno: int) -> bool:
        return rule_name in self.suppressions.get(lineno, set())


FileRule = Callable[[FileContext], Iterable[Finding]]
RepoRule = Callable[[Path, "list[FileContext]"], Iterable[Finding]]

FILE_RULES: dict[str, FileRule] = {}
REPO_RULES: dict[str, RepoRule] = {}
RULE_DOCS: dict[str, str] = {}


def rule(name: str, doc: str) -> Callable[[FileRule], FileRule]:
    def register(fn: FileRule) -> FileRule:
        FILE_RULES[name] = fn
        RULE_DOCS[name] = doc
        return fn

    return register


def repo_rule(name: str, doc: str) -> Callable[[RepoRule], RepoRule]:
    def register(fn: RepoRule) -> RepoRule:
        REPO_RULES[name] = fn
        RULE_DOCS[name] = doc
        return fn

    return register


# ---------------------------------------------------------------------------
# Rules ported from the ad-hoc linter
# ---------------------------------------------------------------------------

UNIT_ALIAS = {"w": "Watts", "mhz": "Mhz", "s": "Seconds"}
DECL_RE = re.compile(r"\b(double|float)\s+(&?\s*)([A-Za-z_][A-Za-z0-9_]*)")


def unit_suffix(name: str) -> str | None:
    name = name.rstrip("_")
    if "_per_" in name:  # Compound rate (e.g. degrees C per watt): no alias.
        return None
    parts = name.split("_")
    if len(parts) < 2:
        return None
    return parts[-1] if parts[-1] in UNIT_ALIAS else None


@rule("unit-suffix", "double/float declarations with unit-suffixed names use strong types")
def check_unit_suffixes(ctx: FileContext) -> Iterator[Finding]:
    for lineno, line in enumerate(ctx.code_lines, start=1):
        for match in DECL_RE.finditer(line):
            base_type, _, name = match.groups()
            suffix = unit_suffix(name)
            if suffix is not None:
                yield Finding(
                    "unit-suffix",
                    ctx.rel,
                    lineno,
                    f"`{base_type} {name}` should be `{UNIT_ALIAS[suffix]} {name}` "
                    f"(strong type in src/common/units.h)",
                )


@rule("include-guard", "header guards follow the SRC_<DIR>_<FILE>_H_ path style")
def check_include_guard(ctx: FileContext) -> Iterator[Finding]:
    if ctx.path.suffix != ".h":
        return
    want = re.sub(r"[^A-Za-z0-9]", "_", ctx.rel).upper() + "_"
    ifndef = None
    define = None
    for lineno, raw in enumerate(ctx.lines, start=1):
        stripped = raw.strip()
        if ifndef is None:
            m = re.match(r"#ifndef\s+(\S+)", stripped)
            if m:
                ifndef = (lineno, m.group(1))
            continue
        m = re.match(r"#define\s+(\S+)", stripped)
        if m:
            define = (lineno, m.group(1))
        break
    if ifndef is None or define is None:
        yield Finding(
            "include-guard", ctx.rel, 1, f"missing #ifndef/#define guard (want {want})"
        )
        return
    for lineno, got in (ifndef, define):
        if got != want:
            yield Finding("include-guard", ctx.rel, lineno, f"`{got}` should be `{want}`")


PARAM_DOUBLE_RE = re.compile(r"\bdouble\s+[A-Za-z_]")


@rule("naked-double", "policy headers must not take bare double parameters")
def check_policy_params(ctx: FileContext) -> Iterator[Finding]:
    if not (ctx.rel.startswith("src/policy/") and ctx.path.suffix == ".h"):
        return
    clean = "\n".join(ctx.code_lines)
    # Function parameter lists: an identifier directly before `(...)`.
    # Nested parens don't occur in this tree's declarations.
    for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_]*\s*\(([^()]*)\)", clean):
        params = m.group(1)
        if PARAM_DOUBLE_RE.search(params):
            lineno = clean[: m.start()].count("\n") + 1
            yield Finding(
                "naked-double",
                ctx.rel,
                lineno,
                f"parameter list `({params.strip()})` uses a bare `double`; "
                f"use a unit type (Watts, Mhz, Ips, ResourceUnits, ...)",
            )


HOT_CONTAINER_RE = re.compile(
    r"\bstd::(vector|deque|map|set|unordered_map|unordered_set|string|list|queue|priority_queue)\s*<"
)
HOT_GROW_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_.\->]*)\s*\.\s*(push_back|emplace_back|push)\s*\("
)
HOT_NEW_RE = re.compile(r"\bnew\b")
HOT_LOG_RE = re.compile(r"\b(Logf|PAPD_LOG_[A-Z]+)\s*\(")


def hot_regions(ctx: FileContext) -> Iterator[tuple[int, str, bool]]:
    """Yields (lineno, code_line, allowed) for every line inside a PAPD_HOT
    function body."""
    for idx, raw in enumerate(ctx.lines):
        if "PAPD_HOT" not in raw or "PAPD_HOT_ALLOW" in raw:
            continue
        depth = 0
        started = False
        for lineno in range(idx + 1, len(ctx.lines)):
            line = ctx.code_lines[lineno]
            allowed = (
                "PAPD_HOT_ALLOW" in ctx.lines[lineno]
                or ctx.suppressed("hot-alloc", lineno + 1)
                or ctx.suppressed("hot-log", lineno + 1)
            )
            if not started and "{" in line:
                started = True
            if started:
                yield lineno + 1, line, allowed
            depth += line.count("{") - line.count("}")
            if started and depth <= 0:
                break


@rule("hot-alloc", "PAPD_HOT functions must not allocate")
def check_hot_allocations(ctx: FileContext) -> Iterator[Finding]:
    for lineno, line, allowed in hot_regions(ctx):
        if allowed:
            continue
        if HOT_NEW_RE.search(line):
            yield Finding(
                "hot-alloc", ctx.rel, lineno, "`new` inside a PAPD_HOT function"
            )
        # Container *declarations* allocate; references/pointers to
        # containers (`std::vector<T>&`) do not.
        if HOT_CONTAINER_RE.search(line) and not re.search(r">\s*[&*]", line):
            yield Finding(
                "hot-alloc",
                ctx.rel,
                lineno,
                "allocating container declared inside a PAPD_HOT function "
                "(hoist to a pre-sized member)",
            )
        for m in HOT_GROW_RE.finditer(line):
            target = m.group(1)
            if "scratch" not in target:
                yield Finding(
                    "hot-alloc",
                    ctx.rel,
                    lineno,
                    f"`{target}.{m.group(2)}()` grows a non-scratch container inside "
                    f"a PAPD_HOT function (add PAPD_HOT_ALLOW if growth is "
                    f"deliberately amortized)",
                )


@rule("hot-log", "PAPD_HOT functions must not log; use PAPD_TRACE_*")
def check_hot_logging(ctx: FileContext) -> Iterator[Finding]:
    for lineno, line, allowed in hot_regions(ctx):
        if allowed:
            continue
        for m in HOT_LOG_RE.finditer(line):
            yield Finding(
                "hot-log",
                ctx.rel,
                lineno,
                f"`{m.group(1)}` inside a PAPD_HOT function; use PAPD_TRACE_* "
                f"(src/obs/trace.h) or add PAPD_HOT_ALLOW for a cold error path",
            )


# ---------------------------------------------------------------------------
# New rules
# ---------------------------------------------------------------------------

RAW_SYNC_TYPES = {
    "mutex",
    "recursive_mutex",
    "shared_mutex",
    "timed_mutex",
    "lock_guard",
    "unique_lock",
    "scoped_lock",
    "shared_lock",
    "condition_variable",
    "condition_variable_any",
}


@rule("raw-mutex", "std:: synchronization primitives only under src/common/")
def check_raw_mutex(ctx: FileContext) -> Iterator[Finding]:
    if ctx.rel.startswith("src/common/"):
        return
    toks = ctx.code_tokens()
    for i in range(len(toks) - 2):
        if (
            toks[i].kind == "ident"
            and toks[i].text == "std"
            and toks[i + 1].text == "::"
            and toks[i + 2].kind == "ident"
            and toks[i + 2].text in RAW_SYNC_TYPES
        ):
            yield Finding(
                "raw-mutex",
                ctx.rel,
                toks[i].line,
                f"raw `std::{toks[i + 2].text}`; use papd::Mutex / papd::MutexLock / "
                f"papd::CondVar (src/common/mutex.h) so Clang -Wthread-safety sees "
                f"the acquisition",
            )


@rule("raw-assert", "no raw assert() under src/; use PAPD_CHECK / PAPD_DCHECK")
def check_raw_assert(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.rel.startswith("src/"):
        return
    toks = ctx.code_tokens()
    for i in range(len(toks) - 1):
        if toks[i].kind == "ident" and toks[i].text == "assert" and toks[i + 1].text == "(":
            yield Finding(
                "raw-assert",
                ctx.rel,
                toks[i].line,
                "raw `assert` compiles out under NDEBUG (the default build); use "
                "PAPD_CHECK at boundaries or PAPD_DCHECK on per-tick paths "
                "(src/common/check.h)",
            )


SIDE_EFFECT_OPS = {
    "++",
    "--",
    "=",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "<<=",
    ">>=",
}


@rule("trace-side-effect", "PAPD_TRACE_* arguments must be side-effect free")
def check_trace_side_effects(ctx: FileContext) -> Iterator[Finding]:
    toks = ctx.code_tokens()
    i = 0
    while i < len(toks):
        t = toks[i]
        if (
            t.kind == "ident"
            and t.text.startswith("PAPD_TRACE_")
            and i + 1 < len(toks)
            and toks[i + 1].text == "("
        ):
            # The macro definitions themselves (#define PAPD_TRACE_...) may
            # assign to locals; skip lines that define the macro.
            defining = "#define" in ctx.lines[t.line - 1]
            depth = 0
            j = i + 1
            while j < len(toks):
                tj = toks[j]
                if tj.text == "(":
                    depth += 1
                elif tj.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif not defining and depth >= 1 and tj.text in SIDE_EFFECT_OPS:
                    # `==`-family comparisons are their own tokens, so a bare
                    # `=` here really is an assignment; lambdas introduce
                    # `=` only inside `[...]` captures, which this tree's
                    # trace args never use.
                    yield Finding(
                        "trace-side-effect",
                        ctx.rel,
                        tj.line,
                        f"`{tj.text}` inside PAPD_TRACE_* arguments; trace macros "
                        f"must not evaluate side effects (args vanish when tracing "
                        f"is compiled out or the recorder is null)",
                    )
                j += 1
            i = j
        i += 1


# Boundary files where `.value()` is legitimate: MSR register encode/decode,
# the physics models that do raw-double math internally, observability
# export, and the units header itself.  Tests/bench/examples/tools are
# assertion and printf boundaries, so src/ is the only scanned subtree.
VALUE_UNWRAP_WHITELIST = (
    "src/msr/",
    "src/obs/",
    "src/common/units.h",
    "src/cpusim/rapl.cc",
    "src/cpusim/thermal.cc",
    "src/cpusim/power_model.cc",
    # SIMD kernels reinterpret unit-typed vectors as raw doubles at the lane
    # boundary; everything outside the kernel bodies stays in unit types.
    "src/cpusim/simd/",
    "src/platform/voltage_curve.cc",
    # Sweep expansion/serialization: axis labels ("cap=270w") and the JSON
    # artifact are printf boundaries, the same class as src/obs/ exporters.
    "src/experiments/sweep.cc",
)


@rule("value-unwrap", ".value() only in whitelisted boundary files under src/")
def check_value_unwrap(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.rel.startswith("src/"):
        return
    if any(
        ctx.rel.startswith(p) if p.endswith("/") else ctx.rel == p
        for p in VALUE_UNWRAP_WHITELIST
    ):
        return
    toks = ctx.code_tokens()
    for i in range(len(toks) - 3):
        # Dot form only: `->value()` is optional/pointer access (e.g. the
        # obs counters), not the Quantity escape hatch.
        if (
            toks[i].text == "."
            and toks[i + 1].kind == "ident"
            and toks[i + 1].text == "value"
            and toks[i + 2].text == "("
            and toks[i + 3].text == ")"
        ):
            yield Finding(
                "value-unwrap",
                ctx.rel,
                toks[i].line,
                "`.value()` unwraps a strong unit type outside the boundary "
                "whitelist; keep the computation in unit types or add the file "
                "to VALUE_UNWRAP_WHITELIST with justification",
            )


@dataclass(frozen=True)
class RegistrySpec:
    """One enum whose implementation file must reference every enumerator."""

    enum: str  # e.g. "PolicyKind"
    header_rel: str  # file declaring `enum class <enum>`
    impl_rel: str  # file holding the handler/registry table
    gate_prefix: str  # subsystem prefix; spec is skipped if absent
    table: str  # table name, for the diagnostic message


REGISTRY_SPECS = (
    RegistrySpec(
        enum="PolicyKind",
        header_rel="src/policy/policy_registry.h",
        impl_rel="src/policy/policy_registry.cc",
        gate_prefix="src/policy/",
        table="kRegistry",
    ),
    RegistrySpec(
        enum="ClusterFaultKind",
        header_rel="src/cluster/budget_tree.h",
        impl_rel="src/cluster/budget_tree.cc",
        gate_prefix="src/cluster/",
        table="kClusterFaultHandlers",
    ),
    RegistrySpec(
        enum="RackArbiterKind",
        header_rel="src/cluster/socket_stack.h",
        impl_rel="src/cluster/socket_stack.cc",
        # Gate on the declaring file, not the whole subsystem: fixture trees
        # carry budget_tree without the socket layer.
        gate_prefix="src/cluster/socket_stack",
        table="RackArbiterKindName",
    ),
)


def _enum_body_re(enum: str) -> re.Pattern[str]:
    # Optional `: uint8_t`-style base before the brace.
    return re.compile(
        r"enum\s+class\s+" + enum + r"(?:\s*:\s*\w+)?\s*\{([^}]*)\}", re.DOTALL
    )


@repo_rule(
    "registry-completeness",
    "every registered enum's enumerators appear in its handler table",
)
def check_registry_completeness(
    root: Path, contexts: list[FileContext]
) -> Iterator[Finding]:
    by_rel = {ctx.rel: ctx for ctx in contexts}
    for spec in REGISTRY_SPECS:
        if not any(ctx.rel.startswith(spec.gate_prefix) for ctx in contexts):
            continue  # Tree without this subsystem (e.g. lint-rule fixtures).
        header = by_rel.get(spec.header_rel)
        impl = by_rel.get(spec.impl_rel)
        if header is None or impl is None:
            # The registry moved: the rule must fail loudly, not silently pass.
            missing = next(
                rel
                for rel, ctx in ((spec.header_rel, header), (spec.impl_rel, impl))
                if ctx is None
            )
            yield Finding(
                "registry-completeness",
                missing,
                1,
                f"{spec.enum} registry file not found; update REGISTRY_SPECS in "
                "tools/papd_lint.py if the registry moved",
            )
            continue
        clean_header = "\n".join(header.code_lines)
        m = _enum_body_re(spec.enum).search(clean_header)
        if m is None:
            yield Finding(
                "registry-completeness",
                header.rel,
                1,
                f"could not locate `enum class {spec.enum}` in {header.rel}",
            )
            continue
        enum_line = clean_header[: m.start()].count("\n") + 1
        enumerators = re.findall(r"\bk[A-Za-z0-9]+\b", m.group(1))
        registered = set(
            re.findall(
                spec.enum + r"::(k[A-Za-z0-9]+)", "\n".join(impl.code_lines)
            )
        )
        for name in enumerators:
            if name not in registered:
                yield Finding(
                    "registry-completeness",
                    header.rel,
                    enum_line,
                    f"{spec.enum}::{name} has no entry in {spec.table} "
                    f"({impl.rel}); papdctl and the harness cannot name it",
                )


SIMD_DIR = "src/cpusim/simd/"
# x86 vector intrinsics and types: _mm_*/_mm256_*/... calls, __m128/__m256/
# __m512 (and integer/double variants) types, and the umbrella header.
INTRINSIC_IDENT_RE = re.compile(r"^(_mm\w*|__m\d+\w*)$")
# A kernel definition starts its line with its return type (any type name:
# kernels return void, counts, structs or temperatures); indented calls and
# the table initializers do not match.
SIMD_KERNEL_DEF_RE = re.compile(r"^(?:[A-Za-z_][\w:]*\s+)+([A-Za-z0-9_]+)(Avx2|Scalar)\s*\(")


@repo_rule(
    "simd-guard",
    "intrinsics only under src/cpusim/simd/; every Avx2 kernel has a Scalar twin",
)
def check_simd_guard(root: Path, contexts: list[FileContext]) -> Iterator[Finding]:
    # (a) Vector intrinsics are quarantined in the SIMD module, where the
    # scalar reference path and the bit-identity test fixture live.  Code
    # elsewhere stays portable and goes through the dispatched kernel table.
    for ctx in contexts:
        if ctx.rel.startswith(SIMD_DIR):
            continue
        for tok in ctx.code_tokens():
            if tok.kind == "ident" and INTRINSIC_IDENT_RE.match(tok.text):
                yield Finding(
                    "simd-guard",
                    ctx.rel,
                    tok.line,
                    f"`{tok.text}` outside {SIMD_DIR}; vector intrinsics live in "
                    "the SIMD module behind the TickKernels dispatch table",
                )
                break  # One finding per file is enough to fail the build.
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if "immintrin.h" in line and "#include" in line:
                yield Finding(
                    "simd-guard",
                    ctx.rel,
                    lineno,
                    f"<immintrin.h> included outside {SIMD_DIR}",
                )

    # (b) Every AVX2 kernel must keep its scalar reference implementation:
    # the scalar path is both the no-AVX2 fallback and the bit-identity
    # oracle the equivalence test compares against.
    kernels: dict[str, dict[str, tuple[str, int]]] = {}
    for ctx in contexts:
        if not ctx.rel.startswith(SIMD_DIR):
            continue
        for lineno, line in enumerate(ctx.code_lines, start=1):
            for m in SIMD_KERNEL_DEF_RE.finditer(line):
                base, variant = m.groups()
                kernels.setdefault(base, {})[variant] = (ctx.rel, lineno)
    for base, variants in sorted(kernels.items()):
        if "Avx2" in variants and "Scalar" not in variants:
            rel, lineno = variants["Avx2"]
            yield Finding(
                "simd-guard",
                rel,
                lineno,
                f"SIMD kernel `{base}Avx2` has no `{base}Scalar` reference "
                "implementation (required as fallback and bit-identity oracle)",
            )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_files(root: Path) -> list[Path]:
    files: list[Path] = []
    for top in LINT_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".h", ".cc", ".cpp"):
                files.append(path)
    return files


def run(root: Path) -> tuple[list[Finding], int]:
    contexts = [FileContext(root, path) for path in collect_files(root)]
    findings: list[Finding] = []
    for ctx in contexts:
        for name, fn in FILE_RULES.items():
            for finding in fn(ctx):
                if not ctx.suppressed(name, finding.line):
                    findings.append(finding)
    by_rel = {ctx.rel: ctx for ctx in contexts}
    for name, fn in REPO_RULES.items():
        for finding in fn(root, contexts):
            ctx = by_rel.get(finding.path)
            if ctx is None or not ctx.suppressed(name, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, len(contexts)


def main(argv: list[str]) -> int:
    root = Path.cwd()
    json_out: str | None = None
    emit_json = False
    for arg in argv[1:]:
        if arg == "--list-rules":
            for name in sorted(RULE_DOCS):
                print(f"{name:24s} {RULE_DOCS[name]}")
            return 0
        if arg == "--json":
            emit_json = True
        elif arg.startswith("--json="):
            emit_json = True
            json_out = arg.split("=", 1)[1]
        elif arg.startswith("--"):
            print(f"papd_lint: unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            root = Path(arg).resolve()

    findings, scanned = run(root)
    if scanned == 0:
        # A lint run that saw no sources is a misconfiguration (typo'd
        # root in CI), not a clean tree.
        print(f"papd_lint: no sources found under {root}")
        return 2

    if emit_json:
        report = {
            "root": str(root),
            "files_scanned": scanned,
            "rules": sorted(RULE_DOCS),
            "findings": [
                {"rule": f.rule, "path": f.path, "line": f.line, "message": f.message}
                for f in findings
            ],
        }
        payload = json.dumps(report, indent=2)
        if json_out:
            Path(json_out).write_text(payload + "\n", encoding="utf-8")
        else:
            print(payload)
            return 1 if findings else 0

    for f in findings:
        print(f.render())
    if findings:
        print(f"papd_lint: {len(findings)} violation(s)")
        return 1
    print(f"papd_lint: clean ({scanned} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
