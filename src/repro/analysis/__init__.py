"""repro.analysis — AST invariant linter for the codebase contract.

PRs 3–6 each fixed recurring violations of the same concurrency and
determinism invariants by hand; this package machine-checks them.  Run
it as ``repro-domino lint [paths...]`` (exit 0 clean, 1 findings, 2
usage error) or call :func:`lint_paths` directly.  The design mirrors
``repro.optimize``: a :class:`Rule` ABC, a string-keyed
``@register_rule`` registry, and one shared parse per file.

Rules (id — invariant — origin PR — suppress with):

====================== ================================================= ====== =
monotonic-deadline     time.time() never in arithmetic/comparisons;      PR 4   #1
                       deadlines use time.monotonic()/perf_counter()
tmp-sibling            store temp files come from tmp_sibling(), never   PR 2/4 #1
                       raw '.tmp' suffixes or tempfile APIs
seeded-rng             no module-level random.*/np.random.* draws; all   PR 1   #1
                       randomness flows from Random(seed)/default_rng
no-blocking-in-async   async def never calls time.sleep, sync socket     PR 3   #1
                       setup, or un-awaited .result()
no-swallowed-transition no broad `except: pass` around job-state         PR 4   #1
                       transitions in serve/ or fleet/
cpu-affinity           auto-parallelism uses os.sched_getaffinity(0);    PR 4   #1
                       os.cpu_count() only as its except-fallback
protocol-exhaustive    every fleet Message is frozen=True, codec-        PR 6   #1
                       registered, and isinstance-dispatched
key-purity             cache_key()/result_key() reference only real      PR 4/5 #1
                       fields; stage_jobs never shapes a store key
documented-suppression every allow-comment names known rules and has a   PR 7   —
                       reason (reason-less allows suppress nothing)
transitive-blocking-in-async  no blocking primitive reachable from an    PR 8   #1
                       async def through the call graph
lock-order             lock-acquisition graph acyclic; no await under a  PR 8   #1
                       held threading.Lock; no non-reentrant re-entry
pickle-boundary        process-pool arguments never transitively hold    PR 8   #1
                       locks/sockets/loops (custom __reduce__ excepted)
protocol-liveness      every sent fleet message has a peer handler;      PR 8   #1
                       every declared state entered and (unless
                       terminal) exited
nondeterministic-keyed-output  functions feeding store payloads under a  PR 9   #1
                       cache_key/result_key infer deterministic (no
                       wall clock, unseeded RNG, set-order, ambient
                       reads) — full call chain as witness
unordered-iteration-leak  set iteration order never flows into lists,   PR 9   #1
                       NDJSON events, wire frames, or store payloads
                       without an intervening sorted()
resource-exception-safety  locks/executors/sockets/files acquired       PR 9   #1
                       outside `with` are released on every exception
                       path (finally, through helper splits) or escape
====================== ================================================= ====== =

The PR 8 rules and the PR 9 effect rules are *cross-module*: they run
over the whole linted file set at once, on a conservative call graph
(:mod:`repro.analysis.callgraph`) and bottom-up effect summaries
(:mod:`repro.analysis.effects`).  ``lint --explain RULE:PATH:LINE``
prints the inference chain behind any finding.  New cross-module rules
land warn-first via a baseline file — ``lint --write-baseline FILE``
snapshots today's findings, ``lint --baseline FILE`` fails only on new
ones, ``--diff`` hides the accepted ones from the listing
(:mod:`repro.analysis.baseline`).

#1 — suppress a single true-but-intended site with an inline comment on
(or directly above) the line::

    cutoff = time.time() - age  # repro: allow[monotonic-deadline] compares persisted wall-clock stamps

The reason text after the bracket is mandatory; an allow-comment without
one suppresses nothing and is itself flagged by
``documented-suppression``.
"""

from repro.analysis.base import (
    Finding,
    Project,
    Rule,
    SourceFile,
    all_rules,
    get_rule_class,
    register_rule,
    rule_names,
)
from repro.analysis.baseline import (
    Baseline,
    BaselineEntry,
    load_baseline,
    split_findings,
    write_baseline,
)
from repro.analysis.callgraph import CallGraph, callgraph
from repro.analysis.effects import EffectEngine, EffectSite, effect_engine
from repro.analysis.engine import (
    LintReport,
    collect_files,
    format_json,
    format_text,
    lint_files,
    lint_paths,
    lint_sources,
    run_lint,
)
from repro.analysis.protocol_model import (
    ProtocolModel,
    check_protocol,
    extract_protocol,
)

__all__ = [
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "all_rules",
    "get_rule_class",
    "register_rule",
    "rule_names",
    "collect_files",
    "format_json",
    "format_text",
    "lint_files",
    "lint_paths",
    "lint_sources",
    "run_lint",
    "LintReport",
    "Baseline",
    "BaselineEntry",
    "load_baseline",
    "split_findings",
    "write_baseline",
    "CallGraph",
    "callgraph",
    "EffectEngine",
    "EffectSite",
    "effect_engine",
    "ProtocolModel",
    "check_protocol",
    "extract_protocol",
]
