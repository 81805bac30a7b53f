"""Tests for repro.analysis — the AST invariant linter.

Every rule has a fixture pair under ``tests/analysis_fixtures/<rule>/``:
``bad/`` produces exactly the expected findings (id + line), ``good/``
lints clean.  The suite also pins suppression semantics, ``--select`` /
``--ignore``, both CLI output formats, the baseline/diff workflow, the
cross-module dataflow rules (call graph, lock order, pickle boundary,
protocol liveness), and — the durable regression guard — that the real
``src/repro`` tree lints clean.
"""

import json
import os
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    Rule,
    callgraph,
    check_protocol,
    collect_files,
    extract_protocol,
    lint_paths,
    lint_sources,
    load_baseline,
    register_rule,
    rule_names,
    split_findings,
    write_baseline,
)
from repro.analysis.base import Project, SourceFile, parse_suppressions
from repro.cli import main as cli_main
from repro.errors import ConfigError

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC_TREE = Path(__file__).resolve().parents[1] / "src" / "repro"
EXAMPLES_README = Path(__file__).resolve().parents[1] / "examples" / "README.md"

# rule id -> [(path suffix, line), ...] for every expected bad-finding,
# in Finding.sort_key order
EXPECTED = {
    "monotonic-deadline": [("alias.py", 6), ("deadline.py", 5)],
    "tmp-sibling": [
        (os.path.join("store", "backends", "disk.py"), 6),
        (os.path.join("store", "writer.py"), 6),
    ],
    "seeded-rng": [("ctor.py", 7), ("ctor.py", 11), ("sampler.py", 5)],
    "no-blocking-in-async": [(os.path.join("serve", "loop.py"), 5)],
    "no-swallowed-transition": [(os.path.join("fleet", "dispatch.py"), 5)],
    "cpu-affinity": [("pool.py", 5)],
    "protocol-exhaustive": [("protocol.py", 24)],
    "key-purity": [("config_like.py", 14)],
    "documented-suppression": [("undocumented.py", 5)],
    "transitive-blocking-in-async": [(os.path.join("serve", "poller.py"), 13)],
    "lock-order": [("ledger.py", 13)],
    "pickle-boundary": [("library.py", 22)],
    "protocol-liveness": [("peers.py", 10)],
    "nondeterministic-keyed-output": [("flow.py", 29)],
    "unordered-iteration-leak": [(os.path.join("store", "payload.py"), 7)],
    "resource-exception-safety": [("worker.py", 8)],
}


#: The rules that read one file at a time, with no call graph.
PER_FILE_RULES = [
    "cpu-affinity",
    "documented-suppression",
    "key-purity",
    "monotonic-deadline",
    "no-blocking-in-async",
    "no-swallowed-transition",
    "seeded-rng",
    "tmp-sibling",
]


def _project(mapping):
    """Build an in-memory Project from {path: source_text}."""
    return Project(
        files=[SourceFile.parse(path, text=text) for path, text in mapping.items()]
    )


def _lint_snippet(text, path="snippet.py", **kwargs):
    return lint_sources([SourceFile.parse(path, text=text)], **kwargs)


# ---------------------------------------------------------------------------
# fixture pairs


def test_every_rule_has_a_fixture_pair():
    assert sorted(EXPECTED) == rule_names()
    for rule in EXPECTED:
        assert (FIXTURES / rule / "bad").is_dir()
        assert (FIXTURES / rule / "good").is_dir()


def test_every_rule_is_documented():
    """New rules cannot land undocumented: each id must appear in the
    examples/README invariants table and the package docstring table."""
    import repro.analysis as analysis

    readme = EXAMPLES_README.read_text(encoding="utf-8")
    for rule in rule_names():
        assert f"`{rule}`" in readme, (
            f"rule {rule!r} missing from the examples/README invariants table"
        )
        assert rule in analysis.__doc__, (
            f"rule {rule!r} missing from the repro.analysis docstring table"
        )


@pytest.mark.parametrize("rule", sorted(EXPECTED))
def test_bad_fixture_produces_exactly_the_expected_findings(rule):
    findings = lint_paths([str(FIXTURES / rule / "bad")], select=[rule])
    assert len(findings) == len(EXPECTED[rule]), findings
    for finding, (suffix, line) in zip(findings, EXPECTED[rule]):
        assert finding.rule == rule
        assert finding.path.endswith(suffix)
        assert finding.line == line
        assert finding.severity == "error"
        assert finding.message


@pytest.mark.parametrize("rule", sorted(EXPECTED))
def test_good_fixture_is_clean(rule):
    assert lint_paths([str(FIXTURES / rule / "good")], select=[rule]) == []


@pytest.mark.parametrize("rule", sorted(EXPECTED))
def test_good_fixture_is_clean_under_the_full_rule_set(rule):
    assert lint_paths([str(FIXTURES / rule / "good")]) == []


# ---------------------------------------------------------------------------
# CLI: exit codes and both output formats


@pytest.mark.parametrize("rule", sorted(EXPECTED))
def test_cli_text_format_reports_the_fixture_finding(rule, capsys):
    suffix, line = EXPECTED[rule][0]
    code = cli_main(["lint", str(FIXTURES / rule / "bad"), "--select", rule])
    out = capsys.readouterr().out
    assert code == 1
    assert f"{suffix}:{line}: {rule}:" in out
    assert f"{len(EXPECTED[rule])} finding(s)" in out


@pytest.mark.parametrize("rule", sorted(EXPECTED))
def test_cli_json_format_reports_the_fixture_finding(rule, capsys):
    suffix, line = EXPECTED[rule][0]
    code = cli_main(
        ["lint", str(FIXTURES / rule / "bad"), "--select", rule, "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["count"] == len(EXPECTED[rule])
    finding = payload["findings"][0]
    assert finding["rule"] == rule
    assert finding["path"].endswith(suffix)
    assert finding["line"] == line


def test_cli_clean_tree_exits_zero(capsys):
    rule = "monotonic-deadline"
    code = cli_main(["lint", str(FIXTURES / rule / "good"), "--select", rule])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean" in out

    code = cli_main(
        ["lint", str(FIXTURES / rule / "good"), "--select", rule, "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["count"] == 0
    assert payload["findings"] == []
    assert payload["files"] == 2


def test_cli_unknown_rule_is_a_usage_error(capsys):
    assert cli_main(["lint", str(FIXTURES), "--select", "nope"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_missing_path_is_a_usage_error(capsys):
    assert cli_main(["lint", str(FIXTURES / "does-not-exist")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in rule_names():
        assert rule in out


# ---------------------------------------------------------------------------
# suppression semantics

_VIOLATION = "import time\n\ndeadline = time.time() + 5\n"


def test_documented_suppression_silences_the_finding():
    text = _VIOLATION.replace(
        "+ 5", "+ 5  # repro: allow[monotonic-deadline] fixture needs wall clock"
    )
    assert _lint_snippet(text) == []


def test_suppression_on_the_line_above_works():
    text = (
        "import time\n"
        "\n"
        "# repro: allow[monotonic-deadline] fixture needs wall clock\n"
        "deadline = time.time() + 5\n"
    )
    assert _lint_snippet(text) == []


def test_reasonless_suppression_suppresses_nothing():
    text = _VIOLATION.replace("+ 5", "+ 5  # repro: allow[monotonic-deadline]")
    rules = {f.rule for f in _lint_snippet(text)}
    assert rules == {"monotonic-deadline", "documented-suppression"}


def test_suppression_for_a_different_rule_does_not_apply():
    text = _VIOLATION.replace(
        "+ 5", "+ 5  # repro: allow[seeded-rng] wrong rule entirely"
    )
    rules = {f.rule for f in _lint_snippet(text)}
    assert "monotonic-deadline" in rules


def test_unknown_rule_id_in_allow_comment_is_flagged():
    findings = _lint_snippet(
        "x = 1  # repro: allow[not-a-rule] stale after a rename\n",
        select=["documented-suppression"],
    )
    assert len(findings) == 1
    assert "unknown rule" in findings[0].message


def test_allow_pattern_inside_a_string_literal_is_not_a_suppression():
    text = 'HELP = "write # repro: allow[rule-id] <reason> to suppress"\n'
    assert parse_suppressions(text) == {}
    assert _lint_snippet(text, select=["documented-suppression"]) == []


def test_one_comment_can_allow_multiple_rules():
    text = (
        "import time\n"
        "\n"
        "# repro: allow[monotonic-deadline, seeded-rng] both intended here\n"
        "deadline = time.time() + 5\n"
    )
    assert _lint_snippet(text) == []


# ---------------------------------------------------------------------------
# select / ignore

_TWO_VIOLATIONS = (
    "import os\n"
    "import time\n"
    "\n"
    "\n"
    "def jobs(timeout_s):\n"
    "    deadline = time.time() + timeout_s\n"
    "    return os.cpu_count(), deadline\n"
)


def test_select_narrows_to_the_named_rules():
    findings = _lint_snippet(_TWO_VIOLATIONS, select=["monotonic-deadline"])
    assert {f.rule for f in findings} == {"monotonic-deadline"}


def test_ignore_drops_the_named_rules():
    findings = _lint_snippet(_TWO_VIOLATIONS, ignore=["monotonic-deadline"])
    assert {f.rule for f in findings} == {"cpu-affinity"}


def test_unknown_rule_in_select_or_ignore_raises():
    with pytest.raises(ConfigError):
        _lint_snippet(_TWO_VIOLATIONS, select=["bogus"])
    with pytest.raises(ConfigError):
        _lint_snippet(_TWO_VIOLATIONS, ignore=["bogus"])


def test_cli_comma_separated_and_repeated_flags(capsys):
    bad = str(FIXTURES / "cpu-affinity" / "bad")
    code = cli_main(
        ["lint", bad, "--select", "cpu-affinity,seeded-rng", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["count"] == 1
    code = cli_main(["lint", bad, "--ignore", "cpu-affinity"])
    capsys.readouterr()
    assert code == 0


# ---------------------------------------------------------------------------
# engine behaviour


def test_syntax_error_becomes_a_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def nope(:\n", encoding="utf-8")
    findings = lint_paths([str(path)])
    assert len(findings) == 1
    assert findings[0].rule == "syntax-error"
    assert "syntax error" in findings[0].message


def test_sources_decode_the_way_python_does(tmp_path):
    cookie = tmp_path / "cookie.py"
    cookie.write_bytes(b'# -*- coding: latin-1 -*-\nNAME = "caf\xe9"\n')
    undecodable = tmp_path / "undecodable.py"
    undecodable.write_bytes(b'NAME = "caf\xe9"\n')
    assert lint_paths([str(cookie)]) == []
    findings = lint_paths([str(undecodable)])
    assert [f.rule for f in findings] == ["syntax-error"]
    assert "cannot decode source" in findings[0].message


def test_collect_files_expands_dedups_and_sorts(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    sub = tmp_path / "pkg"
    sub.mkdir()
    (sub / "c.py").write_text("x = 1\n", encoding="utf-8")
    files = collect_files([str(tmp_path), str(tmp_path / "a.py")])
    assert [Path(f).name for f in files] == ["a.py", "b.py", "c.py"]


def test_collect_files_missing_path_raises():
    with pytest.raises(ConfigError):
        collect_files(["/no/such/path/anywhere"])


def test_findings_are_sorted_and_serializable():
    findings = _lint_snippet(_TWO_VIOLATIONS)
    assert findings == sorted(findings, key=Finding.sort_key)
    for finding in findings:
        round_tripped = json.loads(json.dumps(finding.to_dict()))
        assert round_tripped["rule"] == finding.rule
        assert finding.format().startswith(f"{finding.path}:{finding.line}:")


def test_registry_rejects_duplicates_and_unknowns():
    with pytest.raises(ConfigError):

        @register_rule("monotonic-deadline")
        class Duplicate(Rule):
            pass

    from repro.analysis import get_rule_class

    with pytest.raises(ConfigError):
        get_rule_class("never-registered")
    assert rule_names() == sorted(rule_names())


# ---------------------------------------------------------------------------
# rule-specific edges beyond the fixture pairs


def test_monotonic_deadline_catches_comparisons():
    text = (
        "import time\n"
        "\n"
        "\n"
        "def expired(deadline):\n"
        "    return time.time() >= deadline\n"
    )
    findings = _lint_snippet(text, select=["monotonic-deadline"])
    assert [f.line for f in findings] == [5]


def test_monotonic_deadline_respects_import_aliases():
    text = "from time import time\n\ndeadline = time() + 1\n"
    findings = _lint_snippet(text, select=["monotonic-deadline"])
    assert [f.line for f in findings] == [3]


def test_tmp_sibling_flags_tempfile_apis(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    path = store / "writer.py"
    path.write_text(
        "import tempfile\n\nhandle = tempfile.NamedTemporaryFile()\n",
        encoding="utf-8",
    )
    findings = lint_paths([str(path)], select=["tmp-sibling"])
    assert [f.line for f in findings] == [3]


def test_tmp_sibling_only_applies_under_store(tmp_path):
    path = tmp_path / "elsewhere.py"
    path.write_text('tmp = "out.tmp"\n', encoding="utf-8")
    assert lint_paths([str(path)], select=["tmp-sibling"]) == []


def test_seeded_rng_catches_numpy_global_draws():
    text = "import numpy as np\n\nnoise = np.random.rand(4)\n"
    findings = _lint_snippet(text, select=["seeded-rng"])
    assert [f.line for f in findings] == [3]


def test_no_blocking_in_async_ignores_awaited_results():
    text = (
        "async def run(service, job_id):\n"
        "    return await service.result(job_id)\n"
    )
    assert _lint_snippet(text, select=["no-blocking-in-async"]) == []


def test_key_purity_flags_unknown_fields():
    text = (
        "class Config:\n"
        "    model: str\n"
        "\n"
        "    def cache_key(self):\n"
        "        return (self.model, self.vanished)\n"
        "\n"
        "    def result_key(self):\n"
        "        return self.cache_key()\n"
    )
    findings = _lint_snippet(text, select=["key-purity"])
    assert len(findings) == 1
    assert "vanished" in findings[0].message
    assert findings[0].line == 5


# ---------------------------------------------------------------------------
# the cross-module call graph


def test_callgraph_resolves_cross_module_calls():
    project = _project(
        {
            "pkg/util.py": "def helper():\n    return 1\n",
            "pkg/main.py": (
                "from pkg.util import helper\n"
                "\n"
                "\n"
                "def run():\n"
                "    return helper()\n"
            ),
        }
    )
    graph = callgraph(project)
    edges = graph.callees("pkg.main::run")
    assert [e.callee for e in edges] == ["pkg.util::helper"]
    assert not edges[0].offthread


def test_callgraph_marks_executor_submissions_offthread():
    project = _project(
        {
            "work.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "\n"
                "\n"
                "def task(x):\n"
                "    return x\n"
                "\n"
                "\n"
                "def run(xs):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return [pool.submit(task, x) for x in xs]\n"
            ),
        }
    )
    graph = callgraph(project)
    edges = graph.callees("work::run")
    assert [(e.callee, e.offthread) for e in edges] == [("work::task", True)]


def test_callgraph_resolves_methods_on_annotated_receivers():
    project = _project(
        {
            "svc.py": (
                "class Store:\n"
                "    def get(self, key):\n"
                "        return key\n"
                "\n"
                "\n"
                "def read(store: Store, key):\n"
                "    return store.get(key)\n"
            ),
        }
    )
    graph = callgraph(project)
    assert [e.callee for e in graph.callees("svc::read")] == ["svc::Store.get"]


def test_callgraph_leaves_uninferable_receivers_unresolved():
    """`obj.get()` with no type evidence must resolve to nothing — by-name
    dispatch would flood the dataflow rules with false edges."""
    project = _project(
        {
            "svc.py": (
                "class Store:\n"
                "    def get(self, key):\n"
                "        return key\n"
                "\n"
                "\n"
                "def read(store, key):\n"
                "    return store.get(key)\n"
            ),
        }
    )
    graph = callgraph(project)
    assert graph.callees("svc::read") == []


def test_callgraph_is_cached_per_project():
    project = _project({"m.py": "def f():\n    pass\n"})
    assert callgraph(project) is callgraph(project)


# ---------------------------------------------------------------------------
# cross-module rule edges beyond the fixture pairs


def test_transitive_blocking_found_two_frames_deep():
    project = _project(
        {
            "deep.py": (
                "import time\n"
                "\n"
                "\n"
                "def inner():\n"
                "    time.sleep(1)\n"
                "\n"
                "\n"
                "def outer():\n"
                "    inner()\n"
                "\n"
                "\n"
                "async def handler():\n"
                "    outer()\n"
            ),
        }
    )
    findings = lint_sources(project.files, select=["transitive-blocking-in-async"])
    assert len(findings) == 1
    assert findings[0].line == 13
    assert "outer() -> inner()" in findings[0].message


def test_transitive_blocking_skips_run_in_executor_chains():
    project = _project(
        {
            "offload.py": (
                "import asyncio\n"
                "import time\n"
                "\n"
                "\n"
                "def slow():\n"
                "    time.sleep(1)\n"
                "\n"
                "\n"
                "async def handler():\n"
                "    loop = asyncio.get_running_loop()\n"
                "    await loop.run_in_executor(None, slow)\n"
            ),
        }
    )
    assert lint_sources(project.files, select=["transitive-blocking-in-async"]) == []


def test_lock_order_flags_await_under_threading_lock():
    project = _project(
        {
            "mixed.py": (
                "import threading\n"
                "\n"
                "\n"
                "class Broker:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "\n"
                "    async def publish(self, send):\n"
                "        with self._lock:\n"
                "            await send()\n"
            ),
        }
    )
    findings = lint_sources(project.files, select=["lock-order"])
    assert len(findings) == 1
    assert findings[0].line == 10
    assert "await while holding threading lock" in findings[0].message


def test_lock_order_allows_await_under_asyncio_lock():
    project = _project(
        {
            "fine.py": (
                "import asyncio\n"
                "\n"
                "\n"
                "class Broker:\n"
                "    def __init__(self):\n"
                "        self._lock = asyncio.Lock()\n"
                "\n"
                "    async def publish(self, send):\n"
                "        async with self._lock:\n"
                "            await send()\n"
            ),
        }
    )
    assert lint_sources(project.files, select=["lock-order"]) == []


def test_lock_order_follows_calls_while_holding_a_lock():
    """A cycle split across two methods connected by a call is still a
    cycle: record() holds A and calls a helper that takes B; flush()
    takes them in the B -> A order."""
    project = _project(
        {
            "split.py": (
                "import threading\n"
                "\n"
                "\n"
                "class Buffered:\n"
                "    def __init__(self):\n"
                "        self._a = threading.Lock()\n"
                "        self._b = threading.Lock()\n"
                "\n"
                "    def _bump(self):\n"
                "        with self._b:\n"
                "            pass\n"
                "\n"
                "    def record(self):\n"
                "        with self._a:\n"
                "            self._bump()\n"
                "\n"
                "    def flush(self):\n"
                "        with self._b:\n"
                "            with self._a:\n"
                "                pass\n"
            ),
        }
    )
    findings = lint_sources(project.files, select=["lock-order"])
    assert len(findings) == 1
    assert "lock-order cycle" in findings[0].message
    assert "Buffered._a" in findings[0].message
    assert "Buffered._b" in findings[0].message


def test_lock_order_flags_nonreentrant_reentry():
    project = _project(
        {
            "reenter.py": (
                "import threading\n"
                "\n"
                "\n"
                "class Counter:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "\n"
                "    def bump(self):\n"
                "        with self._lock:\n"
                "            self.read()\n"
                "\n"
                "    def read(self):\n"
                "        with self._lock:\n"
                "            return 0\n"
            ),
        }
    )
    findings = lint_sources(project.files, select=["lock-order"])
    assert len(findings) == 1
    assert "re-acquired while already held" in findings[0].message
    assert findings[0].line == 10


def test_pickle_boundary_honours_custom_reduce():
    """The good fixture's CellLibrary carries a Lock but defines
    __reduce__ — exactly the ArtifactStore pattern — so it may cross."""
    findings = lint_paths(
        [str(FIXTURES / "pickle-boundary" / "good")], select=["pickle-boundary"]
    )
    assert findings == []


def test_pickle_boundary_ignores_thread_pools():
    project = _project(
        {
            "threads.py": (
                "import threading\n"
                "from concurrent.futures import ThreadPoolExecutor\n"
                "\n"
                "\n"
                "class Shared:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "\n"
                "\n"
                "def run():\n"
                "    shared = Shared()\n"
                "    with ThreadPoolExecutor() as pool:\n"
                "        return pool.submit(id, shared)\n"
            ),
        }
    )
    assert lint_sources(project.files, select=["pickle-boundary"]) == []


def test_pickle_boundary_flags_tainted_bound_methods():
    project = _project(
        {
            "bound.py": (
                "import threading\n"
                "from concurrent.futures import ProcessPoolExecutor\n"
                "\n"
                "\n"
                "class Worker:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "\n"
                "    def step(self, x):\n"
                "        return x\n"
                "\n"
                "\n"
                "def run(w: Worker):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return pool.submit(w.step, 1)\n"
            ),
        }
    )
    findings = lint_sources(project.files, select=["pickle-boundary"])
    assert len(findings) == 1
    assert "bound method" in findings[0].message


def test_pickle_boundary_sees_through_pool_factories_and_partial():
    """A pool from a factory annotated to return an executor, fed a
    ``functools.partial`` (``run_in_executor`` passes no keywords): the
    bound arguments still cross the boundary, and the call graph still
    records the off-thread hand-off to the bound function."""
    project = _project(
        {
            "spine.py": (
                "import threading\n"
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from functools import partial\n"
                "\n"
                "\n"
                "class Holder:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "\n"
                "\n"
                "def task(x, holder=None):\n"
                "    return x\n"
                "\n"
                "\n"
                "def make_pool(n) -> ProcessPoolExecutor:\n"
                "    return ProcessPoolExecutor(max_workers=n)\n"
                "\n"
                "\n"
                "async def run(loop, holder: Holder):\n"
                "    with make_pool(2) as pool:\n"
                "        return await loop.run_in_executor(\n"
                "            pool, partial(task, 1, holder=holder)\n"
                "        )\n"
            ),
        }
    )
    findings = lint_sources(project.files, select=["pickle-boundary"])
    assert len(findings) == 1
    assert "argument holder" in findings[0].message
    edges = callgraph(project).callees("spine::run")
    assert ("spine::task", True) in [(e.callee, e.offthread) for e in edges]


# ---------------------------------------------------------------------------
# protocol-liveness: the model and the seeded-defect drill


def _fleet_project():
    fleet = SRC_TREE / "fleet"
    return Project(
        files=[
            SourceFile.parse(str(path)) for path in sorted(fleet.glob("*.py"))
        ]
    )


def test_fleet_protocol_model_extraction():
    model = extract_protocol(_fleet_project())
    assert len(model.messages) == 11
    assert set(model.roles) == {"Coordinator", "Worker"}
    # every coordinator send has a worker handler and vice versa
    assert check_protocol(model) == []
    coordinator, worker = model.roles["Coordinator"], model.roles["Worker"]
    assert set(coordinator.sends) <= set(worker.handles)
    assert set(worker.sends) <= set(coordinator.handles)


def test_protocol_liveness_catches_a_seeded_handler_drop():
    """Drop one message type from the worker's handler table and the
    checker must report the coordinator's now-unheard send."""
    model = extract_protocol(_fleet_project())
    assert "Quarantine" in model.roles["Worker"].handles
    del model.roles["Worker"].handles["Quarantine"]
    problems = check_protocol(model)
    assert len(problems) == 1
    _, _, message = problems[0]
    assert "Coordinator sends Quarantine" in message
    assert "no peer role" in message


def test_protocol_liveness_catches_a_seeded_stranded_state():
    """Erase the exit evidence for a non-terminal state and the checker
    must flag it as stranded."""
    model = extract_protocol(_fleet_project())
    machine = next(m for m in model.machines if m.name == "FLEET_JOB_STATES")
    machine.exited.discard("leased")
    problems = check_protocol(model)
    assert any("state 'leased'" in message for _, _, message in problems)


def test_protocol_liveness_state_tuples_from_snippets():
    project = _project(
        {
            "machine.py": (
                'TASK_STATES = ("idle", "busy", "stuck")\n'
                "\n"
                "\n"
                "class Task:\n"
                "    def start(self):\n"
                '        if self.state == "idle":\n'
                '            self.state = "busy"\n'
                "\n"
                "    def reset(self):\n"
                '        if self.state == "busy":\n'
                '            self.state = "idle"\n'
                "\n"
                "    def jam(self):\n"
                '        if self.state == "busy":\n'
                '            self.state = "stuck"\n'
            ),
        }
    )
    findings = lint_sources(project.files, select=["protocol-liveness"])
    assert len(findings) == 1
    assert "state 'stuck'" in findings[0].message
    assert "never" not in findings[0].message  # it IS entered; it cannot leave


# ---------------------------------------------------------------------------
# baseline / diff workflow


_BASELINE_VIOLATION = "import time\n\ndeadline = time.time() + 5\n"


def test_baseline_round_trip_and_split(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(_BASELINE_VIOLATION, encoding="utf-8")
    findings = lint_paths([str(bad)], select=["monotonic-deadline"])
    assert len(findings) == 1

    baseline_path = tmp_path / "baseline.json"
    written = write_baseline(findings, str(baseline_path))
    assert len(written.entries) == 1
    assert written.undocumented() == written.entries  # reasons start empty

    loaded = load_baseline(str(baseline_path))
    new, old = split_findings(findings, loaded)
    assert new == [] and old == findings

    # baseline matching is line-insensitive: shift the finding down
    bad.write_text("import time\n\n\n" + _BASELINE_VIOLATION.split("\n", 2)[2],
                   encoding="utf-8")
    moved = lint_paths([str(bad)], select=["monotonic-deadline"])
    assert moved[0].line != findings[0].line
    new, old = split_findings(moved, loaded)
    assert new == [] and old == moved


def test_baseline_load_rejects_garbage(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_baseline(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_baseline(str(bad))
    bad.write_text('{"version": 99, "findings": []}', encoding="utf-8")
    with pytest.raises(ConfigError):
        load_baseline(str(bad))


def test_cli_baseline_gates_only_new_findings(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text(_BASELINE_VIOLATION, encoding="utf-8")
    baseline_path = tmp_path / "baseline.json"

    code = cli_main(
        ["lint", str(bad), "--select", "monotonic-deadline",
         "--write-baseline", str(baseline_path)]
    )
    assert code == 0
    assert "1 baseline entry" in capsys.readouterr().out

    # baselined finding: exit 0, listed with the [baselined] marker
    code = cli_main(
        ["lint", str(bad), "--select", "monotonic-deadline",
         "--baseline", str(baseline_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[baselined]" in out
    assert "no new findings" in out

    # --diff hides the baselined listing entirely
    code = cli_main(
        ["lint", str(bad), "--select", "monotonic-deadline",
         "--baseline", str(baseline_path), "--diff"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[baselined]" not in out

    # a new violation (distinct message, so outside the baseline key)
    # still fails the run
    bad.write_text(
        _BASELINE_VIOLATION
        + "\n\ndef wait(t):\n    started = time.time()\n    return started + t\n",
        encoding="utf-8",
    )
    code = cli_main(
        ["lint", str(bad), "--select", "monotonic-deadline",
         "--baseline", str(baseline_path), "--diff", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["new_count"] == 1
    assert payload["baselined_count"] == 1
    assert "baselined" not in payload  # --diff drops the accepted listing


def test_repo_baseline_is_empty_and_documented():
    """The committed baseline stays honest: src is clean, so it must be
    empty, and any future entry must carry a reason."""
    committed = Path(__file__).resolve().parents[1] / ".lint-baseline.json"
    baseline = load_baseline(str(committed))
    assert baseline.entries == []
    assert baseline.undocumented() == []


# ---------------------------------------------------------------------------
# the regression guards for this PR's fixes


def test_real_source_tree_lints_clean():
    findings = lint_paths([str(SRC_TREE)])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_default_jobs_respects_scheduling_affinity(monkeypatch):
    import repro.core.batch as batch

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(9)))

    def boom():  # pragma: no cover - must never run
        raise AssertionError("default_jobs must not consult os.cpu_count")

    monkeypatch.setattr(os, "cpu_count", boom)
    assert batch.default_jobs() == 8


def test_worker_session_has_no_blocking_calls():
    worker = SRC_TREE / "fleet" / "worker.py"
    assert lint_paths([str(worker)], select=["no-blocking-in-async"]) == []


# ---------------------------------------------------------------------------
# effect inference (PR 9): summaries, chains, and the keyed-output rule


def test_effect_engine_infers_transitive_effects():
    from repro.analysis.effects import effect_engine

    project = _project(
        {
            "pipe.py": (
                "import time\n"
                "from concurrent.futures import ThreadPoolExecutor\n"
                "\n"
                "\n"
                "def leaf():\n"
                "    return time.time()\n"
                "\n"
                "\n"
                "def middle():\n"
                "    return leaf() + 1\n"
                "\n"
                "\n"
                "def offthread():\n"
                "    with ThreadPoolExecutor() as pool:\n"
                "        return pool.submit(leaf).result()\n"
                "\n"
                "\n"
                "def pure(x):\n"
                "    return x * 2\n"
            ),
        }
    )
    engine = effect_engine(project)
    assert engine.summary("pipe::leaf") == {"reads-wall-clock"}
    assert engine.summary("pipe::middle") == {"reads-wall-clock"}
    # executor submissions still compute the result: effects propagate
    assert engine.summary("pipe::offthread") == {"reads-wall-clock"}
    assert engine.summary("pipe::pure") == frozenset()


def test_effect_chain_ends_at_the_primitive_site():
    from repro.analysis.effects import effect_engine

    project = _project(
        {
            "chain.py": (
                "import random\n"
                "\n"
                "\n"
                "def draw():\n"
                "    return random.random()\n"
                "\n"
                "\n"
                "def outer():\n"
                "    return draw()\n"
            ),
        }
    )
    engine = effect_engine(project)
    chain = engine.chain("chain::outer", "draws-unseeded-rng")
    assert chain[0].startswith("outer() calls draw()")
    assert "random.random" in chain[-1]
    assert "chain.py:5" in chain[-1]


def test_timing_measurement_is_not_a_determinism_effect():
    """monotonic()/perf_counter() measure durations (runtime_s in
    results is accepted metadata); they must not poison summaries."""
    from repro.analysis.effects import effect_engine

    project = _project(
        {
            "timing.py": (
                "import time\n"
                "\n"
                "\n"
                "def timed(fn):\n"
                "    start = time.perf_counter()\n"
                "    out = fn()\n"
                "    return out, time.perf_counter() - start\n"
            ),
        }
    )
    engine = effect_engine(project)
    assert engine.summary("timing::timed") == frozenset()


def test_keyed_output_seeded_defect_reports_witness_chain():
    """The seeded-defect drill: the bad fixture's finding must carry the
    full inference chain from the put site to time.time()."""
    rule = "nondeterministic-keyed-output"
    findings = lint_paths([str(FIXTURES / rule / "bad")], select=[rule])
    assert len(findings) == 1
    chain = findings[0].chain
    assert chain, "keyed-output findings must carry a witness chain"
    assert any("payload origin: stage_measure()" in step for step in chain)
    assert "time.time()" in chain[-1]
    assert chain[-1].endswith(":20")


def test_keyed_output_traces_stage_table_indirection():
    """`fn, slot = TABLE[name]` then `overrides.get(name, fn)(ctx)` —
    the pipeline's dispatch shape — must still reach the stage."""
    project = _project(
        {
            "mini.py": (
                "import time\n"
                "\n"
                "\n"
                "def stage_bad(ctx):\n"
                "    return {'stamp': time.time()}\n"
                "\n"
                "\n"
                "_TABLE = {'bad': (stage_bad, 'slot')}\n"
                "\n"
                "\n"
                "def result_key(name):\n"
                "    return name\n"
                "\n"
                "\n"
                "class Pipeline:\n"
                "    def run(self, store, name, ctx, overrides):\n"
                "        fn, slot = _TABLE[name]\n"
                "        output = overrides.get(name, fn)(ctx)\n"
                "        store.put('k', result_key(name), output)\n"
                "        return output\n"
            ),
        }
    )
    findings = lint_sources(
        project.files, select=["nondeterministic-keyed-output"]
    )
    assert len(findings) == 1
    assert "stage_bad()" in findings[0].message
    assert "reads-wall-clock" in findings[0].message


def test_keyed_output_drill_on_the_real_pipeline():
    """Wire-through guard: inject a wall-clock read into a real stage
    function and the rule must flag the pipeline's keyed put sites."""
    files = []
    for path in sorted(SRC_TREE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "pipeline.py" and "core" in path.parts:
            assert "def _stage_measure(" in text
            text = text.replace(
                "def _stage_measure(",
                "def _defect_now():\n"
                "    import time\n"
                "    return time.time()\n"
                "\n"
                "\n"
                "def _stage_measure(",
                1,
            ).replace(
                "    from repro.core.flow import FlowResult, SynthesisVariant\n",
                "    from repro.core.flow import FlowResult, SynthesisVariant\n"
                "    _defect = _defect_now()\n",
                1,
            )
            assert "_defect = _defect_now()" in text
        files.append(SourceFile.parse(str(path), text=text))
    findings = lint_sources(files, select=["nondeterministic-keyed-output"])
    assert findings, "seeded wall-clock defect in _stage_measure not caught"
    assert all("_stage_measure()" in f.message for f in findings)
    assert all(f.chain for f in findings)
    # the defect is invisible to every per-file rule: only effect
    # inference across the call graph reports it
    per_file_rules = PER_FILE_RULES + ["unordered-iteration-leak"]
    assert lint_sources(files, select=per_file_rules) == []


def _seed_defect(text, old, new):
    assert old in text, f"drill anchor moved: {old!r}"
    return text.replace(old, new, 1)


def _unguarded_pool(text):
    """``run_many`` with its pool built outside ``with`` and shut down
    only after the result loop, so an exception in between leaks it."""
    with_pool = "        with process_pool(min(jobs, total), ignore_sigint=False) as pool:\n"
    start = text.index(with_pool)
    end = text.index("\n    return BatchResult(", start)
    body = textwrap.indent(textwrap.dedent(text[start + len(with_pool) : end]), " " * 8)
    return (
        text[:start]
        + "        pool = ProcessPoolExecutor(max_workers=min(jobs, total))\n"
        + body
        + "        pool.shutdown()\n"
        + text[end:]
    )


def test_cross_module_rules_catch_seeded_defects_in_the_real_tree():
    """The drill for three rules built on the call graph: seed one defect
    each into the real tree; each must be caught, and no per-file rule
    sees any of them."""
    files = []
    for path in sorted(SRC_TREE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        relative = path.relative_to(SRC_TREE).as_posix()
        if relative == "store/artifacts.py":
            # a store that holds a lock and has no __reduce__ cannot
            # cross the pool boundary the service's local pool (which
            # fleet workers run on too) sends it over
            text = _seed_defect(text, "import time\n", "import threading\nimport time\n")
            text = _seed_defect(
                text,
                "        self.backend = backend\n",
                "        self.backend = backend\n"
                "        self._lock = threading.Lock()\n",
            )
            text = _seed_defect(
                text,
                "    def __reduce__(self):\n"
                "        return (ArtifactStore, (None, self.backend))\n\n",
                "",
            )
            text = _seed_defect(text, "tuple(sorted(found))", "tuple(found)")
        elif relative == "core/batch.py":
            text = _unguarded_pool(text)
        files.append(SourceFile.parse(str(path), text=text))
    drilled = [
        "pickle-boundary",
        "unordered-iteration-leak",
        "resource-exception-safety",
    ]
    findings = lint_sources(files, select=drilled + PER_FILE_RULES)
    found = sorted(
        (f.rule, Path(f.path).relative_to(SRC_TREE).as_posix()) for f in findings
    )
    assert found == [
        ("pickle-boundary", "serve/service.py"),
        ("resource-exception-safety", "core/batch.py"),
        ("unordered-iteration-leak", "store/artifacts.py"),
    ], "\n".join(f.format() for f in findings)


def test_unordered_leak_flags_sum_over_set_as_float_order():
    project = _project(
        {
            "store/agg.py": (
                "def total(values):\n"
                "    pending = set(values)\n"
                "    return sum(pending)\n"
            ),
        }
    )
    findings = lint_sources(project.files, select=["unordered-iteration-leak"])
    assert len(findings) == 1
    assert "float addition is order-sensitive" in findings[0].message


def test_unordered_leak_ignores_order_insensitive_reductions():
    project = _project(
        {
            "store/agg.py": (
                "def stats(values):\n"
                "    pending = set(values)\n"
                "    return len(pending), min(pending), max(pending)\n"
            ),
        }
    )
    assert lint_sources(project.files, select=["unordered-iteration-leak"]) == []


def test_unordered_leak_only_applies_to_payload_producing_dirs():
    project = _project(
        {
            "misc/agg.py": (
                "def rows(values):\n"
                "    return [v for v in set(values)]\n"
            ),
        }
    )
    assert lint_sources(project.files, select=["unordered-iteration-leak"]) == []


def test_resource_rule_flags_success_path_only_release():
    project = _project(
        {
            "locks.py": (
                "import threading\n"
                "\n"
                "_LOCK = threading.Lock()\n"
                "\n"
                "\n"
                "def update(value):\n"
                "    _LOCK.acquire()\n"
                "    result = value * 2\n"
                "    _LOCK.release()\n"
                "    return result\n"
            ),
        }
    )
    findings = lint_sources(project.files, select=["resource-exception-safety"])
    assert len(findings) == 1
    assert "success path" in findings[0].message


def test_resource_rule_seeded_helper_split_drill():
    """Remove the release from the helper the finally delegates to and
    the rule must catch the now-leaking executor."""
    good = (FIXTURES / "resource-exception-safety" / "good" / "worker.py").read_text(
        encoding="utf-8"
    )
    broken = good.replace("ctx.executor.shutdown(wait=True)", "pass")
    assert broken != good
    findings = lint_sources(
        [SourceFile.parse("worker.py", text=broken)],
        select=["resource-exception-safety"],
    )
    assert any("ctx.executor" in f.message for f in findings)
    assert all(f.chain for f in findings)


def test_resource_rule_attribute_release_in_sibling_method():
    project = _project(
        {
            "svc.py": (
                "import socket\n"
                "\n"
                "\n"
                "class Client:\n"
                "    def connect(self, host):\n"
                "        self.sock = socket.create_connection((host, 1))\n"
                "\n"
                "    def close(self):\n"
                "        self.sock.close()\n"
            ),
        }
    )
    assert lint_sources(project.files, select=["resource-exception-safety"]) == []


# ---------------------------------------------------------------------------
# run_lint


_KEYED_PROJECT = {
    "flow.py": (
        "import time\n"
        "\n"
        "\n"
        "def cache_key(config):\n"
        "    return repr(config)\n"
        "\n"
        "\n"
        "def stage(config):\n"
        "    return {'stamp': time.time()}\n"
        "\n"
        "\n"
        "def execute_one(store, config):\n"
        "    output = stage(config)\n"
        "    store.put('r', cache_key(config), output)\n"
        "    return output\n"
    ),
    "util.py": "def double(x):\n    return x * 2\n",
}


def _write_keyed_project(root):
    for name, text in _KEYED_PROJECT.items():
        (root / name).write_text(text, encoding="utf-8")


def test_run_lint_without_cache_matches_lint_paths(tmp_path):
    from repro.analysis import run_lint

    proj = tmp_path / "proj"
    proj.mkdir()
    _write_keyed_project(proj)
    report = run_lint([str(proj)])
    assert report.findings == lint_paths([str(proj)])


# ---------------------------------------------------------------------------
# --explain (PR 9)


def test_cli_explain_prints_the_inference_chain(capsys):
    rule = "nondeterministic-keyed-output"
    code = cli_main(
        [
            "lint",
            str(FIXTURES / rule / "bad"),
            "--select",
            rule,
            "--explain",
            f"{rule}:flow.py:29",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "inference chain:" in out
    assert "payload origin: stage_measure()" in out
    assert "time.time()" in out


def test_cli_explain_syntactic_finding_has_no_chain(capsys):
    rule = "monotonic-deadline"
    suffix, line = EXPECTED[rule][0]
    code = cli_main(
        [
            "lint",
            str(FIXTURES / rule / "bad"),
            "--select",
            rule,
            "--explain",
            f"{rule}:{suffix}:{line}",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "direct syntactic finding" in out


def test_cli_explain_miss_lists_candidates_and_fails(capsys):
    rule = "nondeterministic-keyed-output"
    code = cli_main(
        [
            "lint",
            str(FIXTURES / rule / "bad"),
            "--select",
            rule,
            "--explain",
            f"{rule}:flow.py:1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "no finding matches" in out
    assert "candidate:" in out


def test_cli_explain_malformed_spec_is_a_usage_error(capsys):
    code = cli_main(["lint", str(FIXTURES), "--explain", "not-a-spec"])
    assert code == 2
    assert "RULE:PATH:LINE" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# deterministic --write-baseline (PR 9)


def test_write_baseline_is_deterministic_and_line_free(tmp_path):
    findings = [
        Finding(rule="r-b", path="b.py", line=90, message="later"),
        Finding(rule="r-a", path="a.py", line=50, message="mid"),
        Finding(rule="r-a", path="a.py", line=10, message="mid"),
    ]
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    write_baseline(findings, str(first))
    # same findings at different lines / arrival order: identical bytes
    write_baseline(list(reversed(findings)), str(second))
    one, two = first.read_bytes(), second.read_bytes()
    assert one == two
    assert one.endswith(b"\n")
    entries = json.loads(one)["findings"]
    assert [e["rule"] for e in entries] == ["r-a", "r-b"]
    assert "line" not in entries[0]
