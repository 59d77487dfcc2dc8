"""Tests for the repro-lint static-analysis framework.

Every rule RL001–RL008 gets a true-positive fixture, a true-negative
fixture, and a same-line suppression fixture. The reporters, the CLI
exit-code contract, and the repo-wide self-check (the committed tree
must have zero findings) are pinned here too.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.lint import (
    LintConfig,
    all_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import LintError

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(findings) -> list[str]:
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_all_eight_rules_registered():
    assert sorted(all_rules()) == [
        "RL001",
        "RL002",
        "RL003",
        "RL004",
        "RL005",
        "RL006",
        "RL007",
        "RL008",
    ]


# ----------------------------------------------------------------------
# RL001 — unseeded / ambient randomness
# ----------------------------------------------------------------------
def test_rl001_flags_unseeded_default_rng():
    findings = lint_source("rng = np.random.default_rng()\n")
    assert codes(findings) == ["RL001"]
    assert "without a seed" in findings[0].message


def test_rl001_flags_ambient_np_random_and_stdlib_random():
    src = (
        "import random\n"
        "x = np.random.rand(3)\n"
        "y = random.random()\n"
    )
    assert codes(lint_source(src)) == ["RL001", "RL001"]


def test_rl001_clean_on_seeded_streams():
    src = (
        "rng = np.random.default_rng(42)\n"
        "gen = np.random.default_rng(seed)\n"
        "x = rng.random(3)\n"
    )
    assert lint_source(src) == []


def test_rl001_suppression_same_line_only():
    suppressed = (
        "rng = np.random.default_rng()"
        "  # repro-lint: disable=RL001 -- fixture\n"
    )
    assert lint_source(suppressed) == []
    # A pragma on a *different* line silences nothing.
    elsewhere = (
        "# repro-lint: disable=RL001\n"
        "rng = np.random.default_rng()\n"
    )
    assert codes(lint_source(elsewhere)) == ["RL001"]


def test_rl001_pragma_inside_string_does_not_suppress():
    src = (
        's = "# repro-lint: disable=RL001"; '
        "rng = np.random.default_rng()\n"
    )
    assert codes(lint_source(src)) == ["RL001"]


def test_seeded_vs_unseeded_rng_divergence():
    """The behavior RL001 exists to prevent, demonstrated on real streams."""
    a = np.random.default_rng(7).random(8)
    b = np.random.default_rng(7).random(8)
    assert np.array_equal(a, b), "same seed must give bit-identical streams"
    c = np.random.default_rng().random(8)  # repro-lint: disable=RL001 -- demonstrating the failure mode this rule bans
    d = np.random.default_rng().random(8)  # repro-lint: disable=RL001 -- demonstrating the failure mode this rule bans
    assert not np.array_equal(c, d), "entropy-seeded streams diverge"


# ----------------------------------------------------------------------
# RL002 — wall clock and environment reads
# ----------------------------------------------------------------------
def test_rl002_flags_clock_and_env_reads():
    src = (
        "t0 = time.perf_counter()\n"
        "now = datetime.now()\n"
        "flag = os.environ.get('X')\n"
        "other = os.getenv('Y')\n"
    )
    assert codes(lint_source(src)) == ["RL002"] * 4


def test_rl002_flags_from_time_import():
    findings = lint_source(
        "from time import perf_counter\nstart = perf_counter()\n"
    )
    assert codes(findings) == ["RL002"]


def test_rl002_clean_on_benign_time_use():
    src = "dt = time.sleep\nstamp = duration_ms / 1000.0\n"
    assert lint_source(src) == []


def test_rl002_allowlisted_under_benchmarks():
    src = "t0 = time.perf_counter()\n"
    assert lint_source(src, path="benchmarks/bench_x.py") == []
    assert codes(lint_source(src, path="repro/core/x.py")) == ["RL002"]


def test_rl002_suppression():
    src = (
        "flag = os.environ.get('X')"
        "  # repro-lint: disable=RL002 -- config read\n"
    )
    assert lint_source(src) == []


def test_rl002_obs_clock_is_the_only_allowlisted_obs_module():
    """The tracing clock module may read wall time; the rest of the
    observability package stays enforced — timings cannot leak in
    anywhere but repro/obs/clock.py."""
    src = "t0 = time.perf_counter_ns()\n"
    assert lint_source(src, path="src/repro/obs/clock.py") == []
    assert codes(
        lint_source(src, path="src/repro/obs/tracer.py")
    ) == ["RL002"]
    assert codes(
        lint_source(src, path="src/repro/obs/summarize.py")
    ) == ["RL002"]


# ----------------------------------------------------------------------
# RL003 — fingerprint completeness
# ----------------------------------------------------------------------
_RL003_INCOMPLETE = """
@dataclass(frozen=True)
class Config:
    alpha: float = 1.0
    beta: int = 2

    def fingerprint_components(self):
        return {"alpha": self.alpha}
"""

_RL003_COMPLETE = """
@dataclass(frozen=True)
class Config:
    alpha: float = 1.0
    beta: int = 2

    def fingerprint_components(self):
        return {"alpha": self.alpha, "beta": self.beta}
"""

_RL003_EXCLUDED = """
@dataclass(frozen=True)
class Config:
    alpha: float = 1.0
    label: str = ""

    _FINGERPRINT_EXCLUDE = ("label",)

    def fingerprint_components(self):
        return {"alpha": self.alpha}
"""


def test_rl003_flags_missing_field():
    findings = lint_source(_RL003_INCOMPLETE)
    assert codes(findings) == ["RL003"]
    assert "beta" in findings[0].message


def test_rl003_clean_when_every_field_hashed():
    assert lint_source(_RL003_COMPLETE) == []


def test_rl003_exclude_list_is_honored():
    assert lint_source(_RL003_EXCLUDED) == []


def test_rl003_flags_stale_exclude_entry():
    src = _RL003_EXCLUDED.replace('("label",)', '("label", "gone")')
    findings = lint_source(src)
    assert codes(findings) == ["RL003"]
    assert "gone" in findings[0].message


def test_rl003_asdict_covers_everything():
    src = (
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    alpha: float = 1.0\n"
        "    beta: int = 2\n"
        "\n"
        "    def fingerprint_components(self):\n"
        "        return asdict(self)\n"
    )
    assert lint_source(src) == []


def test_rl003_suppression():
    src = _RL003_INCOMPLETE.replace(
        "def fingerprint_components(self):",
        "def fingerprint_components(self):"
        "  # repro-lint: disable=RL003 -- fixture",
    )
    assert lint_source(src) == []


# ----------------------------------------------------------------------
# RL004 — cache-key-input marker
# ----------------------------------------------------------------------
def test_rl004_flags_unmarked_cache_key_import():
    src = "from repro.runtime.cache import content_key\nkey = content_key(x)\n"
    findings = lint_source(src, path="repro/experiments/fig_x.py")
    assert codes(findings) == ["RL004"]
    assert "cache-key-input" in findings[0].message


def test_rl004_clean_with_marker():
    src = (
        "from repro.runtime.cache import content_key  # cache-key-input\n"
        "key = content_key(x)\n"
    )
    assert lint_source(src, path="repro/experiments/fig_x.py") == []


def test_rl004_result_cache_alone_is_not_a_key_input():
    src = "from repro.runtime.cache import ResultCache\ncache = ResultCache()\n"
    assert lint_source(src, path="repro/experiments/fig_x.py") == []


def test_rl004_upstream_modules_require_marker():
    findings = lint_source("x = 1\n", path="repro/network/graph.py")
    assert codes(findings) == ["RL004"]
    assert "upstream" in findings[0].message
    marked = "# cache-key-input: rtt feeds topology_fingerprint\nx = 1\n"
    assert lint_source(marked, path="repro/network/graph.py") == []


def test_rl004_allowlisted_under_tests():
    src = "from repro.runtime.cache import content_key\nkey = content_key(x)\n"
    assert lint_source(src, path="tests/test_x.py") == []


# ----------------------------------------------------------------------
# RL005 — swallowed exceptions
# ----------------------------------------------------------------------
def test_rl005_flags_broad_except_without_reraise():
    src = (
        "try:\n"
        "    work()\n"
        "except Exception:\n"
        "    pass\n"
    )
    findings = lint_source(src)
    assert codes(findings) == ["RL005"]
    assert findings[0].line == 3


def test_rl005_flags_bare_except():
    src = "try:\n    work()\nexcept:\n    log()\n"
    assert codes(lint_source(src)) == ["RL005"]


def test_rl005_clean_when_reraised():
    src = (
        "try:\n"
        "    work()\n"
        "except Exception as exc:\n"
        "    raise SimulationError('boom') from exc\n"
    )
    assert lint_source(src) == []


def test_rl005_clean_on_narrow_except():
    src = "try:\n    work()\nexcept KeyError:\n    pass\n"
    assert lint_source(src) == []


def test_rl005_suppression():
    src = (
        "try:\n"
        "    work()\n"
        "except Exception:  # repro-lint: disable=RL005 -- best-effort\n"
        "    pass\n"
    )
    assert lint_source(src) == []


# ----------------------------------------------------------------------
# RL006 — float equality
# ----------------------------------------------------------------------
def test_rl006_flags_float_equality():
    assert codes(lint_source("ok = x == 1.5\n")) == ["RL006"]
    assert codes(lint_source("ok = a / b == c\n")) == ["RL006"]
    assert codes(lint_source("ok = float(x) != y\n")) == ["RL006"]


def test_rl006_clean_on_int_equality_and_ordering():
    assert lint_source("ok = n == 3\n") == []
    assert lint_source("ok = x <= 1.5\n") == []


def test_rl006_allowlisted_under_tests():
    src = "assert x == 1.5\n"
    assert lint_source(src, path="tests/test_x.py") == []
    assert codes(lint_source(src, path="repro/core/x.py")) == ["RL006"]


def test_rl006_suppression():
    src = "skip = p == 0.0  # repro-lint: disable=RL006 -- exact sentinel\n"
    assert lint_source(src) == []


# ----------------------------------------------------------------------
# RL007 — writes into shared topology views
# ----------------------------------------------------------------------
def test_rl007_flags_write_into_adopted_view():
    src = (
        "def worker(handle):\n"
        "    topo = resolve_topology(handle)\n"
        "    topo.rtt[0, 0] = 1.0\n"
    )
    findings = lint_source(src)
    assert codes(findings) == ["RL007"]
    assert "topo" in findings[0].message


def test_rl007_flags_setflags_on_adopted_view():
    src = (
        "topo = Topology.adopt(rtt, names, caps)\n"
        "topo.rtt.setflags(write=True)\n"
    )
    findings = lint_source(src)
    assert codes(findings) == ["RL007"]
    assert "setflags" in findings[0].message


def test_rl007_clean_on_private_copy():
    src = (
        "def worker(handle):\n"
        "    topo = resolve_topology(handle)\n"
        "    local = np.array(topo.rtt)\n"
        "    local[0, 0] = 1.0\n"
    )
    assert lint_source(src) == []


def test_rl007_does_not_cross_scopes():
    # `topo` in the outer scope must not taint an unrelated inner `topo`.
    src = (
        "topo = resolve_topology(handle)\n"
        "def helper(topo):\n"
        "    topo[0] = 1\n"
    )
    assert lint_source(src) == []


def test_rl007_suppression():
    src = (
        "topo = resolve_topology(handle)\n"
        "topo.rtt[0, 0] = 1.0  # repro-lint: disable=RL007 -- fixture\n"
    )
    assert lint_source(src) == []


# ----------------------------------------------------------------------
# RL008 — unused imports
# ----------------------------------------------------------------------
def test_rl008_flags_each_unused_name_at_its_alias():
    src = (
        "import os\n"
        "from typing import (\n"
        "    Iterable,\n"
        "    Sequence,\n"
        ")\n"
        "def f(xs: Iterable) -> None:\n"
        "    pass\n"
    )
    findings = lint_source(src)
    assert codes(findings) == ["RL008", "RL008"]
    assert [(f.line, f.snippet) for f in findings] == [
        (1, "import os"),
        (4, "Sequence,"),
    ]
    assert "'os'" in findings[0].message


def test_rl008_dotted_import_binds_its_root():
    assert lint_source("import os.path\nsep = os.sep\n") == []
    assert codes(lint_source("import os.path as osp\nsep = os.sep\n")) == [
        "RL008"
    ]


def test_rl008_clean_when_used_anywhere_in_the_module():
    src = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from repro.network.graph import Topology\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.quorums.base import QuorumSystem\n"
        "def f(t: 'Topology') -> 'list[QuorumSystem]':\n"
        "    return [np.zeros(1)]\n"
    )
    assert lint_source(src) == []


def test_rl008_skips_all_facades_future_and_star():
    src = (
        "from __future__ import annotations\n"
        "from repro.network.graph import Topology\n"
        "from repro.quorums import *\n"
        "__all__ = ['Topology']\n"
    )
    assert lint_source(src) == []
    facade = "from repro.network.graph import Topology\n"
    assert lint_source(facade, path="repro/network/__init__.py") == []
    assert codes(lint_source(facade, path="repro/network/x.py")) == ["RL008"]


def test_rl008_ignores_function_level_imports():
    src = "def f():\n    import json\n    return 1\n"
    assert lint_source(src) == []


def test_rl008_a_rebinding_is_not_a_use():
    assert codes(lint_source("import json\njson = None\n")) == ["RL008"]


def test_rl008_suppression():
    src = "import json  # repro-lint: disable=RL008 -- re-export\n"
    assert lint_source(src) == []


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
def test_syntax_error_reports_rl000():
    findings = lint_source("def broken(:\n")
    assert codes(findings) == ["RL000"]
    assert "does not parse" in findings[0].message


def test_multi_rule_suppression_comment():
    src = (
        "t0 = time.perf_counter(); rng = np.random.default_rng()"
        "  # repro-lint: disable=RL001,RL002 -- fixture\n"
    )
    assert lint_source(src) == []


def test_rule_subset_config():
    src = "t0 = time.perf_counter()\nrng = np.random.default_rng()\n"
    only_rng = lint_source(src, config=LintConfig(rules=("RL001",)))
    assert codes(only_rng) == ["RL001"]


def test_unknown_rule_code_raises():
    with pytest.raises(LintError, match="RL999"):
        lint_source("x = 1\n", config=LintConfig(rules=("RL999",)))


def test_lint_paths_rejects_missing_path(tmp_path):
    with pytest.raises(LintError, match="no such file"):
        lint_paths([tmp_path / "nope"])


def test_findings_sorted_by_location():
    src = (
        "flag = os.environ.get('X')\n"
        "rng = np.random.default_rng()\n"
    )
    findings = lint_source(src)
    assert [(f.line, f.rule) for f in findings] == [
        (1, "RL002"),
        (2, "RL001"),
    ]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_json_report_schema():
    findings = lint_source(
        "rng = np.random.default_rng()\n", path="repro/core/x.py"
    )
    payload = json.loads(render_json(findings))
    assert set(payload) == {"version", "counts", "findings"}
    assert payload["version"] == 2
    assert payload["counts"] == {"findings": 1, "by_rule": {"RL001": 1}}
    (entry,) = payload["findings"]
    assert set(entry) == {"rule", "path", "line", "col", "message", "snippet"}
    assert entry["rule"] == "RL001"
    assert entry["snippet"] == "rng = np.random.default_rng()"


def test_text_report_clean_and_dirty():
    assert render_text([]) == "clean\n"
    findings = lint_source("rng = np.random.default_rng()\n")
    text = render_text(findings)
    assert "RL001" in text and "1 finding(s)" in text


# ----------------------------------------------------------------------
# CLI exit-code contract
# ----------------------------------------------------------------------
def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("rng = np.random.default_rng()\n")

    assert lint_main([str(clean)]) == 0
    assert "clean" in capsys.readouterr().out

    assert lint_main([str(dirty)]) == 1
    assert "RL001" in capsys.readouterr().out

    assert lint_main([str(tmp_path / "missing.py")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_has_no_baseline(tmp_path, capsys, monkeypatch):
    """The gate is zero findings: no option records or applies a
    baseline, and a ``lint-baseline.json`` in the working directory
    absorbs nothing."""
    monkeypatch.chdir(tmp_path)
    dirty = tmp_path / "dirty.py"
    dirty.write_text("rng = np.random.default_rng()\n")
    for option in (
        ["--write-baseline"], ["--no-baseline"], ["--baseline", "b.json"]
    ):
        with pytest.raises(SystemExit) as exited:
            lint_main([str(dirty), *option])
        assert exited.value.code == 2
    capsys.readouterr()
    (tmp_path / "lint-baseline.json").write_text(
        json.dumps({"version": 1, "entries": [{
            "path": str(dirty), "rule": "RL001",
            "snippet": "rng = np.random.default_rng()", "count": 1,
        }]})
    )
    assert lint_main([str(dirty)]) == 1
    assert "RL001" in capsys.readouterr().out


def test_cli_json_output_artifact(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("rng = np.random.default_rng()\n")
    artifact = tmp_path / "report.json"
    code = lint_main(
        [str(dirty), "--format", "json", "--json-output", str(artifact)]
    )
    assert code == 1
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(artifact.read_text())
    assert stdout_payload == file_payload
    assert file_payload["counts"]["findings"] == 1


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RL001", "RL004", "RL007"):
        assert code in out


# ----------------------------------------------------------------------
# Repo self-check
# ----------------------------------------------------------------------
def test_repository_lints_clean(monkeypatch):
    """The committed tree must pass its own linter with zero findings.

    Mirrors CI's ``python -m repro.lint src tests benchmarks scripts``:
    a change cannot introduce a violation without either fixing it or
    suppressing it on its line with a reason.
    """
    monkeypatch.chdir(REPO_ROOT)
    findings = lint_paths(["src", "tests", "benchmarks", "scripts"])
    assert findings == [], "\n" + render_text(findings)
