"""The reprolint rule suite: fixtures per rule, pins, self-check.

Every rule gets at least one known-bad and one known-clean snippet;
the two repo-level rules (RL004/RL005) additionally get pinned
regression scenarios against throwaway repository copies: editing a
frozen ``Reference*`` oracle, or changing a campaign result-dict key
without bumping ``CACHE_SCHEMA``, must each fail lint.  Finally the
repository itself must be lint-clean modulo committed suppressions.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import engine  # noqa: E402
from tools.reprolint import rules_repo  # noqa: E402
from tools.reprolint.cli import main as reprolint_main  # noqa: E402

SRC = "src/repro/module.py"
ORACLE = "tests/oracles/module.py"


def codes(findings):
    return [f.rule for f in findings]


def lint(source, rel_path=SRC):
    return engine.lint_source(source, rel_path)


# ----------------------------------------------------------------------
# RL001: no-raw-hash-seeding
# ----------------------------------------------------------------------
class TestRL001:
    def test_hash_into_random_is_flagged(self):
        bad = "import random\nrng = random.Random(hash(('a', 1)))\n"
        assert "RL001" in codes(lint(bad))

    def test_hash_assigned_to_seed_name_is_flagged(self):
        bad = "seed = hash(('round', r, sender))\n"
        assert "RL001" in codes(lint(bad))

    def test_hash_into_seed_keyword_is_flagged(self):
        bad = "run(workload, seed=hash(key))\n"
        assert "RL001" in codes(lint(bad))

    def test_stable_seed_and_plain_hash_are_clean(self):
        clean = (
            "from repro.core.canonical import stable_seed\n"
            "seed = stable_seed(('round', 3))\n"
            "bucket = hash(payload)  # plain hashing, no seed path\n"
        )
        assert [c for c in codes(lint(clean)) if c == "RL001"] == []


# ----------------------------------------------------------------------
# RL002: no-wallclock-in-sim
# ----------------------------------------------------------------------
class TestRL002:
    BAD = "import time\nstamp = time.time()\n"

    def test_wallclock_under_src_repro_is_flagged(self):
        assert "RL002" in codes(lint(self.BAD))
        assert "RL002" in codes(lint(self.BAD, rel_path=ORACLE))

    def test_from_import_alias_is_flagged(self):
        bad = "from time import perf_counter as clock\nt = clock()\n"
        assert "RL002" in codes(lint(bad))

    def test_datetime_now_is_flagged(self):
        bad = "import datetime\nstamp = datetime.datetime.now()\n"
        assert "RL002" in codes(lint(bad))

    def test_outside_src_repro_is_exempt(self):
        assert codes(lint(self.BAD, rel_path="benchmarks/test_bench.py")) == []
        assert codes(lint(self.BAD, rel_path="tests/test_x.py")) == []

    def test_tick_arithmetic_is_clean(self):
        clean = "tick = round_no * delta + offset\n"
        assert codes(lint(clean)) == []


# ----------------------------------------------------------------------
# RL003: no-unseeded-rng
# ----------------------------------------------------------------------
class TestRL003:
    def test_unseeded_random_is_flagged(self):
        bad = "import random\nrng = random.Random()\n"
        assert "RL003" in codes(lint(bad))
        assert "RL003" in codes(lint(bad, rel_path=ORACLE))

    def test_module_level_rng_is_flagged(self):
        bad = "import random\nvalue = random.random()\n"
        assert "RL003" in codes(lint(bad))

    def test_untraceable_seed_is_flagged(self):
        bad = "import random\nrng = random.Random(label)\n"
        assert "RL003" in codes(lint(bad))

    def test_stable_seed_and_int_literal_are_clean(self):
        clean = (
            "import random\n"
            "from repro.core.canonical import stable_seed\n"
            "a = random.Random(stable_seed((seed, r, s, q)))\n"
            "b = random.Random(0)\n"
        )
        assert codes(lint(clean)) == []

    def test_tests_are_out_of_scope(self):
        bad = "import random\nrng = random.Random()\n"
        assert codes(lint(bad, rel_path="tests/test_x.py")) == []


# ----------------------------------------------------------------------
# RL006: canonical-iteration-order
# ----------------------------------------------------------------------
class TestRL006:
    def test_set_intersection_loop_is_flagged(self):
        bad = "for ident in set(a) & set(b):\n    emit(ident)\n"
        assert "RL006" in codes(lint(bad))
        assert "RL006" in codes(lint(bad, rel_path=ORACLE))

    def test_tuple_of_set_is_flagged(self):
        bad = "order = tuple(set(names))\n"
        assert "RL006" in codes(lint(bad))

    def test_join_over_set_comprehension_is_flagged(self):
        bad = "text = ','.join({f(x) for x in xs})\n"
        assert "RL006" in codes(lint(bad))

    def test_sorted_wrapping_is_clean(self):
        clean = (
            "for ident in sorted(set(a) & set(b)):\n    emit(ident)\n"
            "order = tuple(sorted(set(names)))\n"
        )
        assert codes(lint(clean)) == []

    def test_order_insensitive_sinks_are_clean(self):
        clean = (
            "total = sum(x for x in set(a) | set(b))\n"
            "names = sorted(n for n in set(a) - set(b))\n"
            "union = {f(x) for x in set(a) | set(b)}\n"
        )
        assert codes(lint(clean)) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_suppression_silences_the_rule(self):
        source = (
            "import random\n"
            "rng = random.Random()  # reprolint: disable=RL003 -- fixture\n"
        )
        assert codes(lint(source)) == []

    def test_standalone_comment_covers_next_code_line(self):
        source = (
            "import random\n"
            "# reprolint: disable=RL003 -- justified: pinned stream,\n"
            "# see the conformance grid.\n"
            "rng = random.Random()\n"
        )
        assert codes(lint(source)) == []

    def test_wrong_code_does_not_suppress(self):
        source = (
            "import random\n"
            "rng = random.Random()  # reprolint: disable=RL002\n"
        )
        assert "RL003" in codes(lint(source))

    def test_marker_inside_string_is_not_a_suppression(self):
        source = (
            "import random\n"
            "note = '# reprolint: disable=RL003'\n"
            "rng = random.Random()\n"
        )
        assert "RL003" in codes(lint(source))


# ----------------------------------------------------------------------
# RL004: frozen-oracle drift (pinned regression scenarios)
# ----------------------------------------------------------------------
ORACLE_FILES = [
    "tests/oracles/delay.py",
    "tests/oracles/network.py",
    "tests/oracles/scenario.py",
    "tests/oracles/broadcast.py",
    "tests/oracles/naive_explore.py",
    "tests/oracles/heard.py",
]


@pytest.fixture
def oracle_copy(tmp_path):
    """A throwaway tree holding copies of the six pinned oracle files."""
    for rel in ORACLE_FILES:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / rel, target)
    return tmp_path


class TestRL004:
    def test_pristine_copy_is_clean(self, oracle_copy):
        assert rules_repo.check_oracles(oracle_copy) == []

    def test_editing_a_reference_class_fails_lint(self, oracle_copy):
        path = oracle_copy / "tests/oracles/network.py"
        source = path.read_text()
        marker = "The pre-fabric delivery loop"
        assert marker in source
        path.write_text(source.replace(marker, "An edited delivery loop"))
        findings = rules_repo.check_oracles(oracle_copy)
        assert codes(findings) == ["RL004"]
        assert "ReferenceRoundEngine" in findings[0].message

    def test_unrelated_edit_in_the_same_file_is_clean(self, oracle_copy):
        # The class digests pin the oracle *segment*, not the module:
        # appending code after the class must not trip the rule.
        path = oracle_copy / "tests/oracles/network.py"
        path.write_text(path.read_text() + "\n\nUNRELATED = 1\n")
        assert rules_repo.check_oracles(oracle_copy) == []

    def test_editing_the_reference_module_fails_lint(self, oracle_copy):
        path = oracle_copy / "tests/oracles/broadcast.py"
        path.write_text(path.read_text() + "\n# drift\n")
        findings = rules_repo.check_oracles(oracle_copy)
        assert codes(findings) == ["RL004"]
        assert "broadcast-reference-module" in findings[0].message

    def test_editing_the_naive_explorer_fails_lint(self, oracle_copy):
        path = oracle_copy / "tests/oracles/naive_explore.py"
        source = path.read_text()
        marker = "copy.deepcopy"
        assert marker in source
        path.write_text(source.replace(marker, "copy.copy", 1))
        findings = rules_repo.check_oracles(oracle_copy)
        assert codes(findings) == ["RL004"]
        assert "naive-explore-module" in findings[0].message

    def test_editing_the_heard_rebuild_fails_lint(self, oracle_copy):
        path = oracle_copy / "tests/oracles/heard.py"
        source = path.read_text()
        marker = "per_recipient.get(slot, ())"
        assert marker in source
        path.write_text(source.replace(marker, "per_recipient.get(b, ())", 1))
        findings = rules_repo.check_oracles(oracle_copy)
        assert codes(findings) == ["RL004"]
        assert "heard-rebuild" in findings[0].message

    def test_update_oracles_re_pins_deliberately(self, oracle_copy, tmp_path):
        path = oracle_copy / "tests/oracles/broadcast.py"
        path.write_text(path.read_text() + "\n# drift\n")
        manifest = tmp_path / "oracle_digests.json"
        shutil.copyfile(rules_repo.ORACLE_DIGESTS, manifest)
        changed = rules_repo.update_oracles(oracle_copy, manifest)
        assert changed == ["broadcast-reference-module"]
        assert rules_repo.check_oracles(oracle_copy, manifest) == []

    def test_missing_oracle_fails_lint(self, oracle_copy):
        (oracle_copy / "tests/oracles/broadcast.py").unlink()
        findings = rules_repo.check_oracles(oracle_copy)
        assert codes(findings) == ["RL004"]
        assert "not found" in findings[0].message

    def test_unparseable_oracle_file_is_drift_not_a_crash(self, oracle_copy):
        path = oracle_copy / "tests/oracles/network.py"
        path.write_text(path.read_text() + "\ndef broken(:\n")
        findings = rules_repo.check_oracles(oracle_copy)
        assert codes(findings) == ["RL004"]
        assert "no longer parses" in findings[0].message


# ----------------------------------------------------------------------
# RL005: cache-schema fingerprint (pinned regression scenarios)
# ----------------------------------------------------------------------
SCHEMA_FILES = [
    "src/repro/experiments/campaign.py",
    "src/repro/atlas/evidence.py",
]


@pytest.fixture
def schema_copy(tmp_path):
    """A throwaway tree holding copies of the fingerprinted modules."""
    for rel in SCHEMA_FILES:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / rel, target)
    return tmp_path


class TestRL005:
    def test_pristine_copy_is_clean(self, schema_copy):
        assert rules_repo.check_schema(schema_copy) == []

    def test_key_change_without_schema_bump_fails_lint(self, schema_copy):
        path = schema_copy / "src/repro/experiments/campaign.py"
        source = path.read_text()
        assert '"unit_id": unit.unit_id,' in source
        path.write_text(
            source.replace('"unit_id": unit.unit_id,', '"uid": unit.unit_id,')
        )
        findings = rules_repo.check_schema(schema_copy)
        assert codes(findings) == ["RL005"]
        assert "without a CACHE_SCHEMA bump" in findings[0].message

    def test_schema_bump_requires_deliberate_re_pin(self, schema_copy):
        path = schema_copy / "src/repro/experiments/campaign.py"
        source = path.read_text()
        assert 'CACHE_SCHEMA = "campaign/8"' in source
        path.write_text(
            source.replace(
                'CACHE_SCHEMA = "campaign/8"', 'CACHE_SCHEMA = "campaign/9"'
            )
        )
        findings = rules_repo.check_schema(schema_copy)
        assert codes(findings) == ["RL005"]
        assert "--update-schema" in findings[0].message

    def test_update_schema_re_pins(self, schema_copy, tmp_path):
        path = schema_copy / "src/repro/experiments/campaign.py"
        source = path.read_text()
        path.write_text(
            source
            .replace('"unit_id": unit.unit_id,', '"uid": unit.unit_id,')
            .replace(
                'CACHE_SCHEMA = "campaign/8"', 'CACHE_SCHEMA = "campaign/9"'
            )
        )
        pin = tmp_path / "schema_fingerprint.json"
        rules_repo.update_schema(schema_copy, pin)
        assert rules_repo.check_schema(schema_copy, pin) == []
        written = json.loads(pin.read_text())
        assert written["cache_schema"] == "campaign/9"
        shapes = written["result_shapes"]["campaign.execute_unit"]
        assert any("uid" in shape for shape in shapes)


# ----------------------------------------------------------------------
# The repository itself, and the CLI
# ----------------------------------------------------------------------
class TestRepositoryIsClean:
    def test_src_tests_benchmarks_tools_are_lint_clean(self):
        findings, files = engine.lint_paths(
            REPO_ROOT, ["src", "tests", "benchmarks", "tools"]
        )
        assert files > 100  # the walk actually covered the tree
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_every_rule_is_registered(self):
        registered = {rule.code for rule in engine.all_rules()}
        assert registered >= {
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006"
        }


class TestCli:
    def test_list_rules_exits_zero(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL004", "RL006"):
            assert code in out

    def test_clean_repo_exits_zero_and_writes_report(self, tmp_path, capsys):
        report = tmp_path / "lint-report.json"
        status = reprolint_main(["src", "--report", str(report)])
        assert status == 0
        data = json.loads(report.read_text())
        assert data["clean"] is True
        assert data["files_checked"] > 50
        assert len(data["rules"]) >= 6

    def test_findings_exit_nonzero(self, tmp_path):
        # A bad file outside the repo tree, linted via --root.
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrng = random.Random()\n")
        status = reprolint_main(
            ["src", "--root", str(tmp_path)]
        )
        assert status == 1

    def test_module_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "RL005" in proc.stdout
