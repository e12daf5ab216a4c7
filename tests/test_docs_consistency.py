"""Documentation consistency guards: the markdown must keep up with the
code. These catch doc rot mechanically."""

import re
from pathlib import Path

import pytest

from repro.audit.checks import CHECKS
from repro.techniques import technique_names
from repro.workloads import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent


def read(relpath: str) -> str:
    return (ROOT / relpath).read_text()


class TestTopLevelDocs:
    def test_required_files_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile"):
            assert (ROOT / name).exists(), name

    def test_docs_pages_exist(self):
        for page in (
            "README.md",
            "architecture.md",
            "techniques.md",
            "isa.md",
            "workloads.md",
            "experiments.md",
            "validation.md",
        ):
            assert (ROOT / "docs" / page).exists(), page

    def test_readme_mentions_core_commands(self):
        readme = read("README.md")
        for command in ("repro run", "repro figure", "repro table", "repro sweep",
                        "repro pipeview", "pytest benchmarks/"):
            assert command in readme, command

    def test_design_covers_every_paper_figure(self):
        design = read("DESIGN.md")
        for artifact in ("Table 1", "Table 2", "Fig 2", "Fig 7", "Fig 8",
                         "Fig 9", "Fig 10", "Fig 11", "Fig 12"):
            assert artifact in design, artifact

    def test_experiments_has_verdicts(self):
        experiments = read("EXPERIMENTS.md")
        assert "reproduced" in experiments
        assert "1139" in experiments  # the Section 4.4 constant


class TestAuditDocs:
    def _check_rows(self):
        """Check names from the per-run table of docs/audit.md.

        The standalone snapshot checks below it name their function in
        parentheses, which keeps them out of this set.
        """
        names = []
        for line in read("docs/audit.md").splitlines():
            match = re.match(r"\| `([a-z][\w.-]*)` \|", line)
            if match:
                names.append(match.group(1))
        return names

    def test_every_registered_check_has_a_row(self):
        rows = set(self._check_rows())
        missing = [name for name in CHECKS if name not in rows]
        assert not missing, f"checks missing from docs/audit.md: {missing}"

    def test_every_check_row_names_a_registered_check(self):
        rows = self._check_rows()
        assert rows
        unknown = [name for name in rows if name not in CHECKS]
        assert not unknown, f"docs/audit.md rows for unregistered checks: {unknown}"


class TestTechniqueDocs:
    def test_every_technique_documented(self):
        techniques_doc = read("docs/techniques.md")
        for name in technique_names():
            base = name.split("-")[0]
            assert f"`{base}" in techniques_doc or base in techniques_doc, name

    def test_swpf_documented(self):
        assert "swpf" in read("docs/techniques.md")


class TestWorkloadDocs:
    def test_every_workload_documented(self):
        workloads_doc = read("docs/workloads.md")
        for name in WORKLOAD_NAMES:
            assert f"`{name}`" in workloads_doc, name

    def test_graph_profiles_documented(self):
        workloads_doc = read("docs/workloads.md")
        for profile in ("KR", "TW", "ORK", "LJN", "UR"):
            assert profile in workloads_doc, profile


class TestBenchmarkCoverage:
    def test_one_bench_per_paper_artifact(self):
        bench_dir = ROOT / "benchmarks"
        stems = {p.stem for p in bench_dir.glob("test_*.py")}
        for expected in (
            "test_tables",
            "test_fig2_rob_sweep",
            "test_fig7_performance",
            "test_fig8_breakdown",
            "test_fig9_mlp",
            "test_fig10_accuracy",
            "test_fig11_timeliness",
            "test_fig12_dvr_rob",
            "test_ablations",
            "test_hwcost",
        ):
            assert expected in stems, expected

    def test_examples_exist_and_are_scripts(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        for example in examples:
            text = example.read_text()
            assert '__main__' in text, example.name
            assert text.startswith("#!") or text.startswith('"""') or "import" in text
