"""Documentation/code consistency: DESIGN.md, the CLI registry, and the
benchmark suite must agree on the experiment inventory.

These tests stop the classic repo rot where an experiment exists in one
place but not the others.
"""

import re
from pathlib import Path

from repro.engine.registry import all_specs

EXPERIMENTS = all_specs()

REPO = Path(__file__).parent.parent
DESIGN = (REPO / "DESIGN.md").read_text(encoding="utf-8")
EXPERIMENTS_MD = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
BENCH_DIR = REPO / "benchmarks"


def design_experiment_ids() -> set:
    return set(re.findall(r"\| (E\d+) \|", DESIGN))


class TestExperimentInventory:
    def test_cli_covers_design(self):
        missing = design_experiment_ids() - set(EXPERIMENTS)
        assert not missing, f"DESIGN.md experiments missing from the CLI: {missing}"

    def test_design_covers_cli(self):
        undocumented = set(EXPERIMENTS) - design_experiment_ids()
        assert not undocumented, (
            f"CLI experiments not documented in DESIGN.md: {undocumented}"
        )

    def test_every_design_experiment_names_an_existing_bench(self):
        # Each index row reproduces through its own registry entry, which
        # benchmarks/bench_experiments.py runs once per registered id.
        rows = re.findall(
            r"^\| (E\d+) \|.*\| `python -m repro run (E\d+)` \|$", DESIGN, re.M
        )
        assert {exp_id for exp_id, _ in rows} == set(EXPERIMENTS)
        for exp_id, target in rows:
            assert target == exp_id, f"{exp_id} points at {target}"
        assert (BENCH_DIR / "bench_experiments.py").exists()

    def test_every_design_experiment_names_an_existing_driver(self):
        for match in re.finditer(r"\| (E\d+) \|.*?`experiments/(\w+\.py)`", DESIGN):
            exp_id, driver = match.groups()
            path = REPO / "src" / "repro" / "experiments" / driver
            assert path.exists(), f"{exp_id} points at missing {driver}"

    def test_experiments_md_reports_every_experiment(self):
        for exp_id in EXPERIMENTS:
            assert re.search(rf"## {exp_id} ", EXPERIMENTS_MD), (
                f"{exp_id} has no section in EXPERIMENTS.md"
            )

    def test_driver_ids_match_registry_keys(self):
        for exp_id, spec in EXPERIMENTS.items():
            # Only run the cheapest drivers here; identity of the rest is
            # covered by their own tests.
            if exp_id in ("E11", "E13"):
                result = spec.run("quick")
                assert result.experiment_id == exp_id


class TestDocumentationClaims:
    def test_design_notes_paper_text_verified(self):
        assert "Paper-text check" in DESIGN

    def test_experiments_md_summary_count_matches_registry(self):
        m = re.search(r"All (\d+) experiments pass", EXPERIMENTS_MD)
        assert m, "EXPERIMENTS.md lost its summary line"
        assert int(m.group(1)) == len(EXPERIMENTS)

    def test_readme_mentions_cli_and_docs(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "python -m repro" in readme
        assert "docs/theory_map.md" in readme
