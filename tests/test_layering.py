"""The package order, and the cheap imports it buys.

``errors < sim < core, spec < adversary, apps, mp < faults < net <
scenarios < explore < campaign < service < analysis``: a package imports
only packages strictly to its left. The static check counts imports at
any depth — a function-level import is still an edge — and the
subprocess checks pin what the order is for: importing a low layer does
not execute the layers above it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: Tiers left to right; packages sharing a tier may not import each other.
ORDER = (
    ("errors",),
    ("sim",),
    ("core", "spec"),
    ("adversary", "apps", "mp"),
    ("faults",),
    ("net",),
    ("scenarios",),
    ("explore",),
    ("campaign",),
    ("service",),
    ("analysis",),
)
RANK = {package: tier for tier, packages in enumerate(ORDER) for package in packages}


def _imported_modules(tree: ast.AST):
    """``(lineno, dotted module)`` for every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro":
                # ``from repro import scenarios`` names a package.
                for alias in node.names:
                    yield node.lineno, f"repro.{alias.name}"
            else:
                yield node.lineno, node.module


def test_every_cross_package_import_points_down_the_order():
    sources = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert len(sources) > 50, "source tree not found"
    back_edges = []
    for path in sources:
        relative = path.relative_to(PACKAGE_ROOT)
        if len(relative.parts) == 1 and relative.stem == "__init__":
            continue  # the root facade; the subprocess checks below cover it
        package = relative.parts[0] if len(relative.parts) > 1 else relative.stem
        assert package in RANK, f"{relative}: package missing from ORDER"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert not any(
            isinstance(node, ast.ImportFrom) and node.level for node in ast.walk(tree)
        ), f"{relative}: relative import (this walk resolves absolute ones)"
        for lineno, module in _imported_modules(tree):
            parts = module.split(".")
            if parts[0] != "repro" or len(parts) < 2 or parts[1] == package:
                continue
            assert parts[1] in RANK, f"{relative}:{lineno}: {module} not in ORDER"
            if RANK[parts[1]] >= RANK[package]:
                back_edges.append(f"{relative}:{lineno} imports {module}")
    assert not back_edges, "\n".join(back_edges)


def test_verdicts_go_through_the_one_judge():
    # Scenario builders, E5 and the experiment drivers get every reason
    # from repro.spec.judge; importing the linearizer or a per-type
    # check_* function there would be a hand-rolled verdict path.
    offenders = []
    for package in ("scenarios", "adversary", "analysis"):
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.ImportFrom)
                    and node.module
                    and node.module.startswith("repro.spec")
                ):
                    continue
                for alias in node.names:
                    if alias.name == "find_linearization" or alias.name.startswith(
                        "check_"
                    ):
                        offenders.append(
                            f"{path.relative_to(PACKAGE_ROOT)}:{node.lineno} "
                            f"imports {alias.name}"
                        )
    assert not offenders, "\n".join(offenders)


def test_reply_channels_are_written_only_by_core_and_adversary():
    # A witness-layer attack is a write into R[j->k]; the adversary
    # library owns that act (its one serve loop), so a scenario or an
    # experiment that writes a reply channel is a hand-rolled attack.
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT)
        if relative.parts[0] in ("core", "adversary"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func, target = node.func, node.args[0]
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if (
                name == "WriteRegister"
                and isinstance(target, ast.Call)
                and getattr(target.func, "attr", "") == "reg_reply"
            ):
                offenders.append(f"{relative}:{node.lineno} writes a reply channel")
    assert not offenders, "\n".join(offenders)


def _loaded_after(statement: str, candidates) -> list:
    """Which of ``candidates`` are in ``sys.modules`` after ``statement``."""
    code = (
        f"import sys\n{statement}\n"
        f"print([name for name in {tuple(candidates)!r} if name in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT.parent))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "statement, must_stay_out",
    [
        (
            "import repro.net",
            (
                "repro.scenarios",
                "repro.explore",
                "repro.campaign",
                "repro.service",
                "repro.analysis",
            ),
        ),
        ("import repro.explore", ("repro.campaign", "repro.analysis")),
        (
            # The certification scenario builds without the catalog: the
            # theorem29 and register builders register from the modules
            # repro.explore imports, not through the lazy catalog load.
            "from repro.explore import make_scenario\n"
            "make_scenario('theorem29', f=1, extra_correct=True)",
            (
                "repro.scenarios.catalog",
                "repro.scenarios.apps",
                "repro.net",
                "asyncio",
            ),
        ),
    ],
    ids=["net", "explore", "theorem29-without-catalog"],
)
def test_importing_a_layer_does_not_load_the_layers_above(statement, must_stay_out):
    assert _loaded_after(statement, must_stay_out) == []
