"""Report rows: the verdict rule, and the package's export lists."""

import ast
import importlib
import pkgutil

import pytest

import causalops
from causalops.report import DEGENERATE, FAIL, PASS, SKIP, Report

MODULES = sorted(m.name for m in pkgutil.iter_modules(causalops.__path__))


class TestVerdict:
    def test_no_offenders_and_no_counts_is_a_bare_pass(self):
        rep = Report()
        entry = rep.verdict("law", "target", [])
        assert (entry.status, entry.witness) == (PASS, None)
        assert rep.to_json() == [{"check": "law", "target": "target", "status": PASS}]

    def test_no_offenders_passes_with_the_counts(self):
        rep = Report()
        entry = rep.verdict("law", "target", [], {"checked": 0})
        assert (entry.status, entry.witness) == (PASS, {"checked": 0})

    def test_offenders_fail_with_the_first_three_in_order(self):
        rep = Report()
        entry = rep.verdict("law", "target", ["d", "b", "c", "a"], {"checked": 4})
        assert (entry.status, entry.witness) == (FAIL, ["d", "b", "c"])
        assert rep.failures == [entry]


class TestOutput:
    def test_summary_counts_the_statuses_in_their_fixed_order(self):
        rep = Report()
        assert rep.summary() == "empty"
        for check, status in [("a", SKIP), ("b", FAIL), ("c", PASS), ("d", FAIL), ("e", DEGENERATE)]:
            rep.add(check, "target", status)
        assert rep.summary() == "pass=1, fail=2, degenerate=1, skip=1"

    def test_write_stores_the_dumps_bytes(self, tmp_path):
        rep = Report()
        rep.add("law", "target", FAIL, witness=["é", {"b": 1, "a": 2}])
        path = tmp_path / "report.json"
        rep.write(str(path))
        assert path.read_bytes() == rep.dumps().encode("utf-8")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"causalops.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_reexports_are_module_exports():
    # a module without ``__all__`` exports its public names, as ``import *`` does
    tree = ast.parse(open(causalops.__file__, encoding="utf-8").read())
    reexported = {"__version__"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"causalops.{node.module}")
            exported = getattr(module, "__all__",
                               [n for n in vars(module) if not n.startswith("_")])
            names = [a.name for a in node.names]
            assert set(names) <= set(exported), node.module
            reexported.update(names)
    assert set(causalops.__all__) == reexported
    assert all(hasattr(causalops, n) for n in causalops.__all__)
