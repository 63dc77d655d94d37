"""A ``KripkeModel`` is its successor and atom masks; ``frame`` and
``valuation`` are pair-set views built for export and inspection.  Outside
``kripke.py`` the package reads the masks only, so no decider, transform or
tail extension pays for the views."""

import ast

from test_dead_code import modules

VIEWS = ("frame", "valuation")


def test_only_kripke_reads_the_pair_set_views():
    readers = [f"{filename}:{node.lineno} .{node.attr}"
               for filename, tree in modules().items() if filename != "kripke.py"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in VIEWS]
    assert not readers, readers
