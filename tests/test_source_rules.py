"""Rules the library source keeps, checked on its syntax tree."""

import ast
import os

import galepoly

SRC = os.path.dirname(galepoly.__file__)


def test_library_has_no_assert_statements():
    # python -O strips asserts, so a certificate check written as one
    # would silently stop running; checks raise CertificateError instead
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
