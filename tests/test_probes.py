"""Every function the benchmark tracer probes must exist in the package.

The tracer skips a probe whose target is missing, so a rename or a
deletion would only show as a silent span in a traced benchmark run.
tracer.py is parsed, not imported, so the benchmark directory is only
read.
"""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _probe_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "PROBES" for t in node.targets)):
            return [(call.args[1].value, call.args[2].value)
                    for call in node.value.elts]
    raise AssertionError("no PROBES in tracer.py")


def test_every_probe_resolves_to_a_package_function():
    targets = _probe_targets()
    assert len(targets) >= 20
    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        if "." in attr:   # a method, wrapped on its class
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)
