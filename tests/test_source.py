"""Source hygiene: every name a module imports is used in it, every private
function or method is called from somewhere in the package, the autodiff
engine and the head's loss node call none of numpy's slow Python-level
helpers, only the distance kernel of `autodiff` calls `np.einsum`, only
`from_json` builds a config object from unpacked JSON,
every run-config key is read by the code it configures, `config` imports
no module of the package but `errors`, no import cycle hides behind
`TYPE_CHECKING`, only `cli.main` loads and logs the run config, no
function takes the posterior rule as a parameter, every config schema is
frozen, every schema's `__post_init__` runs the one field check and raises
only for the relations between fields, every default a run config shares
with a schema or a library function is written once, the run config
resolves its task-mode defaults from named owners, the package root
imports nothing, each name is imported from the module that binds it, no
call passes `str` as a dtype or type argument, only the format writers and `save_checkpoint` open a
file to write or format JSON or CSV text, the words of each input rule
(record values, boxes, class maps, choices, kinds of value, integer bounds,
number ranges, class counts) are held by one string literal of
the package, every function of the autodiff engine is called in it, and
every primitive, in the engine or beside the composed loss in the tests,
has its central-difference check."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

from mixrep import episodes, head, metrics, training
from mixrep.config import RunConfig
from test_acceptance import _primitive_checks

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mixrep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Private `_name` functions and methods defined in `sources` (module name
    -> text) that no name or attribute anywhere in them reads. Dunder methods
    are called by Python itself and are not counted."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((node.name, f"{module}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{name} ({where})" for name, where in defined if name not in read)


def test_scan_finds_an_unused_import():
    source = "import json\nfrom os import path, sep\nfrom __future__ import annotations\nprint(sep)\n"
    assert unused_imports(source) == ["json (line 1)", "path (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unreferenced_private_function():
    first = ("def _called():\n    pass\n\n\ndef _left_over():\n    pass\n\n\n"
             "class A:\n    def __init__(self):\n        self._method()\n\n"
             "    def _method(self):\n        pass\n\n    def _stale(self):\n        pass\n")
    second = "from .first import _called\n\n_called()\n"
    assert unreferenced_private_functions({"first": first, "second": second}) == [
        "_left_over (first:5)", "_stale (first:16)"]


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


# numpy helpers the autodiff engine must not use, each with its cost next to
# what replaces it (per call on (3, 5, 5)-sized arrays, numpy 2.4, one core).
# Every graph node runs a few of these, so in a 50-node fine-tune graph they
# added up to a sixth of a step.
SLOW_NUMPY = {
    "np.any": "3.1 us; the ndarray method .any() takes 1.2 us",
    "np.all": "2.9 us; the ndarray method .all() takes 1.6 us",
    "np.expand_dims": "4.7 us of Python; reshape to the kept shape instead",
    "np.put_along_axis": "9.7 us of Python; assign through one fancy index instead",
    "np.split": "6.5 us, and it cuts every part; one slice takes 1.0 us",
    "np.add.at": "4.7 us; np.bincount over a flat index adds in the same order in 2.2 us",
}


def dotted_references(source: str, names) -> list[str]:
    """References in `source` to any of the dotted `names` (like
    `np.add.at`), called or not, with their line numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        parts, inner = [], node
        while isinstance(inner, ast.Attribute):
            parts.append(inner.attr)
            inner = inner.value
        if parts and isinstance(inner, ast.Name):
            name = ".".join([inner.id, *reversed(parts)])
            if name in names:
                found.append(f"{name} (line {node.lineno})")
    return sorted(found)


def test_scan_finds_slow_numpy_helpers():
    source = ("import numpy as np\n"
              "if np.any(x < 0) or (x < 0).any():\n"
              "    np.add.at(gi, index, g)\n"
              "split = np.split\n"
              "np.add(a, b)\n")
    assert dotted_references(source, SLOW_NUMPY) == [
        "np.add.at (line 3)", "np.any (line 2)", "np.split (line 4)"]


def test_autodiff_avoids_slow_numpy_helpers():
    # the engine, and the head, whose loss is one node with a vjp of its own
    for module in ("autodiff.py", "head.py"):
        source = (PACKAGE / module).read_text(encoding="utf-8")
        assert dotted_references(source, SLOW_NUMPY) == [], module


def test_only_the_distance_kernel_calls_einsum():
    # one fixed-order product for every distance: a second one could sum in
    # another order, and a coincident pair would no longer be exactly 0
    for module in MODULES:
        found = dotted_references(module.read_text(encoding="utf-8"), {"np.einsum"})
        assert bool(found) == (module.name == "autodiff.py"), (module.name, found)


# the dataclasses read from JSON files; `config.from_json` refuses unknown and
# missing keys and builds the nested sections, so a `**`-unpacked build
# elsewhere would skip that
JSON_CONFIGS = {"RunConfig", "SynthConfig", "EpisodeSpec", "EmbeddingConfig", "MixtureConfig"}


def unpacked_config_builds(source: str) -> list[str]:
    """Calls outside a function named `from_json` that build one of
    JSON_CONFIGS from `**`-unpacked keywords: by its name, as `cls` in one of
    its own methods, or through `replace`."""
    found = []

    def visit(node, in_class, in_from_json):
        if isinstance(node, ast.ClassDef):
            in_class = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_from_json = node.name == "from_json"
        elif (isinstance(node, ast.Call) and not in_from_json
              and any(keyword.arg is None for keyword in node.keywords)):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in JSON_CONFIGS or name == "replace" or (
                    name == "cls" and in_class in JSON_CONFIGS):
                found.append(f"{name} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, in_class, in_from_json)

    visit(ast.parse(source), None, False)
    return found


def test_scan_finds_an_unpacked_config_build():
    source = ("def from_json(cls, doc):\n    return cls(**doc)\n\n\n"
              "class RunConfig:\n    @classmethod\n    def from_dict(cls, doc):\n"
              "        return cls(seed=1, **doc)\n\n\n"
              "class Scores:\n    def copy(self):\n        return Scores(**vars(self))\n\n\n"
              "spec = EpisodeSpec(**doc['spec'])\nhead = mixrep.EmbeddingConfig(**doc)\n"
              "config = dataclasses.replace(config, **changes)\nplain = RunConfig(seed=2)\n"
              "shown = print(**options)\n")
    assert unpacked_config_builds(source) == [
        "cls (line 8)", "EpisodeSpec (line 16)", "EmbeddingConfig (line 17)",
        "replace (line 18)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_only_from_json_builds_a_config_from_unpacked_json(module):
    assert unpacked_config_builds(module.read_text(encoding="utf-8")) == []


def unread_config_fields(sources: dict[str, str]) -> list[str]:
    """Fields of the `RunConfig` class in `sources` (module name -> text)
    that no attribute load anywhere in them reads, leaving out
    `RunConfig.__post_init__`: a key that is only checked configures
    nothing."""
    fields, read = [], set()

    def visit(node, skip):
        if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
            fields.extend(item.target.id for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
            for item in node.body:
                visit(item, isinstance(item, ast.FunctionDef) and item.name == "__post_init__")
            return
        if skip:
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, False)

    for source in sources.values():
        visit(ast.parse(source), False)
    return sorted(name for name in fields if name not in read)


def test_scan_finds_an_unread_config_field():
    first = ("class RunConfig:\n    seed: int = 0\n    lr: float = 0.1\n"
             "    support_iou: float = 0.7\n    sigma: float = 0.5\n\n"
             "    def __post_init__(self):\n        if not self.support_iou > 0:\n"
             "            raise ValueError(self.lr)\n        self.sigma = float(self.sigma)\n\n"
             "    def stream(self):\n        return self.seed\n")
    second = "def fit(config):\n    config.sigma = 1.0\n    return config.lr\n"
    assert unread_config_fields({"first": first, "second": second}) == ["sigma", "support_iou"]


def test_every_run_config_field_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_config_fields(sources) == []


def foreign_imports(source: str, allowed) -> list[str]:
    """Modules `source` imports that are neither in the standard library nor
    in `allowed` (relative ones written as in the source, like ".errors"),
    with their line numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names, relative = [alias.name for alias in node.names], False
        elif isinstance(node, ast.ImportFrom):
            names, relative = ["." * node.level + (node.module or "")], node.level > 0
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name not in allowed
                  and (relative or name.split(".")[0] not in sys.stdlib_module_names)]
    return found


def test_scan_finds_a_foreign_import():
    source = ("import json\nimport numpy as np\nimport os.path\nfrom typing import Any\n"
              "from .errors import ConfigError\nfrom .head import MixtureHead\n"
              "from . import data\nfrom numpy.linalg import norm\n")
    assert foreign_imports(source, {".errors"}) == [
        "numpy (line 2)", ".head (line 6)", ". (line 7)", "numpy.linalg (line 8)"]


def test_config_is_a_leaf_module():
    # every other module reads its schemas from config, so config reads none of them
    source = (PACKAGE / "config.py").read_text(encoding="utf-8")
    assert foreign_imports(source, {".errors"}) == []


def type_checking_references(source: str) -> list[str]:
    """Lines of `source` that import or read `TYPE_CHECKING`."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and any(a.name == "TYPE_CHECKING" for a in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING"]


def test_scan_finds_type_checking():
    source = ("import typing\nfrom typing import TYPE_CHECKING, Any\n"
              "if typing.TYPE_CHECKING:\n    pass\n")
    assert type_checking_references(source) == ["line 2", "line 3"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_import_cycle_is_hidden_behind_type_checking(module):
    assert type_checking_references(module.read_text(encoding="utf-8")) == []


def callers(source: str, names) -> list[str]:
    """"name in function" for each call in `source` of one of `names`, the
    function being the innermost one around the call ("<module>" outside
    every function)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append(f"{name} in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_each_caller():
    source = ("def main():\n    config = load_run_config(path)\n\n\n"
              "def cmd_train(args):\n    def inner():\n        write_resolved_config(c, p)\n"
              "    return config.load_run_config(args)\n\n\nload_run_config(None)\n")
    assert callers(source, {"load_run_config", "write_resolved_config"}) == [
        "load_run_config in main", "write_resolved_config in inner",
        "load_run_config in cmd_train", "load_run_config in <module>"]


def test_only_cli_main_loads_and_logs_the_config():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert callers(source, {"load_run_config", "write_resolved_config"}) == [
        "load_run_config in main", "write_resolved_config in main"]


def functions_taking(source: str, parameter: str) -> list[str]:
    """Functions, methods and lambdas in `source` with a parameter named
    `parameter`, of any kind, with their line numbers, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                         *filter(None, (a.vararg, a.kwarg)))]
            if parameter in names:
                found.append((node.lineno, getattr(node, "name", "lambda")))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_scan_finds_a_function_taking_the_parameter():
    source = ("def score(E, posterior_mode=None):\n    pass\n\n\n"
              "class Head:\n    def batch(self, X, *, posterior_mode):\n        pass\n\n"
              "    def rule(self):\n        return self.mixture.posterior_mode\n\n\n"
              "pick = lambda posterior_mode: posterior_mode\n"
              "async def run(*posterior_mode):\n    pass\n"
              "score(E, posterior_mode='max')\n")
    assert functions_taking(source, "posterior_mode") == [
        "score (line 1)", "batch (line 6)", "lambda (line 13)", "run (line 14)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_the_posterior_rule_is_set_on_the_head_only(module):
    # the rule is `MixtureConfig.posterior_mode`; a per-call override would
    # give every scorer two places to look
    assert functions_taking(module.read_text(encoding="utf-8"), "posterior_mode") == []


def unfrozen_dataclasses(source: str) -> list[str]:
    """Classes in `source` decorated with `dataclass`, called or not, by name
    or as an attribute, without `frozen=True`, with their line numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            func = call.func if call else decorator
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            frozen = call is not None and any(
                keyword.arg == "frozen" and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True for keyword in call.keywords)
            if name == "dataclass" and not frozen:
                found.append(f"{node.name} (line {node.lineno})")
    return found


def test_scan_finds_an_unfrozen_dataclass():
    source = ("@dataclass\nclass A:\n    x: int\n\n\n"
              "@dataclass(frozen=True)\nclass B:\n    x: int\n\n\n"
              "@dataclasses.dataclass(eq=False)\nclass C:\n    x: int\n\n\n"
              "@dataclasses.dataclass(frozen=False)\nclass D:\n    x: int\n\n\n"
              "@functools.total_ordering\n@dataclasses.dataclass(order=True, frozen=True)\n"
              "class E:\n    x: int\n\n\n"
              "class F:\n    x: int\n")
    assert unfrozen_dataclasses(source) == ["A (line 2)", "C (line 12)", "D (line 17)"]


def test_every_config_schema_is_frozen():
    # a schema checks its values when built; an assignment afterwards would
    # skip the check, so every change goes through dataclasses.replace
    source = (PACKAGE / "config.py").read_text(encoding="utf-8")
    assert unfrozen_dataclasses(source) == []


def post_init_checks(source: str) -> list[str]:
    """"Class: check" for each raise, shown by the first argument of what it
    raises, and each call of a bare `check_*` name in the `__post_init__`
    of each class in `source`, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if not (isinstance(method, ast.FunctionDef) and method.name == "__post_init__"):
                continue
            for inner in ast.walk(method):
                if isinstance(inner, ast.Raise):
                    found.append((inner.lineno, f"{node.name}: raise "
                                  f"{ast.unparse(getattr(inner.exc, 'args', [inner.exc])[0])}"))
                elif isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name) \
                        and inner.func.id.startswith("check_"):
                    found.append((inner.lineno, f"{node.name}: {inner.func.id}"))
    return [check for _, check in sorted(found)]


def test_scan_finds_each_post_init_check():
    source = ("class A:\n    def __post_init__(self):\n        check_fields(self)\n"
              "        if self.x > self.y:\n            raise ConfigError(f'x {self.x} > y')\n"
              "        self.build()\n\n    def build(self):\n"
              "        raise ConfigError('late')\n\n\n"
              "class B:\n    def __post_init__(self):\n        if self.z < 0:\n"
              "            raise ValueError\n        check_at_least('z', self.z, 0)\n")
    assert post_init_checks(source) == [
        "A: check_fields", "A: raise f'x {self.x} > y'", "B: raise ValueError",
        "B: check_at_least"]


def test_schemas_raise_only_for_relations_between_fields():
    # every value rule is declared at its field and checked by check_fields;
    # a __post_init__ adds only what relates two fields or a field's entries
    source = (PACKAGE / "config.py").read_text(encoding="utf-8")
    assert post_init_checks(source) == [
        "EmbeddingConfig: check_fields", "EmbeddingConfig: raise 'layer_widths must not be empty'",
        "MixtureConfig: check_fields",
        "EpisodeSpec: check_fields",
        "EpisodeSpec: raise f'shots {self.shots} exceeds max_shots {self.max_shots}'",
        "SynthConfig: check_fields",
        "SynthConfig: raise 'unseen_classes must not exceed num_classes'",
        "RunConfig: check_fields", "RunConfig: check_distinct"]


# the schemas whose defaults a run config's field of the same name takes by
# name; `seed` is the root of every substream, not an episode setting
DEFAULT_OWNERS = ("EmbeddingConfig", "MixtureConfig", "EpisodeSpec")


def copied_defaults(source: str, owners=DEFAULT_OWNERS, exempt=("seed",)) -> list[str]:
    """Fields of the `RunConfig` class in `source` whose default is not read
    as `Owner.field` from a class of `owners` that gives the field of that
    name a default, with their line numbers. A default may be written
    through `rule(default, ...)`, and `rule(...)` alone gives none. A `None`
    default, which a run config resolves itself, and the `exempt` names are
    not counted."""
    classes = {node.name: node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)}

    def default(value):
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "rule":
            return value.args[0] if value.args else None
        return value

    def defaults(name):
        return {item.target.id: default(item.value) for item in classes[name].body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and default(item.value) is not None}

    owned = {}
    for owner in owners:
        for field in defaults(owner):
            owned.setdefault(field, set()).add(owner)
    found = []
    for field, value in defaults("RunConfig").items():
        if field in exempt or field not in owned or (
                isinstance(value, ast.Constant) and value.value is None):
            continue
        if not (isinstance(value, ast.Attribute) and value.attr == field
                and isinstance(value.value, ast.Name) and value.value.id in owned[field]):
            found.append(f"{field} (line {value.lineno})")
    return found


def test_scan_finds_a_copied_default():
    source = ("class MixtureConfig:\n    num_classes: int = rule(low=1)\n"
              "    sigma: float = rule(0.5, within='(0, inf)')\n"
              "    margin: float = 0.5\n    modes_per_class: int = 3\n\n\n"
              "class EpisodeSpec:\n    shots: int = rule(low=1)\n    seed: int = 0\n"
              "    max_shots: int = 10\n    ways: int = rule(5, low=1)\n\n\n"
              "class EmbeddingConfig:\n    bn_momentum: float = 0.9\n    bn_epsilon: float = 1e-5\n\n\n"
              "class RunConfig:\n    seed: int = 0\n    shots: int = 1\n"
              "    modes_per_class: int | None = None\n    sigma: float = MixtureConfig.sigma\n"
              "    margin: float = 0.5\n    max_shots: int = MixtureConfig.max_shots\n"
              "    bn_epsilon: float = EmbeddingConfig.bn_momentum\n    lr: float = 0.01\n"
              "    ways: int = rule(5, low=1)\n    num_classes: int = rule(2, low=1)\n")
    assert copied_defaults(source) == ["margin (line 25)", "max_shots (line 26)",
                                       "bn_epsilon (line 27)", "ways (line 29)"]


def test_run_config_defaults_name_their_schema():
    source = (PACKAGE / "config.py").read_text(encoding="utf-8")
    assert copied_defaults(source) == []


def resolved_literals(source: str) -> list[str]:
    """Numbers written as literals inside the `resolved_*` methods of the
    `RunConfig` class in `source`, with their method and line numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name.startswith("resolved_"):
                    found += [f"{value.value} in {method.name} (line {value.lineno})"
                              for value in ast.walk(method) if isinstance(value, ast.Constant)
                              and type(value.value) in (int, float)]
    return found


def test_scan_finds_a_literal_in_a_resolved_value():
    source = ("class RunConfig:\n    def resolved_modes(self):\n"
              "        return 3 if self.task_mode == 'classification' else DETECTION_MODES\n\n"
              "    def resolved_widths(self):\n        return self.layer_widths or (64, 1.5)\n\n"
              "    def resolved_switch(self):\n        return True\n\n"
              "    def episode_spec(self):\n        return EpisodeSpec(shots=1)\n\n\n"
              "class MixtureConfig:\n    def resolved_modes(self):\n        return 5\n")
    assert resolved_literals(source) == [
        "3 in resolved_modes (line 3)", "64 in resolved_widths (line 6)",
        "1.5 in resolved_widths (line 6)"]


def test_resolved_defaults_are_named():
    # a task-mode default is owned by a schema field or a named constant
    # beside DETECTION_WIDTHS, so it is written once
    source = (PACKAGE / "config.py").read_text(encoding="utf-8")
    assert resolved_literals(source) == []


def test_package_root_imports_nothing():
    # every name has one import path, its module's, and importing one
    # module loads only what that module needs
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def module_bindings(source: str) -> set[str]:
    """Names a module binds at its top level by a def, a class or an
    assignment; a name it imports is not among them."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def borrowed_imports(source: str, bindings: dict[str, set[str]]) -> list[str]:
    """Each `from mixrep.<m> import n` of `source` (a relative import read as
    one inside the package) whose `n` module `<m>` does not bind itself,
    `bindings` mapping each module name, "mixrep" for the package, to the
    names it binds (a submodule counts as bound by the package)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = ".".join(filter(None, ["mixrep", node.module])) if node.level else node.module
        if module.split(".")[0] != "mixrep":
            continue
        found += [f"{alias.name} from {module} (line {node.lineno})" for alias in node.names
                  if alias.name not in bindings.get(module, ())]
    return found


def test_scan_finds_a_borrowed_import():
    bindings = {"mixrep": {"config", "head", "__version__"},
                "mixrep.config": {"RunConfig", "EpisodeSpec"},
                "mixrep.head": {"MixtureHead", "BLOCK_ROWS"}}
    assert module_bindings("import numpy as np\nfrom .config import RunConfig\n"
                           "BLOCK_ROWS, (A, B) = 1, (2, 3)\nLIMIT: int = 4\n"
                           "def f():\n    inner = 1\n\nclass MixtureHead:\n    x = 1\n") == {
        "BLOCK_ROWS", "A", "B", "LIMIT", "f", "MixtureHead"}
    source = ("from mixrep import config, __version__, episodes\n"
              "from mixrep.head import MixtureHead, RunConfig\n"
              "from .config import EpisodeSpec\nfrom . import head\nfrom .head import BLOCK_ROWS\n"
              "from mixrep.config import RunConfig\nfrom numpy import array\n"
              "from mixrep.nowhere import thing\n")
    assert borrowed_imports(source, bindings) == [
        "episodes from mixrep (line 1)", "RunConfig from mixrep.head (line 2)",
        "thing from mixrep.nowhere (line 8)"]


def test_every_name_is_imported_from_its_module():
    # a name has one import path: the module that defines or assigns it
    bindings = {f"mixrep.{p.stem}": module_bindings(p.read_text(encoding="utf-8"))
                for p in MODULES}
    bindings["mixrep"] = module_bindings((PACKAGE / "__init__.py").read_text(encoding="utf-8")) \
        | {p.stem for p in MODULES}
    files = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert [f"{p.name}: {found}" for p in files
            for found in borrowed_imports(p.read_text(encoding="utf-8"), bindings)] == []


# library defaults that are run settings: (function, parameter, RunConfig field)
LIBRARY_DEFAULTS = [
    *[(getattr(episodes, name), "lr", "finetune_lr")
      for name in ("finetune_episodes", "episode_finetune", "evaluate_episodes")],
    (episodes.run_episode, "finetune_lr", "finetune_lr"),
    *[(getattr(metrics, name), "iou_threshold", "match_iou")
      for name in ("match_detections", "per_class_ap", "map_over_episodes", "recall_at_k")],
    (training.SGD, "momentum", "momentum"),
    (training.SGD, "weight_decay", "weight_decay"),
    (training.Adam, "weight_decay", "weight_decay"),
    (head.MixtureHead, "task_mode", "task_mode"),
    (head.MixtureHead, "seed", "seed"),
]


@pytest.mark.parametrize("function, parameter, field", LIBRARY_DEFAULTS,
                         ids=lambda x: getattr(x, "__name__", x))
def test_library_default_is_the_run_configs(function, parameter, field):
    default = inspect.signature(function).parameters[parameter].default
    assert default is getattr(RunConfig, field)


def str_arguments(source: str) -> list[str]:
    """Calls in `source` that pass the bare name `str` as an argument,
    positional or keyword, with their line numbers; `isinstance` is not
    counted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or (
                isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
            continue
        if any(isinstance(arg, ast.Name) and arg.id == "str"
               for arg in [*node.args, *(keyword.value for keyword in node.keywords)]):
            found.append(f"line {node.lineno}")
    return found


def test_scan_finds_a_str_argument():
    source = ("ids = np.asarray(values, dtype=str)\nlabels = column.astype(str)\n"
              "col = self._column(context, image_id, str)\nok = isinstance(value, str)\n"
              "name = str(value)\nkind = (str, bytes)\ntext = np.asarray(values, dtype=object)\n")
    assert str_arguments(source) == ["line 1", "line 2", "line 3"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_string_column_is_copied_to_fixed_width(module):
    # `dtype=str` copies each value at 4 bytes a character, padded to the
    # longest, and drops trailing NULs, so "img" and "img\x00" would merge
    assert str_arguments(module.read_text(encoding="utf-8")) == []


# the one writer of each output format (JSON Lines, CSV and sorted JSON), and
# the checkpoint's compact JSON
WRITERS = ("write_json_lines", "write_csv", "write_json", "save_checkpoint")
FORMATTERS = {"json.dumps", "json.dump", "csv.writer"}


def _opens_to_write(call: ast.Call) -> str | None:
    """The name of `call` when it opens a file to write: `open` or a path's
    `open` with a mode that writes, or one that is not a string literal,
    and `write_text` or `write_bytes`."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return func.attr
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return None
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position:position + 1]
    if not modes or (isinstance(modes[0], ast.Constant) and isinstance(modes[0].value, str)
                     and not set(modes[0].value) & set("wax+")):
        return None
    return "open"


def writes_outside(source: str, writers=WRITERS) -> list[str]:
    """Each call in `source` that opens a file to write, and each reference
    to one of FORMATTERS, outside the functions named in `writers`, with
    its line number."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in writers
        elif not inside and isinstance(node, ast.Call) and _opens_to_write(node):
            found.append(f"{_opens_to_write(node)} (line {node.lineno})")
        elif not inside and isinstance(node, ast.Attribute) and ast.unparse(node) in FORMATTERS:
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def test_scan_finds_a_write_outside_the_writers():
    source = ("import csv, json\n"
              "def write_csv(path, rows):\n    with open(path, 'w') as fh:\n"
              "        csv.writer(fh)\n\n\n"
              "def report(path, doc):\n    with open(path, 'a') as fh:\n"
              "        fh.write(json.dumps(doc))\n    path.write_text('x')\n"
              "    path.open(mode='x')\n    open(path, encoding='utf-8')\n    path.open()\n"
              "    dump = json.dump\n    open(path, mode)\n    open(path, 'rb')\n\n\n"
              "def save_checkpoint(head, path):\n    def inner():\n"
              "        json.dump(head, open(path, 'wb'))\n")
    assert writes_outside(source) == [
        "open (line 8)", "json.dumps (line 9)", "write_text (line 10)", "open (line 11)",
        "json.dump (line 14)", "open (line 15)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_only_the_format_writers_write_files(module):
    # a new output goes through the writer of its format, so each format's
    # bytes are decided in one place
    assert writes_outside(module.read_text(encoding="utf-8")) == []


# the words of each input rule; the one literal that holds them is the rule's
# one owner, which every place that checks the rule calls
RULE_PHRASES = ("must be a non-empty string", "must be one of", "box coordinates must be finite",
                "degenerate box", "outside the class map", "must be >=", "must be within",
                "must be an integer", "must be a finite number", "true or false",
                "classes, dataset has")


def literals_holding(source: str, phrase: str) -> list[int]:
    """The line of each string literal in `source` that holds `phrase`, an
    f-string counting as one literal with `{}` for each field; docstrings
    do not count."""
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr):
            skipped.add(id(node.body[0].value))  # a docstring, if it is a string
        elif isinstance(node, ast.JoinedStr):
            skipped.update(map(id, node.values))  # the f-string's parts
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        elif isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
        else:
            continue
        if phrase in text:
            found.append(node.lineno)
    return found


def test_scan_finds_each_literal_holding_a_phrase():
    source = ('"""Split must be one of these."""\n'
              'a = "x must be one of"\n'
              'b = f"{k} must be " f"one of {v}"\n'
              'c = f"{k} must" + " be one of"\n'
              'def f():\n    """must be one of"""\n    return "must be one of"\n')
    assert literals_holding(source, "must be one of") == [2, 3, 7]


@pytest.mark.parametrize("phrase", RULE_PHRASES)
def test_each_input_rule_is_worded_once(phrase):
    # a rule worded in two places can change in one and not the other
    found = [f"{module.name} (line {line})" for module in MODULES
             for line in literals_holding(module.read_text(encoding="utf-8"), phrase)]
    assert len(found) == 1, found


def uncalled_engine_functions(sources: dict[str, str], engine: str = "autodiff") -> list[str]:
    """Top-level functions of the `engine` module in `sources` (module name
    -> text) that no call in them reaches: by bare name inside the engine,
    and elsewhere through a name imported from it or an attribute of the
    module imported as a whole."""
    defined = [node.name for node in ast.parse(sources[engine]).body
               if isinstance(node, ast.FunctionDef)]
    called = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        names, aliases = set(defined) if module == engine else set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == engine:
                names.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name == engine)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                called.add(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                    and func.value.id in aliases:
                called.add(func.attr)
    return [name for name in defined if name not in called]


def test_scan_finds_an_uncalled_engine_function():
    engine = ("import numpy as np\n\n\ndef wrap(x):\n    return x\n\n\n"
              "def sqrt(a):\n    return np.sqrt(wrap(a))\n\n\n"
              "def square(a):\n    return a\n\n\ndef take(a):\n    return a\n\n\n"
              "def concat(a):\n    return a\n")
    user = ("from . import autodiff as ad\nfrom .autodiff import take\n\n"
            "ad.square(take(1))\nconcat = ad.concat\n")
    assert uncalled_engine_functions({"autodiff": engine, "head": user}) == ["sqrt", "concat"]


def test_every_engine_function_is_called_in_the_package():
    # a primitive only tests call belongs beside them, in tests/composed_loss.py
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert uncalled_engine_functions(sources) == []


def primitives_defined(source: str) -> list[str]:
    """Top-level functions of `source` that return a node made by `record`,
    called by bare name or as an attribute of a module."""
    def makes_a_node(function):
        return any(isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
                   and getattr(node.value.func, "id", getattr(node.value.func, "attr", None))
                   == "record" for node in ast.walk(function))

    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and makes_a_node(node)]


def test_scan_finds_each_function_returning_a_record():
    source = ("from . import autodiff as ad\n\n\n"
              "def record(value):\n    return value\n\n\n"
              "def square(a):\n    return ad.record(a * a, 'square', [])\n\n\n"
              "def relu(a):\n    def vjp(g):\n        return g\n\n"
              "    return record(a, 'relu', [(a, vjp)])\n\n\n"
              "def helper(a):\n    return square(a)\n")
    assert primitives_defined(source) == ["square", "relu"]


def test_every_primitive_is_gradient_checked():
    # moving a primitive between the engine and the tests cannot drop its
    # check in acceptance criterion 1
    tests = Path(__file__).resolve().parent
    engine = primitives_defined((PACKAGE / "autodiff.py").read_text(encoding="utf-8"))
    reference = primitives_defined((tests / "composed_loss.py").read_text(encoding="utf-8"))
    checked = {name.removesuffix(" (stacked)") for name, _, _ in _primitive_checks()}
    assert sorted(engine + reference) == sorted(checked)
    # the engine keeps only the primitives the embedding net differentiates
    assert sorted(engine) == ["add", "batch_norm", "l2_normalize", "matmul", "relu"]
