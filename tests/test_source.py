"""Source hygiene: every name a module imports is used in it, every
private function or method is called from somewhere in the package, the
autodiff engine calls none of numpy's slow Python-level helpers, only
`from_json` builds a config object from unpacked JSON, every run-config
key is read by the code it configures, `config` imports no module of the
package but `errors`, no import cycle hides behind `TYPE_CHECKING`, only
`cli.main` loads and logs the run config, no function takes the
posterior rule as a parameter, every config schema is frozen, every
default a run config shares with a schema or a library function is written
once, the run config resolves its task-mode defaults from named owners, and
the package root imports nothing."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

from mixrep import episodes, head, metrics, training
from mixrep.config import RunConfig

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
    source = (PACKAGE / "autodiff.py").read_text(encoding="utf-8")
    assert dotted_references(source, SLOW_NUMPY) == []


# the dataclasses read from JSON files; `config.from_json` checks each value
# against its field's type, so a `**`-unpacked build elsewhere would skip that
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


# the schemas whose defaults a run config's field of the same name takes by
# name; `seed` is the root of every substream, not an episode setting
DEFAULT_OWNERS = ("EmbeddingConfig", "MixtureConfig", "EpisodeSpec")


def copied_defaults(source: str, owners=DEFAULT_OWNERS, exempt=("seed",)) -> list[str]:
    """Fields of the `RunConfig` class in `source` whose default is not read
    as `Owner.field` from a class of `owners` that gives the field of that
    name a default, with their line numbers. A `None` default, which a run
    config resolves itself, and the `exempt` names are not counted."""
    classes = {node.name: node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)}

    def defaults(name):
        return {item.target.id: item.value for item in classes[name].body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and item.value is not None}

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
    source = ("class MixtureConfig:\n    num_classes: int\n    sigma: float = 0.5\n"
              "    margin: float = 0.5\n    modes_per_class: int = 3\n\n\n"
              "class EpisodeSpec:\n    shots: int\n    seed: int = 0\n    max_shots: int = 10\n\n\n"
              "class EmbeddingConfig:\n    bn_momentum: float = 0.9\n    bn_epsilon: float = 1e-5\n\n\n"
              "class RunConfig:\n    seed: int = 0\n    shots: int = 1\n"
              "    modes_per_class: int | None = None\n    sigma: float = MixtureConfig.sigma\n"
              "    margin: float = 0.5\n    max_shots: int = MixtureConfig.max_shots\n"
              "    bn_epsilon: float = EmbeddingConfig.bn_momentum\n    lr: float = 0.01\n")
    assert copied_defaults(source) == ["margin (line 24)", "max_shots (line 25)",
                                       "bn_epsilon (line 26)"]


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
