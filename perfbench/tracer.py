"""Run one mixrep CLI command with a span around every call into the
public functions of each module, and write the spans out when it ends.

    python3 perfbench/tracer.py SPANS_JSON RUN_ID COMMAND [ARGS...]

The program itself is not edited: wrappers replace each traced function
wherever a caller looks it up (a module global bound by ``from x import f``
as well as its home module), and methods are replaced on their class. Spans
are kept in memory as (id, name, start, end, parent id, run id, counts); ids
are unique within a run, which spans several commands. They are written as one JSON document after the command returns. Time the tracer
spends on its own bookkeeping (counting graph nodes) is recorded as a
``trace.*`` span, so it is never charged to a layer's self time.
"""

import json
import sys
import time

# (span name, module, attribute or "Class.method"). The span name is the
# per-layer metric prefix "<layer>.<function>".
TARGETS = [
    ("autodiff.backward", "mixrep.autodiff", "backward"),
    ("head.total_loss", "mixrep.head", "MixtureHead.total_loss"),
    ("head.score", "mixrep.head", "MixtureHead.score"),
    ("head.embed_batch", "mixrep.head", "EmbeddingNet.embed_batch"),
    ("head.load_checkpoint", "mixrep.head", "load_checkpoint"),
    ("head.save_checkpoint", "mixrep.head", "save_checkpoint"),
    ("training.fit", "mixrep.training", "fit"),
    ("training.train_step", "mixrep.training", "train_step"),
    ("training.sample_batch", "mixrep.training", "sample_batch"),
    ("training.optimizer_step", "mixrep.training", "SGD.step"),
    ("training.optimizer_step", "mixrep.training", "Adam.step"),
    ("data.load_dataset", "mixrep.data", "load_dataset"),
    ("data.synth_dataset", "mixrep.data", "synth_dataset"),
    ("data.save_dataset", "mixrep.data", "save_dataset"),
    ("episodes.run_episode", "mixrep.episodes", "run_episode"),
    ("episodes.episode_finetune", "mixrep.episodes", "episode_finetune"),
    ("episodes.score_queries", "mixrep.episodes", "score_queries"),
    ("episodes.support_embeddings", "mixrep.episodes", "support_embeddings"),
    ("episodes.replace_representatives", "mixrep.episodes", "replace_representatives"),
    ("episodes.generate_episodes", "mixrep.episodes", "generate_episodes"),
    ("episodes.load_episodes", "mixrep.episodes", "load_episodes"),
    ("metrics.map_over_episodes", "mixrep.metrics", "map_over_episodes"),
    ("metrics.recall_at_k", "mixrep.metrics", "recall_at_k"),
    ("metrics.match_detections", "mixrep.metrics", "match_detections"),
    ("metrics.classification_error", "mixrep.metrics", "classification_error"),
]


def _graph_nodes(root) -> int:
    """Nodes reachable from a loss root through its inputs."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent, _ in stack.pop()._vjps:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _counts(name, args, result) -> dict:
    """Work counted at the span's boundary, from its arguments or result."""
    if name == "head.total_loss":
        return {"rows": len(args[2])}
    if name == "head.embed_batch":
        return {"rows": len(args[1])}
    if name == "data.load_dataset":
        return {"records": len(result.records)}
    if name == "episodes.score_queries":
        return {"queries": len(args[1])}
    if name == "episodes.episode_finetune":
        return {"steps": max(len(result.losses) - 1, 0), "kept": result.kept_step}
    if name == "metrics.map_over_episodes":
        return {"detections": len(args[0])}
    return {}


class Tracer:
    def __init__(self, run_id: str, process: str):
        self.run_id = run_id
        self.process = process
        self.spans: list[dict] = []
        self._stack: list[str] = []

    def open(self, name: str) -> dict:
        span = {"id": f"{self.process}:{len(self.spans)}", "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            counts = _counts(name, args, result)
            if counts:
                span["counts"] = counts
            if name == "head.total_loss":
                book = tracer.open("trace.graph_nodes")
                span["counts"]["nodes"] = _graph_nodes(result[0])
                tracer.close(book)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function wherever mixrep code looks it up."""
        import importlib

        modules = [importlib.import_module(m) for m in
                   ("mixrep", "mixrep.autodiff", "mixrep.head", "mixrep.training",
                    "mixrep.data", "mixrep.episodes", "mixrep.metrics",
                    "mixrep.config", "mixrep.cli")]
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main(argv) -> int:
    spans_path, run_id, command = argv[0], argv[1], argv[2]
    from mixrep import cli

    tracer = Tracer(run_id, command)
    tracer.install()
    root = tracer.open(f"cli.{command}")
    try:
        code = cli.main(argv[2:])
    finally:
        tracer.close(root)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"run": run_id, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
