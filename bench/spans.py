"""Spans and counters recorded around calls into claimforge's public functions.

The program has no hooks of its own, so the benchmark wraps each layer's
public function at the place its caller looks it up (a module global or a
class attribute) and puts the original back afterwards. Spans and counters
are held in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# Op boundaries: patched in every run, traced or not, because the end-to-end
# metrics are measured from them.
OP_TARGETS = {
    "pipeline.document": ["claimforge.pipeline.run:process_document"],
    "optim.step": ["claimforge.training.optimizer:AdamW.step"],
}

# Layer boundaries: patched only in the traced run. The decoder's own
# encode_sequence (claimforge.generator.decode) is left out of
# textcore.encode: each of its calls is a decode step, counted under
# generator.decode_step, and would swamp the encoder calls of stage 1.
LAYER_TARGETS = {
    "textcore.encode": [
        "claimforge.pipeline.run:encode_sequence",
        "claimforge.evaluator.aspects:encode_sequence",
        "claimforge.similarity.train:encode_sequence",
    ],
    "chunker": ["claimforge.pipeline.run:chunk_document"],
    "similarity": ["claimforge.pipeline.run:similarity"],
    "generator.generate": ["claimforge.pipeline.run:generate"],
    "generator.decode_step": ["claimforge.generator.decode:decoder_logits"],
    "evaluator.score_pair": ["claimforge.pipeline.run:score_pair"],
    "pipeline.setup.vocab": ["claimforge.textcore.vocab:Vocabulary.build"],
    "pipeline.setup.models": ["claimforge.pipeline.run:build_models"],
    "numerics.backward": [
        "claimforge.similarity.train:backward",
        "claimforge.generator.train:backward",
        "claimforge.evaluator.train:backward",
    ],
    "optim.clip": [
        "claimforge.similarity.train:clip_grad_norm",
        "claimforge.generator.train:clip_grad_norm",
        "claimforge.evaluator.train:clip_grad_norm",
    ],
}

TRAINERS = ("train_sim", "train_gen", "train_eval")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    ctx: str


class Tracer:
    """In-memory span list, counters and attribute patches for one run."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.unmeasured: dict[str, str] = {}
        self.ctx = ""
        self._open: list[int] = []
        self._distinct: set = set()
        self._undo: list[tuple[object, str, object, bool]] = []
        self._step = 0

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap the op boundaries and, when traced, every layer boundary.

        A target that no longer resolves marks its layer unmeasured; an op
        boundary that no longer resolves is an error, since the end-to-end
        metrics need it.
        """
        for name, targets in OP_TARGETS.items():
            for target in targets:
                error = self._patch(target, name)
                if error:
                    self.close()
                    raise RuntimeError(f"op boundary {name!r} unmeasurable: {error}")
        if self.traced:
            for name, targets in LAYER_TARGETS.items():
                for target in targets:
                    error = self._patch(target, name)
                    if error:
                        self.unmeasured[name] = error

    def close(self) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _patch(self, target: str, name: str) -> str | None:
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError) as exc:
            return f"{target} does not resolve ({exc})"
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name))
        elif callable(original):
            replacement = self._wrap(original, name)
        else:
            return f"{target} is not callable"
        own = attr in vars(owner)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original, own))
        return None

    def _wrap(self, fn, name: str):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._open_span(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close_span(idx)
            self.counters[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open_span(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.ctx))
        self._open.append(idx)
        return idx

    def _close_span(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def region(self, name: str, ctx: str = ""):
        """A span the benchmark opens itself; yields its index."""
        self.ctx = ctx
        self._step = 0
        idx = self._open_span(name)
        try:
            yield idx
        finally:
            self._close_span(idx)
            self.ctx = ""

    def within(self, idx: int, name: str) -> list[Span]:
        """Spans called ``name`` that were opened inside span ``idx``."""
        outer = self.spans[idx]
        out = []
        for span in self.spans[idx + 1:]:
            if span.start > outer.end:
                break
            if span.name == name:
                out.append(span)
        return out

    # -- counters at the same boundaries --------------------------------------

    def _before_pipeline_document(self, args, kwargs) -> None:
        self.ctx = args[0].id

    def _after_pipeline_document(self, args, kwargs, out) -> None:
        _, timings = out
        for stage in ("stage1", "stage2", "stage3"):
            key = f"{stage}_seconds"
            if key in timings:
                self.counters[f"pipeline.{stage}_s"] += timings[key]
            else:
                self.unmeasured[f"pipeline.{stage}_s"] = f"process_document timings lack {key!r}"

    def _after_optim_step(self, args, kwargs, out) -> None:
        self._step += 1
        trainer = self.ctx.split("/", 1)[0]
        self.ctx = f"{trainer}/step{self._step}"

    def _after_textcore_encode(self, args, kwargs, out) -> None:
        ids = tuple(args[0])
        self.counters["textcore.encode.tokens"] += len(ids)
        self._distinct.add((kwargs.get("prefix", "enc"), ids))

    def _after_generator_decode_step(self, args, kwargs, out) -> None:
        self.counters["generator.decode_positions"] += len(args[0])

    def _after_generator_generate(self, args, kwargs, out) -> None:
        self.counters["generator.tokens_out"] += len(out[0])

    # -- derived numbers -----------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def exact_counters(self) -> dict[str, int]:
        """The counters that must repeat exactly for the same seed."""
        c = self.counters
        return {
            "textcore.encode.calls": c["textcore.encode.calls"],
            "textcore.encode.tokens": c["textcore.encode.tokens"],
            "similarity.calls": c["similarity.calls"],
            "generator.decode_steps": c["generator.decode_step.calls"],
            "generator.tokens_out": c["generator.tokens_out"],
            "numerics.backward.calls": c["numerics.backward.calls"],
        }

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out = defaultdict(float)
        for idx, span in enumerate(self.spans):
            out[span.name] += span.end - span.start - child_time[idx]
        return dict(out)

    def total_times(self) -> dict[str, float]:
        out = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.end - span.start
        return dict(out)

    def step_windows(self, region: int) -> list[tuple[float, float]]:
        """(start, end) of each optimizer step inside one trainer span.

        A step runs from the trainer's start, or the end of the previous
        AdamW step, to the end of its own AdamW step.
        """
        windows = []
        start = self.spans[region].start
        for span in self.within(region, "optim.step"):
            windows.append((start, span.end))
            start = span.end
        return windows

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer number the traced run produces, by name.

        A number whose layer could not be wrapped is left out, and named in
        ``self.unmeasured``; it is never reported as zero.
        """
        totals = self.total_times()
        c = self.counters
        m: dict[str, float] = {}

        def put(name: str, value, *layers: str) -> None:
            missing = [layer for layer in (name,) + layers if layer in self.unmeasured]
            if missing:
                self.unmeasured.setdefault(name, f"needs {', '.join(missing)}")
            else:
                m[name] = value

        def median(values: list[float]) -> float:
            return statistics.median(values) if values else 0.0

        calls = c["textcore.encode.calls"]
        put("textcore.encode.calls", calls, "textcore.encode")
        put("textcore.encode.tokens", c["textcore.encode.tokens"], "textcore.encode")
        put("textcore.encode.s", totals.get("textcore.encode", 0.0), "textcore.encode")
        put("textcore.encode.unique_ratio", len(self._distinct) / calls if calls else 0.0,
            "textcore.encode")
        put("similarity.calls", c["similarity.calls"], "similarity")
        put("similarity.s", totals.get("similarity", 0.0), "similarity")
        steps = c["generator.decode_step.calls"]
        put("generator.generate.s", totals.get("generator.generate", 0.0), "generator.generate")
        put("generator.decode_steps", steps, "generator.decode_step")
        put("generator.tokens_out", c["generator.tokens_out"], "generator.generate")
        put("generator.positions_per_token",
            c["generator.decode_positions"] / steps if steps else 0.0, "generator.decode_step")
        put("generator.decode_step_s",
            median([s.end - s.start for s in self.by_name("generator.decode_step")]),
            "generator.decode_step")
        put("chunker.calls", c["chunker.calls"], "chunker")
        put("chunker.s", totals.get("chunker", 0.0), "chunker")
        put("evaluator.score_pair.calls", c["evaluator.score_pair.calls"], "evaluator.score_pair")
        put("evaluator.score_pair.s", totals.get("evaluator.score_pair", 0.0),
            "evaluator.score_pair")
        for stage in ("stage1", "stage2", "stage3"):
            put(f"pipeline.{stage}_s", c[f"pipeline.{stage}_s"])
        put("pipeline.setup.vocab_s", totals.get("pipeline.setup.vocab", 0.0),
            "pipeline.setup.vocab")
        put("pipeline.setup.models_s", totals.get("pipeline.setup.models", 0.0),
            "pipeline.setup.models")
        put("pipeline.write_s", sum(self.write_times()))
        put("numerics.backward.calls", c["numerics.backward.calls"], "numerics.backward")
        put("numerics.backward.s", totals.get("numerics.backward", 0.0), "numerics.backward")
        for trainer in TRAINERS:
            parts = self.step_parts(trainer)
            put(f"{trainer}.forward_s", median([p["forward_s"] for p in parts]),
                "numerics.backward", "optim.clip")
            put(f"{trainer}.backward_s", median([p["backward_s"] for p in parts]),
                "numerics.backward")
            put(f"{trainer}.optim_s", median([p["optim_s"] for p in parts]), "optim.clip")
        return m

    def write_times(self) -> list[float]:
        """Per pipeline pass: report writing, from the last document to return."""
        out = []
        for idx, run in enumerate(self.spans):
            if run.name == "pipeline.run":
                docs = self.within(idx, "pipeline.document")
                if docs:
                    out.append(run.end - docs[-1].end)
        return out

    def step_parts(self, trainer: str) -> list[dict[str, float]]:
        """Per optimizer step of ``trainer``: forward, backward and optimizer time."""
        parts = []
        for idx, region in enumerate(self.spans):
            if region.name != trainer:
                continue
            inner = [s for s in self.spans[idx + 1:] if s.start <= region.end
                     and s.name in ("numerics.backward", "optim.clip", "optim.step")]
            for start, end in self.step_windows(idx):
                backward = optim = 0.0
                for span in inner:
                    if start <= span.start and span.end <= end:
                        if span.name == "numerics.backward":
                            backward += span.end - span.start
                        else:
                            optim += span.end - span.start
                parts.append({"forward_s": end - start - backward - optim,
                              "backward_s": backward, "optim_s": optim})
        return parts

    def write(self, path: Path) -> None:
        """Write every span, relative to the first, plus the counters."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start - origin,
                    "end": span.end - origin, "parent": span.parent, "ctx": span.ctx,
                }) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters),
                                 "unmeasured": self.unmeasured}, sort_keys=True) + "\n")
