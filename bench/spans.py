"""Spans around corgi's public entry points, recorded from outside the program.

``install`` replaces each traced function with a wrapper under the name its
caller looks up (``corgi.cli.run_filters``, ``Bm25Retriever.retrieve``, ...),
so nothing under ``src/`` changes.  A span records name, start, end (the
system-wide monotonic clock), parent, and a few counts taken from the call.
Spans opened in worker threads, which have no open span of their own, attach
to the enclosing stage span.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage_span: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, counts=None, stage: bool = False):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``counts(args, kwargs, result)`` returns a dict merged into the span;
        ``stage=True`` marks the span that worker-thread spans attach to and
        also records process CPU time, which covers every thread.
        """
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._stage_span
            span_id = next(tracer._ids)
            span = {"id": span_id, "name": name, "parent": parent}
            if stage:
                tracer._stage_span = span_id
                span["cpu0"] = time.process_time()
            stack.append(span_id)
            span["t0"] = time.monotonic()
            error = None
            result = None
            try:
                result = inner(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                span["t1"] = time.monotonic()
                stack.pop()
                if stage:
                    span["cpu1"] = time.process_time()
                    tracer._stage_span = None
                if error is not None:
                    span["error"] = error
                elif counts is not None:
                    span.update(counts(args, kwargs, result))
                tracer.spans.append(span)

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; call before ``corgi.cli.main``."""
    import corgi.cli as cli
    import corgi.prompts as prompts
    import corgi.scheduler as scheduler
    import corgi.teacher as teacher
    from corgi.filtering import Bm25Retriever
    from corgi.teacher import (
        HttpTeacherBackend,
        ReferenceEmbeddingBackend,
        SimulatedTeacherBackend,
        TeacherClient,
    )

    from stub import prompt_kind, short_digest

    def stage_name(args, kwargs, result):
        return {"stage": args[0].name}

    def prompt_of(args, kwargs, result):
        prompt = args[1].prompt
        return {"kind": prompt_kind(prompt), "digest": short_digest(prompt)}

    def records(args, kwargs, result):
        items = getattr(result, "items", result)
        return {"records": len(items)}

    def saved(args, kwargs, result):
        items = getattr(args[0], "items", args[0])
        return {"records": len(items), "bytes": _size(args[1])}

    def strategy(args, kwargs, result):
        return {"strategy": args[1].strategy}

    def generated(args, kwargs, result):
        instances, failures = result
        return {"instances": len(instances), "failures": len(failures)}

    def filtered(args, kwargs, result):
        return {"stats": result[1].to_dict()}

    def windows(args, kwargs, result):
        return {"windows": len(args[0].windows)}

    def digest_bytes(args, kwargs, result):
        return {"bytes": _size(args[0])}

    def status(args, kwargs, result):
        return {"status": result[0]}

    t = tracer
    t.wrap(cli, "run_stage", "cli.stage", stage_name, stage=True)
    t.wrap(cli, "first_pending_stage", "cli.first_pending_stage")
    t.wrap(cli, "_file_digest", "cli.file_digest", digest_bytes)
    t.wrap(cli, "parse_catalog", "catalog.parse_catalog")
    t.wrap(cli, "refine_description", "concepts.refine_description")
    t.wrap(cli, "extract_concepts", "concepts.extract_concepts")
    t.wrap(cli, "dedup_concepts", "concepts.dedup_concepts")
    t.wrap(cli, "generate_for_concepts", "instructions.generate_for_concepts", generated)
    t.wrap(cli, "run_filters", "filtering.run_filters", filtered)
    t.wrap(cli, "order_dataset", "scheduler.order", strategy)
    t.wrap(cli, "export_training_order", "scheduler.export_training_order")
    t.wrap(cli, "analyze_batches", "batching.analyze")
    for loader in ("load_courses", "load_concepts", "load_dataset"):
        t.wrap(cli, loader, f"dataset_io.{loader}", records)
    for saver in ("save_courses", "save_concepts", "save_dataset"):
        t.wrap(cli, saver, f"dataset_io.{saver}", saved)
    t.wrap(scheduler, "validate", "model.validate")
    t.wrap(scheduler, "dataset_digest", "scheduler.dataset_digest")
    t.wrap(prompts, "load_template", "prompts.load_template")
    t.wrap(prompts.PromptFill, "render", "prompts.render")
    t.wrap(Bm25Retriever, "__init__", "filtering.bm25_build", windows)
    t.wrap(Bm25Retriever, "retrieve", "filtering.retrieve")
    t.wrap(TeacherClient, "complete", "teacher.complete", prompt_of)
    t.wrap(TeacherClient, "judge_relevance", "filtering.judge_relevance")
    t.wrap(SimulatedTeacherBackend, "complete", "teacher.simulated_complete")
    t.wrap(HttpTeacherBackend, "complete", "teacher.http_complete", prompt_of)
    # Every POST attempt, retries included: the HTTP backend looks this name
    # up when it is constructed, which is after install.
    t.wrap(teacher, "_default_post", "teacher.post", status)
    t.wrap(ReferenceEmbeddingBackend, "embed", "teacher.embed")
