"""Spans around refgame's public functions, installed from outside the package.

``Tracer.install()`` replaces every function named in ``WRAPS`` wherever a
loaded ``refgame`` module binds it: its defining module and every module that
imported it by name (``refgame.engine.vocabulary_report``,
``refgame.chains.topsim_mantel``, ...). Methods are replaced on their class.
``uninstall()`` restores the originals. A name that no longer exists is
listed in ``missing`` and skipped, so a refactor cannot crash the run.

Spans are kept in memory with the index of their parent span. A span's self
time is its duration minus the durations of its direct children.
``metrics.levenshtein`` is too hot for spans: its wrapper only counts calls
and the distinct argument pairs it saw.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _mantel_size(args, kwargs):
    semantic = args[0] if args else kwargs.get("semantic")
    return f"n{semantic.shape[0]}"


def _report_inspect(tracer, report):
    if getattr(report, "degenerate", False):
        tracer.counts["metrics.degenerate"] += 1


def _donor_inspect(tracer, selection):
    if getattr(selection, "degenerate", False):
        tracer.counts["chains.donor_degenerate"] += 1
    distinct = len({signal for _, signal in selection.pairs})
    tracer.distinct_signals.append(distinct)


# (span key, defining module, attribute path, tag function, result hook).
# "*.name" wraps ``name`` on every class of the module that defines it.
WRAPS = (
    ("metrics.mantel_test", "refgame.metrics", "mantel_test", _mantel_size, None),
    ("metrics.signal_distance_matrix", "refgame.metrics", "signal_distance_matrix", None, None),
    ("metrics.vocabulary_report", "refgame.metrics", "vocabulary_report", None, _report_inspect),
    ("metrics.generalization_score", "refgame.metrics", "generalization_score", None, None),
    ("engine.run_simulation", "refgame.engine", "run_simulation", None, None),
    ("engine.guessing", "refgame.engine", "run_guessing_block", None, None),
    ("engine.labelling", "refgame.engine", "run_labelling_block", None, None),
    ("engine.communication", "refgame.engine", "run_communication_block", None, None),
    ("engine.testing", "refgame.engine", "run_testing_block", None, None),
    ("engine.compute_metric_rows", "refgame.engine", "compute_metric_rows", None, None),
    ("agents.produce_signal", "refgame.agents", "*.produce_signal", None, None),
    ("agents.choose", "refgame.agents", "*.choose", None, None),
    ("prompts.build", "refgame.prompts", "build_labelling_prompt", None, None),
    ("prompts.build", "refgame.prompts", "build_guessing_prompt", None, None),
    ("prompts.build", "refgame.prompts", "build_speaker_prompt", None, None),
    ("prompts.build", "refgame.prompts", "build_listener_prompt", None, None),
    ("backend.call", "refgame.backend", "HttpBackend.complete", None, None),
    ("backend.call", "refgame.backend", "HttpBackend.score", None, None),
    ("backend.event_log.append", "refgame.backend", "EventLog.append", None, None),
    ("persistence.save_simulation", "refgame.persistence", "save_simulation", None, None),
    ("persistence.load_run_for_replay", "refgame.persistence", "load_run_for_replay", None, None),
    ("persistence.verify_digests", "refgame.persistence", "RunManifest.verify_digests", None, None),
    ("chains.select_donor", "refgame.chains", "select_donor", None, _donor_inspect),
    ("chains.derive_training_language", "refgame.chains", "derive_training_language", None, None),
    ("domain.vocabulary_io", "refgame.domain", "Vocabulary.save", None, None),
    ("domain.vocabulary_io", "refgame.domain", "Vocabulary.load", None, None),
)
COUNTED = ("metrics.levenshtein", "refgame.metrics", "levenshtein")


class Tracer:
    def __init__(self):
        # span: [key, parent index, start, duration, self time, tag]
        self.spans: list[list] = []
        self._child_time: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct_signals: list[int] = []
        self.levenshtein_calls = 0
        self.levenshtein_pairs: set = set()
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def open(self, key: str, tag=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([key, parent, time.perf_counter(), 0.0, 0.0, tag])
        self._child_time.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        duration = time.perf_counter() - span[2]
        span[3] = duration
        span[4] = duration - self._child_time[index]
        self._stack.pop()
        if span[1] >= 0:
            self._child_time[span[1]] += duration

    def _wrap(self, key, fn, tag, inspect):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(key, tag(args, kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[key + ".errors"] += 1
                raise
            finally:
                tracer.close(index)
            if inspect is not None:
                inspect(tracer, result)
            return result

        return wrapper

    def _count_levenshtein(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            tracer.levenshtein_calls += 1
            tracer.levenshtein_pairs.add((a, b))
            return fn(a, b)

        return wrapper

    def take_levenshtein(self) -> tuple[int, int]:
        """(calls, distinct pairs) since the previous call."""
        result = (self.levenshtein_calls, len(self.levenshtein_pairs))
        self.levenshtein_calls = 0
        self.levenshtein_pairs = set()
        return result

    def take_counts(self) -> tuple[dict[str, int], list[int]]:
        """(counts, distinct donor signals) since the previous call."""
        result = (dict(self.counts), self.distinct_signals)
        self.counts = defaultdict(int)
        self.distinct_signals = []
        return result

    # -- installation --------------------------------------------------------
    def _replace_function(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "refgame" and not name.startswith("refgame."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _replace_method(self, cls, name, make) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(cls, name, replacement)
        self._restore.append((cls, name, raw))

    def install(self) -> None:
        self.missing = []
        for key, module_name, path, tag, inspect in WRAPS:
            make = functools.partial(self._wrap, key, tag=tag, inspect=inspect)
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            if module is None:
                self.missing.append(f"{module_name}:{path}")
            elif owner_name == "*":
                classes = [
                    value for value in vars(module).values()
                    if isinstance(value, type) and value.__module__ == module_name
                    and attr in value.__dict__
                ]
                for cls in classes:
                    self._replace_method(cls, attr, make)
                if not classes:
                    self.missing.append(f"{module_name}:{path}")
            elif owner_name:
                cls = getattr(module, owner_name, None)
                if isinstance(cls, type) and attr in cls.__dict__:
                    self._replace_method(cls, attr, make)
                else:
                    self.missing.append(f"{module_name}:{path}")
            elif callable(getattr(module, attr, None)):
                original = getattr(module, attr)
                self._replace_function(original, make(original))
            else:
                self.missing.append(f"{module_name}:{path}")
        key, module_name, attr = COUNTED
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if callable(original):
            self._replace_function(original, self._count_levenshtein(original))
        else:
            self.missing.append(f"{module_name}:{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results -------------------------------------------------------------
    def summary(self, root: str | None = None) -> dict[str, dict]:
        """Per span key: calls (spans whose parent is not a span of the same
        key), their summed and single durations (busy), and the summed self
        time of all its spans. With ``root``, only ``root`` spans and the
        spans inside them count. Unknown keys read as zero."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "by_tag": defaultdict(list)}
        )
        inside: list[bool] = []
        for key, parent, _, duration, self_time, tag in self.spans:
            inside.append(root is None or key == root or (parent >= 0 and inside[parent]))
            if not inside[-1]:
                continue
            entry = out[key]
            entry["self_s"] += self_time
            if parent < 0 or self.spans[parent][0] != key:
                entry["calls"] += 1
                entry["busy_s"] += duration
                entry["durations"].append(duration)
                if tag is not None:
                    entry["by_tag"][tag].append(duration)
        return out

    def write(self, path: Path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        with Path(path).open("w") as fh:
            for index, (key, parent, start, duration, self_time, tag) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "parent": parent, "name": key, "start_s": start - origin,
                    "dur_s": duration, "self_s": self_time, "tag": tag,
                }) + "\n")
