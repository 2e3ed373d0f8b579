"""Span tracing of the program's layers, installed from outside it.

:class:`Tracer` replaces the public functions and methods listed in
:data:`TRACED` with timing wrappers, in every ``lankgc`` module that
holds a reference to them, and restores the originals on
:meth:`Tracer.uninstall`.  The program itself carries no
instrumentation.

Each call becomes a span: name, thread, start, end, self time and the
span that caused it.  Self time is the span's duration minus the time
covered by the spans it called on the same thread.  A span opened on a
worker thread with nothing open on that thread takes the innermost
open span of the main thread as its parent, so ranking spans run by the
evaluation thread pool hang under their ``link_prediction`` call.
Calls that happen hundreds of thousands of times (neighbor sampling,
negative corruption, tape ops) are only aggregated; every other span is
also kept individually for percentiles and concurrency figures.

Hooks read counts at the same boundaries: neighborhoods truncated or
empty, padded batch slots, tape size per backward pass, negatives that
fell back to a known fact, scored rows and fallback thresholds.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import threading
import time

import numpy as np

FORWARD_OPS = ("take_rows", "repeat_rows", "concat", "matmul", "softmax_masked", "weighted_block_sum")

# (module, attribute, span name, hot); a hot span is aggregated only
TRACED = (
    ("synth", "gen_synthetic", "synth.gen", False),
    ("splits", "build_split", "splits.build_split", False),
    ("context", "BundleContext.__init__", "context.build", False),
    ("context", "BundleContext.known_triplets", "evaluation.known_triplets", False),
    ("rules", "mine_confidence", "rules.mine", False),
    ("rules", "logic_attention_batch", "rules.logic_attention_batch", False),
    ("kg", "sample_neighbors", "kg.sample", True),
    ("encoder", "stack_samples", "encoder.stack_samples", False),
    ("encoder", "encode_batch", "encoder.encode_batch", False),
    ("encoder", "encode_from_sample", "encoder.encode_from_sample", False),
    ("autodiff", "Tape.backward", "autodiff.backward", False),
) + tuple(("autodiff", op, f"autodiff.op.{op}", True) for op in FORWARD_OPS) + (
    ("params", "init_params", "params.init", False),
    ("params", "collect_gradients", "params.collect_gradients", False),
    ("params", "ParamStore.renormalize_transforms", "params.renormalize", False),
    ("training", "train", "training.train", False),
    ("training", "batch_objective", "training.batch_objective", False),
    ("training", "corrupt", "training.corrupt", True),
    ("training", "Adam.step", "training.optimizer", False),
    ("training", "Sgd.step", "training.optimizer", False),
    ("decoder", "score_batch", "decoder.score_batch", False),
    ("evaluation", "link_prediction", "evaluation.link_prediction", False),
    ("evaluation", "encode_entities", "evaluation.encode_candidates", False),
    ("evaluation", "rank_query", "evaluation.rank_query", False),
    ("evaluation", "score_labeled", "evaluation.score_labeled", False),
    ("evaluation", "tune_thresholds", "evaluation.tune_thresholds", False),
    ("evaluation", "classify", "evaluation.classify", False),
)

# every per-layer metric, with its unit, in report order
PER_LAYER = (
    ("synth.gen_s", "s"),
    ("splits.build_split_s", "s"),
    ("context.build_s", "s"),
    ("rules.mine_s", "s"),
    ("kg.sample_calls", "count"),
    ("kg.sample_s", "s"),
    ("kg.truncated_share", "share"),
    ("kg.empty_share", "share"),
    ("encoder.stack_samples_s", "s"),
    ("encoder.encode_batch_s", "s"),
    ("encoder.rows", "count"),
    ("encoder.pad_share", "share"),
    ("encoder.encode_from_sample_s", "s"),
    ("encoder.encode_from_sample_calls", "count"),
    ("autodiff.backward_s", "s"),
    ("autodiff.tape_nodes_per_step", "count/step"),
    ("autodiff.tape_mb_per_step", "MB/step"),
) + tuple(
    item for op in FORWARD_OPS
    for item in ((f"autodiff.op_calls.{op}", "count"), (f"autodiff.op_s.{op}", "s"))
) + (
    ("rules.logic_attention_batch_s", "s"),
    ("params.collect_gradients_s", "s"),
    ("params.renormalize_s", "s"),
    ("training.batches", "count"),
    ("training.batch_objective_s", "s"),
    ("training.corrupt_s", "s"),
    ("training.optimizer_s", "s"),
    ("training.neg_fallbacks", "count"),
    ("decoder.score_batch_s", "s"),
    ("decoder.score_rows", "count"),
    ("evaluation.encode_candidates_s", "s"),
    ("evaluation.candidate_encodings", "count"),
    ("evaluation.cand_cache_mb", "MB"),
    ("evaluation.rank_query_s", "s"),
    ("evaluation.rank_self_s", "s"),
    ("evaluation.rank_query_ms_p50", "ms"),
    ("evaluation.rank_query_ms_p99", "ms"),
    ("evaluation.known_triplets_s", "s"),
    ("evaluation.filtered_share", "share"),
    ("evaluation.workers", "count"),
    ("evaluation.parallel_efficiency", "share"),
    ("evaluation.score_labeled_s", "s"),
    ("evaluation.tune_thresholds_s", "s"),
    ("evaluation.classify_s", "s"),
    ("evaluation.fallback_threshold_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.wall_s", "s"),
    ("failed_share", "share"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_sample(counters, args, kwargs, out):
    k = len(_arg(args, kwargs, 0, "entries"))
    counters["kg.truncated"] += k > _arg(args, kwargs, 1, "budget")
    counters["kg.empty"] += k == 0


def _on_encode_batch(counters, args, kwargs, out):
    mask = np.asarray(_arg(args, kwargs, 4, "mask"), dtype=bool)
    counters["encoder.rows"] += mask.shape[0]
    counters["encoder.slots"] += mask.size
    counters["encoder.padded"] += mask.size - int(mask.sum())


def _on_backward(counters, args, kwargs, out):
    nodes = args[0].nodes
    counters["autodiff.tape_nodes"] += len(nodes)
    counters["autodiff.tape_bytes"] += sum(node.data.nbytes for node in nodes)


def _on_corrupt(counters, args, kwargs, out):
    counters["training.neg_fallbacks"] += tuple(out) in _arg(args, kwargs, 1, "triplet_set")


def _on_score_batch(counters, args, kwargs, out):
    counters["decoder.score_rows"] += _arg(args, kwargs, 1, "subjects").data.shape[0]


def _on_classify(counters, args, kwargs, out):
    rows = _arg(args, kwargs, 0, "test_scores")
    tuned = _arg(args, kwargs, 1, "table").per_relation
    counters["evaluation.tc_rows"] += len(rows)
    counters["evaluation.tc_fallbacks"] += sum(1 for rel, _, _ in rows if int(rel) not in tuned)


HOOKS = {
    "kg.sample": _on_sample,
    "encoder.encode_batch": _on_encode_batch,
    "autodiff.backward": _on_backward,
    "training.corrupt": _on_corrupt,
    "decoder.score_batch": _on_score_batch,
    "evaluation.classify": _on_classify,
}


class _ThreadState:
    __slots__ = ("tid", "stack", "agg", "counters")

    def __init__(self, tid):
        self.tid = tid
        self.stack = []  # open frames: [span id, child seconds]
        self.agg = {}  # span name -> [calls, total seconds, self seconds]
        self.counters = {name: 0 for name in (
            "kg.truncated", "kg.empty", "encoder.rows", "encoder.slots", "encoder.padded",
            "autodiff.tape_nodes", "autodiff.tape_bytes", "training.neg_fallbacks",
            "decoder.score_rows", "evaluation.tc_rows", "evaluation.tc_fallbacks",
        )}


class Tracer:
    """Wraps the layers listed in :data:`TRACED` while installed."""

    def __init__(self):
        self.spans = []  # (id, name, thread, start, end, self seconds, parent id)
        self.lp_calls = []  # (ctx, triplets, dim) of every link_prediction call
        self.missing = []
        self.hook_errors = []
        self._patches = []
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main = None

    # -- installation ------------------------------------------------------

    def install(self):
        import lankgc

        modules = [importlib.import_module(f"lankgc.{info.name}")
                   for info in pkgutil.iter_modules(lankgc.__path__)]
        for mod_name, attr, span, hot in TRACED:
            module = importlib.import_module(f"lankgc.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if owner is not None else None
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._patch(owner, method, original, self._wrap(span, original, hot))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(span, original, hot)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapped)
        return self

    def _patch(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._states.append(st)
                if threading.current_thread() is threading.main_thread():
                    self._main = st
        return st

    def _parent_of(self, stack):
        if stack:
            return stack[-1][0]
        main = self._main
        try:
            return main.stack[-1][0] if main is not None else None
        except IndexError:  # the main thread closed its span meanwhile
            return None

    def _wrap(self, name, fn, hot):
        perf = time.perf_counter
        hook = HOOKS.get(name)
        if name == "evaluation.link_prediction":
            hook = self._on_link_prediction
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = None if hot else tracer._parent_of(stack)
            frame = [0 if hot else next(tracer._ids), 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if not hot:
                    tracer.spans.append((frame[0], name, st.tid, t0, t1, dur - frame[1], parent))
            if hook is not None:
                try:
                    hook(st.counters, args, kwargs, out)
                except Exception as exc:  # a changed signature must not fail the program's call
                    tracer.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return out

        return traced

    def _on_link_prediction(self, counters, args, kwargs, out):
        ctx = _arg(args, kwargs, 0, "ctx")
        triplets = kwargs.get("triplets", args[6] if len(args) > 6 else None)
        if triplets is None:
            triplets = ctx.to_ids(ctx.bundle.test)
        dim = _arg(args, kwargs, 1, "store")["entity_emb"].shape[1]
        self.lp_calls.append((ctx, np.asarray(triplets, dtype=np.int64).reshape(-1, 3), dim))

    # -- reporting ---------------------------------------------------------

    def table(self):
        """Span name -> (calls, total seconds, self seconds), all threads merged."""
        out = {}
        for st in self._states:
            for name, (calls, total, own) in st.agg.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return {name: tuple(v) for name, v in sorted(out.items())}

    def counters(self):
        out = {}
        for st in self._states:
            for name, value in st.counters.items():
                out[name] = out.get(name, 0) + value
        return out

    def per_layer(self, extra):
        """Every :data:`PER_LAYER` metric; ``extra`` supplies the benchmark-side ones."""
        table = self.table()
        cnt = self.counters()

        def calls(span):
            return table.get(span, (0, 0.0, 0.0))[0]

        def secs(span):
            return table.get(span, (0, 0.0, 0.0))[1]

        def share(num, den):
            return num / den if den else 0.0

        backward_calls = calls("autodiff.backward")
        rank = [s for s in self.spans if s[1] == "evaluation.rank_query"]
        rank_ms = np.array([(s[4] - s[3]) * 1e3 for s in rank]) if rank else np.zeros(1)
        workers, efficiency = self._concurrency(rank)
        d = {
            "synth.gen_s": secs("synth.gen"),
            "splits.build_split_s": secs("splits.build_split"),
            "context.build_s": secs("context.build"),
            "rules.mine_s": secs("rules.mine"),
            "kg.sample_calls": calls("kg.sample"),
            "kg.sample_s": secs("kg.sample"),
            "kg.truncated_share": share(cnt["kg.truncated"], calls("kg.sample")),
            "kg.empty_share": share(cnt["kg.empty"], calls("kg.sample")),
            "encoder.stack_samples_s": secs("encoder.stack_samples"),
            "encoder.encode_batch_s": secs("encoder.encode_batch"),
            "encoder.rows": cnt["encoder.rows"],
            "encoder.pad_share": share(cnt["encoder.padded"], cnt["encoder.slots"]),
            "encoder.encode_from_sample_s": secs("encoder.encode_from_sample"),
            "encoder.encode_from_sample_calls": calls("encoder.encode_from_sample"),
            "autodiff.backward_s": secs("autodiff.backward"),
            "autodiff.tape_nodes_per_step": share(cnt["autodiff.tape_nodes"], backward_calls),
            "autodiff.tape_mb_per_step": share(cnt["autodiff.tape_bytes"], backward_calls) / 2**20,
            "rules.logic_attention_batch_s": secs("rules.logic_attention_batch"),
            "params.collect_gradients_s": secs("params.collect_gradients"),
            "params.renormalize_s": secs("params.renormalize"),
            "training.batches": calls("training.batch_objective"),
            "training.batch_objective_s": secs("training.batch_objective"),
            "training.corrupt_s": secs("training.corrupt"),
            "training.optimizer_s": secs("training.optimizer"),
            "training.neg_fallbacks": cnt["training.neg_fallbacks"],
            "decoder.score_batch_s": secs("decoder.score_batch"),
            "decoder.score_rows": cnt["decoder.score_rows"],
            "evaluation.encode_candidates_s": secs("evaluation.encode_candidates"),
            "evaluation.candidate_encodings": calls("evaluation.encode_candidates"),
            "evaluation.cand_cache_mb": self._cand_cache_mb(),
            "evaluation.rank_query_s": secs("evaluation.rank_query"),
            "evaluation.rank_self_s": table.get("evaluation.rank_query", (0, 0.0, 0.0))[2],
            "evaluation.rank_query_ms_p50": float(np.percentile(rank_ms, 50)),
            "evaluation.rank_query_ms_p99": float(np.percentile(rank_ms, 99)),
            "evaluation.known_triplets_s": secs("evaluation.known_triplets"),
            "evaluation.filtered_share": self._filtered_share(),
            "evaluation.workers": workers,
            "evaluation.parallel_efficiency": efficiency,
            "evaluation.score_labeled_s": secs("evaluation.score_labeled"),
            "evaluation.tune_thresholds_s": secs("evaluation.tune_thresholds"),
            "evaluation.classify_s": secs("evaluation.classify"),
            "evaluation.fallback_threshold_share": share(cnt["evaluation.tc_fallbacks"], cnt["evaluation.tc_rows"]),
        }
        for op in FORWARD_OPS:
            d[f"autodiff.op_calls.{op}"] = calls(f"autodiff.op.{op}")
            d[f"autodiff.op_s.{op}"] = secs(f"autodiff.op.{op}")
        d.update(extra)
        return {name: {"value": d[name], "unit": unit} for name, unit in PER_LAYER}

    def _concurrency(self, rank):
        """Most threads seen ranking one call, and busy / (threads x ranking wall)."""
        busy = capacity = 0.0
        workers = 0
        for call in (s for s in self.spans if s[1] == "evaluation.link_prediction"):
            inside = [s for s in rank if call[3] <= s[3] and s[4] <= call[4]]
            if not inside:
                continue
            threads = len({s[2] for s in inside})
            workers = max(workers, threads)
            busy += sum(s[4] - s[3] for s in inside)
            capacity += threads * (max(s[4] for s in inside) - min(s[3] for s in inside))
        return workers, (busy / capacity if capacity else 0.0)

    def _cand_cache_mb(self):
        """Largest candidate cache of one call: query relations x candidates x d x 8 bytes."""
        most = 0.0
        for ctx, triplets, dim in self.lp_calls:
            n_rel = np.unique(triplets[:, 1]).size
            most = max(most, n_rel * len(ctx.seen_ids) * dim * 8 / 2**20)
        return most

    def _filtered_share(self):
        """Candidates removed by the known-fact filter / candidates considered."""
        removed = considered = 0
        answers_of = {}
        for ctx, triplets, _ in self.lp_calls:
            if id(ctx) not in answers_of:
                answers = {}
                for part in (ctx.bundle.train, ctx.bundle.aux, ctx.bundle.valid, ctx.bundle.test):
                    for s, r, o in ctx.to_ids(part).tolist():
                        answers.setdefault((s, r), set()).add(o)
                answers_of[id(ctx)] = (answers, set(ctx.seen_ids.tolist()))
            answers, seen = answers_of[id(ctx)]
            for s, r, o in triplets.tolist():
                removed += sum(1 for c in answers.get((s, r), ()) if c != o and c in seen)
                considered += len(seen)
        return removed / considered if considered else 0.0

    def dump(self, path, extra):
        """Write the span table, counters and kept spans as JSON."""
        doc = {
            "table": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in self.table().items()},
            "counters": self.counters(),
            "missing": self.missing,
            "hook_errors": sorted(set(self.hook_errors)),
            "spans": [
                {"id": i, "name": n, "thread": t, "start": a, "end": b, "self_s": own, "parent": p}
                for i, n, t, a, b, own, p in self.spans
            ],
        }
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
