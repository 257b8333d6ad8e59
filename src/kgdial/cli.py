"""Command-line entry point.

Subcommands: synth (generate a corpus), train detect / train select, eval,
rank, and pipeline. Every run is fully determined by its arguments and input
files; reports carry no timestamp unless --stamp opts in.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .corpus import (
    Corpus,
    CorpusError,
    SynthParams,
    candidate_set,
    load_corpus,
    load_knowledge,
    synth_corpus,
    write_corpus,
)
from .detection import DetectorHyper, _detect_batch, load_detector, save_detector, train_detector
from .embedding import FileVectors, HashedGaussianVectors
from .evaluation import (
    ReportEntry,
    _rank_instances,
    detection_metrics,
    evaluate_detector,
    evaluate_selector,
    evaluate_tfidf,
    report,
)
from .pipeline import result_to_payload, run_pipeline
from .selector import (
    SelectorHyper,
    _fit,
    default_kernel_bank,
    load_selector,
    rank,
    save_selector,
    selection_instances,
)


def _entity(text: str) -> tuple[str, str]:
    domain, sep, entity_id = text.partition("/")
    if not sep or not domain or not entity_id:
        raise argparse.ArgumentTypeError(f"expected DOMAIN/ENTITY_ID, got {text!r}")
    return domain, entity_id


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_corpus_flags(parser, labels_required: bool) -> None:
    parser.add_argument("--knowledge", required=True, help="knowledge JSON file")
    parser.add_argument("--logs", required=True, help="dialog logs JSON file")
    parser.add_argument("--labels", required=labels_required, help="labels JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgdial", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int, default=42)
    synth.add_argument("--dialogs", dest="n_dialogs", type=int, default=SynthParams.n_dialogs)
    synth.add_argument("--candidates", dest="n_candidates", type=int, default=SynthParams.n_candidates)
    synth.add_argument("--vocab-size", type=int, default=SynthParams.vocab_size)
    synth.add_argument("--marker-rate", dest="detect_marker_rate", type=float,
                       default=SynthParams.detect_marker_rate)

    train = commands.add_parser("train", help="train a detector or selector")
    train_kind = train.add_subparsers(dest="kind", required=True)

    detect_p = train_kind.add_parser("detect", help="train the turn detector")
    _add_corpus_flags(detect_p, labels_required=True)
    detect_p.add_argument("--model", required=True, help="output model JSON file")
    detect_p.add_argument("--lr", type=float, default=DetectorHyper.lr)
    detect_p.add_argument("--epochs", type=int, default=DetectorHyper.epochs)
    detect_p.add_argument("--hash-dim", type=int, default=DetectorHyper.hash_dim)
    detect_p.add_argument("--turn-buckets", type=int, default=DetectorHyper.turn_buckets)
    detect_p.add_argument("--threshold", type=float, default=DetectorHyper.threshold)
    detect_p.add_argument("--line-search", action="store_true")

    select_p = train_kind.add_parser("select", help="train the knowledge selector")
    _add_corpus_flags(select_p, labels_required=True)
    select_p.add_argument("--model", required=True, help="output model JSON file")
    select_p.add_argument("--lr", type=float, default=SelectorHyper.lr)
    select_p.add_argument("--epochs", type=int, default=SelectorHyper.epochs)
    select_p.add_argument("--kernels", dest="n_kernels", type=int, default=SelectorHyper.n_kernels)
    select_p.add_argument("--attention", dest="attention_flag", action="store_true")
    select_p.add_argument("--line-search", action="store_true")
    select_p.add_argument("--embed-seed", type=int, help="hashed embedding seed (default 7)")
    select_p.add_argument("--embed-dim", type=int, help="hashed embedding dimension (default 32)")
    select_p.add_argument("--vectors", help="token vector file, in place of hashed embeddings")

    eval_p = commands.add_parser("eval", help="evaluate models and report metrics")
    _add_corpus_flags(eval_p, labels_required=True)
    eval_p.add_argument("--model", help="selector model JSON file")
    eval_p.add_argument("--detector", help="detector model JSON file")
    eval_p.add_argument("--tfidf", action="store_true", help="add the TF-IDF baseline row")
    eval_p.add_argument("--format", choices=["json", "md"], default="json")
    eval_p.add_argument(
        "--stamp", nargs="?", const="", metavar="TEXT",
        help="stamp the report (current UTC time when TEXT is omitted)",
    )

    rank_p = commands.add_parser("rank", help="rank one entity's snippets for a question")
    rank_p.add_argument("--knowledge", required=True, help="knowledge JSON file")
    rank_p.add_argument("--model", required=True, help="selector model JSON file")
    rank_p.add_argument("--question", required=True)
    rank_p.add_argument("--entity", required=True, type=_entity, metavar="DOMAIN/ENTITY_ID")
    rank_p.add_argument("--top", type=_positive_int, help="print only the best N candidates")

    pipeline_p = commands.add_parser("pipeline", help="run detect-select-format on one dialog")
    _add_corpus_flags(pipeline_p, labels_required=False)
    pipeline_p.add_argument("--detector", required=True, help="detector model JSON file")
    pipeline_p.add_argument("--model", required=True, help="selector model JSON file")
    pipeline_p.add_argument("--dialog", required=True, help="dialog id, e.g. d0003")
    pipeline_p.add_argument("--entity", required=True, type=_entity, metavar="DOMAIN/ENTITY_ID")
    return parser


def _from_args(cls, args):
    """An instance of the dataclass ``cls`` with each field read from the flag of the same dest."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def cmd_synth(args) -> int:
    corpus = synth_corpus(args.seed, _from_args(SynthParams, args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "knowledge.json", out / "logs.json", out / "labels.json"]
    write_corpus(corpus, *paths)
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_train_detect(args) -> int:
    hyper = _from_args(DetectorHyper, args)
    corpus = load_corpus(args.knowledge, args.logs, args.labels)
    model, losses = train_detector(corpus, hyper)
    for epoch, loss in enumerate(losses):
        print(f"epoch {epoch} loss {loss:.6f}")
    probabilities = _detect_batch(model, corpus.dialogs)
    metrics = detection_metrics((probabilities >= model.threshold).tolist(), [d.target for d in corpus.dialogs])
    mean_probability = sum(probabilities.tolist()) / len(probabilities)
    print(f"mean probability {mean_probability:.4f}")
    print(
        f"final F1 {metrics.f1:.4f} Precision {metrics.precision:.4f} Recall {metrics.recall:.4f}"
    )
    save_detector(model, args.model)
    print(f"wrote {args.model}")
    return 0


def cmd_train_select(args) -> int:
    hyper = _from_args(SelectorHyper, args)
    bank = default_kernel_bank(hyper.n_kernels)
    if args.vectors:
        if args.embed_seed is not None or args.embed_dim is not None:
            raise ValueError("--embed-seed and --embed-dim apply to hashed embeddings, not to --vectors")
        provider = FileVectors(args.vectors)
    else:
        provider = HashedGaussianVectors(
            7 if args.embed_seed is None else args.embed_seed, 32 if args.embed_dim is None else args.embed_dim
        )
    corpus = load_corpus(args.knowledge, args.logs, args.labels)
    instances = selection_instances(corpus, provider, bank)
    model, losses = _fit(instances, bank, hyper)
    for epoch, loss in enumerate(losses):
        print(f"epoch {epoch} loss {loss:.6f}")
    metrics = _rank_instances(model, instances)
    print(
        f"final Acc@1 {metrics.acc_at_1:.4f} Acc@5 {metrics.acc_at_5:.4f} "
        f"MRR@5 {metrics.mrr_at_5:.4f}"
    )
    save_selector(model, provider, args.model)
    print(f"wrote {args.model}")
    return 0


def cmd_eval(args) -> int:
    if not args.model and not args.detector and not args.tfidf:
        raise ValueError("nothing to evaluate: pass --model, --detector, or --tfidf")
    corpus = load_corpus(args.knowledge, args.logs, args.labels)
    entries = []
    detection = selection = None
    if args.detector:
        detection = evaluate_detector(load_detector(args.detector), corpus)
    if args.model:
        model, provider = load_selector(args.model)
        selection = evaluate_selector(model, provider, corpus)
    if detection is not None or selection is not None:
        entries.append(ReportEntry("gks", detection, selection))
    if args.tfidf:
        entries.append(ReportEntry("tfidf", selection=evaluate_tfidf(corpus)))
    stamp = args.stamp
    if stamp == "":
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    print(report(entries, fmt=args.format, stamp=stamp), end="")
    return 0


def cmd_rank(args) -> int:
    model, provider = load_selector(args.model)
    snippets, names = load_knowledge(args.knowledge)
    candidates = candidate_set(Corpus(snippets, [], names), args.entity)
    ranked = rank(model, provider, args.question, candidates)
    if args.top is not None:
        ranked = ranked[: args.top]
    by_ref = {c.ref: c for c in candidates}
    for place, (ref, probability) in enumerate(ranked, start=1):
        print(f"{place}. {ref.domain}/{ref.entity_id}/{ref.doc_id} {probability:.4f} "
              f"{by_ref[ref].title}")
    return 0


def cmd_pipeline(args) -> int:
    corpus = load_corpus(args.knowledge, args.logs, args.labels)
    detector = load_detector(args.detector)
    selector_model, provider = load_selector(args.model)
    by_id = {dialog.id: dialog for dialog in corpus.dialogs}
    if args.dialog not in by_id:
        raise CorpusError(f"unknown dialog id {args.dialog!r}")
    result = run_pipeline(detector, selector_model, provider, corpus, by_id[args.dialog], args.entity)
    print(json.dumps(result_to_payload(result), indent=2))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "train": lambda a: cmd_train_detect(a) if a.kind == "detect" else cmd_train_select(a),
        "eval": cmd_eval,
        "rank": cmd_rank,
        "pipeline": cmd_pipeline,
    }
    try:
        return handlers[args.command](args)
    except (CorpusError, ValueError, IndexError, OSError, Warning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
