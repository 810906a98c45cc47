"""Command-line front end: segment, score, reward, analyze, simulate.

Every command echoes its resolved config into the output directory and
writes deterministic files: rerunning with the same inputs, cache, and
seed reproduces the outputs byte for byte at any worker count.

Exit codes: 0 success, 2 input/config errors, 3 scorer errors,
4 internal invariant violations, 5 theory-bound violations.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from math import isfinite
from pathlib import Path
from typing import get_type_hints

from .config import MAX_WORKERS, RunConfig, load_config
from .distance import (
    batch_distance_matrices,
    curiosity_reward,
    normalized_curve,
    read_matrices,
    score_plan,
    write_matrices,
)
from .errors import ScorerError, TrajRewardError
from .rewards import TrajectoryFeatures, TrajectoryReward, assemble_rewards
from .scoring import FileCacheScorer, HttpScorer, ToyModel
from .simulate import run_preset
from .trajectory import correct_label, load_prompt_batches, read_jsonl, write_json, write_jsonl

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SCORER = 3
EXIT_INTERNAL = 4
EXIT_BOUND = 5


# each setting flag's argparse dest and the config field it sets; a flag's
# value joins the config file's mapping and meets the same rules
FLAG_FIELDS = {
    "input": "input", "out": "out", "seed": "seed", "workers": "workers",
    "scorer": "scorer.source", "variant": "reward.variant",
    "curiosity_mode": "reward.curiosity_mode", "preset": "simulate.preset",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajreward",
        description="Trajectory rewards from likelihood distances, plus policy-flow checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML run config")
    common.add_argument("--input", help="line-delimited JSON trajectory file")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="global seed, >= 0")
    common.add_argument("--workers", type=int, help=f"scoring threads, 1 to {MAX_WORKERS}")
    common.add_argument("--scorer", help="logprob source: toy, file or http")
    common.add_argument("--variant", help="intrinsic reward variant: linear or vector")
    common.add_argument(
        "--curiosity-mode",
        dest="curiosity_mode",
        help="step term sign: eq10 = negated mean logprob (a distance), "
        "alg2 = raw logprob accumulation",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("segment", parents=[common], help="split responses into steps and answers")
    sub.add_parser("score", parents=[common], help="precompute a logprob cache for a batch file")
    sub.add_parser("reward", parents=[common], help="compute per-trajectory rewards")
    p_analyze = sub.add_parser("analyze", parents=[common], help="summarize reward/matrix exports")
    p_analyze.add_argument("--rewards", help="rewards.jsonl from the reward command")
    p_analyze.add_argument("--matrices", help="matrices.jsonl from the reward command")
    p_analyze.add_argument("--bucket-by-length", action="store_true", dest="bucket")
    p_sim = sub.add_parser("simulate", parents=[common], help="run a policy-flow check")
    p_sim.add_argument(
        "--preset", help="collapse, convergence, elbo, growth-bound or robustness-probe"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {name: getattr(args, dest, None) for dest, name in FLAG_FIELDS.items()}
    overrides = {name: value for name, value in flags.items() if value is not None}
    try:
        cfg = load_config(args.config, overrides)
    except (OSError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    handler = {
        "segment": cmd_segment,
        "score": cmd_score,
        "reward": cmd_reward,
        "analyze": cmd_analyze,
        "simulate": cmd_simulate,
    }[args.command]
    try:
        return handler(cfg, args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScorerError as exc:
        print(f"error: scorer: {exc}", file=sys.stderr)
        return EXIT_SCORER
    except (AssertionError, TrajRewardError) as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg.echo(out)
    return out


def _load_batches(cfg: RunConfig):
    if not cfg.input:
        raise ValueError("no input file (set --input or config input)")
    return load_prompt_batches(cfg.input, cfg.segmentation)


def _build_scorer(cfg: RunConfig):
    s = cfg.scorer
    if s.source == "toy":
        return ToyModel.from_config(s.toy)
    if s.source == "file":
        if not s.cache_path:
            raise ValueError("file scorer needs scorer.cache_path")
        return FileCacheScorer.load(s.cache_path)
    if s.cache_path and Path(s.cache_path).exists():
        cache = FileCacheScorer.load(s.cache_path)
    else:
        cache = FileCacheScorer()
    return HttpScorer(
        base_url=s.base_url,
        timeout=s.timeout,
        attempts=s.attempts,
        backoff=s.backoff,
        cache=cache,
    )


def _close_scorer(source) -> None:
    """Give an http scorer's idle sockets back to the service."""
    if isinstance(source, HttpScorer):
        source.close()


def cmd_segment(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    records = [
        {
            "prompt_id": t.prompt_id,
            "traj_id": t.traj_id,
            "T": t.num_steps,
            "steps": [vars(step) for step in t.steps],
            "final_answer": t.final_answer,
            "answer_start": t.answer_start,
            "correct": t.correct,
        }
        for batch in _load_batches(cfg)
        for t in batch.trajectories
    ]
    write_jsonl(out / "segments.jsonl", records)
    print(f"segmented {len(records)} trajectories -> {out / 'segments.jsonl'}")
    return EXIT_OK


def cmd_score(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    source = _build_scorer(cfg)
    cache = FileCacheScorer()
    n = 0
    try:
        for batch in _load_batches(cfg):
            scores = score_plan(batch, source, cfg.workers, cfg.reward.curiosity)
            for req, resp in scores.items():
                cache.record(req, resp)
            n += len(scores)
    finally:
        _close_scorer(source)
    cache.dump(out / "cache.jsonl")
    print(f"cached {n} scores ({len(cache)} unique keys) -> {out / 'cache.jsonl'}")
    return EXIT_OK


def cmd_reward(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    batches = _load_batches(cfg)
    source = _build_scorer(cfg)
    reward_records = []
    summary_rows = []
    matrices_all = []
    failures = []

    cache_path = cfg.scorer.cache_path if isinstance(source, HttpScorer) else None
    # a rerun that records no new reply leaves an existing cache file as it is
    known = len(source.cache) if cache_path and Path(cache_path).exists() else -1

    def keep_replies():
        if cache_path and len(source.cache) > known:
            source.cache.dump(cache_path)

    try:
        for batch in batches:
            try:
                records, row, matrices = _reward_batch(cfg, batch, source)
            except ScorerError as exc:
                failures.append(
                    {
                        "prompt_id": batch.prompt_id,
                        "error": type(exc).__name__,
                        "message": str(exc),
                        "request_index": getattr(exc, "request_index", None),
                    }
                )
                continue
            except BaseException:  # keep the replies received so far, then report what stopped us
                with contextlib.suppress(OSError):
                    keep_replies()
                raise
            reward_records.extend(records)
            summary_rows.append(row)
            matrices_all.extend(matrices)
    finally:
        _close_scorer(source)

    write_jsonl(out / "rewards.jsonl", reward_records)
    write_matrices(matrices_all, out / "matrices.jsonl")
    summary = {
        "prompts": summary_rows,
        "n_prompts": len(summary_rows),
        "n_trajectories": len(reward_records),
        "n_failures": len(failures),
    }
    write_json(out / "summary.json", summary)
    keep_replies()
    if failures:
        write_jsonl(out / "errors.jsonl", failures)
        print(f"{len(failures)} prompt batches failed; see {out / 'errors.jsonl'}", file=sys.stderr)
        return EXIT_SCORER
    print(f"rewarded {len(reward_records)} trajectories -> {out / 'rewards.jsonl'}")
    return EXIT_OK


def _reward_batch(cfg: RunConfig, batch, source) -> tuple[list[dict], dict, list]:
    """One prompt batch's reward records, summary row and distance matrices.

    The batch's scores live only in this call, so a run holds one batch's
    scores at a time.
    """
    scores = score_plan(batch, source, cfg.workers, cfg.reward.curiosity)
    matrices = batch_distance_matrices(batch, scores)
    curiosities = None
    if cfg.reward.curiosity:
        curiosities = {
            t.traj_id: curiosity_reward(t, scores, cfg.reward.curiosity_config())
            for t in batch.trajectories
        }
    report = assemble_rewards(
        batch,
        matrices,
        variant=cfg.reward.variant,
        curiosity_weight=cfg.reward.curiosity_weight,
        curiosities=curiosities,
    )
    records = [
        {**vars(r), "prompt_id": batch.prompt_id, "correct": t.correct}
        for t, r in zip(batch.trajectories, report.rewards)
    ]
    row = {
        "prompt_id": batch.prompt_id,
        "N": report.num_trajectories,
        "K": report.num_groups,
        "group_sizes": [g.size for g in report.groups],
        "skip": report.skip,
    }
    return records, row, [matrices[t.traj_id] for t in batch.trajectories]


# the kind of every field of a rewards.jsonl line; ``correct`` is checked by correct_label
REWARD_KINDS = {**get_type_hints(TrajectoryReward), "prompt_id": str, "correct": None}


def _labelled_features(rec: dict) -> tuple[TrajectoryFeatures, object]:
    """A rewards-export record as (features, correct label)."""
    for name in ("con", "vol"):
        if not 0.0 <= rec[name] <= 1.0:  # fractions by construction; NaN fails too
            raise ValueError(f"{name} {rec[name]!r} is outside [0, 1]")
    for name, value in rec.items():
        if REWARD_KINDS[name] is float and not isfinite(value):  # the writer writes finite floats
            raise ValueError(f"{name} {value!r} is not finite")
    features = TrajectoryFeatures(rec["traj_id"], rec["con"], rec["vol"], rec["r_cur"])
    return features, correct_label(rec)


def cmd_analyze(cfg: RunConfig, args) -> int:
    from . import analysis  # csv and the statistics load only for analyze

    out = _out_dir(cfg)
    rewards_path = getattr(args, "rewards", None)
    matrices_path = getattr(args, "matrices", None)
    if not rewards_path and not matrices_path:
        raise ValueError("analyze needs --rewards and/or --matrices exports")

    if rewards_path:
        fields = {name: REWARD_KINDS[name] for name in ("traj_id", "con", "vol", "r_cur")}
        ids = {"traj_id": True}
        records = list(read_jsonl(rewards_path, fields, _labelled_features, REWARD_KINDS, ids))
        if not records:
            raise ValueError(f"no reward records in {rewards_path}")
        features, labels = zip(*records)
        stats = analysis.feature_statistics(features, labels)
        header = ["label", *(f.name for f in dataclasses.fields(analysis.LabelStats))]
        rows = ([label, *vars(s).values()] for label, s in stats.items())
        analysis.write_csv(out / "feature_stats.csv", header, rows)

    if matrices_path:
        curves = []
        for matrix in read_matrices(matrices_path):
            if matrix.num_answers >= 2:
                curves.append(normalized_curve(matrix))
        rows = analysis.curve_aggregate(curves, bucket_by_length=getattr(args, "bucket", False))
        header = ["label", "bucket", "state_index", "mean_point", "count"]
        analysis.write_csv(out / "curves.csv", header, ([r[k] for k in header] for r in rows))

    if cfg.input:
        records = read_jsonl(cfg.input, {"response_text": str})
        responses = [rec["response_text"].split() for rec in records]
        if responses:
            metrics = vars(analysis.diversity_metrics(responses))
            analysis.write_csv(out / "diversity.csv", list(metrics), [metrics.values()])
    print(f"analysis written to {out}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, args) -> int:
    """Run the configured preset and write assertions.json; exit 5 if a check fails."""
    out = _out_dir(cfg)
    ok, assertions = run_preset(cfg.simulate, cfg.seed, out)
    write_json(out / "assertions.json", assertions)
    for name, value in sorted(assertions.items()):
        print(f"{name}: {value}")
    if not ok:
        print("bound assertion failed", file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
