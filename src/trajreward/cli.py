"""Command-line front end: segment, score, reward, analyze, simulate.

Every command echoes its resolved config into the output directory and
writes deterministic files: rerunning with the same inputs, cache, and
seed reproduces the outputs byte for byte at any worker count.

Exit codes: 0 success, 2 input/config errors, 3 scorer errors,
4 internal invariant violations, 5 theory-bound violations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis
from .config import RunConfig, apply_overrides, load_config
from .distance import (
    batch_distance_matrices,
    normalized_curve,
    read_matrices,
    score_plan,
    write_matrices,
)
from .errors import (
    CacheMiss,
    EmptyAnswer,
    EmptyResponse,
    MalformedResponse,
    NoAnswerFound,
    ServiceUnavailable,
    TrajRewardError,
)
from .rewards import TrajectoryFeatures, assemble_rewards, curiosity_reward
from .scoring import FileCacheScorer, HttpScorer, ToyModel
from .simulate import FlowConfig, run_preset
from .trajectory import load_prompt_batches, read_trajectory_records

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SCORER = 3
EXIT_INTERNAL = 4
EXIT_BOUND = 5

SCORER_ERRORS = (CacheMiss, ServiceUnavailable, MalformedResponse)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajreward",
        description="Trajectory rewards from likelihood distances, plus policy-flow checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML run config")
    common.add_argument("--input", help="line-delimited JSON trajectory file")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="global seed")
    common.add_argument("--workers", type=int, help="scoring parallelism")
    common.add_argument("--scorer", choices=["file", "http", "toy"], help="logprob source")
    common.add_argument("--variant", choices=["linear", "vector"], help="intrinsic reward variant")
    common.add_argument(
        "--curiosity-mode",
        choices=["eq10", "alg2"],
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
        "--preset",
        choices=["collapse", "convergence", "elbo", "growth-bound", "robustness-probe"],
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args)
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
    except (OSError, ValueError, json.JSONDecodeError, EmptyAnswer) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SCORER_ERRORS as exc:
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
    try:
        return load_prompt_batches(cfg.input, cfg.segmentation)
    except (EmptyResponse, NoAnswerFound) as exc:
        raise ValueError(f"bad trajectory record: {exc}") from exc


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


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_segment(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    records = []
    for batch in _load_batches(cfg):
        for traj in batch.trajectories:
            records.append(
                {
                    "prompt_id": traj.prompt_id,
                    "traj_id": traj.traj_id,
                    "T": traj.num_steps,
                    "steps": [
                        {"text": s.text, "start": s.start, "end": s.end} for s in traj.steps
                    ],
                    "final_answer": traj.final_answer,
                    "answer_start": traj.answer_start,
                    "correct": traj.correct,
                }
            )
    _write_jsonl(out / "segments.jsonl", records)
    print(f"segmented {len(records)} trajectories -> {out / 'segments.jsonl'}")
    return EXIT_OK


def cmd_score(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    source = _build_scorer(cfg)
    cache = FileCacheScorer()
    n = 0
    for batch in _load_batches(cfg):
        scores = score_plan(batch, source, cfg.workers, cfg.reward.curiosity)
        for req, resp in scores.items():
            cache.record(req, resp)
        n += len(scores)
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
    for batch in batches:
        try:
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
        except SCORER_ERRORS as exc:
            failures.append(
                {"prompt_id": batch.prompt_id, "error": type(exc).__name__, "message": str(exc)}
            )
            continue
        labels = {t.traj_id: t.correct for t in batch.trajectories}
        for r in report.rewards:
            reward_records.append(
                {
                    "traj_id": r.traj_id,
                    "prompt_id": batch.prompt_id,
                    "group": r.group_index,
                    "con": r.con,
                    "vol": r.vol,
                    "r_int_linear": r.r_int_linear,
                    "r_int_vector": r.r_int_vector,
                    "r_cur": r.r_cur,
                    "r_total": r.r_total,
                    "advantage": r.advantage,
                    "skip": r.skip,
                    "correct": labels[r.traj_id],
                }
            )
        summary_rows.append(
            {
                "prompt_id": batch.prompt_id,
                "N": report.num_trajectories,
                "K": report.num_groups,
                "group_sizes": [g.size for g in report.groups],
                "skip": report.skip,
            }
        )
        matrices_all.extend(matrices[t.traj_id] for t in batch.trajectories)

    _write_jsonl(out / "rewards.jsonl", reward_records)
    write_matrices(matrices_all, out / "matrices.jsonl")
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "prompts": summary_rows,
                "n_prompts": len(summary_rows),
                "n_trajectories": len(reward_records),
                "n_failures": len(failures),
            },
            fh,
            sort_keys=True,
            indent=2,
        )
        fh.write("\n")
    if isinstance(source, HttpScorer) and cfg.scorer.cache_path:
        source.cache.dump(cfg.scorer.cache_path)
    if failures:
        _write_jsonl(out / "errors.jsonl", failures)
        print(f"{len(failures)} prompt batches failed; see {out / 'errors.jsonl'}", file=sys.stderr)
        return EXIT_SCORER
    print(f"rewarded {len(reward_records)} trajectories -> {out / 'rewards.jsonl'}")
    return EXIT_OK


def cmd_analyze(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    rewards_path = getattr(args, "rewards", None)
    matrices_path = getattr(args, "matrices", None)
    if not rewards_path and not matrices_path:
        raise ValueError("analyze needs --rewards and/or --matrices exports")

    if rewards_path:
        features, labels = [], []
        for rec in read_trajectory_records(rewards_path, ("traj_id", "con", "vol", "r_cur")):
            features.append(
                TrajectoryFeatures(rec["traj_id"], rec["con"], rec["vol"], rec["r_cur"])
            )
            labels.append(rec.get("correct"))
        if not features:
            raise ValueError(f"no reward records in {rewards_path}")
        stats = analysis.feature_statistics(features, labels)
        analysis.write_feature_stats(stats, out / "feature_stats.csv")

    if matrices_path:
        curves = []
        for matrix in read_matrices(matrices_path):
            if matrix.num_answers >= 2:
                curves.append(normalized_curve(matrix))
        rows = analysis.curve_aggregate(curves, bucket_by_length=getattr(args, "bucket", False))
        analysis.write_curve_table(rows, out / "curves.csv")

    if cfg.input:
        records = read_trajectory_records(cfg.input, ("response_text",))
        responses = [rec["response_text"].split() for rec in records]
        if responses:
            metrics = analysis.diversity_metrics(responses)
            analysis.write_diversity(metrics, out / "diversity.csv")
    print(f"analysis written to {out}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    sim = cfg.simulate
    flow = FlowConfig(
        step_size=sim.step_size,
        max_time=sim.max_time,
        integrator=sim.integrator,
        kl_coefficient=sim.kl_coefficient,
        sample_count=sim.sample_count,
        seed=cfg.seed,
        record_every=sim.record_every,
    )
    ok, assertions = run_preset(sim, flow, cfg.seed, out)
    with open(out / "assertions.json", "w", encoding="utf-8") as fh:
        json.dump(assertions, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for name, value in sorted(assertions.items()):
        print(f"{name}: {value}")
    if not ok:
        print("bound assertion failed", file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
