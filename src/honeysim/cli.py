"""Command line entry points: train, run, eval, replay, oracle-reward.

Exit codes: 0 success, 2 configuration error or bad path, 3 corrupt trace.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import config as config_mod
from . import trace as trace_mod
from .agent import RewardInputs, RewardParams, reward
from .errors import ConfigInvalid, NonFinite, TraceCorrupt
from .harness import (RandomPolicy, evaluate, load_qtable, replay,
                      run_scenario, save_qtable, train_agent)

EXIT_CONFIG = 2
EXIT_TRACE = 3


def _policy_from_args(args):
    if args.policy in (None, "random"):
        return RandomPolicy()
    return load_qtable(args.policy)


def _check_writable(path) -> None:
    """Raise what writing `path` would raise; leave the path as it was."""
    existed = os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


def cmd_train(args):
    cfg = config_mod.load_file(args.config)
    if args.seed is not None:
        cfg = config_mod.from_mapping({**cfg.to_dict(), "seed": args.seed})
    # A bad output path fails the command before training and writes nothing.
    for path in filter(None, (args.out, args.curve_out)):
        _check_writable(path)
    result = train_agent(cfg, args.episodes)
    save_qtable(result.qtable, args.out)
    print(f"trained {args.episodes} episodes -> {args.out}")
    if args.curve_out:
        with open(args.curve_out, "w", encoding="utf-8") as fh:
            json.dump(result.reward_curve, fh)
            fh.write("\n")
    print(f"final episode reward: {result.reward_curve[-1]:.4f}")
    return 0


def cmd_run(args):
    cfg = config_mod.load_file(args.config)
    seed = cfg.seed if args.seed is None else config_mod.check_seed(args.seed)
    policy = _policy_from_args(args)
    # A bad trace path fails the command before the run and writes nothing.
    if args.trace_out:
        _check_writable(args.trace_out)
    report, lines = run_scenario(cfg, seed, policy)
    if args.trace_out:
        trace_mod.write_file(args.trace_out, lines)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=1))
    return 0


def cmd_eval(args):
    cfg = config_mod.load_file(args.config)
    base = args.seed if args.seed is not None else cfg.seed
    seeds = [config_mod.check_seed(base + k) for k in range(args.num_seeds)]
    policy_spec = _policy_from_args(args)
    reports = evaluate(cfg, policy_spec, seeds)
    rewards = [r.cumulative_reward for r in reports]
    engagements = [r.honeypot_engagements for r in reports]
    compromises = [r.real_server_compromises for r in reports]
    summary = {
        "seeds": seeds,
        "mean_cumulative_reward": sum(rewards) / len(rewards),
        "mean_honeypot_engagements": sum(engagements) / len(engagements),
        "mean_real_server_compromises": sum(compromises) / len(compromises),
        "per_seed_reward": rewards,
    }
    print(json.dumps(summary, sort_keys=True, indent=1))
    return 0


def cmd_replay(args):
    lines = trace_mod.read_file(args.trace)
    report = replay(lines)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=1))
    return 0


def cmd_oracle_reward(args):
    """Read one JSON object per stdin line, print one reward per line.

    Keys: a, b, c, floor (optional, default 1), honey_events,
    security_events, delta_resources, total_resources, justified_cfh, cw.
    """
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            params = RewardParams(data["a"], data["b"], data["c"],
                                  data.get("floor", 1))
            inputs = RewardInputs(
                honey_events=data["honey_events"],
                security_events=data["security_events"],
                delta_resources=data["delta_resources"],
                total_resources=data["total_resources"],
                justified_cfh=data["justified_cfh"],
                cw=data["cw"],
            )
            value = reward(params, inputs)
        # OverflowError: an int too large for a float, as a coefficient
        # or inside a term.
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ConfigInvalid(f"bad oracle-reward line {line!r}: {exc!r}") from exc
        print(repr(value))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="honeysim",
        description="Deterministic cloud-defense simulation with a "
                    "honeypot-managing learning agent.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a Q policy on a scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--out", default="qtable.json")
    p.add_argument("--curve-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="run one seeded episode")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--policy", help="path to a Q table, or 'random'")
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="evaluate a policy over several seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="base seed (seeds are base..base+n-1)")
    p.add_argument("--num-seeds", type=int, default=10)
    p.add_argument("--policy", help="path to a Q table, or 'random'")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("replay", help="recompute metrics from a trace file")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("oracle-reward",
                       help="stdin JSON lines -> reward values (cross-check)")
    p.set_defaults(func=cmd_oracle_reward)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigInvalid, NonFinite) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceCorrupt as exc:
        print(f"trace corrupt: {exc}", file=sys.stderr)
        return EXIT_TRACE
    except OSError as exc:  # a missing, unreadable or unwritable path
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
