"""Command-line entry point: regenerate the paper's results.

Usage::

    python -m repro table1 [--frames N]
    python -m repro fig7   [--frames N]
    python -m repro fig8   [--frames N]
    python -m repro all    [--frames N]
    python -m repro train  [--preset fast|full]
    python -m repro timeline [--mode base|pipe|p2p] [--app KEY]
    python -m repro metrics-top [--interval CYCLES] [--requests N]
    python -m repro chaos [--smoke] [--seed N]
    python -m repro fleet [--policy P] [--instances N] [--smoke]
    python -m repro tune  [--workload NAME] [--json PATH]
    python -m repro trace-query [TRACE_ID] [--input PATH]

``python -m repro --help`` lists every subcommand with a one-line
description; ``python -m repro <command> --help`` has the details.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace


def _cmd_paper(args) -> None:
    """Table I, Fig. 7 or Fig. 8 (``all``: the three), each a view of
    one evaluation of the paper's 15 (configuration, mode) cells."""
    from .eval import (evaluate, generate_fig7, generate_fig8,
                       generate_table1, render_fig7, render_fig8,
                       render_table1)
    evaluation = evaluate(n_frames=args.frames)
    sections = {
        "table1": ("Table I", render_table1(generate_table1(evaluation))),
        "fig7": ("Fig. 7", render_fig7(generate_fig7(evaluation))),
        "fig8": ("Fig. 8", render_fig8(generate_fig8(evaluation))),
    }
    if args.command == "all":
        print("\n\n".join(f"== {title} ==\n{text}"
                          for title, text in sections.values()))
    else:
        print(sections[args.command][1])


def _cmd_train(args) -> None:
    from .flow import train_classifier, train_denoiser
    model, acc = train_classifier(preset=args.preset, force=args.force)
    print(f"classifier accuracy ({args.preset}): {acc:.1%} (paper: 92%)")
    model, err = train_denoiser(preset=args.preset, force=args.force)
    print(f"denoiser reconstruction error ({args.preset}): {err:.1%} "
          f"(paper: 3.1%)")


def _cmd_timeline(args) -> None:
    from .eval import APP_CONFIGS, fresh_runtime
    from .eval.timeline import render_gantt
    config = APP_CONFIGS[args.app]
    runtime = fresh_runtime(config)
    frames, _ = config.make_inputs(args.frames)
    result = runtime.esp_run(config.build_dataflow(), frames,
                             mode=args.mode)
    print(f"{args.app} in mode={args.mode}: "
          f"{result.frames_per_second:,.0f} frames/s\n")
    print(render_gantt(runtime.soc))


def _cmd_metrics_top(args) -> None:
    """Live ops dashboard over a multi-tenant serving trace.

    Runs the three-tenant SoC-1 serving workload with the metrics
    registry attached and a monitor subscriber rendering one dashboard
    frame per sampler tick (every ``--interval`` cycles) — the
    simulated equivalent of watching ``top`` on a production server.
    """
    from .control import ControlConfig
    from .eval.fleet import standard_inputs
    from .eval.stack import StackSpec, build_stack, soc1_tenants
    from .faults import FaultSpec, RecoveryPolicy
    from .metrics import render_dashboard
    from .serve import ServerConfig, TracedRequest

    spec = StackSpec(tenants=soc1_tenants("top"), metrics=True,
                     sampler_interval=args.interval)
    if args.chaos:
        # The live self-healing demo: hang the classifier's tile inside
        # its first invocation and let the control plane reshard it
        # onto a spare — the dashboard's control-plane section shows
        # every action as it lands.
        spec = replace(
            spec,
            server=ServerConfig(probation_cycles=60_000),
            recovery=RecoveryPolicy(watchdog_cycles=200_000,
                                    max_retries=1,
                                    software_fallback=True),
            control=ControlConfig(reserve_pool=("cl2", "cl3")),
            faults=(FaultSpec(kind="acc_hang", target="cl1", at_cycle=1,
                              count=None),))
    stack = build_stack(spec)
    stack.monitor.subscribe(lambda monitor, _: print(
        render_dashboard(stack.soc, monitor.registry, monitor) + "\n"))

    n_frames = args.requests * args.frames
    trace = [TracedRequest(0, tenant, frames[lo:lo + args.frames])
             for tenant, frames in standard_inputs(n_frames).items()
             for lo in range(0, n_frames, args.frames)]
    stack.server.run_trace(trace)
    stack.sampler.stop()
    print("== final ==")
    stack.monitor.evaluate()    # its subscriber prints the last frame
    print(stack.monitor.render())
    if stack.controller is not None and stack.controller.actions:
        print(f"\n{stack.controller.render()}")


def _cmd_chaos(args) -> None:
    """Run the chaos campaign and print the on/off verdict."""
    from .eval.chaos import run_chaos_campaign
    report = run_chaos_campaign(smoke=args.smoke, seed=args.seed)
    print(report.render())
    for arm in ("on", "off"):
        mttr = ", ".join(
            f"{cls}={ttr:,}" if ttr is not None else f"{cls}=-"
            for cls, ttr in report.mttr_by_class(arm).items())
        print(f"MTTR (controller {arm}): {mttr}")
    if not report.controller_strictly_better:
        raise SystemExit("chaos campaign verdict: controller did NOT "
                         "beat local recovery alone")


def _cmd_fleet(args) -> None:
    """Run the fleet campaign: N SoC instances behind the router."""
    from .eval.fleet import CAMPAIGN_POLICIES, run_fleet_campaign
    policies = (CAMPAIGN_POLICIES if args.policy == "all"
                else (args.policy,))
    reports = run_fleet_campaign(policies=policies,
                                 n_instances=args.instances,
                                 seed=args.seed, smoke=args.smoke)
    for index, report in enumerate(reports.values()):
        if index:
            print()
        print(report.render())
    if len(reports) > 1:
        ranked = sorted(reports.items(),
                        key=lambda kv: kv[1].latency.p99)
        print()
        print("fleet p99 by policy: " + ", ".join(
            f"{policy}={report.latency.p99:,.0f} cycles"
            for policy, report in ranked))


def _cmd_tune(args) -> None:
    """Auto-tune per-accelerator coherence over the ablation suite."""
    import json

    from .tune import ablation_workloads, autotune

    workloads = ablation_workloads()
    if args.workload != "all":
        workloads = [wl for wl in workloads if wl.name == args.workload]
    results = {}
    for wl in workloads:
        result = autotune(wl.build, wl.dataflow, wl.frames,
                          mode=wl.mode)
        results[wl.name] = result
        baseline = result.best_uniform_cycles
        print(f"== {wl.name} ==  ({wl.description})")
        arms = ", ".join(f"{label}={cycles:,}"
                         for label, cycles in result.measured.items())
        print(f"  measured: {arms}")
        assignment = ", ".join(
            f"{dev}={mode.value}"
            for dev, mode in sorted(result.assignment.items())) \
            or "(all non-coherent)"
        print(f"  chosen: {result.chosen} -> {assignment}")
        for dev in result.profile.devices:
            print(f"    {dev.device}: {dev.recommended.value} "
                  f"-- {dev.reason}")
        saved = baseline - result.cycles
        print(f"  vs best uniform: {saved:+,} cycles "
              f"({saved / baseline:+.2%})")
    if args.json:
        payload = {name: result.as_dict()
                   for name, result in results.items()}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")


def _cmd_trace_query(args) -> None:
    """Reconstruct one request's waterfall from its trace ID.

    With ``--input`` the trace is read from an exported Chrome trace
    JSON (single-SoC or fleet-merged); without it the deterministic
    traced mini-fleet scenario runs in-process and the query targets
    its merged trace. Without a ``trace_id`` the command lists every
    ID present so the operator can pick one.
    """
    from .trace import load_trace, query_trace, trace_ids_in

    if args.input is not None:
        trace = load_trace(args.input)
        source = args.input
    else:
        from .eval.fleet import run_traced_fleet_scenario
        scenario = run_traced_fleet_scenario(seed=args.seed)
        trace = scenario["trace"]
        source = (f"traced mini-fleet scenario "
                  f"({len(scenario['fleet'].instances)} instances, "
                  f"seed {args.seed})")
    ids = trace_ids_in(trace)
    if args.trace_id is None:
        print(f"{len(ids)} trace IDs in {source}:")
        for trace_id in ids:
            print(f"  {trace_id}")
        print("\nrerun with one of them: "
              "python -m repro trace-query <trace_id>")
        return
    if args.trace_id not in ids:
        raise SystemExit(f"trace ID {args.trace_id!r} not present in "
                         f"{source} ({len(ids)} IDs; run without an "
                         f"ID to list them)")
    print(query_trace(trace, args.trace_id).render(limit=args.limit))


#: One-line description per subcommand — single source for the
#: ``--help`` listing (every entry must register a parser below).
COMMANDS = {
    "table1": "regenerate Table I (resources / power / fps per app)",
    "fig7": "regenerate Fig. 7 (performance across configurations)",
    "fig8": "regenerate Fig. 8 (memory-access reduction)",
    "all": "regenerate Table I, Fig. 7 and Fig. 8 in one run",
    "train": "train the paper's classifier and denoiser models",
    "timeline": "render an execution Gantt chart for one app",
    "metrics-top": "live metrics dashboard over a serving trace",
    "chaos": "self-healing chaos campaign (controller on vs off)",
    "fleet": "multi-instance fleet serving under overload, one run "
             "per load-balancing policy",
    "tune": "auto-tune per-accelerator coherence modes over the "
            "ablation workloads",
    "trace-query": "reconstruct one request's waterfall from its "
                   "distributed trace ID",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ESP4ML reproduction: regenerate the paper's "
                    "tables and figures",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="run 'python -m repro COMMAND --help' for "
               "command-specific options")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND",
                                title="commands")

    for name in ("table1", "fig7", "fig8", "all"):
        p = sub.add_parser(name, help=COMMANDS[name],
                           description=COMMANDS[name])
        p.add_argument("--frames", type=int, default=32,
                       help="frames per measured run (default 32)")
        p.set_defaults(fn=_cmd_paper)

    p = sub.add_parser("train", help=COMMANDS["train"],
                       description=COMMANDS["train"])
    p.add_argument("--preset", choices=("fast", "full"), default="fast")
    p.add_argument("--force", action="store_true",
                   help="retrain even if cached")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("timeline", help=COMMANDS["timeline"],
                       description=COMMANDS["timeline"])
    p.add_argument("--app", default="4nv_4cl",
                   help="configuration key (default 4nv_4cl)")
    p.add_argument("--mode", choices=("base", "pipe", "p2p"),
                   default="p2p")
    p.add_argument("--frames", type=int, default=8)
    p.set_defaults(fn=_cmd_timeline)

    p = sub.add_parser("metrics-top", help=COMMANDS["metrics-top"],
                       description=COMMANDS["metrics-top"])
    p.add_argument("--interval", type=int, default=10_000,
                   help="cycles between dashboard frames "
                        "(default 10000)")
    p.add_argument("--requests", type=int, default=2,
                   help="requests per tenant (default 2)")
    p.add_argument("--frames", type=int, default=2,
                   help="frames per request (default 2)")
    p.add_argument("--chaos", action="store_true",
                   help="inject a tile hang and attach the "
                        "self-healing control plane")
    p.set_defaults(fn=_cmd_metrics_top)

    p = sub.add_parser("chaos", help=COMMANDS["chaos"],
                       description=COMMANDS["chaos"])
    p.add_argument("--smoke", action="store_true",
                   help="two-scenario short-horizon variant")
    p.add_argument("--seed", type=int, default=0,
                   help="trace seed (default 0)")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("fleet", help=COMMANDS["fleet"],
                       description=COMMANDS["fleet"])
    p.add_argument("--policy", default="all",
                   choices=("all", "round-robin", "least-loaded",
                            "latency-aware"),
                   help="load-balancing policy to run (default: all "
                        "three, for comparison)")
    p.add_argument("--instances", type=int, default=4,
                   help="SoC instances in the fleet (default 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (default 0)")
    p.add_argument("--smoke", action="store_true",
                   help="short-horizon variant")
    p.set_defaults(fn=_cmd_fleet)

    p = sub.add_parser("tune", help=COMMANDS["tune"],
                       description=COMMANDS["tune"])
    p.add_argument("--workload", default="all",
                   choices=("all", "fc-streaming", "llc-resident",
                            "false-sharing"),
                   help="ablation workload to tune (default: all)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the tuning report as JSON")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("trace-query", help=COMMANDS["trace-query"],
                       description=COMMANDS["trace-query"])
    p.add_argument("trace_id", nargs="?", default=None,
                   help="trace ID to reconstruct (e.g. f-23); omit "
                        "to list every ID in the trace")
    p.add_argument("--input", metavar="PATH", default=None,
                   help="exported Chrome trace JSON to query "
                        "(default: run the traced mini-fleet "
                        "scenario in-process)")
    p.add_argument("--seed", type=int, default=0,
                   help="scenario seed when no --input is given "
                        "(default 0)")
    p.add_argument("--limit", type=int, default=60,
                   help="max waterfall rows to print (default 60)")
    p.set_defaults(fn=_cmd_trace_query)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
