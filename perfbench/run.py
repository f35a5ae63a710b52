#!/usr/bin/env python3
"""End-to-end benchmark of ``repro-serve``, driven from outside the daemon.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reduce_wide --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Each run boots the shipped daemon (``python -m repro.serve.cli``) as a
subprocess, checks every answer bitwise against a profiling-only reducer
in this process, and shuts the daemon down with SIGTERM, requiring a
clean drain.  ``--trace 0`` reports the end-to-end metrics: set-up time
(median of several boots), closed-loop throughput and CPU per item, and
open-loop latency at a fixed rate.  ``--trace 1`` boots the daemon under
``perfbench/traced_serve.py`` instead and reports the per-layer split.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import platform
import signal
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

import client  # noqa: E402
import proctree  # noqa: E402
import traceview  # noqa: E402
from workloads import WORKLOADS, build_frames  # noqa: E402

#: Boots timed per run, half before the measured phases and half after
#: them.  Boot time follows host speed, which holds for seconds to minutes
#: on a shared host; boots taken back to back all read one such stretch.
SETUP_BOOTS = 6
#: closed/open round pairs in an end-to-end run
ROUNDS = 12
WARMUP_S = 1.0
#: share of --seconds spent in the closed loop; the open loop gets the rest
CLOSED_SHARE = 0.3
#: Each end-to-end figure except set-up and memory is the level the better
#: rounds of a run reach: the 1/8 quantile over rounds, taken from the
#: favourable side (high for throughput, low for latency and CPU).  The
#: 2-vCPU virtual machines this was tuned on have slow stretches lasting
#: minutes, in which vCPU speed drops 20-30 % (only partly visible as steal
#: time).  Over ten seeds the median over rounds spread by 14-59 %
#: (interquartile range over median) on the batch workloads; this figure
#: spread by 5-24 %.  A change that slows every round moves it fully; one
#: that only adds rare stalls may not.
FAVOURABLE = 0.125
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "throughput_items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_item": "ms",
    "rss_peak_mb": "MB",
}

PER_LAYER = {
    "frames.parse_us_per_req": "us",
    "frames.encode_us_per_req": "us",
    "protocol.render_us_per_req": "us",
    "batcher.queue_wait_us_p50": "us",
    "batcher.items_per_tick": "count",
    "batcher.rejected": "count",
    "selector.us_per_item": "us",
    "selector.decision_cache_hit_ratio": "ratio",
    "selector.items.ST": "count",
    "selector.items.K": "count",
    "selector.items.CP": "count",
    "selector.items.PR": "count",
    "selector.items_bound_tier": "count",
    "bound_tier.stats_us_per_item": "us",
    "bound_tier.decide_us_per_item": "us",
    "bound_tier.hit_ratio": "ratio",
    "profile.us_per_item": "us",
    "profile.ns_per_element": "ns",
    "policy.select_us_per_call": "us",
    "policy.select_calls": "count",
    "comm.reduce_batch_us_per_item": "us",
    "comm.bytes_per_s": "B/s-computed",
    "pool.map_calls": "count",
    "pool.map_us_per_call": "us",
    "pool.shards_per_call": "count",
    "pool.arena_bytes": "B",
    "pool.restarts": "count",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
    "trace.layers_in_worker": "count",
}


class RunFailed(Exception):
    """A check the run depends on failed; the run reports incorrect."""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def daemon_env() -> "dict[str, str]":
    """The daemon's environment: the checkout's sources, caches inside it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["REPRO_CKERNEL_CACHE"] = os.path.join(BUILD, "ckernels")
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    return env


def daemon_command(workload, *, traced: bool) -> "list[str]":
    """Untraced runs launch the unmodified ``repro.serve.cli``."""
    if traced:
        head = [sys.executable, os.path.join(HERE, "traced_serve.py")]
    else:
        head = [sys.executable, "-m", "repro.serve.cli"]
    return head + workload.daemon_args()


class Daemon:
    """One daemon process: boot, banner, SIGTERM drain check, cleanup."""

    def __init__(self, workload, *, traced: bool, log_name: str) -> None:
        self.cmd = daemon_command(workload, traced=traced)
        self.env = daemon_env()
        self.trace_path = None
        if traced:
            self.trace_path = os.path.join(BUILD, f"trace-{os.getpid()}.json")
            self.env["PERFBENCH_TRACE_OUT"] = self.trace_path
        self.log_path = os.path.join(BUILD, "logs", log_name)
        self.proc = None
        self.port = None
        self.lines: "list[str]" = []
        self._reader = None

    async def start(self) -> None:
        self.shm_before = proctree.shm_segments()
        with open(self.log_path, "wb") as log:
            self.proc = await asyncio.create_subprocess_exec(
                *self.cmd,
                cwd=ROOT,
                env=self.env,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
                start_new_session=True,
            )
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        text = line.decode(errors="replace").strip()
        marker = "listening on http://"
        if marker not in text:
            raise RunFailed(f"daemon did not start: {text!r} (see {self.log_path})")
        self.lines.append(text)
        self.port = int(text.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])
        self._reader = asyncio.ensure_future(self._collect())

    async def _collect(self) -> None:
        async for line in self.proc.stdout:
            self.lines.append(line.decode(errors="replace").strip())

    async def drain(self) -> None:
        """SIGTERM; require exit 0, 'shutdown complete' and no new psm_* segment."""
        try:
            self.proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            await self.kill()
            raise RunFailed(f"daemon died before SIGTERM (see {self.log_path})") from None
        try:
            code = await asyncio.wait_for(self.proc.wait(), 60)
            await asyncio.wait_for(self._reader, 10)
        except asyncio.TimeoutError:
            raise RunFailed("daemon did not exit within 60 s of SIGTERM") from None
        finally:
            await self.kill()
        leaked = proctree.shm_segments() - self.shm_before
        if code != 0:
            raise RunFailed(f"daemon exited {code} after SIGTERM (see {self.log_path})")
        if not any("shutdown complete" in line for line in self.lines):
            raise RunFailed(f"no 'shutdown complete' after SIGTERM: {self.lines[-3:]}")
        if leaked:
            raise RunFailed(f"drain left shared-memory segments: {sorted(leaked)}")

    async def kill(self) -> None:
        """Stop whatever is left of the process group and wait for it."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        if self.proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                self.proc.kill()
            await self.proc.wait()
        # the forkserver and pool workers share the daemon's process group
        started = time.monotonic()
        while time.monotonic() - started < 15:
            try:
                os.killpg(pgid, signal.SIGKILL if time.monotonic() - started > 10 else 0)
            except ProcessLookupError:
                break
            await asyncio.sleep(0.05)
        if self._reader is not None and not self._reader.done():
            self._reader.cancel()


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


class Tally:
    """attempted/failed over every phase, plus the (algorithm, tier) mix."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mix: "dict[tuple[str, str], int]" = {}
        self.errors: "list[str]" = []

    def add(self, name: str, out: "client.Outcome") -> "client.Outcome":
        self.attempted += out.attempted
        self.failed += out.failed
        for key, count in out.mix.items():
            self.mix[key] = self.mix.get(key, 0) + count
        self.errors.extend(f"{name}: {e}" for e in out.errors)
        print(
            f"  phase {name:<14} attempted={out.attempted} failed={out.failed} "
            f"items={out.items}",
            flush=True,
        )
        return out


async def boot(workload, frames, tally: Tally, *, traced: bool, tag: str):
    """Start a daemon and wait for its first correct answer; ``(daemon, s)``."""
    daemon = Daemon(workload, traced=traced, log_name=f"{workload.name}-{tag}.log")
    started = time.monotonic()
    try:
        await daemon.start()
        probe = await client.one_request(
            daemon.port, client.Traffic(workload, frames[:1], with_rid=traced)
        )
        elapsed = time.monotonic() - started
        tally.add(f"setup-{tag}", probe)
        if probe.failed:
            raise RunFailed(f"first request failed: {probe.errors}")
    except BaseException:
        await daemon.kill()
        raise
    return daemon, elapsed


async def timed_boots(workload, frames, tally: Tally, tags) -> "list[float]":
    """Boot and drain one daemon per tag; each one's time to a first answer."""
    times = []
    for tag in tags:
        daemon, elapsed = await boot(workload, frames, tally, traced=False, tag=tag)
        times.append(elapsed)
        await daemon.drain()
    return times


async def end_to_end(workload, frames, seconds: float, tally: Tally) -> "dict[str, float]":
    half = SETUP_BOOTS // 2
    boots = await timed_boots(workload, frames, tally, [f"boot{b}" for b in range(half - 1)])
    # the last boot before the measured phases is the daemon they measure
    daemon, elapsed = await boot(workload, frames, tally, traced=False, tag=f"boot{half - 1}")
    boots.append(elapsed)
    rounds = []
    closed_all, open_all = client.Outcome(), client.Outcome()
    try:
        conns = await client.open_connections(daemon.port, usable_cores())
        traffic = client.Traffic(workload, frames, with_rid=False)
        tally.add("warmup", (await client.closed_loop(conns, traffic, WARMUP_S))[0])
        pid = daemon.proc.pid
        steal_before = proctree.host_cpu_ticks()
        # closed and open phases alternate in short rounds; see FAVOURABLE
        for _ in range(ROUNDS):
            cpu_before = proctree.tree_cpu_seconds(pid)
            closed, wall = await client.closed_loop(
                conns, traffic, seconds * CLOSED_SHARE / ROUNDS
            )
            cpu_after = proctree.tree_cpu_seconds(pid)
            opened = await client.open_loop(
                conns, traffic, workload.open_rate, seconds * (1 - CLOSED_SHARE) / ROUNDS
            )
            closed_all.merge(closed)
            open_all.merge(opened)
            if not closed.items or not opened.latencies:
                raise RunFailed("a round completed no request")
            rounds.append(
                {
                    "throughput_items_per_s": closed.items / wall,
                    "cpu_ms_per_item": proctree.cpu_delta(cpu_before, cpu_after)
                    * 1e3
                    / closed.items,
                    "latency_p50_ms": quantile(opened.latencies, 0.5) * 1e3,
                    "latency_p90_ms": quantile(opened.latencies, 0.9) * 1e3,
                }
            )
        steal_after = proctree.host_cpu_ticks()
        await client.close_connections(conns)
        rss_mb = proctree.tree_hwm_mb(pid)
        await daemon.drain()
    finally:
        tally.add("closed-loop", closed_all)
        tally.add("open-loop", open_all)
        await daemon.kill()
    boots += await timed_boots(
        workload, frames, tally, [f"boot{b}" for b in range(half, SETUP_BOOTS)]
    )
    print(f"  setup boots (s): {', '.join(f'{s:.4f}' for s in boots)}", flush=True)
    lat = open_all.latencies
    print(
        f"  open loop at {workload.open_rate:g} req/s over {ROUNDS} rounds: n={len(lat)}, "
        + ", ".join(
            f"pooled p{q}={quantile(lat, q / 100) * 1e3:.3f} ms "
            f"({sum(1 for x in lat if x > quantile(lat, q / 100))} beyond)"
            for q in (50, 90, 99)
        )
        + " (p99 diagnostic only); generator lateness "
        f"p50={quantile(open_all.lateness, 0.5) * 1e3:.3f} ms "
        f"max={max(open_all.lateness) * 1e3:.3f} ms",
        flush=True,
    )
    steal, total = (a - b for a, b in zip(steal_after, steal_before))
    print(
        f"  host CPU stolen by the hypervisor while measuring: "
        f"{100 * steal / max(total, 1):.2f} % (diagnostic)",
        flush=True,
    )
    figures = {"setup_s": statistics.median(boots), "rss_peak_mb": rss_mb}
    for metric in rounds[0]:
        values = [r[metric] for r in rounds]
        better_high = metric == "throughput_items_per_s"
        figures[metric] = quantile(values, 1 - FAVOURABLE if better_high else FAVOURABLE)
        print(
            f"  rounds {metric}: " + ", ".join(f"{v:.4g}" for v in values)
            + f" (median {statistics.median(values):.4g})",
            flush=True,
        )
    return figures


async def per_layer(workload, frames, seconds: float, tally: Tally) -> "dict[str, float]":
    # untraced reference throughput, for the tracing overhead
    daemon, _ = await boot(workload, frames, tally, traced=False, tag="untraced")
    try:
        conns = await client.open_connections(daemon.port, usable_cores())
        traffic = client.Traffic(workload, frames, with_rid=False)
        tally.add("warmup", (await client.closed_loop(conns, traffic, WARMUP_S))[0])
        ref, ref_wall = await client.closed_loop(conns, traffic, seconds / 4)
        tally.add("ref-closed", ref)
        await client.close_connections(conns)
        await daemon.drain()
    finally:
        await daemon.kill()

    daemon, _ = await boot(workload, frames, tally, traced=True, tag="traced")
    try:
        conns = await client.open_connections(daemon.port, usable_cores())
        traffic = client.Traffic(workload, frames, with_rid=True)
        tally.add("warmup", (await client.closed_loop(conns, traffic, WARMUP_S))[0])
        c0 = time.monotonic_ns()
        closed, wall = await client.closed_loop(conns, traffic, seconds / 4)
        c1 = time.monotonic_ns()
        tally.add("traced-closed", closed)
        opened = tally.add(
            "traced-open",
            await client.open_loop(conns, traffic, workload.open_rate, seconds / 2),
        )
        o1 = time.monotonic_ns()
        await client.close_connections(conns)
        await daemon.drain()
    finally:
        await daemon.kill()
    with open(daemon.trace_path) as fh:
        dump = json.load(fh)
    os.remove(daemon.trace_path)
    if not closed.items or not ref.items:
        raise RunFailed("a phase completed no request")

    metrics = traceview.layer_metrics(dump, (c0, c1), (c1, o1))
    # read from the responses, so measured even where selection ran in workers
    bound_items = sum(n for (_code, tier), n in closed.mix.items() if tier == "bound")
    metrics["batcher.rejected"] = float(closed.rejected + opened.rejected)
    for code in ("ST", "K", "CP", "PR"):
        metrics[f"selector.items.{code}"] = float(
            sum(n for (c, _tier), n in closed.mix.items() if c == code)
        )
    metrics["selector.items_bound_tier"] = float(bound_items)
    metrics["bound_tier.hit_ratio"] = bound_items / closed.items
    ref_tput = ref.items / ref_wall
    metrics["trace.overhead_pct"] = (ref_tput - closed.items / wall) / ref_tput * 100.0
    share, shares = traceview.coverage(dump, opened.spans, (c1, o1))
    metrics["trace.coverage"] = share

    unmeasured = []
    if metrics["pool.map_calls"] > 0:
        # selection and reduction ran inside pool workers, which carry no
        # wrappers: these figures would read zero work, so flag them
        unmeasured = [
            n
            for n in metrics
            if n.startswith(traceview.IN_WORKER_LAYERS) and n != "bound_tier.hit_ratio"
        ]
        for name in unmeasured:
            metrics[name] = 0.0
    metrics["trace.layers_in_worker"] = float(len(unmeasured))

    print(
        f"  tracing overhead: untraced {ref_tput:.1f} items/s, traced "
        f"{closed.items / wall:.1f} items/s",
        flush=True,
    )
    print("  per-layer (traced closed loop; queue wait and coverage from the open loop):")
    for name, unit in PER_LAYER.items():
        shown = "not measured (in worker)" if name in unmeasured else f"{metrics[name]:.6g} {unit}"
        print(f"    {name:<36} {shown}")
    print("  share of client-side request time (open loop), by layer self time:")
    for layer, frac in shares.items():
        print(f"    {layer:<36} {frac * 100:6.2f} %")
    print(f"    {'covered by spans (union)':<36} {share * 100:6.2f} %")
    print(f"    {'unaccounted':<36} {(1 - share) * 100:6.2f} %", flush=True)
    return metrics


def print_record(seed: int) -> None:
    from repro.trees._ckernels import kernels_available

    ok = kernels_available()
    print(
        f"record: seed={seed} nproc={usable_cores()} python={platform.python_version()} "
        f"numpy={np.__version__} ckernels={ok}",
        flush=True,
    )
    if not ok:
        raise RunFailed("C kernels unavailable: the NumPy fallback is a different program")


async def run_workload(name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[name]
    tally = Tally()
    print(f"workload {name}: {workload.why}", flush=True)
    started = time.monotonic()
    frames = build_frames(workload, seed)
    print(
        f"  {len(frames)} requests x {workload.rows} item(s) generated and checked "
        f"in {time.monotonic() - started:.2f} s; daemon --workers {workload.workers}",
        flush=True,
    )
    correct = True
    metrics: "dict[str, float]" = {}
    try:
        if trace:
            metrics = await per_layer(workload, frames, seconds, tally)
        else:
            metrics = await end_to_end(workload, frames, seconds, tally)
    except RunFailed as exc:
        print(f"  FAILED: {exc}", flush=True)
        correct = False
    mix = ", ".join(f"{c}/{t}={n}" for (c, t), n in sorted(tally.mix.items()))
    print(f"  measured (algorithm/tier) mix: {mix}", flush=True)
    for err in tally.errors[:10]:
        print(f"  error: {err}", flush=True)
    if not trace and metrics:
        for metric, unit in END_TO_END.items():
            print(f"  {metric:<24} {metrics[metric]:.6g} {unit}", flush=True)
    return correct and tally.failed == 0, tally, metrics


async def main_async(args) -> int:
    os.makedirs(os.path.join(BUILD, "logs"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    print_record(args.seed)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tally, values = await run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct &= ok
        attempted += tally.attempted
        failed += tally.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in units.items():
            if metric in values:
                metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    print(
        json.dumps(
            {
                "correct": bool(correct and metrics),
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct and metrics else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "serve", "cli.py")):
        print(f"no repro sources under {SRC}: run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["REPRO_CKERNEL_CACHE"] = os.path.join(BUILD, "ckernels")
    timeout = RUN_TIMEOUT_S * (len(WORKLOADS) if args.workload == "all" else 1)
    try:
        return asyncio.run(asyncio.wait_for(main_async(args), timeout))
    except RunFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    except asyncio.TimeoutError:
        print(f"FAILED: run exceeded {timeout:.0f} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
