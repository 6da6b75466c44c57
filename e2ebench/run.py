"""End-to-end benchmark of repro-knl: the cli, sweep and service workloads.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with no spans installed; with
``--trace 1`` they are the per-layer ones. ``METRICS.md`` beside this
file defines every metric and why each workload exists.

Every workload is a closed loop driven from this one process, with one
program child at a time:

* ``cli``: one ``python -m repro`` process per operation, in whole
  seeded-shuffled rounds of the nine direct artifacts and the seven
  replays of a store warmed during set-up.
* ``sweep``: one long-lived child runs paper rounds in-process, each at
  a fresh structure-neutral design point (``inputs.py``), first with a
  cleared memo and then again from the memo.
* ``service``: ``repro-knl serve`` driven over one connection: one fresh
  figure7 job (engine-served) then three resubmissions of finished jobs
  (store-served), repeated.

Every end-to-end time is host-calibrated (``calib.py``): each
operation's wall time is scaled by a fixed probe's reference time over
the probe time measured just before and just after the operation, on
the same CPU. The probe is a Python kernel in the load generator, or
for ``cli`` a bare interpreter start. On a shared VM the host's speed
drifts by 25 % and more between runs; the probes follow that drift, so
it cancels, while a change in the program's speed does not. Raw
wall-time medians go to the summary on standard error.

Every operation's rendered table and CSV is checked by SHA-256 after the
timed window: against the reference engine loop for direct output (all
cli operations, a seeded sample of sweep rounds and service jobs), and
byte-for-byte against the direct output for replays, memo rounds and
store-served jobs. A mismatch, a non-zero exit or a wrongly served job
is a failed operation. A run also fails when a child process, a
``/dev/shm`` segment or a scratch file outlives it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")
SCRATCH = ROOT / ".e2ebench_scratch"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from calib import START_REFERENCE_S, Calibrated  # noqa: E402
from child import cli_text, digest  # noqa: E402
from inputs import REPLAYABLE, ROUND, Inputs  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Sweep rounds and service jobs checked against the reference loop.
ORACLE_SAMPLE = 3
#: Store-served resubmissions after each fresh service job.
RESUBMITS = 3
#: Runs of ``-X importtime`` / bare interpreter start per traced run.
IMPORT_RUNS = 3
INTERP_RUNS = 5
SERVER_START_S = 60.0


def child_env(tmp: Path) -> dict[str, str]:
    """The fixed environment of every program child."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "LC_ALL": "C.UTF-8",
        "TMPDIR": str(tmp),
    }


def pct(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def shm_segments() -> set[str]:
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return set()
    return {n for n in names if n.startswith(("psm_", "sem.", "repro"))}


def live_children() -> list[int]:
    """Processes whose parent is this one (reaped children are gone)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


class Bench:
    """One run: scratch directory, child processes, failure tally."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.inputs = Inputs(args.seed)
        self.dir = SCRATCH / f"{args.workload}-{os.getpid()}"
        self.tmp = self.dir / "tmp"
        self.tmp.mkdir(parents=True)
        self.env = child_env(self.tmp)
        self.log = open(self.dir / "children.log", "ab")
        self.procs: list[subprocess.Popen] = []
        self.shm_before = shm_segments()
        self.cal = Calibrated()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.summary: list[str] = []

    # ---- processes -------------------------------------------------------

    def spawn(self, argv: list[str], **kw) -> subprocess.Popen:
        kw.setdefault("stderr", self.log)
        proc = subprocess.Popen(
            [sys.executable, *argv], env=self.env, cwd=ROOT, **kw
        )
        self.procs.append(proc)
        return proc

    def run_child(self, argv: list[str]) -> tuple[float, bytes, int, float]:
        """One child to completion: ``(wall_s, stdout, exit code,
        peak RSS in MB)``. The child is reaped with ``wait4`` so its own
        peak RSS is known."""
        t0 = time.perf_counter()
        proc = self.spawn(argv, stdout=subprocess.PIPE)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, out, proc.returncode, usage.ru_maxrss / 1024.0

    def stop(self, proc: subprocess.Popen) -> int:
        """SIGTERM, the service's documented clean shutdown."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                self.problems.append(f"pid {proc.pid} ignored SIGTERM")
        return proc.returncode

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    # ---- teardown --------------------------------------------------------

    def close(self) -> None:
        """Stop every child, remove the scratch directory, and record
        anything that outlived the run as a problem."""
        for proc in self.procs:
            if proc.poll() is None:
                self.problems.append(f"child pid {proc.pid} still running")
                proc.kill()
                proc.wait()
        for pid in live_children():
            self.problems.append(f"unreaped child pid {pid}")
        leaked = shm_segments() - self.shm_before
        if leaked:
            self.problems.append(f"leaked /dev/shm segments {sorted(leaked)}")
        leftovers = list(self.tmp.iterdir()) + list(self.dir.rglob("*.tmp"))
        if leftovers:
            self.problems.append(f"leftover scratch files {leftovers[:5]}")
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
        if self.dir.exists():
            self.problems.append(f"scratch directory {self.dir} not removed")

    # ---- shared measurement helpers -------------------------------------

    def windowed(self, seconds: float, cycle) -> int:
        """Run whole cycles while the next would end nearer ``seconds``
        than stopping now; returns the number run (at least one)."""
        t0 = time.perf_counter()
        n = 0
        while True:
            c0 = time.perf_counter()
            cycle(n)
            n += 1
            now = time.perf_counter()
            if now - t0 + (now - c0) / 2 >= seconds:
                return n

    def import_metrics(self) -> dict[str, tuple[float, str]]:
        interp = [
            self.run_child(["-c", "pass"])[0] for _ in range(INTERP_RUNS)
        ]
        runs = [self.importtime() for _ in range(IMPORT_RUNS)]
        modules = {r["modules"] for r in runs}
        if len(modules) != 1:
            self.problems.append(f"import module count varies: {modules}")
        med = {
            k: statistics.median(r[k] for r in runs)
            for k in ("repro.cli", "numpy", "networkx")
        }
        return {
            "import.interp_s": (statistics.median(interp), "s"),
            "import.repro_cli_s": (med["repro.cli"], "s"),
            "import.numpy_s": (med["numpy"], "s"),
            "import.networkx_s": (med["networkx"], "s"),
            "import.modules": (float(runs[0]["modules"]), "count"),
        }

    def importtime(self) -> dict[str, float]:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
            check=True,
        )
        cumulative: dict[str, float] = {}
        modules = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            _, cum, name = line[len("import time:"):].split("|")
            modules += 1
            cumulative.setdefault(name.strip(), int(cum) / 1e6)
        out = {k: cumulative.get(k, 0.0) for k in ("repro.cli", "numpy",
                                                   "networkx")}
        out["modules"] = modules
        return out


# ---- per-layer metrics -----------------------------------------------------

#: Self-time bucket -> per-layer metric.
SELF_METRICS = {
    "process": "process.self_s",
    "import": "import.self_s",
    "driver": "driver.self_s",
    "runner": "runner.self_s",
    "plan": "plan.self_s",
    "structure": "structure.self_s",
    "batch": "batch.self_s",
    "engine": "engine.self_s",
    "store_get": "store.get_s",
    "store_put": "store.put_s",
    "render": "render.self_s",
    "service": "service.self_s",
    "wait": "service.wait_s",
    "client": "client.decode_s",
    "pool": "pool.self_s",
    "other": "trace.other_s",
}
COUNT_METRICS = (
    "runner.cells", "runner.cells_computed", "plan.plans", "plan.phases",
    "structure.calls", "batch.cells", "batch.declined", "engine.runs",
    "store.gets", "store.puts", "pool.maps", "service.jobs",
)
TIME_COUNTS = ("service.job_s", "service.replay_miss_s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    self_s: dict[str, float],
    counts: dict[str, float],
    wall: float,
    untraced_wall: float,
    cycles: int,
) -> tuple[dict, str | None]:
    """Per-cycle layer metrics, and a problem if the partition fails."""
    unknown = set(self_s) - set(SELF_METRICS)
    parts = sum(self_s.get(k, 0.0) for k in SELF_METRICS)
    problem = None
    if unknown:
        problem = f"unexpected span buckets {sorted(unknown)}"
    elif abs(parts - wall) > 1e-9 * wall + 1e-9:
        problem = f"layer self times sum to {parts!r}, traced wall {wall!r}"
    out = {
        metric: (self_s.get(bucket, 0.0) / cycles, "s/cycle")
        for bucket, metric in SELF_METRICS.items()
    }
    out["trace.wall_s"] = (wall / cycles, "s/cycle")
    out["trace.overhead_ratio"] = (wall / untraced_wall - 1.0, "ratio")
    for name in COUNT_METRICS:
        out[name] = (counts.get(name, 0.0) / cycles, "count/cycle")
    for name in TIME_COUNTS:
        out[name] = (counts.get(name, 0.0) / cycles, "s/cycle")
    cells = counts.get("runner.cells", 0.0)
    out["runner.memo_hit_ratio"] = (
        _ratio(cells - counts.get("runner.cells_computed", 0.0), cells),
        "ratio",
    )
    batched = counts.get("batch.cells", 0.0)
    out["batch.batched_ratio"] = (
        _ratio(batched - counts.get("batch.declined", 0.0), batched), "ratio"
    )
    out["store.hit_ratio"] = (
        _ratio(counts.get("store.hits", 0.0), counts.get("store.gets", 0.0)),
        "ratio",
    )
    out["service.replay_hit_ratio"] = (
        _ratio(
            counts.get("service.replay_hits", 0.0),
            counts.get("service.replay_attempts", 0.0),
        ),
        "ratio",
    )
    return out, problem


def add_into(total: dict[str, float], part: dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


def e2e_metrics(
    b: Bench,
    latency: list[tuple[float, float]],
    hits: list[tuple[float, float]],
    elapsed: float,
    setups: list[float],
    rss_mb: float,
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, from ``(wall, calibrated)`` operation
    times and calibrated set-up times.

    ``ops_per_s`` is operations over their summed calibrated time: the
    closed loop's throughput at the reference host speed, without the
    load generator's own time between operations.

    Only the median and p75 are bounded. The p90s sit at the edge of a
    mixture: the service's engine-served p90 meets its periodic 40 ms
    spikes (one job in twelve), and the millisecond store- and
    memo-served tails jumped with every host burst. Their raw
    run-to-run spreads reached 0.2-0.4, beyond any bound, so they go to
    the run's summary on standard error instead.
    """
    ops = len(latency) + len(hits)
    lat = [c for _, c in latency]
    hit = [c for _, c in hits]
    out = {
        "ops_per_s": (ops / (sum(lat) + sum(hit)), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "latency_s.p50": (pct(lat, 50), "s"),
        "latency_s.p75": (pct(lat, 75), "s"),
        "hit_latency_s.p50": (pct(hit, 50), "s"),
    }
    probes = b.cal.probes
    b.summary.append(
        f"{len(lat)} latency samples, p90 {pct(lat, 90):.6f} s; "
        f"{len(hit)} hit samples, p75 {pct(hit, 75):.6f} s, "
        f"p90 {pct(hit, 90):.6f} s; wall: {ops / elapsed:.4f} ops/s, "
        f"p50 {pct([w for w, _ in latency], 50):.6f} s, "
        f"hit p50 {pct([w for w, _ in hits], 50):.6f} s; "
        f"{len(probes)} probes, median {statistics.median(probes):.6f} s, "
        f"range {min(probes):.6f}-{max(probes):.6f} s"
    )
    return out


# ---- cli -------------------------------------------------------------------


def cli_ops(store: Path) -> list[tuple[str, str, list[str]]]:
    direct = [
        ("direct", a, ["-m", "repro", a, "--csv", "-"]) for a in ROUND
    ]
    replay = [
        ("replay", a, ["-m", "repro", "replay", a, "--store", str(store),
                       "--csv", "-"])
        for a in REPLAYABLE
    ]
    return direct + replay


def warm_store(b: Bench, name: str) -> tuple[Path, float]:
    store = b.dir / name
    wall, _, code, _ = b.run_child([CHILD, "warm-store", str(store)])
    if code != 0:
        raise RuntimeError(f"store warm-up exited {code}")
    return store, wall


def oracle(b: Bench, runs: list) -> list[str]:
    """Digests of ``runs`` on the reference loop, in a fresh worker."""
    w = Worker(b)
    try:
        return w.oracle(runs)
    finally:
        w.close()


def run_cli(b: Bench, seconds: float) -> dict:
    b.cal = Calibrated(
        lambda: b.run_child(["-c", "pass"])[0], START_REFERENCE_S
    )
    setups = []
    stores = []
    for k in range(SETUPS if not b.args.trace else 1):
        store, spent = warm_store(b, f"store{k}")
        setups.append(spent * b.cal.mark())
        stores.append(store)
    ops = cli_ops(stores[-1])
    rng = b.inputs.rng
    sequence: list[tuple[str, str, list[str]]] = []
    results: list[tuple[str, str, float, bytes, int]] = []
    calibrated: list[float] = []
    peak = [0.0]

    def cycle(_):
        order = list(ops)
        rng.shuffle(order)
        for kind, artifact, argv in order:
            wall, out, code, rss = b.run_child(argv)
            calibrated.append(wall * b.cal.mark())
            peak[0] = max(peak[0], rss)
            sequence.append((kind, artifact, argv))
            results.append((kind, artifact, wall, out, code))

    for store in stores[:-1]:
        shutil.rmtree(store)
    b.cal.reset()
    budget = seconds / 2 if b.args.trace else seconds
    t0 = time.perf_counter()
    b.windowed(budget, cycle)
    elapsed = time.perf_counter() - t0
    rounds = len(sequence) // len(ops)
    b.summary.append(f"{rounds} cycles")

    traced = []
    if b.args.trace:
        for i, (kind, artifact, argv) in enumerate(sequence):
            out_path = b.dir / f"trace{i}.json"
            wall, out, code, _ = b.run_child(
                [CHILD, "cli", str(out_path), "--", *argv[2:]]
            )
            snap = json.loads(out_path.read_text()) if code == 0 else None
            traced.append((kind, artifact, wall, out, code, snap))

    reference = dict(zip(ROUND, oracle(b, [[a, {}] for a in ROUND])))
    for kind, artifact, wall, out, code, *_ in results + traced:
        b.attempted += 1
        if code != 0:
            b.fail(f"{kind} {artifact} exited {code}")
        elif digest(out) != reference[artifact]:
            b.fail(f"{kind} {artifact} output differs from the reference")

    if not b.args.trace:
        timed = [(r[0], (r[2], c)) for r, c in zip(results, calibrated)]
        return e2e_metrics(
            b, [t for kind, t in timed if kind == "direct"],
            [t for kind, t in timed if kind == "replay"],
            elapsed, setups, peak[0],
        )

    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    wall = 0.0
    for kind, artifact, outside, out, code, snap in traced:
        if snap is None:
            continue
        add_into(self_s, snap["self_s"])
        add_into(counts, snap["counts"])
        self_s["process"] = self_s.get("process", 0.0) + outside - snap["wall"]
        wall += outside
    untraced = sum(r[2] for r in results)
    metrics, problem = layer_metrics(self_s, counts, wall, untraced, rounds)
    if problem:
        b.problems.append(problem)
    return metrics | b.import_metrics()


# ---- sweep -----------------------------------------------------------------


class Worker:
    """A ``child.py worker`` process and its line protocol."""

    def __init__(self, b: Bench) -> None:
        self.proc = b.spawn(
            [CHILD, "worker"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited unexpectedly")
        return json.loads(line)

    def call(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def round(self, runs: list, clear: bool) -> dict:
        return self.call(op="round", runs=runs, clear=clear)

    def oracle(self, runs: list) -> list[str]:
        reply = self.call(op="oracle", runs=runs)
        if "error" in reply:
            raise RuntimeError(f"reference run failed: {reply['error']}")
        return reply["digests"]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc.wait(timeout=60)


def run_sweep(b: Bench, seconds: float) -> dict:
    setups = []
    worker = None
    for _ in range(SETUPS if not b.args.trace else 1):
        if worker is not None:
            worker.close()
        point = b.inputs.design_point()
        b.cal.reset()
        t0 = time.perf_counter()
        worker = Worker(b)
        warm = worker.round(point, clear=True)
        wall = time.perf_counter() - t0
        setups.append(wall * b.cal.mark())
        if "error" in warm:
            raise RuntimeError(f"warm-up round failed: {warm['error']}")

    def measure(points: list, record: list):
        def cycle(i):
            if i >= len(points):
                points.append(b.inputs.design_point())
            fresh = worker.round(points[i], clear=True)
            fresh_scale = b.cal.mark()
            memo = worker.round(points[i], clear=False)
            record.append((fresh, memo, fresh_scale, b.cal.mark()))
        return cycle

    points: list = []
    passes = [[]]
    b.cal.reset()
    budget = seconds / 2 if b.args.trace else seconds
    t0 = time.perf_counter()
    cycles = b.windowed(budget, measure(points, passes[0]))
    elapsed = time.perf_counter() - t0
    peak = vm_hwm_mb(worker.proc.pid)
    if b.args.trace:
        worker.call(op="trace")
        passes.append([])
        cycle = measure(points, passes[1])
        for i in range(cycles):
            cycle(i)

    sample = b.inputs.rng.sample(range(cycles), min(ORACLE_SAMPLE, cycles))
    reference = {i: worker.oracle(points[i]) for i in sample}
    worker.close()
    for record in passes:
        for i, (fresh, memo, *_) in enumerate(record):
            b.attempted += 2
            if "error" in fresh:
                b.fail(f"round {i} failed: {fresh['error']}")
                b.fail(f"memo round {i} not run")
                continue
            if i in reference and fresh["digests"] != reference[i]:
                b.fail(f"round {i} output differs from the reference")
            if "error" in memo:
                b.fail(f"memo round {i} failed: {memo['error']}")
            elif memo["digests"] != fresh["digests"]:
                b.fail(f"memo round {i} output differs from round {i}")

    b.summary.append(f"{cycles} cycles")
    if not b.args.trace:
        ok = [c for c in passes[0] if "error" not in c[0]]
        return e2e_metrics(
            b, [(f["wall"], f["wall"] * fs) for f, _, fs, _ in ok],
            [(m["wall"], m["wall"] * ms) for _, m, _, ms in ok
             if "error" not in m],
            elapsed, setups, peak,
        )

    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    wall = untraced = 0.0
    for (fresh, memo, *_), (f0, m0, *_) in zip(passes[1], passes[0]):
        for traced_round, plain in ((fresh, f0), (memo, m0)):
            if "error" in traced_round or "error" in plain:
                continue
            add_into(self_s, traced_round["trace"]["self_s"])
            add_into(counts, traced_round["trace"]["counts"])
            wall += traced_round["wall"]
            untraced += plain["wall"]
    metrics, problem = layer_metrics(self_s, counts, wall, untraced, cycles)
    if problem:
        b.problems.append(problem)
    return metrics | b.import_metrics()


# ---- service ---------------------------------------------------------------


class Server:
    """A ``repro-knl serve`` process on an ephemeral port."""

    def __init__(self, b: Bench, name: str, trace_out: Path | None) -> None:
        from repro.experiments.client import ServiceClient

        self.b = b
        store = b.dir / name
        self.err_path = b.dir / f"{name}.err"
        argv = ["serve", "--port", "0", "--store", str(store)]
        if trace_out is None:
            argv = ["-m", "repro", *argv]
        else:
            argv = [CHILD, "serve", str(trace_out), "--", *argv]
        self.err = open(self.err_path, "wb")
        self.proc = b.spawn(argv, stdout=subprocess.DEVNULL, stderr=self.err)
        port = self._port()
        self.client = ServiceClient("127.0.0.1", port)
        if not self.client.ping():
            raise RuntimeError("service did not answer ping")

    def _port(self) -> int:
        deadline = time.monotonic() + SERVER_START_S
        while time.monotonic() < deadline:
            for line in self.err_path.read_text().splitlines():
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(
            f"service did not start: {self.err_path.read_text()[-2000:]}"
        )

    def job(self, n: int, tenant: str = "e2ebench") -> tuple[dict, dict]:
        """One figure7 job as ``repro-knl submit`` runs it: submit, wait,
        decode and render. Returns the outcome and its phase times."""
        from repro.experiments.service import result_from_wire

        t0 = time.perf_counter()
        response = self.client.submit(
            "figure7", tenant=tenant, params={"n": n}
        )
        t1 = time.perf_counter()
        done = response.get("state") == "done"
        result = result_from_wire(response["result"]) if done else None
        t2 = time.perf_counter()
        text = cli_text(result) if done else None
        t3 = time.perf_counter()
        outcome = {
            "served": response.get("served"),
            "state": response.get("state"),
            "digest": digest(text) if text is not None else None,
        }
        return outcome, {
            "wall": t3 - t0, "submit": t1 - t0, "client": t2 - t1,
            "render": t3 - t2,
        }

    def warm(self) -> None:
        """Two engine-served and two store-served set-up jobs."""
        done = []
        for _ in range(2):
            n = self.b.inputs.figure7_n()
            outcome, _ = self.job(n, tenant=spans.WARM_TENANT)
            if outcome["served"] != "engine":
                raise RuntimeError(f"set-up job served {outcome}")
            done.append(n)
        for n in done:
            outcome, _ = self.job(n, tenant=spans.WARM_TENANT)
            if outcome["served"] != "store":
                raise RuntimeError(f"set-up resubmission served {outcome}")

    def close(self) -> None:
        self.client.close()
        code = self.b.stop(self.proc)
        self.err.close()
        if code != 0:
            self.b.problems.append(
                f"service exited {code}: {self.err_path.read_text()[-500:]}"
            )


def run_service(b: Bench, seconds: float) -> dict:
    # The load generator is the client: it imports the client modules
    # before any set-up is timed.
    sys.path.insert(0, str(SRC))
    import repro.experiments.client  # noqa: F401
    import repro.experiments.service  # noqa: F401
    setups = []
    server = None
    for k in range(SETUPS if not b.args.trace else 1):
        if server is not None:
            server.close()
        b.cal.reset()
        t0 = time.perf_counter()
        server = Server(b, f"svc{k}", None)
        server.warm()
        setups.append((time.perf_counter() - t0) * b.cal.mark())

    rng = b.inputs.rng
    plan: list[tuple[str, int]] = []

    def cycle_of(record: list, srv: Server):
        def cycle(i):
            if (1 + RESUBMITS) * i >= len(plan):
                n = b.inputs.figure7_n()
                fresh = [n] + [p[1] for p in plan if p[0] == "engine"]
                plan.append(("engine", n))
                plan.extend(
                    ("store", rng.choice(fresh)) for _ in range(RESUBMITS)
                )
            step = 1 + RESUBMITS
            for kind, n in plan[step * i:step * (i + 1)]:
                outcome, times = srv.job(n)
                times["calibrated"] = times["wall"] * b.cal.mark()
                record.append((kind, n, outcome, times))
        return cycle

    passes = [[]]
    b.cal.reset()
    budget = seconds / 2 if b.args.trace else seconds
    t0 = time.perf_counter()
    cycles = b.windowed(budget, cycle_of(passes[0], server))
    elapsed = time.perf_counter() - t0
    peak = vm_hwm_mb(server.proc.pid)
    server.close()
    snap = None
    if b.args.trace:
        trace_out = b.dir / "server-trace.json"
        server = Server(b, "svc-traced", trace_out)
        server.warm()
        passes.append([])
        cycle = cycle_of(passes[1], server)
        for i in range(cycles):
            cycle(i)
        server.close()
        snap = json.loads(trace_out.read_text())

    engine_ns = [n for kind, n in plan if kind == "engine"]
    sample = rng.sample(engine_ns, min(ORACLE_SAMPLE, len(engine_ns)))
    reference = dict(zip(sample, oracle(
        b, [["figure7", {"n": n}] for n in sample]
    )))
    for record in passes:
        direct: dict[int, str] = {}
        for kind, n, outcome, _ in record:
            b.attempted += 1
            if outcome["state"] != "done":
                b.fail(f"job n={n} finished {outcome['state']}")
            elif outcome["served"] != kind:
                b.fail(f"job n={n} served {outcome['served']}, not {kind}")
            elif kind == "engine":
                direct[n] = outcome["digest"]
                if n in reference and outcome["digest"] != reference[n]:
                    b.fail(f"job n={n} differs from the reference")
            elif outcome["digest"] != direct.get(n):
                b.fail(f"resubmitted job n={n} differs from its first run")

    b.summary.append(f"{cycles} cycles")
    if not b.args.trace:
        ok = [
            (kind, (times["wall"], times["calibrated"]))
            for kind, _, outcome, times in passes[0]
            if outcome["state"] == "done"
        ]
        return e2e_metrics(
            b, [t for kind, t in ok if kind == "engine"],
            [t for kind, t in ok if kind == "store"],
            elapsed, setups, peak,
        )

    # Server spans run inside the client's submit round trip; what the
    # round trip spends outside them is queue handoff plus wire.
    self_s = dict(snap["self_s"])
    counts = dict(snap["counts"])
    client = {
        part: sum(r[3][part] for r in passes[1])
        for part in ("wall", "submit", "client", "render")
    }
    wall = client["wall"]
    self_s["wait"] = client["submit"] - sum(self_s.values())
    self_s["client"] = self_s.get("client", 0.0) + client["client"]
    self_s["render"] = self_s.get("render", 0.0) + client["render"]
    self_s["other"] = wall - client["submit"] - client["client"] - (
        client["render"]
    )
    untraced = sum(r[3]["wall"] for r in passes[0])
    metrics, problem = layer_metrics(self_s, counts, wall, untraced, cycles)
    if problem:
        b.problems.append(problem)
    return metrics | b.import_metrics()


WORKLOADS = {"cli": run_cli, "sweep": run_sweep, "service": run_service}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"e2ebench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the load generator and every child it starts: the
    # loops are closed, so nothing runs in parallel anyway, and on a
    # shared 2-core VM cross-core wakeups add host noise to every
    # handoff between client, server and job thread.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bench = Bench(args)
    try:
        metrics = WORKLOADS[args.workload](bench, args.seconds)
    finally:
        bench.close()
    for problem in bench.problems:
        print(f"e2ebench: {problem}", file=sys.stderr)
    print(
        f"e2ebench: {args.workload} seed={args.seed} trace={args.trace} "
        f"{bench.attempted} operations checked; {'; '.join(bench.summary)}",
        file=sys.stderr,
    )
    correct = bench.failed == 0 and not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
