"""``serve-small``: open-loop HTTP load on a ``repro serve`` process.

The service runs in its own process (``python -m repro.cli serve run``),
WAL on, with exactly ``workload.workers`` workers.  Set-up time is from
starting that process until ``/healthz`` reports every worker; it is
measured on ``SETUP_STARTS`` fresh services and the last one takes the
load: a few untimed warm-up jobs, then two stages:

* **steady** — one job every ``1/steady_rate`` seconds for ``seconds``
  seconds.  Latency runs from each job's *due* send time until the
  watcher sees its terminal status, so a late sender counts against it.
* **burst** — ``burst_jobs`` jobs submitted back to back, ``bursts``
  times, each after the service has gone idle.  Throughput is jobs done
  over the service-clock span from the first submit to the last finish.

The client uses two threads: a sender on the schedule, and a watcher
that polls ``GET /jobs`` every ``WATCH_INTERVAL_S`` (far below the
~60 ms median latency) and fetches ``GET /jobs/<id>`` once per job when
it turns terminal.  Per-job breakdowns are differences of timestamps on
one clock: the service's (submitted/started/finished) or the client's
(due/sent/returned/seen), never across the two.

Every job's labels and Q are checked against a direct ``louvain`` on the
same resolved graph ref, computed once per distinct ref before the load.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from measure import ROOT, labels_digest, percentile, process_peak_rss_mb
from workloads import PINNED

SETUP_STARTS = 3
WARMUP_JOBS_PER_WORKER = 2
WATCH_INTERVAL_S = 0.01
#: A job not terminal this long after it was due counts as failed.
JOB_TIMEOUT_S = 30.0
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 20.0


class _Job:
    __slots__ = ("index", "ref", "due", "sent", "returned", "seen", "job_id",
                 "record")

    def __init__(self, index: int, ref: str, due: float):
        self.index, self.ref, self.due = index, ref, due
        self.sent = self.returned = self.seen = None
        self.job_id = None
        self.record = None


class _Service:
    """A ``repro serve`` child process in its own process group."""

    def __init__(self, work_dir: str, name: str, workers: int):
        self.out_path = os.path.join(work_dir, f"{name}.out")
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.started = time.monotonic()
        with open(self.out_path, "w", encoding="utf-8") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "serve", "run",
                 "--spool", os.path.join(work_dir, f"{name}.spool"),
                 "--port", "0",
                 "--min-workers", str(workers),
                 "--max-workers", str(workers)],
                cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.url = None

    def wait_healthy(self, workers: int) -> float:
        """Seconds from process start until ``/healthz`` shows ``workers``."""
        from repro.serve import ServeClient

        deadline = self.started + START_TIMEOUT_S
        while self.url is None:
            with open(self.out_path, encoding="utf-8") as fh:
                found = re.search(r"http://[\d.]+:\d+", fh.read())
            if found:
                self.url = found.group(0)
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"service did not start: {self.log()}")
            else:
                time.sleep(0.002)
        client = ServeClient(self.url, timeout=5.0, retries=0)
        while True:
            try:
                if client.health()["workers"] >= workers:
                    return time.monotonic() - self.started
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"service not healthy: {self.log()}")
            time.sleep(0.002)

    def log(self) -> str:
        with open(self.out_path, encoding="utf-8") as fh:
            return fh.read()[-2000:]

    def stop(self) -> None:
        """SIGINT (immediate stop), then SIGKILL whatever is left."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def _references(refs: list[str]) -> dict:
    """``ref -> (labels digest, Q)`` of a direct ``louvain`` per ref."""
    from repro.core.config import LouvainConfig
    from repro.core.driver import louvain
    from repro.serve.job import resolve_graph_ref

    config = LouvainConfig(**PINNED)
    out = {}
    for ref in refs:
        result = louvain(resolve_graph_ref(ref), config)
        out[ref] = (labels_digest(result.communities), result.modularity)
    return out


def _drive(client, jobs: list[_Job]) -> None:
    """Send ``jobs`` on their schedule and watch them to a terminal state."""
    from repro.serve.job import JobStatus

    pending: dict[str, _Job] = {}
    lock = threading.Lock()
    sending_done = threading.Event()
    errors: list[BaseException] = []

    def sender():
        try:
            for job in jobs:
                delay = job.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                job.sent = time.monotonic()
                job_id = client.submit({"graph": job.ref})
                job.returned = time.monotonic()
                with lock:
                    job.job_id = job_id
                    pending[job_id] = job
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            sending_done.set()

    def watcher():
        try:
            while True:
                with lock:
                    if sending_done.is_set() and not pending:
                        return
                    waiting = dict(pending)
                if waiting:
                    listing = client.jobs()
                    seen = time.monotonic()
                    for entry in listing:
                        job = waiting.get(entry["job_id"])
                        if job is None or (
                                entry["status"] not in JobStatus.TERMINAL
                                and seen - job.due < JOB_TIMEOUT_S):
                            continue
                        job.seen = seen
                        job.record = client.status(job.job_id)
                        with lock:
                            del pending[job.job_id]
                time.sleep(WATCH_INTERVAL_S)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=sender, name="perfbench-sender"),
               threading.Thread(target=watcher, name="perfbench-watcher")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _check(client, jobs: list[_Job], references: dict) -> dict:
    """``job -> problem`` for each job not DONE or with a wrong answer."""
    bad = {}
    for job in jobs:
        record = job.record
        if record is None or record["status"] != "done":
            status = record["status"] if record else "unsent"
            bad[job] = f"job {job.index} ({job.ref}) ended {status}"
            continue
        result = client.result(job.job_id)
        digest, q = references[job.ref]
        if labels_digest(result["communities"]) != digest:
            bad[job] = f"job {job.job_id} labels differ from louvain"
        elif result["meta"]["modularity"] != q:
            bad[job] = f"job {job.job_id} Q differs from louvain"
    return bad


def _counter(metrics_text: str, name: str) -> float:
    found = re.search(rf"^repro_{name}_total (\S+)$", metrics_text, re.M)
    return float(found.group(1)) if found else 0.0


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    from repro.serve import ServeClient

    rate = workload.steady_rate
    steady_count = max(1, round(seconds * rate))
    refs = [workload.ref(seed, i) for i in range(workload.refs)]
    references = _references(refs)
    work_dir = str(ROOT / ".perfbench_work" / str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    setups: list[float] = []
    service = None
    try:
        for attempt in range(SETUP_STARTS):
            if service is not None:
                service.stop()
            service = _Service(work_dir, f"serve-{attempt}", workload.workers)
            setups.append(service.wait_healthy(workload.workers))
        client = ServeClient(service.url, timeout=10.0)

        # Untimed warm-up: each worker finishes its lazy imports on its
        # first job, which would otherwise land in the steady stage's tail.
        now = time.monotonic()
        warmup = [_Job(i, workload.ref(seed, i), now)
                  for i in range(WARMUP_JOBS_PER_WORKER * workload.workers)]
        _drive(client, warmup)
        start = time.monotonic() + 0.05
        steady = [_Job(i, workload.ref(seed, i), start + i / rate)
                  for i in range(steady_count)]
        _drive(client, steady)
        bursts = []
        for b in range(workload.bursts):
            now = time.monotonic()
            burst = [_Job(i, workload.ref(seed, i), now)
                     for i in range(b * workload.burst_jobs,
                                    (b + 1) * workload.burst_jobs)]
            _drive(client, burst)
            bursts.append(burst)
        jobs = warmup + steady + [job for burst in bursts for job in burst]
        bad = _check(client, jobs, references)
        metrics_text = client.metrics_text()
        rss = process_peak_rss_mb(service.proc.pid)
    finally:
        if service is not None:
            service.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(ROOT / ".perfbench_work")
        except OSError:
            pass

    done = [j for j in steady if j not in bad]
    # A failed job counts as missing any latency limit.
    latency = [1e3 * (JOB_TIMEOUT_S if j in bad else j.seen - j.due)
               for j in steady]
    rates = []
    for burst in bursts:
        finished = [j.record for j in burst if j not in bad]
        span = (max(r["finished_at"] for r in finished)
                - min(r["submitted_at"] for r in finished)) if finished else 0
        rates.append(len(finished) / span if span > 0 else 0.0)
    summary = {
        "attempted": len(jobs),
        "failed": len(bad),
        "problems": list(bad.values()),
        "steady_jobs": steady_count,
        "burst_jobs": [len(b) for b in bursts],
        "burst_rates": rates,
    }
    burst_done = [j for burst in bursts for j in burst if j not in bad]
    if trace:
        summary["metrics"] = _layer_metrics(done, burst_done, metrics_text)
        return summary
    summary["metrics"] = {
        "detect_s": statistics.median(j.record["meta"]["elapsed"]
                                      for j in done + burst_done),
        "setup_s": statistics.median(setups),
        "modularity": statistics.fmean(references[j.ref][1] for j in done),
        "peak_rss_mb": rss,
        "latency_p50_ms": statistics.median(latency),
        "latency_p90_ms": percentile(latency, 90),
        "jobs_per_s": statistics.median(rates),
    }
    return summary


def _ms(values) -> float:
    return 1e3 * statistics.median(values)


def _layer_metrics(done: list[_Job], burst_done: list[_Job],
                   metrics_text: str) -> dict:
    def service(job, a, b):
        return job.record[b] - job.record[a]

    return {
        "serve.submit_ms": _ms(j.returned - j.sent for j in done),
        "serve.send_lag_ms": _ms(j.sent - j.due for j in done),
        "serve.queue_wait_ms": _ms(service(j, "submitted_at", "started_at")
                                   for j in burst_done),
        "serve.detect_ms": _ms(j.record["meta"]["elapsed"] for j in done),
        "serve.completion_wait_ms": _ms(
            service(j, "started_at", "finished_at")
            - j.record["meta"]["elapsed"] for j in done),
        "serve.notice_ms": _ms(
            (j.seen - j.sent) - service(j, "submitted_at", "finished_at")
            for j in done),
        "serve.jobs_retried": _counter(metrics_text, "serve_jobs_retried"),
        "serve.jobs_failed": _counter(metrics_text, "serve_jobs_failed"),
    }
