"""The benchmark's three workloads, run in a process of their own.

``run.py`` starts this module with the BLAS thread variables removed
from the environment and ``src`` on ``PYTHONPATH``; see NOTES.md for
why each workload exists and what each metric should move.  The last
line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it records the
environment (nproc, BLAS threads and library versions).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import http.client
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import frames as gen
from spans import Tracer

from repro.core import MultiScalePedestrianDetector
from repro.detect import non_maximum_suppression
from repro.detect.sliding import anchors_to_boxes, classify_grid
from repro.hog.extractor import HogFeatureGrid
from repro.hog.histogram import cell_histograms
from repro.hog.normalize import normalize_blocks
from repro.hog.pyramid import FeaturePyramid
from repro.imgproc.gradients import gradient_polar
from repro.imgproc.validate import ensure_grayscale
from repro.parallel import DetectorSpec, ProcessWorkerPool
from repro.serve.client import ServeClient
from repro.stream import ArraySource, FrameStatus, StreamPipeline
from repro.telemetry import MetricsRegistry

ROOT = Path(__file__).resolve().parent.parent

#: Benchmark outputs (cached per-seed models, traces); git-ignored.
OUT_DIR = ROOT / ".perfbench"

#: Every metric this benchmark prints, with its unit.  ``--trace 0``
#: prints the end-to-end ones, ``--trace 1`` the per-layer ones.
END_TO_END = {
    "frame_ms_p50": "ms", "frame_ms_p90": "ms", "fps": "1/s",
    "setup_s": "s", "rss_mb": "MB", "recall": "ratio", "precision": "ratio",
}
PER_LAYER = {
    "imgproc.gradient_ms": "ms", "hog.histogram_ms": "ms",
    "hog.normalize_ms": "ms", "hog.pyramid_ms": "ms",
    "detect.classify_ms": "ms", "detect.nms_ms": "ms",
    "detect.windows_scanned": "count", "detect.accept_ratio": "ratio",
    "detect.nms_kept": "count", "arena.slab_mb": "MB",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
    "stream.worker_busy_share": "ratio", "stream.compute_ms": "ms",
    "stream.overhead_ms": "ms", "stream.intake_block_ms": "ms",
    "parallel.batch_size_mean": "count",
    "parallel.results_shm_share": "ratio", "parallel.submit_ms": "ms",
    "parallel.roundtrip_overhead_ms": "ms", "parallel.pool_start_s": "s",
    "serve.http_submit_ms": "ms", "serve.result_wait_ms": "ms",
    "serve.service_ms": "ms", "serve.http_overhead_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.connections_per_request": "ratio", "serve.ready_s": "s",
}

#: The kernel layers of the traced ledger, in call order.
KERNEL_LAYERS = ("imgproc.gradient", "hog.histogram", "hog.normalize",
                 "hog.pyramid", "detect.classify", "detect.nms")

#: Recall below this on frame-1080p fails the run.
RECALL_FLOOR = 0.5

#: Cold starts per run; ``setup_s`` is their median.
SETUP_STARTS = 7
SERVE_STARTS = 3

#: serve-240p clients run this long before the measured window opens,
#: so every server worker thread has built its detector and arena.
SERVE_WARMUP_S = 1.0

SERVE_CLIENTS = 2
SERVER_START_TIMEOUT_S = 60.0


@dataclasses.dataclass(frozen=True)
class Geometry:
    """Frame size, distinct frames per run, pedestrians per frame."""

    height: int
    width: int
    frames: int
    pedestrians: int


GEOMETRIES = {
    "full": {
        "frame-1080p": Geometry(1080, 1920, 6, 32),
        "stream-480p": Geometry(480, 640, 32, 12),
        "serve-240p": Geometry(240, 320, 128, 3),
    },
    # The smoke mode of test_perfbench.py: same code, tiny frames.
    "tiny": {
        name: Geometry(176, 352, 3, 4)
        for name in ("frame-1080p", "stream-480p", "serve-240p")
    },
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- environment ---------------------------------------------------------


def blas_info() -> tuple[int | None, str | None]:
    """Effective OpenBLAS thread count and version, read from the library
    NumPy loaded; ``(None, None)`` when NumPy does not bundle OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):  # 64-bit and 32-bit integer builds
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads"
                                       f"{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}",
                                 None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            config = get_config().decode()
            match = re.search(r"OpenBLAS (\S+)", config)
            return get_threads(), match.group(1) if match else config
    return None, None


def environment() -> dict:
    threads, version = blas_info()
    return {
        "nproc": nproc(), "blas_threads": threads,
        "openblas": version, "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- measurement helpers -------------------------------------------------


def peak_rss_mb(pids: list[int]) -> float:
    """Peak resident set (``VmHWM``) summed over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    pids, todo = [], [pid]
    while todo:
        current = todo.pop()
        pids.append(current)
        for children in glob.glob(f"/proc/{current}/task/*/children"):
            with open(children) as f:
                todo.extend(int(c) for c in f.read().split())
    return pids


def pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quality(detections: list, inputs: list[gen.Frame]) -> tuple[float, float]:
    """``(recall, precision)`` of per-frame detections vs planted boxes."""
    matched = unmatched = planted = 0
    for dets, frame in zip(detections, inputs):
        m, u = gen.match(dets, frame.boxes)
        matched, unmatched = matched + m, unmatched + u
        planted += len(frame.boxes)
    recall = matched / planted if planted else 0.0
    found = matched + unmatched
    return recall, matched / found if found else 0.0


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    dropped: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


# -- the kernel ledger ---------------------------------------------------


def kernel_ledger(detector: MultiScalePedestrianDetector,
                  image: np.ndarray, tracer: Tracer) -> tuple[list, int, int]:
    """``detector.detect(image)`` rebuilt from the layers' public calls,
    each inside a span; returns ``(kept, windows scanned, accepted)``.

    Mirrors the feature-pyramid path of
    :meth:`repro.detect.SlidingWindowDetector.detect`, including the
    arena slabs it hands each kernel, so its detections must equal
    ``detect()``'s; the traced runs check that they do.
    """
    cfg, arena = detector.config, detector.arena
    params = cfg.hog

    def slab(name, shape):
        return arena.get(name, shape) if arena is not None else None

    with tracer.span("frame"):
        gray = ensure_grayscale(image)
        with tracer.span("imgproc.gradient"):
            kwargs = {}
            if arena is not None:
                kwargs = dict(out_magnitude=slab("hog.magnitude", gray.shape),
                              out_orientation=slab("hog.orientation",
                                                   gray.shape),
                              arena=arena)
            magnitude, orientation = gradient_polar(
                gray, method=params.gradient_filter,
                signed=params.signed_gradients, **kwargs)
        with tracer.span("hog.histogram"):
            cs = params.cell_size
            cells = cell_histograms(
                magnitude, orientation, params,
                out=slab("hog.cells", (gray.shape[0] // cs,
                                       gray.shape[1] // cs, params.n_bins)),
                arena=arena)
        with tracer.span("hog.normalize"):
            rows, cols = params.block_grid_shape(*cells.shape[:2])
            blocks = normalize_blocks(
                cells, params, out=slab("hog.blocks",
                                        (rows, cols, params.block_dim)))
        base = HogFeatureGrid(cells=cells, blocks=blocks, params=params)
        with tracer.span("hog.pyramid"):
            pyramid = FeaturePyramid.build(
                image, cfg.scales, detector.extractor, detector.scaler,
                base=base, chained=cfg.chained_pyramid)
        candidates, scanned = [], 0
        for grid in pyramid:
            with tracer.span("detect.classify"):
                scores = classify_grid(
                    grid, detector.model, stride=cfg.stride,
                    scorer=cfg.scorer, threshold=cfg.threshold,
                    cascade_k=cfg.cascade_k, arena=arena)
                boxes = anchors_to_boxes(scores, grid, cfg.threshold,
                                         stride=cfg.stride)
            scanned += scores.size
            candidates.extend(boxes)
        with tracer.span("detect.nms"):
            kept = non_maximum_suppression(candidates,
                                           iou_threshold=cfg.nms_iou)
    return kept, scanned, len(candidates)


def kernel_layers(detector, images: list[np.ndarray], refs: list,
                  seconds: float, out: Outcome, dump: Path) -> None:
    """Fill the kernel per-layer metrics.

    Alternates an untraced ``detect()`` with the traced ledger on each
    frame, for ``seconds`` and at least one pass over ``images``, so
    coverage and overhead compare the two under the same conditions.
    ``refs`` are ``detect()``'s detections per image; the spans are
    written to ``dump``.
    """
    tracer = Tracer()
    untraced_ms: list[float] = []
    scanned = accepted = kept_total = n = 0
    deadline = time.perf_counter() + seconds
    while n < len(images) or time.perf_counter() < deadline:
        i = n % len(images)
        t0 = time.perf_counter()
        detector.detect(images[i])
        untraced_ms.append((time.perf_counter() - t0) * 1e3)
        kept, s, a = kernel_ledger(detector, images[i], tracer)
        out.check(kept == refs[i],
                  f"kernel ledger differs from detect() on frame {i}")
        scanned, accepted, kept_total, n = (scanned + s, accepted + a,
                                            kept_total + len(kept), n + 1)
    m = out.metrics
    for layer in KERNEL_LAYERS:
        m[layer + "_ms"] = tracer.median_ms(layer, per_root=True)
    m["detect.windows_scanned"] = scanned / n
    m["detect.accept_ratio"] = accepted / scanned if scanned else 0.0
    m["detect.nms_kept"] = kept_total / n
    m["arena.slab_mb"] = (detector.arena.slab_bytes / 2**20
                          if detector.arena is not None else 0.0)
    base = median(untraced_ms)
    m["trace.coverage"] = sum(m[layer + "_ms"]
                              for layer in KERNEL_LAYERS) / base
    m["trace.overhead"] = tracer.median_ms("frame") / base - 1.0
    tracer.dump(dump)


# -- frame-1080p ---------------------------------------------------------


def run_frame(args, inputs: list[gen.Frame], model: Path) -> Outcome:
    """In-process ``detect()``, one caller, one frame at a time."""
    out = Outcome()
    config = gen.detector_config()
    setups = []
    detector = None
    for i in range(SETUP_STARTS):
        detector = None  # let the previous arena go before the next start
        start = time.perf_counter()
        detector = MultiScalePedestrianDetector.load_model(model, config)
        detector.detect(inputs[i % len(inputs)].image)
        setups.append(time.perf_counter() - start)
    images = [f.image for f in inputs]
    refs = [detector.detect(image).detections for image in images]
    recall, precision = quality(refs, inputs)
    out.check(recall >= RECALL_FLOOR,
              f"recall {recall:.3f} below the floor {RECALL_FLOOR}")

    # The traced run gives half its window to the kernel ledger.
    window = args.seconds / 2 if args.trace else args.seconds
    latencies, ok = [], 0
    nan_at = 1 if args.inject_nan else -1
    start = time.perf_counter()
    deadline = start + window
    while out.attempted < len(images) or time.perf_counter() < deadline:
        i = out.attempted % len(images)
        corrupt = out.attempted == nan_at
        image = gen.nan_frame(*images[0].shape) if corrupt else images[i]
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            result = detector.detect(image)
        except Exception as exc:  # a failed frame is counted, not fatal
            out.failed += 1
            out.check(corrupt, f"frame {i} failed: {exc!r}")
            continue
        latencies.append((time.perf_counter() - t0) * 1e3)
        ok += 1
        out.check(not corrupt, "a NaN frame was not rejected")
        out.check(result.detections == refs[i],
                  f"frame {i}: detections differ from the first pass")
    elapsed = time.perf_counter() - start
    out.metrics.update(
        frame_ms_p50=median(latencies), frame_ms_p90=pct(latencies, 90),
        fps=ok / elapsed, setup_s=median(setups),
        rss_mb=peak_rss_mb([os.getpid()]), recall=recall,
        precision=precision)
    if args.trace:
        kernel_layers(detector, images, refs, window, out,
                      OUT_DIR / f"trace-{args.workload}-kernels.json")
    return out


# -- stream-480p ---------------------------------------------------------


def run_stream(args, inputs: list[gen.Frame], model: Path) -> Outcome:
    """``StreamPipeline`` on the process backend over a saturated clip."""
    out = Outcome()
    config = gen.detector_config()
    workers = nproc()
    images = [f.image for f in inputs]
    reference = MultiScalePedestrianDetector.load_model(model, config)
    refs = [reference.detect(image).detections for image in images]
    recall, precision = quality(refs, inputs)

    setups = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        detector = MultiScalePedestrianDetector.load_model(model, config)
        with StreamPipeline(detector, workers=workers, policy="block",
                            backend="process") as pipeline:
            for first in pipeline.process(ArraySource(images[:1])):
                setups.append(time.perf_counter() - start)
                out.check(first.ok and list(first.detections) == refs[0],
                          "first streamed frame differs from detect()")

    tracer = Tracer(enabled=bool(args.trace))
    registry = MetricsRegistry() if args.trace else None
    nan_at = 1 if args.inject_nan else -1
    blocked_ms: list[float] = []

    def source(seconds: float):
        """The clip: the next frame is always ready; stops at the
        deadline.  Time between yields is the intake block."""
        deadline = time.perf_counter() + seconds
        n = 0
        while n < len(images) or time.perf_counter() < deadline:
            frame = (gen.nan_frame(*images[0].shape) if n == nan_at
                     else images[n % len(images)])
            t0 = time.perf_counter()
            yield frame
            t1 = time.perf_counter()
            tracer.add("stream.intake_block", t0, t1)
            blocked_ms.append((t1 - t0) * 1e3)
            n += 1

    window = args.seconds / 2 if args.trace else args.seconds
    latencies, compute, overhead = [], [], []
    pipeline = StreamPipeline(reference, workers=workers, policy="block",
                              backend="process", telemetry=registry)
    try:
        # Warm the pool: every worker builds its detector and arena.
        for _ in pipeline.process(ArraySource(images[:2 * workers])):
            pass
        blocked_ms.clear()
        for fr in pipeline.process(source(window)):
            out.attempted += 1
            i = fr.index % len(images)
            if not fr.ok:
                out.failed += fr.status is FrameStatus.FAILED
                out.dropped += fr.status is FrameStatus.DROPPED
                out.check(fr.index == nan_at,
                          f"frame {fr.index} {fr.status.value}: {fr.error}")
                continue
            out.check(fr.index != nan_at, "a NaN frame was not rejected")
            out.check(list(fr.detections) == refs[i],
                      f"frame {fr.index}: stream detections differ from "
                      f"detect()")
            latency = fr.latency_s * 1e3
            latencies.append(latency)
            compute.append(fr.result.timings.total * 1e3)
            overhead.append(latency - compute[-1])
        report = pipeline.report()
        rss = peak_rss_mb(process_tree(os.getpid()))
    finally:
        pipeline.close()
    out.metrics.update(
        frame_ms_p50=median(latencies), frame_ms_p90=pct(latencies, 90),
        fps=report.frames_ok / report.elapsed_s, setup_s=median(setups),
        rss_mb=rss, recall=recall, precision=precision)
    if args.trace:
        m = out.metrics
        m["stream.worker_busy_share"] = report.worker_utilization
        m["stream.compute_ms"] = median(compute)
        m["stream.overhead_ms"] = median(overhead)
        m["stream.intake_block_ms"] = statistics.fmean(blocked_ms)
        counters = registry.snapshot().counters
        frames_sent = (counters.get("parallel.frames_shm", 0)
                       + counters.get("parallel.frames_pickled", 0))
        batches = counters.get("parallel.batches", 0)
        m["parallel.batch_size_mean"] = (frames_sent / batches
                                         if batches else 1.0)
        m["parallel.results_shm_share"] = (
            counters.get("parallel.results_shm", 0) / frames_sent)
        drive_pool(reference, images, refs, workers, window, tracer, out)
        kernel_layers(reference, images, refs, 0.0, out,
                      OUT_DIR / f"trace-{args.workload}-kernels.json")
        tracer.dump(OUT_DIR / f"trace-{args.workload}.json")
    return out


def drive_pool(detector, images: list[np.ndarray], refs: list, workers: int,
               seconds: float, tracer: Tracer, out: Outcome) -> None:
    """Drive ``ProcessWorkerPool`` directly, one frame in flight, to split
    a round trip into the worker's compute and the transport around it."""
    start = time.perf_counter()
    pool = ProcessWorkerPool(DetectorSpec.from_detector(detector), workers)
    try:
        roundtrip_overhead, pool_start = [], None
        deadline = start + seconds
        n = 0
        while n < len(images) or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            with tracer.span("parallel.submit"):
                pool.submit(0, n, images[n % len(images)], t0)
            while True:
                message = pool.next_message(timeout=1.0)
                if message is not None and message[0] == "result":
                    break
                if not pool.healthy:
                    raise RuntimeError("the worker pool lost a process")
            rt = time.perf_counter() - t0
            tracer.add("parallel.roundtrip", t0, t0 + rt)
            _, _, index, status, result, error, _, busy_s, _ = message
            out.check(status == "ok" and list(result.detections)
                      == refs[index % len(refs)],
                      f"pool frame {index}: {status} {error} or detections "
                      f"differ from detect()")
            if pool_start is None:
                pool_start = time.perf_counter() - start
            else:  # the first frame warms the worker; not a round trip
                roundtrip_overhead.append((rt - busy_s) * 1e3)
            n += 1
    finally:
        pool.close()
    out.metrics["parallel.submit_ms"] = tracer.median_ms("parallel.submit")
    out.metrics["parallel.roundtrip_overhead_ms"] = median(roundtrip_overhead)
    out.metrics["parallel.pool_start_s"] = pool_start


# -- serve-240p ----------------------------------------------------------


class Server:
    """``repro-das serve --model <npz> --port 0`` as a child process."""

    def __init__(self, model: Path) -> None:
        self.start = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--model",
             str(model), "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.lines: list[str] = []
        self._port: list[int] = []
        self._announced = threading.Event()
        self._pump = threading.Thread(target=self._read_stderr, daemon=True)
        self._pump.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line.rstrip("\n"))
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                self._port.append(int(match.group(1)))
                self._announced.set()
        self._announced.set()  # EOF: the server died before announcing

    def wait_ready(self) -> tuple[int, float]:
        """``(port, seconds from spawn until /readyz answers 200)``."""
        if not self._announced.wait(SERVER_START_TIMEOUT_S) or not self._port:
            raise RuntimeError("server never announced its port:\n"
                               + "\n".join(self.lines[-20:]))
        port = self._port[0]
        with ServeClient(port=port) as probe:
            while True:
                try:
                    if probe.ready():
                        break
                except (OSError, http.client.HTTPException):
                    pass
                if time.perf_counter() - self.start > SERVER_START_TIMEOUT_S:
                    raise RuntimeError("server never became ready")
                time.sleep(0.002)
        return port, time.perf_counter() - self.start

    def stop(self) -> None:
        """SIGINT (a clean drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._pump.join(timeout=5)


def serve_one(client: ServeClient, session: str, frame: np.ndarray,
              tracer: Tracer) -> tuple[dict, float, float, float]:
    """Submit one frame and wait for its result (closed loop).

    Returns ``(result, submit s, result wait s, round trip s)``.
    """
    with tracer.span("serve.roundtrip"):
        t0 = time.perf_counter()
        with tracer.span("serve.http_submit"):
            ticket = client.submit_frame(session, frame)
        t1 = time.perf_counter()
        if not ticket["accepted"]:
            raise RuntimeError(f"frame refused: {ticket}")
        with tracer.span("serve.result_wait"):
            got: list = []
            while not got:
                got = client.results(session, max_items=1,
                                     timeout=5.0)["results"]
        t2 = time.perf_counter()
    return got[0], t1 - t0, t2 - t1, t2 - t0


def run_serve(args, inputs: list[gen.Frame], model: Path) -> Outcome:
    """Two closed-loop HTTP clients against ``repro-das serve``."""
    out = Outcome()
    images = [f.image for f in inputs]
    reference = MultiScalePedestrianDetector.load_model(
        model, gen.detector_config())
    refs = [reference.detect(image).detections for image in images]
    recall, precision = quality(refs, inputs)

    tracer = Tracer(enabled=bool(args.trace))
    setups, ready = [], []
    server = None
    try:
        for _ in range(SERVE_STARTS):
            if server is not None:
                server.stop()
            server = Server(model)
            port, ready_s = server.wait_ready()
            with ServeClient(port=port) as client:
                session = client.open_session()
                first, *_ = serve_one(client, session, images[0],
                                      Tracer(enabled=False))
                setups.append(time.perf_counter() - server.start)
                client.close_session(session)
            ready.append(ready_s)
            out.check(first["status"] == "ok"
                      and first["n_detections"] == len(refs[0]),
                      f"first served frame: {first}")

        records: list[list] = [[] for _ in range(SERVE_CLIENTS)]
        lock = threading.Lock()
        start = time.perf_counter() + SERVE_WARMUP_S
        deadline = start + args.seconds

        def client_loop(c: int) -> None:
            try:
                with ServeClient(port=port) as client:
                    session = client.open_session()
                    n, offset = 0, c * len(images) // SERVE_CLIENTS
                    while n < 3 or time.perf_counter() < deadline:
                        i = (offset + n) % len(images)
                        corrupt = args.inject_nan and c == 0 and n == 1
                        frame = gen.nan_frame(*images[0].shape) if corrupt \
                            else images[i]
                        res, submit_s, wait_s, rt_s = serve_one(
                            client, session, frame, tracer)
                        sent = time.perf_counter() - rt_s
                        records[c].append((n, i, corrupt, res, submit_s,
                                           wait_s, rt_s, sent >= start))
                        n += 1
                    client.close_session(session)
            except Exception as exc:  # reported as a failed check
                with lock:
                    out.errors.append(f"client {c}: {exc!r}")

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(SERVE_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=args.seconds + 60)
            out.check(not t.is_alive(), "a client thread hung")
        elapsed = time.perf_counter() - start
        with ServeClient(port=port) as client:
            metrics = client.metrics()["samples"]
        rss = peak_rss_mb(process_tree(server.proc.pid))
    finally:
        if server is not None:
            server.stop()

    latencies, submit, wait, service, overhead = [], [], [], [], []
    for c, recs in enumerate(records):
        for n, i, corrupt, res, submit_s, wait_s, rt_s, measured in recs:
            out.attempted += 1
            out.check(res["index"] == n,
                      f"client {c}: result {res['index']} arrived for "
                      f"submission {n}")
            if res["status"] != "ok":
                out.failed += res["status"] == "failed"
                out.dropped += res["status"] == "dropped"
                out.check(corrupt, f"client {c} frame {n}: {res}")
                continue
            out.check(not corrupt, "a NaN frame was not rejected")
            out.check(res["n_detections"] == len(refs[i]),
                      f"client {c} frame {n}: {res['n_detections']} "
                      f"detections, detect() found {len(refs[i])}")
            if not measured:
                continue
            latencies.append(rt_s * 1e3)
            submit.append(submit_s * 1e3)
            wait.append(wait_s * 1e3)
            service.append(res["latency_ms"])
            overhead.append(rt_s * 1e3 - res["latency_ms"])
    out.metrics.update(
        frame_ms_p50=median(latencies), frame_ms_p90=pct(latencies, 90),
        fps=len(latencies) / elapsed, setup_s=median(setups),
        rss_mb=rss, recall=recall, precision=precision)
    if args.trace:
        def sample(name: str) -> float:
            return metrics[(name, ())]

        m = out.metrics
        m["serve.http_submit_ms"] = median(submit)
        m["serve.result_wait_ms"] = median(wait)
        m["serve.service_ms"] = median(service)
        m["serve.http_overhead_ms"] = median(overhead)
        count = sample("repro_serve_batch_size_count")
        m["serve.batch_size_mean"] = (
            sample("repro_serve_batch_size_sum") / count if count else 1.0)
        requests = sample("repro_serve_http_requests")
        m["serve.connections_per_request"] = (
            sample("repro_serve_http_connections") / requests
            if requests else 0.0)
        m["serve.ready_s"] = median(ready)
        kernel_layers(reference, images, refs, 0.0, out,
                      OUT_DIR / f"trace-{args.workload}-kernels.json")
        tracer.dump(OUT_DIR / f"trace-{args.workload}.json")
    return out


# -- entry point ---------------------------------------------------------

RUNNERS = {"frame-1080p": run_frame, "stream-480p": run_stream,
           "serve-240p": run_serve}


def model_for(seed: int) -> Path:
    """The seed's trained model, trained once and kept in OUT_DIR."""
    path = OUT_DIR / f"model-{seed}.npz"
    if not path.exists():
        OUT_DIR.mkdir(exist_ok=True)
        partial = OUT_DIR / f"model-{seed}.{os.getpid()}.npz"
        subprocess.run([sys.executable, gen.__file__, str(seed),
                        str(partial)], check=True)
        partial.replace(path)
    return path


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=RUNNERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--geometry", choices=GEOMETRIES, default="full",
                        help="'tiny' is the smoke mode: small frames")
    parser.add_argument("--inject-nan", action="store_true",
                        help="make one frame all-NaN; it must be counted "
                        "as failed")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    geometry = GEOMETRIES[args.geometry][args.workload]
    model = model_for(args.seed)
    inputs = gen.make_frames(args.seed, geometry.frames, geometry.height,
                             geometry.width, geometry.pedestrians)
    out = RUNNERS[args.workload](args, inputs, model)
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "environment": environment(), "dropped": out.dropped,
        "errors": out.errors[:20],
    }))
    print(json.dumps({
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(out.metrics.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in names.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
