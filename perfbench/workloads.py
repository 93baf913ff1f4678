"""The four seeded workloads, the op harness and the checks on outputs.

Every input is a pure function of (seed, item index), so a run that gets
through more items than another still agrees with it on the items both ran.
The first `prefix_items` items of a workload always run; their outputs feed
the output digest and the per-layer counts, so both repeat exactly for a
seed. Why each workload exists is written down in perfbench/README.md.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
PAPER_KEY = dict(sigma=16.0, rho=45.92, beta=4.0, x0=1.0, y0=0.5, z0=0.9)
DEGENERATE_STEP = 1e-6  # the CLI's default step; its keystream is all zeros
TRANSIENT = 2000
ORACLE_BYTES = 1024
DIRECTIONS = ("horizontal", "vertical", "diagonal")


def spawn(argv: list[str], env: dict, stdout: Path | None = None,
          stderr: Path | None = None) -> tuple[int, float, int]:
    """Run argv to completion: (exit code, wall seconds, peak RSS in bytes)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, fd, str(path) if path else os.devnull, flags, 0o644)
               for fd, path in ((1, stdout), (2, stderr))]
    t0 = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = perf_counter() - t0
    return os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss * 1024


@dataclass(frozen=True)
class Key:
    """One full cipher key. Every number is a Python float, as from JSON."""

    sigma: float
    rho: float
    beta: float
    x0: float
    y0: float
    z0: float
    step: float
    strategy: str = "mantissa-lsb"
    component: str = "y"

    def api_args(self, rows: int, cols: int) -> tuple:
        import lorenzcipher as lc
        return (lc.LorenzParams(self.sigma, self.rho, self.beta, self.step),
                lc.LorenzState(self.x0, self.y0, self.z0),
                lc.KeystreamConfig(rows, cols, TRANSIENT, self.strategy,
                                   self.component))

    def cli_flags(self) -> list[str]:
        flags = []
        for name in ("sigma", "rho", "beta", "x0", "y0", "z0", "step"):
            flags += [f"--{name}", repr(getattr(self, name))]
        return flags + ["--transient", str(TRANSIENT), "--strategy",
                        self.strategy, "--component", self.component]


def jittered_key(rng: np.random.Generator, step: float,
                 strategy: str = "mantissa-lsb", component: str = "y") -> Key:
    """The paper's key, sigma/rho/beta jittered by +-5% and x0/y0/z0 by +-0.5."""
    k = PAPER_KEY
    return Key(sigma=float(k["sigma"] * rng.uniform(0.95, 1.05)),
               rho=float(k["rho"] * rng.uniform(0.95, 1.05)),
               beta=float(k["beta"] * rng.uniform(0.95, 1.05)),
               x0=float(k["x0"] + rng.uniform(-0.5, 0.5)),
               y0=float(k["y0"] + rng.uniform(-0.5, 0.5)),
               z0=float(k["z0"] + rng.uniform(-0.5, 0.5)),
               step=float(step), strategy=strategy, component=component)


def oracle_prefix(key: Key, n: int) -> bytes:
    """First n mantissa-lsb key bytes, integrated with the public rk4_step."""
    from lorenzcipher import ExtensionVariant, LorenzParams, LorenzState, rk4_step
    params = LorenzParams(key.sigma, key.rho, key.beta, key.step)
    a = b = LorenzState(key.x0, key.y0, key.z0)
    out = bytearray()
    for i in range(TRANSIENT + n):
        a = rk4_step(a, params, ExtensionVariant.A)
        b = rk4_step(b, params, ExtensionVariant.B)
        if i >= TRANSIENT:
            delta = abs(getattr(a, key.component) - getattr(b, key.component)) / 2.0
            out.append(struct.unpack("<Q", struct.pack("<d", delta))[0] & 0xFF)
    return bytes(out)


def pgm_bytes(pixels: np.ndarray) -> bytes:
    """Binary PGM exactly as lorenzcipher.encode_pgm writes it."""
    rows, cols = pixels.shape
    return f"P5\n{cols} {rows}\n255\n".encode("ascii") + pixels.tobytes()


def random_image(rng: np.random.Generator, side: int) -> np.ndarray:
    return rng.integers(0, 256, (side, side), dtype=np.uint8)


def smooth_image(rng: np.random.Generator, side: int, block: int = 16) -> np.ndarray:
    """Blocky noise under a box blur, in integer arithmetic so it is exact anywhere."""
    coarse = rng.integers(0, 256, (side // block + 1,) * 2, dtype=np.int32)
    up = np.repeat(np.repeat(coarse, block, 0), block, 1)[:side, :side]
    r = block // 2
    c = np.pad(np.pad(up, r, mode="edge"), ((1, 0), (1, 0))).cumsum(0).cumsum(1)
    w = 2 * r + 1
    box = c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]
    return (box // (w * w)).astype(np.uint8)


# A shared machine drifts in speed by tens of percent within minutes, which
# no run length can average out. So an untraced run also times a probe, a
# fixed task of the benchmark's own that does the same kind of work as the
# workload's ops, just before and just after each op. The op's scaled time
# is its wall time times PROBE_REF / (mean of the two probe times): its time
# on a machine where the probe takes PROBE_REF seconds. The program cannot
# change a probe, so a faster program gives a smaller scaled time.
PROBE_REF = {"python": 0.010, "numpy": 0.012, "spawn": 0.070}
# A library-1024 op takes seconds, over which the speed changes; twenty
# times the python probe samples the speed around it for longer.
LONG_PROBE = 20


def python_probe(loops: int = 40000) -> float:
    """Seconds for a fixed pure-Python float loop, like the RK4 kernel's."""
    x, y, z, h = 1.0, 0.5, 0.9, 1e-4
    t0 = perf_counter()
    for _ in range(loops):
        dx = 16.0 * (y - x)
        dy = x * (45.92 - z) - y
        dz = x * y - 4.0 * z
        x += h * dx
        y += h * dy
        z += h * dz
    return perf_counter() - t0


@functools.lru_cache(maxsize=1)
def _numpy_probe_input() -> np.ndarray:
    return random_image(np.random.default_rng(0), 1024)


def numpy_probe() -> float:
    """Seconds for float64 moments of a fixed 1024x1024 uint8 array."""
    pixels = _numpy_probe_input()
    t0 = perf_counter()
    f = pixels.astype(np.float64)
    d = f - f.mean()
    (d * d).mean()
    return perf_counter() - t0


def spawn_probe(env: dict) -> float:
    """Seconds for a bare interpreter, `python -c pass`, to start and exit."""
    return spawn([sys.executable, "-c", "pass"], env)[1]


class Harness:
    """Times ops, records failures, and keeps what the checks need."""

    def __init__(self, tracer=None, seconds: float = math.inf, probe=None,
                 probe_ref: float = 1.0):
        self.tracer = tracer
        self.deadline = perf_counter() + seconds
        self.probe = probe
        self.probe_ref = probe_ref
        self._before = None  # probe time just before the next op
        self.in_prefix = True
        self.op_times: list[float] = []
        self.scaled_times: list[float] = []
        self.untraced_times: list[float] = []
        self.pixels = 0
        self.failed: dict[int, str] = {}
        self.prefix_ops: list[int] = []
        self.prefix_warnings = 0
        self.prefix_outputs: list[bytes] = []
        self.pending_oracle: list[tuple[int, Key, bytes]] = []
        self.deferred: list = []

    @property
    def attempted(self) -> int:
        return len(self.op_times)

    def expired(self) -> bool:
        """True once the run's time is up; ops of prefix items always run."""
        return not self.in_prefix and perf_counter() >= self.deadline

    def fail(self, op: int, reason: str) -> None:
        self.failed.setdefault(op, reason)

    def op(self, run, pixels: int):
        """Run one op; return (index, output), output None if the op raised.

        `run(index, tracer)` calls the program once and returns (output,
        warnings, seconds). In a traced run each op runs traced and then
        untraced, and the two outputs must agree.
        """
        index = self.attempted
        self.op_times.append(math.nan)
        self.scaled_times.append(math.nan)
        if self.probe is not None and self._before is None:
            self._before = self.probe()
        try:
            out, n_warn, seconds = run(index, self.tracer)
            if self.tracer is not None:
                again, _, untraced = run(index, None)
                self.untraced_times.append(untraced)
                if not _same(again, out):
                    self.fail(index, "traced and untraced outputs differ")
        except Exception as e:  # whatever the program raises fails the op
            self.fail(index, f"{type(e).__name__}: {e}")
            self._before = None
            return index, None
        self.op_times[index] = seconds
        if self.probe is not None:
            after = self.probe()
            self.scaled_times[index] = seconds * self.probe_ref * 2 / (self._before + after)
            self._before = after
        self.pixels += pixels
        if self.in_prefix:
            self.prefix_ops.append(index)
            self.prefix_warnings += n_warn
        return index, out

    def output(self, data: bytes) -> None:
        """Add one op output to the digest, if the op is in the prefix."""
        if self.in_prefix:
            self.prefix_outputs.append(data)

    def expect_keystream(self, op: int, key: Key, stream: bytes) -> None:
        """Queue `stream` (plain XOR cipher) for the oracle check."""
        if key.strategy == "mantissa-lsb":
            self.pending_oracle.append((op, key, stream[:ORACLE_BYTES]))

    def later(self, check) -> None:
        """Queue a check to run after the timed phase, so it adds no peak memory."""
        self.deferred.append(check)

    def check(self) -> None:
        """Run the oracle and deferred checks; call after reading peak memory."""
        for check in self.deferred:
            check()
        cache: dict[tuple, bytes] = {}
        for op, key, got in self.pending_oracle:
            ident = (key, len(got))
            if ident not in cache:
                cache[ident] = oracle_prefix(key, len(got))
            if cache[ident] != got:
                self.fail(op, "keystream differs from the rk4_step oracle")


def _same(a, b) -> bool:
    """Exact equality of two op outputs: bytes, images, arrays, floats or tuples."""
    if hasattr(a, "pixels"):
        return np.array_equal(a.pixels, b.pixels)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return all(_same(x, y) for x, y in zip(a, b))
    return a == b


def in_process(call):
    """Wrap a zero-argument library call as a Harness run function."""
    from lorenzcipher import KeystreamQualityWarning

    def run(index, tracer):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is None:
                t0 = perf_counter()
                out = call()
                seconds = perf_counter() - t0
            else:
                with tracer.op(index):
                    t0 = perf_counter()
                    out = call()
                    seconds = perf_counter() - t0
        n_warn = sum(issubclass(w.category, KeystreamQualityWarning) for w in caught)
        return out, n_warn, seconds
    return run


class CryptWorkload:
    """Encrypt then decrypt each item in process; one op per library call."""

    prefix_items = 1
    probe = staticmethod(python_probe)
    probe_ref = PROBE_REF["python"]

    def __init__(self, seed: int, side: int):
        self.seed = seed
        self.side = side

    def inputs(self, j: int) -> tuple[np.ndarray, Key]:
        rng = np.random.default_rng([self.seed, j])
        return random_image(rng, self.side), self.key(rng, j)

    def key(self, rng: np.random.Generator, j: int) -> Key:
        raise NotImplementedError

    def run_item(self, j: int, h: Harness) -> None:
        import lorenzcipher as lc
        plain, key = self.inputs(j)
        image = lc.GrayImage.from_array(plain)
        args = key.api_args(self.side, self.side)
        op, cipher = h.op(in_process(lambda: lc.encrypt(image, *args)), plain.size)
        if cipher is None:
            return
        h.output(cipher.pixels.tobytes())
        h.expect_keystream(op, key, (plain ^ cipher.pixels).tobytes())
        if h.expired():
            return
        op, restored = h.op(in_process(lambda: lc.decrypt(cipher, *args)), plain.size)
        if restored is None:
            return
        h.output(restored.pixels.tobytes())
        if not np.array_equal(restored.pixels, plain):
            h.fail(op, "decrypt(encrypt(image)) differs from the image")


class Library(CryptWorkload):
    """library-1024: one 1024x1024 image under the paper's key at step 0.01."""

    def __init__(self, seed: int, side: int = 1024):
        super().__init__(seed, side)

    def inputs(self, j):
        return super().inputs(0)

    def key(self, rng, j):
        return Key(**PAPER_KEY, step=0.01)

    def probe(self) -> float:
        return python_probe(40000 * LONG_PROBE) / LONG_PROBE


class Keyset(CryptWorkload):
    """keyset-256: 256x256 images, one seeded key each, strategies mixed."""

    prefix_items = 16

    def __init__(self, seed: int, side: int = 256):
        super().__init__(seed, side)

    def key(self, rng, j):
        step = DEGENERATE_STEP if j % 16 == 15 else rng.uniform(0.005, 0.02)
        strategy = ("mantissa-lsb", "minmax-scale")[int(rng.integers(2))]
        return jittered_key(rng, step, strategy, "xyz"[int(rng.integers(3))])


class Cli:
    """cli-64: encrypt then decrypt 64x64 PGMs, one CLI process per call."""

    prefix_items = 8
    probe_ref = PROBE_REF["spawn"]

    def __init__(self, seed: int, workdir: Path, env: dict, side: int = 64):
        self.seed = seed
        self.side = side
        self.workdir = workdir
        self.env = env
        self.peak_rss = 0

    def probe(self) -> float:
        return spawn_probe(self.env)

    def inputs(self, j: int) -> tuple[np.ndarray, Key]:
        rng = np.random.default_rng([self.seed, j])
        return random_image(rng, self.side), jittered_key(rng, 0.01)

    def _runner(self, command: str, src: Path, dst: Path, key: Key):
        cli_argv = [command, str(src), str(dst), *key.cli_flags()]
        err = self.workdir / "stderr.txt"
        spans = self.workdir / "spans.json"

        def run(index, tracer):
            if tracer is None:
                argv = [sys.executable, "-m", "lorenzcipher.cli", *cli_argv]
            else:
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *cli_argv]
            t0 = perf_counter()
            code, seconds, rss = spawn(argv, self.env, stderr=err)
            self.peak_rss = max(self.peak_rss, rss)
            text = err.read_text(encoding="utf-8", errors="replace")
            if code != 0:
                raise RuntimeError(f"exit {code}: {text.strip()[-300:]}")
            if tracer is not None:
                tracer.add_process_op(index, t0, t0 + seconds,
                                      json.loads(spans.read_text(encoding="utf-8")))
            return dst.read_bytes(), text.count("KeystreamQualityWarning"), seconds
        return run

    def run_item(self, j: int, h: Harness) -> None:
        plain, key = self.inputs(j)
        expected = pgm_bytes(plain)
        header = expected[:-plain.size]
        src, enc, dec = (self.workdir / f"{s}.pgm" for s in ("plain", "enc", "dec"))
        src.write_bytes(expected)
        op, cipher = h.op(self._runner("encrypt", src, enc, key), plain.size)
        if cipher is None:
            return
        h.output(cipher)
        if cipher[:len(header)] != header or len(cipher) != len(expected):
            h.fail(op, "encrypted PGM has the wrong header or length")
            return
        payload = np.frombuffer(cipher, np.uint8)[len(header):]
        h.expect_keystream(op, key, (payload ^ plain.ravel()).tobytes())
        if h.expired():
            return
        op, restored = h.op(self._runner("decrypt", enc, dec, key), plain.size)
        if restored is None:
            return
        h.output(restored)
        if restored != expected:
            h.fail(op, "decrypted PGM differs from the plaintext PGM")


class Audit:
    """audit-1024: parse, analyse and re-encode 1024x1024 PGMs; no integration."""

    prefix_items = 8
    POOL = 8  # distinct images, alternating uniform noise and smooth texture
    probe_ref = PROBE_REF["numpy"]
    probe = staticmethod(numpy_probe)

    def __init__(self, seed: int, side: int = 1024):
        self.seed = seed
        self.side = side
        self._pgm: dict[int, bytes] = {}
        self._reference: dict[int, tuple] = {}

    def inputs(self, j: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, j % self.POOL])
        make = random_image if j % 2 == 0 else smooth_image
        return make(rng, self.side)

    def run_item(self, j: int, h: Harness) -> None:
        import lorenzcipher as lc
        k = j % self.POOL
        if k not in self._pgm:
            self._pgm[k] = pgm_bytes(self.inputs(k))
        buf = self._pgm[k]

        def analyse():
            image = lc.parse_pgm(buf)
            hist = lc.histogram(image)
            return (lc.shannon_entropy(image), hist,
                    tuple(lc.adjacent_correlation(image, d) for d in DIRECTIONS),
                    lc.chi_square_uniform(hist), lc.encode_pgm(image))

        op, out = h.op(in_process(analyse), self.side * self.side)
        if out is None:
            return
        entropy, hist, corr, chi2, encoded = out
        # Entropy goes through log2, whose last bit may differ between CPUs,
        # so the digest holds it to 12 significant digits.
        h.output(encoded + hist.tobytes() + repr((f"{entropy:.12g}", corr, chi2)).encode())
        if encoded != buf:
            h.fail(op, "encode_pgm(parse_pgm(pgm)) differs from the input")
        h.later(lambda: self._check(op, k, h, hist, entropy, corr, chi2))

    def _check(self, op, k, h, hist, entropy, corr, chi2) -> None:
        if k not in self._reference:
            self._reference[k] = reference_metrics(self.inputs(k))
        want = self._reference[k]
        if not np.array_equal(hist, want[0]):
            h.fail(op, "histogram differs from the reference counts")
        elif not all(math.isclose(got, ref, rel_tol=1e-9, abs_tol=1e-12)
                     for got, ref in zip((entropy, *corr, chi2), want[1:])):
            h.fail(op, "a metric differs from its reference value")


def reference_metrics(pixels: np.ndarray) -> tuple:
    """Histogram, entropy, the three correlations and chi-square, computed
    independently of lorenzcipher: counts by sorting, moments as exact
    integer sums over row blocks."""
    counts = np.zeros(256, dtype=np.int64)
    levels, n = np.unique(pixels, return_counts=True)
    counts[levels] = n
    total = pixels.size
    entropy = math.fsum(-c / total * math.log2(c / total) for c in counts.tolist() if c)
    mean = total / 256
    chi2 = math.fsum((c - mean) ** 2 / mean for c in counts.tolist())
    p = pixels.astype(np.int64)
    corr = []
    for a, b in ((p[:, :-1], p[:, 1:]), (p[:-1, :], p[1:, :]), (p[:-1, :-1], p[1:, 1:])):
        sums = [0] * 5
        for r in range(0, a.shape[0], 64):
            x, y = a[r:r + 64], b[r:r + 64]
            for i, v in enumerate((x.sum(), y.sum(), (x * x).sum(), (y * y).sum(), (x * y).sum())):
                sums[i] += int(v)
        sx, sy, sxx, syy, sxy = sums
        m = a.size
        corr.append((m * sxy - sx * sy) / math.sqrt((m * sxx - sx * sx) * (m * syy - sy * sy)))
    return (counts, entropy, *corr, chi2)
