"""The three benchmark workloads.

Each workload generates its inputs from the seed when it is constructed,
returns from `setup_steps` its timed one-time work as a list of steps,
each timed with its own host-speed factor, and returns from `cycle` the
fixed list of operations that the timed loop repeats.  Every cycle
starts from the state set-up left, so all cycles perform identical work
and any run of whole cycles sees the same mix of operations.

An operation returns an `Outcome`: the bytes the user received from the
untrusted responder, whether the operation failed (only a verifier that
raises on a bad proof instead of rejecting it), and a closure holding
the independent checks, which the loop runs outside the timed region and
before the next operation, since later operations overwrite files.
"""

import collections
import io
import itertools
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from functools import partial
from fractions import Fraction
from typing import Callable

from qdigest_auth import (
    CumulativeState,
    aqq,
    build_from_frequencies,
    commit_digest,
    cumulative_update,
    digest_from_bytes,
    digest_to_bytes,
    malicious_aqq_omit_left,
    post_order_nodes,
    post_order_rank,
    qqv_accelerated,
    quantile_query,
    range_query,
    rank_query,
    subtree_commitments,
    wda_authinfo,
    wda_verify,
)
from qdigest_auth import cli
from qdigest_auth.kvcqa import proof_from_text, proof_to_text
from qdigest_auth.serialize import dump_frequencies

from checks import (
    ExactCounts,
    canonical_bytes,
    check_equal,
    check_quantile,
    check_range,
    check_rank,
    check_total,
    check_verdict,
    commitment_hex,
    merge_counts,
    parse_digest_file,
    require,
    wda_hash_hex,
)
from speed import measure
from tracing import PROBE

HALF = Fraction(1, 2)
OVERSIZED_COUNT = 2**200


@dataclass
class Outcome:
    wire_bytes: int
    check: Callable[[], None] = lambda: None
    failed: bool = False
    error: str = ""


def uniform(rng: random.Random, sigma: int, count: int) -> dict[int, int]:
    """`count` values drawn uniformly from [1, sigma]."""
    return dict(collections.Counter(rng.randint(1, sigma) for _ in range(count)))


def log_uniform(rng: random.Random, sigma: int, count: int) -> dict[int, int]:
    """`count` values in [1, sigma] whose logarithm is uniform: half lie below sqrt(sigma)."""
    freqs: dict[int, int] = {}
    for _ in range(count):
        v = min(sigma, int((sigma + 1) ** rng.random()))
        freqs[v] = freqs.get(v, 0) + 1
    return freqs


def _bump_last_count(data: bytes) -> bytes:
    """The responder's tampering: one count raised by one, the bytes still canonical."""
    head, _, last = data[:-1].rpartition(b"\n")
    idx, _, cnt = last.partition(b":")
    return head + b"\n" + idx + b":" + str(int(cnt) + 1).encode("ascii") + b"\n"


def run_cli(tracer, span_name: str, *argv) -> tuple[int, str]:
    """`qdigest <argv>` in-process: its exit code and standard output."""
    out = io.StringIO()
    with tracer.span(span_name), redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


class KvcSource:
    """One source's data and what the responder and the user hold for it."""

    def __init__(self, freqs: dict[int, int]):
        self.freqs = freqs
        self.exact = ExactCounts(freqs)


class KvcQuery:
    """Authenticated quantile answers against the published commitments of four sources.

    The bucket layout of a digest of uniform values, and so the size of
    its proofs, varies from seed to seed; spreading the queries over four
    sources about halves that spread, and keeps the cycle short enough
    for every operation to repeat several times in a run.
    """

    name = "kvc_query"
    SIGMA = 2**16
    K = 64
    VALUES = 50_000
    SOURCES = 4
    SETUPS = 5
    # q = 0, 1/7, ..., 1: on uniform values the stops of q <= 3/7 lie inside
    # the precommitted subtree 2, which covers [1, sigma/2], and those of
    # q >= 4/7 past it, where the accelerated verifier skips the subtree.
    # Source i answers q = i/7 and (i+4)/7, one on each side.  The bad
    # proofs are made at q = 3/4, so most operations (6 of the 10 that
    # complete) take the cheaper path past the subtree and the median
    # latency lies inside that group, not on the gap between the two.
    HONEST_QS = tuple(Fraction(i, 7) for i in range(8))
    ATTACK_Q = Fraction(3, 4)

    def __init__(self, seed: int, tracer, workdir):
        self.tracer = tracer
        rng = random.Random(f"{self.name}:{seed}")
        self.sources = [KvcSource(uniform(rng, self.SIGMA, self.VALUES)) for _ in range(self.SOURCES)]
        self.probe_freqs = self.sources[0].freqs

    def setup_steps(self) -> list:
        span = self.tracer.span

        def build(src):
            with span("digest.build"):
                src.digest = build_from_frequencies(src.freqs, self.K, self.SIGMA)

        def commit(src):
            with span("commitment.commit"):
                src.commitment = commit_digest(src.digest)

        def precommit(src):
            with span("commitment.subtree"):
                src.subtrees = subtree_commitments(src.digest, [2])

        steps = [partial(step, src) for src in self.sources for step in (build, commit, precommit)]
        # Warm-up at both ends of [0, 1]; q = 1 fills the memoized
        # zero-subtree fold that the accelerated verifier reuses.
        return steps + [partial(self.honest, self.sources[0], q) for q in (Fraction(0), Fraction(1))]

    def check_setup(self) -> None:
        for src in self.sources:
            buckets = src.digest.buckets()
            check_total(src.exact, src.digest.n)
            check_equal("commitment", src.commitment.encode(), commitment_hex(self.SIGMA, buckets))
            check_equal("subtree commitment", src.subtrees[2].encode(),
                        commitment_hex(self.SIGMA, buckets, root=2))

    def cycle(self) -> list:
        src = self.sources
        counted = aqq(src[0].digest, self.ATTACK_Q).counted
        require(len(counted) > 1, "omit-left needs a bucket before the stop")
        src[0].omit = {counted[0][0]}
        honest = [partial(self.honest, src[i % self.SOURCES], q) for i, q in enumerate(self.HONEST_QS)]
        attacks = [partial(attack, src[i]) for i, attack in
                   enumerate((self.omit_left, self.altered_count, self.oversized_count))]
        return honest + attacks

    def _transmit(self, proof):
        """Bytes on the wire and the proof the user parses from them (None: refused)."""
        with self.tracer.span("kvcqa.proof_codec"):
            text = proof_to_text(proof)
            try:
                received = proof_from_text(text)
            except ValueError:
                received = None
        return len(text.encode("ascii")), received

    def _verify(self, src, proof, span_name):
        with self.tracer.span(span_name):
            return qqv_accelerated(proof, src.commitment, src.subtrees, src.digest.n, self.SIGMA)

    def honest(self, src, q) -> Outcome:
        with self.tracer.span("kvcqa.prove"):
            proof = aqq(src.digest, q)
        wire, received = self._transmit(proof)
        self.tracer.record("kvcqa.counted_buckets", len(proof.counted))
        if received is None:
            return Outcome(wire, lambda: require(False, f"q={q}: honest proof refused by the parser"))
        stats = self._verify(src, received, "kvcqa.verify")
        self.tracer.record("kvcqa.verify_insert_ops", stats.insert_ops)

        def check():
            check_verdict(f"q={q}", stats.accepted, honest=True)
            check_quantile(src.exact, q, received.answer, self.SIGMA, self.K)

        return Outcome(wire, check)

    def _attack(self, src, proof) -> Outcome:
        """The user must reject the proof; refusing to parse it counts as rejecting."""
        wire, received = self._transmit(proof)
        if received is None:
            return Outcome(wire)
        try:
            stats = self._verify(src, received, "kvcqa.reject")
        except ValueError as exc:
            return Outcome(wire, failed=True, error=str(exc))
        return Outcome(wire, lambda: check_verdict("bad proof", stats.accepted, honest=False))

    def omit_left(self, src) -> Outcome:
        with self.tracer.span("kvcqa.prove_attack"):
            proof = malicious_aqq_omit_left(src.digest, self.ATTACK_Q, src.omit)
        return self._attack(src, proof)

    def altered_count(self, src) -> Outcome:
        with self.tracer.span("kvcqa.prove_attack"):
            proof = aqq(src.digest, self.ATTACK_Q)
            (node, cnt), *rest = proof.counted
            proof = replace(proof, counted=((node, cnt + 1), *rest))
        return self._attack(src, proof)

    def oversized_count(self, src) -> Outcome:
        """A stop count too wide for the commitment's 16-byte value.

        The verifiers raise ValueError on it instead of rejecting, whatever
        the seed; `_attack` counts that as a failed operation.
        """
        with self.tracer.span("kvcqa.prove_attack"):
            proof = aqq(src.digest, self.ATTACK_Q)
            stop = proof.counted[-1][0]
            proof = replace(proof, counted=(*proof.counted[:-1], (stop, OVERSIZED_COUNT)))
        return self._attack(src, proof)


class WdaStream:
    """Whole-digest deliveries of a sliding window over skewed batches."""

    name = "wda_stream"
    SIGMA = 2**16
    K = 64
    BATCH = 2000
    WINDOW = 8
    DELIVERIES = 16
    TAMPERED = frozenset({5, 13})
    # A set-up of a few tens of milliseconds strays more, in share, than one of
    # seconds, and costs little to repeat.
    SETUPS = 9
    QS = tuple(Fraction(i, 4) for i in range(5))
    RANK_POINTS = (2**4, 2**8, 2**12, 2**15)
    RANGES = ((2**4, 2**8), (2**8, 2**14))

    def __init__(self, seed: int, tracer, workdir):
        self.tracer = tracer
        rng = random.Random(f"{self.name}:{seed}")
        self.batches = [log_uniform(rng, self.SIGMA, self.BATCH)
                        for _ in range(self.WINDOW - 1 + self.DELIVERIES)]
        # exact[j]: the window as it stands after delivery j of a cycle
        self.exact = [ExactCounts(merge_counts(*self.batches[j:j + self.WINDOW]))
                      for j in range(self.DELIVERIES)]
        self.probe_freqs = self.batches[-1]

    def setup_steps(self) -> list:
        self.initial = CumulativeState(width=self.WINDOW)

        def add(freqs):
            with self.tracer.span("digest.build"):
                batch = build_from_frequencies(freqs, self.K, self.SIGMA)
            with self.tracer.span("scenario.window_update"):
                self.initial = cumulative_update(self.initial, batch)

        steps = [partial(add, freqs) for freqs in self.batches[:self.WINDOW - 1]]
        return steps + [partial(self.deliver, 0)]  # warm-up; the cycle starts again from self.initial

    def check_setup(self) -> None:
        check_total(ExactCounts(merge_counts(*self.batches[:self.WINDOW - 1])), self.initial.current.n)

    def cycle(self) -> list:
        return [lambda j=j: self.deliver(j) for j in range(self.DELIVERIES)]

    def deliver(self, j: int) -> Outcome:
        span = self.tracer.span
        state = self.initial if j == 0 else self.state
        with span("digest.build"):
            batch = build_from_frequencies(self.batches[self.WINDOW - 1 + j], self.K, self.SIGMA)
        with span("scenario.window_update"):
            state = cumulative_update(state, batch)
        self.state = state
        published = state.current
        self.tracer.record("digest.buckets", published.size)
        with span("serialize.encode"):
            sent = digest_to_bytes(published)
        with span("wda.auth"):
            auth = wda_authinfo(published)
        honest = j not in self.TAMPERED
        data = sent if honest else _bump_last_count(sent)
        # A parser that refuses tampered bytes has rejected them.
        accepted = False
        try:
            with span("serialize.decode"):
                received = digest_from_bytes(data)
        except ValueError:
            if honest:
                raise
        else:
            with span("wda.verify"):
                accepted = wda_verify(received, auth).accepted
        answers = []
        if accepted:
            for q in self.QS:
                with span("digest.query"):
                    answers.append(quantile_query(received, q))
            for x in self.RANK_POINTS:
                with span("digest.query"):
                    answers.append(rank_query(received, x))
            for lo, hi in self.RANGES:
                with span("digest.query"):
                    answers.append(range_query(received, lo, hi))

        def check():
            check_verdict(f"delivery {j}", accepted, honest)
            buckets = published.buckets()
            check_equal("digest bytes", sent, canonical_bytes(self.SIGMA, self.K, 1, buckets))
            check_equal("WDA hash", auth.digest_hash.hex(), wda_hash_hex(self.SIGMA, self.K, 1, buckets))
            if not honest:
                return
            exact = self.exact[j]
            check_total(exact, received.n)
            it = iter(answers)
            for q in self.QS:
                check_quantile(exact, q, next(it), self.SIGMA, self.K)
            for x in self.RANK_POINTS:
                check_rank(exact, x, next(it), self.SIGMA, self.K)
            for lo, hi in self.RANGES:
                check_range(exact, lo, hi, next(it), self.SIGMA, self.K)

        return Outcome(len(data), check)


class CliRoundtrip:
    """Update-and-answer rounds through `qdigest` subcommands on files."""

    name = "cli_roundtrip"
    SIGMA = 2**12
    K = 64
    BATCH = 2000
    ROUNDS = 8
    TAMPERED = frozenset({5})
    SETUPS = 9  # as WdaStream
    QS = tuple(Fraction(i, 7) for i in range(8))

    def __init__(self, seed: int, tracer, workdir):
        self.tracer = tracer
        self.dir = workdir
        rng = random.Random(f"{self.name}:{seed}")
        base, *self.batches = [uniform(rng, self.SIGMA, self.BATCH) for _ in range(self.ROUNDS + 1)]
        self.base = self._path("base.tsv")
        dump_frequencies(base, self.base)
        for j, freqs in enumerate(self.batches):
            dump_frequencies(freqs, self._path(f"batch{j}.tsv"))
        self.base_exact = ExactCounts(base)
        self.probe_freqs = base
        # exact[j]: the whole stream as it stands after round j of a cycle
        self.exact = [ExactCounts(merge_counts(base, *self.batches[:j + 1])) for j in range(self.ROUNDS)]

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def qdigest(self, span_name: str, *argv) -> tuple[int, str]:
        return run_cli(self.tracer, span_name, *argv)

    def setup_steps(self) -> list:
        p = self._path
        commands = [
            ("cli.build", "build", self.base, "--sigma", self.SIGMA, "--k", self.K, "--output", p("base.qd")),
            ("cli.auth", "auth", p("base.qd"), "--wda-out", p("base.wda"), "--kvc-out", p("base.kvc")),
            # Warm-up: q = 1 stops past the precommitted subtree, so verifying it
            # fills the memoized zero-subtree fold the accelerated verifier reuses.
            ("cli.prove", "prove", p("base.qd"), "--q", "1/1", "--output", p("base.proof")),
            ("cli.verify_accelerated", "verify", "--proof", p("base.proof"), "--auth", p("base.kvc"),
             "--accelerated"),
        ]
        self.setup_codes = []
        return [lambda argv=argv: self.setup_codes.append(self.qdigest(*argv)[0]) for argv in commands]

    def check_setup(self) -> None:
        check_equal("set-up exit codes", self.setup_codes, [0, 0, 0, 0])
        self._check_published(self._path("base.qd"), self._path("base.wda"), self._path("base.kvc"),
                              self.base_exact)

    def _check_published(self, digest_path, wda_path, kvc_path, exact) -> None:
        with open(digest_path, "rb") as fh:
            _, buckets = parse_digest_file(fh.read())
        check_total(exact, sum(buckets.values()))
        with open(wda_path, encoding="ascii") as fh:
            check_equal("WDA hash", fh.read().split(" ")[0],
                        "wda1:" + wda_hash_hex(self.SIGMA, self.K, 1, buckets))
        with open(kvc_path, encoding="ascii") as fh:
            check_equal("commitment", fh.read().splitlines()[1],
                        "commitment=" + commitment_hex(self.SIGMA, buckets))

    def cycle(self) -> list:
        return [lambda j=j: self.round(j) for j in range(self.ROUNDS)]

    def round(self, j: int) -> Outcome:
        p = self._path
        running = p("base.qd") if j == 0 else p(f"running{(j - 1) % 2}.qd")
        merged = p(f"running{j % 2}.qd")
        q = self.QS[j]
        codes = [
            self.qdigest("cli.build", "build", p(f"batch{j}.tsv"), "--sigma", self.SIGMA, "--k", self.K,
                         "--output", p("batch.qd")),
            self.qdigest("cli.merge", "merge", running, p("batch.qd"), "--output", merged),
            self.qdigest("cli.auth", "auth", merged, "--wda-out", p("pub.wda"), "--kvc-out", p("pub.kvc")),
            self.qdigest("cli.prove", "prove", merged, "--q", f"{q.numerator}/{q.denominator}",
                         "--output", p("answer.proof")),
        ]
        honest = j not in self.TAMPERED
        if not honest:
            with open(p("answer.proof"), encoding="ascii") as fh:
                header, first, *rest = fh.read().splitlines(keepends=True)
            node, cnt = first.split(":")
            with open(p("answer.proof"), "w", encoding="ascii") as fh:
                fh.write(header + f"{node}:{int(cnt) + 1}\n" + "".join(rest))
        verdicts = [
            self.qdigest("cli.verify", "verify", "--proof", p("answer.proof"), "--auth", p("pub.kvc")),
            self.qdigest("cli.verify_accelerated", "verify", "--proof", p("answer.proof"),
                         "--auth", p("pub.kvc"), "--accelerated"),
            self.qdigest("cli.verify_wda", "verify", "--digest", merged, "--auth", p("pub.wda")),
        ]
        wire = os.path.getsize(p("answer.proof")) + os.path.getsize(merged)

        def check():
            for (code, _), command in zip(codes, ("build", "merge", "auth", "prove")):
                check_equal(f"round {j}: exit code of {command}", code, 0)
            for (code, out), kind in zip(verdicts, ("proof", "accelerated proof")):
                check_equal(f"round {j}: {kind} exit code", code, 0 if honest else 1)
                check_verdict(f"round {j}: {kind}", "accepted=1" in out, honest)
            code, out = verdicts[2]
            check_equal(f"round {j}: digest verdict", (code, "accepted=1" in out), (0, True))
            exact = self.exact[j]
            self._check_published(merged, p("pub.wda"), p("pub.kvc"), exact)
            answer = int(codes[3][1].split()[0].removeprefix("answer="))
            with open(p("answer.proof"), encoding="ascii") as fh:
                check_equal("answer in the proof file", fh.readline().split()[-1], f"answer={answer}")
            check_quantile(exact, q, answer, self.SIGMA, self.K)

        return Outcome(wire, check)


def probe(tracer, sigma: int, k: int, freqs, workdir) -> None:
    """Time every layer call on a workload's own inputs.

    The traced run reports a layer from the timed loop when the workload
    calls it there, else from this probe, so every per-layer metric has a
    measured value on every workload.  Each call runs three times, each
    time as its own operation with its own host-speed factor.
    """
    ids = itertools.count()

    def timed(fn):
        for _ in range(3):
            tracer.op = (PROBE, next(ids))
            result, _, tracer.scale[tracer.op] = measure(fn)
        return result

    def spanned(name, fn, *args):
        with tracer.span(name):
            return fn(*args)

    def call(name, fn, *args):
        return timed(lambda: spanned(name, fn, *args))

    digest = call("digest.build", build_from_frequencies, freqs, k, sigma)
    tracer.record("digest.buckets", digest.size)
    # Calls of microseconds share one factor, so calibrating does not evict them from the caches.
    timed(lambda: (spanned("digest.query", quantile_query, digest, HALF),
                   spanned("digest.query", rank_query, digest, sigma // 2),
                   spanned("digest.query", range_query, digest, 1, sigma // 2)))
    call("scenario.window_update", cumulative_update, CumulativeState(width=2), digest)
    data = call("serialize.encode", digest_to_bytes, digest)
    call("serialize.decode", digest_from_bytes, data)
    auth = call("wda.auth", wda_authinfo, digest)
    wda_ok = call("wda.verify", wda_verify, digest, auth).accepted
    commitment = call("commitment.commit", commit_digest, digest)
    subtrees = call("commitment.subtree", subtree_commitments, digest, [2])
    proof = call("kvcqa.prove", aqq, digest, HALF)
    bad = call("kvcqa.prove_attack", malicious_aqq_omit_left, digest, HALF, {proof.counted[0][0]})
    call("kvcqa.proof_codec", lambda: proof_from_text(proof_to_text(proof)))
    stats = call("kvcqa.verify", qqv_accelerated, proof, commitment, subtrees, digest.n, sigma)
    rejected = not call("kvcqa.reject", qqv_accelerated, bad, commitment, subtrees, digest.n, sigma).accepted
    tracer.record("kvcqa.verify_insert_ops", stats.insert_ops)
    tracer.record("kvcqa.counted_buckets", len(proof.counted))
    timed(lambda: spanned("tree.postorder_walk", collections.deque, post_order_nodes(sigma), 0))
    timed(lambda: [spanned("tree.postorder_rank", post_order_rank, node, sigma) for node in digest.buckets()])

    def path(suffix: str) -> str:
        return os.path.join(workdir, f"probe.{suffix}")

    dump_frequencies(freqs, path("tsv"))
    commands = [
        ("cli.build", "build", path("tsv"), "--sigma", sigma, "--k", k, "--output", path("qd")),
        ("cli.merge", "merge", path("qd"), path("qd"), "--output", path("merged")),
        ("cli.auth", "auth", path("merged"), "--wda-out", path("wda"), "--kvc-out", path("kvc")),
        ("cli.prove", "prove", path("merged"), "--q", "1/2", "--output", path("proof")),
        ("cli.verify", "verify", "--proof", path("proof"), "--auth", path("kvc")),
        ("cli.verify_accelerated", "verify", "--proof", path("proof"), "--auth", path("kvc"), "--accelerated"),
        ("cli.verify_wda", "verify", "--digest", path("merged"), "--auth", path("wda")),
    ]
    codes = [timed(lambda argv=argv: run_cli(tracer, *argv))[0] for argv in commands]
    check_equal("probe verdicts", (wda_ok, stats.accepted, rejected), (True, True, True))
    check_equal("probe exit codes", codes, [0] * len(codes))
