"""Three-party (source / responder / user) simulation harness.

A session follows the authenticated-data-structure model: a trusted
source builds a digest and its authentication information, an untrusted
responder answers quantile queries, and the user verifies each answer
under the chosen scheme.  A `wda` session hashes and verifies the one
digest it ships.  A KVC session publishes the KVC auth info, the digest's
commitment and subtree 2's, and verifies each proof: a `kvc_qa` user reads
only the commitment, a `kvc_qa_accelerated` user also reads subtree 2.  The
trusted store is an in-process value here; distributing it is assumed to
happen out of band.

Also implemented are the deployment patterns built on merging: cumulative
digests over a stream (full or sliding-window), and privacy profiles that
publish one digest per privilege level at decreasing compression
parameters and optionally coarser leaves.  A scenario file is the only
place a run's settings come from, and one `Scenario` record checks them.
"""

from dataclasses import dataclass
from fractions import Fraction

from .digest import (
    QDigest,
    build_from_frequencies,
    check_compatible,
    coarsen,
    merge,
    quantile_fraction,
    quantile_query,
    validate,
)
from .kvcqa import aqq, malicious_aqq_omit_left, proof_to_text, publish_kvc_auth, qqv, qqv_accelerated
from .serialize import digest_to_bytes, field
from .tree import level
from .verdict import REASON_MALFORMED
from .wda import wda_authinfo, wda_verify

SCHEMES = ("wda", "kvc_qa", "kvc_qa_accelerated")
BEHAVIORS = ("honest", "omit_left", "tamper_count")


@dataclass(frozen=True)
class ResponderBehavior:
    kind: str
    omit: frozenset = frozenset()
    node: int = 0
    delta: int = 0

    def __post_init__(self):
        if self.kind not in BEHAVIORS:
            raise ValueError(f"unknown responder behavior {self.kind!r}")
        if self.kind == "omit_left" and not self.omit:
            raise ValueError("omit_left behavior needs a nonempty omission set")
        if self.kind == "tamper_count" and self.delta == 0:
            raise ValueError("tamper_count behavior needs a nonzero delta")

    @classmethod
    def honest(cls) -> "ResponderBehavior":
        return cls("honest")

    @classmethod
    def omit_left(cls, nodes) -> "ResponderBehavior":
        return cls("omit_left", omit=frozenset(nodes))

    @classmethod
    def tamper_count(cls, node: int, delta: int) -> "ResponderBehavior":
        return cls("tamper_count", node=node, delta=delta)


@dataclass(frozen=True)
class Scenario:
    """Every setting of one run, checked when the record is made.

    `levels` holds `(name, k, cut)` triples, most privileged first.  A run
    is plain, cumulative (`updates` > 1 or `window` > 0) or per level.
    """

    scheme: str
    behavior: ResponderBehavior
    queries: tuple[Fraction, ...]
    window: int = 0
    updates: int = 1
    levels: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.behavior.kind == "omit_left" and self.scheme == "wda":
            raise ValueError("omit_left is only meaningful under commitment-based schemes")
        object.__setattr__(self, "queries", tuple(map(quantile_fraction, self.queries)))
        if type(self.window) is not int or self.window < 0:
            raise ValueError(f"window must be 0 or more, got {self.window}")
        if type(self.updates) is not int or self.updates < 1:
            raise ValueError(f"updates must be 1 or more, got {self.updates}")
        if self.levels and (self.window or self.updates > 1):
            raise ValueError("levels cannot be combined with window or updates")
        if self.behavior.kind == "omit_left" and any(cut > 0 for _, _, cut in self.levels):
            # the omitted nodes are named in the full tree, which a cut level does not have
            raise ValueError("omit_left cannot run at a level with a cut above 0")


@dataclass(frozen=True)
class QueryRecord:
    q: Fraction
    answer: int
    accepted: bool
    insert_ops: int
    bytes_moved: int
    reason: str

    def transcript_line(self) -> str:
        return (
            f"query={self.q.numerator}/{self.q.denominator} answer={self.answer} "
            f"accepted={1 if self.accepted else 0} insert_ops={self.insert_ops} "
            f"bytes={self.bytes_moved} reason={self.reason}"
        )


def _tampered_copy(q: QDigest, node: int, delta: int) -> QDigest:
    counts = q.buckets()
    new = counts.get(node, 0) + delta
    if new <= 0:
        counts.pop(node, None)
    else:
        counts[node] = new
    return QDigest(q.sigma, q.k, counts, q.leaf_width)


def run_session(scenario: Scenario, source_digest: QDigest) -> list[QueryRecord]:
    """Serve and verify one session over the source's digest; only the scenario's scheme authenticates it."""
    behavior = scenario.behavior
    responder_digest = source_digest
    if behavior.kind == "tamper_count":
        responder_digest = _tampered_copy(source_digest, behavior.node, behavior.delta)
    if responder_digest.n == 0:
        # tampering emptied the digest; nothing to query, every answer is refused
        return [QueryRecord(q, 0, False, 0, 0, "empty-response") for q in scenario.queries]

    if scenario.scheme == "wda":
        # the whole digest ships once and is verified once; every answer is read off it
        auth = wda_authinfo(source_digest)  # a source digest outside the encoding limits raises
        try:
            size = len(digest_to_bytes(responder_digest))
        except ValueError:  # a tampered count past the encoding limits: no digest can be sent
            return [QueryRecord(q, 0, False, 0, 0, REASON_MALFORMED) for q in scenario.queries]
        verdict = wda_verify(responder_digest, auth)
        return [
            QueryRecord(q, quantile_query(responder_digest, q), verdict.accepted, verdict.insert_ops, size, verdict.reason)
            for q in scenario.queries
        ]

    auth = publish_kvc_auth(source_digest)
    records = []
    for q in scenario.queries:
        if behavior.kind == "omit_left":
            proof = malicious_aqq_omit_left(responder_digest, q, behavior.omit)
        else:
            proof = aqq(responder_digest, q)
        if scenario.scheme == "kvc_qa":
            stats = qqv(proof, auth.commitment, auth.n, auth.sigma, auth.leaf_width)
        else:
            stats = qqv_accelerated(proof, auth.commitment, auth.subtrees, auth.n, auth.sigma, auth.leaf_width)
        size = len(proof_to_text(proof))
        records.append(QueryRecord(q, proof.answer, stats.accepted, stats.insert_ops, size, stats.reason))
    return records


# ---------------------------------------------------------------------------
# Cumulative digests


@dataclass(frozen=True)
class CumulativeState:
    """Running merge of a stream of digests.

    With width 0 the state keeps one ever-growing digest; n grows without
    bound and the fixed k eventually over-compresses new data.  With a
    positive width only the most recent `width` digests contribute: the
    window is merged again from the retained digests, in one `merge` call
    over one count map, since q-digests cannot subtract expired ones.
    """

    current: QDigest | None = None
    width: int = 0
    window: tuple[QDigest, ...] = ()
    history_len: int = 0


def cumulative_update(state: CumulativeState, q: QDigest) -> CumulativeState:
    if state.current is not None:
        check_compatible(state.current, q)
    if state.width:
        window = (state.window + (q,))[-state.width:]
        current = merge(*window) if len(window) > 1 else window[0]
        return CumulativeState(current, state.width, window, state.history_len + 1)
    current = q if state.current is None else merge(state.current, q)
    return CumulativeState(current, 0, (), state.history_len + 1)


def mean_bucket_depth(q: QDigest) -> float:
    """Mean tree level of the buckets (root = 0); gauges how compressed a digest is."""
    if q.size == 0:
        raise ValueError("empty digest has no bucket depth")
    return sum(level(i) for i in q.buckets()) / q.size


# ---------------------------------------------------------------------------
# Privacy profiles


def build_privacy_profile(freqs, sigma: int, levels) -> dict[str, QDigest]:
    """Build per-privilege digests from `(name, k, cut)` triples: a name -> digest dict, most privileged first.

    Lower privilege means a strictly smaller k (more compression, less
    precision) and a nondecreasing number of tree levels cut away (wider
    leaves, a hard floor on precision).  Each digest carries its level's k,
    and its leaf width is 2**cut.
    """
    levels = tuple((str(name), k, cut) for name, k, cut in levels)
    if not levels:
        raise ValueError("need at least one privilege level")
    names, ks, cuts = zip(*levels)
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"privilege level names must be distinct, repeated: {', '.join(repeated)}")
    if any(lower >= higher for higher, lower in zip(ks, ks[1:])):
        raise ValueError("k values must be strictly decreasing with decreasing privilege")
    if any(a > b for a, b in zip(cuts, cuts[1:])):
        raise ValueError("coarse levels must be nondecreasing with decreasing privilege")
    digests = {name: coarsen(freqs, k, sigma, cut) for name, k, cut in levels}
    for name, q in digests.items():
        assert validate(q).ok, f"level {name} produced an invalid digest"
    return digests


# ---------------------------------------------------------------------------
# Scenario files and transcripts


def parse_scenario(text: str) -> Scenario:
    """Parse the line-oriented scenario format.

    Keys: scheme=, behavior=, queries= (required); window=, updates=,
    levels= (optional).  behavior is `honest`, `omit_left:<i,j,...>`, or
    `tamper_count:<node>:<delta>`; levels entries are `name:k` (cut 0) or
    `name:k:cut`.
    """
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq or key in fields:
            raise ValueError(f"line {lineno}: malformed scenario entry {raw!r}")
        fields[key] = value.strip()
    missing = {"scheme", "behavior", "queries"} - set(fields)
    if missing:
        raise ValueError(f"scenario is missing keys: {sorted(missing)}")

    behavior_text = fields["behavior"]
    if behavior_text == "honest":
        behavior = ResponderBehavior.honest()
    elif behavior_text.startswith("omit_left:"):
        nodes = [field("omit_left", x) for x in behavior_text[len("omit_left:"):].split(",") if x]
        behavior = ResponderBehavior.omit_left(nodes)
    elif behavior_text.startswith("tamper_count:"):
        parts = behavior_text.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed tamper_count behavior: {behavior_text!r}")
        behavior = ResponderBehavior.tamper_count(field("tamper_count", parts[1]), field("tamper_count", parts[2]))
    else:
        raise ValueError(f"unknown behavior {behavior_text!r}")

    return Scenario(
        scheme=fields["scheme"],
        behavior=behavior,
        queries=tuple(part for part in fields["queries"].split(",") if part),
        window=field("window", fields.get("window", "0")),
        updates=field("updates", fields.get("updates", "1")),
        levels=parse_levels(fields["levels"]) if "levels" in fields else (),
    )


def parse_levels(text: str) -> tuple[tuple[str, int, int], ...]:
    """Parse `name:k` / `name:k:cut` entries into `(name, k, cut)` triples; a missing cut is 0."""
    levels = []
    for entry in text.split(","):
        name, *numbers = entry.split(":")
        if len(numbers) == 1:
            numbers.append("0")
        try:
            k, cut = map(int, numbers)
        except ValueError:
            raise ValueError(f"malformed level entry {entry!r}") from None
        levels.append((name, k, cut))
    return tuple(levels)


def _split_stream(freqs, updates: int) -> list[dict[int, int]]:
    """Deal the (value, multiplicity) pairs round-robin into at most `updates` slices, none empty."""
    slices: list[dict[int, int]] = [{} for _ in range(min(updates, len(freqs)))]
    for pos, value in enumerate(sorted(freqs)):
        slices[pos % len(slices)][value] = freqs[value]
    return slices


def run_scenario(scenario: Scenario, freqs, k: int, sigma: int) -> list[str]:
    """Run a scenario file against a frequency set; returns transcript lines, one session per digest.

    A privilege level's header gives the k and size its own digest carries; `k` serves the other runs.
    """
    if scenario.levels:
        profile = build_privacy_profile(freqs, sigma, scenario.levels)
        sessions = [(f"# level={name} k={q.k} size={q.size}", q) for name, q in profile.items()]
    elif scenario.updates > 1 or scenario.window:
        state = CumulativeState(width=scenario.window)
        # an empty stream is one empty update, so the session sees an empty digest as the plain path does
        for chunk in _split_stream(freqs, scenario.updates) or [{}]:
            state = cumulative_update(state, build_from_frequencies(chunk, k, sigma))
        sessions = [(f"# cumulative updates={state.history_len} window={scenario.window} "
                     f"n={state.current.n} size={state.current.size}", state.current)]
    else:
        sessions = [(None, build_from_frequencies(freqs, k, sigma))]
    lines = []
    for header, digest in sessions:
        if header is not None:
            lines.append(header)
        lines.extend(r.transcript_line() for r in run_session(scenario, digest))
    return lines
