#!/usr/bin/env python3
"""Protocol-level smoke load for a running lp::server, used by CI.

Speaks the binary wire protocol directly (little-endian u32 frame
length, then u8 op + u64 id + op payload) from plain Python, so the
server is exercised by an independent implementation rather than its
own client library.

What it does:

  1. PUTs --records keys, then GETs them back and checks the values.
  2. Scrapes METRICS, validating the Prometheus exposition shape.
  3. Runs another round of PUTs.
  4. Scrapes METRICS again and checks that every counter/bucket/sum
     series is monotonically nondecreasing across the two scrapes,
     that the per-shard lp_mutations delta equals the second-round op
     count, and that each histogram's +Inf bucket equals its _count.
  5. With --shutdown, sends SHUTDOWN and expects an Ok reply.

Media-fault options (the fault-inject-smoke CI job):

  --verify-extra checks, BEFORE issuing any new load, that the 128
  sentinel keys a previous smoke_load run left behind still read back
  with their deterministic values -- proof that a restart (possibly
  through media repair) lost no data.  --expect-repaired requires the
  lp_media_repaired_total counters to show at least one repair and
  zero unrepairable faults; --min-scrub-passes N requires the online
  scrub walker to have completed N full passes.

Transaction options (the txn-crash-smoke CI job):

  --txn-accounts N switches to bank-transfer mode (the standard
  PUT/GET rounds are skipped): N account keys live at a reserved
  base.  --txn-init seeds each account with balance 1000 inside TXN
  frames.  --txn-transfers M issues M random transfers, each a
  single TXN of two Add sub-ops (two's-complement debit + credit),
  retrying wait-die Aborted outcomes with jittered backoff; every
  8th transfer also carries a Get sub-op and validates the reads
  body shape.  --txn-verify-sum GETs every account and requires the
  balance sum (mod 2^64) to equal accounts * 1000 -- transfers
  conserve money, so any other sum means a half-applied
  transaction.  --txn-expect-kill makes a vanishing server DURING
  the transfer phase a success (exit 0): the harness is about to
  SIGKILL the server mid-commit and a later invocation with
  --txn-verify-sum proves atomicity across the crash.

The port is read from --port, or from the DATA_DIR/PORT file the
server publishes (--data-dir).

Exit status: 0 on success, 1 on any protocol or invariant violation.
"""

import argparse
import random
import socket
import struct
import sys
import time

OP_GET = 1
OP_PUT = 2
OP_DEL = 3
OP_STATS = 5
OP_SHUTDOWN = 6
OP_METRICS = 7
OP_TXN = 9

ST_OK = 0
ST_RETRY = 2
ST_ABORTED = 5

TXN_GET = 1
TXN_PUT = 2
TXN_DEL = 3
TXN_ADD = 4

# Account keys for bank-transfer mode; far above both the round-1
# keys (0..records) and the 1_000_000 sentinel range.
TXN_ACCOUNT_BASE = 2_000_000
TXN_INIT_BALANCE = 1000

_next_id = 0


def fail(msg: str) -> None:
    print(f"smoke_load: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


class ServerGone(Exception):
    """The server closed the connection (or the socket errored).

    Fatal everywhere except the --txn-expect-kill transfer phase,
    where the harness killing the server mid-commit is the point.
    """


def fresh_id() -> int:
    global _next_id
    _next_id += 1
    return _next_id


def send_frame(sock: socket.socket, payload: bytes) -> None:
    try:
        sock.sendall(struct.pack("<I", len(payload)) + payload)
    except OSError as e:
        raise ServerGone(f"send failed: {e}") from e


def recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except OSError as e:
            raise ServerGone(f"recv failed: {e}") from e
        if not chunk:
            raise ServerGone("server closed the connection mid-frame")
        buf += chunk
    return buf


def recv_response(sock: socket.socket):
    """Returns (status, id, value_or_None, body_bytes)."""
    (length,) = struct.unpack("<I", recv_exact(sock, 4))
    if length < 9 or length > 1 << 20:
        fail(f"bad response frame length {length}")
    payload = recv_exact(sock, length)
    status = payload[0]
    (rid,) = struct.unpack("<Q", payload[1:9])
    if length == 17 and status == ST_OK:
        (value,) = struct.unpack("<Q", payload[9:17])
        return status, rid, value, b""
    return status, rid, None, payload[9:]


def rpc(sock: socket.socket, payload: bytes):
    send_frame(sock, payload)
    return recv_response(sock)


def op_put(sock, key: int, value: int) -> None:
    rid = fresh_id()
    st, got, _, _ = rpc(
        sock, struct.pack("<BQQQ", OP_PUT, rid, key, value)
    )
    while st == ST_RETRY:  # backpressure: retry the same op
        time.sleep(0.005)
        st, got, _, _ = rpc(
            sock, struct.pack("<BQQQ", OP_PUT, rid, key, value)
        )
    if st != ST_OK or got != rid:
        fail(f"PUT({key}) -> status {st}, id {got} (want {rid})")


def op_get(sock, key: int) -> int:
    rid = fresh_id()
    st, got, value, _ = rpc(sock, struct.pack("<BQQ", OP_GET, rid, key))
    if st != ST_OK or got != rid or value is None:
        fail(f"GET({key}) -> status {st}, value {value}")
    return value


def op_txn(sock, subs):
    """Issue one TXN of (kind, key, value) sub-ops.

    Retries Retry (backpressure) transparently; returns
    (status, reads) where status is ST_OK or ST_ABORTED and reads
    is the decoded [(found, value), ...] body of a committed
    transaction (empty unless it had Get sub-ops).
    """
    rid = fresh_id()
    payload = struct.pack("<BQI", OP_TXN, rid, len(subs))
    for kind, key, value in subs:
        if kind in (TXN_PUT, TXN_ADD):
            payload += struct.pack("<BQQ", kind, key, value)
        else:
            payload += struct.pack("<BQ", kind, key)
    while True:
        st, got, _, body = rpc(sock, payload)
        if st == ST_RETRY:
            time.sleep(0.005)
            continue
        if got != rid:
            fail(f"TXN -> id {got}, want {rid}")
        if st == ST_ABORTED:
            return st, []
        if st != ST_OK:
            fail(f"TXN -> status {st}")
        n_gets = sum(1 for k, _, _ in subs if k == TXN_GET)
        if len(body) != 4 + 9 * n_gets:
            fail(f"TXN reads body is {len(body)} bytes, want "
                 f"{4 + 9 * n_gets} for {n_gets} gets")
        (count,) = struct.unpack_from("<I", body, 0)
        if count != n_gets:
            fail(f"TXN reads count {count}, want {n_gets}")
        reads = []
        for i in range(count):
            found, value = struct.unpack_from("<BQ", body, 4 + 9 * i)
            if found not in (0, 1):
                fail(f"TXN read #{i} has found byte {found}")
            reads.append((bool(found), value))
        return st, reads


def txn_init_accounts(sock, accounts: int) -> None:
    # Seed balances through the TXN path itself (Put sub-ops), a few
    # accounts per transaction, so init also exercises commit.
    k = 0
    while k < accounts:
        subs = [
            (TXN_PUT, TXN_ACCOUNT_BASE + j, TXN_INIT_BALANCE)
            for j in range(k, min(k + 8, accounts))
        ]
        st, _ = op_txn(sock, subs)
        if st != ST_OK:
            fail(f"init TXN for accounts {k}.. -> status {st}")
        k += len(subs)


def txn_run_transfers(sock, accounts: int, n: int,
                      expect_kill: bool) -> None:
    rng = random.Random(0x5EED)
    commits = aborts = 0
    try:
        for i in range(n):
            src = rng.randrange(accounts)
            dst = rng.randrange(accounts)
            while dst == src:
                dst = rng.randrange(accounts)
            amt = rng.randrange(1, 11)
            debit = (1 << 64) - amt  # two's-complement -amt
            subs = [
                (TXN_ADD, TXN_ACCOUNT_BASE + src, debit),
                (TXN_ADD, TXN_ACCOUNT_BASE + dst, amt),
            ]
            if i % 8 == 0:  # exercise the reads body too
                subs.insert(0, (TXN_GET, TXN_ACCOUNT_BASE + src, 0))
            while True:
                st, reads = op_txn(sock, subs)
                if st == ST_OK:
                    commits += 1
                    if i % 8 == 0 and not reads[0][0]:
                        fail(f"TXN get of account {src} found "
                             "nothing (init lost?)")
                    break
                aborts += 1  # wait-die loser: back off, retry
                time.sleep(rng.uniform(0.0, 0.002))
    except ServerGone as e:
        if not expect_kill:
            fail(f"server vanished during transfers: {e}")
        print(f"smoke_load: OK: server gone after {commits} commits,"
              f" {aborts} aborts -- expected (crash injection)")
        sys.exit(0)
    if expect_kill:
        fail(f"finished all {n} transfers but the server was never "
             "killed; raise --txn-transfers so the harness can catch "
             "it mid-commit")
    print(f"smoke_load: transfers: {commits} commits, "
          f"{aborts} wait-die aborts")


def txn_verify_sum(sock, accounts: int) -> None:
    total = 0
    for k in range(accounts):
        total = (total + op_get(sock, TXN_ACCOUNT_BASE + k)) \
            % (1 << 64)
    want = (accounts * TXN_INIT_BALANCE) % (1 << 64)
    if total != want:
        fail(f"balance sum {total} != {want}: a transfer was "
             "half-applied (atomicity violation)")
    print(f"smoke_load: OK: {accounts} balances sum to {want} "
          "(money conserved)")


def scrape(sock) -> dict:
    rid = fresh_id()
    st, got, _, body = rpc(sock, struct.pack("<BQ", OP_METRICS, rid))
    if st != ST_OK or got != rid or not body:
        fail(f"METRICS -> status {st}, {len(body)} body bytes")
    snap = {}
    for line in body.decode("utf-8").splitlines():
        line = line.strip()
        words = line.split()
        if words[:2] == ["#", "TYPE"] and words[3:] == ["gauge"]:
            GAUGES.add(words[2])
        if not line or line.startswith("#"):
            continue
        # OpenMetrics exemplar suffix (` # {trace_id="..."} v`) rides
        # on histogram bucket lines; the sample value precedes it.
        if " # " in line:
            line = line.split(" # ", 1)[0].rstrip()
        key, _, val = line.rpartition(" ")
        if not key:
            fail(f"unparseable exposition line: {line!r}")
        try:
            snap[key] = float(val)
        except ValueError:
            fail(f"non-numeric sample in line: {line!r}")
    if not snap:
        fail("METRICS exposition contained no samples")
    return snap


# Metric names whose `# TYPE` line says gauge (filled by scrape()):
# point-in-time values, exempt from the monotonic check.
GAUGES = set()


def check_monotonic(s1: dict, s2: dict) -> None:
    for key, v1 in s1.items():
        if key.partition("{")[0] in GAUGES:
            continue
        if key not in s2:
            fail(f"{key} vanished between scrapes")
        if s2[key] < v1:
            fail(f"{key} went backwards: {v1} -> {s2[key]}")


def shard_sum(snap: dict, name: str) -> float:
    return sum(
        v
        for k, v in snap.items()
        if k.startswith(name + "{shard=")
    )


def check_histograms(snap: dict) -> None:
    n_checked = 0
    for k, v in snap.items():
        if 'le="+Inf"' not in k:
            continue
        # lp_x_bucket{labels,le="+Inf"} must equal lp_x_count{labels}.
        base, _, labels = k.partition("{")
        labels = labels.rstrip("}")
        rest = ",".join(
            p for p in labels.split(",") if not p.startswith("le=")
        )
        ckey = base[: -len("_bucket")] + "_count" + (
            "{" + rest + "}" if rest else ""
        )
        if ckey not in snap:
            fail(f"histogram {base} has +Inf bucket but no _count")
        if v != snap[ckey]:
            fail(f"{k} = {v} but {ckey} = {snap[ckey]}")
        n_checked += 1
    if n_checked == 0:
        fail("no histogram series found in exposition")


def read_port(data_dir: str, timeout_s: float) -> int:
    deadline = time.time() + timeout_s
    path = f"{data_dir}/PORT"
    while time.time() < deadline:
        try:
            with open(path, "r", encoding="ascii") as f:
                text = f.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.05)
    fail(f"no port published at {path} within {timeout_s}s")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=0)
    ap.add_argument("--data-dir", default="./lpdb")
    ap.add_argument("--records", type=int, default=256)
    ap.add_argument("--seconds", type=float, default=3.0,
                    help="keep issuing load for this long (round 1)")
    ap.add_argument("--shutdown", action="store_true",
                    help="send SHUTDOWN after the checks")
    ap.add_argument("--verify-extra", action="store_true",
                    help="first verify the 128 sentinel keys a "
                         "previous run wrote (restart data check)")
    ap.add_argument("--expect-repaired", action="store_true",
                    help="require media_repaired >= 1 and "
                         "media_unrepairable == 0 in METRICS")
    ap.add_argument("--min-scrub-passes", type=int, default=0,
                    help="require this many completed scrub passes")
    ap.add_argument("--expect-kill", action="store_true",
                    help="treat the server dying during the PUT/GET "
                         "load as success (the postmortem-smoke "
                         "harness SIGKILLs it under this load)")
    ap.add_argument("--txn-accounts", type=int, default=0,
                    help="bank-transfer mode over this many accounts "
                         "(skips the standard PUT/GET rounds)")
    ap.add_argument("--txn-init", action="store_true",
                    help="seed every account with balance 1000")
    ap.add_argument("--txn-transfers", type=int, default=0,
                    help="issue this many random TXN transfers")
    ap.add_argument("--txn-verify-sum", action="store_true",
                    help="require the balance sum to still equal "
                         "accounts * 1000 (conservation)")
    ap.add_argument("--txn-expect-kill", action="store_true",
                    help="treat the server dying mid-transfer as "
                         "success (crash-injection harness)")
    args = ap.parse_args()

    port = args.port or read_port(args.data_dir, 30.0)
    sock = socket.create_connection((args.host, port), timeout=30.0)
    sock.settimeout(30.0)

    if args.txn_accounts > 0:
        if args.txn_init:
            txn_init_accounts(sock, args.txn_accounts)
        if args.txn_transfers > 0:
            txn_run_transfers(sock, args.txn_accounts,
                              args.txn_transfers,
                              args.txn_expect_kill)
        if args.txn_verify_sum:
            txn_verify_sum(sock, args.txn_accounts)
        snap = scrape(sock)
        if args.txn_transfers > 0 and \
                snap.get("lp_txn_commits", 0) < 1:
            fail("lp_txn_commits missing or zero after transfers")
        if args.shutdown:
            rid = fresh_id()
            st, got, _, _ = rpc(
                sock, struct.pack("<BQ", OP_SHUTDOWN, rid)
            )
            if st != ST_OK or got != rid:
                fail(f"SHUTDOWN -> status {st}")
        sock.close()
        return

    # Data survival across a restart: the previous run's round-2 keys
    # have deterministic values, so corruption that recovery failed to
    # repair (or repaired wrongly) shows up right here.
    if args.verify_extra:
        for k in range(128):
            got = op_get(sock, 1_000_000 + k)
            if got != k:
                fail(f"sentinel GET({1_000_000 + k}) = {got}, "
                     f"want {k} (data lost across restart)")

    # Round 1: load + verify readback, for at least --seconds.
    deadline = time.time() + args.seconds
    rounds = 0
    try:
        while rounds == 0 or time.time() < deadline:
            for k in range(args.records):
                op_put(sock, k, rounds * args.records + k * 7)
            rounds += 1
        for k in range(args.records):
            got = op_get(sock, k)
            want = (rounds - 1) * args.records + k * 7
            if got != want:
                fail(f"GET({k}) = {got}, want {want}")
    except ServerGone as e:
        if args.expect_kill:
            print(f"smoke_load: OK: server vanished under load as "
                  f"expected after {rounds} full rounds ({e})")
            return
        raise

    s1 = scrape(sock)
    check_histograms(s1)
    muts1 = shard_sum(s1, "lp_mutations")
    if muts1 < rounds * args.records:
        fail(f"lp_mutations {muts1} < ops issued "
             f"{rounds * args.records}")

    # Round 2: fixed op count, then delta checks.
    extra = 128
    for k in range(extra):
        op_put(sock, 1_000_000 + k, k)
    s2 = scrape(sock)
    check_monotonic(s1, s2)
    check_histograms(s2)
    muts2 = shard_sum(s2, "lp_mutations")
    if muts2 - muts1 != extra:
        fail(f"lp_mutations delta {muts2 - muts1}, want {extra}")

    if args.expect_repaired:
        repaired = shard_sum(s2, "lp_media_repaired_total")
        unrep = shard_sum(s2, "lp_media_unrepairable_total")
        quar = shard_sum(s2, "lp_quarantined")
        if repaired < 1:
            fail(f"lp_media_repaired_total = {repaired}, expected "
                 ">= 1 (injected fault was never detected)")
        if unrep != 0 or quar != 0:
            fail(f"unrepairable = {unrep}, quarantined = {quar}; "
                 "expected a clean repair")
    if args.min_scrub_passes > 0:
        passes = shard_sum(s2, "lp_scrub_passes")
        if passes < args.min_scrub_passes:
            fail(f"lp_scrub_passes = {passes}, expected >= "
                 f"{args.min_scrub_passes} (scrub walker stalled?)")

    if args.shutdown:
        rid = fresh_id()
        st, got, _, _ = rpc(
            sock, struct.pack("<BQ", OP_SHUTDOWN, rid)
        )
        if st != ST_OK or got != rid:
            fail(f"SHUTDOWN -> status {st}")
    sock.close()
    print(
        f"smoke_load: OK: {rounds * args.records + extra} mutations, "
        f"{args.records} readbacks, 2 scrapes "
        f"({len(s2)} series, monotonic)"
    )


if __name__ == "__main__":
    try:
        main()
    except ServerGone as e:
        fail(str(e))
