/**
 * @file
 * Wire protocol of lp::server -- a small length-prefixed binary
 * framing over TCP, designed for pipelining (every request carries a
 * client-chosen 64-bit id that its response echoes, so responses may
 * be matched out of order).
 *
 * Frame layout (all integers little-endian):
 *
 *   u32 len        payload bytes following this field (not counting
 *                  the 4 length bytes themselves)
 *   u8  op/status  first payload byte
 *   u64 id         request id, echoed verbatim in the response
 *   ...            op-specific payload (see below)
 *
 * Requests:
 *   GET      op=1  u64 key                          (len 17)
 *   PUT      op=2  u64 key, u64 value               (len 25)
 *   DEL      op=3  u64 key                          (len 17)
 *   BATCH    op=4  u32 n, then n x {u8 sub, u64 key[, u64 value]}
 *                  where sub is 2 (put, with value) or 3 (del)
 *   STATS    op=5  --                               (len 9)
 *   SHUTDOWN op=6  --                               (len 9)
 *   METRICS  op=7  --                               (len 9)
 *   SCAN     op=8  u64 start_key, u32 limit         (len 21)
 *                  limit must be in [1, maxScanRecords]; anything
 *                  else is Malformed at decode time
 *   TXN      op=9  u32 n, then n x {u8 sub, u64 key[, u64 value]}
 *                  where sub is 1 (get), 2 (put, with value),
 *                  3 (del) or 4 (add, with a u64 two's-complement
 *                  delta). n must be in [1, maxTxnOps]. All ops
 *                  commit atomically across shards or none do.
 *
 * Responses:
 *   status=0 Ok        GET carries u64 value; STATS carries a JSON
 *                      text body; METRICS carries a Prometheus text
 *                      exposition body; SCAN carries a binary body of
 *                      u32 count then count x {u64 key, u64 value}
 *                      records in ascending key order (decode with
 *                      decodeScanBody); a committed TXN carries a
 *                      binary body of u32 nGets then nGets x
 *                      {u8 found, u64 value}, one per get sub-op in
 *                      request order (decode with
 *                      decodeTxnReadsBody); PUT/DEL/BATCH/SHUTDOWN
 *                      carry nothing
 *   status=1 NotFound  GET miss (no value)
 *   status=2 Retry     connection over its in-flight budget; resend
 *                      later (backpressure, not an error)
 *   status=3 Err       semantically invalid (e.g. a key in the
 *                      reserved sentinel range)
 *   status=4 Fault     the key's shard hit unrepairable media
 *                      corruption and is quarantined read-only:
 *                      mutations (PUT/DEL/BATCH/TXN) are refused, GET
 *                      and SCAN still work. Not retryable -- an
 *                      operator must replace the backing media (see
 *                      docs/recovery_cookbook.md, corruption triage)
 *   status=5 Aborted   the TXN lost a wait-die conflict and committed
 *                      nothing; retryable (the retry gets a fresh,
 *                      younger timestamp -- back off with jitter)
 *
 * The canonical opcode/status table (one row per op, with frame
 * sizes and status applicability) lives in docs/server_design.md;
 * extend it first when adding an opcode.
 *
 * Robustness rules: a frame whose length field exceeds maxFrameBytes,
 * whose opcode/status is unknown, whose length disagrees with its
 * opcode, or whose BATCH count is oversized or inconsistent is
 * Malformed -- the peer must close the connection. Truncated input is
 * NeedMore: keep the bytes and wait. Decoders never read past the
 * supplied buffer.
 */

#ifndef LP_SERVER_PROTOCOL_HH
#define LP_SERVER_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "txn/protocol.hh"

namespace lp::server
{

/** Request opcodes. */
enum class Op : std::uint8_t
{
    Get = 1,
    Put = 2,
    Del = 3,
    Batch = 4,
    Stats = 5,
    Shutdown = 6,
    Metrics = 7,
    Scan = 8,
    Txn = 9,
};

/** Response status codes. */
enum class Status : std::uint8_t
{
    Ok = 0,
    NotFound = 1,
    Retry = 2,
    Err = 3,
    Fault = 4,    ///< shard quarantined read-only (media fault)
    Aborted = 5,  ///< TXN lost a wait-die conflict; retry with backoff
};

/** Largest accepted payload (the u32 after the length field). */
inline constexpr std::size_t maxFrameBytes = 1u << 20;

/** Largest accepted BATCH op count. */
inline constexpr std::size_t maxBatchOps = 4096;

/**
 * Largest accepted SCAN limit (and largest record count a SCAN
 * response body may carry). 4096 records = 64KiB of body, well under
 * maxFrameBytes; a larger range is paged by re-issuing from the last
 * key returned.
 */
inline constexpr std::size_t maxScanRecords = 4096;

/**
 * Largest accepted TXN op count. Matches txn::maxTxnWriteOps so any
 * wire transaction's whole write-set fits one decision entry; a
 * bigger multi-key update should be split (only single transactions
 * get cross-shard atomicity anyway).
 */
inline constexpr std::size_t maxTxnOps = 32;

/** One mutation inside a BATCH request. */
struct BatchOp
{
    bool isPut;
    std::uint64_t key;
    std::uint64_t value;  ///< meaningful only when isPut
};

/** One key/value record inside a SCAN response body. */
struct ScanRecord
{
    std::uint64_t key;
    std::uint64_t value;
};

/** One sub-op inside a TXN request; its Kind values are the wire
 *  encoding. */
using TxnOp = txn::Op;

/** One get result inside a committed TXN response body. */
struct TxnRead
{
    bool found = false;
    std::uint64_t value = 0;
};

/** A decoded request. */
struct Request
{
    Op op = Op::Get;
    std::uint64_t id = 0;
    std::uint64_t key = 0;       ///< GET/PUT/DEL key; SCAN start_key
    std::uint64_t value = 0;
    std::uint32_t limit = 0;     ///< SCAN only
    std::vector<BatchOp> batch;  ///< BATCH only
    std::vector<TxnOp> txn;      ///< TXN only
};

/** A decoded response. */
struct Response
{
    Status status = Status::Ok;
    bool hasValue = false;       ///< GET hit: value is meaningful
    std::uint64_t id = 0;
    std::uint64_t value = 0;
    std::string body;            ///< STATS: JSON; METRICS: exposition
};

/** Outcome of one decode attempt over a byte window. */
enum class Decode
{
    Ok,        ///< one frame decoded; @p consumed bytes were used
    NeedMore,  ///< the window holds only a frame prefix; read more
    Malformed, ///< protocol violation; close the connection
};

/** Append the encoded frame for @p r to @p out. */
void encodeRequest(const Request &r, std::vector<std::uint8_t> &out);

/** Append the encoded frame for @p r to @p out. */
void encodeResponse(const Response &r, std::vector<std::uint8_t> &out);

/**
 * Try to decode one request frame from [@p buf, @p buf + @p n).
 * On Ok, @p out is filled and @p consumed is the frame's total size.
 */
Decode decodeRequest(const std::uint8_t *buf, std::size_t n,
                     std::size_t &consumed, Request &out);

/** Response-side decoder, same contract as decodeRequest. */
Decode decodeResponse(const std::uint8_t *buf, std::size_t n,
                      std::size_t &consumed, Response &out);

/** Render @p records as a SCAN response body (u32 count + records). */
std::string encodeScanBody(const std::vector<ScanRecord> &records);

/**
 * Parse a SCAN response body into @p out. Strict: false (and @p out
 * cleared) unless the count field is within maxScanRecords and the
 * body is exactly 4 + 16 * count bytes. A false return means the
 * peer violated the protocol; treat it like Decode::Malformed.
 */
bool decodeScanBody(const std::string &body,
                    std::vector<ScanRecord> &out);

/**
 * Render get results as a TXN response body (u32 count + count x
 * {u8 found, u64 value}). Always 4 + 9 * count bytes -- never 8, so
 * a TXN Ok frame can never collide with the len==17 GET-value frame.
 */
std::string encodeTxnReadsBody(const std::vector<TxnRead> &reads);

/**
 * Parse a TXN response body into @p out. Strict, like
 * decodeScanBody: count within maxTxnOps, found a clean 0/1, exact
 * size; false means the peer violated the protocol.
 */
bool decodeTxnReadsBody(const std::string &body,
                        std::vector<TxnRead> &out);

/** Human-readable status name (diagnostics). */
std::string statusName(Status s);

} // namespace lp::server

#endif // LP_SERVER_PROTOCOL_HH
