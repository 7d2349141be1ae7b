#pragma once

/// \file protocol.hpp
/// The stormtrackd wire protocol: CRC-framed, length-prefixed messages
/// over a Unix-domain stream socket.
///
/// Every message is one frame:
///
///     u32  magic      "STMF" (0x464D5453 little-endian)
///     u8   type       MsgType discriminator
///     u32  size       payload length in bytes (<= kMaxFramePayload)
///     ...  payload    BinaryWriter-encoded message body
///     u32  crc        CRC-32 (IEEE) over the type byte + payload
///
/// The CRC covers the type byte so a corrupted discriminator can never
/// deliver one message's payload as another's. Framing errors (bad magic,
/// oversized frame, CRC mismatch, EOF mid-frame) throw CheckError — on a
/// connected stream there is no resynchronization story worth having, so
/// the connection is simply dropped. A clean EOF *between* frames returns
/// nullopt from recv_frame() and means the peer hung up.
///
/// Payload encodings reuse the session codecs (serve/session.hpp); the
/// exact body of every message type is documented on MsgType.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/session.hpp"
#include "util/binary_io.hpp"

namespace stormtrack {

/// "STMF" little-endian.
inline constexpr std::uint32_t kFrameMagic = 0x464D'5453u;
/// v2: SessionSpec gained the tenant label, kRejectedBusy reports the
/// estimated queue wait, and kStats/kStatsReply expose per-tenant
/// accounting and daemon health. The handshake rejects a version
/// mismatch in either direction — there are no mixed-version deployments
/// of a daemon and its ctl on one machine worth supporting.
inline constexpr std::uint32_t kProtocolVersion = 2;
/// Upper bound on one frame's payload (16 MiB) — admission control for
/// the codec itself: a garbage length can never make the receiver
/// allocate unbounded memory.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/// Message discriminators. Client → server types are < 64, server →
/// client types >= 64. Payloads (all BinaryWriter-encoded):
///
///   kHello        u32 protocol version
///   kSubmit       SessionSpec
///   kAttach       u64 session id, u64 from_seq
///   kList         (empty)
///   kStatus       u64 session id
///   kCancel       u64 session id
///   kShutdown     (empty)
///   kStats        (empty)
///
///   kHelloOk      u32 version, u64 active, u64 queued
///   kAccepted     u64 session id
///   kRejectedBusy string reason, u64 active, u64 queued,
///                 f64 estimated_wait_seconds (backpressure hint: how long
///                 a queued slot is expected to take to open up)
///   kStatusReply  SessionStatus
///   kListReply    count, then SessionStatus each
///   kEvent        SessionEvent
///   kDone         SessionStatus (terminal; ends an attach stream)
///   kError        string message
///   kShutdownOk   (empty)
///   kStatsReply   ServerStats
enum class MsgType : std::uint8_t {
  kHello = 1,
  kSubmit = 2,
  kAttach = 3,
  kList = 4,
  kStatus = 5,
  kCancel = 6,
  kShutdown = 7,
  kStats = 8,

  kHelloOk = 64,
  kAccepted = 65,
  kRejectedBusy = 66,
  kStatusReply = 67,
  kListReply = 68,
  kEvent = 69,
  kDone = 70,
  kError = 71,
  kShutdownOk = 72,
  kStatsReply = 73,
};

[[nodiscard]] const char* to_string(MsgType type);

/// Per-tenant accounting row in a kStatsReply (see SessionSpec::tenant).
struct TenantStats {
  std::string tenant;            ///< Empty = the default tenant.
  std::uint64_t submitted = 0;   ///< Submits that passed validation.
  std::uint64_t admitted = 0;    ///< Accepted into the queue.
  std::uint64_t rejected = 0;    ///< Turned away at admission (busy).
  std::uint64_t shed = 0;        ///< Displaced from the queue by overload.
  std::uint64_t completed = 0;   ///< Reached the done state.
  double cpu_seconds = 0.0;      ///< Wall seconds of slice time consumed.
};

/// Daemon-level snapshot carried by kStatsReply.
struct ServerStats {
  std::uint64_t active = 0;
  std::uint64_t queued = 0;
  /// False while journal appends are failing and records sit buffered in
  /// memory (degraded mode); the daemon keeps serving either way.
  bool healthy = true;
  std::uint64_t journal_pending = 0;         ///< Buffered journal records.
  std::uint64_t journal_write_failures = 0;  ///< Cumulative failed appends.
  /// Expected seconds until a queued submit would start (EWMA of recent
  /// session durations scaled by the queue ahead of it).
  double estimated_wait_seconds = 0.0;
  std::vector<TenantStats> tenants;  ///< Sorted by tenant name.
  // Shared-pool + pricing-cache block, appended after the tenant list so
  // old decoders (which stop at the tenants) still parse new payloads and
  // new decoders read zeros from old payloads (get_server_stats stops at
  // an exhausted reader). Still protocol v2 — extension, not a break.
  /// Session workers; 0 only when decoded from a payload that predates
  /// this block.
  std::uint64_t pool_threads = 0;
  std::uint64_t pool_executing = 0;  ///< Sessions mid-slice on a worker.
  std::uint64_t pool_runnable = 0;   ///< Admitted, awaiting their next slice.
  std::uint64_t pool_delayed = 0;    ///< Parked in retry backoff.
  std::uint64_t pool_batches = 0;    ///< Executor batches completed.
  std::uint64_t pricing_shared_hits = 0;    ///< Shared-cache pricing hits.
  std::uint64_t pricing_shared_misses = 0;  ///< Shared-cache pricing misses.

  /// Fraction of shared-cache pricings served without recomputation.
  [[nodiscard]] double pricing_shared_hit_rate() const {
    const std::uint64_t total = pricing_shared_hits + pricing_shared_misses;
    return total > 0
               ? static_cast<double>(pricing_shared_hits) /
                     static_cast<double>(total)
               : 0.0;
  }
};

void put_server_stats(BinaryWriter& w, const ServerStats& stats);
[[nodiscard]] ServerStats get_server_stats(BinaryReader& r);

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::byte> payload;

  /// Bounds-checked reader over the payload.
  [[nodiscard]] BinaryReader reader() const {
    return BinaryReader(payload);
  }
};

/// Write one frame to \p fd, handling short writes and EINTR; throws
/// CheckError when the peer is gone (EPIPE/ECONNRESET) or on any other
/// write failure. A positive \p deadline_seconds bounds the *whole frame*:
/// if the peer does not drain its socket fast enough for the frame to be
/// handed to the kernel within the budget, the send throws — this is what
/// lets the daemon drop a stalled attach reader instead of blocking a
/// handler thread forever.
void send_frame(int fd, MsgType type, std::span<const std::byte> payload,
                double deadline_seconds = 0.0);
void send_frame(int fd, MsgType type, const BinaryWriter& payload,
                double deadline_seconds = 0.0);
inline void send_frame(int fd, MsgType type) {
  send_frame(fd, type, std::span<const std::byte>{});
}

/// Read one frame from \p fd. Returns nullopt on clean EOF at a frame
/// boundary; throws CheckError on garbage, CRC mismatch, or EOF
/// mid-frame. A positive \p deadline_seconds arms when the frame's FIRST
/// byte arrives: the rest of the frame must follow within the budget or
/// the read throws (anti-slowloris — a client may idle between frames
/// forever, but once it starts a frame it must finish it).
[[nodiscard]] std::optional<Frame> recv_frame(int fd,
                                              double deadline_seconds = 0.0);

/// Bind + listen on a Unix-domain stream socket at \p path (an existing
/// socket file is removed first — stale sockets from a killed daemon must
/// not block restart). Returns the listening fd; throws CheckError.
[[nodiscard]] int listen_unix(const std::filesystem::path& path,
                              int backlog);

/// Connect to the daemon at \p path. Returns the connected fd; throws
/// CheckError (mentioning the path) when nothing listens there.
[[nodiscard]] int connect_unix(const std::filesystem::path& path);

/// close() ignoring errors — destructor-safe.
void close_fd(int fd) noexcept;

/// Owns a connected client socket and speaks the request/reply half of
/// the protocol — the convenience layer stormtrackctl and the tests use.
/// Not thread-safe (one outstanding request at a time, like the wire).
class ClientConnection {
 public:
  struct SubmitReply {
    bool accepted = false;
    std::uint64_t id = 0;       ///< Valid when accepted.
    std::string reason;         ///< Valid when rejected.
    std::uint64_t active = 0;   ///< Server load at rejection time.
    std::uint64_t queued = 0;
    /// Backpressure hint on rejection: expected seconds until a slot
    /// opens. Retry-after guidance, not a promise.
    double estimated_wait_seconds = 0.0;
  };

  /// Connects and performs the kHello handshake (version check).
  explicit ClientConnection(const std::filesystem::path& socket_path);
  ~ClientConnection();

  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  [[nodiscard]] SubmitReply submit(const SessionSpec& spec);
  [[nodiscard]] std::vector<SessionStatus> list();
  [[nodiscard]] SessionStatus status(std::uint64_t id);
  /// Daemon health + per-tenant accounting snapshot.
  [[nodiscard]] ServerStats stats();
  /// Returns the post-cancel status.
  SessionStatus cancel(std::uint64_t id);
  /// Ask the daemon to shut down gracefully.
  void shutdown_server();

  /// Stream events for \p id starting at \p from_seq, invoking
  /// \p on_event per event, until the session reaches a terminal state;
  /// returns the terminal status.
  SessionStatus attach(
      std::uint64_t id, std::uint64_t from_seq,
      const std::function<void(const SessionEvent&)>& on_event);

  [[nodiscard]] int fd() const { return fd_; }

 private:
  /// Send \p request, receive the reply; throws CheckError when the reply
  /// is kError (with the server's message) or an unexpected type.
  Frame round_trip(MsgType request, const BinaryWriter& payload,
                   MsgType expected);

  int fd_ = -1;
};

}  // namespace stormtrack
