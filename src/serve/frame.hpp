// Length-prefixed binary framing for streamed serve responses.
//
// A streamed response is the 12-byte magic "ivorystream1" followed by frames.
// Each frame is:
//
//   u32 LE  payload_len          (<= kMaxFramePayload)
//   u8      type                 (FrameType below)
//   bytes   payload[payload_len]
//   u64 LE  checksum             fnv1a64(payload, seeded with the type byte)
//
// A stream carries exactly one HEADER, zero or more CHUNKs, and exactly one
// terminal frame (END, ERROR or CANCEL_ACK), after which the connection
// returns to line-delimited JSON. Frames never interleave between requests:
// per-connection response order equals submission order, streamed or not.
//
// This header also holds the two endpoints of the stream machinery:
//
//   StreamEmitter   — producer side. Wraps a write function, emits frames
//                     under a chunk budget, and converts cancel/deadline/
//                     consumer-gone conditions into StreamEmitter::Abort so
//                     the evaluation unwinds mid-waveform.
//   FrameDecoder    — consumer side. Incremental pull parser; throws
//                     StreamProtocolError on any malformed byte, never hangs
//                     on truncation (next() just returns nullopt until fed).
//   ResponseScanner — the supervisor's acceptor mux. Counts completed
//                     responses (lines and whole streams) in a worker's
//                     output and withholds partially-received frames so a
//                     worker crash mid-frame never leaks garbage to clients.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace ivory::serve {

inline constexpr std::string_view kStreamMagic = "ivorystream1";
inline constexpr std::size_t kMaxFramePayload = 16u << 20;  // 16 MiB

enum class FrameType : std::uint8_t {
  Header = 1,     ///< JSON: {"id":...,"encoding":"wave1","columns":...,"has_time":...}
  Chunk = 2,      ///< one wave1 block
  End = 3,        ///< JSON status, terminal: {"id":...,"status":"ok",...}
  Error = 4,      ///< the exact non-streaming error envelope line, terminal
  CancelAck = 5,  ///< JSON: {"id":...,"status":"cancelled"}, terminal
};

/// True for the frame types that end a stream.
inline bool is_terminal(FrameType t) {
  return t == FrameType::End || t == FrameType::Error || t == FrameType::CancelAck;
}

/// Human-readable frame-type name (for transcripts and test messages).
const char* frame_type_name(FrameType t);

/// The wire does not conform to the grammar above (bad magic, oversized
/// length, unknown type, checksum mismatch, malformed wave1 block, ...).
class StreamProtocolError : public InvalidParameter {
 public:
  explicit StreamProtocolError(const std::string& what)
      : InvalidParameter("stream: " + what) {}
};

/// Checksum of one frame: fnv1a64 over the payload, seeded with the hash of
/// the single type byte so the type is covered too.
std::uint64_t frame_checksum(FrameType type, std::string_view payload);

/// Appends one encoded frame (header + payload + checksum, no magic) to
/// `out`. Throws InvalidParameter when payload exceeds kMaxFramePayload.
void encode_frame(std::string& out, FrameType type, std::string_view payload);

struct Frame {
  FrameType type;
  std::string payload;
};

/// Incremental frame parser. feed() bytes as they arrive; next() yields one
/// decoded frame at a time, nullopt while more bytes are needed. The magic
/// prefix is consumed once per decoder lifetime (one decoder per stream).
/// Any grammar violation throws StreamProtocolError; truncation mid-frame is
/// not an error here — the caller decides whether EOF mid-frame is clean.
class FrameDecoder {
 public:
  std::optional<Frame> next();
  void feed(std::string_view bytes) { buf_.append(bytes); }

  /// True once the magic prefix has been consumed.
  bool saw_magic() const { return saw_magic_; }
  /// Bytes buffered but not yet consumed by next().
  std::size_t pending_bytes() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  bool saw_magic_ = false;
};

/// Producer side of one stream. All frame emission for a response goes
/// through one emitter; it writes the magic lazily before the first frame.
///
/// The write function returns false when the consumer is gone (its delivery
/// queue was shut down); the emitter then throws Abort{ConsumerGone}. Cancel
/// and deadline are checked before every CHUNK and converted to
/// Abort{Cancelled}/Abort{Expired}; the service catches Abort and emits the
/// matching terminal frame. Terminal emitters swallow write failure — there
/// is nobody left to tell.
class StreamEmitter {
 public:
  /// Why chunk emission unwound. Thrown by check_abort()/chunk().
  struct Abort {
    enum class Reason { Cancelled, Expired, ConsumerGone };
    Reason reason;
  };

  using WriteFn = std::function<bool(std::string&&)>;

  StreamEmitter(WriteFn write, std::shared_ptr<std::atomic<bool>> cancelled,
                double deadline_ms, std::chrono::steady_clock::time_point enqueued);

  void set_chunk_bytes(std::size_t n);
  std::size_t chunk_bytes() const { return chunk_bytes_; }

  /// Throws Abort when the request is cancelled, past deadline, or the
  /// consumer is gone. Cheap; called before every chunk and safe to call
  /// from tight sample loops.
  void check_abort();

  void header(std::string_view payload);
  /// One CHUNK frame carrying `payload` verbatim (wave1 blocks size
  /// themselves to the chunk budget before calling this).
  void chunk(std::string_view payload);
  void end(std::string_view payload);
  void error(std::string_view payload);
  void cancel_ack(std::string_view payload);

  std::size_t chunks_emitted() const { return chunks_; }

 private:
  void emit(FrameType type, std::string_view payload, bool terminal);

  WriteFn write_;
  std::shared_ptr<std::atomic<bool>> cancelled_;
  double deadline_ms_;
  std::chrono::steady_clock::time_point enqueued_;
  std::size_t chunk_bytes_ = 65536;
  std::size_t chunks_ = 0;
  bool wrote_magic_ = false;
};

/// JSON `{"id":<id>,"status":"<status>"}` for END/CANCEL_ACK payloads.
/// `id_json` is the request id already serialized (e.g. "7", "\"a\"", "null").
std::string stream_status_payload(std::string_view id_json, std::string_view status);

/// Counts completed responses in a worker's byte stream for the supervisor
/// mux, which must know how many requests were answered when a worker dies.
/// Plain lines count at '\n'; a stream counts once at its terminal frame.
/// Line bytes and complete frames are appended to `forward` immediately;
/// bytes of a partially received frame are withheld until the frame
/// completes, so a worker crash mid-frame forwards nothing torn. The worker
/// is trusted (same binary), so this scanner never throws — a malformed
/// prefix simply falls back to line accounting.
class ResponseScanner {
 public:
  /// Consumes `n` bytes, appends forwardable bytes to `forward`, returns the
  /// number of responses completed within this call.
  std::size_t feed(const char* data, std::size_t n, std::string& forward);

  /// True while inside a stream whose terminal frame has not been seen.
  bool mid_stream() const { return state_ == State::Frame || in_stream_; }

 private:
  enum class State { Boundary, Line, Frame };

  State state_ = State::Boundary;
  bool in_stream_ = false;   ///< between magic and terminal frame
  std::string held_;         ///< bytes withheld at a boundary or mid-frame
  std::size_t frame_total_ = 0;  ///< full size of the frame being gathered
};

}  // namespace ivory::serve
