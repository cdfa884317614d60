#include "serve/frame.hpp"

#include <algorithm>
#include <cstring>

#include "common/hash.hpp"

namespace ivory::serve {

namespace {

// Explicit little-endian (de)serialization keeps the wire format identical
// across platforms regardless of host byte order.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

bool valid_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::Header) &&
         t <= static_cast<std::uint8_t>(FrameType::CancelAck);
}

constexpr std::size_t kFrameHeaderBytes = 5;  // u32 len + u8 type
constexpr std::size_t kChecksumBytes = 8;

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::Header: return "HEADER";
    case FrameType::Chunk: return "CHUNK";
    case FrameType::End: return "END";
    case FrameType::Error: return "ERROR";
    case FrameType::CancelAck: return "CANCEL_ACK";
  }
  return "?";
}

std::uint64_t frame_checksum(FrameType type, std::string_view payload) {
  const char type_byte = static_cast<char>(type);
  return fnv1a64(payload, fnv1a64(std::string_view(&type_byte, 1)));
}

void encode_frame(std::string& out, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload)
    throw InvalidParameter("stream: frame payload exceeds " +
                           std::to_string(kMaxFramePayload) + " bytes");
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.push_back(static_cast<char>(type));
  out.append(payload);
  put_u64(out, frame_checksum(type, payload));
}

std::optional<Frame> FrameDecoder::next() {
  if (!saw_magic_) {
    if (buf_.size() - pos_ < kStreamMagic.size()) return std::nullopt;
    if (std::string_view(buf_).substr(pos_, kStreamMagic.size()) != kStreamMagic)
      throw StreamProtocolError("bad magic (expected \"" + std::string(kStreamMagic) +
                                "\")");
    pos_ += kStreamMagic.size();
    saw_magic_ = true;
  }
  if (buf_.size() - pos_ < kFrameHeaderBytes) return std::nullopt;
  const std::uint32_t len = get_u32(buf_.data() + pos_);
  const std::uint8_t type = static_cast<std::uint8_t>(buf_[pos_ + 4]);
  if (len > kMaxFramePayload)
    throw StreamProtocolError("frame length " + std::to_string(len) + " exceeds " +
                              std::to_string(kMaxFramePayload));
  if (!valid_type(type))
    throw StreamProtocolError("unknown frame type " + std::to_string(type));
  const std::size_t total = kFrameHeaderBytes + len + kChecksumBytes;
  if (buf_.size() - pos_ < total) return std::nullopt;

  Frame f;
  f.type = static_cast<FrameType>(type);
  f.payload.assign(buf_, pos_ + kFrameHeaderBytes, len);
  const std::uint64_t want = get_u64(buf_.data() + pos_ + kFrameHeaderBytes + len);
  const std::uint64_t got = frame_checksum(f.type, f.payload);
  if (want != got)
    throw StreamProtocolError(std::string("checksum mismatch on ") +
                              frame_type_name(f.type) + " frame");
  pos_ += total;
  // Compact the buffer once the consumed prefix dominates, so a long stream
  // does not retain every byte it ever saw.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return f;
}

StreamEmitter::StreamEmitter(WriteFn write, std::shared_ptr<std::atomic<bool>> cancelled,
                             double deadline_ms,
                             std::chrono::steady_clock::time_point enqueued)
    : write_(std::move(write)),
      cancelled_(std::move(cancelled)),
      deadline_ms_(deadline_ms),
      enqueued_(enqueued) {}

void StreamEmitter::set_chunk_bytes(std::size_t n) {
  chunk_bytes_ = std::max<std::size_t>(1, std::min(n, kMaxFramePayload));
}

void StreamEmitter::check_abort() {
  if (cancelled_ && cancelled_->load(std::memory_order_relaxed))
    throw Abort{Abort::Reason::Cancelled};
  if (deadline_ms_ > 0.0) {
    const double waited = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - enqueued_)
                              .count();
    if (waited > deadline_ms_) throw Abort{Abort::Reason::Expired};
  }
}

void StreamEmitter::emit(FrameType type, std::string_view payload, bool terminal) {
  std::string bytes;
  bytes.reserve((wrote_magic_ ? 0 : kStreamMagic.size()) + kFrameHeaderBytes +
                payload.size() + kChecksumBytes);
  if (!wrote_magic_) {
    bytes.append(kStreamMagic);
    wrote_magic_ = true;
  }
  encode_frame(bytes, type, payload);
  const bool ok = write_(std::move(bytes));
  // Terminal frames swallow delivery failure: the consumer already left.
  if (!ok && !terminal) throw Abort{Abort::Reason::ConsumerGone};
}

void StreamEmitter::header(std::string_view payload) {
  emit(FrameType::Header, payload, /*terminal=*/false);
}

void StreamEmitter::chunk(std::string_view payload) {
  check_abort();
  emit(FrameType::Chunk, payload, /*terminal=*/false);
  ++chunks_;
}

void StreamEmitter::end(std::string_view payload) {
  emit(FrameType::End, payload, /*terminal=*/true);
}

void StreamEmitter::error(std::string_view payload) {
  emit(FrameType::Error, payload, /*terminal=*/true);
}

void StreamEmitter::cancel_ack(std::string_view payload) {
  emit(FrameType::CancelAck, payload, /*terminal=*/true);
}

std::string stream_status_payload(std::string_view id_json, std::string_view status) {
  std::string out = "{\"id\":";
  out.append(id_json);
  out.append(",\"status\":\"");
  out.append(status);
  out.append("\"}");
  return out;
}

std::size_t ResponseScanner::feed(const char* data, std::size_t n, std::string& forward) {
  std::size_t completed = 0;
  std::size_t i = 0;
  while (i < n) {
    switch (state_) {
      case State::Boundary: {
        // Accumulate while the bytes are still a prefix of the stream magic.
        while (i < n && held_.size() < kStreamMagic.size() &&
               data[i] == kStreamMagic[held_.size()])
          held_.push_back(data[i++]);
        if (held_.size() == kStreamMagic.size()) {
          forward.append(held_);
          held_.clear();
          in_stream_ = true;
          frame_total_ = 0;
          state_ = State::Frame;
        } else if (i < n) {
          // Diverged from the magic: it was an ordinary line all along.
          forward.append(held_);
          held_.clear();
          state_ = State::Line;
        }
        break;
      }
      case State::Line: {
        while (i < n) {
          const char c = data[i++];
          forward.push_back(c);
          if (c == '\n') {
            ++completed;
            state_ = State::Boundary;
            break;
          }
        }
        break;
      }
      case State::Frame: {
        // Gather the 5-byte frame header, then the full frame, into held_;
        // forward only complete frames so a dead worker leaks nothing torn.
        if (frame_total_ == 0) {
          while (i < n && held_.size() < 5) held_.push_back(data[i++]);
          if (held_.size() < 5) return completed;
          const std::uint32_t len = get_u32(held_.data());
          frame_total_ = 5 + static_cast<std::size_t>(len) + 8;
        }
        const std::size_t want = frame_total_ - held_.size();
        const std::size_t take = std::min(want, n - i);
        held_.append(data + i, take);
        i += take;
        if (held_.size() < frame_total_) return completed;
        const std::uint8_t type = static_cast<std::uint8_t>(held_[4]);
        forward.append(held_);
        held_.clear();
        frame_total_ = 0;
        if (valid_type(type) && is_terminal(static_cast<FrameType>(type))) {
          ++completed;
          in_stream_ = false;
          state_ = State::Boundary;
        }
        // Non-terminal (or unexpected) type: stay in Frame for the next one.
        break;
      }
    }
  }
  return completed;
}

}  // namespace ivory::serve
