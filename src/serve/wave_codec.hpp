// wave1: compact binary waveform encoding for streamed transient responses.
//
// A wave1 stream is a HEADER frame naming the value columns, CHUNK frames
// carrying self-contained binary blocks, and an END frame whose `layout`
// array tells the client how to splice the decoded columns back into the
// exact JSON text the non-streaming path would have produced — so a decoded
// wave1 stream is byte-identical to the single-line response at any chunk
// size, thread count or worker count.
//
// Block grammar (one CHUNK payload, all integers little-endian):
//
//   u32 n_rows                       (> 0)
//   if has_time: run records until n_rows time values are covered —
//     u8  kind                       0 = literal, 1 = arithmetic
//     u32 count                      (> 0)
//     kind 0: count x f64            raw samples
//     kind 1: f64 start, f64 step    row j decodes as start + j*step, summed
//                                    iteratively (cur += step); the encoder
//                                    only emits a run it verified reproduces
//                                    the original bits that way
//   per value column, in HEADER order: n_rows x f64
//
// Fixed-step transients collapse their whole time axis to one arithmetic
// run per block; adaptive stepping degrades gracefully to literal records.
//
// The END `layout` is a JSON array alternating literal text and column
// indices (0..n_cols-1 = value columns in HEADER order; index n_cols = the
// time column when has_time). The client concatenates the text pieces and
// renders each referenced column as comma-joined shortest-round-trip
// doubles (json::append_number — the exact Value::write() spelling).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "serve/frame.hpp"
#include "spice/analysis.hpp"

namespace ivory::serve {

/// Running per-column statistics in the exact floating-point accumulation
/// order of core::to_json(TranResult): min/max fold every sample (the first
/// one twice, harmlessly), sum adds in arrival order.
struct ColumnStats {
  double lo = 0.0, hi = 0.0, sum = 0.0, last = 0.0;
  std::size_t n = 0;

  void add(double s) {
    if (n == 0) { lo = s; hi = s; }
    lo = std::min(lo, s);
    hi = std::max(hi, s);
    sum += s;
    last = s;
    ++n;
  }
  double final_v() const { return n ? last : 0.0; }
  double mean_v() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

/// Buffers rows and encodes full wave1 blocks sized to a chunk budget.
class Wave1Encoder {
 public:
  Wave1Encoder(std::size_t n_value_cols, bool has_time);

  void add_row(double t, const double* v, std::size_t n);
  bool empty() const { return buffered_ == 0; }
  /// True once the encoded block would reach `chunk_bytes` (pre-collapse
  /// estimate; run collapsing only shrinks it).
  bool full(std::size_t chunk_bytes) const;
  /// Encodes and clears the buffered rows. Precondition: !empty().
  std::string encode_block();

 private:
  std::size_t n_cols_;
  bool has_time_;
  std::size_t buffered_ = 0;
  std::vector<double> time_;
  std::vector<std::vector<double>> cols_;
};

/// Decodes wave1 blocks, accumulating columns across chunks. Every length is
/// bounds-checked against the payload; any violation throws
/// StreamProtocolError.
class Wave1Decoder {
 public:
  Wave1Decoder(std::size_t n_value_cols, bool has_time);

  void decode_block(std::string_view payload);

  std::size_t rows() const { return rows_; }
  const std::vector<double>& time() const { return time_; }
  const std::vector<double>& column(std::size_t i) const { return cols_.at(i); }
  std::size_t n_value_cols() const { return cols_.size(); }
  bool has_time() const { return has_time_; }

 private:
  bool has_time_;
  std::size_t rows_ = 0;
  std::vector<double> time_;
  std::vector<std::vector<double>> cols_;
};

/// Producer for a streamed SPICE transient: emits the HEADER up front, turns
/// the engine's sample callback into wave1 CHUNKs, and builds the END layout
/// from the finished TranResult's counters plus the streamed statistics.
/// Reassembled output is byte-identical to
/// `{"id":<id>,"ok":true,"result":` + core::to_json(res, names, true).write() + `}`.
class Wave1TransientStream {
 public:
  /// Emits the HEADER frame. `id_json` is the request id already serialized.
  Wave1TransientStream(StreamEmitter& em, std::string id_json,
                       std::vector<std::string> names);

  /// Engine-facing sample callback (rows in record-node order).
  std::function<void(double, const double*, std::size_t)> sink();

  /// Flushes buffered rows and emits the END frame. `res` supplies the
  /// counters; its waveform vectors are expected to be empty (they streamed).
  void finish(const spice::TranResult& res);

  std::size_t rows() const { return rows_; }

 private:
  StreamEmitter& em_;
  std::string id_json_;
  std::vector<std::string> names_;
  Wave1Encoder enc_;
  std::vector<ColumnStats> stats_;
  std::size_t rows_ = 0;
};

/// Producer for a streamed single-column waveform (the behavioural transient
/// ops): one value column, no time axis. finish() splices the caller's
/// summary object (the result object *without* its trailing waveform member)
/// around the streamed column.
class Wave1ColumnStream {
 public:
  Wave1ColumnStream(StreamEmitter& em, std::string id_json, std::string column_name);

  void push(double v);

  /// `summary_object_json` is the result object as Value::write() renders it,
  /// without the waveform member. The reassembled line is byte-identical to
  /// ok_response(id, <summary with `"<column>":[...]` appended last>).
  void finish(const std::string& summary_object_json);

 private:
  StreamEmitter& em_;
  std::string id_json_;
  std::string column_name_;
  Wave1Encoder enc_;
  std::size_t rows_ = 0;
};

/// Client-side reassembly of one stream into the exact non-streaming
/// response line. Feed decoded frames in order; sequencing violations,
/// malformed payloads and row-count mismatches throw StreamProtocolError.
class StreamAssembler {
 public:
  void on_frame(const Frame& f);

  bool done() const { return done_; }
  /// "ok", "cancelled", "deadline_exceeded", or "error".
  const std::string& status() const { return status_; }
  /// The reassembled response line (status "ok"), the error envelope line
  /// (status "error"), or the terminal status payload otherwise.
  const std::string& decoded() const { return decoded_; }

 private:
  void render_layout(const json::Value& end_payload);

  bool saw_header_ = false;
  bool done_ = false;
  bool has_time_ = false;
  std::size_t n_cols_ = 0;
  std::unique_ptr<Wave1Decoder> dec_;
  std::string status_;
  std::string decoded_;
};

/// Drives a FrameDecoder + StreamAssembler off a blocking read function
/// (returns bytes read, 0 on EOF) until the terminal frame. `on_frame`, when
/// set, observes every frame (transcript modes). Throws StreamProtocolError
/// on malformed bytes or EOF mid-stream.
StreamAssembler read_stream(const std::function<std::size_t(char*, std::size_t)>& read,
                            const std::function<void(const Frame&)>& on_frame = {});

}  // namespace ivory::serve
