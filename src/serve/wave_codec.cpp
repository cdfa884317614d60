#include "serve/wave_codec.hpp"

#include <cstring>

namespace ivory::serve {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& out, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
}

std::uint64_t bits_of(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// Bounds-checked little-endian reader over one block payload.
class BlockReader {
 public:
  explicit BlockReader(std::string_view p) : p_(p) {}

  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p_[pos_ + i])) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint8_t u8() {
    need(1, "u8");
    return static_cast<std::uint8_t>(p_[pos_++]);
  }

  double f64() {
    need(8, "f64");
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      v_or(bits, i);
    pos_ += 8;
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }

  std::size_t remaining() const { return p_.size() - pos_; }

 private:
  void v_or(std::uint64_t& bits, int i) {
    bits |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[pos_ + i])) << (8 * i);
  }
  void need(std::size_t n, const char* what) {
    if (p_.size() - pos_ < n)
      throw StreamProtocolError(std::string("wave1 block truncated reading ") + what);
  }

  std::string_view p_;
  std::size_t pos_ = 0;
};

/// Length of the arithmetic run starting at `p`: the longest prefix that the
/// decoder's iterative `cur += step` replay reproduces bit-for-bit.
std::size_t arith_run_length(const std::vector<double>& t, std::size_t p, std::size_t n) {
  if (n - p < 2) return 1;
  const double step = t[p + 1] - t[p];
  double cur = t[p];
  std::size_t len = 1;
  while (p + len < n) {
    cur += step;
    if (bits_of(cur) != bits_of(t[p + len])) break;
    ++len;
  }
  return len;
}

constexpr std::size_t kMinArithRun = 4;

void encode_time_runs(std::string& out, const std::vector<double>& t) {
  const std::size_t n = t.size();
  std::size_t p = 0;
  while (p < n) {
    const std::size_t lit_start = p;
    while (p < n && arith_run_length(t, p, n) < kMinArithRun) ++p;
    if (p > lit_start) {
      out.push_back(0);  // kind: literal
      put_u32(out, static_cast<std::uint32_t>(p - lit_start));
      for (std::size_t i = lit_start; i < p; ++i) put_f64(out, t[i]);
    }
    if (p < n) {
      const std::size_t len = arith_run_length(t, p, n);
      out.push_back(1);  // kind: arithmetic
      put_u32(out, static_cast<std::uint32_t>(len));
      put_f64(out, t[p]);
      put_f64(out, len > 1 ? t[p + 1] - t[p] : 0.0);
      p += len;
    }
  }
}

/// Comma-joined shortest-round-trip rendering of a column.
void append_column(std::string& out, const std::vector<double>& col) {
  for (std::size_t i = 0; i < col.size(); ++i) {
    if (i) out.push_back(',');
    json::append_number(out, col[i]);
  }
}

/// `obj.write()` with the closing '}' removed, ready for member splicing.
std::string open_object(const json::Value& obj) {
  std::string s = obj.write();
  s.pop_back();  // write() of an object always ends in '}'
  return s;
}

}  // namespace

Wave1Encoder::Wave1Encoder(std::size_t n_value_cols, bool has_time)
    : n_cols_(n_value_cols), has_time_(has_time), cols_(n_value_cols) {}

void Wave1Encoder::add_row(double t, const double* v, std::size_t n) {
  require(n == n_cols_, "wave1: row width does not match the column count");
  if (has_time_) time_.push_back(t);
  for (std::size_t i = 0; i < n_cols_; ++i) cols_[i].push_back(v[i]);
  ++buffered_;
}

bool Wave1Encoder::full(std::size_t chunk_bytes) const {
  return 4 + buffered_ * 8 * (n_cols_ + (has_time_ ? 1 : 0)) >= chunk_bytes;
}

std::string Wave1Encoder::encode_block() {
  require(buffered_ > 0, "wave1: encode_block on an empty buffer");
  std::string out;
  out.reserve(4 + buffered_ * 8 * (n_cols_ + (has_time_ ? 1 : 0)));
  put_u32(out, static_cast<std::uint32_t>(buffered_));
  if (has_time_) encode_time_runs(out, time_);
  for (std::vector<double>& col : cols_) {
    for (const double s : col) put_f64(out, s);
    col.clear();
  }
  time_.clear();
  buffered_ = 0;
  return out;
}

Wave1Decoder::Wave1Decoder(std::size_t n_value_cols, bool has_time)
    : has_time_(has_time), cols_(n_value_cols) {}

void Wave1Decoder::decode_block(std::string_view payload) {
  BlockReader r(payload);
  const std::uint32_t n_rows = r.u32();
  if (n_rows == 0) throw StreamProtocolError("wave1 block with zero rows");
  // Cheap size sanity before any allocation: the columns alone need
  // n_rows * 8 bytes each, and time records need at least 5 bytes.
  const std::size_t min_bytes =
      static_cast<std::size_t>(n_rows) * 8 * cols_.size() + (has_time_ ? 5 : 0);
  if (r.remaining() < min_bytes)
    throw StreamProtocolError("wave1 block shorter than its declared row count");

  if (has_time_) {
    std::size_t covered = 0;
    while (covered < n_rows) {
      const std::uint8_t kind = r.u8();
      const std::uint32_t count = r.u32();
      if (count == 0) throw StreamProtocolError("wave1 time run with zero count");
      if (covered + count > n_rows)
        throw StreamProtocolError("wave1 time runs overrun the block row count");
      if (kind == 0) {
        for (std::uint32_t i = 0; i < count; ++i) time_.push_back(r.f64());
      } else if (kind == 1) {
        double cur = r.f64();
        const double step = r.f64();
        for (std::uint32_t i = 0; i < count; ++i) {
          time_.push_back(cur);
          cur += step;
        }
      } else {
        throw StreamProtocolError("wave1 time run with unknown kind " +
                                  std::to_string(kind));
      }
      covered += count;
    }
  }
  for (std::vector<double>& col : cols_)
    for (std::uint32_t i = 0; i < n_rows; ++i) col.push_back(r.f64());
  if (r.remaining() != 0)
    throw StreamProtocolError("wave1 block has trailing bytes");
  rows_ += n_rows;
}

Wave1TransientStream::Wave1TransientStream(StreamEmitter& em, std::string id_json,
                                           std::vector<std::string> names)
    : em_(em),
      id_json_(std::move(id_json)),
      names_(std::move(names)),
      enc_(names_.size(), /*has_time=*/true),
      stats_(names_.size()) {
  json::Value::Array cols;
  cols.reserve(names_.size());
  for (const std::string& n : names_) cols.push_back(n);
  std::string header = "{\"id\":" + id_json_ + ",\"encoding\":\"wave1\",\"columns\":" +
                       json::Value(std::move(cols)).write() + ",\"has_time\":true}";
  em_.header(header);
}

std::function<void(double, const double*, std::size_t)> Wave1TransientStream::sink() {
  return [this](double t, const double* v, std::size_t n) {
    enc_.add_row(t, v, n);
    for (std::size_t i = 0; i < n; ++i) stats_[i].add(v[i]);
    ++rows_;
    if (enc_.full(em_.chunk_bytes())) em_.chunk(enc_.encode_block());
  };
}

void Wave1TransientStream::finish(const spice::TranResult& res) {
  if (!enc_.empty()) em_.chunk(enc_.encode_block());

  // Counters object: the exact leading members of core::to_json(TranResult),
  // with n_points taken from the streamed row count.
  json::Value::Object o;
  o.emplace_back("steps_taken", static_cast<std::uint64_t>(res.steps_taken));
  o.emplace_back("lu_factorizations", static_cast<std::uint64_t>(res.lu_factorizations));
  o.emplace_back("lu_cache_hits", static_cast<std::uint64_t>(res.lu_cache_hits));
  o.emplace_back("lu_cache_evictions",
                 static_cast<std::uint64_t>(res.lu_cache_evictions));
  o.emplace_back("max_resident_factorizations",
                 static_cast<std::uint64_t>(res.max_resident_factorizations));
  o.emplace_back("kernel", res.kernel);
  o.emplace_back("symbolic_analyses", static_cast<std::uint64_t>(res.symbolic_analyses));
  o.emplace_back("factor_nnz", static_cast<std::uint64_t>(res.factor_nnz));
  o.emplace_back("n_points", static_cast<std::uint64_t>(rows_));

  json::Value::Array layout;
  std::string seg = "{\"id\":" + id_json_ + ",\"ok\":true,\"result\":" +
                    open_object(json::Value(std::move(o))) + ",\"nodes\":[";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (i) seg += "]},";
    const ColumnStats& st = stats_[i];
    json::Value::Object n;
    n.emplace_back("node", names_[i]);
    n.emplace_back("final_v", st.final_v());
    n.emplace_back("mean_v", st.mean_v());
    n.emplace_back("min_v", st.lo);
    n.emplace_back("max_v", st.hi);
    seg += open_object(json::Value(std::move(n))) + ",\"v\":[";
    layout.push_back(std::move(seg));
    layout.push_back(static_cast<double>(i));
    seg.clear();
  }
  seg += names_.empty() ? "],\"time_s\":[" : "]}],\"time_s\":[";
  layout.push_back(std::move(seg));
  layout.push_back(static_cast<double>(names_.size()));  // the time column
  layout.push_back(std::string("]}}"));

  std::string payload = "{\"id\":" + id_json_ + ",\"status\":\"ok\",\"rows\":" +
                        std::to_string(rows_) + ",\"chunks\":" +
                        std::to_string(em_.chunks_emitted()) + ",\"layout\":" +
                        json::Value(std::move(layout)).write() + "}";
  em_.end(payload);
}

Wave1ColumnStream::Wave1ColumnStream(StreamEmitter& em, std::string id_json,
                                     std::string column_name)
    : em_(em),
      id_json_(std::move(id_json)),
      column_name_(std::move(column_name)),
      enc_(1, /*has_time=*/false) {
  std::string header = "{\"id\":" + id_json_ + ",\"encoding\":\"wave1\",\"columns\":[" +
                       json::escape_string(column_name_) + "],\"has_time\":false}";
  em_.header(header);
}

void Wave1ColumnStream::push(double v) {
  enc_.add_row(0.0, &v, 1);
  ++rows_;
  if (enc_.full(em_.chunk_bytes())) em_.chunk(enc_.encode_block());
}

void Wave1ColumnStream::finish(const std::string& summary_object_json) {
  if (!enc_.empty()) em_.chunk(enc_.encode_block());
  require(!summary_object_json.empty() && summary_object_json.back() == '}',
          "wave1: summary must be a serialized JSON object");
  std::string prefix = summary_object_json;
  prefix.pop_back();

  json::Value::Array layout;
  layout.push_back("{\"id\":" + id_json_ + ",\"ok\":true,\"result\":" + prefix + ",\"" +
                   column_name_ + "\":[");
  layout.push_back(0.0);
  layout.push_back(std::string("]}}"));

  std::string payload = "{\"id\":" + id_json_ + ",\"status\":\"ok\",\"rows\":" +
                        std::to_string(rows_) + ",\"chunks\":" +
                        std::to_string(em_.chunks_emitted()) + ",\"layout\":" +
                        json::Value(std::move(layout)).write() + "}";
  em_.end(payload);
}

void StreamAssembler::on_frame(const Frame& f) {
  if (done_) throw StreamProtocolError("frame after the terminal frame");
  switch (f.type) {
    case FrameType::Header: {
      if (saw_header_) throw StreamProtocolError("duplicate HEADER frame");
      json::Value h;
      try {
        h = json::Value::parse(f.payload);
      } catch (const std::exception& e) {
        throw StreamProtocolError(std::string("malformed HEADER payload: ") + e.what());
      }
      const json::Value* enc = h.find("encoding");
      if (enc == nullptr || !enc->is_string())
        throw StreamProtocolError("HEADER missing \"encoding\"");
      if (enc->as_string() != "wave1")
        throw StreamProtocolError("HEADER names unknown encoding \"" + enc->as_string() +
                                  "\"");
      const json::Value* cols = h.find("columns");
      const json::Value* ht = h.find("has_time");
      if (cols == nullptr || !cols->is_array() || ht == nullptr || !ht->is_bool())
        throw StreamProtocolError("wave1 HEADER missing columns/has_time");
      n_cols_ = cols->as_array().size();
      has_time_ = ht->as_bool();
      dec_ = std::make_unique<Wave1Decoder>(n_cols_, has_time_);
      saw_header_ = true;
      return;
    }
    case FrameType::Chunk: {
      if (!saw_header_) throw StreamProtocolError("CHUNK before HEADER");
      dec_->decode_block(f.payload);
      return;
    }
    case FrameType::End: {
      if (!saw_header_) throw StreamProtocolError("END before HEADER");
      json::Value e;
      try {
        e = json::Value::parse(f.payload);
      } catch (const std::exception& ex) {
        throw StreamProtocolError(std::string("malformed END payload: ") + ex.what());
      }
      const json::Value* st = e.find("status");
      if (st == nullptr || !st->is_string())
        throw StreamProtocolError("END missing \"status\"");
      status_ = st->as_string();
      if (status_ == "ok") {
        render_layout(e);
      } else {
        decoded_ = f.payload;
      }
      done_ = true;
      return;
    }
    case FrameType::Error: {
      status_ = "error";
      decoded_ = f.payload;
      done_ = true;
      return;
    }
    case FrameType::CancelAck: {
      status_ = "cancelled";
      decoded_ = f.payload;
      done_ = true;
      return;
    }
  }
  throw StreamProtocolError("unhandled frame type");
}

void StreamAssembler::render_layout(const json::Value& end_payload) {
  const json::Value* rows = end_payload.find("rows");
  if (rows == nullptr || !rows->is_number())
    throw StreamProtocolError("wave1 END missing \"rows\"");
  if (static_cast<std::size_t>(rows->as_number()) != dec_->rows())
    throw StreamProtocolError("wave1 END row count does not match decoded rows (" +
                              std::to_string(dec_->rows()) + " decoded)");
  const json::Value* layout = end_payload.find("layout");
  if (layout == nullptr || !layout->is_array())
    throw StreamProtocolError("wave1 END missing \"layout\"");

  decoded_.clear();
  for (const json::Value& piece : layout->as_array()) {
    if (piece.is_string()) {
      decoded_ += piece.as_string();
    } else if (piece.is_number()) {
      const double d = piece.as_number();
      const std::size_t idx = static_cast<std::size_t>(d);
      if (d < 0.0 || static_cast<double>(idx) != d)
        throw StreamProtocolError("wave1 layout column index is not an integer");
      if (idx < n_cols_) {
        append_column(decoded_, dec_->column(idx));
      } else if (idx == n_cols_ && has_time_) {
        append_column(decoded_, dec_->time());
      } else {
        throw StreamProtocolError("wave1 layout column index out of range");
      }
    } else {
      throw StreamProtocolError("wave1 layout piece is neither text nor column index");
    }
  }
}

StreamAssembler read_stream(const std::function<std::size_t(char*, std::size_t)>& read,
                            const std::function<void(const Frame&)>& on_frame) {
  FrameDecoder dec;
  StreamAssembler asmb;
  char buf[4096];
  while (!asmb.done()) {
    while (!asmb.done()) {
      std::optional<Frame> f = dec.next();
      if (!f) break;
      if (on_frame) on_frame(*f);
      asmb.on_frame(*f);
    }
    if (asmb.done()) break;
    const std::size_t n = read(buf, sizeof buf);
    if (n == 0) throw StreamProtocolError("connection closed mid-stream");
    dec.feed(std::string_view(buf, n));
  }
  return asmb;
}

}  // namespace ivory::serve
