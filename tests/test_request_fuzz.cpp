// Seeded fuzzer for the request line where the scheduler decodes it.
//
// Scheduler::dispatch runs decode_line on untrusted bytes on a connection's
// reader thread, and an exception escaping it there would end the server.
// Mutated request lines (byte flips, truncations, duplicate keys, bad
// envelope types, deep nesting, non-objects, cancel and stream lines, and
// repeats that hit the cache) go through dispatch on one Service and through
// handle_line on a twin Service fed the same lines. Every line must get
// exactly one reply, in order; a plain line's reply must be byte-identical
// to the twin's. The corpus holds cheap static ops only, and no `stats`,
// whose reply carries counters. Every failure names the seed and the line.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "serve/frame.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "serve/wave_codec.hpp"

namespace ivory::serve {
namespace {

constexpr std::uint64_t kSeed = 0x1f0e2d3c4b5a6978ULL;
// Dispatching stops at the time box or the line cap; checking the replies
// afterwards takes about as long again.
constexpr auto kTimeBox = std::chrono::milliseconds(400);
constexpr std::size_t kMaxLines = 8000;

/// Valid bodies (without the braces and id) of cheap ops.
const std::vector<std::string>& corpus() {
  static const std::vector<std::string> bodies = {
      R"("op":"sc_static","n":3,"m":1,"cfly":4e-6,"gtot":15e3,"fsw":80e6,"iload":20)",
      R"("op":"sc_static","n":2,"m":1,"cfly":"2u","gtot":"8k","fsw":"60meg","iload":10,"regulate":1.0)",
      R"("op":"sc_static","n":4,"m":1,"family":"dickson","interleave":4,"deadline_ms":600000)",
      R"("op":"buck_static","l":5e-9,"fsw":100e6,"phases":4,"iload":10)",
      R"("op":"buck_static","vin":1.8,"vout":0.9,"inductor":"smt","whs":0.05,"iload":4)",
      R"("op":"ldo_static","vin":1.2,"vout":1.0,"iload":5)",
      R"("op":"ldo_static","bits":6,"fclk":"200meg","cout":1e-7,"iload":2)",
      R"("op":"dldo_static","vin":1.1,"vout":0.9,"iload":3,"bits":8)",
  };
  return bodies;
}

struct Line {
  std::string text;
  enum class Kind { Plain, Cancel, Stream } kind = Kind::Plain;
  json::Value id;  ///< a cancel line's id (its reply echoes it)
};

/// One seeded line: a corpus body, possibly mutated. Cancel lines name ids
/// no request uses, so they never change another line's reply.
Line make_line(Pcg32& rng, int n) {
  const std::string& body = corpus()[rng.next_u32() % corpus().size()];
  const std::string id = std::to_string(n);
  Line l;
  l.text = "{\"id\":" + id + "," + body + "}";
  switch (rng.next_u32() % 12) {
    case 0:  // unchanged: a miss the first time, a hit after
    case 1:
      break;
    case 2: {  // flip 1..4 bits
      const int flips = 1 + static_cast<int>(rng.next_u32() % 4);
      for (int f = 0; f < flips; ++f) {
        const std::size_t at = rng.next_u32() % l.text.size();
        l.text[at] = static_cast<char>(l.text[at] ^ (1u << (rng.next_u32() & 7u)));
      }
      break;
    }
    case 3:  // truncate (never to nothing: transports skip empty lines)
      l.text.resize(1 + rng.next_u32() % (l.text.size() - 1));
      break;
    case 4: {  // duplicate key: the id, the op or a body field again
      static const char* dups[] = {R"("id":"twice")", R"("op":"buck_static")",
                                   R"("iload":7)", R"("op":"sc_static")", R"("n":2)"};
      l.text.insert(l.text.size() - 1, std::string(",") + dups[rng.next_u32() % 5]);
      break;
    }
    case 5: {  // bad envelope types
      static const char* bad[] = {
          R"({"id":{"x":1},)", R"({"id":[1],)", R"({"deadline_ms":0,"id":)",
          R"({"deadline_ms":-5,"id":)", R"({"deadline_ms":"soon","id":)",
          R"({"chunk_bytes":0,"id":)", R"({"chunk_bytes":16777217,"id":)",
          R"({"chunk_bytes":1.5,"id":)", R"({"stream":"yes","id":)",
          R"({"encoding":"json","id":)"};
      const std::string b = bad[rng.next_u32() % 10];
      l.text = b.back() == ',' ? b + body + "}" : b + id + "," + body + "}";
      break;
    }
    case 6: {  // deep nesting, past and within the parser's 64 levels
      const int depth = rng.next_u32() % 2 ? 70 : 8;
      l.text = "{\"id\":" + id + "," + body + ",\"deep\":" + std::string(depth, '[') + "1" +
               std::string(depth, ']') + "}";
      break;
    }
    case 7: {  // not an object
      static const char* scalars[] = {"[1,2,3]", "\"sc_static\"", "42", "null", "true", " ",
                                      "{", "}", "{\"id\":1,}", "[{\"op\":\"sc_static\"}]"};
      l.text = scalars[rng.next_u32() % 10];
      break;
    }
    case 8:  // a cancel line naming nothing queued
      l.kind = Line::Kind::Cancel;
      l.id = json::Value(static_cast<double>(n));
      l.text = "{\"id\":" + id + ",\"cancel\":\"nothing-" + id + "\"}";
      break;
    case 9:  // a stream request: static ops answer with an ERROR frame
      l.kind = Line::Kind::Stream;
      l.text.insert(l.text.size() - 1, R"(,"stream":true,"encoding":"wave1")");
      break;
    default:  // a repeat under another spelling of the id
      l.text = "{\"id\":\"r" + id + "\"," + body + "}";
      break;
  }
  return l;
}

/// Reads one stream that starts at `pos`, advancing `pos` past its terminal
/// frame (one byte per read, so the next reply's bytes stay unread).
StreamAssembler stream_at(const std::string& wire, std::size_t& pos) {
  return read_stream([&wire, &pos](char* out, std::size_t) -> std::size_t {
    if (pos >= wire.size()) return 0;
    *out = wire[pos++];
    return 1;
  });
}

TEST(RequestFuzz, DispatchAnswersEveryLineAsHandleLineDoes) {
  Service service;
  Service twin;
  Scheduler::Options opt;
  opt.wave = 4;
  Scheduler sched(service, opt);
  const int client = sched.open_client();
  DeliveryQueue dq;
  std::string wire;
  std::thread consumer([&] {
    for (std::string bytes; dq.next(bytes);) wire += bytes;
  });

  Pcg32 rng(kSeed);
  std::vector<Line> lines;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < kTimeBox && lines.size() < kMaxLines) {
    Line l = make_line(rng, static_cast<int>(lines.size()));
    try {
      sched.dispatch(client, l.text, dq);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << kSeed << " line " << lines.size() << ": dispatch threw "
                    << e.what() << "\n  " << l.text;
    }
    lines.push_back(std::move(l));
  }
  sched.drain();
  sched.close_client(client);
  dq.close_submit();
  consumer.join();
  ASSERT_GT(lines.size(), 100u);

  std::size_t pos = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Line& l = lines[i];
    const std::string where = "seed " + std::to_string(kSeed) + " line " + std::to_string(i) +
                              ": " + l.text;
    ASSERT_LT(pos, wire.size()) << where << "\n  no reply";
    if (l.kind == Line::Kind::Stream) {
      const StreamAssembler a = stream_at(wire, pos);
      ASSERT_TRUE(a.done()) << where << "\n  no terminal frame";
      continue;
    }
    const std::size_t nl = wire.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << where << "\n  reply has no newline";
    const std::string reply = wire.substr(pos, nl - pos);
    pos = nl + 1;
    if (l.kind == Line::Kind::Cancel) {
      EXPECT_EQ(reply, "{\"id\":" + l.id.write() +
                           ",\"ok\":true,\"result\":{\"cancelled\":false}}")
          << where;
    } else {
      EXPECT_EQ(reply, twin.handle_line(l.text)) << where;
    }
  }
  EXPECT_EQ(pos, wire.size()) << "seed " << kSeed << ": bytes after the last reply";
  EXPECT_GT(service.stats().cache.hits, 0u) << "seed " << kSeed << ": no line hit the cache";
}

}  // namespace
}  // namespace ivory::serve
