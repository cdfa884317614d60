// Streaming protocol conformance suite.
//
// Covers the full stack of the streamed serve path: the frame grammar
// (round-trips and every named violation), the wave1 waveform codec
// (arithmetic/literal time runs, multi-block accumulation), the
// DeliveryQueue ordering/window/discard semantics, the supervisor's
// ResponseScanner, and the end-to-end byte-identity contract — a decoded
// stream must equal the non-streaming JSON line at chunk sizes {1,7,4096},
// thread counts {1,2,4} and worker counts {1,2}. Backpressure isolation,
// cancel-mid-stream and a seeded frame-corruption fuzzer (>=10k iterations,
// seed printed on failure) round it out. Run alone with `ctest -L stream`;
// the suite is in both the ThreadSanitizer and AddressSanitizer trees.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "serve/frame.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/supervisor.hpp"
#include "serve/wave_codec.hpp"

namespace ivory::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Request corpus (same bodies the non-streaming tests use).
// ---------------------------------------------------------------------------

/// Behavioural SC transient, 10 samples, with the waveform in the response.
const std::string kBehaviouralRequest =
    R"({"id":1,"op":"transient","topology":"sc",)"
    R"("design":{"n":3,"m":1,"cfly":4e-6,"gtot":15000,"fsw":8e7},)"
    R"("vin":3.3,"vref":1.0,"dt":1e-8,)"
    R"("iload":[1,2,3,4,5,6,7,8,9,10],"return_waveform":true})";

/// Tiny RC SPICE transient: 101 fixed-step rows, two recorded nodes.
const std::string kSpiceRequest =
    R"({"id":2,"op":"transient","topology":"spice",)"
    R"("netlist":"* rc\nV1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\n.end",)"
    R"("tstop":1e-6,"dt":1e-8,"return_waveform":true})";

/// Bigger RC transient (~50k rows, still a trivial solve): the JSON response
/// is megabytes, so it separates "buffered the waveform" from "streamed it".
const std::string kBigSpiceRequest =
    R"({"id":3,"op":"transient","topology":"spice",)"
    R"("netlist":"* rc\nV1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\n.end",)"
    R"("tstop":5e-6,"dt":1e-10,"return_waveform":true})";

/// A transient long enough (~3.2M BE steps; 0.8-0.95 s as a wave1 stream in
/// a RelWithDebInfo build on a shared 4-vCPU x86 host) that a cancel issued
/// a couple hundred milliseconds in reliably lands mid-stream.
const std::string kSlowSpiceRequest =
    R"({"id":4,"op":"transient","topology":"spice",)"
    R"("netlist":"vin in 0 DC 3.3\ns1 in fly 0.01 1e8 CLOCK(20meg 2 0.48 0)\n)"
    R"(s2 fly out 0.01 1e8 CLOCK(20meg 2 0.48 1)\ncfly fly 0 100n IC=1.65\n)"
    R"(cout out 0 100n IC=1.65\nrl out 0 3.3\n.end\n",)"
    R"("tstop":4e-4,"dt":1.25e-10,"method":"be","uic":true,"record":["out"],)"
    R"("return_waveform":true})";

/// A non-transient op, answered as a plain line.
const std::string kStaticRequest =
    R"({"op":"sc_static","id":5,"n":3,"m":1,"cfly":4e-6,"gtot":15e3,)"
    R"("fsw":80e6,"iload":20})";

/// Returns `request` with the streaming envelope fields added.
std::string with_stream(const std::string& request, const std::string& encoding,
                        std::size_t chunk_bytes) {
  json::Value root = json::Value::parse(request);
  root.set("stream", json::Value(true));
  root.set("encoding", json::Value(encoding));
  root.set("chunk_bytes", json::Value(static_cast<std::uint64_t>(chunk_bytes)));
  return root.write();
}

/// A StreamEmitter that appends every frame write to `sink` (never "gone").
StreamEmitter capture_emitter(std::string& sink) {
  return StreamEmitter(
      [&sink](std::string&& bytes) {
        sink.append(bytes);
        return true;
      },
      nullptr, 0.0, std::chrono::steady_clock::now());
}

/// Reassembles one stream from `bytes` starting at `pos` (advanced past the
/// terminal frame), so back-to-back streams in one buffer parse in sequence.
/// Reads one byte at a time: read_stream discards its decoder on return, so
/// a gulp past the terminal frame would eat the next stream's magic.
StreamAssembler assemble_at(const std::string& bytes, std::size_t& pos) {
  return read_stream([&bytes, &pos](char* out, std::size_t) -> std::size_t {
    if (pos >= bytes.size()) return 0;
    *out = bytes[pos++];
    return 1;
  });
}

StreamAssembler assemble(const std::string& bytes) {
  std::size_t pos = 0;
  return assemble_at(bytes, pos);
}

/// Runs one streamed request through an in-process Service and returns the
/// reassembled line. `expect_status` guards against silent error terminals.
std::string service_stream(Service& svc, const std::string& stream_request,
                           const std::string& expect_status = "ok") {
  std::string bytes;
  StreamEmitter em = capture_emitter(bytes);
  EXPECT_TRUE(decode_line(stream_request).is_stream) << stream_request;
  svc.handle_stream(stream_request, em);
  StreamAssembler out = assemble(bytes);
  EXPECT_EQ(out.status(), expect_status) << out.decoded();
  return out.decoded();
}

/// Sends `stream_request` over a live socket and reassembles the response.
StreamAssembler client_stream(BlockingClient& client, const std::string& stream_request) {
  client.send_line(stream_request);
  return read_stream(
      [&client](char* out, std::size_t cap) { return client.recv_raw(out, cap); });
}

std::string unique_socket(const char* tag) {
  return "/tmp/ivory_test_stream_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ---------------------------------------------------------------------------
// Frame grammar: round-trips and every named violation.
// ---------------------------------------------------------------------------

TEST(Frame, RoundTripsAllTypesBytewise) {
  const std::vector<std::pair<FrameType, std::string>> frames = {
      {FrameType::Header, R"({"id":1,"encoding":"wave1"})"},
      {FrameType::Chunk, std::string("\x00\x01\xff binary \n bytes", 19)},
      {FrameType::Chunk, ""},  // empty payload is legal
      {FrameType::End, stream_status_payload("1", "ok")},
      {FrameType::Error, R"({"id":1,"ok":false})"},
      {FrameType::CancelAck, stream_status_payload("\"a\"", "cancelled")},
  };
  std::string bytes(kStreamMagic);
  for (const auto& [type, payload] : frames) encode_frame(bytes, type, payload);

  // Feed one byte at a time: the decoder must never mis-frame on partial
  // input, and pending_bytes() must drop back to zero at each boundary.
  FrameDecoder dec;
  std::size_t got = 0;
  for (const char c : bytes) {
    dec.feed(std::string_view(&c, 1));
    while (const auto f = dec.next()) {
      ASSERT_LT(got, frames.size());
      EXPECT_EQ(f->type, frames[got].first);
      EXPECT_EQ(f->payload, frames[got].second);
      ++got;
      EXPECT_EQ(dec.pending_bytes(), 0u);
    }
  }
  EXPECT_EQ(got, frames.size());
  EXPECT_TRUE(dec.saw_magic());
}

TEST(Frame, ChecksumCoversTypeByte) {
  // Same payload, different type => different checksum, so a flipped type
  // byte can never pass verification.
  EXPECT_NE(frame_checksum(FrameType::Chunk, "abc"),
            frame_checksum(FrameType::End, "abc"));
}

TEST(Frame, TruncationIsNotAnError) {
  std::string bytes(kStreamMagic);
  encode_frame(bytes, FrameType::Header, "{\"id\":1}");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(dec.next().has_value()) << "cut=" << cut;
    // The remaining bytes complete the frame.
    dec.feed(std::string_view(bytes).substr(cut));
    const auto f = dec.next();
    ASSERT_TRUE(f.has_value()) << "cut=" << cut;
    EXPECT_EQ(f->payload, "{\"id\":1}");
  }
}

TEST(Frame, BadMagicThrows) {
  FrameDecoder dec;
  dec.feed("ivorystreamX????????????");
  EXPECT_THROW(dec.next(), StreamProtocolError);
}

TEST(Frame, BadChecksumThrows) {
  std::string bytes(kStreamMagic);
  encode_frame(bytes, FrameType::Header, "{\"id\":1}");
  bytes.back() ^= 0x01;  // corrupt the checksum's last byte
  FrameDecoder dec;
  dec.feed(bytes);
  EXPECT_THROW(dec.next(), StreamProtocolError);
}

TEST(Frame, UnknownTypeThrows) {
  std::string bytes(kStreamMagic);
  encode_frame(bytes, FrameType::Header, "x");
  bytes[kStreamMagic.size() + 4] = 0x7f;  // type byte after the u32 length
  FrameDecoder dec;
  dec.feed(bytes);
  EXPECT_THROW(dec.next(), StreamProtocolError);
}

TEST(Frame, OversizedLengthThrows) {
  std::string bytes(kStreamMagic);
  const std::uint32_t huge = (17u << 20);  // > kMaxFramePayload
  for (int i = 0; i < 4; ++i)
    bytes.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  bytes.push_back(1);
  FrameDecoder dec;
  dec.feed(bytes);
  EXPECT_THROW(dec.next(), StreamProtocolError);
  EXPECT_THROW(encode_frame(bytes, FrameType::Chunk, std::string(huge, 'x')),
               InvalidParameter);
}

TEST(Frame, EmitterAbortReasons) {
  // Cancel flag -> Abort{Cancelled} before the next chunk.
  auto flag = std::make_shared<std::atomic<bool>>(false);
  std::string sink;
  StreamEmitter em(
      [&sink](std::string&& b) {
        sink.append(b);
        return true;
      },
      flag, 0.0, std::chrono::steady_clock::now());
  em.header("{}");
  flag->store(true);
  try {
    em.chunk("x");
    FAIL() << "expected Abort";
  } catch (const StreamEmitter::Abort& a) {
    EXPECT_EQ(a.reason, StreamEmitter::Abort::Reason::Cancelled);
  }

  // Consumer gone: the write function returns false -> Abort{ConsumerGone},
  // but terminal frames swallow the failure (nobody left to tell).
  StreamEmitter gone([](std::string&&) { return false; }, nullptr, 0.0,
                     std::chrono::steady_clock::now());
  try {
    gone.header("{}");
    FAIL() << "expected Abort";
  } catch (const StreamEmitter::Abort& a) {
    EXPECT_EQ(a.reason, StreamEmitter::Abort::Reason::ConsumerGone);
  }
  EXPECT_NO_THROW(gone.end("{}"));

  // Expired deadline -> Abort{Expired}.
  StreamEmitter late([](std::string&&) { return true; }, nullptr, 1.0,
                     std::chrono::steady_clock::now() - 50ms);
  try {
    late.check_abort();
    FAIL() << "expected Abort";
  } catch (const StreamEmitter::Abort& a) {
    EXPECT_EQ(a.reason, StreamEmitter::Abort::Reason::Expired);
  }
}

// ---------------------------------------------------------------------------
// wave1 codec.
// ---------------------------------------------------------------------------

TEST(Wave1, FixedStepTimeAxisCollapsesToArithmeticRun) {
  // Time generated the way the engine does — t += dt — which the encoder's
  // bitwise replay verification can collapse to one arithmetic run.
  Wave1Encoder enc(2, /*has_time=*/true);
  const std::size_t n = 1000;
  std::vector<double> t(n);
  double cur = 0.0;
  for (std::size_t i = 0; i < n; ++i, cur += 1e-9) {
    t[i] = cur;
    const double v[2] = {std::sin(static_cast<double>(i)), 1.0 / (1.0 + i)};
    enc.add_row(t[i], v, 2);
  }
  const std::string block = enc.encode_block();
  // Literal time would add n*8 bytes; an arithmetic run is 25. The block
  // must be close to the two value columns alone.
  EXPECT_LT(block.size(), 2 * n * 8 + 64);

  Wave1Decoder dec(2, true);
  dec.decode_block(block);
  ASSERT_EQ(dec.rows(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(dec.time()[i], t[i]) << i;
    EXPECT_EQ(dec.column(0)[i], std::sin(static_cast<double>(i))) << i;
    EXPECT_EQ(dec.column(1)[i], 1.0 / (1.0 + i)) << i;
  }
}

TEST(Wave1, JitteredTimeAxisRoundTripsBitExact) {
  // Adaptive-stepping-style time values that no arithmetic run reproduces:
  // the encoder must degrade to literal records and still round-trip bits.
  Pcg32 rng(7);
  Wave1Encoder enc(1, true);
  std::vector<double> t, v;
  double cur = 0.0;
  for (std::size_t i = 0; i < 257; ++i) {
    cur += rng.uniform(1e-12, 1e-9);
    t.push_back(cur);
    v.push_back(rng.uniform(-1.0, 1.0));
    enc.add_row(t.back(), &v.back(), 1);
  }
  Wave1Decoder dec(1, true);
  dec.decode_block(enc.encode_block());
  ASSERT_EQ(dec.rows(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(std::memcmp(&dec.time()[i], &t[i], 8), 0) << i;
    EXPECT_EQ(std::memcmp(&dec.column(0)[i], &v[i], 8), 0) << i;
  }
}

TEST(Wave1, AccumulatesAcrossBlocksAtTinyChunkBudget) {
  Wave1Encoder enc(1, false);
  Wave1Decoder dec(1, false);
  std::size_t blocks = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    const double v = static_cast<double>(i) * 0.25;
    enc.add_row(0.0, &v, 1);
    if (enc.full(64)) {
      dec.decode_block(enc.encode_block());
      ++blocks;
    }
  }
  if (!enc.empty()) dec.decode_block(enc.encode_block());
  EXPECT_GT(blocks, 10u);  // the budget actually bounded block size
  ASSERT_EQ(dec.rows(), 500u);
  for (std::size_t i = 0; i < 500; ++i)
    EXPECT_EQ(dec.column(0)[i], static_cast<double>(i) * 0.25);
}

TEST(Wave1, DecoderRejectsMalformedBlocks) {
  Wave1Decoder dec(1, true);
  EXPECT_THROW(dec.decode_block(""), StreamProtocolError);
  EXPECT_THROW(dec.decode_block(std::string("\x00\x00\x00\x00", 4)),
               StreamProtocolError);  // zero rows
  // Truncated: claims one row but carries no samples.
  EXPECT_THROW(dec.decode_block(std::string("\x01\x00\x00\x00", 4)),
               StreamProtocolError);
}

TEST(Wave1, AssemblerEnforcesFrameSequencing) {
  const std::string header = R"({"id":1,"encoding":"wave1","columns":["v"],"has_time":false})";
  Wave1Encoder enc(1, /*has_time=*/false);
  const double v = 0.5;
  enc.add_row(0.0, &v, 1);
  const std::string block = enc.encode_block();
  {
    StreamAssembler a;
    EXPECT_THROW(a.on_frame(Frame{FrameType::Chunk, block}), StreamProtocolError);
  }
  {
    StreamAssembler a;
    a.on_frame(Frame{FrameType::Header, header});
    EXPECT_THROW(a.on_frame(Frame{FrameType::Header, header}), StreamProtocolError);
  }
  {
    // The only encoding is wave1: a json HEADER is a protocol error.
    StreamAssembler a;
    EXPECT_THROW(a.on_frame(Frame{FrameType::Header, R"({"id":1,"encoding":"json"})"}),
                 StreamProtocolError);
  }
  {
    StreamAssembler a;
    a.on_frame(Frame{FrameType::Header, header});
    a.on_frame(Frame{FrameType::Chunk, block});
    a.on_frame(Frame{FrameType::End, R"({"id":1,"status":"ok","rows":1,"layout":["[",0,"]"]})"});
    EXPECT_TRUE(a.done());
    EXPECT_EQ(a.decoded(), "[0.5]");
    EXPECT_THROW(a.on_frame(Frame{FrameType::Chunk, block}), StreamProtocolError);
  }
}

// ---------------------------------------------------------------------------
// DeliveryQueue: ordering, window flow control, discard, shutdown.
// ---------------------------------------------------------------------------

TEST(DeliveryQueue, DeliversSlotsInOpenOrderAcrossKinds) {
  DeliveryQueue dq(8);
  auto a = dq.open_plain();
  auto b = dq.open_stream();
  auto c = dq.open_plain();
  // Complete them out of order; the consumer must still see A, B, C.
  c->set("C\n");
  ASSERT_TRUE(b->push("B1"));
  ASSERT_TRUE(b->push("B2"));
  b->finish();
  a->set("A\n");
  dq.close_submit();
  std::string wire, piece;
  while (dq.next(piece)) wire += piece;
  EXPECT_EQ(wire, "A\nB1B2C\n");
}

TEST(DeliveryQueue, WindowBlocksExactlyOneProducer) {
  DeliveryQueue dq(2);
  auto s = dq.open_stream();
  ASSERT_TRUE(s->push("1"));
  ASSERT_TRUE(s->push("2"));
  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    EXPECT_TRUE(s->push("3"));  // blocks until the consumer drains one
    third_done.store(true);
    s->finish();
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(third_done.load()) << "push did not block at the window";
  std::string wire, piece;
  dq.close_submit();
  while (dq.next(piece)) wire += piece;
  producer.join();
  EXPECT_TRUE(third_done.load());
  EXPECT_EQ(wire, "123");
}

TEST(DeliveryQueue, DiscardPendingWakesProducerWithoutPoisoningSlot) {
  DeliveryQueue dq(1);
  auto s = dq.open_stream();
  ASSERT_TRUE(s->push("old"));
  std::atomic<bool> unblocked{false};
  std::thread producer([&] {
    EXPECT_TRUE(s->push("blocked"));
    unblocked.store(true);
  });
  std::this_thread::sleep_for(50ms);
  ASSERT_FALSE(unblocked.load());
  s->discard_pending();  // cancel path: drop frames, wake the producer
  producer.join();
  EXPECT_TRUE(unblocked.load());
  // The slot still delivers: the terminal CANCEL_ACK must get through.
  s->discard_pending();
  ASSERT_TRUE(s->push("ack"));
  s->finish();
  dq.close_submit();
  std::string wire, piece;
  while (dq.next(piece)) wire += piece;
  EXPECT_EQ(wire, "ack");
}

TEST(DeliveryQueue, ShutdownFailsPushesButKeepsDraining) {
  DeliveryQueue dq(4);
  auto a = dq.open_plain();
  auto s = dq.open_stream();
  a->set("A\n");
  ASSERT_TRUE(s->push("S"));
  dq.shutdown();
  EXPECT_FALSE(s->push("late"));  // producer unwinds via Abort{ConsumerGone}
  s->finish();
  dq.close_submit();
  // next() stays usable so already-blocked producers always finish.
  std::string piece;
  while (dq.next(piece)) {
  }
}

TEST(DeliveryQueue, DeliverWritesAtOnceOnlyWhenNothingIsAhead) {
  // A non-blocking transport write that takes at most `room` bytes a call.
  std::string wire;
  std::size_t room = 3;
  const auto try_write = [&](const char* data, std::size_t n) -> std::ptrdiff_t {
    n = std::min(n, room);
    wire.append(data, n);
    return static_cast<std::ptrdiff_t>(n);
  };
  std::string piece;
  {
    DeliveryQueue dq(8, try_write);
    dq.deliver("ABCDE\n");  // nothing ahead, consumer idle: written at once...
    EXPECT_EQ(wire, "ABC");  // ...up to what the transport takes; the rest queues
    room = 100;
    dq.deliver("F\n");  // behind the queued rest
    auto g = dq.open_plain();
    dq.deliver("H\n");  // behind G's pending slot
    EXPECT_EQ(wire, "ABC");
    g->set("G\n");
    dq.close_submit();
    while (dq.next(piece)) wire += piece;
    EXPECT_EQ(wire, "ABCDE\nF\nG\nH\n");
  }
  {
    wire.clear();
    DeliveryQueue dq(8, try_write);
    dq.open_plain()->set("P\n");
    ASSERT_TRUE(dq.next(piece));  // the consumer now holds P's bytes
    dq.deliver("Q\n");
    EXPECT_EQ(wire, "") << "written while the consumer held earlier bytes";
    dq.close_submit();
    while (dq.next(piece)) wire += piece;
    EXPECT_EQ(wire, "Q\n");
  }
  // A transport that reports its peer gone marks the consumer dead.
  DeliveryQueue gone(8, [](const char*, std::size_t) -> std::ptrdiff_t { return -1; });
  gone.deliver("X\n");
  EXPECT_FALSE(gone.open_stream()->push("late"));
}

// ---------------------------------------------------------------------------
// ResponseScanner (the supervisor's acceptor mux accounting).
// ---------------------------------------------------------------------------

std::size_t scan_all(ResponseScanner& sc, std::string_view bytes,
                     std::size_t feed_size, std::string& forward) {
  std::size_t completed = 0;
  for (std::size_t i = 0; i < bytes.size(); i += feed_size)
    completed +=
        sc.feed(bytes.data() + i, std::min(feed_size, bytes.size() - i), forward);
  return completed;
}

TEST(Scanner, CountsLinesAndWholeStreamsAtAnyFeedSize) {
  std::string stream(kStreamMagic);
  encode_frame(stream, FrameType::Header, R"({"id":2,"encoding":"wave1"})");
  encode_frame(stream, FrameType::Chunk, "{\"ok\":true}");
  encode_frame(stream, FrameType::End, stream_status_payload("2", "ok"));
  const std::string bytes = "{\"id\":1}\n" + stream + "{\"id\":3}\n";
  for (const std::size_t feed : {std::size_t{1}, std::size_t{7}, bytes.size()}) {
    ResponseScanner sc;
    std::string forward;
    // 3 responses: line, stream (counted once, at its terminal), line.
    EXPECT_EQ(scan_all(sc, bytes, feed, forward), 3u) << "feed=" << feed;
    EXPECT_EQ(forward, bytes) << "feed=" << feed;  // forwards byte-identically
    EXPECT_FALSE(sc.mid_stream());
  }
}

TEST(Scanner, WithholdsPartialFrameAndReportsMidStream) {
  std::string stream(kStreamMagic);
  encode_frame(stream, FrameType::Header, R"({"id":1,"encoding":"wave1"})");
  const std::size_t whole = stream.size();
  encode_frame(stream, FrameType::Chunk, std::string(64, 'x'));

  ResponseScanner sc;
  std::string forward;
  // Deliver the full header frame plus half of the chunk frame: the scanner
  // must forward only complete frames — a worker crash here leaks nothing.
  const std::size_t cut = whole + (stream.size() - whole) / 2;
  EXPECT_EQ(sc.feed(stream.data(), cut, forward), 0u);
  EXPECT_EQ(forward, stream.substr(0, whole));
  EXPECT_TRUE(sc.mid_stream());
  // The rest arrives: chunk forwarded, still mid-stream (no terminal yet).
  EXPECT_EQ(sc.feed(stream.data() + cut, stream.size() - cut, forward), 0u);
  EXPECT_EQ(forward, stream);
  EXPECT_TRUE(sc.mid_stream());
  std::string terminal;
  encode_frame(terminal, FrameType::End, stream_status_payload("1", "ok"));
  EXPECT_EQ(sc.feed(terminal.data(), terminal.size(), forward), 1u);
  EXPECT_FALSE(sc.mid_stream());
}

// ---------------------------------------------------------------------------
// Byte-identity: decoded stream == non-streaming line (service level,
// chunk sizes x request kinds).
// ---------------------------------------------------------------------------

TEST(StreamIdentity, ServiceLevelAcrossChunkSizes) {
  Service svc;
  for (const std::string& request : {kBehaviouralRequest, kSpiceRequest}) {
    const std::string reference = svc.handle_line(request);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096}})
      EXPECT_EQ(service_stream(svc, with_stream(request, "wave1", chunk)), reference)
          << "chunk=" << chunk;
  }
}

TEST(StreamIdentity, OnlyWave1EncodingIsAccepted) {
  // "json" streaming is gone: both paths answer bad_request naming the field.
  Service svc;
  const json::Value buffered =
      json::Value::parse(svc.handle_line(with_stream(kStaticRequest, "json", 64)));
  EXPECT_EQ(buffered.find("error")->find("code")->as_string(), "bad_request");
  EXPECT_NE(buffered.find("error")->find("detail")->as_string().find("encoding"),
            std::string::npos);
  const json::Value streamed = json::Value::parse(
      service_stream(svc, with_stream(kSpiceRequest, "json", 64), "error"));
  EXPECT_EQ(streamed.find("error")->find("code")->as_string(), "bad_request");
  EXPECT_NE(streamed.find("error")->find("detail")->as_string().find("encoding"),
            std::string::npos);
}

TEST(StreamIdentity, Wave1BypassesResultCache) {
  Service svc;
  const auto before = svc.stats();
  const std::string line = service_stream(svc, with_stream(kSpiceRequest, "wave1", 512));
  const std::string again = service_stream(svc, with_stream(kSpiceRequest, "wave1", 512));
  EXPECT_EQ(line, again);
  const auto after = svc.stats();
  // Both streamed runs evaluated (no cache hit), and neither populated the
  // cache for the buffered path to consume.
  EXPECT_EQ(after.n_evaluations, before.n_evaluations + 2);
}

TEST(StreamIdentity, StreamErrorEnvelopeMatchesBufferedShape) {
  Service svc;
  const std::string bad =
      R"({"id":9,"op":"transient","topology":"spice","tstop":1e-6,"dt":1e-9,)"
      R"("stream":true,"encoding":"wave1","return_waveform":true})";
  std::string bytes;
  StreamEmitter em = capture_emitter(bytes);
  svc.handle_stream(bad, em);
  StreamAssembler out = assemble(bytes);
  EXPECT_EQ(out.status(), "error");
  const json::Value v = json::Value::parse(out.decoded());
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_NE(v.find("error")->find("detail")->as_string().find("netlist"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Byte-identity over the socket transport: chunk sizes x thread counts.
// ---------------------------------------------------------------------------

TEST(StreamIdentity, SocketLevelAcrossChunkSizesAndThreadCounts) {
  std::string reference_plain, reference_stream;
  for (const unsigned threads : {1u, 2u, 4u}) {
    par::set_global_threads(threads);
    ServerOptions opt;
    opt.socket_path = unique_socket("threads");
    Server server(opt);
    server.start();
    {
      BlockingClient client(server.socket_path());
      client.send_line(kSpiceRequest);
      const std::string plain = client.recv_line();
      if (reference_plain.empty()) reference_plain = plain;
      EXPECT_EQ(plain, reference_plain) << "threads=" << threads;
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
        StreamAssembler wave = client_stream(client, with_stream(kSpiceRequest, "wave1", chunk));
        EXPECT_EQ(wave.status(), "ok") << wave.decoded();
        EXPECT_EQ(wave.decoded(), reference_plain)
            << "threads=" << threads << " chunk=" << chunk;
      }
      // Behavioural wave1 too (single column, no time axis).
      StreamAssembler beh = client_stream(client, with_stream(kBehaviouralRequest, "wave1", 7));
      ASSERT_EQ(beh.status(), "ok") << beh.decoded();
      if (reference_stream.empty()) reference_stream = beh.decoded();
      EXPECT_EQ(beh.decoded(), reference_stream) << "threads=" << threads;
      // And the connection drops back to line-delimited JSON afterwards.
      client.send_line(kStaticRequest);
      EXPECT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
    }
    server.stop();
  }
  par::set_global_threads(1);
  // The behavioural streamed line equals the buffered line.
  Service svc;
  EXPECT_EQ(reference_stream, svc.handle_line(kBehaviouralRequest));
}

// ---------------------------------------------------------------------------
// Byte-identity through the supervised fleet: worker counts {1,2}.
// ---------------------------------------------------------------------------

TEST(StreamIdentity, FleetLevelAcrossWorkerCounts) {
  std::string tmpl = (fs::temp_directory_path() / "ivory-stream-XXXXXX").string();
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  std::string reference;
  for (const int workers : {1, 2}) {
    SupervisorOptions o;
    o.socket_path = tmpl + "/sock" + std::to_string(workers);
    o.workers = workers;
    o.exe = IVORY_CLI_BIN;
    Supervisor fleet(o);
    fleet.start();
    {
      BlockingClient client(fleet.socket_path());
      client.send_line(kSpiceRequest);
      const std::string plain = client.recv_line();
      if (reference.empty()) reference = plain;
      EXPECT_EQ(plain, reference) << "workers=" << workers;
      for (const std::size_t chunk : {std::size_t{7}, std::size_t{4096}}) {
        StreamAssembler wave = client_stream(client, with_stream(kSpiceRequest, "wave1", chunk));
        EXPECT_EQ(wave.status(), "ok") << wave.decoded();
        EXPECT_EQ(wave.decoded(), reference)
            << "workers=" << workers << " chunk=" << chunk;
      }
      // Back to plain lines on the same muxed connection.
      client.send_line(kSpiceRequest);
      EXPECT_EQ(client.recv_line(), reference);
    }
    EXPECT_EQ(fleet.stats().retry_errors, 0u);
    fleet.stop();
  }
  std::error_code ec;
  fs::remove_all(tmpl, ec);
}

// ---------------------------------------------------------------------------
// Bounded buffering: the server's resident response bytes scale with the
// chunk budget, not the waveform length (the acceptance-criteria gauge).
// ---------------------------------------------------------------------------

TEST(StreamBackpressure, PeakBufferBoundedByChunkBudgetNotWaveformLength) {
  auto& peak = metrics::registry().gauge("serve.stream.buffer_peak_bytes");
  peak.reset();
  ServerOptions opt;
  opt.socket_path = unique_socket("buffer");
  Server server(opt);
  server.start();
  std::string decoded;
  {
    BlockingClient client(server.socket_path());
    StreamAssembler wave = client_stream(client, with_stream(kBigSpiceRequest, "wave1", 4096));
    ASSERT_EQ(wave.status(), "ok") << wave.decoded().substr(0, 200);
    decoded = wave.decoded();
  }
  server.stop();
  // The decoded response is megabytes; the high-water mark of undelivered
  // stream bytes must stay within (window + a frame in flight) chunks.
  const std::int64_t bound =
      static_cast<std::int64_t>((opt.stream_window + 4) * (4096 + 1024));
  EXPECT_GT(decoded.size(), 1u << 20);
  EXPECT_GT(peak.value(), 0);
  EXPECT_LE(peak.value(), bound);
  EXPECT_LT(peak.value(), static_cast<std::int64_t>(decoded.size() / 8))
      << "peak tracked the waveform length, not the chunk budget";
}

// ---------------------------------------------------------------------------
// Cancel mid-stream frees the wave slot for the next request.
// ---------------------------------------------------------------------------

TEST(StreamCancel, MidStreamCancelFreesTheOnlyWaveSlot) {
  Service svc;
  Scheduler::Options sopt;
  sopt.stream_slots = 1;  // one wave slot: a stuck stream would starve B
  Scheduler sched(svc, sopt);
  DeliveryQueue dq(2);
  std::string wire;
  std::thread consumer([&] {
    std::string piece;
    while (dq.next(piece)) wire += piece;
  });

  const int client = sched.open_client();
  sched.dispatch(client, with_stream(kSlowSpiceRequest, "wave1", 1024), dq);
  std::this_thread::sleep_for(200ms);  // let the solve stream some chunks
  EXPECT_TRUE(sched.cancel(client, json::Value::parse("4")));
  // The slot must come free: a second stream on the same lane completes.
  sched.dispatch(client, with_stream(kSpiceRequest, "wave1", 512), dq);
  sched.drain();
  sched.close_client(client);
  dq.close_submit();
  consumer.join();

  std::size_t pos = 0;
  StreamAssembler first = assemble_at(wire, pos);
  EXPECT_EQ(first.status(), "cancelled") << first.decoded();
  StreamAssembler second = assemble_at(wire, pos);
  EXPECT_EQ(second.status(), "ok") << second.decoded();
  EXPECT_EQ(second.decoded(), svc.handle_line(kSpiceRequest));
  EXPECT_EQ(pos, wire.size());
}

TEST(StreamCancel, OverSocketCancelAcknowledgesAndAnswersTheCancelLine) {
  ServerOptions opt;
  opt.socket_path = unique_socket("cancel");
  Server server(opt);
  server.start();
  {
    BlockingClient client(server.socket_path());
    client.send_line(with_stream(kSlowSpiceRequest, "wave1", 1024));
    std::this_thread::sleep_for(150ms);
    client.send_line(R"({"id":99,"cancel":4})");
    // One byte per read: the cancel-response line follows the terminal frame
    // on the wire, and a larger gulp would swallow its first bytes.
    StreamAssembler wave = read_stream(
        [&client](char* out, std::size_t) { return client.recv_raw(out, 1); });
    // Either the cancel landed mid-stream (the common case) or the stream
    // finished first; both are legal, and the cancel line is answered after
    // the stream's terminal frame either way.
    EXPECT_TRUE(wave.status() == "cancelled" || wave.status() == "ok")
        << wave.status();
    const json::Value ack = json::Value::parse(client.recv_line());
    EXPECT_TRUE(ack.find("ok")->as_bool());
    const bool hit = ack.find("result")->find("cancelled")->as_bool();
    if (wave.status() == "cancelled") {
      EXPECT_TRUE(hit);
    }
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Backpressure isolation: a slow reader stalls only its own stream.
// ---------------------------------------------------------------------------

TEST(StreamBackpressure, SlowReaderDoesNotStallAnotherClient) {
  ServerOptions opt;
  opt.socket_path = unique_socket("slow");
  opt.stream_slots = 1;
  opt.stream_window = 2;
  Server server(opt);
  server.start();
  {
    // Client A starts a long stream and never reads: its stream worker ends
    // up blocked on A's delivery window once the socket buffer fills.
    BlockingClient slow(server.socket_path());
    slow.send_line(with_stream(kSlowSpiceRequest, "wave1", 1024));
    std::this_thread::sleep_for(200ms);

    // Client B's plain request rides the dispatcher, not the stream lane:
    // it must answer promptly even though the only wave slot is wedged.
    std::future<std::string> answer = std::async(std::launch::async, [&] {
      BlockingClient fast(server.socket_path());
      fast.send_line(kStaticRequest);
      return fast.recv_line();
    });
    ASSERT_EQ(answer.wait_for(20s), std::future_status::ready)
        << "plain request stalled behind a slow stream reader";
    EXPECT_NE(answer.get().find("\"ok\":true"), std::string::npos);
    // Dropping `slow` unreads the stream: the worker must unwind via
    // Abort{ConsumerGone} so server.stop() below cannot hang.
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Seeded frame-corruption fuzzer: >=10k corrupted streams, every one must
// end in a structured error or a clean truncation — never a crash or hang.
// ---------------------------------------------------------------------------

/// One seeded corruption of `bytes`: truncation, bit flips, range swaps
/// (frame reordering), duplication, garbage insertion, or field overwrites
/// (oversized lengths, unknown types, bad checksums all arise here).
std::string corrupt(const std::string& bytes, Pcg32& rng) {
  std::string out = bytes;
  const int ops = 1 + static_cast<int>(rng.uniform(0.0, 3.0));
  for (int k = 0; k < ops && !out.empty(); ++k) {
    switch (static_cast<int>(rng.uniform(0.0, 5.0))) {
      case 0:  // truncate
        out.resize(static_cast<std::size_t>(rng.uniform(0.0, 1.0) * out.size()));
        break;
      case 1: {  // flip 1..8 bits
        const int flips = 1 + static_cast<int>(rng.uniform(0.0, 8.0));
        for (int f = 0; f < flips; ++f) {
          const std::size_t at = rng.next_u32() % out.size();
          out[at] = static_cast<char>(out[at] ^ (1u << (rng.next_u32() & 7u)));
        }
        break;
      }
      case 2: {  // swap two ranges (reorders frames when cuts hit boundaries)
        const std::size_t a = rng.next_u32() % out.size();
        const std::size_t b = rng.next_u32() % out.size();
        const std::size_t lo = std::min(a, b), hi = std::max(a, b);
        const std::size_t len =
            std::min<std::size_t>(1 + rng.next_u32() % 64, (hi - lo) / 2 + 1);
        if (lo + len <= hi && hi + len <= out.size())
          for (std::size_t i = 0; i < len; ++i) std::swap(out[lo + i], out[hi + i]);
        break;
      }
      case 3: {  // duplicate a slice (repeated/oversized frames)
        const std::size_t at = rng.next_u32() % out.size();
        const std::size_t len = std::min<std::size_t>(1 + rng.next_u32() % 64,
                                                      out.size() - at);
        out.insert(at, out.substr(at, len));
        break;
      }
      default: {  // overwrite 4 bytes (length fields, type bytes, checksums)
        const std::size_t at = rng.next_u32() % out.size();
        for (std::size_t i = at; i < std::min(at + 4, out.size()); ++i)
          out[i] = static_cast<char>(rng.next_u32());
        break;
      }
    }
  }
  return out;
}

TEST(StreamFuzz, CorruptedFramesNeverCrashOrHang) {
  // A genuine template stream (header + several wave1 chunks + end).
  Service svc;
  std::string valid;
  StreamEmitter em = capture_emitter(valid);
  svc.handle_stream(with_stream(kSpiceRequest, "wave1", 256), em);
  ASSERT_EQ(assemble(valid).status(), "ok");
  ASSERT_GT(valid.size(), 1024u);

  std::size_t rejected = 0, truncated = 0, completed = 0;
  for (std::uint64_t seed = 0; seed < 10000; ++seed) {
    Pcg32 rng(seed, 0x5717);
    const std::string bytes = corrupt(valid, rng);
    FrameDecoder dec;
    StreamAssembler out;
    bool threw = false;
    try {
      // Feed in rng-sized slices so partial-frame paths fuzz too.
      std::size_t pos = 0;
      while (pos < bytes.size() && !out.done()) {
        const std::size_t n =
            std::min<std::size_t>(1 + rng.next_u32() % 512, bytes.size() - pos);
        dec.feed(std::string_view(bytes).substr(pos, n));
        pos += n;
        while (!out.done()) {
          const auto f = dec.next();
          if (!f) break;
          out.on_frame(*f);
        }
      }
    } catch (const InvalidParameter&) {
      threw = true;  // structured rejection: the only acceptable throw
    } catch (const std::exception& e) {
      FAIL() << "seed=" << seed << " unexpected exception type: " << e.what();
    }
    if (threw)
      ++rejected;
    else if (out.done())
      ++completed;
    else
      ++truncated;  // EOF mid-frame: caller's clean-close path
  }
  // The corpus must actually exercise all three outcomes.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(truncated, 100u);
  EXPECT_GT(completed, 0u);  // some corruptions land in payload slack
  ::testing::Test::RecordProperty("fuzz_rejected", static_cast<int>(rejected));
  ::testing::Test::RecordProperty("fuzz_truncated", static_cast<int>(truncated));
}

}  // namespace
}  // namespace ivory::serve
