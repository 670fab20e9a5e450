#include "support/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/lane.h"
#include "support/io.h"

namespace rbx {
namespace {

TEST(WireWriter, PrimitivesRoundTrip) {
  wire::Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(-2.5);
  w.str("hello");
  w.f64_vec({1.0, 2.0, 3.0});

  wire::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(r.done());
}

TEST(WireWriter, EncodingIsLittleEndianByDefinition) {
  // The byte layout is part of the format: pinned so a future refactor
  // cannot silently flip it (partials are exchanged between hosts).
  wire::Writer w;
  w.u32(0x04030201u);
  const auto& b = w.data();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(b[0]), 0x01);
  EXPECT_EQ(static_cast<std::uint8_t>(b[1]), 0x02);
  EXPECT_EQ(static_cast<std::uint8_t>(b[2]), 0x03);
  EXPECT_EQ(static_cast<std::uint8_t>(b[3]), 0x04);
}

TEST(WireWriter, DoublesBitPreserved) {
  const double cases[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::nextafter(1.0, 2.0),
  };
  for (double v : cases) {
    wire::Writer w;
    w.f64(v);
    wire::Reader r(w.data());
    const double back = r.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(WireWriter, StringWithEmbeddedNulRoundTrips) {
  const std::string s("a\0b", 3);
  wire::Writer w;
  w.str(s);
  wire::Reader r(w.data());
  EXPECT_EQ(r.str(), s);
}

TEST(WireReader, TruncationThrowsNotUb) {
  wire::Writer w;
  w.u64(42);
  for (std::size_t keep = 0; keep < 8; ++keep) {
    std::vector<std::byte> cut(w.data().begin(),
                               w.data().begin() + static_cast<long>(keep));
    wire::Reader r(cut);
    EXPECT_THROW(r.u64(), wire::Error);
  }
  // A string whose length prefix claims more bytes than exist.
  wire::Writer ws;
  ws.u32(1000);  // length prefix only, no payload
  wire::Reader rs(ws.data());
  EXPECT_THROW(rs.str(), wire::Error);
  // A vector whose count field claims more doubles than could fit.
  wire::Writer wv;
  wv.u32(0xffffffffu);
  wire::Reader rv(wv.data());
  EXPECT_THROW(rv.f64_vec(), wire::Error);
}

TEST(WireReader, ExpectDoneCatchesTrailingGarbage) {
  wire::Writer w;
  w.u8(1);
  w.u8(2);
  wire::Reader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_done(), wire::Error);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(WireFrame, SealAndParse) {
  wire::Writer payload;
  payload.str("payload");
  const std::vector<std::byte> frame = wire::seal_frame(7, payload.data());

  wire::Frame parsed;
  std::size_t consumed = 0;
  ASSERT_TRUE(
      wire::parse_frame(frame.data(), frame.size(), &parsed, &consumed));
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(parsed.type, 7);
  EXPECT_EQ(parsed.payload, payload.data());
}

TEST(WireFrame, IncompleteFrameAsksForMoreBytes) {
  wire::Writer payload;
  payload.u64(1);
  const std::vector<std::byte> frame = wire::seal_frame(1, payload.data());
  wire::Frame parsed;
  std::size_t consumed = 0;
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    EXPECT_FALSE(wire::parse_frame(frame.data(), keep, &parsed, &consumed))
        << "prefix of " << keep << " bytes should be incomplete";
  }
}

TEST(WireFrame, BadMagicRejected) {
  wire::Writer payload;
  const std::vector<std::byte> good = wire::seal_frame(1, payload.data());
  std::vector<std::byte> bad = good;
  bad[0] = static_cast<std::byte>(0x00);
  wire::Frame parsed;
  std::size_t consumed = 0;
  EXPECT_THROW(wire::parse_frame(bad.data(), bad.size(), &parsed, &consumed),
               wire::Error);
}

TEST(WireFrame, VersionMismatchRejected) {
  wire::Writer payload;
  const std::vector<std::byte> good = wire::seal_frame(1, payload.data());
  std::vector<std::byte> bad = good;
  // Version lives in bytes 4..5 (little-endian u16 after the magic).
  bad[4] = static_cast<std::byte>(wire::kVersion + 1);
  wire::Frame parsed;
  std::size_t consumed = 0;
  try {
    wire::parse_frame(bad.data(), bad.size(), &parsed, &consumed);
    FAIL() << "expected wire::Error";
  } catch (const wire::Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(WireFrame, InsaneLengthFieldRejected) {
  wire::Writer header;
  header.u32(wire::kMagic);
  header.u16(wire::kVersion);
  header.u16(1);
  header.u64(wire::kMaxFramePayload + 1);
  wire::Frame parsed;
  std::size_t consumed = 0;
  EXPECT_THROW(wire::parse_frame(header.data().data(), header.size(),
                                 &parsed, &consumed),
               wire::Error);
}

TEST(WireFile, WriteFileAndAtomicWriteRoundTrip) {
  const std::string path = ::testing::TempDir() + "wire_test_frames.bin";
  wire::Writer p1;
  p1.str("one");
  const std::vector<std::byte> data = wire::seal_frame(1, p1.data());
  const auto read_back = [&path] {
    std::ifstream in(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::vector<std::byte> bytes(text.size());
    std::memcpy(bytes.data(), text.data(), text.size());
    return bytes;
  };
  wire::write_file(path, data);
  EXPECT_EQ(read_back(), data);

  // The atomic variant replaces the whole file and leaves no temp file.
  wire::Writer p2;
  p2.str("two");
  const std::vector<std::byte> second = wire::seal_frame(2, p2.data());
  wire::write_file_atomic(path, second);
  EXPECT_EQ(read_back(), second);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

// --- FrameChannel reassembly ------------------------------------------------

// A frame whose payload is `size` bytes counting up from `seed`.
std::vector<std::byte> test_frame(std::uint16_t type, std::size_t size,
                                  unsigned seed) {
  std::vector<std::byte> payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::byte>((seed + i) & 0xff);
  }
  return wire::seal_frame(type, payload);
}

// The channel reads one end of a socketpair; the test writes the other.
struct ChannelPair {
  ChannelPair() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    channel = FrameChannel(sv[0]);
    writer = sv[1];
  }
  ~ChannelPair() { close_writer(); }
  void send(const std::byte* data, std::size_t size) {
    ASSERT_TRUE(io::send_all(writer, data, size));
  }
  void close_writer() {
    if (writer >= 0) {
      ::close(writer);
      writer = -1;
    }
  }
  FrameChannel channel;
  int writer = -1;
};

void expect_frame(FrameChannel& ch, std::uint16_t type, std::size_t size,
                  unsigned seed) {
  wire::Frame frame;
  ASSERT_TRUE(ch.pop(&frame)) << "frame type " << type;
  EXPECT_EQ(frame.type, type);
  const std::vector<std::byte> framed = test_frame(type, size, seed);
  EXPECT_EQ(frame.payload,
            std::vector<std::byte>(framed.begin() + wire::kFrameHeaderSize,
                                   framed.end()));
}

TEST(WireFrameChannel, ManyFramesInOneFill) {
  ChannelPair pair;
  std::vector<std::byte> stream;
  for (unsigned k = 0; k < 40; ++k) {
    const std::vector<std::byte> f = test_frame(3, 7 * k, k);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  pair.send(stream.data(), stream.size());
  ASSERT_TRUE(pair.channel.fill());
  for (unsigned k = 0; k < 40; ++k) {
    expect_frame(pair.channel, 3, 7 * k, k);
  }
  wire::Frame extra;
  EXPECT_FALSE(pair.channel.pop(&extra));
}

TEST(WireFrameChannel, FrameSplitAcrossThreeFills) {
  // A whole frame, then the next one in three pieces: the first piece
  // ends inside the header, the second inside the payload.  The popped
  // frame ahead of it must not disturb the reassembly.
  ChannelPair pair;
  const std::vector<std::byte> first = test_frame(4, 100, 1);
  const std::vector<std::byte> split = test_frame(5, 3000, 2);
  std::vector<std::byte> piece(first);
  piece.insert(piece.end(), split.begin(), split.begin() + 10);
  pair.send(piece.data(), piece.size());
  ASSERT_TRUE(pair.channel.fill());
  expect_frame(pair.channel, 4, 100, 1);
  wire::Frame frame;
  EXPECT_FALSE(pair.channel.pop(&frame));

  pair.send(split.data() + 10, 1000);
  ASSERT_TRUE(pair.channel.fill());
  EXPECT_FALSE(pair.channel.pop(&frame));

  pair.send(split.data() + 1010, split.size() - 1010);
  ASSERT_TRUE(pair.channel.fill());
  expect_frame(pair.channel, 5, 3000, 2);
  EXPECT_FALSE(pair.channel.pop(&frame));
}

TEST(WireFrameChannel, EofWithAWholeFrameStillBuffered) {
  ChannelPair pair;
  const std::vector<std::byte> f = test_frame(6, 64, 9);
  pair.send(f.data(), f.size());
  pair.close_writer();
  ASSERT_TRUE(pair.channel.fill());   // the frame's bytes
  EXPECT_FALSE(pair.channel.fill());  // then EOF
  expect_frame(pair.channel, 6, 64, 9);
  wire::Frame frame;
  EXPECT_FALSE(pair.channel.pop(&frame));
  EXPECT_FALSE(pair.channel.recv(&frame));
}

TEST(WireFrameChannel, FrameLargerThanOneReadArrivesWhole) {
  // 300 KB cannot arrive in one read: the buffer grows across fills.
  ChannelPair pair;
  const std::vector<std::byte> big = test_frame(7, 300000, 3);
  const std::vector<std::byte> small = test_frame(8, 5, 4);
  std::thread writer([&] {
    pair.send(big.data(), big.size());
    pair.send(small.data(), small.size());
    pair.close_writer();
  });
  wire::Frame frame;
  ASSERT_TRUE(pair.channel.recv(&frame));
  EXPECT_EQ(frame.type, 7);
  EXPECT_EQ(frame.payload.size(), 300000u);
  ASSERT_TRUE(pair.channel.recv(&frame));
  EXPECT_EQ(frame.type, 8);
  EXPECT_FALSE(pair.channel.recv(&frame));
  writer.join();
}

}  // namespace
}  // namespace rbx
