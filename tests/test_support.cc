/**
 * @file
 * Unit tests for the support library: memory metering, RNG, hashing,
 * the byte codec, unit formatting, table rendering.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/hash.h"
#include "support/memory_meter.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/units.h"

namespace propeller {
namespace {

TEST(MemoryMeter, TracksLiveAndPeak)
{
    MemoryMeter meter;
    meter.charge(100);
    meter.charge(50);
    EXPECT_EQ(meter.live(), 150u);
    EXPECT_EQ(meter.peak(), 150u);
    meter.release(120);
    EXPECT_EQ(meter.live(), 30u);
    EXPECT_EQ(meter.peak(), 150u);
    meter.charge(10);
    EXPECT_EQ(meter.peak(), 150u) << "peak must not move below high water";
}

TEST(MemoryMeter, ResetClearsEverything)
{
    MemoryMeter meter;
    meter.charge(64);
    meter.reset();
    EXPECT_EQ(meter.live(), 0u);
    EXPECT_EQ(meter.peak(), 0u);
}

TEST(MemoryMeter, ResetPeakKeepsLive)
{
    MemoryMeter meter;
    meter.charge(80);
    meter.release(40);
    meter.resetPeak();
    EXPECT_EQ(meter.live(), 40u);
    EXPECT_EQ(meter.peak(), 40u);
}

TEST(MemoryMeter, ScopedChargeReleasesOnDestruction)
{
    MemoryMeter meter;
    {
        ScopedCharge scope(meter, 1000);
        EXPECT_EQ(meter.live(), 1000u);
        scope.add(24);
        EXPECT_EQ(meter.live(), 1024u);
    }
    EXPECT_EQ(meter.live(), 0u);
    EXPECT_EQ(meter.peak(), 1024u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        uint64_t v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SkewedFavorsSmallValues)
{
    Rng rng(13);
    uint64_t below_mid = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        uint64_t v = rng.skewed(0, 100);
        EXPECT_LE(v, 100u);
        below_mid += (v < 50);
    }
    EXPECT_GT(below_mid, static_cast<uint64_t>(n) * 6 / 10);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Hash, Fnv1aMatchesKnownVector)
{
    // FNV-1a("a") = 0xaf63dc4c8601ec8c.
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a(""), kFnvOffset);
}

TEST(Hash, SensitiveToEveryByte)
{
    EXPECT_NE(fnv1a("hello"), fnv1a("hellp"));
    EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
}

TEST(Hash, CombineOrderMatters)
{
    uint64_t h = kFnvOffset;
    EXPECT_NE(hashCombine(hashCombine(h, 1), 2),
              hashCombine(hashCombine(h, 2), 1));
}

TEST(HashCombine, MatchesByteSerialFnv1a)
{
    // The reference: FNV-1a one byte at a time over the value's 8 bytes
    // in memory order, as every key and golden digest was made.
    auto reference = [](uint64_t h, uint64_t v) {
        uint8_t bytes[sizeof(v)];
        std::memcpy(bytes, &v, sizeof(v));
        for (uint8_t b : bytes)
            h = (h ^ b) * kFnvPrime;
        return h;
    };
    std::vector<uint64_t> values = {0, ~0ull, 0xff00000000000001ull,
                                    0x8000000000000080ull,
                                    0x0001000000010000ull};
    for (int bytes = 1; bytes <= 8; ++bytes) {
        const int top = 8 * bytes - 1;
        values.push_back(1ull << top);         // One high bit.
        values.push_back(~0ull >> (63 - top)); // All ones.
        values.push_back((1ull << top) | 1);   // Zero middle bytes.
    }
    Rng rng(0x5eed);
    for (int i = 0; i < 10'000; ++i)
        values.push_back(rng.next() >> rng.below(64));

    const uint64_t seeds[] = {kFnvOffset, 0, 0x0123456789abcdefull};
    for (uint64_t h : seeds) {
        for (uint64_t v : values)
            ASSERT_EQ(hashCombine(h, v), reference(h, v))
                << std::hex << "h 0x" << h << " v 0x" << v;
    }
}

TEST(Hash, DigestIsFixedWidthHex)
{
    std::string d = hashDigest(0xabcull);
    EXPECT_EQ(d.size(), 16u);
    EXPECT_EQ(d, "0000000000000abc");
}

TEST(Xxh64, MatchesReferenceVectors)
{
    // The known anchors of the xxHash reference implementation.
    EXPECT_EQ(xxh64("", 0), 0xef46db3751d8e999ull);
    EXPECT_EQ(xxh64("abc", 3), 0x44bc2cf5ad770999ull);

    // Expected values from the reference library, over the byte pattern
    // (i * 131 + 7) % 256, produced by
    //   python3 -c "import ctypes as c; x=c.CDLL('libxxhash.so.0');
    //   x.XXH64.restype=c.c_uint64;
    //   x.XXH64.argtypes=[c.c_char_p,c.c_size_t,c.c_uint64];
    //   b=bytes((i*131+7)%256 for i in range(4104));
    //   print(', '.join('0x%016x'%x.XXH64(b[o:o+n],n,0) for o,n in
    //   [(0,n) for n in range(65)]+[(0,1024),(0,4096)]+
    //   [(o,100) for o in range(1,8)]))"
    std::vector<uint8_t> buf(4104);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<uint8_t>(i * 131 + 7);

    // Lengths 0-64 walk every tail path (1-, 4- and 8-byte steps) with
    // zero, one and two 32-byte stripes.
    const uint64_t byLength[65] = {
        0xef46db3751d8e999ull, 0xa96c7f0ce858bbb7ull, 0xc22c6a70ad56bba6ull,
        0xbed43740ee6332bbull, 0xfa212ae44b3bb23dull, 0xd339dcc9ac8e6776ull,
        0x71cabdc85da7ffa0ull, 0x2744460dd675d2c0ull, 0x994b676b71ce94ddull,
        0x572b84c18b983af8ull, 0x08283fd40ee4f8c9ull, 0x97f078da7a1a590cull,
        0xb92f588ce720786eull, 0xdadc8a6255b4829bull, 0x574269377227d80aull,
        0x09e6451ed2ff8b1dull, 0x94ad0095e72b24d5ull, 0x1464f2eff23b5fe1ull,
        0x712c39f6d1ed935eull, 0x83ef9c758393e89dull, 0x67822fa80e0c8933ull,
        0xfa6de19e99ff8d43ull, 0xa8d0ae04d79885f2ull, 0xcf65b69586b05fabull,
        0x0a3b0194f3afe0b8ull, 0xe0fd072fff811c86ull, 0xc4f7372a7fb8f247ull,
        0xfee26cac05aeecf0ull, 0x01a6f3d224fa7d3bull, 0x161a3bc98afcf092ull,
        0x3f8796d7bfaaaa08ull, 0x6711d55e306b5d8full, 0x07f7b8e3bc5d6e25ull,
        0x09f85eeb4e1cbe9full, 0x35284e7f91dd1ae5ull, 0x25cc31e4544bc8c9ull,
        0xe7ac625222f2b655ull, 0x1d8c3a2215085739ull, 0x1fb3064ed36c675full,
        0xb13c137a0fb701c3ull, 0xd25150177ba46490ull, 0x3ad8bb2779d9285eull,
        0xfe4ddab6e3d75ddcull, 0x9d340603aa03cc62ull, 0xd02b2028c27a5329ull,
        0xff59426b0066066bull, 0x713a114207f600e2ull, 0x79bd9d6dd8c15570ull,
        0x2947de5e3a6afeceull, 0x43f1e784039912d3ull, 0x072fa9968401e9c7ull,
        0xc3c4ff0d8f66e206ull, 0x0efbc3939fa05814ull, 0x42be842d0902d7a7ull,
        0x8a78b907c424dc46ull, 0x8f8dc5b07f6d48edull, 0xa2acf5b431db2e52ull,
        0x403200f5d0354116ull, 0xc326a3d65678339bull, 0xa53b8e5bc9ff65a4ull,
        0x4cce586d8aca19e5ull, 0xbd3bd33486af6dc6ull, 0x4149dd403b20a2dcull,
        0xb7c9968c066cb6a5ull, 0x50d4159a0411632eull,
    };
    for (size_t len = 0; len <= 64; ++len)
        EXPECT_EQ(xxh64(buf.data(), len), byLength[len]) << "len " << len;

    EXPECT_EQ(xxh64(buf.data(), 1024), 0x5960af0c625acfb7ull);
    EXPECT_EQ(xxh64(buf.data(), 4096), 0xcf05adf75aca30cfull);

    // Unaligned starts: 100 bytes from offsets 1-7.
    const uint64_t byOffset[7] = {
        0xdf104be44ddedc5eull, 0x576db27a43b044c7ull, 0xf4e51efe1a86aa1full,
        0x11063669b0e294abull, 0x437ecb8ad1afec2bull, 0x11f069fa8b7f7fe7ull,
        0x24558adf44c51bd4ull,
    };
    for (size_t off = 1; off <= 7; ++off)
        EXPECT_EQ(xxh64(buf.data() + off, 100), byOffset[off - 1])
            << "offset " << off;
}

class Leb128Roundtrip : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(Leb128Roundtrip, EncodesAndDecodes)
{
    uint64_t value = GetParam();
    std::vector<uint8_t> buf;
    encodeUleb128(value, buf);
    EXPECT_EQ(buf.size(), uleb128Size(value));
    ByteReader in(buf);
    uint64_t decoded = 0;
    ASSERT_TRUE(in.uleb(decoded));
    EXPECT_EQ(decoded, value);
    EXPECT_TRUE(in.done());
}

INSTANTIATE_TEST_SUITE_P(Values, Leb128Roundtrip,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull,
                                           300ull, 16383ull, 16384ull,
                                           0xffffffffull,
                                           0x123456789abcdefull,
                                           UINT64_MAX));

TEST(Leb128, TruncatedInputFails)
{
    std::vector<uint8_t> buf;
    encodeUleb128(UINT64_MAX, buf);
    buf.pop_back();
    ByteReader in(buf);
    uint64_t v = 7;
    EXPECT_FALSE(in.uleb(v));
    EXPECT_EQ(v, 7u);
}

TEST(Leb128, EmptyInputFails)
{
    std::vector<uint8_t> buf;
    ByteReader in(buf);
    uint64_t v = 0;
    EXPECT_FALSE(in.uleb(v));
}

TEST(Leb128, WiderThan64BitsFails)
{
    // Ten continuation bytes carry 70 bits: the eleventh byte is refused
    // even though it terminates the field.
    std::vector<uint8_t> buf(10, 0x80);
    buf.push_back(0x00);
    ByteReader in(buf);
    uint64_t v = 0;
    EXPECT_FALSE(in.uleb(v));
}

TEST(ByteReader, NonMinimalUlebFails)
{
    // A zero final byte after a continuation byte pads the field: 0x80
    // 0x00 spells zero, 0xff 0x80 0x00 spells 127, and nine continuation
    // bytes then a zero spell zero at full width.  None is what
    // encodeUleb128() writes, so none is accepted.
    const std::vector<std::vector<uint8_t>> padded = {
        {0x80, 0x00},
        {0xff, 0x80, 0x00},
        {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
    };
    for (const auto &buf : padded) {
        ByteReader in(buf);
        uint64_t v = 7;
        EXPECT_FALSE(in.uleb(v)) << buf.size();
        EXPECT_EQ(v, 7u);
    }
}

TEST(ByteReader, OverlongUlebFails)
{
    // The tenth byte carries bit 63 alone: 0x01 (UINT64_MAX's last byte,
    // see Leb128Roundtrip) is its largest value, and anything above it
    // would set bits past bit 63.
    for (uint8_t last : {uint8_t{0x02}, uint8_t{0x7f}}) {
        std::vector<uint8_t> wide(9, 0x80);
        wide.push_back(last);
        ByteReader in(wide);
        uint64_t v = 7;
        EXPECT_FALSE(in.uleb(v)) << int{last};
        EXPECT_EQ(v, 7u);
    }
}

TEST(ByteReader, FieldsRoundTrip)
{
    // Sized up front: GCC 12 at -O3 misreads the growth path of the
    // small range inserts below (a false -Wstringop-overflow).
    std::vector<uint8_t> buf;
    buf.reserve(32);
    putLe64(0x0123456789abcdefull, buf);
    putString("name", buf);
    const std::vector<uint8_t> run = {1, 2, 3};
    putBytes(run, buf);
    buf.push_back(0xfe);
    // The 8-byte words are little-endian on any host.
    EXPECT_EQ(buf[0], 0xef);
    EXPECT_EQ(buf[7], 0x01);
    EXPECT_EQ(getLe64(buf.data()), 0x0123456789abcdefull);

    ByteReader in(buf);
    uint64_t word = 0;
    std::string name;
    uint64_t len = 0;
    std::span<const uint8_t> bytes;
    uint8_t last = 0;
    ASSERT_TRUE(in.le64(word));
    ASSERT_TRUE(in.str(name));
    ASSERT_TRUE(in.uleb(len));
    ASSERT_TRUE(in.bytes(len, bytes));
    EXPECT_EQ(in.left(), 1u);
    ASSERT_TRUE(in.u8(last));
    EXPECT_TRUE(in.done());
    EXPECT_EQ(word, 0x0123456789abcdefull);
    EXPECT_EQ(name, "name");
    EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()), run);
    EXPECT_EQ(last, 0xfe);
    // Every read past the end fails and leaves its output alone.
    EXPECT_FALSE(in.u8(last));
    EXPECT_FALSE(in.le64(word));
    EXPECT_FALSE(in.str(name));
    EXPECT_EQ(last, 0xfe);
    EXPECT_EQ(word, 0x0123456789abcdefull);
    EXPECT_EQ(name, "name");
}

TEST(ByteReader, LengthsAreBoundedByTheBytesLeft)
{
    // A string whose length claims more bytes than remain, including a
    // length near 2^64 that would wrap a position-plus-length check.
    for (uint64_t claimed : {uint64_t{4}, uint64_t{UINT64_MAX}}) {
        std::vector<uint8_t> buf;
        encodeUleb128(claimed, buf);
        buf.insert(buf.end(), {'a', 'b', 'c'});
        ByteReader in(buf);
        std::string s;
        EXPECT_FALSE(in.str(s)) << claimed;
        EXPECT_TRUE(s.empty()) << claimed;
    }
    std::vector<uint8_t> seven(7, 0);
    ByteReader in(seven);
    uint64_t word = 0;
    std::span<const uint8_t> view;
    EXPECT_FALSE(in.le64(word));
    EXPECT_FALSE(in.bytes(8, view));
    EXPECT_TRUE(in.bytes(7, view));
    EXPECT_TRUE(in.done());
}

TEST(ByteReader, FooterPullsTheEndIn)
{
    std::vector<uint8_t> buf = {'T', 'A', 'G', 5};
    putLe64(0xfeedull, buf);
    ByteReader in(buf);
    uint64_t footer = 0;
    EXPECT_FALSE(in.magic("TAX"));
    ASSERT_TRUE(in.magic("TAG"));
    ASSERT_TRUE(in.footer(footer));
    EXPECT_EQ(footer, 0xfeedull);
    // Only the byte before the footer is left to read.
    uint64_t word = 0;
    EXPECT_FALSE(in.le64(word));
    EXPECT_EQ(in.left(), 1u);
    uint8_t b = 0;
    ASSERT_TRUE(in.u8(b));
    EXPECT_EQ(b, 5);
    EXPECT_TRUE(in.done());
    EXPECT_FALSE(in.footer(footer));
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(72ull * 1024 * 1024), "72 MB");
    EXPECT_EQ(formatBytes(34ull * 1024), "34 KB");
    EXPECT_EQ(formatBytes(5ull * 1024 * 1024 * 1024 / 2), "2.50 GB");
}

TEST(Units, FormatCount)
{
    EXPECT_EQ(formatCount(80), "80");
    EXPECT_EQ(formatCount(160'000), "160 K");
    EXPECT_EQ(formatCount(2'100'000), "2.10 M");
}

TEST(Units, FormatPercentDelta)
{
    EXPECT_EQ(formatPercentDelta(0.073), "+7.3%");
    EXPECT_EQ(formatPercentDelta(-0.02), "-2.0%");
}

TEST(Units, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.67), "67%");
    EXPECT_EQ(formatPercent(0.051, 1), "5.1%");
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"Name", "Value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("| Name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    // Numeric cells right-align: "22" ends where "1" ends.
    size_t p1 = out.find(" 1 |");
    size_t p2 = out.find("22 |");
    EXPECT_NE(p1, std::string::npos);
    EXPECT_NE(p2, std::string::npos);
}

TEST(Table, SeparatorRows)
{
    Table t({"A"});
    t.addRow({"x"});
    t.addSeparator();
    t.addRow({"y"});
    std::string out = t.render();
    // Header sep + 2 outer seps + 1 inner = 4 separator lines.
    int seps = 0;
    for (size_t pos = 0; (pos = out.find("+--", pos)) != std::string::npos;
         ++pos)
        ++seps;
    EXPECT_EQ(seps, 4);
}

TEST(BarChart, ScalesToMax)
{
    BarChart chart(10);
    chart.addBar("big", 100.0, "100");
    chart.addBar("half", 50.0, "50");
    std::string out = chart.render();
    EXPECT_NE(out.find("##########"), std::string::npos);
    EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(HeatMap, RendersRowsTopDown)
{
    std::vector<std::vector<uint64_t>> cells = {{0, 0}, {9, 9}};
    std::string out = renderHeatMap(cells, "addr", "time");
    // Higher addresses (row 1) print first.
    size_t dark = out.find('@');
    size_t blank = out.find("|  |");
    EXPECT_NE(dark, std::string::npos);
    EXPECT_NE(blank, std::string::npos);
    EXPECT_LT(dark, blank);
}

} // namespace
} // namespace propeller
