/**
 * @file
 * Trace input hardening: hostile bytes must never crash the loader.
 *
 * The contract under test (ISSUE 4): a truncated, corrupt or garbage
 * trace file is rejected by TraceData::load with a diagnostic and a
 * null result — it must never reach the cursor or the simulator, and
 * decoding hostile bytes must never be undefined behaviour. A load
 * that *does* succeed guarantees the record stream is structurally
 * sound, so TraceCursor can walk it without bounds faults.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.hh"
#include "trace/trace.hh"

namespace tvarak {
namespace {

/** @name Byte-level file fixture helpers */
/**@{*/
std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");  // lint:allow(R7)
    EXPECT_NE(f, nullptr);
    std::vector<std::uint8_t> bytes;
    int c = 0;
    while ((c = std::fgetc(f)) != EOF)
        bytes.push_back(static_cast<std::uint8_t>(c));
    std::fclose(f);
    return bytes;
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");  // lint:allow(R7)
    ASSERT_NE(f, nullptr);
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}
/**@}*/

/** A small but representative trace covering every record shape. */
std::shared_ptr<trace::TraceData>
fixtureTrace()
{
    trace::TraceWriter w(test::smallConfig(), DesignKind::Baseline,
                         "harden");
    const std::uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    w.onRead(0, 0x1000, 64);
    w.onWrite(1, 0x2000, payload, sizeof(payload));
    w.onCompute(0, 42);
    w.onComputeChecksum(1, 4096);
    w.onDropCaches();
    DirtyRange r;
    r.vaddr = 0x3000;
    r.len = 16;
    r.objBase = lineBase(r.vaddr);
    r.objLen = kLineBytes;
    r.csumVaddr = 0x9000;
    w.onCommit(1, {r}, true, true);
    w.onFsCreate("f", 4096, 3);
    w.onFsDaxMap(3);
    w.onFsPwrite(0, 3, 128, payload, sizeof(payload));
    w.onFsPread(1, 3, 128, 8);
    w.onFsDaxUnmap(3);
    w.onFsRemove(3);
    w.onRead(17, 0x5000, 64);  // escaped-tid head byte
    w.onMarker(trace::kMarkerResetStats);
    return w.finish();
}

TEST(TraceHarden, VarintCheckedRejectsTruncationAndRunaway)
{
    // Truncated: continuation bit set on the last available byte.
    const std::uint8_t truncated[] = {0x80, 0x80};
    const std::uint8_t *p = truncated;
    std::uint64_t v = 0;
    EXPECT_FALSE(trace::getVarintChecked(p, truncated + 2, v));

    // Runaway: more continuation groups than a u64 can hold. The
    // shift must saturate instead of running past the word (UB).
    std::vector<std::uint8_t> runaway(64, 0x80);
    p = runaway.data();
    EXPECT_FALSE(
        trace::getVarintChecked(p, p + runaway.size(), v));

    // Empty input.
    p = runaway.data();
    EXPECT_FALSE(trace::getVarintChecked(p, p, v));

    // Maximal valid encoding round-trips.
    std::vector<std::uint8_t> buf;
    trace::putVarint(buf, ~0ull);
    p = buf.data();
    ASSERT_TRUE(trace::getVarintChecked(p, p + buf.size(), v));
    EXPECT_EQ(v, ~0ull);
    EXPECT_EQ(p, buf.data() + buf.size());
}

TEST(TraceHarden, LoadRejectsCraftedCorruptStreams)
{
    const char *path = "test_trace_harden_crafted.trace";
    auto mangle = [&](const std::function<void(trace::TraceData &)> &fn) {
        auto t = fixtureTrace();
        fn(*t);
        EXPECT_TRUE(t->save(path));
        return trace::TraceData::load(path);
    };

    // Unknown opcode in a head byte.
    EXPECT_EQ(mangle([](trace::TraceData &t) {
                  t.records.push_back(0xD0);  // opcode 13
                  t.eventCount++;
              }),
              nullptr);

    // Runaway varint continuation run where a length belongs.
    EXPECT_EQ(mangle([](trace::TraceData &t) {
                  t.records.push_back(0x20);  // Compute, tid 0
                  t.records.insert(t.records.end(), 16, 0x80);
                  t.eventCount++;
              }),
              nullptr);

    // Write whose payload length exceeds the remaining bytes.
    EXPECT_EQ(mangle([](trace::TraceData &t) {
                  t.records.push_back(0x10);  // Write, tid 0
                  t.records.push_back(0x00);  // delta 0
                  t.records.push_back(0x7F);  // len 127, but no payload
                  t.eventCount++;
              }),
              nullptr);

    // Escaped tid past int's range: replay would hand MemorySystem a
    // negative thread id.
    EXPECT_EQ(mangle([](trace::TraceData &t) {
                  t.records.push_back(0x2F);  // Compute, escaped tid
                  trace::putVarint(t.records, std::uint64_t{1} << 31);
                  t.records.push_back(0x01);  // 1 cycle
                  t.eventCount++;
              }),
              nullptr);

    // Header event count disagreeing with the stream.
    EXPECT_EQ(mangle([](trace::TraceData &t) { t.eventCount++; }),
              nullptr);

    // Truncated trailing record.
    EXPECT_EQ(mangle([](trace::TraceData &t) {
                  t.records.push_back(0x60);  // FsCreate, tid 0
                  t.eventCount++;
              }),
              nullptr);

    std::remove(path);
}

/**
 * Every possible single-byte corruption of a valid trace file either
 * fails to load (with a diagnostic) or yields a stream the cursor can
 * fully decode: no crash, no bounds fault, no hang, whatever the byte.
 */
TEST(TraceHarden, SingleByteCorruptionSweepNeverCrashes)
{
    const char *path = "test_trace_harden_sweep.trace";
    auto t = fixtureTrace();
    ASSERT_TRUE(t->save(path));
    const std::vector<std::uint8_t> good = readFile(path);
    ASSERT_FALSE(good.empty());

    std::size_t rejected = 0;
    for (std::size_t i = 0; i < good.size(); i++) {
        std::vector<std::uint8_t> bad = good;
        bad[i] ^= 0xFF;
        writeFile(path, bad);
        auto loaded = trace::TraceData::load(path);
        if (loaded == nullptr) {
            rejected++;
            continue;
        }
        // Accepted: the structural guarantee must hold all the way
        // through the stream.
        trace::TraceCursor c(*loaded);
        trace::TraceEvent e;
        std::uint64_t n = 0;
        while (c.next(e))
            n++;
        EXPECT_EQ(n, loaded->eventCount) << "byte " << i;
    }
    // The header (magic, version, fingerprint-protected config) and
    // most structural bytes must reject; only payload-content flips
    // may legitimately load.
    EXPECT_GT(rejected, good.size() / 2);

    // Truncation at every prefix length is likewise rejected cleanly.
    for (std::size_t len = 0; len < good.size(); len++) {
        writeFile(path,
                  std::vector<std::uint8_t>(good.begin(),
                                            good.begin() + len));
        EXPECT_EQ(trace::TraceData::load(path), nullptr)
            << "prefix " << len;
    }
    std::remove(path);
}

}  // namespace
}  // namespace tvarak
